"""Predecoded dispatch: compile basic blocks to pre-bound step closures.

The slow interpreter path pays, on every executed instruction, for an
executor-table lookup, a ``charge_instruction`` call (isinstance checks,
dict probes, float multiplies) and per-operand ``isinstance(value,
Constant)`` resolution.  None of that depends on runtime state: the
operand kinds, the instruction's cycle cost (including the synthetic
discount and the deterministic scheduling factor) and the arithmetic
semantics are all fixed once the :class:`~repro.vm.interpreter.Machine`
is built.

The decoder therefore compiles each basic block — lazily, on first
entry — into a list of *step* closures, one per instruction, with

* operand resolvers resolved once: constants and global addresses are
  folded to plain Python ints baked into the closure, SSA values become
  a single inlined ``frame.env`` lookup,
* per-instruction cycle costs pre-looked-up as integer units
  (:meth:`CostModel.instruction_units`, shared with the slow path so the
  two dispatchers charge bit-identical totals),
* arithmetic specialised per opcode and type (no string comparisons or
  type-width recomputation in the hot loop), and
* branch edges carrying their phi parallel-copy plan pre-resolved for
  the specific source block.

The machine's ``fast_dispatch=False`` escape hatch keeps the original
executor-table path; the test suite asserts both produce bit-identical
:class:`ExecutionResult` fields on every workload.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import IRError, VMError, VMFault, VMTrap
from repro.ir import instructions as ir
from repro.ir.values import Constant, GlobalVariable, Value
from repro.minic import types as ct
from repro.vm.costs import DYNAMIC_ALLOCA_UNITS
from repro.vm.floatmath import float_to_int_operand, round_f32
from repro.vm.memory import DATA_BASE, HEAP_BASE

_U64 = (1 << 64) - 1

#: Sentinel for "operand is not a compile-time-foldable value".
_UNFOLDED = object()

#: A decoded instruction: mutates the frame/machine, returns nothing.
Step = Callable[[object], None]


class FellOffBlock(Exception):
    """Raised by the sentinel step appended to every decoded block.

    Every well-formed block ends in a terminator, which either redirects
    ``inst_index`` into another block or pops the frame — so the sentinel
    only fires for malformed IR.  Keeping the check out of the dispatch
    loop (which would otherwise pay a ``len()`` per step) and in a
    sentinel makes falling off an exceptional control transfer instead of
    a per-step comparison; the loop converts it to the slow path's
    ``VMError`` diagnostic.
    """


def _sentinel_step(frame):
    raise FellOffBlock


class HotCall(Exception):
    """Raised by a tiering call step once its site is hot, *after* the
    callee's frame is pushed: the JIT runs the callee compiled."""


class HotLoop(Exception):
    """Raised by a tiering loop back-edge once it is hot, *after* the
    frame entered the loop header: the JIT resumes the frame compiled
    from that header."""


def _traced_step(step: "Step", opname: str, units: int, tracer) -> "Step":
    """Wrap a decoded step to feed the tracer's opcode histogram.

    Only traced machines decode through this — an untraced machine's
    step list is byte-for-byte what it always was, so tracing-off adds
    zero dispatch overhead.  The histogram hook fires *before* the step
    body, matching the slow path's charge-then-execute order.
    """
    on_opcode = tracer.on_opcode

    def traced(frame):
        on_opcode(opname, units)
        step(frame)

    return traced


def _undefined(frame, value: Value):
    """Raise the slow path's undefined-value diagnostic."""
    raise VMError(
        f"use of undefined value %{value.name} in "
        f"'{frame.function.name}' (block not yet executed?)"
    ) from None


def _int_wrap(ctype: ct.CType):
    """Type-specialised equivalent of ``interpreter._wrap_int``."""
    bits = ctype.size() * 8
    mask = (1 << bits) - 1
    if getattr(ctype, "signed", False):
        sign = 1 << (bits - 1)
        span = 1 << bits

        def wrap(value: int) -> int:
            value &= mask
            return value - span if value >= sign else value

        return wrap

    def wrap_unsigned(value: int) -> int:
        return value & mask

    return wrap_unsigned


def _binop_impl(op: str, result_type: ct.CType):
    """Specialised two-argument implementation of one BinOp opcode.

    Must agree exactly with ``interpreter._apply_binop`` — the
    equivalence tests run every workload through both.
    """
    if op in ("fadd", "fsub", "fmul", "fdiv"):
        # float-typed results round to binary32 per operation (matching
        # interpreter._apply_binop); double results stay unrounded.
        if op == "fadd":
            impl = lambda a, b: float(a) + float(b)  # noqa: E731
        elif op == "fsub":
            impl = lambda a, b: float(a) - float(b)  # noqa: E731
        elif op == "fmul":
            impl = lambda a, b: float(a) * float(b)  # noqa: E731
        else:

            def impl(a, b):
                denominator = float(b)
                if denominator == 0.0:
                    return float("inf") if float(a) > 0 else float("-inf")
                return float(a) / denominator

        if result_type.size() == 4:
            return lambda a, b: round_f32(impl(a, b))
        return impl

    wrap = _int_wrap(result_type)
    bits = result_type.size() * 8
    mask = (1 << bits) - 1

    if op == "add":
        return lambda a, b: wrap(int(a) + int(b))
    if op == "sub":
        return lambda a, b: wrap(int(a) - int(b))
    if op == "mul":
        return lambda a, b: wrap(int(a) * int(b))
    if op == "and":
        return lambda a, b: wrap(int(a) & int(b))
    if op == "or":
        return lambda a, b: wrap(int(a) | int(b))
    if op == "xor":
        return lambda a, b: wrap(int(a) ^ int(b))
    if op in ("sdiv", "srem"):
        want_div = op == "sdiv"

        def signed_div(a, b):
            a, b = int(a), int(b)
            if b == 0:
                raise VMTrap("integer division by zero")
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            if want_div:
                return wrap(quotient)
            return wrap(a - quotient * b)

        return signed_div
    if op in ("udiv", "urem"):
        want_div = op == "udiv"

        def unsigned_div(a, b):
            a = int(a) & mask
            b = int(b) & mask
            if b == 0:
                raise VMTrap("integer division by zero")
            return wrap(a // b if want_div else a % b)

        return unsigned_div
    if op == "shl":
        shift_mask = bits - 1
        return lambda a, b: wrap(int(a) << (int(b) & shift_mask))
    if op == "lshr":
        shift_mask = bits - 1
        return lambda a, b: wrap((int(a) & mask) >> (int(b) & shift_mask))
    if op == "ashr":
        shift_mask = bits - 1
        return lambda a, b: wrap(int(a) >> (int(b) & shift_mask))
    raise VMError(f"unknown binop '{op}'")


_FLOAT_CMPS = {
    "feq": lambda a, b: a == b,
    "fne": lambda a, b: a != b,
    "flt": lambda a, b: a < b,
    "fle": lambda a, b: a <= b,
    "fgt": lambda a, b: a > b,
    "fge": lambda a, b: a >= b,
}

_ORDER_CMPS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def _cmp_impl(op: str, operand_type: ct.CType):
    """Specialised comparison matching ``interpreter._apply_cmp``."""
    if op.startswith("f"):
        compare = _FLOAT_CMPS[op]
        return lambda a, b: int(compare(float(a), float(b)))
    if op == "eq":
        return lambda a, b: int(int(a) == int(b))
    if op == "ne":
        return lambda a, b: int(int(a) != int(b))
    compare = _ORDER_CMPS[op[1:]]
    if op[0] == "u" or operand_type.is_pointer():
        if operand_type.is_integer():
            mask = (1 << (operand_type.size() * 8)) - 1
        else:
            mask = _U64
        return lambda a, b: int(compare(int(a) & mask, int(b) & mask))
    return lambda a, b: int(compare(int(a), int(b)))


def _cast_impl(kind: str, from_type: ct.CType, to_type: ct.CType):
    """Specialised conversion matching ``interpreter._apply_cast``."""
    if kind in ("trunc", "zext", "sext", "bitcast", "ptrtoint", "inttoptr"):
        if kind == "zext":
            from_mask = (1 << (from_type.size() * 8)) - 1
            if to_type.is_pointer():
                return lambda v: (int(v) & from_mask) & _U64
            if to_type.is_integer():
                wrap = _int_wrap(to_type)
                return lambda v: wrap(int(v) & from_mask)
            return lambda v: int(v) & from_mask
        if to_type.is_pointer():
            return lambda v: int(v) & _U64
        if to_type.is_integer():
            wrap = _int_wrap(to_type)
            return lambda v: wrap(int(v))
        return lambda v: v
    if kind in ("fptosi", "fptoui"):
        wrap = _int_wrap(to_type)
        return lambda v: wrap(int(float_to_int_operand(float(v))))
    if kind == "sitofp":
        if to_type.size() == 4:
            return lambda v: round_f32(float(int(v)))
        return lambda v: float(int(v))
    if kind == "uitofp":
        from_mask = (1 << (from_type.size() * 8)) - 1
        if to_type.size() == 4:
            return lambda v: round_f32(float(int(v) & from_mask))
        return lambda v: float(int(v) & from_mask)
    if kind == "fpext":
        return lambda v: float(v)
    if kind == "fptrunc":
        return lambda v: round_f32(float(v))
    raise VMError(f"unknown cast '{kind}'")


class Decoder:
    """Per-machine block compiler with a block -> code cache.

    One decoder is bound to one machine: global addresses, the cost
    model's scheduling factors and the builtin handlers it folds into
    closures are all per-machine state.
    """

    def __init__(self, machine):
        self.machine = machine
        self._cache: Dict[object, List[Step]] = {}
        #: (hot calls, hot back-edges) of a tiered JIT machine, else
        #: None: then no step ever raises HotCall/HotLoop.
        self._hot = machine._hot
        #: functions the JIT engine has compiled: every interpreted
        #: call to one of them raises HotCall, however cold its site.
        self.compiled: set = set()
        self._block_positions: Dict[object, Dict[int, int]] = {}
        self._decoders = {
            ir.Alloca: self._decode_alloca,
            ir.Load: self._decode_load,
            ir.Store: self._decode_store,
            ir.ElemPtr: self._decode_elemptr,
            ir.FieldPtr: self._decode_fieldptr,
            ir.BinOp: self._decode_binop,
            ir.Cmp: self._decode_cmp,
            ir.Cast: self._decode_cast,
            ir.Select: self._decode_select,
            ir.Call: self._decode_call,
            ir.Phi: self._decode_phi,
            ir.Br: self._decode_br,
            ir.CondBr: self._decode_condbr,
            ir.Ret: self._decode_ret,
            ir.Unreachable: self._decode_unreachable,
        }

    def code_for(self, block, function) -> List[Step]:
        code = self._cache.get(block)
        if code is None:
            code = self._decode_block(block, function)
            self._cache[block] = code
        return code

    # -- helpers ---------------------------------------------------------------

    def _decode_block(self, block, function) -> List[Step]:
        cost = self.machine.cost
        tracer = getattr(self.machine, "_tracer", None)
        name = function.name
        code = []
        for inst in block.instructions:
            units = cost.instruction_units(inst, name)
            decode = self._decoders.get(type(inst))
            if decode is None:
                step = self._decode_unknown(inst, units)
            else:
                step = decode(inst, function, units)
            if tracer is not None:
                step = _traced_step(step, type(inst).__name__, units, tracer)
            code.append(step)
        code.append(_sentinel_step)
        return code

    def _decode_unknown(self, inst, units: int) -> Step:
        cost = self.machine.cost
        type_name = type(inst).__name__

        def step(frame):
            cost.cycle_units += units
            raise VMError(f"no executor for {type_name}")

        return step

    def _folded(self, value: Value):
        """The operand's compile-time value, or ``_UNFOLDED``."""
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, GlobalVariable):
            return self.machine.image.global_addresses[value.name]
        return _UNFOLDED

    def _getter(self, value: Value):
        """Resolve one operand once; constants/globals fold to ints."""
        folded = self._folded(value)
        if folded is not _UNFOLDED:
            return lambda frame: folded

        def get(frame, value=value):
            try:
                return frame.env[value]
            except KeyError:
                _undefined(frame, value)

        return get

    def _coercer(self, ctype: ct.CType):
        """Type-specialised equivalent of ``Machine._coerce``."""
        if ctype.is_float():
            return lambda v: 0 if v is None else float(v)
        if ctype.is_pointer():
            return lambda v: 0 if v is None else int(v) & _U64
        if ctype.is_integer():
            wrap = _int_wrap(ctype)
            return lambda v: 0 if v is None else wrap(int(v))
        return lambda v: 0 if v is None else v

    def _binary_step(self, inst, units: int, impl) -> Step:
        """A step computing ``impl(lhs, rhs)`` with inlined operand fetch.

        Operands are fetched in slow-path order (lhs first) so undefined-
        value diagnostics land on the same operand.
        """
        cost = self.machine.cost
        lhs, rhs = inst.operands[0], inst.operands[1]
        lhs_folded = self._folded(lhs)
        rhs_folded = self._folded(rhs)
        if lhs_folded is not _UNFOLDED and rhs_folded is not _UNFOLDED:

            def step(frame, inst=inst):
                cost.cycle_units += units
                frame.env[inst] = impl(lhs_folded, rhs_folded)

            return step
        if rhs_folded is not _UNFOLDED:

            def step(frame, inst=inst, lhs=lhs):
                cost.cycle_units += units
                env = frame.env
                try:
                    a = env[lhs]
                except KeyError:
                    _undefined(frame, lhs)
                env[inst] = impl(a, rhs_folded)

            return step
        if lhs_folded is not _UNFOLDED:

            def step(frame, inst=inst, rhs=rhs):
                cost.cycle_units += units
                env = frame.env
                try:
                    b = env[rhs]
                except KeyError:
                    _undefined(frame, rhs)
                env[inst] = impl(lhs_folded, b)

            return step

        def step(frame, inst=inst, lhs=lhs, rhs=rhs):
            cost.cycle_units += units
            env = frame.env
            try:
                a = env[lhs]
            except KeyError:
                _undefined(frame, lhs)
            try:
                b = env[rhs]
            except KeyError:
                _undefined(frame, rhs)
            env[inst] = impl(a, b)

        return step

    # -- per-instruction decoders ----------------------------------------------

    def _decode_alloca(self, inst: ir.Alloca, function, units: int) -> Step:
        cost = self.machine.cost
        if inst.is_static():

            def step(frame, inst=inst):
                cost.cycle_units += units
                frame.env[inst] = frame.alloca_addresses[inst]

            return step

        machine = self.machine
        memory = machine.memory
        count_get = self._getter(inst.count)
        element = inst.allocated_type
        element_size = element.size() if element.is_complete() else None
        align = inst.align
        total_units = units + DYNAMIC_ALLOCA_UNITS

        def step(frame, inst=inst):
            cost.cycle_units += total_units
            count = int(count_get(frame))
            if count < 0:
                raise VMFault("bad-alloca", frame.sp, f"negative VLA length {count}")
            size = element_size * count if element_size is not None else count
            cursor = frame.sp - size
            cursor -= cursor % align
            memory.touch_stack(cursor)
            frame.sp = cursor
            machine._sp = cursor
            frame.env[inst] = cursor

        return step

    def _decode_load(self, inst: ir.Load, function, units: int) -> Step:
        cost = self.machine.cost
        memory = self.machine.memory
        pointer = inst.pointer
        folded = self._folded(pointer)
        ctype = inst.ctype
        is_float = False
        if ctype.is_pointer():
            size, signed, reader = 8, False, memory.read_int
        elif ctype.is_float():
            size, signed, reader = ctype.size(), None, memory.read_float
            is_float = True
        elif ctype.is_integer():
            size = ctype.size()
            signed = getattr(ctype, "signed", True)
            reader = memory.read_int
        else:

            def step(frame, ctype=ctype):
                cost.cycle_units += units
                raise VMError(f"cannot load type {ctype}")

            return step

        if is_float:
            if folded is not _UNFOLDED:
                address = int(folded)

                def step(frame, inst=inst):
                    cost.cycle_units += units
                    frame.env[inst] = reader(address, size)

                return step

            def step(frame, inst=inst, pointer=pointer):
                cost.cycle_units += units
                env = frame.env
                try:
                    address = env[pointer]
                except KeyError:
                    _undefined(frame, pointer)
                env[inst] = reader(int(address), size)

            return step

        # The stack and data segments have fixed bounds by the time decode
        # runs (decode is lazy — the image is already loaded, and only the
        # heap grows during execution), so the in-range checks can be
        # inlined here with the segment buffers (the stack's mmap, the
        # data bytearray) captured directly.
        # Heap accesses and misses fall through to ``memory.read_int``,
        # which keeps its own fast paths and the exact fault diagnostics.
        stack_base = memory._stack_base
        stack_data = memory.stack.data
        stack_end = stack_base + len(stack_data)
        data_data = memory.data.data
        data_end = DATA_BASE + len(data_data)

        if folded is not _UNFOLDED:
            address = int(folded)
            if stack_base <= address and address + size <= stack_end:
                offset, buf = address - stack_base, stack_data
            elif (DATA_BASE <= address < HEAP_BASE
                  and address + size <= data_end):
                offset, buf = address - DATA_BASE, data_data
            else:
                buf = None
            if buf is not None:
                end = offset + size

                def step(frame, inst=inst):
                    cost.cycle_units += units
                    frame.env[inst] = int.from_bytes(
                        buf[offset:end], "little", signed=signed
                    )

                return step

            def step(frame, inst=inst):
                cost.cycle_units += units
                frame.env[inst] = reader(address, size, signed)

            return step

        def step(frame, inst=inst, pointer=pointer):
            cost.cycle_units += units
            env = frame.env
            try:
                address = env[pointer]
            except KeyError:
                _undefined(frame, pointer)
            address = int(address)
            if address >= stack_base:
                if address + size <= stack_end:
                    offset = address - stack_base
                    env[inst] = int.from_bytes(
                        stack_data[offset:offset + size], "little", signed=signed
                    )
                    return
            elif DATA_BASE <= address < HEAP_BASE:
                if address + size <= data_end:
                    offset = address - DATA_BASE
                    env[inst] = int.from_bytes(
                        data_data[offset:offset + size], "little", signed=signed
                    )
                    return
            env[inst] = reader(address, size, signed)

        return step

    def _decode_store(self, inst: ir.Store, function, units: int) -> Step:
        cost = self.machine.cost
        memory = self.machine.memory
        if getattr(self.machine, "_tracer", None) is not None:
            # Traced machines must not use the inlined buffer store
            # paths below — those bypass the Memory methods the write
            # observer shadows.  The generic path charges the same units
            # and has identical semantics (it IS memory.write_int).
            return self._decode_store_observed(inst, units)
        pointer, value = inst.pointer, inst.value
        pointer_folded = self._folded(pointer)
        value_folded = self._folded(value)
        ctype = value.ctype
        if ctype.is_float():
            size = ctype.size()
            write_float = memory.write_float
            pointer_get = self._getter(pointer)
            value_get = self._getter(value)

            def step(frame):
                cost.cycle_units += units
                address = pointer_get(frame)
                stored = value_get(frame)
                write_float(int(address), float(stored), size)

            return step
        if ctype.is_pointer():
            size = 8
            write_int = memory.write_int
            convert = lambda v: int(v) & _U64  # noqa: E731
        elif ctype.is_integer():
            size = ctype.size()
            write_int = memory.write_int
            convert = int
        else:
            pointer_get = self._getter(pointer)
            value_get = self._getter(value)

            def step(frame, ctype=ctype):
                cost.cycle_units += units
                # Resolve both operands first, as the slow path does, so
                # an undefined operand produces the same diagnostic.
                int(pointer_get(frame))
                value_get(frame)
                raise VMError(f"cannot store type {ctype}")

            return step

        # Same fixed-window inlining as loads (see _decode_load): stack and
        # data bounds are final once decode runs, and both segments are
        # always writable, so in-range stores go straight to the segment
        # buffer (equal-length slice assignment, which the stack's mmap
        # supports like a bytearray).
        # The stack high-water mark is tracked through the live memory
        # attribute, never a captured copy.
        stack_base = memory._stack_base
        stack_data = memory.stack.data
        stack_end = stack_base + len(stack_data)
        data_data = memory.data.data
        data_end = DATA_BASE + len(data_data)
        mask = (1 << (size * 8)) - 1

        if pointer_folded is not _UNFOLDED and value_folded is not _UNFOLDED:
            address = int(pointer_folded)
            stored = convert(value_folded)
            if (DATA_BASE <= address < HEAP_BASE
                    and address + size <= data_end):
                offset = address - DATA_BASE
                end = offset + size
                payload = (stored & mask).to_bytes(size, "little")

                def step(frame):
                    cost.cycle_units += units
                    data_data[offset:end] = payload

                return step

            def step(frame):
                cost.cycle_units += units
                write_int(address, stored, size)

            return step
        if pointer_folded is not _UNFOLDED:
            address = int(pointer_folded)
            if (DATA_BASE <= address < HEAP_BASE
                    and address + size <= data_end):
                offset = address - DATA_BASE
                end = offset + size

                def step(frame, value=value):
                    cost.cycle_units += units
                    try:
                        stored = frame.env[value]
                    except KeyError:
                        _undefined(frame, value)
                    data_data[offset:end] = (convert(stored) & mask).to_bytes(
                        size, "little"
                    )

                return step

            def step(frame, value=value):
                cost.cycle_units += units
                try:
                    stored = frame.env[value]
                except KeyError:
                    _undefined(frame, value)
                write_int(address, convert(stored), size)

            return step
        if value_folded is not _UNFOLDED:
            stored = convert(value_folded)
            payload = (stored & mask).to_bytes(size, "little")

            def step(frame, pointer=pointer):
                cost.cycle_units += units
                try:
                    address = frame.env[pointer]
                except KeyError:
                    _undefined(frame, pointer)
                address = int(address)
                if address >= stack_base:
                    if address + size <= stack_end:
                        offset = address - stack_base
                        stack_data[offset:offset + size] = payload
                        if address < memory._stack_hwm_low:
                            memory._stack_hwm_low = address
                        return
                elif DATA_BASE <= address < HEAP_BASE:
                    if address + size <= data_end:
                        offset = address - DATA_BASE
                        data_data[offset:offset + size] = payload
                        return
                write_int(address, stored, size)

            return step

        def step(frame, pointer=pointer, value=value):
            cost.cycle_units += units
            env = frame.env
            try:
                address = env[pointer]
            except KeyError:
                _undefined(frame, pointer)
            try:
                stored = env[value]
            except KeyError:
                _undefined(frame, value)
            address = int(address)
            if address >= stack_base:
                if address + size <= stack_end:
                    offset = address - stack_base
                    stack_data[offset:offset + size] = (
                        convert(stored) & mask
                    ).to_bytes(size, "little")
                    if address < memory._stack_hwm_low:
                        memory._stack_hwm_low = address
                    return
            elif DATA_BASE <= address < HEAP_BASE:
                if address + size <= data_end:
                    offset = address - DATA_BASE
                    data_data[offset:offset + size] = (
                        convert(stored) & mask
                    ).to_bytes(size, "little")
                    return
            write_int(address, convert(stored), size)

        return step

    def _decode_store_observed(self, inst: ir.Store, units: int) -> Step:
        """Store decoding for traced machines: every write goes through
        the (observer-shadowed) ``Memory`` methods.

        Mirrors ``interpreter._exec_store`` exactly — operand resolution
        order, value conversion, fault behaviour and the charged units
        are all identical to both untraced paths, so a traced run stays
        bit-identical in everything but the event stream.  ``write_int``
        is looked up per call so the instance-attribute wrapper is seen
        regardless of when the observer was installed.
        """
        cost = self.machine.cost
        memory = self.machine.memory
        pointer_get = self._getter(inst.pointer)
        value_get = self._getter(inst.value)
        ctype = inst.value.ctype
        if ctype.is_float():
            size = ctype.size()

            def step(frame):
                cost.cycle_units += units
                address = pointer_get(frame)
                stored = value_get(frame)
                memory.write_float(int(address), float(stored), size)

            return step
        if ctype.is_pointer():

            def step(frame):
                cost.cycle_units += units
                address = pointer_get(frame)
                stored = value_get(frame)
                memory.write_int(int(address), int(stored) & _U64, 8)

            return step
        if ctype.is_integer():
            size = ctype.size()

            def step(frame):
                cost.cycle_units += units
                address = pointer_get(frame)
                stored = value_get(frame)
                memory.write_int(int(address), int(stored), size)

            return step

        def step(frame, ctype=ctype):
            cost.cycle_units += units
            int(pointer_get(frame))
            value_get(frame)
            raise VMError(f"cannot store type {ctype}")

        return step

    def _decode_elemptr(self, inst: ir.ElemPtr, function, units: int) -> Step:
        element_size = inst.element_type.size()
        return self._binary_step(
            inst,
            units,
            lambda base, index: (int(base) + int(index) * element_size) & _U64,
        )

    def _decode_fieldptr(self, inst: ir.FieldPtr, function, units: int) -> Step:
        cost = self.machine.cost
        base = inst.base
        folded = self._folded(base)
        offset = inst.byte_offset
        if folded is not _UNFOLDED:
            address = (int(folded) + offset) & _U64

            def step(frame, inst=inst):
                cost.cycle_units += units
                frame.env[inst] = address

            return step

        def step(frame, inst=inst, base=base):
            cost.cycle_units += units
            env = frame.env
            try:
                value = env[base]
            except KeyError:
                _undefined(frame, base)
            env[inst] = (int(value) + offset) & _U64

        return step

    def _decode_binop(self, inst: ir.BinOp, function, units: int) -> Step:
        return self._binary_step(inst, units, _binop_impl(inst.op, inst.ctype))

    def _decode_cmp(self, inst: ir.Cmp, function, units: int) -> Step:
        return self._binary_step(inst, units, _cmp_impl(inst.op, inst.lhs.ctype))

    def _decode_cast(self, inst: ir.Cast, function, units: int) -> Step:
        cost = self.machine.cost
        value = inst.value
        impl = _cast_impl(inst.kind, value.ctype, inst.ctype)
        folded = self._folded(value)
        if folded is not _UNFOLDED:

            def step(frame, inst=inst):
                cost.cycle_units += units
                frame.env[inst] = impl(folded)

            return step

        def step(frame, inst=inst, value=value):
            cost.cycle_units += units
            env = frame.env
            try:
                operand = env[value]
            except KeyError:
                _undefined(frame, value)
            env[inst] = impl(operand)

        return step

    def _decode_select(self, inst: ir.Select, function, units: int) -> Step:
        cost = self.machine.cost
        cond_get, a_get, b_get = (self._getter(op) for op in inst.operands)

        def step(frame, inst=inst):
            cost.cycle_units += units
            # Both arms are evaluated, as in the slow path's operand sweep.
            cond = cond_get(frame)
            a = a_get(frame)
            b = b_get(frame)
            frame.env[inst] = a if cond else b

        return step

    def _decode_call(self, inst: ir.Call, function, units: int) -> Step:
        machine = self.machine
        cost = machine.cost
        arg_gets = [self._getter(arg) for arg in inst.args]
        callee = inst.callee
        target = None
        if not isinstance(callee, str):
            target = callee
        elif callee in machine.module.functions:
            target = machine.module.functions[callee]
        if target is not None:
            push_frame = machine._push_frame
            if self._hot is not None:
                hot_calls = self._hot[0]
                compiled = self.compiled
                calls = 0

                def step(frame, inst=inst):
                    nonlocal calls
                    cost.cycle_units += units
                    push_frame(
                        target, [get(frame) for get in arg_gets], call_site=inst
                    )
                    calls += 1
                    if calls >= hot_calls or target in compiled:
                        raise HotCall

                return step

            def step(frame, inst=inst):
                cost.cycle_units += units
                push_frame(target, [get(frame) for get in arg_gets], call_site=inst)

            return step

        handler = machine._builtins.get(callee)
        if handler is None:

            def step(frame, callee=callee):
                cost.cycle_units += units
                [get(frame) for get in arg_gets]
                raise VMError(f"call to unknown builtin '{callee}'")

            return step
        if inst.has_result():
            coerce = self._coercer(inst.ctype)

            def step(frame, inst=inst):
                cost.cycle_units += units
                frame.env[inst] = coerce(handler([get(frame) for get in arg_gets]))

            return step

        def step(frame):
            cost.cycle_units += units
            handler([get(frame) for get in arg_gets])

        return step

    def _decode_phi(self, inst: ir.Phi, function, units: int) -> Step:
        cost = self.machine.cost

        def step(frame):
            cost.cycle_units += units
            # Phis are consumed by the branch edge's parallel copy;
            # executing one directly means the block was entered without
            # a branch (a pass bug) — same diagnosis as the slow path.
            raise VMError(
                f"phi executed directly in '{frame.function.name}' "
                f"(phis must start a branched-to block)"
            )

        return step

    def _decode_edge(self, source, target, function):
        """Pre-resolve the phi parallel copy for the edge source->target.

        On a tiered JIT machine a backward edge (every loop has one)
        also counts its trips and raises :class:`HotLoop` every
        ``hot back-edges`` trips, once the frame stands at the target's
        first non-phi instruction — the state a compiled body's deopt
        leaves, so the JIT can resume the frame from there.
        """
        enter = self._decode_plain_edge(source, target, function)
        if self._hot is None:
            return enter
        positions = self._block_positions.get(function)
        if positions is None:
            positions = self._block_positions[function] = {
                id(block): index for index, block in enumerate(function.blocks)
            }
        if positions.get(id(target), -1) > positions.get(id(source), -1):
            return enter
        hot_trips = self._hot[1]
        trips = 0

        def enter_counted(frame):
            nonlocal trips
            enter(frame)
            trips += 1
            if trips >= hot_trips:
                trips = 0
                raise HotLoop

        return enter_counted

    def _decode_plain_edge(self, source, target, function):
        plans = []
        for inst in target.instructions:
            if not isinstance(inst, ir.Phi):
                break
            try:
                get = self._getter(inst.incoming_for(source))
            except IRError as error:
                message = str(error)

                def enter(frame, message=message):
                    raise IRError(message)

                return enter
            plans.append((inst, get, self._coercer(inst.ctype)))
        leading = len(plans)
        code_for = self.code_for
        target_code = None

        if not plans:

            def enter(frame):
                nonlocal target_code
                if target_code is None:
                    target_code = code_for(target, function)
                frame.block = target
                frame.inst_index = 0
                frame.code = target_code

            return enter

        def enter(frame):
            nonlocal target_code
            if target_code is None:
                target_code = code_for(target, function)
            # Read every incoming value before any phi is assigned —
            # swap-shaped phi groups are a parallel copy.
            values = [get(frame) for _, get, _ in plans]
            env = frame.env
            for (phi, _, coerce), value in zip(plans, values):
                env[phi] = coerce(value)
            frame.block = target
            frame.inst_index = leading
            frame.code = target_code

        return enter

    def _decode_br(self, inst: ir.Br, function, units: int) -> Step:
        cost = self.machine.cost
        enter = self._decode_edge(inst.block, inst.target, function)

        def step(frame):
            cost.cycle_units += units
            enter(frame)

        return step

    def _decode_condbr(self, inst: ir.CondBr, function, units: int) -> Step:
        cost = self.machine.cost
        cond = inst.cond
        cond_folded = self._folded(cond)
        enter_true = self._decode_edge(inst.block, inst.true_target, function)
        enter_false = self._decode_edge(inst.block, inst.false_target, function)
        if cond_folded is not _UNFOLDED:
            enter = enter_true if cond_folded else enter_false

            def step(frame):
                cost.cycle_units += units
                enter(frame)

            return step

        def step(frame, cond=cond):
            cost.cycle_units += units
            try:
                value = frame.env[cond]
            except KeyError:
                _undefined(frame, cond)
            if value:
                enter_true(frame)
            else:
                enter_false(frame)

        return step

    def _decode_ret(self, inst: ir.Ret, function, units: int) -> Step:
        cost = self.machine.cost
        pop_frame = self.machine._pop_frame
        if inst.value is None:

            def step(frame):
                cost.cycle_units += units
                pop_frame(None)

            return step
        value = inst.value
        folded = self._folded(value)
        if folded is not _UNFOLDED:

            def step(frame):
                cost.cycle_units += units
                pop_frame(folded)

            return step

        def step(frame, value=value):
            cost.cycle_units += units
            try:
                returned = frame.env[value]
            except KeyError:
                _undefined(frame, value)
            pop_frame(returned)

        return step

    def _decode_unreachable(self, inst: ir.Unreachable, function, units: int) -> Step:
        def step(frame):
            raise VMTrap(f"unreachable executed in '{frame.function.name}'")

        return step
