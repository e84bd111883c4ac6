"""IR→Python JIT: compile whole functions into fused-block closures.

The predecoded dispatcher (:mod:`repro.vm.decode`) still pays, per
executed instruction, for one Python call through a step closure, one
``frame.env`` dict write, one step-counter increment and one
``cycle_units`` attribute add.  None of that is necessary for a
straight-line run of a basic block: the block's step count and cycle
units are compile-time constants, and its SSA dataflow maps directly
onto Python local variables.

This module therefore compiles each IR function — lazily, on first
call — into Python *source*, ``compile()``\\ s it once per module
version, and ``exec``\\ s it per machine to bind machine state
(memory windows, global addresses, builtin handlers) into closure
cells:

* every SSA value lives in a Python local (``v7``), never a dict;
* each basic block is one fused run of statements: the step counter
  and cycle units are bumped **once per block** with precomputed
  totals (the same integer units the other two engines charge, so
  totals stay bit-identical);
* blocks dispatch through a small ``while 1: if _b == N:`` loop;
  branch edges carry their phi parallel copies as tuple assignments;
* guest calls recurse into the callee's compiled body through
  :meth:`JitEngine._call` (Python-to-Python recursion is heap-frame
  cheap on CPython 3.11+), keeping ``Machine._push_frame`` /
  ``_pop_frame`` — and therefore cookies, canaries, layouts and every
  attack behavior — exactly as they are.

Bit-identity around exceptions is preserved by *accounting repair*:
a block's steps/cycles are charged up front, and if an instruction
faults mid-block, the traceback identifies the faulting source line,
whose precomputed (steps, units) over-charge is subtracted before the
exception escapes.  The reference interpreter's charge-then-execute
order is thereby reproduced exactly, including for faults inside
callees several JIT frames deep.

Tiering.  ``Machine(jit=True)`` compiles every function on its first
call.  The default machine tiers up instead: each function starts on
the predecoded interpreter, whose call steps and loop back-edges count
their trips (:class:`~repro.vm.decode.HotCall`,
:class:`~repro.vm.decode.HotLoop`), and is compiled once it passes
:data:`HOT_THRESHOLDS`.  The running frame then moves to compiled code
right away: a hot call runs the callee's body, a hot back-edge resumes
the frame's body at the loop header, loading its SSA values from
``frame.env``.  Both hand-overs happen where no instruction of the
block has run, the same state a deopt leaves, so accounting stays
exact.  Runs too short to repay a compile never pay for one.

Deopt rules (JIT where it's safe, interpret where it's observed):

* a machine with a tracer attached never enters the JIT loop
  (``Machine.run`` falls back to the decoded/slow paths, which carry
  the observer hooks);
* a function using an unsupported construct (unknown builtin,
  malformed phi placement, ...) is interpreted, via the predecoded
  step lists, inside the JIT run — callers stay compiled;
* a block entered with too little step budget left hands its frame to
  the interpreter (:class:`_Deopt`), which then reproduces the exact
  step-limit semantics of the reference loop.

Compiled code objects are cached per ``(Module, Module.version,
function, cost signature)`` in a :class:`~weakref.WeakKeyDictionary`,
so in-place transforms (optimize, instrument_module) invalidate the
JIT exactly like the decoder, and distinct machines running the same
module share one compile.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.errors import IRError, VMError, VMFault, VMLimitExceeded, VMTrap
from repro.ir import instructions as ir
from repro.ir.values import Constant, GlobalVariable, Value
from repro.vm.costs import DYNAMIC_ALLOCA_UNITS
from repro.vm.decode import (
    FellOffBlock,
    HotCall,
    HotLoop,
    _binop_impl,
    _cast_impl,
    _int_wrap,
)
from repro.vm.floatmath import round_f32
from repro.vm.memory import DATA_BASE, HEAP_BASE

_U64 = (1 << 64) - 1

#: Python recursion headroom for jitted guest calls: the VM caps guest
#: call depth at 4096 and each guest call costs two Python frames
#: (``_call`` + the compiled body), plus slack for builtins and the
#: harness.  CPython 3.11+ keeps pure-Python frames on the heap, so
#: raising the limit this far is safe.
JIT_RECURSION_LIMIT = 15_000

_MISSING = object()

#: Tier-up thresholds of the default, tiered JIT: (calls, back-edge
#: trips).  A function starts on the predecoded interpreter and is
#: compiled once one interpreted call site has called it that many
#: times, or one of its loop back-edges has been taken that many times
#: since it last fired (the frame then continues compiled from that
#: loop header).  Compiling a function costs about as much as
#: interpreting ten thousand instructions, so code that runs less than
#: that stays interpreted: most attack-campaign runs are a few hundred
#: steps, while a Figure 3 program tiers up within its first
#: milliseconds.
HOT_THRESHOLDS = (200, 500)


# -- the process-wide recursion-limit guard -----------------------------------------
#
# ``sys.setrecursionlimit`` is interpreter-global, so a per-machine
# save/restore leaks state as soon as machines nest (a builtin hook that
# runs another jitted Machine) or interleave across threads: the first
# exit would restore the original limit out from under the still-running
# run.  A single depth counter fixes both — the limit is bumped when the
# first jitted run enters and restored (to the exact saved value) only
# when the last one leaves, on every exit path via try/finally in
# ``Machine._execute_loop_jit``.

_RECURSION_GUARD_LOCK = threading.Lock()
_recursion_depth = 0
_saved_recursion_limit: Optional[int] = None
_recursion_limit_bumped = False


def enter_jit_recursion() -> None:
    """Raise the host recursion limit for a jitted run (reentrant)."""
    global _recursion_depth, _saved_recursion_limit, _recursion_limit_bumped
    with _RECURSION_GUARD_LOCK:
        _recursion_depth += 1
        if _recursion_depth == 1:
            _saved_recursion_limit = sys.getrecursionlimit()
            _recursion_limit_bumped = (
                _saved_recursion_limit < JIT_RECURSION_LIMIT
            )
            if _recursion_limit_bumped:
                sys.setrecursionlimit(JIT_RECURSION_LIMIT)


def exit_jit_recursion() -> None:
    """Undo one :func:`enter_jit_recursion`; restores the saved limit
    only when the outermost jitted run exits."""
    global _recursion_depth, _saved_recursion_limit, _recursion_limit_bumped
    with _RECURSION_GUARD_LOCK:
        if _recursion_depth <= 0:
            raise RuntimeError("exit_jit_recursion without matching enter")
        _recursion_depth -= 1
        if _recursion_depth == 0:
            if _recursion_limit_bumped:
                sys.setrecursionlimit(_saved_recursion_limit)
            _saved_recursion_limit = None
            _recursion_limit_bumped = False


def jit_recursion_depth() -> int:
    """How many jitted runs are currently active (test/diagnostic hook)."""
    with _RECURSION_GUARD_LOCK:
        return _recursion_depth


def _registry():
    # Imported lazily: repro.obs pulls in tracing, which imports the
    # interpreter, which imports this module.
    from repro.obs.metrics import get_registry

    return get_registry()


def record_deopt(reason: str) -> None:
    """Count one deopt-to-interpreter event (also used by Machine.run
    for whole-run fallbacks like an attached tracer)."""
    _registry().counter("jit_deopts_total", reason=reason).inc()


class _Deopt(Exception):
    """Control transfer: a compiled body hands its frame to the
    interpreter (state already synced into ``frame.env``)."""


class _CompileUnsupported(Exception):
    """Internal: this function cannot be compiled; interpret it."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _Unsupported:
    """Cached verdict: interpret this function (with the reason why)."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


class _FunctionMeta:
    """Machine-independent metadata shared by all bindings of one
    compiled function."""

    __slots__ = (
        "function", "value_by_name", "value_items", "values", "leading", "linemap"
    )

    def __init__(self, function, value_by_name, leading, linemap):
        self.function = function
        #: mangled local name -> IR Value (for deopt sync and
        #: undefined-value diagnostics)
        self.value_by_name: Dict[str, Value] = value_by_name
        self.value_items = tuple(value_by_name.items())
        #: the Values of local ``v0``, ``v1``, ... (loaded from
        #: ``frame.env`` when a frame enters compiled code at a loop)
        self.values = tuple(value_by_name.values())
        #: per-block leading phi count (the interpreter's resume index)
        self.leading: Tuple[int, ...] = leading
        #: source line -> (steps, cycle units) charged for instructions
        #: *after* that line's instruction; subtracted when an exception
        #: escapes through the line, restoring charge-then-execute
        #: accounting.
        self.linemap: Dict[int, Tuple[int, int]] = linemap


class _CompiledFunction:
    __slots__ = ("module_code", "bindings", "meta", "block_count")

    def __init__(self, module_code, bindings, meta, block_count):
        self.module_code = module_code
        #: (cell name, kind, payload); kind "const" payloads bind as-is,
        #: "global"/"builtin" resolve against the machine at bind time.
        self.bindings = bindings
        self.meta = meta
        self.block_count = block_count


# -- helpers bound into every compiled body ----------------------------------------


def _unreachable(frame):
    raise VMTrap(f"unreachable executed in '{frame.function.name}'")


def _negative_alloca(frame, count):
    raise VMFault("bad-alloca", frame.sp, f"negative VLA length {count}")


def _make_coercer(ctype):
    """Type-specialised ``Machine._coerce`` (for builtin call results)."""
    if ctype.is_float():
        return lambda v: 0 if v is None else float(v)
    if ctype.is_pointer():
        return lambda v: 0 if v is None else int(v) & _U64
    if ctype.is_integer():
        wrap = _int_wrap(ctype)
        return lambda v: 0 if v is None else wrap(int(v))
    return lambda v: 0 if v is None else v


# -- the per-module code cache ------------------------------------------------------


class _ModuleCache:
    __slots__ = ("version", "entries")

    def __init__(self, version: int):
        self.version = version
        self.entries: Dict[tuple, object] = {}


_CODE_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()

#: Serializes every read/write of ``_CODE_CACHE`` (and the machine-side
#: version re-check, see ``Machine._sync_module_version``): without it a
#: ``clear_code_cache()`` racing a compile on another thread could
#: publish an entry for a module version that is no longer current.
#: Reentrant because ``_sync_module_version`` holds it around work that
#: may itself consult the cache.
_CACHE_LOCK = threading.RLock()


def cache_lock() -> threading.RLock:
    """The code-cache lock (shared with ``Machine._sync_module_version``)."""
    return _CACHE_LOCK


def clear_code_cache() -> None:
    """Drop every cached compile (benchmarks use this to measure cold
    compile-time amortization)."""
    with _CACHE_LOCK:
        _CODE_CACHE.clear()


def _cost_signature(cost) -> tuple:
    # Everything instruction_units() depends on besides the instruction:
    # a different signature means different baked-in unit totals.
    return (cost.variant, bool(cost.scheduling_effects), cost.synthetic_discount)


def compiled_for(machine, function):
    """The shared compile of ``function`` for ``machine``'s module
    version and cost signature (a :class:`_CompiledFunction` or an
    :class:`_Unsupported` verdict)."""
    module = machine.module
    version = getattr(module, "version", 0)
    key = (function.name,) + _cost_signature(machine.cost)
    with _CACHE_LOCK:
        cache = _CODE_CACHE.get(module)
        if cache is not None and cache.version == version:
            entry = cache.entries.get(key)
            if entry is not None:
                return entry
    # Compile outside the lock: codegen touches no shared state, and a
    # slow compile must not stall every other thread's cache hits.
    start = time.perf_counter()
    try:
        entry = _FunctionCompiler(machine, function).compile()
    except _CompileUnsupported as skip:
        entry = _Unsupported(skip.reason)
    except Exception:  # noqa: BLE001 - a codegen bug must never
        entry = _Unsupported("compile-error")  # change guest behavior
    elapsed = time.perf_counter() - start
    if isinstance(entry, _CompiledFunction):
        registry = _registry()
        registry.counter("jit_functions_compiled_total").inc()
        registry.counter("jit_blocks_fused_total").inc(entry.block_count)
        registry.histogram("jit_compile_seconds").observe(elapsed)
    with _CACHE_LOCK:
        if getattr(module, "version", 0) != version:
            # The module was transformed in place while we compiled: the
            # entry is correct for *this* caller (whose machine still
            # holds the old decode) but must never be published, or a
            # future machine would run stale code.
            return entry
        cache = _CODE_CACHE.get(module)
        if cache is None or cache.version != version:
            cache = _ModuleCache(version)
            _CODE_CACHE[module] = cache
        # setdefault: if another thread won the compile race, everyone
        # converges on the first published entry.
        return cache.entries.setdefault(key, entry)


# -- source generation ---------------------------------------------------------------

#: Names every compiled body may reference; bound per machine.
_STD_CELLS = (
    "_M",    # machine
    "_C",    # cost model
    "_DEO",  # JitEngine._deopt_sync
    "_DEOM", # JitEngine._deopt_sync_mid (post-call, mid-block)
    "_CALL", # JitEngine._call
    "_POP",  # machine._pop_frame
    "_FB",   # int.from_bytes
    "_F32",  # round_f32
    "_RD",   # memory.read_int
    "_WR",   # memory.write_int
    "_RF",   # memory.read_float
    "_WF",   # memory.write_float
    "_TS",   # memory.touch_stack
    "_MEM",  # memory (stack high-water mark)
    "_SB",   # stack window base
    "_SE",   # stack window end
    "_SD",   # stack mmap (fixed length; sliced and slice-assigned)
    "_DD",   # data bytearray
    "_DAE",  # data window end
    "_UNR",  # _unreachable
    "_NEG",  # _negative_alloca
    "_META", # this function's _FunctionMeta
)


class _FunctionCompiler:
    """Generates the ``_bind``/``_body`` source for one function."""

    def __init__(self, machine, function):
        self.machine = machine
        self.function = function
        self.cost = machine.cost
        self.names: Dict[int, str] = {}          # id(Value) -> local name
        self.value_by_name: Dict[str, Value] = {}
        self.bindings: List[Tuple[str, str, object]] = []
        self._const_cells: Dict[int, str] = {}
        self._global_cells: Dict[str, str] = {}
        self._builtin_cells: Dict[str, str] = {}
        self.lines: List[str] = []               # body lines, relative
        self.linemap_rel: Dict[int, Tuple[int, int]] = {}
        self.block_index: Dict[int, int] = {}
        self.leading: List[int] = []
        #: an edge goes to a block at or before its source (a loop):
        #: the body then needs the loop-header entry (see _assemble)
        self.has_back_edge = False
        #: (steps, cycle units) pre-charged for the current block but not
        #: yet executed at the instruction being emitted.
        self._current_over: Tuple[int, int] = (0, 0)
        self._current_block_index = 0
        #: inst_index (within block.instructions) of the *next*
        #: instruction after the one being emitted — the mid-block deopt
        #: resume point for post-call limit checks.
        self._current_offset = 0

    # -- cells and operand expressions ---------------------------------------------

    def _const_cell(self, obj) -> str:
        name = self._const_cells.get(id(obj))
        if name is None:
            name = f"K{len(self.bindings)}"
            self._const_cells[id(obj)] = name
            self.bindings.append((name, "const", obj))
        return name

    def _global_cell(self, global_name: str) -> str:
        name = self._global_cells.get(global_name)
        if name is None:
            name = f"G{len(self.bindings)}"
            self._global_cells[global_name] = name
            self.bindings.append((name, "global", global_name))
        return name

    def _builtin_cell(self, builtin_name: str) -> str:
        name = self._builtin_cells.get(builtin_name)
        if name is None:
            name = f"B{len(self.bindings)}"
            self._builtin_cells[builtin_name] = name
            self.bindings.append((name, "builtin", builtin_name))
        return name

    def _expr(self, value: Value) -> str:
        if isinstance(value, Constant):
            raw = value.value
            if isinstance(raw, float):
                if raw != raw or raw in (float("inf"), float("-inf")):
                    return self._const_cell(raw)
                return repr(raw) if raw >= 0 else f"({raw!r})"
            return repr(raw) if raw >= 0 else f"({raw!r})"
        if isinstance(value, GlobalVariable):
            return self._global_cell(value.name)
        name = self.names.get(id(value))
        if name is None:
            raise _CompileUnsupported("foreign-operand")
        return name

    def _wrap_src(self, expr: str, ctype) -> str:
        bits = ctype.size() * 8
        mask = (1 << bits) - 1
        if getattr(ctype, "signed", False):
            sign = 1 << (bits - 1)
            return f"(((({expr}) + {sign}) & {mask}) - {sign})"
        return f"(({expr}) & {mask})"

    def _coerce_src(self, expr: str, ctype) -> str:
        """Source form of ``Machine._coerce`` (operand known non-None)."""
        if ctype.is_float():
            return f"float({expr})"
        if ctype.is_pointer():
            return f"(({expr}) & {_U64})"
        if ctype.is_integer():
            return self._wrap_src(expr, ctype)
        return expr

    # -- line emission --------------------------------------------------------------

    def _line(self, indent: int, text: str) -> int:
        self.lines.append(" " * indent + text)
        return len(self.lines)

    # -- compilation ----------------------------------------------------------------

    def compile(self) -> _CompiledFunction:
        function = self.function
        if not function.blocks:
            raise _CompileUnsupported("no-blocks")
        for index, block in enumerate(function.blocks):
            self.block_index[id(block)] = index
            self._validate_block(block, entry=index == 0)

        # Pre-assign local names: params first, then every result.
        for param in function.params:
            self._name_value(param)
        for block in function.blocks:
            for inst in block.instructions:
                if inst.has_result():
                    self._name_value(inst)

        for index, block in enumerate(function.blocks):
            self._emit_block(index, block)

        return self._assemble()

    def _name_value(self, value: Value) -> str:
        name = f"v{len(self.value_by_name)}"
        self.names[id(value)] = name
        self.value_by_name[name] = value
        return name

    def _validate_block(self, block, entry: bool) -> None:
        instructions = block.instructions
        if not instructions or not instructions[-1].is_terminator:
            raise _CompileUnsupported("unterminated-block")
        seen_non_phi = False
        for position, inst in enumerate(instructions):
            if isinstance(inst, ir.Phi):
                if seen_non_phi:
                    raise _CompileUnsupported("midblock-phi")
                if entry:
                    # A phi in the entry block would be *executed* on
                    # function entry (inst_index starts at 0), which the
                    # reference loop diagnoses at runtime — interpret.
                    raise _CompileUnsupported("entry-phi")
            else:
                seen_non_phi = True
                if inst.is_terminator and position != len(instructions) - 1:
                    raise _CompileUnsupported("midblock-terminator")

    def _leading_phis(self, block) -> List[ir.Phi]:
        phis = []
        for inst in block.instructions:
            if not isinstance(inst, ir.Phi):
                break
            phis.append(inst)
        return phis

    def _emit_block(self, index: int, block) -> None:
        function_key = self.function.name
        phis = self._leading_phis(block)
        self.leading.append(len(phis))
        body = block.instructions[len(phis):]

        units = []
        for inst in body:
            per = self.cost.instruction_units(inst, function_key)
            if isinstance(inst, ir.Alloca) and not inst.is_static():
                per += DYNAMIC_ALLOCA_UNITS
            units.append(per)
        total_steps = len(body)
        total_units = sum(units)

        keyword = "if" if index == 0 else "elif"
        self._line(12, f"{keyword} _b == {index}:  # {block.label}")
        self._line(16, f"_s = _M._steps + {total_steps}")
        self._line(16, "if _s > _maxs:")
        self._line(20, f"_DEO(_META, frame, {index}, locals())")
        self._line(16, "_M._steps = _s")
        if total_units:
            self._line(16, f"_C.cycle_units += {total_units}")

        executed_steps = 0
        executed_units = 0
        self._current_block_index = index
        for position, inst in enumerate(body):
            executed_steps += 1
            executed_units += units[position]
            over = (total_steps - executed_steps, total_units - executed_units)
            before = len(self.lines)
            self._current_over = over
            self._current_offset = len(phis) + position + 1
            self._emit_instruction(inst)
            if over != (0, 0):
                for rel in range(before + 1, len(self.lines) + 1):
                    self.linemap_rel[rel] = over

    def _emit_instruction(self, inst) -> None:
        emit = _EMITTERS.get(type(inst))
        if emit is None:
            raise _CompileUnsupported("unknown-instruction")
        emit(self, inst)

    # -- per-instruction emitters ----------------------------------------------------

    def _emit_alloca(self, inst: ir.Alloca) -> None:
        name = self.names[id(inst)]
        if inst.is_static():
            self._line(16, f"{name} = _aa[{self._const_cell(inst)}]")
            return
        element = inst.allocated_type
        self._line(16, f"_t = {self._expr(inst.count)}")
        self._line(16, "if _t < 0:")
        self._line(20, "_NEG(frame, _t)")
        if element.is_complete():
            element_size = element.size()
            size_src = "_t" if element_size == 1 else f"_t * {element_size}"
        else:
            size_src = "_t"
        self._line(16, f"_t = frame.sp - ({size_src})")
        self._line(16, f"_t -= _t % {inst.align}")
        self._line(16, "_TS(_t)")
        self._line(16, "frame.sp = _t")
        self._line(16, "_M._sp = _t")
        self._line(16, f"{name} = _t")

    def _emit_load(self, inst: ir.Load) -> None:
        name = self.names[id(inst)]
        pointer = self._expr(inst.pointer)
        ctype = inst.ctype
        if ctype.is_float():
            self._line(16, f"{name} = _RF({pointer}, {ctype.size()})")
            return
        if ctype.is_pointer():
            size, signed = 8, False
        elif ctype.is_integer():
            size, signed = ctype.size(), getattr(ctype, "signed", True)
        else:
            raise _CompileUnsupported("unsupported-type")
        self._line(16, f"_t = {pointer}")
        self._line(16, "if _t >= _SB:")
        self._line(20, f"if _t + {size} <= _SE:")
        self._line(
            24,
            f"{name} = _FB(_SD[_t - _SB:_t + {size} - _SB], "
            f"'little', signed={signed})",
        )
        self._line(20, "else:")
        self._line(24, f"{name} = _RD(_t, {size}, {signed})")
        self._line(16, f"elif {DATA_BASE} <= _t < {HEAP_BASE} and _t + {size} <= _DAE:")
        self._line(
            20,
            f"{name} = _FB(_DD[_t - {DATA_BASE}:_t + {size} - {DATA_BASE}], "
            f"'little', signed={signed})",
        )
        self._line(16, "else:")
        self._line(20, f"{name} = _RD(_t, {size}, {signed})")

    def _emit_store(self, inst: ir.Store) -> None:
        pointer = self._expr(inst.pointer)
        value = self._expr(inst.value)
        ctype = inst.value.ctype
        if ctype.is_float():
            self._line(
                16, f"_WF({pointer}, float({value}), {ctype.size()})"
            )
            return
        if ctype.is_pointer():
            size = 8
            value = f"({value}) & {_U64}"
        elif ctype.is_integer():
            size = ctype.size()
        else:
            raise _CompileUnsupported("unsupported-type")
        mask = (1 << (size * 8)) - 1
        self._line(16, f"_t = {pointer}")
        self._line(16, f"_u = {value}")
        self._line(16, "if _t >= _SB:")
        self._line(20, f"if _t + {size} <= _SE:")
        self._line(
            24,
            f"_SD[_t - _SB:_t + {size} - _SB] = "
            f"(_u & {mask}).to_bytes({size}, 'little')",
        )
        self._line(24, "if _t < _MEM._stack_hwm_low:")
        self._line(28, "_MEM._stack_hwm_low = _t")
        self._line(20, "else:")
        self._line(24, f"_WR(_t, _u, {size})")
        self._line(16, f"elif {DATA_BASE} <= _t < {HEAP_BASE} and _t + {size} <= _DAE:")
        self._line(
            20,
            f"_DD[_t - {DATA_BASE}:_t + {size} - {DATA_BASE}] = "
            f"(_u & {mask}).to_bytes({size}, 'little')",
        )
        self._line(16, "else:")
        self._line(20, f"_WR(_t, _u, {size})")

    def _emit_elemptr(self, inst: ir.ElemPtr) -> None:
        name = self.names[id(inst)]
        base = self._expr(inst.base)
        index = self._expr(inst.index)
        element_size = inst.element_type.size()
        scaled = f"({index})" if element_size == 1 else f"({index}) * {element_size}"
        self._line(16, f"{name} = (({base}) + {scaled}) & {_U64}")

    def _emit_fieldptr(self, inst: ir.FieldPtr) -> None:
        name = self.names[id(inst)]
        base = self._expr(inst.base)
        self._line(16, f"{name} = (({base}) + {inst.byte_offset}) & {_U64}")

    _FLOAT_OPS = {"fadd": "+", "fsub": "-", "fmul": "*"}
    _INT_OPS = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}

    def _emit_binop(self, inst: ir.BinOp) -> None:
        name = self.names[id(inst)]
        op = inst.op
        result_type = inst.ctype
        a = self._expr(inst.lhs)
        b = self._expr(inst.rhs)
        symbol = self._INT_OPS.get(op)
        if symbol is not None:
            self._line(
                16,
                f"{name} = {self._wrap_src(f'({a}) {symbol} ({b})', result_type)}",
            )
            return
        if op in ("shl", "lshr", "ashr"):
            bits = result_type.size() * 8
            mask = (1 << bits) - 1
            shift = f"(({b}) & {bits - 1})"
            if op == "shl":
                raw = f"({a}) << {shift}"
            elif op == "lshr":
                raw = f"((({a}) & {mask}) >> {shift})"
            else:
                raw = f"({a}) >> {shift}"
            self._line(16, f"{name} = {self._wrap_src(raw, result_type)}")
            return
        symbol = self._FLOAT_OPS.get(op)
        if symbol is not None:
            raw = f"({a}) {symbol} ({b})"
            if result_type.size() == 4:
                raw = f"_F32({raw})"
            self._line(16, f"{name} = {raw}")
            return
        # sdiv/srem/udiv/urem (trap on zero) and fdiv (inf semantics)
        # share the decoder's specialised impls exactly.
        impl = self._const_cell(_binop_impl(op, result_type))
        self._line(16, f"{name} = {impl}({a}, {b})")

    def _emit_cmp(self, inst: ir.Cmp) -> None:
        name = self.names[id(inst)]
        op = inst.op
        a = self._expr(inst.lhs)
        b = self._expr(inst.rhs)
        operand_type = inst.lhs.ctype
        if op.startswith("f"):
            symbol = {"feq": "==", "fne": "!=", "flt": "<",
                      "fle": "<=", "fgt": ">", "fge": ">="}[op]
        elif op in ("eq", "ne"):
            symbol = "==" if op == "eq" else "!="
        else:
            symbol = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}[op[1:]]
            if op[0] == "u" or operand_type.is_pointer():
                if operand_type.is_integer():
                    mask = (1 << (operand_type.size() * 8)) - 1
                else:
                    mask = _U64
                a = f"(({a}) & {mask})"
                b = f"(({b}) & {mask})"
        self._line(16, f"{name} = 1 if ({a}) {symbol} ({b}) else 0")

    def _emit_cast(self, inst: ir.Cast) -> None:
        name = self.names[id(inst)]
        value = self._expr(inst.value)
        kind = inst.kind
        to_type = inst.ctype
        if kind in ("trunc", "zext", "sext", "bitcast", "ptrtoint", "inttoptr"):
            if kind == "zext":
                from_mask = (1 << (inst.value.ctype.size() * 8)) - 1
                inner = f"(({value}) & {from_mask})"
            else:
                inner = f"({value})"
            if to_type.is_pointer():
                self._line(16, f"{name} = {inner} & {_U64}")
            elif to_type.is_integer():
                self._line(16, f"{name} = {self._wrap_src(inner, to_type)}")
            else:
                self._line(16, f"{name} = {inner}")
            return
        impl = self._const_cell(_cast_impl(kind, inst.value.ctype, to_type))
        self._line(16, f"{name} = {impl}({value})")

    def _emit_select(self, inst: ir.Select) -> None:
        name = self.names[id(inst)]
        cond, a, b = (self._expr(op) for op in inst.operands)
        self._line(16, f"{name} = ({a}) if ({cond}) else ({b})")

    def _emit_call(self, inst: ir.Call) -> None:
        args = ", ".join(self._expr(arg) for arg in inst.args)
        if len(inst.args) == 1:
            args += ","
        callee = inst.callee
        target = None
        if not isinstance(callee, str):
            target = callee
        elif callee in self.machine.module.functions:
            target = self.machine.module.functions[callee]
        if target is not None:
            call_site = self._const_cell(inst)
            # While the callee runs, this frame's block pre-charge
            # (instructions after the call) must not be visible to
            # step-limit checks or deopt continuations: hand the
            # in-flight over-charge to _call, which parks it.
            over_steps, over_units = self._current_over
            self._line(
                16,
                f"_CALL({self._const_cell(target)}, ({args}), {call_site}, "
                f"{over_steps}, {over_units})",
            )
            # The callee may have consumed steps: the rest of this
            # block's pre-charge is only valid if the limit still holds.
            self._line(16, "if _M._steps > _maxs:")
            self._line(
                20,
                f"_DEOM(_META, frame, {self._current_block_index}, "
                f"{self._current_offset}, {over_steps}, {over_units}, "
                f"locals())",
            )
            if inst.has_result():
                name = self.names[id(inst)]
                self._line(16, f"{name} = _env[{call_site}]")
            return
        if callee not in self.machine._builtins:
            raise _CompileUnsupported("unknown-builtin")
        handler = self._builtin_cell(callee)
        if inst.has_result():
            name = self.names[id(inst)]
            coerce = self._const_cell(_make_coercer(inst.ctype))
            self._line(16, f"{name} = {coerce}({handler}(({args})))")
        else:
            self._line(16, f"{handler}(({args}))")

    def _emit_phi(self, inst: ir.Phi) -> None:
        # Leading phis are consumed by branch edges; a phi reaching the
        # emitter slipped past validation.
        raise _CompileUnsupported("midblock-phi")

    def _edge_lines(self, source_block, target_block) -> List[str]:
        """Statements taking the edge source->target: the phi parallel
        copy (coerced, all reads before any write) plus the dispatch."""
        statements = []
        phis = self._leading_phis(target_block)
        if phis:
            targets = []
            sources = []
            for phi in phis:
                try:
                    incoming = phi.incoming_for(source_block)
                except IRError:
                    raise _CompileUnsupported("phi-edge-error") from None
                targets.append(self.names[id(phi)])
                sources.append(self._coerce_src(self._expr(incoming), phi.ctype))
            statements.append(f"{', '.join(targets)} = {', '.join(sources)}")
        index = self.block_index.get(id(target_block))
        if index is None:
            raise _CompileUnsupported("foreign-block")
        if index <= self.block_index[id(source_block)]:
            self.has_back_edge = True
        statements.append(f"_b = {index}")
        return statements

    def _emit_br(self, inst: ir.Br) -> None:
        for statement in self._edge_lines(inst.block, inst.target):
            self._line(16, statement)
        self._line(16, "continue")

    def _emit_condbr(self, inst: ir.CondBr) -> None:
        cond = inst.cond
        if isinstance(cond, Constant):
            target = inst.true_target if cond.value else inst.false_target
            for statement in self._edge_lines(inst.block, target):
                self._line(16, statement)
            self._line(16, "continue")
            return
        self._line(16, f"if {self._expr(cond)}:")
        for statement in self._edge_lines(inst.block, inst.true_target):
            self._line(20, statement)
        self._line(16, "else:")
        for statement in self._edge_lines(inst.block, inst.false_target):
            self._line(20, statement)
        self._line(16, "continue")

    def _emit_ret(self, inst: ir.Ret) -> None:
        if inst.value is None:
            self._line(16, "_POP(None)")
        else:
            self._line(16, f"_POP({self._expr(inst.value)})")
        self._line(16, "return")

    def _emit_unreachable(self, inst: ir.Unreachable) -> None:
        self._line(16, "_UNR(frame)")

    # -- assembly -------------------------------------------------------------------

    def _assemble(self) -> _CompiledFunction:
        function = self.function
        # Param loads may mint new const cells — build them before the
        # bind-name list so every referenced cell gets a NS line.
        param_lines = [
            f"{self.names[id(param)]} = _env[{self._const_cell(param)}]"
            for param in function.params
        ]
        names = list(_STD_CELLS) + [binding[0] for binding in self.bindings]
        header = ["def _bind(NS):"]
        header.extend(f"    {name} = NS['{name}']" for name in names)
        # ``_b`` is the block to start at: 0 for a call, a loop header
        # for a frame the interpreter hands over mid-function
        # (JitEngine._tier_up).  That frame's SSA values are all in
        # frame.env; one it has not defined yet stays unbound, so a use
        # still fails like the interpreter's undefined-value check.
        header.append("    def _body(frame, _b=0):")
        header.append("        _env = frame.env")
        header.append("        _aa = frame.alloca_addresses")
        header.append("        _maxs = _M.max_steps")
        if self.has_back_edge:
            header.append("        if _b:")
            header.append("            _V = _META.values")
            header.extend(
                f"            if _V[{i}] in _env: {name} = _env[_V[{i}]]"
                for i, name in enumerate(self.value_by_name)
            )
            header.append("        else:")
            header.extend(f"            {line}" for line in param_lines)
            header.append("            pass")
        else:
            header.extend(f"        {line}" for line in param_lines)
        header.append("        while 1:")
        offset = len(header)
        source_lines = header + self.lines + ["    return _body"]
        source = "\n".join(source_lines) + "\n"
        filename = (
            f"<jit {getattr(self.machine.module, 'name', 'module')}"
            f".{function.name}>"
        )
        module_code = compile(source, filename, "exec")
        linemap = {
            offset + rel: over for rel, over in self.linemap_rel.items()
        }
        meta = _FunctionMeta(
            function, self.value_by_name, tuple(self.leading), linemap
        )
        return _CompiledFunction(
            module_code, tuple(self.bindings), meta, len(function.blocks)
        )


_EMITTERS = {
    ir.Alloca: _FunctionCompiler._emit_alloca,
    ir.Load: _FunctionCompiler._emit_load,
    ir.Store: _FunctionCompiler._emit_store,
    ir.ElemPtr: _FunctionCompiler._emit_elemptr,
    ir.FieldPtr: _FunctionCompiler._emit_fieldptr,
    ir.BinOp: _FunctionCompiler._emit_binop,
    ir.Cmp: _FunctionCompiler._emit_cmp,
    ir.Cast: _FunctionCompiler._emit_cast,
    ir.Select: _FunctionCompiler._emit_select,
    ir.Call: _FunctionCompiler._emit_call,
    ir.Phi: _FunctionCompiler._emit_phi,
    ir.Br: _FunctionCompiler._emit_br,
    ir.CondBr: _FunctionCompiler._emit_condbr,
    ir.Ret: _FunctionCompiler._emit_ret,
    ir.Unreachable: _FunctionCompiler._emit_unreachable,
}


# -- the per-machine engine ----------------------------------------------------------


class JitEngine:
    """Binds shared compiles to one machine and runs the JIT loop."""

    def __init__(self, machine):
        self.machine = machine
        self._bodies: Dict[object, Optional[object]] = {}
        self._meta_by_code: Dict[object, _FunctionMeta] = {}
        self._deopt_counters: Dict[str, object] = {}
        memory = machine.memory
        stack_base = memory._stack_base
        stack_data = memory.stack.data
        data_data = memory.data.data
        self._base_ns = {
            "_M": machine,
            "_C": machine.cost,
            "_DEO": self._deopt_sync,
            "_DEOM": self._deopt_sync_mid,
            "_CALL": self._call,
            "_POP": machine._pop_frame,
            "_FB": int.from_bytes,
            "_F32": round_f32,
            "_RD": memory.read_int,
            "_WR": memory.write_int,
            "_RF": memory.read_float,
            "_WF": memory.write_float,
            "_TS": memory.touch_stack,
            "_MEM": memory,
            "_SB": stack_base,
            "_SE": stack_base + len(stack_data),
            "_SD": stack_data,
            "_DD": data_data,
            "_DAE": DATA_BASE + len(data_data),
            "_UNR": _unreachable,
            "_NEG": _negative_alloca,
        }

    def _count_deopt(self, reason: str) -> None:
        counter = self._deopt_counters.get(reason)
        if counter is None:
            counter = self._deopt_counters[reason] = _registry().counter(
                "jit_deopts_total", reason=reason
            )
        counter.inc()

    # -- body management ------------------------------------------------------------

    def body_for(self, function):
        """The compiled body for ``function``, or None (interpret)."""
        bodies = self._bodies
        body = bodies.get(function, _MISSING)
        if body is not _MISSING:
            return body
        compiled = compiled_for(self.machine, function)
        if isinstance(compiled, _Unsupported):
            self._count_deopt(compiled.reason)
            body = None
        else:
            namespace = dict(self._base_ns)
            namespace["_META"] = compiled.meta
            machine = self.machine
            for name, kind, payload in compiled.bindings:
                if kind == "const":
                    namespace[name] = payload
                elif kind == "global":
                    namespace[name] = machine.image.global_addresses[payload]
                else:  # builtin
                    namespace[name] = machine._builtins[payload]
            exec_globals: Dict[str, object] = {}
            exec(compiled.module_code, exec_globals)
            body = exec_globals["_bind"](namespace)
            self._meta_by_code[body.__code__] = compiled.meta
            machine._decoder.compiled.add(function)
        bodies[function] = body
        return body

    # -- execution ------------------------------------------------------------------

    def execute(self):
        """Run the already-pushed entry frame to completion.

        An eager machine (``jit=True``) compiles the entry function
        now; a tiered one interprets it until it runs hot."""
        machine = self.machine
        try:
            frame = machine.frames[-1]
            body = None if machine._hot else self.body_for(frame.function)
            if body is None:
                self._interp_until(0)
            else:
                try:
                    body(frame)
                except _Deopt:
                    self._interp_until(0)
        except BaseException as exc:
            self._fix_accounting(exc.__traceback__)
            if isinstance(exc, UnboundLocalError):
                translated = self._translate_unbound(exc)
                if translated is not None:
                    raise translated from None
            raise
        value = machine._final_return
        return 0 if value is None else int(value)

    def _call(self, target, args, call_site, over_steps=0, over_units=0) -> None:
        """Guest call from compiled code: push the frame, run the
        callee's body (or interpret it), return with the result already
        coerced into the caller's env by ``_pop_frame``.

        ``over_steps``/``over_units`` are the caller's block pre-charge
        for instructions *after* the call.  They are parked for the
        callee's duration so step-limit checks (compiled headers and the
        deopt continuation both) see the interpreter-exact counters, and
        restored on the way out — which keeps :meth:`_fix_accounting`'s
        per-frame repair exact when an exception escapes through here."""
        machine = self.machine
        cost = machine.cost
        machine._steps -= over_steps
        cost.cycle_units -= over_units
        try:
            frames = machine.frames
            depth = len(frames)
            machine._push_frame(target, args, call_site)
            body = self._bodies.get(target, _MISSING)
            if body is _MISSING:
                body = self.body_for(target)
            if body is None:
                self._interp_until(depth)
            else:
                try:
                    body(frames[-1])
                except _Deopt:
                    self._interp_until(depth)
        finally:
            machine._steps += over_steps
            cost.cycle_units += over_units

    def _interp_until(self, depth: int) -> None:
        """Interpret (predecoded step lists) until the frame stack drops
        back to ``depth``: the deopt continuation, and on a tiered
        machine the cold path.  A bounded copy of
        ``Machine._execute_loop_fast``, except that a hot call site or
        loop back-edge hands its frame to compiled code
        (:meth:`_tier_up`)."""
        machine = self.machine
        frames = machine.frames
        max_steps = machine.max_steps
        while len(frames) > depth:
            steps = machine._steps
            try:
                while len(frames) > depth:
                    frame = frames[-1]
                    index = frame.inst_index
                    frame.inst_index = index + 1
                    steps += 1
                    if steps > max_steps:
                        raise VMLimitExceeded(
                            f"step limit of {max_steps} exceeded "
                            f"(runaway loop or corrupted counter)"
                        )
                    frame.code[index](frame)
            except FellOffBlock:
                # The sentinel fetch is not an executed instruction.
                steps -= 1
                frame = frames[-1]
                raise VMError(
                    f"fell off block '{frame.block.label}' in "
                    f"'{frame.function.name}'"
                ) from None
            except HotCall:
                at_loop_header = False
            except HotLoop:
                at_loop_header = True
            else:
                return
            finally:
                machine._steps = steps
            # Outside the try: compiled code keeps machine._steps exact
            # itself, and an exception it raises must not be followed
            # by a stale write-back of ``steps``.
            self._tier_up(frames[-1], at_loop_header)

    def _tier_up(self, frame, at_loop_header: bool) -> None:
        """Run an interpreted frame on, compiled, until it returns.

        ``frame`` was just pushed by a hot call site, or has just taken
        a hot back-edge into a loop header.  Either way no instruction
        of its current block has run, the state a deopt leaves, so the
        compiled body starts at that block with exact accounting.  A
        function the compiler cannot handle stays interpreted; a deopt
        hands the frame back to the interpreter loop."""
        function = frame.function
        body = self.body_for(function)
        if body is None:
            return
        start = function.blocks.index(frame.block) if at_loop_header else 0
        try:
            body(frame, start)
        except _Deopt:
            pass

    def _deopt_sync(self, meta: _FunctionMeta, frame, block_index: int, lvars) -> None:
        """Sync compiled-body locals back into ``frame.env`` and raise
        :class:`_Deopt`.  Called *before* the block's steps/cycles are
        charged, so the interpreter resumes with exact accounting."""
        env = frame.env
        for name, value in meta.value_items:
            if name in lvars:
                env[value] = lvars[name]
        function = frame.function
        block = function.blocks[block_index]
        frame.block = block
        frame.inst_index = meta.leading[block_index]
        frame.code = self.machine._decoder.code_for(block, function)
        self._count_deopt("step-limit")
        raise _Deopt

    def _deopt_sync_mid(
        self, meta, frame, block_index, inst_index, over_steps, over_units, lvars
    ) -> None:
        """Deopt after a call returned mid-block: the callee pushed the
        step count past the limit, so the block's remaining pre-charge
        is rolled back and the interpreter resumes at the instruction
        after the call (which will re-check and raise exactly where the
        reference loop does)."""
        machine = self.machine
        machine._steps -= over_steps
        machine.cost.cycle_units -= over_units
        env = frame.env
        for name, value in meta.value_items:
            if name in lvars:
                env[value] = lvars[name]
        function = frame.function
        block = function.blocks[block_index]
        frame.block = block
        frame.inst_index = inst_index
        frame.code = machine._decoder.code_for(block, function)
        self._count_deopt("step-limit")
        raise _Deopt

    # -- exception repair -----------------------------------------------------------

    def _fix_accounting(self, tb) -> None:
        """Subtract the pre-charged steps/cycles of instructions the
        escaping exception prevented from executing (per traceback
        frame, using each compiled body's line map)."""
        machine = self.machine
        cost = machine.cost
        meta_by_code = self._meta_by_code
        while tb is not None:
            meta = meta_by_code.get(tb.tb_frame.f_code)
            if meta is not None:
                over = meta.linemap.get(tb.tb_lineno)
                if over is not None:
                    machine._steps -= over[0]
                    cost.cycle_units -= over[1]
            tb = tb.tb_next

    def _translate_unbound(self, exc: UnboundLocalError):
        """Map an UnboundLocalError in compiled code to the reference
        loop's undefined-value VMError (non-dominating IR)."""
        name = getattr(exc, "name", None)
        if name is None:
            return None
        tb = exc.__traceback__
        meta = None
        while tb is not None:
            candidate = self._meta_by_code.get(tb.tb_frame.f_code)
            if candidate is not None:
                meta = candidate  # innermost compiled frame wins
            tb = tb.tb_next
        if meta is None:
            return None
        value = meta.value_by_name.get(name)
        if value is None:
            return None
        return VMError(
            f"use of undefined value %{value.name} in "
            f"'{meta.function.name}' (block not yet executed?)"
        )
