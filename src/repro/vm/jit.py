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
* blocks are the arms of one ``while 1:`` loop, nested in a binary
  search on the block index ``_b``; branch edges carry their phi
  parallel copies as tuple assignments, and a compare that only feeds
  its block's branch becomes the branch test
  (:meth:`_FunctionCompiler._plan_branches`);
* integer arithmetic and casts wrap like the decoder's closures, but
  every SSA value carries ``(lo, hi)`` bounds, and a wrap or mask that
  is the identity on them is left out; a remaining signed wrap tests
  for the in-range case first (:meth:`_FunctionCompiler._wrap_src`);
* a load or store is one ``struct`` ``unpack_from``/``pack_into`` call
  on the stack, data or (loads through a read-only global) rodata
  buffer; through a stack slot of the running frame it needs no
  segment test at all, at an offset computed once where the slot
  pointer is defined (:meth:`_FunctionCompiler._plan_slots`);
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

Tiering.  ``Machine(engine="jit-eager")`` compiles every function on
its first call.  The default machine (``engine="jit"``) tiers up
instead: each function starts on the predecoded interpreter, whose call
steps and loop back-edges count their trips (:class:`~repro.vm.decode.HotCall`,
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

import re
import struct
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.errors import IRError, VMError, VMFault, VMTrap
from repro.ir import instructions as ir
from repro.ir.values import Constant, GlobalVariable, Value
from repro.vm.costs import DYNAMIC_ALLOCA_UNITS
from repro.vm.decode import _binop_impl, _cast_impl, _int_wrap
from repro.vm.floatmath import round_f32
from repro.vm.memory import DATA_BASE, FLOAT_STRUCTS, HEAP_BASE, RODATA_BASE

_U64 = (1 << 64) - 1

#: a dispatch leaf tests up to this many blocks in turn; a longer run of
#: block indices is split in half on ``_b`` first (see ``_dispatch``)
_DISPATCH_LEAF = 4

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
    "_RDD",  # rodata bytearray
    "_RE",   # rodata window end
    "_UNR",  # _unreachable
    "_NEG",  # _negative_alloca
    "_META", # this function's _FunctionMeta
)


#: (width, signed) -> the little-endian ``struct`` format of a load or
#: store; ``signed`` is None for floats.  Compiled bodies bind the
#: ``unpack_from``/``pack_into`` methods as const cells; integers are
#: stored masked, through the unsigned formats.
_STRUCTS = {
    (size, signed): struct.Struct("<" + (code if signed else code.upper()))
    for size, code in ((1, "b"), (2, "h"), (4, "i"), (8, "q"))
    for signed in (True, False)
}
_STRUCTS.update(((size, None), fmt) for size, fmt in FLOAT_STRUCTS.items())
_UNPACK = {key: fmt.unpack_from for key, fmt in _STRUCTS.items()}
_PACK = {key: fmt.pack_into for key, fmt in _STRUCTS.items()}


# -- integer value ranges ------------------------------------------------------------
#
# A range is a ``(lo, hi)`` pair bounding every value an SSA local can
# hold, or None when nothing is known.  ``_FunctionCompiler`` records one
# per value as it emits the code that guarantees it (see "Integer
# ranges" in DESIGN.md), and drops any wrap or mask that would be the
# identity on its operand's range.


def _type_range(ctype):
    """The values a coerced integer or pointer of ``ctype`` holds."""
    if ctype.is_pointer():
        return (0, _U64)
    if ctype.is_integer():
        return (ctype.min_value(), ctype.max_value())
    return None


def _fits(rng, bounds) -> bool:
    return rng is not None and bounds[0] <= rng[0] and rng[1] <= bounds[1]


def _arith_range(op: str, a, b):
    """Bounds of the unwrapped ``a op b`` (add/sub/mul/and/or/xor)."""
    if a is None or b is None:
        return None
    if op == "add":
        return (a[0] + b[0], a[1] + b[1])
    if op == "sub":
        return (a[0] - b[1], a[1] - b[0])
    if op == "mul":
        products = [x * y for x in a for y in b]
        return (min(products), max(products))
    if a[0] >= 0 and b[0] >= 0:
        if op == "and":
            return (0, min(a[1], b[1]))
        return (0, (1 << max(a[1], b[1]).bit_length()) - 1)
    if op == "and" and (a[0] >= 0 or b[0] >= 0):
        return (0, a[1] if a[0] >= 0 else b[1])
    # Both operands are (bits + 1)-bit two's complement numbers, and so
    # is any bitwise combination of them.
    bits = max((x if x >= 0 else ~x).bit_length() for x in a + b)
    return (-(1 << bits), (1 << bits) - 1)


def _shift_range(op: str, a, shift: Optional[int], bits: int):
    """Bounds of an unwrapped shift of ``a`` (for ``lshr`` already
    masked to ``bits``) by a constant ``shift``, or any in-range one."""
    if a is None:
        return None
    if shift is not None:
        if op == "shl":
            return (a[0] << shift, a[1] << shift)
        return (a[0] >> shift, a[1] >> shift)
    if op == "shl":
        return None
    # Right shifts by 0..bits-1 move every value towards 0 or -1.
    return (min(a[0], 0), max(a[1], 0))


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
        #: the current block's body lines and their line map, both
        #: relative to the block; ``_assemble`` places them
        self.lines: List[str] = []
        self.linemap_rel: Dict[int, Tuple[int, int]] = {}
        #: per block: (label, body lines, relative line map)
        self._arms: List[Tuple[str, List[str], Dict[int, Tuple[int, int]]]] = []
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
        #: id(pointer) -> the statement defining its offset local
        #: ``o<N>``, emitted right after the pointer's own definition
        self._slot_defs: Dict[int, str] = {}
        #: (id(pointer), access width) -> (offset local, guarded)
        self._slot_access: Dict[Tuple[int, int], Tuple[str, bool]] = {}
        #: id(value) -> (lo, hi) bounds of its local, recorded when the
        #: code guaranteeing them is emitted (phis: up front)
        self.ranges: Dict[int, Tuple[int, int]] = {}
        #: id(compare) -> None while planned, then (test source, the
        #: (steps, units) over-charge where its operands are read) for
        #: a compare that becomes its block's branch condition
        self._fused: Dict[int, Optional[Tuple[str, Tuple[int, int]]]] = {}

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

    def _range(self, value):
        """The (lo, hi) bounds of ``value``'s local, or None."""
        if isinstance(value, Constant):
            raw = value.value
            return None if isinstance(raw, float) else (int(raw), int(raw))
        return self.ranges.get(id(value))

    def _wrap_src(self, expr: str, rng, ctype):
        """``expr`` (bounded by ``rng``) wrapped to integer ``ctype``, and
        the bounds of the result.  No wrap when ``rng`` already fits; a
        signed wrap tests for the in-range case first, on the sides
        ``rng`` does not rule out."""
        bounds = _type_range(ctype)
        if _fits(rng, bounds):
            return expr, rng
        lo, hi = bounds
        if not ctype.signed:
            return f"(({expr}) & {hi})", bounds
        if rng is not None and rng[0] >= lo:
            test = f"(_w := {expr}) <= {hi}"
        elif rng is not None and rng[1] <= hi:
            test = f"(_w := {expr}) >= {lo}"
        else:
            test = f"{lo} <= (_w := {expr}) <= {hi}"
        sign = hi + 1
        return f"(_w if {test} else ((_w + {sign}) & {2 * hi + 1}) - {sign})", bounds

    def _mask_src(self, expr: str, rng, mask: int):
        """``expr & mask`` unless ``rng`` lies in ``[0, mask]``, and the
        bounds of the result."""
        if _fits(rng, (0, mask)):
            return expr, rng
        return f"(({expr}) & {mask})", (0, mask)

    def _coerce_src(self, expr: str, rng, ctype) -> str:
        """Source form of ``Machine._coerce`` (operand known non-None)."""
        if ctype.is_float():
            return f"float({expr})"
        if ctype.is_pointer():
            return self._mask_src(expr, rng, _U64)[0]
        if ctype.is_integer():
            return self._wrap_src(expr, rng, ctype)[0]
        return expr

    def _define(self, inst, src: str, rng=None) -> None:
        """``v<N> = src`` for ``inst``, whose value ``rng`` bounds."""
        self._line(0, f"{self.names[id(inst)]} = {src}")
        if rng is not None:
            self.ranges[id(inst)] = rng

    # -- line emission --------------------------------------------------------------

    def _line(self, indent: int, text: str) -> int:
        self.lines.append(" " * indent + text)
        return len(self.lines)

    # -- compilation ----------------------------------------------------------------

    def compile(self) -> _CompiledFunction:
        source, linemap = self.generate()
        function = self.function
        filename = (
            f"<jit {getattr(self.machine.module, 'name', 'module')}"
            f".{function.name}>"
        )
        module_code = compile(source, filename, "exec")
        meta = _FunctionMeta(
            function, self.value_by_name, tuple(self.leading), linemap
        )
        return _CompiledFunction(
            module_code, tuple(self.bindings), meta, len(function.blocks)
        )

    def generate(self) -> Tuple[str, Dict[int, Tuple[int, int]]]:
        """The ``_bind``/``_body`` source and its line map (source line
        -> (steps, cycle units) over-charged there)."""
        function = self.function
        if not function.blocks:
            raise _CompileUnsupported("no-blocks")
        for index, block in enumerate(function.blocks):
            self.block_index[id(block)] = index
            self._validate_block(block, entry=index == 0)

        # Pre-assign local names: params first, then every result.  A
        # phi's every edge coerces it, so its type bounds it up front.
        for param in function.params:
            self._name_value(param)
        for block in function.blocks:
            for inst in block.instructions:
                if inst.has_result():
                    self._name_value(inst)
                    if isinstance(inst, ir.Phi):
                        rng = _type_range(inst.ctype)
                        if rng is not None:
                            self.ranges[id(inst)] = rng

        self._plan_slots()
        self._plan_branches()
        for index, block in enumerate(function.blocks):
            self._emit_block(index, block)

        return self._assemble()

    def _name_value(self, value: Value) -> str:
        name = f"v{len(self.value_by_name)}"
        self.names[id(value)] = name
        self.value_by_name[name] = value
        return name

    @staticmethod
    def _pointer_root(pointer):
        """``(root, byte offset)``: the value an ``elemptr``/``fieldptr``/
        pointer bitcast chain starts at (``pointer`` itself for no
        chain), and the chain's offset from it, None when that is not a
        compile-time constant."""
        offset = 0
        while True:
            if isinstance(pointer, ir.ElemPtr):
                index = pointer.index
                if offset is not None and isinstance(index, Constant):
                    offset += int(index.value) * pointer.element_type.size()
                else:
                    offset = None
                pointer = pointer.base
            elif isinstance(pointer, ir.FieldPtr):
                if offset is not None:
                    offset += pointer.byte_offset
                pointer = pointer.base
            elif (
                isinstance(pointer, ir.Cast)
                and pointer.kind == "bitcast"
                and pointer.value.ctype.is_pointer()
            ):
                pointer = pointer.value
            else:
                return pointer, offset

    def _slot_root(self, pointer):
        """``(alloca, byte offset)`` when ``pointer`` is a static alloca
        of this function or a chain on one (see :meth:`_pointer_root`).
        None for every other pointer."""
        root, offset = self._pointer_root(pointer)
        if (
            not isinstance(root, ir.Alloca)
            or not root.is_static()
            or id(root) not in self.names
        ):
            return None
        return root, offset

    def _plan_branches(self) -> None:
        """Pick the compares that become their block's branch test.

        A compare right before its block's ``condbr``, used by nothing
        else, is never materialized: the branch tests it directly.  So
        is one feeding such a compare ``ne c, 0`` / ``eq c, 0`` right
        before it.  Nothing runs between them and the branch, so no
        mid-block deopt or fault can need their values, and an
        undefined operand is charged where the compare stood (see
        :meth:`_emit_condbr`)."""
        uses: Dict[int, int] = {}
        for block in self.function.blocks:
            for inst in block.instructions:
                for operand in inst.operands:
                    uses[id(operand)] = uses.get(id(operand), 0) + 1
        for block in self.function.blocks:
            instructions = block.instructions
            branch = instructions[-1]
            if not isinstance(branch, ir.CondBr):
                continue
            cond = branch.cond
            position = len(instructions) - 2
            while (
                isinstance(cond, ir.Cmp)
                and position >= 0
                and instructions[position] is cond
                and uses.get(id(cond)) == 1
            ):
                self._fused[id(cond)] = None
                if not (
                    cond.op in ("ne", "eq")
                    and isinstance(cond.lhs, ir.Cmp)
                    and isinstance(cond.rhs, Constant)
                    and cond.rhs.value == 0
                ):
                    break
                cond = cond.lhs
                position -= 1

    def _plan_slots(self) -> None:
        """Give every pointer into a stack slot of this frame an offset
        local ``o<N>`` (``v<N> - _SB``), computed where ``v<N>`` is
        defined, and decide per access how it is used.

        A slot lies in ``[frame_base, frame_top)`` (or its unclean-stack
        slice), which ``_push_frame`` has already passed to
        ``touch_stack``: inside the stack buffer and above the
        high-water mark, so an access that stays inside its alloca
        needs no segment test and no high-water update.  A pointer at a
        constant offset is checked here, per access width; one at a
        run-time offset gets one guard at its definition against the
        widest access through it, and ``o<N> = -1`` when the guard
        fails sends each access to the stack window (:meth:`_emit_access`)."""
        uses: Dict[int, Tuple[Value, List[int]]] = {}
        for block in self.function.blocks:
            for inst in block.instructions:
                if isinstance(inst, ir.Load):
                    ctype = inst.ctype
                elif isinstance(inst, ir.Store):
                    ctype = inst.value.ctype
                else:
                    continue
                if not (ctype.is_integer() or ctype.is_pointer() or ctype.is_float()):
                    continue
                size = 8 if ctype.is_pointer() else ctype.size()
                uses.setdefault(id(inst.pointer), (inst.pointer, []))[1].append(size)
        for key, (pointer, widths) in uses.items():
            root = self._slot_root(pointer)
            if root is None:
                continue
            alloca, offset = root
            slot_size = alloca.static_size()
            name = self.names[key]
            local = "o" + name[1:]
            if offset is not None:
                fits = [w for w in widths if 0 <= offset <= slot_size - w]
                if not fits:
                    continue
                self._slot_defs[key] = f"{local} = {name} - _SB"
                for width in fits:
                    self._slot_access[(key, width)] = (local, False)
                continue
            limit = slot_size - max(widths)
            if limit < 0:
                continue
            self._slot_defs[key] = (
                f"{local} = {name} - _SB "
                f"if 0 <= {name} - {self.names[id(alloca)]} <= {limit} else -1"
            )
            for width in widths:
                self._slot_access[(key, width)] = (local, True)

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

        self.lines = []
        self.linemap_rel = {}
        self._line(0, f"_s = _M._steps + {total_steps}")
        self._line(0, "if _s > _maxs:")
        self._line(4, f"_DEO(_META, frame, {index}, locals())")
        self._line(0, "_M._steps = _s")
        if total_units:
            self._line(0, f"_C.cycle_units += {total_units}")

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
        self._arms.append((block.label, self.lines, self.linemap_rel))

    def _emit_instruction(self, inst) -> None:
        emit = _EMITTERS.get(type(inst))
        if emit is None:
            raise _CompileUnsupported("unknown-instruction")
        emit(self, inst)
        slot_def = self._slot_defs.get(id(inst))
        if slot_def is not None:
            self._line(0, slot_def)

    # -- per-instruction emitters ----------------------------------------------------

    def _emit_alloca(self, inst: ir.Alloca) -> None:
        name = self.names[id(inst)]
        if inst.is_static():
            self._line(0, f"{name} = _aa[{self._const_cell(inst)}]")
            return
        element = inst.allocated_type
        self._line(0, f"_t = {self._expr(inst.count)}")
        self._line(0, "if _t < 0:")
        self._line(4, "_NEG(frame, _t)")
        if element.is_complete():
            element_size = element.size()
            size_src = "_t" if element_size == 1 else f"_t * {element_size}"
        else:
            size_src = "_t"
        self._line(0, f"_t = frame.sp - ({size_src})")
        self._line(0, f"_t -= _t % {inst.align}")
        self._line(0, "_TS(_t)")
        self._line(0, "frame.sp = _t")
        self._line(0, "_M._sp = _t")
        self._line(0, f"{name} = _t")

    def _emit_load(self, inst: ir.Load) -> None:
        name = self.names[id(inst)]
        ctype = inst.ctype
        if ctype.is_float():
            size, signed = ctype.size(), None
            slow = f"{name} = _RF(_t, {size})"
        else:
            size, signed = self._int_format(ctype)
            slow = f"{name} = _RD(_t, {size}, {signed})"
            # the format's range: unpack and read_int both decode it
            self.ranges[id(inst)] = _type_range(ctype)
        unpack = self._const_cell(_UNPACK[size, signed])
        self._emit_access(
            inst.pointer, size,
            lambda buf, off, src: f"{name} = {unpack}({buf}, {off})[0]",
            slow,
        )

    def _emit_store(self, inst: ir.Store) -> None:
        stored = inst.value
        ctype = stored.ctype
        value = self._expr(stored)
        if ctype.is_float():
            size, signed = ctype.size(), None
            value = f"float({value})"
            if size == 4:
                value = f"_F32({value})"
            slow = f"_WF(_t, _u, {size})"
        else:
            # An integer is stored masked, through the unsigned format,
            # unless it already lies in the unsigned or the signed range
            # of the width: both formats then write its masked bytes
            # (and so does ``write_int``).
            size, signed = self._int_format(ctype)
            mask = (1 << (size * 8)) - 1
            rng = self._range(stored)
            if isinstance(stored, Constant):
                value = repr(int(stored.value) & mask)
                signed = False
            elif _fits(rng, (0, mask)):
                signed = False
            elif not _fits(rng, (-(mask + 1) // 2, mask // 2)):
                value = f"({value}) & {mask}"
                signed = False
            else:
                signed = True
            slow = f"_WR(_t, _u, {size})"
        pack = self._const_cell(_PACK[size, signed])
        self._emit_access(
            inst.pointer, size,
            lambda buf, off, src: f"{pack}({buf}, {off}, {src})",
            slow, value,
        )

    @staticmethod
    def _int_format(ctype) -> Tuple[int, bool]:
        """(width, signed) of an integer or pointer access."""
        if ctype.is_pointer():
            return 8, False
        if ctype.is_integer() and (ctype.size(), ctype.signed) in _UNPACK:
            return ctype.size(), ctype.signed
        raise _CompileUnsupported("unsupported-type")

    def _emit_access(self, pointer, size, op, slow, stored=None) -> None:
        """One load (``stored`` None) or store of ``size`` bytes.

        ``op(buffer, offset, value)`` is the statement on a segment
        buffer, ``slow`` the statement on ``_t`` (address) and ``_u``
        (stored value) that ``Memory`` runs for everything outside the
        inline windows.  A stack slot of this frame is accessed at its
        precomputed offset: unconditionally when it is known to fit
        (:meth:`_plan_slots`), else behind the ``o >= 0`` guard its
        definition computed.  A failed guard takes the stack window
        inline (overflow loops stay on the stack); only an address
        megabytes away from its slot reaches ``slow``.  A load through
        a read-only global (string literals, Smokestack's P-BOX) tests
        only the rodata window; a store through one keeps the stack and
        data windows, so it reaches ``Memory`` and its
        write-protection fault."""
        indent = 0
        slot = self._slot_access.get((id(pointer), size))
        if slot is not None and not slot[1]:
            # The call reads the offset before the value, as the
            # reference loop reads the pointer first (it decides which
            # undefined-value diagnostic non-dominating IR gets).
            self._line(indent, op("_SD", slot[0], stored))
            return
        if slot is not None:
            self._line(indent, f"if {slot[0]} >= 0:")
            self._line(indent + 4, op("_SD", slot[0], stored))
            self._line(indent, "else:")
            indent += 4
        self._line(indent, f"_t = {self._expr(pointer)}")
        if stored is None and slot is None:
            root = self._pointer_root(pointer)[0]
            if isinstance(root, GlobalVariable) and root.readonly:
                self._line(indent, f"if {RODATA_BASE} <= _t and _t + {size} <= _RE:")
                self._line(indent + 4, op("_RDD", f"_t - {RODATA_BASE}", None))
                self._line(indent, "else:")
                self._line(indent + 4, slow)
                return
        if stored is not None:
            self._line(indent, f"_u = {stored}")
            stored = "_u"
        if slot is not None:
            self._line(indent, f"if _SB <= _t and _t + {size} <= _SE:")
        else:
            self._line(indent, "if _t >= _SB:")
            indent += 4
            self._line(indent, f"if _t + {size} <= _SE:")
        self._line(indent + 4, op("_SD", "_t - _SB", stored))
        if stored is not None:
            self._line(indent + 4, "if _t < _MEM._stack_hwm_low:")
            self._line(indent + 8, "_MEM._stack_hwm_low = _t")
        self._line(indent, "else:")
        self._line(indent + 4, slow)
        if slot is not None:
            return
        indent -= 4
        self._line(
            indent,
            f"elif {DATA_BASE} <= _t < {HEAP_BASE} and _t + {size} <= _DAE:",
        )
        self._line(indent + 4, op("_DD", f"_t - {DATA_BASE}", stored))
        self._line(indent, "else:")
        self._line(indent + 4, slow)

    def _emit_elemptr(self, inst: ir.ElemPtr) -> None:
        base = self._expr(inst.base)
        index = self._expr(inst.index)
        element_size = inst.element_type.size()
        scaled = f"({index})" if element_size == 1 else f"({index}) * {element_size}"
        self._define(inst, f"(({base}) + {scaled}) & {_U64}", (0, _U64))

    def _emit_fieldptr(self, inst: ir.FieldPtr) -> None:
        base = self._expr(inst.base)
        self._define(inst, f"(({base}) + {inst.byte_offset}) & {_U64}", (0, _U64))

    _FLOAT_OPS = {"fadd": "+", "fsub": "-", "fmul": "*"}
    _INT_OPS = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|", "xor": "^"}

    def _emit_binop(self, inst: ir.BinOp) -> None:
        op = inst.op
        result_type = inst.ctype
        a = self._expr(inst.lhs)
        b = self._expr(inst.rhs)
        symbol = self._INT_OPS.get(op)
        if symbol is not None:
            rng = _arith_range(op, self._range(inst.lhs), self._range(inst.rhs))
            self._define(inst, *self._wrap_src(f"({a}) {symbol} ({b})", rng, result_type))
            return
        if op in ("shl", "lshr", "ashr"):
            bits = result_type.size() * 8
            rng = self._range(inst.lhs)
            if isinstance(inst.rhs, Constant):
                shift = int(inst.rhs.value) & (bits - 1)
                shift_src = str(shift)
            else:
                shift = None
                shift_src = f"(({b}) & {bits - 1})"
            if op == "shl":
                raw = f"({a}) << {shift_src}"
            elif op == "lshr":
                a, rng = self._mask_src(a, rng, (1 << bits) - 1)
                raw = f"(({a}) >> {shift_src})"
            else:
                raw = f"({a}) >> {shift_src}"
            rng = _shift_range(op, rng, shift, bits)
            self._define(inst, *self._wrap_src(raw, rng, result_type))
            return
        symbol = self._FLOAT_OPS.get(op)
        if symbol is not None:
            raw = f"({a}) {symbol} ({b})"
            if result_type.size() == 4:
                raw = f"_F32({raw})"
            self._define(inst, raw)
            return
        # sdiv/srem/udiv/urem (trap on zero) and fdiv (inf semantics)
        # share the decoder's specialised impls exactly; an integer
        # impl wraps its result.
        impl = self._const_cell(_binop_impl(op, result_type))
        self._define(inst, f"{impl}({a}, {b})", _type_range(result_type))

    def _emit_cmp(self, inst: ir.Cmp) -> None:
        test = self._cmp_test(inst)
        if id(inst) in self._fused:
            # The branch tests it; an undefined operand is charged here.
            inner = self._fused.get(id(inst.lhs))
            over = inner[1] if inner is not None else self._current_over
            self._fused[id(inst)] = (test, over)
            return
        self._define(inst, f"1 if {test} else 0", (0, 1))

    def _cmp_test(self, inst: ir.Cmp) -> str:
        """The Python test of a compare (``ne``/``eq`` of a fused compare
        and 0: that compare's test, or its negation)."""
        inner = self._fused.get(id(inst.lhs))
        if inner is not None:
            return inner[0] if inst.op == "ne" else f"not ({inner[0]})"
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
                a = self._mask_src(a, self._range(inst.lhs), mask)[0]
                b = self._mask_src(b, self._range(inst.rhs), mask)[0]
        return f"({a}) {symbol} ({b})"

    def _emit_cast(self, inst: ir.Cast) -> None:
        value = self._expr(inst.value)
        kind = inst.kind
        to_type = inst.ctype
        if kind in ("trunc", "zext", "sext", "bitcast", "ptrtoint", "inttoptr"):
            if inst.value.ctype.is_float():
                # No front end emits one; the decoder's int() conversion
                # has no inline form here, so interpret it.
                raise _CompileUnsupported("float-bit-cast")
            rng = self._range(inst.value)
            inner = f"({value})"
            if kind == "zext":
                from_mask = (1 << (inst.value.ctype.size() * 8)) - 1
                inner, rng = self._mask_src(inner, rng, from_mask)
            if to_type.is_pointer():
                self._define(inst, *self._mask_src(inner, rng, _U64))
            elif to_type.is_integer():
                self._define(inst, *self._wrap_src(inner, rng, to_type))
            else:
                self._define(inst, inner)
            return
        # fptosi/fptoui wrap their result to the integer type
        impl = self._const_cell(_cast_impl(kind, inst.value.ctype, to_type))
        self._define(inst, f"{impl}({value})", _type_range(to_type))

    def _emit_select(self, inst: ir.Select) -> None:
        cond, a, b = (self._expr(op) for op in inst.operands)
        arms = [self._range(value) for value in inst.operands[1:]]
        rng = None
        if None not in arms:
            rng = (min(arms[0][0], arms[1][0]), max(arms[0][1], arms[1][1]))
        self._define(inst, f"({a}) if ({cond}) else ({b})", rng)

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
                0,
                f"_CALL({self._const_cell(target)}, ({args}), {call_site}, "
                f"{over_steps}, {over_units})",
            )
            # The callee may have consumed steps: the rest of this
            # block's pre-charge is only valid if the limit still holds.
            self._line(0, "if _M._steps > _maxs:")
            self._line(
                4,
                f"_DEOM(_META, frame, {self._current_block_index}, "
                f"{self._current_offset}, {over_steps}, {over_units}, "
                f"locals())",
            )
            if inst.has_result():
                # _pop_frame coerced the result into _env
                self._define(inst, f"_env[{call_site}]", _type_range(inst.ctype))
            return
        if callee not in self.machine._builtins:
            raise _CompileUnsupported("unknown-builtin")
        handler = self._builtin_cell(callee)
        if inst.has_result():
            coerce = self._const_cell(_make_coercer(inst.ctype))
            self._define(
                inst, f"{coerce}({handler}(({args})))", _type_range(inst.ctype)
            )
        else:
            self._line(0, f"{handler}(({args}))")

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
                sources.append(
                    self._coerce_src(
                        self._expr(incoming), self._range(incoming), phi.ctype
                    )
                )
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
            self._line(0, statement)
        self._line(0, "continue")

    def _emit_condbr(self, inst: ir.CondBr) -> None:
        cond = inst.cond
        if isinstance(cond, Constant):
            target = inst.true_target if cond.value else inst.false_target
            for statement in self._edge_lines(inst.block, target):
                self._line(0, statement)
            self._line(0, "continue")
            return
        fused = self._fused.get(id(cond))
        if fused is None:
            self._line(0, f"if {self._expr(cond)}:")
        else:
            # The fused compares' operands are read on this line.
            self.linemap_rel[self._line(0, f"if {fused[0]}:")] = fused[1]
        for statement in self._edge_lines(inst.block, inst.true_target):
            self._line(4, statement)
        self._line(0, "else:")
        for statement in self._edge_lines(inst.block, inst.false_target):
            self._line(4, statement)
        self._line(0, "continue")

    def _emit_ret(self, inst: ir.Ret) -> None:
        if inst.value is None:
            self._line(0, "_POP(None)")
        else:
            self._line(0, f"_POP({self._expr(inst.value)})")
        self._line(0, "return")

    def _emit_unreachable(self, inst: ir.Unreachable) -> None:
        self._line(0, "_UNR(frame)")

    # -- assembly -------------------------------------------------------------------

    def _slot_restores(self) -> List[str]:
        """Loop-header entry: recompute the offset local of every
        pointer ``frame.env`` holds.  A guarded pointer re-runs its
        guard; its root alloca is in ``frame.env`` too, because the
        interpreter computed the pointer from it and never drops a
        value."""
        index = {name: i for i, name in enumerate(self.value_by_name)}
        return [
            f"            if _V[{index[self.names[key]]}] in _env: {statement}"
            for key, statement in self._slot_defs.items()
        ]

    def _assemble(self) -> Tuple[str, Dict[int, Tuple[int, int]]]:
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
            header.extend(self._slot_restores())
            header.append("        else:")
            header.extend(f"            {line}" for line in param_lines)
            header.append("            pass")
        else:
            header.extend(f"        {line}" for line in param_lines)
        header.append("        while 1:")
        linemap: Dict[int, Tuple[int, int]] = {}
        source_lines = header
        self._dispatch(0, len(self._arms), 12, source_lines, linemap)
        source_lines.append("    return _body")
        return "\n".join(source_lines) + "\n", linemap

    def _dispatch(self, lo: int, hi: int, indent: int, out, linemap) -> None:
        """Append the arms of blocks ``lo..hi-1`` at ``indent``: split in
        half on ``_b`` until at most :data:`_DISPATCH_LEAF` are left,
        which are tested in turn; the last arm of a leaf is its ``else``
        (``_b`` always names a block).  Each arm's line map moves with
        its lines."""
        pad = " " * indent
        if hi - lo > _DISPATCH_LEAF:
            mid = (lo + hi) // 2
            out.append(f"{pad}if _b < {mid}:")
            self._dispatch(lo, mid, indent + 4, out, linemap)
            out.append(f"{pad}else:")
            self._dispatch(mid, hi, indent + 4, out, linemap)
            return
        for index in range(lo, hi):
            label, lines, arm_linemap = self._arms[index]
            if hi - lo == 1:
                out.append(f"{pad}# {index}: {label}")
                body_pad = pad
            else:
                if index == hi - 1:
                    test = "else"
                else:
                    keyword = "if" if index == lo else "elif"
                    test = f"{keyword} _b == {index}"
                out.append(f"{pad}{test}:  # {index}: {label}")
                body_pad = pad + "    "
            # arm line ``rel`` (1-based) becomes source line len(out) + rel
            first = len(out)
            for rel, over in arm_linemap.items():
                linemap[first + rel] = over
            out.extend(body_pad + line for line in lines)


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
        rodata = memory.rodata
        self._base_ns = {
            "_M": machine,
            "_C": machine.cost,
            "_DEO": self._deopt_sync,
            "_DEOM": self._deopt_sync_mid,
            "_CALL": self._call,
            "_POP": machine._pop_frame,
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
            "_RDD": rodata.data,
            "_RE": min(rodata.end, DATA_BASE),
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

        An eager machine (``engine="jit-eager"``) compiles the entry function
        now; a tiered one interprets it until it runs hot."""
        machine = self.machine
        try:
            frame = machine.frames[-1]
            body = None if machine._hot else self.body_for(frame.function)
            if body is None:
                machine._run_steps(0)
            else:
                try:
                    body(frame)
                except _Deopt:
                    machine._run_steps(0)
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
                machine._run_steps(depth)
            else:
                try:
                    body(frames[-1])
                except _Deopt:
                    machine._run_steps(depth)
        finally:
            machine._steps += over_steps
            cost.cycle_units += over_units

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
        # CPython before 3.12 leaves ``name`` unset: the message quotes it.
        name = getattr(exc, "name", None)
        if name is None:
            match = re.search(r"'(\w+)'", str(exc))
            if match is None:
                return None
            name = match.group(1)
        if name.startswith("o"):
            name = "v" + name[1:]  # a slot offset stands for its pointer
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
