"""Bounds-safety proofs: per-slot PROVEN_SAFE / UNSAFE / UNKNOWN verdicts.

Smokestack pays its permutation cost on every call, even in functions
where no store can ever leave its slot.  This module supplies the sound
side of the CleanStack-style bargain: combine the interval abstract
interpretation (:mod:`repro.analysis.intervals`) with an escape/alias
check and interprocedural write summaries, and emit per-slot verdicts
the hardening pipeline may act on:

``PROVEN_SAFE``
    Every ``store``/``gep``/write-builtin that can reach the slot's
    frame stays in bounds on all paths, the slot's address never
    escapes, and no callee can overflow into the frame.  Skipping
    randomization for a frame of proven slots is sound.
``UNSAFE``
    A reachable write can exceed its object's bounds *and* attacker
    input influences the overflowing extent (directly, or the function
    sits on a tainted input path) — the DOP-relevant case.
``UNKNOWN``
    Neither proof succeeded: unbounded-but-untainted writes, escaped
    addresses, VLAs, wild pointers with no attacker influence.

The prover is deliberately one-sided: only ``PROVEN_SAFE`` carries a
soundness obligation (enforced mechanically by the ``safety`` fuzz
oracle and :func:`repro.analysis.crosscheck.crosscheck_safety`);
UNSAFE-vs-UNKNOWN is a classification heuristic for reporting.

Demotion rules (all conservative in the safe direction):

* a breached buffer demotes every sibling slot — layout permutation can
  place any sibling adjacent to the buffer;
* a breach that can cross the frame (unbounded, or ≥ 8 bytes past the
  object) demotes every slot of every *transitive caller* — the caller
  frames sit above the victim frame;
* wild writes (unresolvable root) and out-of-bounds global writes
  demote the whole function and its transitive callers;
* an escaped slot address or a VLA in the frame caps the slot at
  UNKNOWN.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.analysis.intervals import (
    POS_INF,
    TOP,
    UNREACHABLE,
    Interval,
    READONLY_BUILTINS,
    WRITE_BUILTINS,
    builtin_write_extent,
    resolve_pointer,
)
from repro.analysis.reach import column_reach, named_slot_sizes
from repro.analysis.taintflow import UNKNOWN_MEMORY, mem, pointer_root
from repro.defenses.registry import SCHEMES
from repro.ir.instructions import Alloca, Call, Cast, Instruction, Store
from repro.ir.module import Function
from repro.ir.values import Argument, GlobalVariable, Value

if TYPE_CHECKING:
    from repro.synth.facts import FunctionFacts, ProgramFacts

PROVEN_SAFE = "PROVEN_SAFE"
UNSAFE = "UNSAFE"
UNKNOWN = "UNKNOWN"

_RANK = {PROVEN_SAFE: 0, UNKNOWN: 1, UNSAFE: 2}


def _worse(a: str, b: str) -> str:
    return a if _RANK[a] >= _RANK[b] else b


class WriteEvent(NamedTuple):
    """One memory write the prover must account for."""

    function: str
    instruction: Instruction
    root: Optional[Value]  # Alloca | GlobalVariable | Argument | None
    offset: Interval  # byte offset of the write start, relative to root
    extent: Interval  # bytes written from that offset
    tainted: bool  # attacker influences where/how much is written
    kind: str

    def end(self) -> float:
        """Largest byte index past ``root`` the write can touch."""
        if self.offset.is_empty() or self.extent.is_empty():
            return 0
        if self.offset.lo < 0:
            return POS_INF  # writing below the object start hits anything
        return self.offset.hi + self.extent.hi


class SlotSafety(NamedTuple):
    """The verdict for one stack slot."""

    function: str
    slot: str
    size: int
    verdict: str
    write_bound: Optional[int]  # max feasible write end (bytes); None = ∞
    reasons: Tuple[str, ...]


class FunctionSafety(NamedTuple):
    name: str
    slots: Tuple[SlotSafety, ...]
    vla: bool
    proven: bool  # every slot PROVEN_SAFE and no VLAs: safe to skip

    def slot(self, name: str) -> Optional[SlotSafety]:
        for record in self.slots:
            if record.slot == name:
                return record
        return None


class SafetyReport:
    """Module-wide verdicts plus the call-graph context behind them."""

    def __init__(
        self,
        functions: Dict[str, FunctionSafety],
        escape_verdicts: Dict[str, str],
        transitive_callers: Dict[str, FrozenSet[str]],
    ):
        self.functions = functions
        #: function -> UNSAFE/UNKNOWN when its writes can cross the frame
        self.escape_verdicts = escape_verdicts
        self.transitive_callers = transitive_callers

    def function(self, name: str) -> Optional[FunctionSafety]:
        return self.functions.get(name)

    def verdict(self, function: str, slot: str) -> Optional[str]:
        safety = self.functions.get(function)
        if safety is None:
            return None
        record = safety.slot(slot)
        return record.verdict if record is not None else None

    def proven_functions(self) -> List[str]:
        return [name for name, fs in self.functions.items() if fs.proven]

    def counts(self) -> Dict[str, int]:
        out = {PROVEN_SAFE: 0, UNSAFE: 0, UNKNOWN: 0}
        for safety in self.functions.values():
            for record in safety.slots:
                out[record.verdict] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "proven_functions": self.proven_functions(),
            "slot_counts": self.counts(),
            "functions": [
                {
                    "function": fs.name,
                    "proven": fs.proven,
                    "vla": fs.vla,
                    "slots": [
                        {
                            "slot": s.slot,
                            "size": s.size,
                            "verdict": s.verdict,
                            "write_bound": s.write_bound,
                            "reasons": list(s.reasons),
                        }
                        for s in fs.slots
                    ],
                }
                for fs in self.functions.values()
            ],
        }


# ---------------------------------------------------------------------------
# Per-function fact collection.
# ---------------------------------------------------------------------------


class _CallThrough(NamedTuple):
    instruction: Instruction
    callee: str
    arg_index: int
    root: Optional[Value]
    offset: Interval


class _FrameWrites:
    """What one function writes, lets escape and calls, per the bundle's
    intervals and seeded input taint."""

    def __init__(self, function: Function):
        self.function = function
        self.events: List[WriteEvent] = []
        self.call_throughs: List[_CallThrough] = []
        self.escaped_allocas: Set[Alloca] = set()
        self.escaped_params: Set[int] = set()
        self.callees: Set[str] = set()
        self.vla = False
        self.tainted_sinks = False


def _escape_root(writes: _FrameWrites, root: Optional[Value]) -> None:
    if isinstance(root, Alloca):
        writes.escaped_allocas.add(root)
    elif isinstance(root, Argument):
        writes.escaped_params.add(root.index)


def _builtin_write_tainted(name: str, call: Call, tstate: frozenset) -> bool:
    """Does the attacker influence the builtin's write extent or target?"""
    args = call.args
    if args and args[0] in tstate:
        return True  # tainted destination pointer
    if name == "input_read_unbounded":
        return True  # extent == attacker's input length
    if name == "strcpy_":
        if len(args) < 2:
            return True
        source = args[1]
        return (
            source in tstate
            or mem(pointer_root(source)) in tstate
            or UNKNOWN_MEMORY in tstate
        )
    if name == "input_read" and len(args) >= 2:
        return args[1] in tstate
    if name in ("strncpy_", "memcpy_", "memset_") and len(args) >= 3:
        return args[2] in tstate
    if name == "sstrncpy_" and len(args) >= 3:
        return args[2] in tstate
    if name == "snprintf_sim" and len(args) >= 2:
        return args[1] in tstate
    return False


def _collect_writes(
    facts: FunctionFacts, module_functions: AbstractSet[str]
) -> _FrameWrites:
    function = facts.function
    intervals = facts.intervals
    taint = facts.input_taint
    writes = _FrameWrites(function)
    writes.vla = bool(facts.descriptor.vla_allocas)
    writes.tainted_sinks = bool(taint.sinks)

    for block in function.blocks:
        pairs = zip(intervals.states_in(block), taint.result.states_in(block))
        for (inst, istate), (_, tstate) in pairs:
            if istate is UNREACHABLE:
                continue  # statically dead: no concrete execution gets here

            def evaluate(value, _state=istate):
                return intervals.evaluate(value, _state)

            if isinstance(inst, Store):
                root, offset = resolve_pointer(inst.pointer, evaluate)
                size = inst.value.ctype.size()
                writes.events.append(
                    WriteEvent(
                        function.name,
                        inst,
                        root,
                        offset,
                        Interval(size, size),
                        inst.pointer in tstate,
                        "store",
                    )
                )
                if inst.value.ctype.is_pointer():
                    # Storing an address into a *local static* slot (the
                    # O0 parameter spill pattern) is not an escape: any
                    # later write through the reloaded pointer resolves
                    # to an unknown root and is handled as a wild write.
                    # Stores into globals/unknown memory do escape.
                    dest, _ = resolve_pointer(inst.pointer, evaluate)
                    if not (isinstance(dest, Alloca) and dest.is_static()):
                        vroot, _ = resolve_pointer(inst.value, evaluate)
                        _escape_root(writes, vroot)
            elif isinstance(inst, Cast) and inst.kind == "ptrtoint":
                vroot, _ = resolve_pointer(inst.value, evaluate)
                _escape_root(writes, vroot)
            elif isinstance(inst, Call):
                name = inst.callee_name()
                if name in module_functions:
                    writes.callees.add(name)
                    for arg_index, arg in enumerate(inst.args):
                        if not arg.ctype.is_pointer():
                            continue
                        root, offset = resolve_pointer(arg, evaluate)
                        writes.call_throughs.append(
                            _CallThrough(inst, name, arg_index, root, offset)
                        )
                elif name in WRITE_BUILTINS:
                    extent = builtin_write_extent(name, inst, evaluate)
                    if inst.args:
                        root, offset = resolve_pointer(inst.args[0], evaluate)
                    else:
                        root, offset = None, TOP
                    writes.events.append(
                        WriteEvent(
                            function.name,
                            inst,
                            root,
                            offset,
                            extent if extent is not None else TOP,
                            _builtin_write_tainted(name, inst, tstate),
                            name,
                        )
                    )
                elif name in READONLY_BUILTINS:
                    pass
                else:
                    # Unknown builtin: assume it may write anywhere and
                    # capture every pointer argument.
                    for arg in inst.args:
                        if arg.ctype.is_pointer():
                            root, _ = resolve_pointer(arg, evaluate)
                            _escape_root(writes, root)
                    writes.events.append(
                        WriteEvent(
                            function.name,
                            inst,
                            None,
                            TOP,
                            TOP,
                            False,
                            f"builtin:{name}",
                        )
                    )
    return writes


# ---------------------------------------------------------------------------
# Interprocedural parameter-write summaries.
# ---------------------------------------------------------------------------


class ParamSummary(NamedTuple):
    writes: bool
    end: float  # max bytes past the argument pointer; POS_INF = unbounded
    tainted: bool
    escapes: bool


NO_WRITE = ParamSummary(False, 0, False, False)


def _param_summaries(
    writes_by_fn: Dict[str, _FrameWrites],
) -> Dict[str, Dict[int, ParamSummary]]:
    """Fixpoint over the call graph: what each function does through each
    pointer parameter.  Summaries only grow; a round limit plus a forced
    TOP keeps unbounded recursion (f passes p+8 to itself) sound."""
    summaries: Dict[str, Dict[int, ParamSummary]] = {}
    for name, frame in writes_by_fn.items():
        summaries[name] = {
            param.index: NO_WRITE
            for param in frame.function.params
            if param.ctype.is_pointer()
        }

    limit = 2 * len(writes_by_fn) + 4
    changed = True
    rounds = 0
    while changed and rounds < limit:
        changed = False
        rounds += 1
        for name, frame in writes_by_fn.items():
            for index in summaries[name]:
                old = summaries[name][index]
                writes, end, tainted = old.writes, old.end, old.tainted
                escapes = old.escapes or index in frame.escaped_params
                for event in frame.events:
                    if (
                        isinstance(event.root, Argument)
                        and event.root.index == index
                    ):
                        writes = True
                        end = max(end, event.end())
                        tainted = tainted or event.tainted
                for through in frame.call_throughs:
                    if not (
                        isinstance(through.root, Argument)
                        and through.root.index == index
                    ):
                        continue
                    callee = summaries.get(through.callee, {}).get(
                        through.arg_index
                    )
                    if callee is None:
                        continue
                    escapes = escapes or callee.escapes
                    if callee.writes:
                        writes = True
                        tainted = tainted or callee.tainted
                        if through.offset.lo < 0:
                            end = POS_INF
                        else:
                            end = max(end, through.offset.hi + callee.end)
                new = ParamSummary(writes, end, tainted, escapes)
                if new != old:
                    summaries[name][index] = new
                    changed = True
    if changed:
        # Still growing after the round limit: force the summaries that
        # write to "unbounded" so the result stays sound.
        for per_fn in summaries.values():
            for index, summary in per_fn.items():
                if summary.writes:
                    per_fn[index] = summary._replace(end=POS_INF)
    return summaries


# ---------------------------------------------------------------------------
# The module-level prover.
# ---------------------------------------------------------------------------


class _SlotRecord:
    __slots__ = ("name", "size", "verdict", "bound", "reasons")

    def __init__(self, name: str, size: int):
        self.name = name
        self.size = size
        self.verdict = PROVEN_SAFE
        self.bound: float = 0
        self.reasons: List[str] = []

    def demote(self, verdict: str, reason: str) -> None:
        if _RANK[verdict] > _RANK[self.verdict]:
            self.verdict = verdict
        if reason not in self.reasons:
            self.reasons.append(reason)


def analyze_module_safety(program: ProgramFacts) -> SafetyReport:
    """Run the full prover over every function of ``program``'s module,
    from each function's fact bundle (read it as ``program.safety``)."""
    module_functions = frozenset(program.module.functions)
    writes_by_fn: Dict[str, _FrameWrites] = {
        function.name: _collect_writes(program.of(function), module_functions)
        for function in program.functions()
    }
    summaries = _param_summaries(writes_by_fn)

    # Transitive callers (victim frame -> every frame above it).
    direct_callers: Dict[str, Set[str]] = {name: set() for name in writes_by_fn}
    for name, writes in writes_by_fn.items():
        for callee in writes.callees:
            if callee in direct_callers:
                direct_callers[callee].add(name)
    transitive_callers: Dict[str, FrozenSet[str]] = {}
    for name in writes_by_fn:
        seen: Set[str] = set()
        stack = list(direct_callers[name])
        while stack:
            caller = stack.pop()
            if caller in seen:
                continue
            seen.add(caller)
            stack.extend(direct_callers[caller])
        transitive_callers[name] = frozenset(seen)

    records_by_fn: Dict[str, Dict[str, _SlotRecord]] = {}
    escape_verdicts: Dict[str, str] = {}

    for name, writes in writes_by_fn.items():
        facts = program.of(writes.function)
        names = facts.allocation_names
        records: Dict[str, _SlotRecord] = {}
        by_alloca: Dict[int, _SlotRecord] = {}
        for allocation in facts.descriptor.allocations:
            record = _SlotRecord(names[id(allocation)], allocation.size)
            records[record.name] = record
            if allocation.alloca is not None:
                by_alloca[id(allocation.alloca)] = record
        records_by_fn[name] = records

        frame_breach: Optional[str] = None
        frame_escape: Optional[str] = None

        def breach_verdict(event: WriteEvent) -> str:
            if event.tainted:
                return UNSAFE
            if event.end() == POS_INF and writes.tainted_sinks:
                # The extent is not data-tainted but the function sits on
                # a tainted input path and the write is unbounded — the
                # librelp pattern (snprintf_sim with a wrapped offset).
                return UNSAFE
            return UNKNOWN

        # Argument-rooted writes materialised from callee summaries.
        events = list(writes.events)
        for through in writes.call_throughs:
            summary = summaries.get(through.callee, {}).get(through.arg_index)
            if summary is None:
                continue
            if summary.escapes:
                _escape_root(writes, through.root)
            if summary.writes:
                events.append(
                    WriteEvent(
                        name,
                        through.instruction,
                        through.root,
                        through.offset,
                        Interval(0, summary.end),
                        summary.tainted,
                        f"call:{through.callee}",
                    )
                )

        for event in events:
            root = event.root
            end = event.end()
            if root is None:
                verdict = (
                    UNSAFE
                    if event.tainted or writes.tainted_sinks
                    else UNKNOWN
                )
                reason = f"wild write ({event.kind}): unresolvable target"
                frame_breach = _worse(frame_breach or verdict, verdict)
                frame_escape = _worse(frame_escape or verdict, verdict)
                for record in records.values():
                    record.demote(verdict, reason)
                continue
            if isinstance(root, GlobalVariable):
                size = root.value_type.size()
                if end > size:
                    verdict = breach_verdict(event)
                    reason = (
                        f"global '{root.name}' overflow ({event.kind}) may "
                        f"run into the stack"
                    )
                    frame_breach = _worse(frame_breach or verdict, verdict)
                    frame_escape = _worse(frame_escape or verdict, verdict)
                    for record in records.values():
                        record.demote(verdict, reason)
                continue
            if isinstance(root, Argument):
                continue  # accounted to the caller via the summaries
            if isinstance(root, Alloca):
                record = by_alloca.get(id(root))
                if record is None:
                    # dynamic (VLA) alloca: size unknown statically
                    verdict = breach_verdict(event)
                    reason = f"write into VLA ({event.kind}): size unknown"
                    frame_breach = _worse(frame_breach or verdict, verdict)
                    if end == POS_INF:
                        frame_escape = _worse(
                            frame_escape or verdict, verdict
                        )
                    for other in records.values():
                        other.demote(verdict, reason)
                    continue
                record.bound = max(record.bound, end)
                if end > record.size:
                    verdict = breach_verdict(event)
                    bound_text = "unbounded" if end == POS_INF else f"{end}B"
                    record.demote(
                        verdict,
                        f"{event.kind} may write {bound_text} into "
                        f"{record.size}B slot",
                    )
                    frame_breach = _worse(frame_breach or verdict, verdict)
                    if end == POS_INF or end >= record.size + 8:
                        frame_escape = _worse(
                            frame_escape or verdict, verdict
                        )

        for alloca in writes.escaped_allocas:
            record = by_alloca.get(id(alloca))
            if record is not None:
                record.demote(UNKNOWN, "address escapes the frame")

        if writes.vla:
            for record in records.values():
                record.demote(UNKNOWN, "frame contains a VLA")

        if frame_breach is not None:
            for record in records.values():
                record.demote(
                    frame_breach,
                    "sibling slot breached: permutation can place any "
                    "neighbour next to the buffer",
                )
        if frame_escape is not None:
            escape_verdicts[name] = frame_escape

    # Cross-frame demotion: a frame-escaping breach in F reaches every
    # transitive caller's frame.
    for name, verdict in escape_verdicts.items():
        for caller in transitive_callers[name]:
            for record in records_by_fn.get(caller, {}).values():
                record.demote(
                    verdict,
                    f"callee '{name}' can overflow past its own frame",
                )

    functions: Dict[str, FunctionSafety] = {}
    for name, writes in writes_by_fn.items():
        records = records_by_fn[name]
        slots = tuple(
            SlotSafety(
                name,
                record.name,
                record.size,
                record.verdict,
                None if record.bound == POS_INF else int(record.bound),
                tuple(record.reasons),
            )
            for record in records.values()
        )
        proven = not writes.vla and all(
            record.verdict == PROVEN_SAFE for record in records.values()
        )
        functions[name] = FunctionSafety(name, slots, writes.vla, proven)
    return SafetyReport(functions, escape_verdicts, transitive_callers)


# ---------------------------------------------------------------------------
# Mechanical soundness gate: proofs vs. the reach model.
# ---------------------------------------------------------------------------


def proven_reach_conflicts(
    program: ProgramFacts, *, samples: int = 16
) -> List[str]:
    """PROVEN_SAFE slots that a statically-feasible overflow could reach.

    For every slot of ``program.safety`` whose feasible write bound
    exceeds its size, replay the breach through the byte-exact reach
    model under *every* registered defense and collect any PROVEN_SAFE
    slot inside a possible-reach set; unbounded breaches additionally
    indict proven slots in any transitive caller.  An empty return is
    the soundness gate.
    """
    report = program.safety
    conflicts: List[str] = []
    for name, safety in report.functions.items():
        facts = program.of(program.function(name))
        proven = {s.slot for s in safety.slots if s.verdict == PROVEN_SAFE}
        breaches = [
            slot
            for slot in safety.slots
            if slot.write_bound is None or slot.write_bound > slot.size
        ]
        if not breaches:
            continue
        sizes = {
            slot: size
            for slot, size in named_slot_sizes(facts).items()
            if slot in proven
        }
        for scheme in SCHEMES:
            columns = scheme.columns(facts, samples=samples)
            for slot in breaches:
                if slot.slot not in columns.los:
                    continue
                _, hit = column_reach(
                    columns, sizes, slot.slot, slot.write_bound
                )
                for victim in hit:
                    conflicts.append(
                        f"{name}: PROVEN_SAFE slot '{victim}' inside "
                        f"possible reach of '{slot.slot}' under "
                        f"'{scheme.name}'"
                    )
        for slot in breaches:
            if slot.write_bound is None:
                for caller in report.transitive_callers.get(
                    name, frozenset()
                ):
                    caller_safety = report.functions.get(caller)
                    if caller_safety is None:
                        continue
                    for victim in caller_safety.slots:
                        if victim.verdict == PROVEN_SAFE:
                            conflicts.append(
                                f"{caller}: PROVEN_SAFE slot "
                                f"'{victim.slot}' in a transitive caller "
                                f"of '{name}' (unbounded breach)"
                            )
    return sorted(set(conflicts))
