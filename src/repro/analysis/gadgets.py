"""DOP gadget discovery (the paper's static-analysis step).

A *DOP gadget* is an instruction sequence whose operands the attacker can
control through memory corruption; a *gadget dispatcher* is a loop whose
trip condition depends on corruptible data and whose body offers repeated
corruption plus gadgets to drive (paper §II-A).  The paper reports
discovering MOV, DEREFERENCE and STORE gadgets in librelp this way
(§II-C); this module reproduces that capability over the reproduction's
IR:

=========  ==========================================================
kind       pattern
=========  ==========================================================
``store``  ``store v, p`` with attacker-controlled pointer ``p``
``mov``    a ``store`` gadget whose value is also controlled
``deref``  ``load p`` with attacker-controlled pointer ``p``
``add``    ``add/sub`` on controlled operands feeding a memory write
``send``   output builtin with controlled pointer/length
=========  ==========================================================

Important: Smokestack does not *remove* gadgets — the hardened module
reports the same census.  What it breaks is the attacker's ability to
*aim* at the operands; the analysis therefore also reports, per gadget,
whether the operand storage is randomized (lives in a permuted frame).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

from repro.analysis.taintflow import SinkHit, TaintAnalysis
from repro.ir.instructions import Call, CondBr, Instruction
from repro.ir.module import BasicBlock, Function
from repro.opt.cfg import successors

if TYPE_CHECKING:
    from repro.synth.facts import FunctionFacts, ProgramFacts

#: Input builtins providing the corruption opportunity inside a loop.
_INPUT_BUILTINS = frozenset(
    {"input_read", "input_read_unbounded", "snprintf_sim", "sstrncpy_",
     "strcpy_", "memcpy_"}
)


class Gadget(NamedTuple):
    """One discovered gadget."""

    kind: str                 # store | mov | deref | add | sub | send
    function: str
    block: str
    instruction: Instruction


class Dispatcher(NamedTuple):
    """A loop usable to chain gadget executions."""

    function: str
    header: str
    condition_controlled: bool
    corruption_sites: int
    gadgets_in_body: int


class GadgetReport:
    """Gadget census for one module."""

    def __init__(self):
        self.gadgets: List[Gadget] = []
        self.dispatchers: List[Dispatcher] = []

    def kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for gadget in self.gadgets:
            counts[gadget.kind] = counts.get(gadget.kind, 0) + 1
        return counts

    def by_function(self, name: str) -> List[Gadget]:
        return [g for g in self.gadgets if g.function == name]

    def has_kinds(self, *kinds: str) -> bool:
        available = self.kinds()
        return all(kind in available for kind in kinds)

    def usable_dispatchers(self) -> List[Dispatcher]:
        """Dispatchers with a controlled bound, corruption and gadgets."""
        return [
            d for d in self.dispatchers
            if d.condition_controlled and d.corruption_sites and d.gadgets_in_body
        ]

    def __repr__(self) -> str:
        return (
            f"GadgetReport({sum(self.kinds().values())} gadgets "
            f"{self.kinds()}, {len(self.dispatchers)} dispatchers)"
        )


def sink_to_gadget(hit: SinkHit, taint: TaintAnalysis) -> Optional[Gadget]:
    """Project one shared-census sink onto the executable-gadget taxonomy.

    ``index`` and ``conditional`` sinks are analysis facts (address-shift
    pressure, dispatcher conditions) rather than standalone executable
    gadgets, so they map to ``None`` here; dispatcher discovery consumes
    the conditional information separately.
    """
    inst = hit.instruction
    if hit.kind == "mover":
        kind = "mov" if taint.is_controlled(inst.value) else "store"
    elif hit.kind == "deref":
        kind = "deref"
    elif hit.kind == "arith":
        if inst.op not in ("add", "sub"):
            return None
        kind = inst.op
    elif hit.kind == "send":
        kind = "send"
    else:
        return None
    return Gadget(kind, hit.function, hit.block, inst)


def find_gadgets(facts: FunctionFacts) -> List[Gadget]:
    """Classify the function's instructions into DOP gadgets.

    One projection of :func:`repro.analysis.taintflow.collect_gadget_sinks`
    — the same walk that produces ``TaintFlowAnalysis.sinks`` — run under
    the bundle's flow-insensitive corruption-model taint
    (:attr:`~repro.synth.facts.FunctionFacts.sinks`), so the two
    censuses share a single implementation and cannot drift.
    """
    gadgets: List[Gadget] = []
    for hit in facts.sinks:
        gadget = sink_to_gadget(hit, facts.taint)
        if gadget is not None:
            gadgets.append(gadget)
    return gadgets


def find_dispatchers(facts: FunctionFacts) -> List[Dispatcher]:
    """Natural loops usable as gadget dispatchers."""
    function = facts.function
    taint = facts.taint
    reachable = facts.reachable
    tree = facts.dominators
    gadgets = find_gadgets(facts)
    dispatchers: List[Dispatcher] = []
    seen_headers = set()
    for block in function.blocks:
        if block not in reachable:
            continue
        for successor in successors(block):
            if successor in seen_headers:
                continue
            if not tree.dominates(successor, block):
                continue  # not a back edge
            header = successor
            seen_headers.add(header)
            body = _natural_loop(header, block, function)
            condition_controlled = _loop_condition_controlled(
                header, body, taint
            )
            corruption_sites = sum(
                1
                for loop_block in body
                for inst in loop_block.instructions
                if isinstance(inst, Call)
                and inst.callee_name() in _INPUT_BUILTINS
            )
            # Calls inside the loop may reach corrupting functions too.
            corruption_sites += sum(
                1
                for loop_block in body
                for inst in loop_block.instructions
                if isinstance(inst, Call) and not isinstance(inst.callee, str)
            )
            gadget_count = sum(
                1 for gadget in gadgets if gadget.instruction.block in body
            )
            dispatchers.append(
                Dispatcher(
                    function.name,
                    header.label,
                    condition_controlled,
                    corruption_sites,
                    gadget_count,
                )
            )
    return dispatchers


def _natural_loop(header: BasicBlock, latch: BasicBlock, function: Function):
    """Blocks of the natural loop (header, latch, everything between)."""
    from repro.opt.cfg import predecessors

    preds = predecessors(function)
    body = {header, latch}
    work = [latch]
    while work:
        block = work.pop()
        for pred in preds.get(block, ()):
            if pred not in body:
                body.add(pred)
                if pred is not header:
                    work.append(pred)
    return body


def _loop_condition_controlled(header, body, taint) -> bool:
    """Is any exit condition of the loop attacker-controlled?"""
    for block in body:
        terminator = block.terminator()
        if isinstance(terminator, CondBr):
            exits = [
                t for t in (terminator.true_target, terminator.false_target)
                if t not in body
            ]
            if exits and taint.is_controlled(terminator.cond):
                return True
    return False


def analyze_module(program: ProgramFacts) -> GadgetReport:
    """Full gadget census of a program's module."""
    report = GadgetReport()
    for function in program.functions():
        facts = program.of(function)
        report.gadgets.extend(find_gadgets(facts))
        report.dispatchers.extend(find_dispatchers(facts))
    return report
