"""Prover-driven per-function defense assignment.

PR 4's selective hardening answered "which functions need Smokestack at
all"; this pass generalizes the question to the full registry: *for each
function, what is the cheapest registered defense under which every
auto-derived corruption goal in that function's frame is
PROVABLY_ROBUST?*  The exploit prover (:mod:`repro.analysis.exploit`)
supplies the verdicts; this module only orders defenses by cost and
walks the ladder.

The cost order is the deployment story, cheapest first; each
registered defense declares its own ``cost_rank``:

==============  ====================================================
defense         runtime cost intuition
==============  ====================================================
none            zero
shadowstack     one shadow push/pop per call (metadata isolation)
canary          one cookie check per return
aslr            one load-time base draw, no per-call work
padding         dead pad bytes per frame (cache pressure)
cleanstack      second stack pointer + load-time region draw
static-permute  compile-time only, but forfeits layout debuggability
smokestack      per-invocation permutation draw (the paper's price)
==============  ====================================================

Soundness contract: a function is assigned a defense only when **all**
its goals are PROVABLY_ROBUST under it.  UNKNOWN is treated exactly
like PROVABLY_EXPLOITABLE — the ladder keeps climbing — and a function
whose goals never all turn ROBUST falls back to the highest-ranked
scheme, ``smokestack``, the strongest in the registry.  The fallback is recorded as such:
its verdicts may still be UNKNOWN (brute-force-ably exploitable), which
is the honest residue the tournament's dynamic campaign measures.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.exploit import (
    ROBUST,
    ExploitProver,
    ExploitVerdict,
    default_goals,
)
from repro.defenses.registry import SCHEMES, defense_class
from repro.synth.facts import ProgramFacts
from repro.synth.goals import Goal

_by_cost = attrgetter("cost_rank")


class DefenseAssignment(NamedTuple):
    """The chosen defense for one function, with its supporting verdicts."""

    function: str
    defense: str
    #: every (goal, chosen-defense) verdict backing the choice; empty
    #: when the function exposes no goals at all
    verdicts: Tuple[ExploitVerdict, ...]
    reason: str

    @property
    def proven(self) -> bool:
        """True when every backing verdict is PROVABLY_ROBUST."""
        return bool(self.verdicts) and all(
            verdict.verdict == ROBUST for verdict in self.verdicts
        )

    def describe(self) -> str:
        return f"{self.function}: {self.defense} ({self.reason})"


def assign_defenses(
    facts: ProgramFacts,
    *,
    samples: int = 16,
    seed: int = 0,
    goal_limit: int = 12,
    prover: Optional[ExploitProver] = None,
) -> List[DefenseAssignment]:
    """Cheapest-ROBUST defense per function, smokestack fallback.

    Goals come from :func:`default_goals` and are grouped by the frame
    they corrupt; a function with no goals (no word slots near any
    channel) needs no defense and is assigned ``none`` outright.
    """
    # Cheapest first; the costliest rung doubles as the fallback.
    ladder = [scheme.name for scheme in sorted(SCHEMES, key=_by_cost)]
    if prover is None:
        prover = ExploitProver(facts, samples=samples, seed=seed)
    by_function: Dict[str, List[Goal]] = {}
    for goal in default_goals(facts, limit=goal_limit):
        by_function.setdefault(goal.function, []).append(goal)

    assignments: List[DefenseAssignment] = []
    for function in facts.functions():
        goals = by_function.get(function.name, [])
        if not goals:
            assignments.append(
                DefenseAssignment(
                    function.name,
                    "none",
                    (),
                    "no corruption goals in this frame",
                )
            )
            continue
        chosen: Optional[DefenseAssignment] = None
        for defense in ladder:
            verdicts = tuple(prover.prove(goal, defense) for goal in goals)
            if all(verdict.verdict == ROBUST for verdict in verdicts):
                chosen = DefenseAssignment(
                    function.name,
                    defense,
                    verdicts,
                    f"all {len(verdicts)} goal(s) PROVABLY_ROBUST",
                )
                break
        if chosen is None:
            verdicts = tuple(
                prover.prove(goal, ladder[-1]) for goal in goals
            )
            residue = sum(
                1 for verdict in verdicts if verdict.verdict != ROBUST
            )
            chosen = DefenseAssignment(
                function.name,
                ladder[-1],
                verdicts,
                f"fallback: {residue} goal(s) not proven ROBUST under any "
                "cheaper defense",
            )
        assignments.append(chosen)
    return assignments


def assignment_summary(
    assignments: Sequence[DefenseAssignment],
) -> Dict[str, object]:
    """JSON-ready digest: per-function choices + aggregate facts."""
    per_function = {
        assignment.function: {
            "defense": assignment.defense,
            "proven": assignment.proven,
            "goals": len(assignment.verdicts),
            "reason": assignment.reason,
        }
        for assignment in assignments
    }
    fallback = max(SCHEMES, key=_by_cost).name
    costliest = max(
        (assignment.defense for assignment in assignments),
        key=lambda name: defense_class(name).cost_rank,
        default="none",
    )
    return {
        "functions": per_function,
        "costliest_assigned": costliest,
        "all_proven": all(
            assignment.proven or not assignment.verdicts
            for assignment in assignments
        ),
        "cheaper_than_smokestack": all(
            assignment.defense != fallback
            for assignment in assignments
        ),
    }
