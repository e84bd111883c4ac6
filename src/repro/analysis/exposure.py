"""Per-function DOP-exposure score.

A single comparable number summarising how much raw material a function
offers a data-oriented attack, combining the other three analyses:

* **reach** — how many sibling slots (plus the return cookie) a linear
  overflow from each buffer *certainly* corrupts under the baseline
  layout; deterministic reach is what makes a DOP write primitive
  reliable (paper §II-A);
* **taint** — how many input-tainted values arrive at gadget-shaped
  sinks, weighted by kind (a tainted store pointer is a write-what-where;
  a tainted branch condition is the dispatcher's fuel);
* **lint** — uninitialized loads and constant OOB geps, the accidental
  primitives.

The score is a weighted sum, not a probability: it orders functions for
triage and lets the report show *why* (the per-component breakdown), and
it is what the ``repro analyze`` text report sorts by.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

from repro.analysis.lint import Diagnostic
from repro.analysis.reach import intra_frame_reach

if TYPE_CHECKING:
    from repro.synth.facts import FunctionFacts

#: Sink-kind weights: write primitives dominate, reads/sends assist.
SINK_WEIGHTS: Dict[str, float] = {
    "mover": 4.0,
    "arith": 3.0,
    "deref": 2.0,
    "index": 2.0,
    "conditional": 1.5,
    "send": 1.0,
}

REACH_SLOT_WEIGHT = 2.0
REACH_COOKIE_WEIGHT = 1.0
LINT_WEIGHTS = {"error": 2.0, "warning": 0.5}


class ExposureScore(NamedTuple):
    """Breakdown + total for one function."""

    function: str
    buffers: int
    certain_reach_slots: int  # sum over buffers of baseline-certain siblings
    cookie_reachable: int  # buffers whose overflow certainly hits the cookie
    sink_counts: Dict[str, int]
    lint_counts: Dict[str, int]
    score: float
    #: baseline exploitability verdict from :mod:`repro.analysis.exploit`
    #: (None when the prover was skipped — ``score`` then stands alone)
    exploit_verdict: Optional[str] = None
    #: shortest witness-chain length behind an EXPLOITABLE verdict
    exploit_chain_length: Optional[int] = None
    #: verdict-adjusted score; None when the prover was skipped
    adjusted_score: Optional[float] = None

    @property
    def effective_score(self) -> float:
        """Verdict-adjusted score, falling back to the raw heuristic.

        The raw ``score`` is pinned as the fallback: when the exploit
        prover did not run (``adjusted_score is None``) the ordering is
        exactly the pre-verdict one.
        """
        return self.score if self.adjusted_score is None else self.adjusted_score

    def describe(self) -> str:
        sinks = (
            ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(self.sink_counts.items())
            )
            or "none"
        )
        verdict = ""
        if self.exploit_verdict is not None:
            verdict = f", verdict={self.exploit_verdict}"
            if self.adjusted_score is not None:
                verdict += f", adjusted={self.adjusted_score:.1f}"
        return (
            f"{self.function}: score {self.score:.1f} "
            f"(buffers={self.buffers}, certain-reach={self.certain_reach_slots}, "
            f"cookie-reach={self.cookie_reachable}, sinks: {sinks}{verdict})"
        )


def score_function(
    facts: FunctionFacts, diagnostics: List[Diagnostic]
) -> ExposureScore:
    """The exposure breakdown of the function ``facts`` describes: reach
    over its declaration-order layout, sinks of its seeded input taint,
    and ``diagnostics`` (its :func:`~repro.analysis.lint.lint_function`).
    """
    buffers = facts.buffers
    layout = facts.layout()
    certain_slots = 0
    cookie_hits = 0
    for buffer in buffers:
        reach = intra_frame_reach(layout, buffer)
        certain_slots += len(reach.corrupted)
        if reach.cookie:
            cookie_hits += 1

    sink_counts: Dict[str, int] = {}
    for sink in facts.input_taint.sinks:
        sink_counts[sink.kind] = sink_counts.get(sink.kind, 0) + 1

    lint_counts: Dict[str, int] = {}
    for diag in diagnostics:
        lint_counts[diag.severity] = lint_counts.get(diag.severity, 0) + 1

    score = (
        REACH_SLOT_WEIGHT * certain_slots
        + REACH_COOKIE_WEIGHT * cookie_hits
        + sum(
            SINK_WEIGHTS.get(kind, 1.0) * count
            for kind, count in sink_counts.items()
        )
        + sum(
            LINT_WEIGHTS.get(severity, 1.0) * count
            for severity, count in lint_counts.items()
        )
    )
    return ExposureScore(
        function=facts.function.name,
        buffers=len(buffers),
        certain_reach_slots=certain_slots,
        cookie_reachable=cookie_hits,
        sink_counts=sink_counts,
        lint_counts=lint_counts,
        score=score,
    )


def apply_exploit_verdicts(
    scores: List[ExposureScore],
    verdicts_by_function: Dict[str, List],
) -> List[ExposureScore]:
    """Fold baseline exploitability verdicts into the exposure ranking.

    ``verdicts_by_function`` maps a function name to the
    :class:`repro.analysis.exploit.ExploitVerdict` list the prover
    produced for goals rooted in that function's frame (baseline
    defense).  The adjustment:

    * every goal ``PROVABLY_ROBUST`` — the raw material is unusable; the
      function scores **0** however many sinks it shows;
    * any goal ``PROVABLY_EXPLOITABLE`` — boost by the shortest witness
      chain's brevity (``score * (1 + 1/length)``): a one-write chain is
      a strictly sharper threat than a five-strike staging dance;
    * otherwise (``UNKNOWN``, or no verdict for the function) — keep the
      raw score.

    Functions the prover never saw keep ``adjusted_score=None`` so
    :attr:`ExposureScore.effective_score` falls back to the pinned raw
    heuristic, and re-sorting leaves their relative order intact.
    """
    adjusted: List[ExposureScore] = []
    for entry in scores:
        verdicts = verdicts_by_function.get(entry.function)
        if not verdicts:
            adjusted.append(entry)
            continue
        kinds = {v.verdict for v in verdicts}
        chain_lengths = [
            v.witness.length
            for v in verdicts
            if v.witness is not None and v.witness.length > 0
        ]
        shortest = min(chain_lengths) if chain_lengths else None
        if kinds == {"PROVABLY_ROBUST"}:
            new_score = 0.0
        elif "PROVABLY_EXPLOITABLE" in kinds and shortest is not None:
            new_score = entry.score * (1.0 + 1.0 / shortest)
        else:
            new_score = entry.score
        adjusted.append(
            entry._replace(
                exploit_verdict=_summary_verdict(kinds),
                exploit_chain_length=shortest,
                adjusted_score=new_score,
            )
        )
    adjusted.sort(key=lambda s: (-s.effective_score, s.function))
    return adjusted


def _summary_verdict(kinds) -> str:
    if "PROVABLY_EXPLOITABLE" in kinds:
        return "PROVABLY_EXPLOITABLE"
    if kinds == {"PROVABLY_ROBUST"}:
        return "PROVABLY_ROBUST"
    return "UNKNOWN"
