"""The ``repro analyze`` driver: run all analyses, render text/JSON.

One :class:`ProgramReport` per source file bundles the four analyses
(overflow reach, taint/gadget sinks, lint diagnostics, exposure scores)
plus the optional VM cross-check, as a flat list of findings with
stable, per-program identifiers:

=======  ==========================================  ============
prefix   category                                    severity
=======  ==========================================  ============
``G``    taint-to-sink gadget finding                info
``R``    deterministic overflow reach (baseline)     info
``L``    lint (uninit load / constant OOB gep)       error/warning
``X``    static-vs-VM cross-check mismatch           error
``S``    bounds-safety verdict (``--prove``)         warning/info
``E``    exploitability verdict (``--exploit``)      warning/info
=======  ==========================================  ============

With ``prove=True`` the interval bounds prover
(:mod:`repro.analysis.safety`) also runs: every non-PROVEN_SAFE slot
becomes an ``S`` finding (UNSAFE → warning, UNKNOWN → info), and any
PROVEN_SAFE slot that nevertheless appears in a possible-reach set is
an ``S`` *error* — a soundness violation that should never happen.

With ``exploit=True`` the exploitability prover
(:mod:`repro.analysis.exploit`) runs goal x defense verdicts: a
PROVABLY_EXPLOITABLE verdict under a deterministic (single-layout)
defense is a warning (the chain lands on every run), any other verdict
is informational, and ``--explain E00x`` prints the witness chain.  The
baseline verdicts are also folded into the exposure ranking via
:func:`repro.analysis.exposure.apply_exploit_verdicts`.

Every pass reads one :class:`~repro.synth.facts.ProgramFacts` built
over the module the report describes (compiled here at ``-O{opt_level}``
or handed in by the caller): the sinks, lint and exposure read each
function's seeded input taint, the reach rows its layout families and
cleanstack partition, the cross-check its frame descriptor and slot
names, and the bounds and exploitability provers the same bundles.

Identifiers are assigned in deterministic program order, so ``repro
analyze f.c --explain G003`` names the same finding on every run.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.crosscheck import CrosscheckResult, crosscheck_module
from repro.analysis.exploit import EXPLOITABLE, ExploitProver, default_goals
from repro.analysis.exposure import ExposureScore, score_function
from repro.analysis.lint import Diagnostic, lint_function
from repro.analysis.reach import BufferReach, reach_under_defense
from repro.analysis.safety import PROVEN_SAFE, UNSAFE, proven_reach_conflicts
from repro.analysis.taintflow import SinkHit, TaintFlowAnalysis
from repro.core.pipeline import compile_source
from repro.defenses.registry import DEFENSE_ORDER, defense_class
from repro.ir.module import Module
from repro.ir.printer import format_instruction
from repro.obs.metrics import get_registry
from repro.synth.facts import ProgramFacts
from repro.synth.goals import parse_goal

SEVERITY_RANK = {"info": 0, "warning": 1, "error": 2}

_SINK_DESCRIPTIONS = {
    "mover": "tainted pointer at a store (data-mover / write gadget)",
    "deref": "tainted pointer at a load (dereference gadget)",
    "index": "tainted index in address computation",
    "arith": "tainted arithmetic feeding a store (arithmetic gadget)",
    "conditional": "tainted branch condition (conditional gadget)",
    "send": "tainted operand at an output builtin (send gadget)",
}


class Finding(NamedTuple):
    """One analyzer finding, CLI-facing."""

    id: str
    severity: str  # error | warning | info
    category: str
    function: str
    block: str
    message: str


class ProgramReport:
    """Everything the analyzer knows about one program."""

    def __init__(self, name: str, module: Module):
        self.name = name
        self.module = module
        self.findings: List[Finding] = []
        self.scores: List[ExposureScore] = []
        self.reach: List[BufferReach] = []
        self.crosscheck: List[CrosscheckResult] = []
        #: bounds-safety report (``--prove``), None unless requested
        self.safety = None
        #: exploitability verdicts (``--exploit``), empty unless requested
        self.exploit: List = []
        #: finding id -> material for --explain
        self._sinks: Dict[str, Tuple[TaintFlowAnalysis, SinkHit]] = {}
        self._diagnostics: Dict[str, Diagnostic] = {}
        self._reach_ids: Dict[str, BufferReach] = {}
        self._exploit_ids: Dict[str, object] = {}

    # -- queries ---------------------------------------------------------------------

    def worst_severity(self) -> str:
        worst = "info"
        for finding in self.findings:
            if SEVERITY_RANK[finding.severity] > SEVERITY_RANK[worst]:
                worst = finding.severity
        return worst

    def finding(self, finding_id: str) -> Optional[Finding]:
        for finding in self.findings:
            if finding.id == finding_id:
                return finding
        return None

    def explain(self, finding_id: str) -> Optional[str]:
        """Def-use chain / context for one finding, or None if unknown."""
        finding = self.finding(finding_id)
        if finding is None:
            return None
        lines = [f"{finding.id} [{finding.severity}] {finding.message}"]
        if finding_id in self._sinks:
            taint, sink = self._sinks[finding_id]
            lines.append("def-use chain (source -> sink):")
            for step in taint.explain_chain(sink):
                lines.append(f"  {step}")
            lines.append(f"  sink: {format_instruction(sink.instruction)}")
        elif finding_id in self._diagnostics:
            diag = self._diagnostics[finding_id]
            if diag.instruction is not None:
                lines.append(
                    f"  at: {format_instruction(diag.instruction)} "
                    f"(block {diag.block})"
                )
        elif finding_id in self._exploit_ids:
            lines.append(self._exploit_ids[finding_id].describe())
        elif finding_id in self._reach_ids:
            reach = self._reach_ids[finding_id]
            lines.append("reach under each defense (certain / possible):")
            for entry in self.reach:
                if (
                    entry.function == reach.function
                    and entry.buffer == reach.buffer
                ):
                    lines.append(
                        f"  {entry.defense:<15} "
                        f"certain={sorted(entry.certain)} "
                        f"possible={sorted(entry.possible)} "
                        f"cookie={entry.cookie_certain} "
                        f"({entry.layouts} layouts)"
                    )
        return "\n".join(lines)

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "program": self.name,
            "worst_severity": self.worst_severity(),
            "findings": [f._asdict() for f in self.findings],
            "exposure": [
                {
                    "function": s.function,
                    "score": s.score,
                    "buffers": s.buffers,
                    "certain_reach_slots": s.certain_reach_slots,
                    "cookie_reachable": s.cookie_reachable,
                    "sinks": s.sink_counts,
                    "lint": s.lint_counts,
                    **(
                        {
                            "exploit_verdict": s.exploit_verdict,
                            "exploit_chain_length": s.exploit_chain_length,
                            "adjusted_score": s.adjusted_score,
                        }
                        if s.exploit_verdict is not None
                        else {}
                    ),
                }
                for s in self.scores
            ],
            "reach": [
                {
                    "function": r.function,
                    "buffer": r.buffer,
                    "defense": r.defense,
                    "certain": sorted(r.certain),
                    "possible": sorted(r.possible),
                    "cookie_certain": r.cookie_certain,
                    "layouts": r.layouts,
                }
                for r in self.reach
            ],
            "crosscheck": {
                "probes": len(self.crosscheck),
                "mismatches": [
                    c.describe() for c in self.crosscheck if not c.ok
                ],
            },
            **(
                {"safety": self.safety.to_dict()}
                if self.safety is not None
                else {}
            ),
            **(
                {"exploit": [v.to_dict() for v in self.exploit]}
                if self.exploit
                else {}
            ),
        }

    def format_text(self, verbose: bool = False) -> str:
        lines = [f"== {self.name} =="]
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        summary = (
            ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            or "clean"
        )
        lines.append(f"findings: {summary}")
        for finding in self.findings:
            if finding.severity == "info" and not verbose:
                continue
            lines.append(
                f"  {finding.id} [{finding.severity}] "
                f"{finding.function}:{finding.block}: {finding.message}"
            )
        lines.append("exposure (highest first):")
        for score in self.scores:
            lines.append(f"  {score.describe()}")
        if self.crosscheck:
            bad = [c for c in self.crosscheck if not c.ok]
            lines.append(
                f"vm cross-check: {len(self.crosscheck)} probes, "
                f"{len(bad)} mismatches"
            )
            for mismatch in bad:
                lines.append(f"  {mismatch.describe()}")
        if self.safety is not None:
            counts = self.safety.counts()
            proven = self.safety.proven_functions()
            lines.append(
                "safety proofs: "
                + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
                + f"; fully proven functions: {sorted(proven) or 'none'}"
            )
        if self.exploit:
            tally: Dict[str, int] = {}
            for entry in self.exploit:
                tally[entry.verdict] = tally.get(entry.verdict, 0) + 1
            lines.append(
                "exploitability verdicts: "
                + ", ".join(f"{k}={v}" for k, v in sorted(tally.items()))
            )
            for entry in self.exploit:
                chain = (
                    f" (chain length {entry.witness.length})"
                    if entry.witness is not None
                    else ""
                )
                lines.append(
                    f"  {entry.verdict:<20} [{entry.defense}] "
                    f"{entry.goal}{chain}"
                )
        return "\n".join(lines)


def analyze_program(
    source: str,
    name: str = "<source>",
    *,
    opt_level: int = 0,
    defenses: Sequence[str] = DEFENSE_ORDER,
    samples: int = 64,
    crosscheck: bool = False,
    prove: bool = False,
    exploit: bool = False,
    exploit_goal: Optional[str] = None,
    exploit_defenses: Optional[Sequence[str]] = None,
    module=None,
) -> ProgramReport:
    """Compile ``source`` (at ``-O{opt_level}``) and run the full
    analyzer over it.

    ``module`` lets a caller that already compiled the source (the serve
    worker's per-process module cache) skip the front end; analysis
    never mutates the module, so a cached one is safe to share.  Every
    pass, the exploit prover included, reads one :class:`ProgramFacts`
    built over that module.
    """
    if module is None:
        module = compile_source(source, opt_level=opt_level)
    facts = ProgramFacts(source, module=module)
    report = ProgramReport(name, module)
    counters = {"G": 0, "R": 0, "L": 0, "X": 0, "S": 0, "E": 0}

    def next_id(prefix: str) -> str:
        counters[prefix] += 1
        return f"{prefix}{counters[prefix]:03d}"

    for function in facts.functions():
        function_facts = facts.of(function)
        taint = function_facts.input_taint
        diagnostics = lint_function(function_facts)
        for sink in taint.sinks:
            finding_id = next_id("G")
            description = _SINK_DESCRIPTIONS.get(sink.kind, sink.kind)
            report.findings.append(
                Finding(
                    finding_id,
                    "info",
                    f"gadget-{sink.kind}",
                    sink.function,
                    sink.block,
                    description,
                )
            )
            report._sinks[finding_id] = (taint, sink)
        for diag in diagnostics:
            finding_id = next_id("L")
            report.findings.append(
                Finding(
                    finding_id,
                    diag.severity,
                    diag.category,
                    diag.function,
                    diag.block,
                    diag.message,
                )
            )
            report._diagnostics[finding_id] = diag
        for buffer in function_facts.buffers:
            per_defense = [
                reach_under_defense(
                    function_facts,
                    buffer,
                    defense_class(defense),
                    samples=samples,
                )
                for defense in defenses
            ]
            report.reach.extend(per_defense)
            baseline = next(
                (r for r in per_defense if r.defense == "none"), None
            )
            if baseline is not None and (
                baseline.certain or baseline.cookie_certain
            ):
                finding_id = next_id("R")
                targets = sorted(baseline.certain)
                if baseline.cookie_certain:
                    targets.append("<return-cookie>")
                report.findings.append(
                    Finding(
                        finding_id,
                        "info",
                        "overflow-reach",
                        function.name,
                        "entry",
                        f"linear overflow from '{buffer}' deterministically "
                        f"reaches {targets} under baseline layout",
                    )
                )
                report._reach_ids[finding_id] = baseline
        report.scores.append(score_function(function_facts, diagnostics))
    report.scores.sort(key=lambda s: (-s.score, s.function))

    if crosscheck:
        report.crosscheck = crosscheck_module(facts)
        for probe in report.crosscheck:
            if not probe.ok:
                report.findings.append(
                    Finding(
                        next_id("X"),
                        "error",
                        "crosscheck-mismatch",
                        probe.function,
                        "entry",
                        probe.describe(),
                    )
                )

    if prove:
        report.safety = facts.safety
        for safety in report.safety.functions.values():
            for record in safety.slots:
                if record.verdict == PROVEN_SAFE:
                    continue
                severity = "warning" if record.verdict == UNSAFE else "info"
                bound = (
                    "unbounded"
                    if record.write_bound is None
                    else f"{record.write_bound}B"
                )
                reason = record.reasons[0] if record.reasons else "no proof"
                report.findings.append(
                    Finding(
                        next_id("S"),
                        severity,
                        f"safety-{record.verdict.lower()}",
                        safety.name,
                        "entry",
                        f"slot '{record.slot}' ({record.size}B, max write "
                        f"{bound}) is {record.verdict}: {reason}",
                    )
                )
        for conflict in proven_reach_conflicts(facts):
            report.findings.append(
                Finding(
                    next_id("S"),
                    "error",
                    "safety-soundness",
                    "<module>",
                    "entry",
                    f"PROVEN_SAFE slot inside a possible-reach set: "
                    f"{conflict}",
                )
            )

    if exploit:
        prover = ExploitProver(facts)
        goals = (
            [parse_goal(exploit_goal)]
            if exploit_goal is not None
            else default_goals(facts)
        )
        chosen = tuple(exploit_defenses or DEFENSE_ORDER)
        by_function: Dict[str, List] = {}
        for goal in goals:
            for defense in chosen:
                entry = prover.prove(goal, defense)
                report.exploit.append(entry)
                if entry.verdict == EXPLOITABLE:
                    severity = (
                        "warning"
                        if defense_class(defense).family == "fixed"
                        else "info"
                    )
                    message = (
                        f"goal '{entry.goal}' is {entry.verdict} under "
                        f"'{defense}'"
                    )
                    if entry.witness is not None:
                        message += (
                            f" (witness chain: {entry.witness.length} writes)"
                        )
                else:
                    severity = "info"
                    message = (
                        f"goal '{entry.goal}' is {entry.verdict} under "
                        f"'{defense}': {entry.reason}"
                    )
                function = getattr(goal, "function", "") or "<module>"
                finding_id = next_id("E")
                report.findings.append(
                    Finding(
                        finding_id,
                        severity,
                        f"exploit-{entry.verdict.lower().replace('_', '-')}",
                        function,
                        "entry",
                        message,
                    )
                )
                report._exploit_ids[finding_id] = entry
                if defense == "none" and function != "<module>":
                    by_function.setdefault(function, []).append(entry)
        if by_function:
            from repro.analysis.exposure import apply_exploit_verdicts

            report.scores = apply_exploit_verdicts(
                report.scores, by_function
            )

    registry = get_registry()
    registry.counter("analysis_programs_total").inc()
    for finding in report.findings:
        registry.counter(
            "analysis_findings_total",
            severity=finding.severity,
            category=finding.category,
        ).inc()
    return report


def reports_to_json(reports: Sequence[ProgramReport]) -> str:
    return json.dumps(
        {"reports": [report.to_dict() for report in reports]},
        indent=2,
        sort_keys=True,
    )


def exit_status(
    reports: Sequence[ProgramReport], fail_on: str = "error"
) -> int:
    """0 when every report is below the ``fail_on`` severity bar."""
    if fail_on == "never":
        return 0
    bar = SEVERITY_RANK[fail_on]
    for report in reports:
        if SEVERITY_RANK[report.worst_severity()] >= bar:
            return 1
    return 0
