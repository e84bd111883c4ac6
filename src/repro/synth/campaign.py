"""Success-rate campaigns: plan, attack, and score every defense.

This is the experiment driver behind ``repro synth`` and
``scripts/security_gate.py``.  For each victim (a canned CVE
reproduction, an ``examples/minic`` program, or a
:mod:`repro.fuzz.victims` cohort member) it synthesizes one attack plan from the *reference* build, then
runs that plan against every requested defense through the campaign
harness, recording the paper's headline number — the per-defense
**success rate**: the fraction of victims whose goal predicate the
attacker achieves within the restart budget.

Two soundness assertions run on every result (they are the analyses'
cross-check, not the attacker's concern):

* the planner must never emit a chain against a function whose frame
  :mod:`repro.analysis.safety` proves fully safe; and
* every slot a *successful* plan corrupts must be non-``PROVEN_SAFE``
  (the prover is one-sided: ``UNKNOWN`` is the unsafe side).

A violation raises :class:`SoundnessError` — if the attack compiler and
the prover ever disagree, the campaign must fail loudly rather than
publish a rate.

Workers recompute everything from (seed | source) so the pool protocol
only ships plain strings; metrics are emitted in the parent from the
collected results (the registry is process-local).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.exploit import EXPLOITABLE, ROBUST, ExploitProver
from repro.analysis.safety import PROVEN_SAFE
from repro.attacks.harness import run_campaign
from repro.attacks.model import OUTCOMES
from repro.defenses.registry import defense_class, defense_names, make_defense
from repro.obs.metrics import get_registry, worker_job_metrics
from repro.synth.facts import ProgramFacts
from repro.synth.goals import parse_goal
from repro.synth.planner import AttackPlan, synthesize
from repro.synth.scenario import SynthScenario

DEFAULT_RESTARTS = 8
DEFAULT_SEED = 11


class SoundnessError(AssertionError):
    """The planner and the safety prover disagree — stop the campaign."""


@dataclass(frozen=True)
class VictimCase:
    """One victim program plus its goal, in picklable form."""

    name: str
    source: str
    goal: str  #: goal-grammar text (``exfil:…`` / ``corrupt:…``)
    #: cohort tags for aggregate reporting ("canned", "example", "fuzz")
    kind: str = "fuzz"
    #: ground truth, when known: False means no plan is *expected*
    expect_plan: Optional[bool] = None


@dataclass(frozen=True)
class DefenseOutcome:
    """One (victim, defense) campaign: every attempt's outcome, in order.

    Attempt *i*'s RNG seed and the deployed build do not depend on the
    restart budget, so a budget-*k* campaign is exactly the first *k*
    attempts of a longer one (:meth:`truncated`).
    """

    defense: str
    outcomes: Tuple[str, ...]  #: one :data:`OUTCOMES` name per attempt

    @property
    def attempts(self) -> int:
        return len(self.outcomes)

    @property
    def successes(self) -> int:
        return self.outcomes.count("success")

    @property
    def breakdown(self) -> Dict[str, int]:
        return {name: self.outcomes.count(name) for name in OUTCOMES}

    @property
    def first_success(self) -> Optional[int]:
        """1-based index of the first successful attempt."""
        if "success" not in self.outcomes:
            return None
        return self.outcomes.index("success") + 1

    @property
    def verdict(self) -> str:
        return "bypassed" if self.successes else "stopped"

    def truncated(self, attempts: int) -> "DefenseOutcome":
        """This campaign as if run with a budget of ``attempts``."""
        return DefenseOutcome(self.defense, self.outcomes[:attempts])


@dataclass
class VictimResult:
    name: str
    kind: str
    planned: bool
    plan_summary: Optional[str] = None
    error: Optional[str] = None
    defenses: List[DefenseOutcome] = field(default_factory=list)
    soundness: List[str] = field(default_factory=list)
    #: static exploitability verdicts (defense -> verdict string), when
    #: the exploit prover cross-check ran
    exploit_verdicts: Dict[str, str] = field(default_factory=dict)


def check_plan_soundness(
    facts: ProgramFacts, plan: Optional[AttackPlan]
) -> List[str]:
    """Cross-check a plan against the bounds-safety prover.

    Returns human-readable violations (empty list == sound).
    """
    if plan is None:
        return []
    violations: List[str] = []
    safety = facts.safety
    victim = plan.channel.function.name
    record = safety.functions.get(victim)
    if record is not None and record.proven:
        violations.append(
            f"chain planned against {victim}, which the prover marks fully PROVEN_SAFE"
        )
    caller = (
        plan.channel.caller.function.name
        if plan.channel.caller is not None
        else None
    )
    for strike in plan.strikes:
        for write in strike.writes:
            function = victim if write.frame == "victim" else caller
            if function is None:
                continue
            verdict = safety.verdict(function, write.slot)
            if verdict == PROVEN_SAFE:
                violations.append(
                    f"corruption target {function}.{write.slot} is PROVEN_SAFE"
                )
    return violations


def check_exploit_soundness(
    verdicts: Mapping[str, str],
    outcomes: Sequence[DefenseOutcome],
    expect_plan: Optional[bool],
) -> List[str]:
    """Cross-check static exploitability verdicts against VM outcomes.

    ``verdicts`` maps defense -> verdict.  The two mechanical gates from
    the prover's contract:

    1. a ``PROVABLY_ROBUST`` verdict contradicted by a VM-confirmed
       success is a soundness violation (the prover claimed no chain
       exists under *any* deployable layout);
    2. a ``PROVABLY_EXPLOITABLE`` verdict under a deterministic
       (single-layout) defense that the VM campaign then *failed* to
       confirm is equally fatal — certain reach must concretize.

    Additionally, unexploitable control victims (``expect_plan=False``)
    must come back ``PROVABLY_ROBUST`` under every defense in
    ``verdicts``.  Returns human-readable violations (empty == sound).
    """
    violations: List[str] = []
    if expect_plan is False:
        for defense, verdict in sorted(verdicts.items()):
            if verdict != ROBUST:
                violations.append(
                    f"unexploitable control classified {verdict} "
                    f"under {defense} (must be {ROBUST})"
                )
    for outcome in outcomes:
        verdict = verdicts.get(outcome.defense)
        if outcome.successes > 0 and verdict == ROBUST:
            violations.append(
                f"prover says {ROBUST} under {outcome.defense} but the "
                f"VM confirmed {outcome.successes} attack success(es)"
            )
        if (
            verdict == EXPLOITABLE
            and defense_class(outcome.defense).family == "fixed"
            and outcome.successes == 0
        ):
            violations.append(
                f"prover says {EXPLOITABLE} under deterministic defense "
                f"{outcome.defense} but no VM attempt succeeded "
                f"({outcome.breakdown})"
            )
    return violations


def run_victim(
    case: VictimCase,
    defenses: Sequence[str],
    restarts: int = DEFAULT_RESTARTS,
    seed: int = DEFAULT_SEED,
    stop_on_success: bool = True,
    exploit_check: bool = True,
) -> VictimResult:
    """Synthesize against one victim and campaign every defense."""
    try:
        facts = ProgramFacts(case.source, case.name)
        goal = parse_goal(case.goal)
        plan = synthesize(facts, goal)
    except Exception as error:  # compile or planner failure: a data point
        return VictimResult(
            case.name, case.kind, planned=False, error=f"{type(error).__name__}: {error}"
        )
    result = VictimResult(case.name, case.kind, planned=plan is not None)
    result.soundness = check_plan_soundness(facts, plan)
    if plan is not None:
        result.plan_summary = plan.describe()
        for defense_name in defenses:
            scenario = SynthScenario(facts, plan, defense_name, name=case.name)
            report = run_campaign(
                scenario,
                make_defense(defense_name),
                restarts=restarts,
                seed=seed,
                stop_on_success=stop_on_success,
            )
            result.defenses.append(
                DefenseOutcome(
                    defense_name,
                    tuple(attempt.outcome for attempt in report.attempts),
                )
            )
    if exploit_check:
        # control victims are proven under every defense, planned ones
        # under each defense they were attacked with
        checked = {o.defense for o in result.defenses}
        if case.expect_plan is False:
            checked |= set(defense_names())
        try:
            prover = ExploitProver(facts)
            for defense in sorted(checked):
                result.exploit_verdicts[defense] = prover.prove(
                    goal, defense
                ).verdict
        except Exception as error:  # the cross-check must never mask results
            result.soundness.append(
                f"exploit prover error: {type(error).__name__}: {error}"
            )
        else:
            result.soundness.extend(
                check_exploit_soundness(
                    result.exploit_verdicts, result.defenses, case.expect_plan
                )
            )
    return result


def _run_victim_job(job: dict) -> VictimResult:
    """Pool entry point: rebuild the case and run it."""
    case = VictimCase(**job["case"])
    return run_victim(
        case,
        job["defenses"],
        restarts=job["restarts"],
        seed=job["seed"],
        stop_on_success=job["stop_on_success"],
        exploit_check=job.get("exploit_check", True),
    )


def _run_victim_job_pooled(job: dict) -> Tuple[VictimResult, dict]:
    """Pool-worker wrapper: ship this job's metrics delta home.

    Counters incremented while planning/attacking inside a worker
    (pipeline compiles, exploit-prover series, JIT deopts) live in the
    worker's process-global registry; the parent merges the returned
    delta so jobs=1 and jobs=N campaigns report identical totals.
    """
    registry = worker_job_metrics()
    result = _run_victim_job(job)
    return result, registry.dump()


# --------------------------------------------------------------------------
# victim suites
# --------------------------------------------------------------------------


def canned_cases() -> List[VictimCase]:
    """The four CVE reproductions, as goal-driven synthesis targets."""
    from repro.attacks import dop, librelp, proftpd, wireshark
    from repro.attacks.overflow import le64

    return [
        VictimCase(
            "canned-listing1",
            dop.SOURCE,
            "exfil:" + le64(dop.EXPECTED_PRODUCT).hex(),
            kind="canned",
            expect_plan=True,
        ),
        VictimCase(
            "canned-wireshark",
            wireshark.SOURCE,
            "exfil:" + wireshark.CAPTURE_KEY.hex(),
            kind="canned",
            expect_plan=True,
        ),
        VictimCase(
            "canned-proftpd",
            proftpd.SOURCE,
            "exfil:" + proftpd.SSL_KEY.hex(),
            kind="canned",
            expect_plan=True,
        ),
        VictimCase(
            "canned-librelp",
            librelp.SOURCE,
            "exfil:" + librelp.PRIVATE_KEY.hex(),
            kind="canned",
            expect_plan=True,
        ),
    ]


def example_cases(examples_dir: str = "examples/minic") -> List[VictimCase]:
    """The checked-in Mini-C examples: one vulnerable, one proven-safe."""
    import os

    cases = []
    logger = os.path.join(examples_dir, "vulnerable_logger.c")
    if os.path.exists(logger):
        with open(logger) as handle:
            cases.append(
                VictimCase(
                    "example-vulnerable-logger",
                    handle.read(),
                    "corrupt:format_entry.quota=16",
                    kind="example",
                    expect_plan=True,
                )
            )
    clean = os.path.join(examples_dir, "checksum_clean.c")
    if os.path.exists(clean):
        with open(clean) as handle:
            cases.append(
                VictimCase(
                    "example-checksum-clean",
                    handle.read(),
                    "corrupt:main.total=7",
                    kind="example",
                    expect_plan=False,  # fully PROVEN_SAFE: no chain may exist
                )
            )
    return cases


def fuzz_cases(count: int, start_seed: int = 0) -> List[VictimCase]:
    from repro.fuzz.victims import generate_victims

    return [
        VictimCase(
            f"fuzz-{spec.seed}",
            spec.source,
            "exfil:" + spec.secret.hex(),
            kind="fuzz",
            expect_plan=spec.exploitable,
        )
        for spec in generate_victims(count, start_seed)
    ]


# --------------------------------------------------------------------------
# the campaign proper
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    defenses: Tuple[str, ...] = ()
    restarts: int = DEFAULT_RESTARTS
    seed: int = DEFAULT_SEED
    jobs: int = 1
    stop_on_success: bool = True
    #: cross-check every result against the static exploitability prover
    exploit_check: bool = True

    def defense_list(self) -> List[str]:
        return list(self.defenses) if self.defenses else sorted(defense_names())


@dataclass
class SynthSummary:
    """Aggregate of one campaign, JSON-shaped for ``repro synth --json``."""

    config: SynthConfig
    results: List[VictimResult] = field(default_factory=list)

    @property
    def soundness_violations(self) -> List[str]:
        out = []
        for result in self.results:
            out.extend(f"{result.name}: {v}" for v in result.soundness)
        return out

    def per_defense(self, kind: Optional[str] = None) -> Dict[str, dict]:
        """Per-defense success-rate table, optionally for one cohort.

        ``success_rate`` is over *planned* victims: the fraction whose
        goal the attacker achieved within the restart budget.  Unplanned
        victims (no channel, or the unexploitable controls) never reach
        a defense, so they are reported separately.
        """
        table: Dict[str, dict] = {}
        for result in self.results:
            if kind is not None and result.kind != kind:
                continue
            for outcome in result.defenses:
                row = table.setdefault(
                    outcome.defense,
                    {
                        "victims": 0,
                        "wins": 0,
                        "attempts": 0,
                        "successes": 0,
                        "first_success_attempts": [],
                    },
                )
                row["victims"] += 1
                row["attempts"] += outcome.attempts
                row["successes"] += outcome.successes
                if outcome.successes:
                    row["wins"] += 1
                    row["first_success_attempts"].append(outcome.first_success)
        for row in table.values():
            row["success_rate"] = (
                row["wins"] / row["victims"] if row["victims"] else 0.0
            )
            firsts = row.pop("first_success_attempts")
            row["mean_attempts_to_success"] = (
                sum(firsts) / len(firsts) if firsts else None
            )
        return table

    def counts(self) -> Dict[str, int]:
        out = {"victims": len(self.results), "planned": 0, "no_plan": 0, "errors": 0}
        for result in self.results:
            if result.error is not None:
                out["errors"] += 1
            elif result.planned:
                out["planned"] += 1
            else:
                out["no_plan"] += 1
        return out

    def to_json(self) -> dict:
        kinds = sorted({result.kind for result in self.results})
        return {
            "restarts": self.config.restarts,
            "seed": self.config.seed,
            "defenses": self.config.defense_list(),
            "counts": self.counts(),
            "per_defense": self.per_defense(),
            "per_kind": {kind: self.per_defense(kind) for kind in kinds},
            "victims": [
                {
                    "name": result.name,
                    "kind": result.kind,
                    "planned": result.planned,
                    "error": result.error,
                    "defenses": {
                        outcome.defense: {
                            "verdict": outcome.verdict,
                            "successes": outcome.successes,
                            "attempts": outcome.attempts,
                            "breakdown": outcome.breakdown,
                            "first_success": outcome.first_success,
                        }
                        for outcome in result.defenses
                    },
                    "exploit_verdicts": result.exploit_verdicts,
                }
                for result in self.results
            ],
        }

    def format(self) -> str:
        counts = self.counts()
        lines = [
            f"synth campaign: {counts['victims']} victims "
            f"({counts['planned']} planned, {counts['no_plan']} no-plan, "
            f"{counts['errors']} errors; restarts {self.config.restarts})"
        ]
        table = self.per_defense()
        for defense in sorted(table, key=lambda d: -table[d]["success_rate"]):
            row = table[defense]
            lines.append(
                f"  {defense:<16} success rate {row['success_rate']:.3f} "
                f"({row['wins']}/{row['victims']} victims, "
                f"{row['successes']}/{row['attempts']} attempts)"
            )
        if self.soundness_violations:
            lines.append(f"SOUNDNESS VIOLATIONS: {len(self.soundness_violations)}")
            lines.extend(f"  {v}" for v in self.soundness_violations[:10])
        return "\n".join(lines)


def _emit_metrics(summary: SynthSummary) -> None:
    registry = get_registry()
    for result in summary.results:
        outcome = (
            "error"
            if result.error is not None
            else ("planned" if result.planned else "no-plan")
        )
        registry.counter("synth_plans_total", outcome=outcome).inc()
        for defense in result.defenses:
            registry.counter(
                "synth_campaigns_total",
                defense=defense.defense,
                verdict=defense.verdict,
            ).inc()
            for name, count in defense.breakdown.items():
                registry.counter(
                    "synth_attempts_total", defense=defense.defense, outcome=name
                ).inc(count)
            if defense.first_success is not None:
                registry.histogram(
                    "synth_attempts_to_success", defense=defense.defense
                ).observe(defense.first_success)
    for defense, row in summary.per_defense().items():
        registry.gauge("synth_success_rate", defense=defense).set(
            row["success_rate"]
        )


def run_synth_campaign(
    cases: Sequence[VictimCase],
    config: SynthConfig = SynthConfig(),
    check_soundness: bool = True,
) -> SynthSummary:
    """Run every case against every defense; aggregate and emit metrics."""
    defenses = config.defense_list()
    jobs = [
        {
            "case": {
                "name": case.name,
                "source": case.source,
                "goal": case.goal,
                "kind": case.kind,
                "expect_plan": case.expect_plan,
            },
            "defenses": defenses,
            "restarts": config.restarts,
            "seed": config.seed,
            "stop_on_success": config.stop_on_success,
            "exploit_check": config.exploit_check,
        }
        for case in cases
    ]
    summary = SynthSummary(config=config)
    if config.jobs > 1 and len(jobs) > 1:
        registry = get_registry()
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            for result, delta in pool.map(
                _run_victim_job_pooled, jobs, chunksize=4
            ):
                registry.merge(delta)
                summary.results.append(result)
    else:
        summary.results = [_run_victim_job(job) for job in jobs]
    for case, result in zip(cases, summary.results):
        if case.expect_plan is True and not result.planned:
            result.soundness.append(
                "expected a plan but the planner refused"
                + (f" ({result.error})" if result.error else "")
            )
        elif case.expect_plan is False and result.planned:
            result.soundness.append(
                "planner emitted a chain where ground truth says none exists"
            )
    _emit_metrics(summary)
    if check_soundness and summary.soundness_violations:
        raise SoundnessError(
            "; ".join(summary.soundness_violations[:5])
            + (
                f" (+{len(summary.soundness_violations) - 5} more)"
                if len(summary.soundness_violations) > 5
                else ""
            )
        )
    return summary


def write_bench(summary: SynthSummary, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(summary.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
