"""Multi-oracle differential harness for generated Mini-C programs.

One program is parsed **once** and then lowered independently for each
build the oracles need (lowering never mutates the AST; hardening and
optimization mutate their module, so each gets a fresh lower).  Eight
oracles cross-check the builds:

``dispatch``
    Predecoded (fast) vs. executor-table (slow) dispatch on the same
    O0 module must produce **bit-identical** ExecutionResults — every
    field, including steps, cycles and max_rss.
``jit``
    The IR→Python JIT (:mod:`repro.vm.jit`) on the same O0 module must
    also be bit-identical to the fast-dispatch reference — every field,
    including steps, cycles and max_rss — across compiled bodies,
    per-function interpreter fallbacks, and step-limit deopts.
``opt``
    O0 vs. optimized (O2) builds must agree on every *observable* field
    (outcome, exit code, fault kind, printed output).  Step counts
    legitimately differ.
``harden``
    The Smokestack-hardened build must preserve program semantics under
    every permutation seed, and — because permutation only relocates
    frame slots, it never adds or removes work — the hardened build's
    (steps, cycles) *cycle class* must be identical across seeds.
``aes``
    The T-table AES powering the hardened build's reseed stream must
    emit the same values as the byte-level FIPS-197 reference cipher,
    including across reseed boundaries.
``reach``
    The static stack-layout model behind ``repro analyze`` must agree
    with the VM: for every buffer of the O0 module, deliberate
    overflows executed in probe frames corrupt exactly the slots (and
    cookie) the overflow-reach analysis predicts.
``safety``
    The interval bounds prover must be sound: no PROVEN_SAFE slot may
    appear in any possible-reach set under any modeled defense
    (``proven_reach_conflicts``), and executing each buffer's maximal
    feasible write in a probe frame must corrupt no PROVEN_SAFE slot
    (``crosscheck_safety``).
``exploit``
    The static exploitability prover (:mod:`repro.analysis.exploit`)
    must agree with the concrete attack planner on the undefended
    program: a PROVABLY_ROBUST goal the planner can chain, or a
    PROVABLY_EXPLOITABLE goal it cannot concretize, is a finding.

Any host Python exception escaping ``Machine.run`` is itself a finding:
the VM's contract is that guest behavior — however degenerate — lands in
an ExecutionResult.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.config import SmokestackConfig
from repro.core.pipeline import harden_module, lower_ast
from repro.errors import FrontendError, IRError, LoweringError
from repro.minic import compile_to_ast
from repro.rng.ctr import AesCtrGenerator
from repro.rng.entropy import DeterministicEntropy
from repro.vm.interpreter import (
    OBSERVABLE_FIELDS,
    RESULT_FIELDS,
    Machine,
)

#: Generous per-run ceiling: generated programs finish in well under a
#: million steps, so hitting this means "runaway", not "slow".
DEFAULT_MAX_STEPS = 20_000_000

#: Permutation seeds the harden oracle runs under.
DEFAULT_HARDEN_SEEDS: Tuple[int, ...] = (1, 2)

ALL_ORACLES: Tuple[str, ...] = (
    "dispatch",
    "jit",
    "opt",
    "harden",
    "aes",
    "reach",
    "safety",
    "exploit",
)

#: Observables plus the layout-invariant cost model: compared across
#: permutation seeds of the *same* hardened build.
CYCLE_CLASS_FIELDS: Tuple[str, ...] = OBSERVABLE_FIELDS + ("steps", "cycles")


@dataclass
class OracleFinding:
    """One divergence: which oracle fired and the field-level diff."""

    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


@dataclass
class ProgramVerdict:
    """Everything the oracles concluded about one program."""

    source: str
    findings: List[OracleFinding] = field(default_factory=list)
    #: comparisons skipped because a leg hit a resource limit (the two
    #: sides of an opt/harden comparison reach the limit at different
    #: step counts, so inequality there is expected, not a bug).
    inconclusive: List[str] = field(default_factory=list)
    #: front-end failure — generated programs must always compile, so
    #: this indicates a generator (or front-end) defect, tracked
    #: separately from semantic divergences.
    compile_error: Optional[str] = None
    #: outcome of the reference (O0, fast-dispatch) run.
    outcome: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.findings and self.compile_error is None

    def failed_oracles(self) -> List[str]:
        seen: List[str] = []
        for finding in self.findings:
            if finding.oracle not in seen:
                seen.append(finding.oracle)
        return seen


class _HostException:
    """Stand-in result when Machine.run raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.exception = exc
        self.summary = f"{type(exc).__name__}: {exc}"


def _run_machine(machine: Machine):
    try:
        return machine.run()
    except Exception as exc:  # noqa: BLE001 - escaping at all is the bug
        return _HostException(exc)


def _diff(a, b, fields: Sequence[str]) -> List[str]:
    """Field-by-field inequality report (host exceptions always differ)."""
    if isinstance(a, _HostException) or isinstance(b, _HostException):
        left = a.summary if isinstance(a, _HostException) else a.outcome
        right = b.summary if isinstance(b, _HostException) else b.outcome
        return [f"host-exception: {left!r} vs {right!r}"]
    out = []
    for name in fields:
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            out.append(f"{name}: {va!r} != {vb!r}")
    return out


def _limited(result) -> bool:
    return not isinstance(result, _HostException) and result.outcome == "limit"


def check_program(
    source: str,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    harden_seeds: Sequence[int] = DEFAULT_HARDEN_SEEDS,
    oracles: Sequence[str] = ALL_ORACLES,
    aes_seed: int = 0,
    name: str = "fuzz",
) -> ProgramVerdict:
    """Run every requested oracle over one program."""
    verdict = ProgramVerdict(source=source)
    for oracle in oracles:
        if oracle not in ALL_ORACLES:
            raise ValueError(f"unknown oracle {oracle!r}")

    # The aes oracle needs no program at all; run it first so rng bugs
    # surface even for programs that fail to compile.
    if "aes" in oracles:
        _check_aes(verdict, aes_seed)

    program_oracles = [o for o in oracles if o != "aes"]
    if not program_oracles:
        return verdict

    try:
        tree = compile_to_ast(source, name)
    except (FrontendError, LoweringError, IRError) as exc:
        verdict.compile_error = f"{type(exc).__name__}: {exc}"
        return verdict

    def build(opt_level: int = 0):
        return lower_ast(tree, name, opt_level=opt_level)

    # Reference run: O0, predecoded dispatch (``jit=False``: the default
    # engine is the tiered JIT, and the ``jit`` oracle compares the
    # eager JIT against this leg).  Shared by every program oracle.
    baseline_module = build()
    try:
        baseline_module.get_function("main")
    except IRError as exc:
        # No entry point: an input-validity problem (the reducer trims a
        # candidate down past main), not a VM divergence.
        verdict.compile_error = f"{type(exc).__name__}: {exc}"
        return verdict
    reference = _run_machine(
        Machine(baseline_module, max_steps=max_steps, jit=False)
    )
    if not isinstance(reference, _HostException):
        verdict.outcome = reference.outcome
    else:
        verdict.findings.append(
            OracleFinding("dispatch", f"host-exception: {reference.summary}")
        )

    if "dispatch" in program_oracles:
        slow = _run_machine(
            Machine(baseline_module, max_steps=max_steps, fast_dispatch=False)
        )
        for line in _diff(reference, slow, RESULT_FIELDS):
            verdict.findings.append(
                OracleFinding("dispatch", f"fast vs slow: {line}")
            )

    if "jit" in program_oracles:
        jitted = _run_machine(
            Machine(baseline_module, max_steps=max_steps, jit=True)
        )
        for line in _diff(reference, jitted, RESULT_FIELDS):
            verdict.findings.append(
                OracleFinding("jit", f"fast vs jit: {line}")
            )

    if "opt" in program_oracles:
        optimized = _run_machine(Machine(build(opt_level=2), max_steps=max_steps))
        if _limited(reference) or _limited(optimized):
            verdict.inconclusive.append(
                "opt: a leg hit the step limit; observable comparison skipped"
            )
        else:
            for line in _diff(reference, optimized, OBSERVABLE_FIELDS):
                verdict.findings.append(
                    OracleFinding("opt", f"O0 vs O2: {line}")
                )

    if "reach" in program_oracles:
        _check_reach(verdict, baseline_module)

    if "safety" in program_oracles:
        _check_safety(verdict, baseline_module)

    if "exploit" in program_oracles:
        _check_exploit(verdict, source, name)

    if "harden" in program_oracles:
        hardened = harden_module(
            build(), SmokestackConfig(scheme="pseudo")
        )
        # One process, restarted for every seed after the first: a
        # restart must give what a fresh process gives, so the seed
        # comparisons below also check restarts on generated programs.
        runs = []
        machine = None
        for seed in harden_seeds:
            options = dict(
                entropy=DeterministicEntropy(seed),
                scheme="pseudo",
                max_steps=max_steps,
            )
            if machine is None:
                machine = hardened.make_machine(**options)
            else:
                hardened.restart(machine, **options)
            runs.append((seed, _run_machine(machine)))
        first_seed, first = runs[0]
        if _limited(reference) or _limited(first):
            verdict.inconclusive.append(
                "harden: a leg hit the step limit; comparisons skipped"
            )
        else:
            for line in _diff(reference, first, OBSERVABLE_FIELDS):
                verdict.findings.append(
                    OracleFinding(
                        "harden",
                        f"baseline vs hardened(seed={first_seed}): {line}",
                    )
                )
            for seed, run in runs[1:]:
                for line in _diff(first, run, CYCLE_CLASS_FIELDS):
                    verdict.findings.append(
                        OracleFinding(
                            "harden",
                            f"hardened seed {first_seed} vs {seed}: {line}",
                        )
                    )

    return verdict


def _check_reach(verdict: ProgramVerdict, baseline_module) -> None:
    """Static overflow-reach predictions vs. executed probe overflows."""
    from repro.analysis.crosscheck import crosscheck_module

    try:
        results = crosscheck_module(baseline_module)
    except Exception as exc:  # noqa: BLE001 - escaping at all is the bug
        verdict.findings.append(
            OracleFinding(
                "reach", f"host-exception: {type(exc).__name__}: {exc}"
            )
        )
        return
    for result in results:
        if not result.ok:
            verdict.findings.append(
                OracleFinding("reach", result.describe())
            )


#: Goal budget for the exploit oracle; enough to cover both frames of a
#: typical overflow channel without turning every fuzz run into a full
#: campaign.
_EXPLOIT_ORACLE_GOALS = 6


def _check_exploit(verdict: ProgramVerdict, source: str, name: str) -> None:
    """Prover-vs-planner agreement on the undefended program.

    Under the ``none`` defense the two must never contradict each other:
    a PROVABLY_ROBUST goal the concrete planner can nonetheless chain is
    an unsound proof, and a PROVABLY_EXPLOITABLE goal the planner cannot
    concretize means the witness construction drifted from the planner
    it claims to mirror.
    """
    from repro.analysis.exploit import (
        EXPLOITABLE,
        ROBUST,
        ExploitProver,
        default_goals,
    )
    from repro.synth.facts import ProgramFacts
    from repro.synth.planner import synthesize

    try:
        facts = ProgramFacts(source, name)
        prover = ExploitProver(facts)
        for goal in default_goals(facts, limit=_EXPLOIT_ORACLE_GOALS):
            result = prover.prove(goal, "none")
            plan = synthesize(facts, goal)
            if result.verdict == ROBUST and plan is not None:
                verdict.findings.append(
                    OracleFinding(
                        "exploit",
                        f"unsound ROBUST: {goal.describe()} proven robust "
                        f"but the planner built a chain",
                    )
                )
            elif result.verdict == EXPLOITABLE and plan is None:
                verdict.findings.append(
                    OracleFinding(
                        "exploit",
                        f"phantom witness: {goal.describe()} proven "
                        f"exploitable but the planner refuses a chain",
                    )
                )
    except Exception as exc:  # noqa: BLE001 - escaping at all is the bug
        verdict.findings.append(
            OracleFinding(
                "exploit", f"host-exception: {type(exc).__name__}: {exc}"
            )
        )


def _check_safety(verdict: ProgramVerdict, baseline_module) -> None:
    """Bounds-prover soundness: PROVEN_SAFE slots must be untouchable."""
    from repro.analysis.crosscheck import crosscheck_safety
    from repro.analysis.safety import (
        analyze_module_safety,
        proven_reach_conflicts,
    )

    try:
        report = analyze_module_safety(baseline_module)
        conflicts = proven_reach_conflicts(baseline_module, report)
        probes = crosscheck_safety(baseline_module, report)
    except Exception as exc:  # noqa: BLE001 - escaping at all is the bug
        verdict.findings.append(
            OracleFinding(
                "safety", f"host-exception: {type(exc).__name__}: {exc}"
            )
        )
        return
    for conflict in conflicts:
        verdict.findings.append(
            OracleFinding("safety", f"reach-conflict: {conflict}")
        )
    for probe in probes:
        if not probe.ok:
            verdict.findings.append(
                OracleFinding("safety", probe.describe())
            )


#: Values drawn per AES comparison; the small interval forces several
#: reseeds so key-schedule regeneration is exercised too.
_AES_DRAWS = 96
_AES_RESEED_INTERVAL = 17


def _check_aes(verdict: ProgramVerdict, aes_seed: int) -> None:
    try:
        streams = {}
        for implementation in ("fast", "reference"):
            generator = AesCtrGenerator(
                DeterministicEntropy(aes_seed),
                reseed_interval=_AES_RESEED_INTERVAL,
                implementation=implementation,
            )
            streams[implementation] = (
                [generator.generate(i) for i in range(_AES_DRAWS)],
                generator.reseed_count,
            )
    except Exception as exc:  # noqa: BLE001
        verdict.findings.append(
            OracleFinding(
                "aes", f"host-exception: {type(exc).__name__}: {exc}"
            )
        )
        return
    fast_values, fast_reseeds = streams["fast"]
    ref_values, ref_reseeds = streams["reference"]
    if fast_reseeds != ref_reseeds:
        verdict.findings.append(
            OracleFinding(
                "aes", f"reseed counts differ: {fast_reseeds} != {ref_reseeds}"
            )
        )
    for index, (fast, ref) in enumerate(zip(fast_values, ref_values)):
        if fast != ref:
            verdict.findings.append(
                OracleFinding(
                    "aes",
                    f"value {index} differs: {fast:#018x} != {ref:#018x}",
                )
            )
            break
