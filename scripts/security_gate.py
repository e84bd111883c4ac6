#!/usr/bin/env python3
"""CI security gate: one static proof matrix and one attack campaign.

Builds one corpus (the four canned CVE reproductions, the checked-in
examples and a seeded fuzz-victim cohort), proves every (victim,
defense) pair once with the static exploitability prover, runs one
synthesized attack campaign against every registered defense, and then
evaluates three gates on views of that one result.  Writes the
``BENCH_security.json`` summary; any gate failure exits nonzero.

**synth** — the victims not ``PROVABLY_ROBUST`` on ``none``:

1. no triaged-out victim is one the ground truth says has a plan;
2. all four canned CVE attacks re-derive from goal predicates alone and
   land on the **first** attempt against ``none``;
3. smokestack's success rate is strictly below every other defense's
   except ``cleanstack`` — the dual stack is smokestack's designed
   rival, and their comparison belongs to the tournament gate;
4. on the fuzz cohort the paper's ordering is strict:
   ``smokestack < static-permute < none``;
5. zero campaign soundness violations.

**exploit** — the whole corpus:

1. the canned CVEs are ``PROVABLY_EXPLOITABLE`` on ``none`` and
   ``UNKNOWN`` under smokestack;
2. every unexploitable control is ``PROVABLY_ROBUST`` under every
   defense;
3. zero campaign soundness violations, and the static matrix agrees
   with the campaign's own exploit verdicts on every pair;
4. the static verdict is at least 10x cheaper per (victim, defense)
   pair than the dynamic campaign.

**tournament** — the canned CVEs plus ``fuzz-0``..``fuzz-23``, each
defense's campaign cut to its first 6 attempts:

1. smokestack **and** cleanstack strictly below static-permute;
2. zero soundness violations, with the prover-vs-VM rule re-applied to
   the 6-attempt outcomes;
3. zero dual-stack crosscheck mismatches on the examples, the canned
   CVEs, ``fuzz-0`` and ``fuzz-1``;
4. at least one benchsuite workload where the prover-driven assignment
   picks only cheaper-than-smokestack defenses, all goals
   ``PROVABLY_ROBUST``.

The benchsuite cycle overhead of each defense is recorded alongside.
The cut to 6 attempts is exact: attempt *i*'s RNG seed and the deployed
build do not depend on the restart budget.

Usage::

    PYTHONPATH=src python scripts/security_gate.py
        [--out BENCH_security.json] [--jobs 2]
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.assign import (  # noqa: E402
    assign_defenses,
    assignment_summary,
)
from repro.analysis.crosscheck import crosscheck_dualstack  # noqa: E402
from repro.analysis.exploit import (  # noqa: E402
    EXPLOITABLE,
    ROBUST,
    UNDECIDED,
    ExploitProver,
)
from repro.defenses.registry import DEFENSE_ORDER, make_defense  # noqa: E402
from repro.obs.gate import Gate, run as run_report  # noqa: E402
from repro.synth.campaign import (  # noqa: E402
    SynthConfig,
    SynthSummary,
    canned_cases,
    check_exploit_soundness,
    example_cases,
    fuzz_cases,
    run_synth_campaign,
)
from repro.synth.facts import ProgramFacts  # noqa: E402
from repro.synth.goals import parse_goal  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples" / "minic"

FUZZ_VICTIMS = 48
RESTARTS = 8
SEED = 11
#: the tournament view: canned + the first 24 fuzz victims, 6 attempts
TOURNAMENT_FUZZ_VICTIMS = 24
TOURNAMENT_RESTARTS = 6
#: static verdicts must be this much cheaper per pair than the campaign
TRIAGE_SPEEDUP = 10.0
#: corpus victims (beyond the examples) given dual-stack crosscheck
#: probes; probing is per-function x per-offset, so a few suffice
CROSSCHECK_CASES = (
    "canned-listing1",
    "canned-wireshark",
    "canned-proftpd",
    "canned-librelp",
    "fuzz-0",
    "fuzz-1",
)
#: benchsuite subset for the overhead axis: two SPEC-analogues spanning
#: the cycle range plus both I/O apps (the paper's deployment targets)
OVERHEAD_WORKLOADS = ("bzip2", "mcf", "proftpd", "wireshark")
BENCH_MAX_STEPS = 30_000_000


def corpus_summary(cases) -> dict:
    digest = hashlib.sha256()
    for case in cases:
        digest.update(f"{case.name}\0{case.goal}\0{case.source}\0".encode())
    counts = {
        kind: sum(1 for c in cases if c.kind == kind)
        for kind in ("canned", "example", "fuzz")
    }
    return {
        "victims": len(cases),
        **counts,
        "controls": sum(1 for c in cases if c.expect_plan is False),
        "sha256": digest.hexdigest(),
    }


def prove_matrix(cases):
    """Prove every (case, defense) pair; returns (verdicts, seconds).

    The timing includes fact construction: that is the real cost of
    asking the prover cold, and the triage-speedup claim is made
    against it.
    """
    verdicts = {}
    start = time.perf_counter()
    for case in cases:
        prover = ExploitProver(ProgramFacts(case.source, case.name))
        goal = parse_goal(case.goal)
        verdicts[case.name] = {
            defense: prover.prove(goal, defense).verdict
            for defense in DEFENSE_ORDER
        }
    return verdicts, time.perf_counter() - start


def distribution(verdicts) -> dict:
    """Per-defense verdict histogram over the whole corpus."""
    return {
        defense: {
            verdict: sum(1 for row in verdicts.values() if row[defense] == verdict)
            for verdict in (EXPLOITABLE, ROBUST, UNDECIDED)
        }
        for defense in DEFENSE_ORDER
    }


def view(summary, names, attempts=None) -> SynthSummary:
    """The campaign restricted to ``names``, optionally cut to a budget."""
    results = [r for r in summary.results if r.name in names]
    if attempts is None:
        return SynthSummary(summary.config, results)
    return SynthSummary(
        replace(summary.config, restarts=attempts),
        [
            replace(r, defenses=[o.truncated(attempts) for o in r.defenses])
            for r in results
        ],
    )


def synth_gate(cases, matrix, summary):
    gate = Gate("synth")
    skipped = [c for c in cases if matrix[c.name]["none"] == ROBUST]
    gate.require(
        [
            f"{c.name}: triage says {ROBUST} but ground truth expects a plan"
            for c in skipped
            if c.expect_plan
        ],
        f"static triage skips {len(skipped)}/{len(cases)} victims",
    )
    kept = view(summary, {c.name for c in cases if c not in skipped})
    first = {}
    for result in kept.results:
        if result.kind != "canned":
            continue
        baseline = next((o for o in result.defenses if o.defense == "none"), None)
        first[result.name] = None if baseline is None else baseline.first_success
        gate.check(
            first[result.name] == 1,
            f"{result.name}: baseline first_success={first[result.name]}",
            f"{result.name}: expected first-attempt baseline success, got "
            f"{None if baseline is None else baseline.breakdown}",
        )
    overall = kept.per_defense()
    smokestack = overall["smokestack"]["success_rate"]
    for defense, row in sorted(overall.items()):
        if defense not in ("smokestack", "cleanstack"):
            gate.check(
                smokestack < row["success_rate"],
                f"smokestack {smokestack:.3f} < {defense} "
                f"{row['success_rate']:.3f}",
            )
    fuzz = kept.per_defense("fuzz")
    rates = [fuzz[d]["success_rate"] for d in ("smokestack", "static-permute", "none")]
    gate.check(
        rates[0] < rates[1] < rates[2],
        "fuzz ordering smokestack {0:.3f} < static-permute {1:.3f} < "
        "none {2:.3f}".format(*rates),
    )
    gate.require(kept.soundness_violations, "campaign soundness")
    bench = kept.to_json()
    return gate, {
        "victims": len(kept.results),
        "skipped_robust": [c.name for c in skipped],
        "per_defense": bench["per_defense"],
        "per_kind": bench["per_kind"],
        "canned_first_success": first,
    }


def exploit_gate(cases, matrix, summary, pairs, static_s, dynamic_s):
    gate = Gate("exploit")
    for case in cases:
        if case.kind != "canned":
            continue
        row = matrix[case.name]
        gate.check(
            row["none"] == EXPLOITABLE and row["smokestack"] == UNDECIDED,
            f"{case.name}: {row['none']} on none, {row['smokestack']} "
            f"under smokestack",
        )
    controls = [c for c in cases if c.expect_plan is False]
    gate.require(
        [
            f"{c.name}: control not {ROBUST}: "
            f"{ {d: v for d, v in matrix[c.name].items() if v != ROBUST} }"
            for c in controls
            if set(matrix[c.name].values()) != {ROBUST}
        ],
        f"{len(controls)} unexploitable controls {ROBUST} everywhere",
    )
    disagreements = [
        f"{r.name}/{defense}: static {matrix[r.name][defense]}, "
        f"in-campaign {verdict}"
        for r in summary.results
        for defense, verdict in r.exploit_verdicts.items()
        if matrix[r.name][defense] != verdict
    ]
    compared = sum(len(r.exploit_verdicts) for r in summary.results)
    gate.require(
        disagreements, f"static matrix vs campaign verdicts on {compared} pairs"
    )
    gate.require(summary.soundness_violations, "campaign soundness")
    speedup = dynamic_s / static_s if static_s else 0.0
    gate.check(
        speedup >= TRIAGE_SPEEDUP,
        f"static {static_s / pairs * 1000:.2f} ms/pair vs dynamic "
        f"{dynamic_s / pairs * 1000:.2f} ms/pair: {speedup:.1f}x",
        f"static triage only {speedup:.1f}x faster "
        f"(need >= {TRIAGE_SPEEDUP:g}x)",
    )
    rates = summary.per_defense()
    print("exploit: verdict distribution vs dynamic success rate:")
    table = distribution(matrix)
    for defense in DEFENSE_ORDER:
        counts = table[defense]
        rate = rates.get(defense, {}).get("success_rate")
        shown = "n/a" if rate is None else f"{rate:.3f}"
        print(
            f"  {defense:<15} exploitable={counts[EXPLOITABLE]:>3} "
            f"unknown={counts[UNDECIDED]:>3} robust={counts[ROBUST]:>3} "
            f"| dynamic {shown}"
        )
    return gate, {"per_defense": rates}, round(speedup, 2)


def tournament_gate(cases, matrix, summary):
    gate = Gate("tournament")
    by_name = {case.name: case for case in cases}
    names = {c.name for c in canned_cases()} | {
        f"fuzz-{i}" for i in range(TOURNAMENT_FUZZ_VICTIMS)
    }
    cut = view(summary, names, TOURNAMENT_RESTARTS)
    rates = cut.per_defense()
    anchor = rates["static-permute"]["success_rate"]
    for challenger in ("smokestack", "cleanstack"):
        rate = rates[challenger]["success_rate"]
        gate.check(
            rate < anchor,
            f"{challenger} {rate:.3f} < static-permute {anchor:.3f} "
            f"at {TOURNAMENT_RESTARTS} restarts",
        )
    soundness = list(cut.soundness_violations)
    for result in cut.results:
        soundness.extend(
            f"{result.name}: {violation}"
            for violation in check_exploit_soundness(
                matrix[result.name],
                result.defenses,
                by_name[result.name].expect_plan,
            )
        )
    gate.require(list(dict.fromkeys(soundness)), "campaign soundness")

    crosscheck, mismatches = crosscheck_phase(by_name)
    gate.require(
        mismatches, f"dual-stack crosscheck {crosscheck['probes']} probes"
    )
    overhead = overhead_phase(summary.config.defense_list())
    print("tournament: benchsuite cycle overhead vs 'none' (mean):")
    for defense in sorted(overhead):
        print(f"  {defense:<15} {overhead[defense]['mean'] * 100:+.2f}%")
    assignment, demo = assignment_phase()
    gate.check(
        bool(demo),
        f"assignment demo on {len(demo)} benchsuite workload(s): "
        f"{', '.join(demo) or 'NONE'}",
        "no benchsuite workload assigned entirely cheaper-than-smokestack "
        f"defenses with all goals {ROBUST}",
    )
    canned = {
        result.name: {
            o.defense: {
                "successes": o.successes,
                "attempts": o.attempts,
                "verdict": o.verdict,
            }
            for o in result.defenses
        }
        for result in cut.results
        if result.kind == "canned"
    }
    return gate, {
        "victims": len(cut.results),
        "restarts": TOURNAMENT_RESTARTS,
        "per_defense": rates,
        "canned_matrix": canned,
        "crosscheck": crosscheck,
        "overhead": overhead,
        "assignment": {"per_workload": assignment, "demo_workloads": demo},
    }


def crosscheck_phase(by_name):
    """Dual-stack byte-exactness probes; returns (report, failures)."""
    sources = [
        (f"example:{path.stem}", path.read_text())
        for path in sorted(EXAMPLES.glob("*.c"))
    ] + [(f"corpus:{name}", by_name[name].source) for name in CROSSCHECK_CASES]
    report = {"programs": {}, "probes": 0, "mismatches": 0}
    failures = []
    for name, source in sources:
        results = crosscheck_dualstack(
            ProgramFacts(source, name.replace(":", "_"))
        )
        bad = [r for r in results if not r.ok]
        report["programs"][name] = {"probes": len(results), "mismatches": len(bad)}
        report["probes"] += len(results)
        report["mismatches"] += len(bad)
        failures.extend(
            f"crosscheck {name}/{r.function}/{r.buffer}@{r.length}: "
            f"predicted {sorted(r.predicted)} observed {sorted(r.observed)} "
            f"layout_match={r.layout_match}"
            for r in bad[:3]
        )
    return report, failures


def overhead_phase(defenses):
    """Cycle overhead of each defense vs ``none`` over the workload subset."""
    from repro.benchsuite.programs import WORKLOADS

    def cycles(defense, wname):
        workload = WORKLOADS[wname]
        result = (
            make_defense(defense)
            .build(workload.source)
            .make_machine(inputs=list(workload.inputs), max_steps=BENCH_MAX_STEPS)
            .run()
        )
        if not result.finished_cleanly():
            raise RuntimeError(f"{defense}/{wname} did not finish: {result.outcome}")
        return result.cycles

    baselines = {wname: cycles("none", wname) for wname in OVERHEAD_WORKLOADS}
    table = {}
    for defense in defenses:
        row = {
            wname: round(cycles(defense, wname) / baselines[wname] - 1.0, 5)
            for wname in OVERHEAD_WORKLOADS
        }
        row["mean"] = round(sum(row.values()) / len(OVERHEAD_WORKLOADS), 5)
        table[defense] = row
    return table


def assignment_phase():
    """Prover-driven defense assignment over the benchsuite."""
    from repro.benchsuite.programs import WORKLOADS

    per_workload = {}
    demo = []
    for wname, workload in WORKLOADS.items():
        assignments = assign_defenses(
            ProgramFacts(workload.source, wname), samples=8, seed=0
        )
        summary = assignment_summary(assignments)
        per_workload[wname] = summary
        goal_bearing = [a for a in assignments if a.verdicts]
        if (
            summary["cheaper_than_smokestack"]
            and goal_bearing
            and all(a.proven for a in goal_bearing)
        ):
            demo.append(wname)
    return per_workload, demo


def run(jobs: int):
    cases = (
        canned_cases() + example_cases(str(EXAMPLES)) + fuzz_cases(FUZZ_VICTIMS)
    )
    pairs = len(cases) * len(DEFENSE_ORDER)
    print(f"security-gate: {len(cases)} victims x {len(DEFENSE_ORDER)} defenses")

    matrix, static_s = prove_matrix(cases)
    print(f"security-gate: static proof matrix {static_s:.2f}s")
    start = time.perf_counter()
    summary = run_synth_campaign(
        cases,
        SynthConfig(restarts=RESTARTS, seed=SEED, jobs=jobs),
        check_soundness=False,
    )
    dynamic_s = time.perf_counter() - start
    print(f"security-gate: dynamic campaign {dynamic_s:.2f}s")
    print(summary.format())

    synth, synth_view = synth_gate(cases, matrix, summary)
    exploit, exploit_view, speedup = exploit_gate(
        cases, matrix, summary, pairs, static_s, dynamic_s
    )
    tournament, tournament_view = tournament_gate(cases, matrix, summary)

    measurements = [
        ("static_proof_matrix", "s", [static_s]),
        ("dynamic_campaign", "s", [dynamic_s]),
    ]
    payload = {
        "corpus": corpus_summary(cases),
        "restarts": RESTARTS,
        "seed": SEED,
        "defenses": summary.config.defense_list(),
        "static": {
            "ms_per_pair": round(static_s / pairs * 1000, 3),
            "distribution": distribution(matrix),
            "verdicts": matrix,
        },
        "dynamic": {"ms_per_pair": round(dynamic_s / pairs * 1000, 3)},
        "triage_speedup": speedup,
        "views": {
            "synth": synth_view,
            "exploit": exploit_view,
            "tournament": tournament_view,
        },
    }
    return (synth, exploit, tournament), measurements, payload


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_security.json")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    sys.exit(run_report(args.out, lambda: run(args.jobs)))
