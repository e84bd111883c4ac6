#!/usr/bin/env python3
"""CI gate for the defense tournament: every registered defense, one table.

Four instruments, one artifact (``BENCH_tournament.json``):

1. **synthesized campaign** — the canned CVE reproductions plus a seeded
   fuzz-victim cohort, attacked under *every* registered defense (the
   prior schemes, the new dual-stack family, smokestack), reported as
   per-defense success rates and the full canned x defense matrix;
2. **crosscheck probes** — the dual-stack layout families
   (``cleanstack``/``shadowstack``) proven byte-exact against the VM on
   the checked-in examples and a slice of the campaign corpus;
3. **benchsuite overhead** — every defense builds and runs a
   representative workload subset; cycle overhead vs the unhardened
   build is the tournament's cost axis;
4. **defense assignment** — the prover-driven ladder
   (:mod:`repro.analysis.assign`) run over the benchsuite: the gate
   demands at least one workload where every function is assigned a
   cheaper-than-smokestack defense with all goals PROVABLY_ROBUST.

Gates (exit 1 on any):

* smokestack **and** cleanstack strictly below static-permute on
  synthesized success rate (the dual stack must beat every
  per-process-fixed scheme on this corpus; smokestack must too);
* zero crosscheck mismatches on the new layout families;
* zero campaign soundness violations (prover vs VM, both directions);
* the assignment demo above.

Usage::

    PYTHONPATH=src python scripts/tournament_gate.py
        [--out BENCH_tournament.json] [--fuzz 24] [--restarts 6]
        [--jobs 2] [--seed 11]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.assign import (  # noqa: E402
    assign_defenses,
    assignment_summary,
)
from repro.analysis.crosscheck import crosscheck_dualstack  # noqa: E402
from repro.core.pipeline import compile_source  # noqa: E402
from repro.defenses import defense_names, make_defense  # noqa: E402
from repro.synth.campaign import (  # noqa: E402
    SoundnessError,
    SynthConfig,
    canned_cases,
    fuzz_cases,
    run_synth_campaign,
)
from repro.synth.facts import ProgramFacts  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples" / "minic"

#: Benchsuite subset for the overhead axis: two SPEC-analogues spanning
#: the cycle range plus both I/O apps (the paper's deployment targets).
OVERHEAD_WORKLOADS = ("bzip2", "mcf", "proftpd", "wireshark")
BENCH_MAX_STEPS = 30_000_000

#: How many corpus programs (beyond the examples) get dual-stack
#: crosscheck probes.  Probing is per-function x per-offset; a slice
#: keeps the gate fast while still covering generated layouts.
CROSSCHECK_CORPUS_SLICE = 6


def campaign_phase(cases, restarts, seed, jobs):
    """All registered defenses over the corpus; returns (summary, secs)."""
    config = SynthConfig(
        defenses=tuple(sorted(defense_names())),
        restarts=restarts,
        seed=seed,
        jobs=jobs,
    )
    start = time.perf_counter()
    summary = run_synth_campaign(cases, config)
    return summary, time.perf_counter() - start


def canned_matrix(summary):
    """victim -> defense -> {successes, attempts, verdict}."""
    matrix = {}
    for result in summary.results:
        if result.kind != "canned":
            continue
        matrix[result.name] = {
            outcome.defense: {
                "successes": outcome.successes,
                "attempts": outcome.attempts,
                "verdict": outcome.verdict,
            }
            for outcome in result.defenses
        }
    return matrix


def crosscheck_phase(cases):
    """Dual-stack byte-exactness probes; returns (report, failures)."""
    sources = []
    for path in sorted(EXAMPLES.glob("*.c")) if EXAMPLES.exists() else []:
        sources.append((f"example:{path.stem}", path.read_text()))
    for case in cases[:CROSSCHECK_CORPUS_SLICE]:
        sources.append((f"corpus:{case.name}", case.source))

    report = {"programs": {}, "probes": 0, "mismatches": 0}
    failures = []
    for name, source in sources:
        module = compile_source(source, name.replace(":", "_"))
        results = crosscheck_dualstack(module)
        bad = [r for r in results if not r.ok]
        report["programs"][name] = {
            "probes": len(results),
            "mismatches": len(bad),
        }
        report["probes"] += len(results)
        report["mismatches"] += len(bad)
        for r in bad[:3]:
            failures.append(
                f"crosscheck {name}/{r.function}/{r.buffer}@{r.length}: "
                f"predicted {sorted(r.predicted)} observed "
                f"{sorted(r.observed)} layout_match={r.layout_match}"
            )
    return report, failures


def overhead_phase(defenses):
    """Cycle overhead per defense over the workload subset."""
    from repro.benchsuite.programs import WORKLOADS

    table = {}
    baselines = {}
    for wname in OVERHEAD_WORKLOADS:
        workload = WORKLOADS[wname]
        build = make_defense("none").build(workload.source)
        machine = build.make_machine(
            inputs=list(workload.inputs), max_steps=BENCH_MAX_STEPS
        )
        result = machine.run()
        if not result.finished_cleanly():
            raise RuntimeError(
                f"baseline {wname} did not finish: {result.outcome}"
            )
        baselines[wname] = result.cycles
    for defense in defenses:
        row = {}
        for wname in OVERHEAD_WORKLOADS:
            workload = WORKLOADS[wname]
            build = make_defense(defense).build(workload.source)
            machine = build.make_machine(
                inputs=list(workload.inputs), max_steps=BENCH_MAX_STEPS
            )
            result = machine.run()
            if not result.finished_cleanly():
                raise RuntimeError(
                    f"{defense}/{wname} did not finish: {result.outcome}"
                )
            row[wname] = round(result.cycles / baselines[wname] - 1.0, 5)
        row["mean"] = round(
            sum(row[w] for w in OVERHEAD_WORKLOADS) / len(OVERHEAD_WORKLOADS),
            5,
        )
        table[defense] = row
    return table


def assignment_phase():
    """Prover-driven defense assignment over the benchsuite."""
    from repro.benchsuite.programs import WORKLOADS

    per_workload = {}
    demo = []
    for wname, workload in WORKLOADS.items():
        facts = ProgramFacts(workload.source, wname)
        assignments = assign_defenses(facts, samples=8, seed=0)
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


def run(out, fuzz, restarts, seed, jobs):
    failures = []
    cases = canned_cases() + fuzz_cases(fuzz)
    defenses = sorted(defense_names())
    print(
        f"tournament: corpus of {len(cases)} victims x "
        f"{len(defenses)} defenses ({', '.join(defenses)})"
    )

    try:
        summary, campaign_seconds = campaign_phase(cases, restarts, seed, jobs)
    except SoundnessError as error:
        print(f"tournament: SOUNDNESS FAILURE: {error}")
        return 1
    rates = summary.per_defense()
    print(f"tournament: campaign {campaign_seconds:.1f}s")
    for defense in sorted(rates, key=lambda d: rates[d]["success_rate"]):
        print(
            f"  {defense:<15} success rate "
            f"{rates[defense]['success_rate']:.3f} "
            f"({rates[defense]['wins']}/{rates[defense]['victims']})"
        )

    # gate: smokestack AND cleanstack strictly below static-permute
    anchor = rates.get("static-permute", {}).get("success_rate")
    for challenger in ("smokestack", "cleanstack"):
        rate = rates.get(challenger, {}).get("success_rate")
        if anchor is None or rate is None:
            failures.append(f"missing success rate for {challenger}/anchor")
        elif not rate < anchor:
            failures.append(
                f"{challenger} rate {rate:.3f} not strictly below "
                f"static-permute {anchor:.3f}"
            )

    if summary.soundness_violations:
        failures.extend(summary.soundness_violations)

    crosscheck_report, crosscheck_failures = crosscheck_phase(cases)
    failures.extend(crosscheck_failures)
    print(
        f"tournament: dual-stack crosscheck {crosscheck_report['probes']} "
        f"probes, {crosscheck_report['mismatches']} mismatches"
    )

    overhead = overhead_phase(defenses)
    print("tournament: benchsuite cycle overhead vs 'none' (mean):")
    for defense in defenses:
        print(f"  {defense:<15} {overhead[defense]['mean'] * 100:+.2f}%")

    assignment, demo = assignment_phase()
    print(
        f"tournament: assignment demo on {len(demo)} benchsuite "
        f"workload(s): {', '.join(demo) or 'NONE'}"
    )
    if not demo:
        failures.append(
            "no benchsuite workload assigned entirely cheaper-than-"
            "smokestack defenses with all goals PROVABLY_ROBUST"
        )

    payload = {
        "corpus": {
            "victims": len(cases),
            "canned": sum(1 for c in cases if c.kind == "canned"),
            "fuzz": sum(1 for c in cases if c.kind == "fuzz"),
            "restarts": restarts,
            "seed": seed,
        },
        "defenses": defenses,
        "campaign": {
            "seconds": round(campaign_seconds, 3),
            "per_defense": rates,
            "canned_matrix": canned_matrix(summary),
        },
        "crosscheck": crosscheck_report,
        "overhead": overhead,
        "assignment": {
            "per_workload": assignment,
            "demo_workloads": demo,
        },
        "failures": failures,
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if failures:
        print("tournament: FAILED")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"tournament: all gates passed; artifact at {out}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_tournament.json")
    parser.add_argument("--fuzz", type=int, default=24)
    parser.add_argument("--restarts", type=int, default=6)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    sys.exit(run(args.out, args.fuzz, args.restarts, args.seed, args.jobs))
