#!/usr/bin/env python3
"""CI security-metric gate for the attack synthesizer.

Runs one full synthesis campaign (canned CVE reproductions + checked-in
examples + a seeded fuzz-victim cohort) across every registered defense,
writes the ``BENCH_synth.json`` artifact for CI upload, and enforces the
headline claims.  Any failure exits nonzero:

1. all four canned CVE attacks re-derive from goal predicates alone and
   land on the **first** attempt against the baseline defense — no
   layout guessing may be needed when nothing is randomized;
2. over the whole cohort, smokestack's success rate is **strictly
   below** every other deployed defense except ``cleanstack`` — the
   dual stack is smokestack's designed rival and their gap on a small
   cohort is a coin-margin, so the smokestack-vs-cleanstack comparison
   is owned by ``tournament_gate.py`` (both must merely beat
   static-permute there) rather than re-gated here;
3. on the fuzz cohort the paper's ordering is strict:
   ``smokestack < static-permute < none``;
4. no soundness violations (the campaign raises if the planner and the
   bounds prover ever disagree, or an unexploitable control is "won").

Before the dynamic campaign, the static exploitability prover
(:mod:`repro.analysis.exploit`) triages the cohort: a case whose goal is
``PROVABLY_ROBUST`` on the baseline defense can never yield a dynamic
success under *any* defense, so it skips the (much slower) VM campaign
entirely.  A triaged-out case whose ground truth says a plan exists is
itself a gate failure, and the summary reports the estimated CI time
the skip saved.

Usage::

    PYTHONPATH=src python scripts/synth_gate.py [--out BENCH_synth.json]
        [--fuzz 48] [--restarts 8] [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.synth.campaign import (  # noqa: E402
    SoundnessError,
    SynthConfig,
    canned_cases,
    example_cases,
    fuzz_cases,
    run_synth_campaign,
    write_bench,
)

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples" / "minic"


def triage(cases):
    """Static pass: drop cases provably robust on the baseline defense.

    Returns ``(kept, skipped_names, violations, seconds)``.  A skipped
    case with ``expect_plan=True`` is a violation — the prover called a
    known-winnable victim robust.
    """
    from repro.analysis.exploit import ROBUST, ExploitProver
    from repro.synth.facts import ProgramFacts
    from repro.synth.goals import parse_goal

    kept, skipped, violations = [], [], []
    start = time.perf_counter()
    for case in cases:
        try:
            prover = ExploitProver(ProgramFacts(case.source, case.name))
            verdict = prover.prove(parse_goal(case.goal), "none").verdict
        except Exception as error:  # noqa: BLE001 - triage must not drop work
            print(
                f"synth-gate: triage error on {case.name} "
                f"({type(error).__name__}: {error}); keeping it dynamic"
            )
            kept.append(case)
            continue
        if verdict == ROBUST:
            if case.expect_plan:
                violations.append(
                    f"{case.name}: triage says PROVABLY_ROBUST but ground "
                    f"truth expects a plan"
                )
            skipped.append(case.name)
        else:
            kept.append(case)
    return kept, skipped, violations, time.perf_counter() - start


def run(out: str, fuzz: int, restarts: int, seed: int, jobs: int) -> int:
    failures = []
    cases = canned_cases() + example_cases(str(EXAMPLES)) + fuzz_cases(fuzz)
    kept, skipped, triage_violations, triage_seconds = triage(cases)
    failures.extend(triage_violations)
    print(
        f"synth-gate: static triage kept {len(kept)}/{len(cases)} cases "
        f"({len(skipped)} PROVABLY_ROBUST skipped) in {triage_seconds:.2f}s"
    )
    config = SynthConfig(restarts=restarts, seed=seed, jobs=jobs)
    campaign_start = time.perf_counter()
    try:
        summary = run_synth_campaign(kept, config)
    except SoundnessError as error:
        print(f"synth-gate: SOUNDNESS FAILURE: {error}")
        return 1
    campaign_seconds = time.perf_counter() - campaign_start
    saved_estimate = (
        campaign_seconds / len(kept) * len(skipped) if kept else 0.0
    )
    print(
        f"synth-gate: dynamic campaign {campaign_seconds:.2f}s over "
        f"{len(kept)} cases; triage saved an estimated "
        f"{saved_estimate:.2f}s of VM time"
    )
    write_bench(summary, out)
    _annotate_bench(
        out,
        {
            "cases_total": len(cases),
            "cases_kept": len(kept),
            "skipped_robust": skipped,
            "triage_seconds": round(triage_seconds, 3),
            "campaign_seconds": round(campaign_seconds, 3),
            "estimated_seconds_saved": round(saved_estimate, 3),
        },
    )
    print(summary.format())

    # 1. every canned CVE re-derives first-try on the baseline defense
    for result in summary.results:
        if result.kind != "canned":
            continue
        baseline = next(
            (o for o in result.defenses if o.defense == "none"), None
        )
        ok = baseline is not None and baseline.first_success == 1
        marker = "ok" if ok else "GATE FAILURE"
        shown = None if baseline is None else baseline.first_success
        print(f"synth-gate: {result.name}: baseline first_success={shown} [{marker}]")
        if not ok:
            failures.append(
                f"{result.name}: expected first-attempt baseline success, "
                f"got {None if baseline is None else baseline.breakdown}"
            )

    # 2. smokestack strictly below every non-dual-stack rival.  The
    # cleanstack comparison is deliberately left to tournament_gate.py:
    # on the unclean-gate victim mix the two defenses' rates are close
    # by design, and a strict inequality here would make CI a coin flip.
    overall = summary.per_defense()
    smokestack = overall["smokestack"]["success_rate"]
    for defense, row in sorted(overall.items()):
        if defense in ("smokestack", "cleanstack"):
            continue
        ok = smokestack < row["success_rate"]
        marker = "ok" if ok else "GATE FAILURE"
        print(
            f"synth-gate: smokestack {smokestack:.3f} < "
            f"{defense} {row['success_rate']:.3f} [{marker}]"
        )
        if not ok:
            failures.append(
                f"smokestack rate {smokestack:.3f} not strictly below "
                f"{defense} ({row['success_rate']:.3f})"
            )

    # 3. strict ordering on the fuzz cohort
    fuzz_table = summary.per_defense("fuzz")
    ordering = [
        fuzz_table[d]["success_rate"]
        for d in ("smokestack", "static-permute", "none")
    ]
    ok = ordering[0] < ordering[1] < ordering[2]
    marker = "ok" if ok else "GATE FAILURE"
    print(
        "synth-gate: fuzz ordering smokestack {0:.3f} < "
        "static-permute {1:.3f} < none {2:.3f} [{3}]".format(*ordering, marker)
    )
    if not ok:
        failures.append(
            "fuzz cohort ordering not strict: "
            + ", ".join(f"{v:.3f}" for v in ordering)
        )

    if failures:
        print("synth-gate: FAILED")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"synth-gate: all checks passed; artifact at {out}")
    return 0


def _annotate_bench(path: str, triage_info: dict) -> None:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["triage"] = triage_info
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_synth.json")
    parser.add_argument("--fuzz", type=int, default=48)
    parser.add_argument("--restarts", type=int, default=8)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args()
    sys.exit(run(args.out, args.fuzz, args.restarts, args.seed, args.jobs))
