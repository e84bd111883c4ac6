#!/usr/bin/env python3
"""Selective-hardening benchmark: full Smokestack vs. analysis-guided.

For every benchsuite workload this measures guest-cycle overhead (vs.
the stock-protector baseline) of

* **full** — Smokestack on every function with automatic variables, and
* **selective** — ``SmokestackConfig(selective=True)``: the interval
  bounds prover runs first and fully PROVEN_SAFE functions keep their
  original unpermuted frames.

Observables are compared by the harness itself (``measure_workload``
raises on any output difference), so a lower selective number is a real
saving, not a behavior change.  Results land in
``BENCH_selective.json``: per-workload overhead pairs, the skipped
function lists, and the mean deltas over the proven-only subset.

Usage::

    PYTHONPATH=src python scripts/bench_selective.py
        [--out BENCH_selective.json]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.benchsuite.programs import WORKLOADS  # noqa: E402
from repro.benchsuite.runner import measure_workload  # noqa: E402
from repro.core.config import SmokestackConfig  # noqa: E402
from repro.obs.gate import Gate, run as run_report  # noqa: E402
from repro.synth.facts import ProgramFacts  # noqa: E402

SCHEME = "aes-10"


def run():
    started = time.perf_counter()
    rows = {}
    for name, workload in WORKLOADS.items():
        facts = ProgramFacts(workload.source, name)
        proven = sorted(facts.safety.proven_functions())
        with_slots = [
            fn.name for fn in facts.functions()
            if facts.of(fn).descriptor.count
            or facts.of(fn).descriptor.vla_allocas
        ]
        full = measure_workload(
            name, schemes=(SCHEME,),
            config=SmokestackConfig(scheme=SCHEME),
        )
        selective = measure_workload(
            name, schemes=(SCHEME,),
            config=SmokestackConfig(scheme=SCHEME, selective=True),
        )
        row = {
            "full_overhead_pct": round(full.overhead_pct(SCHEME), 4),
            "selective_overhead_pct": round(
                selective.overhead_pct(SCHEME), 4
            ),
            "proven_functions": proven,
            "functions_with_slots": len(with_slots),
            "fully_proven": len(proven) == len(with_slots),
        }
        row["delta_pct"] = round(
            row["full_overhead_pct"] - row["selective_overhead_pct"], 4
        )
        rows[name] = row
        print(
            f"{name:<12} full={row['full_overhead_pct']:+7.3f}%  "
            f"selective={row['selective_overhead_pct']:+7.3f}%  "
            f"delta={row['delta_pct']:+7.3f}%  "
            f"proven={len(proven)}/{len(with_slots)}"
        )

    proven_rows = [r for r in rows.values() if r["fully_proven"]]
    unsafe_rows = [r for r in rows.values() if not r["fully_proven"]]

    def mean(values):
        return round(sum(values) / len(values), 4) if values else 0.0

    summary = {
        "scheme": SCHEME,
        "proven_workloads": len(proven_rows),
        "workloads": len(rows),
        "mean_full_overhead_pct_proven": mean(
            [r["full_overhead_pct"] for r in proven_rows]
        ),
        "mean_selective_overhead_pct_proven": mean(
            [r["selective_overhead_pct"] for r in proven_rows]
        ),
        "mean_delta_pct_unproven": mean(
            [r["delta_pct"] for r in unsafe_rows]
        ),
    }

    # A selective build must never cost more than the full build on a
    # fully proven workload, and must change nothing when nothing is
    # proven (identical observables are asserted by the harness).
    gate = Gate("selective")
    gate.require(
        [
            f"{name}: selective slower than full"
            for name, r in rows.items()
            if r["fully_proven"]
            and r["selective_overhead_pct"] > r["full_overhead_pct"] + 1e-9
        ],
        f"selective no slower than full on {len(proven_rows)} fully "
        "proven workloads",
    )
    measurements = [("wall", "s", [time.perf_counter() - started])]
    return [gate], measurements, {"summary": summary, "workloads": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_selective.json",
                        help="output artifact path")
    return run_report(parser.parse_args(argv).out, run)


if __name__ == "__main__":
    raise SystemExit(main())
