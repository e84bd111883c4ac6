#!/usr/bin/env python3
"""CI soundness gate for the bounds prover.

Three checks, any failure exits nonzero:

1. ``analyze --prove`` over the examples plus the whole benchsuite
   finds nothing at error severity; its per-program reports are the
   artifact's ``reports`` (CI uploads it);
2. every canned attack's corrupted buffer is verdict **UNSAFE** — the
   prover must flag all four real-world victims (librelp CVE-2018-1000140,
   wireshark CVE-2018-11360, proftpd CVE-2006-5815, RIPE), named by
   :data:`repro.obs.forensics.CANNED_ATTACKS`;
3. no PROVEN_SAFE slot appears in any possible-reach set of the attack
   or example modules (``proven_reach_conflicts``) — the static half of
   the soundness contract.

Usage::

    PYTHONPATH=src python scripts/prove_gate.py [--out prove-report.json]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import analyze_program, exit_status  # noqa: E402
from repro.analysis.safety import UNSAFE, proven_reach_conflicts  # noqa: E402
from repro.benchsuite import WORKLOADS  # noqa: E402
from repro.obs.forensics import CANNED_ATTACKS  # noqa: E402
from repro.obs.gate import Gate, run as run_report  # noqa: E402
from repro.synth.facts import ProgramFacts  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples" / "minic"


def run():
    gate = Gate("prove-gate")
    sources = [
        (str(EXAMPLES / name), (EXAMPLES / name).read_text())
        for name in ("checksum_clean.c", "vulnerable_logger.c")
    ] + [
        (f"benchsuite:{name}", workload.source)
        for name, workload in sorted(WORKLOADS.items())
    ]
    reports = [
        analyze_program(source, name, prove=True) for name, source in sources
    ]
    status = exit_status(reports, "error")
    gate.check(
        status == 0,
        f"analyze --prove on {len(reports)} programs exited {status}",
    )

    programs = {}
    for name, target in CANNED_ATTACKS.items():
        facts = programs[name] = ProgramFacts(target.scenario_class.source, name)
        verdict = facts.safety.verdict(target.victim, target.buffer)
        gate.check(
            verdict == UNSAFE,
            f"{name}: {target.victim}/{target.buffer} -> {verdict}",
            f"{name}: corrupted slot {target.victim}/{target.buffer} is "
            f"{verdict}, expected UNSAFE",
        )

    for path in sorted(EXAMPLES.glob("*.c")):
        programs[path.stem] = ProgramFacts(path.read_text(), path.stem)
    for name, facts in programs.items():
        conflicts = proven_reach_conflicts(facts)
        gate.check(
            not conflicts,
            f"{name}: {len(conflicts)} proven/reach conflicts",
            f"{name}: PROVEN_SAFE inside reach: {conflicts}",
        )
    return [gate], [], {"reports": [r.to_dict() for r in reports]}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="prove-report.json")
    sys.exit(run_report(parser.parse_args().out, run))
