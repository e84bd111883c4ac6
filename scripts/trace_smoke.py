#!/usr/bin/env python3
"""CI trace smoke: forensics-trace the canned RIPE attack (the fastest),
validate the event stream against the schema, and leave the events as
the artifact's ``events``.

Exit status is nonzero when the trace is schema-invalid, the campaign
is inconsistent with the bounds prover, or no boundary-crossing write
was recorded for the undefended attack (all three would mean the
observability layer regressed).

Usage::

    PYTHONPATH=src python scripts/trace_smoke.py [--out trace-smoke.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.forensics import attack_forensics  # noqa: E402
from repro.obs.gate import Gate, run as run_report  # noqa: E402
from repro.obs.trace import validate_events  # noqa: E402

ATTACK = "ripe"


def run():
    gate = Gate("trace-smoke")
    report = attack_forensics(ATTACK, defense="none", restarts=2)
    print(report.format_text())
    print()

    tracer = report.decisive_tracer()
    gate.check(tracer is not None, "campaign produced attempts")
    # Validate the events as the artifact serializes them.
    events = json.loads(json.dumps(tracer.events if tracer else []))
    problems = validate_events(events)
    gate.check(
        not problems, f"schema: {len(events)} events, {len(problems)} invalid",
        *problems,
    )
    gate.check(
        report.first_crossing() is not None,
        "undefended attack recorded a boundary-crossing write",
    )
    gate.check(
        report.consistent(), "first crossing consistent with the bounds prover"
    )
    return [gate], [], {"attack": ATTACK, "events": events}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="trace-smoke.json")
    sys.exit(run_report(parser.parse_args().out, run))
