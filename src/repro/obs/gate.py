"""One check-and-artifact harness for the CI gate and benchmark scripts.

Every script under ``scripts/`` reports the same way: it collects named
:class:`Gate` checks and repeated measurements, and :func:`run` writes
them as one JSON artifact whose top level is always

* ``environment`` — :func:`environment`: git sha, Python, CPU count,
  platform;
* ``checks`` — one ``{name, pass, detail}`` record per check, ``name``
  being the gate that made it;
* ``measurements`` — one ``{name, unit, runs, median, q1, q3}`` record
  per measured quantity (:func:`summarize` over its samples; a single
  run has ``q1 == q3 == median``);

followed by the script's own payload.  Ratios derived from measurements
belong to the payload, never to ``measurements``.  The exit code is
nonzero when any check failed.

The key names and the quartile rule match ``bench/measure.py``.  Like
:mod:`repro.obs.metrics`, this module imports nothing else from
``repro``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

REPO = Path(__file__).resolve().parents[3]

#: (name, unit, samples) — one measured quantity and its repeated runs
Measurement = Tuple[str, str, Sequence[float]]


def environment() -> Dict[str, object]:
    """Where a report was made: git sha, Python, CPU count, platform."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        )
        sha = out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and their distance as a share of the median,
    computed as ``statistics.quantiles(samples, n=4)`` does."""
    samples = list(samples)
    median = statistics.median(samples)
    if len(samples) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "runs": len(samples),
    }


class Gate:
    """One gate's checks: prints each with its mark, records it, and
    collects the failures."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks: List[dict] = []
        self.failures: List[str] = []

    def check(self, ok, line: str, *failures: str) -> None:
        """``failures`` are the reasons recorded if ``ok`` is false
        (default: ``line``); a failed check's detail lists them."""
        ok = bool(ok)
        print(f"{self.name}: {line} [{'ok' if ok else 'GATE FAILURE'}]")
        detail = line
        if not ok:
            self.failures.extend(failures or (line,))
            if failures:
                detail = f"{line}: {'; '.join(map(str, failures))}"
        self.checks.append({"name": self.name, "pass": ok, "detail": detail})

    def require(self, failures: Sequence[str], line: str) -> None:
        self.check(not failures, f"{line}: {len(failures)} failures", *failures)


def write_report(
    path, gates: Iterable[Gate], measurements: Iterable[Measurement],
    **payload,
) -> int:
    """Write the artifact (envelope first, payload keys sorted) and
    print the failures; returns the exit code."""
    gates = list(gates)
    records = []
    for name, unit, samples in measurements:
        summary = summarize(samples)
        records.append(
            {"name": name, "unit": unit}
            | {key: summary[key] for key in ("runs", "median", "q1", "q3")}
        )
    report = {
        "environment": environment(),
        "checks": [check for gate in gates for check in gate.checks],
        "measurements": records,
        **json.loads(json.dumps(payload, sort_keys=True)),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    failed = [gate for gate in gates if gate.failures]
    for gate in failed:
        print(f"{gate.name}: FAILED")
        for failure in gate.failures:
            print(f"  - {failure}")
    if failed:
        return 1
    print(f"all {len(report['checks'])} checks passed; report at {path}")
    return 0


def run(path, collect: Callable[[], tuple]) -> int:
    """Check that ``path``'s directory exists, then write what
    ``collect()`` returns — ``(gates, measurements, payload)`` — there.

    The directory is checked before ``collect`` runs, so a bad output
    path fails at once instead of after the whole measurement.
    """
    directory = Path(path).resolve().parent
    if not directory.is_dir():
        raise FileNotFoundError(f"no directory for the report: {directory}")
    if not os.access(directory, os.W_OK):
        raise PermissionError(f"report directory not writable: {directory}")
    gates, measurements, payload = collect()
    return write_report(path, gates, measurements, **payload)
