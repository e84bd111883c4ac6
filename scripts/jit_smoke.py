#!/usr/bin/env python3
"""CI gate for the IR→Python JIT.

Two checks, any failure exits nonzero:

1. **Equivalence matrix** — every benchsuite workload runs under every
   engine in :data:`repro.vm.interpreter.ENGINES` and every
   ``ExecutionResult`` field must be bit-identical to the executor
   table's; a deopt sweep runs a recursive program under every step
   limit around interesting boundaries and demands the same.
2. **Perf smoke** — warm-cache eager-jit instr/sec on the dispatch
   workload (libquantum) must be at least :data:`MIN_SPEEDUP` the
   predecoded interpreter's.  The full self-speed benchmark asserts a
   stricter 3x locally; CI runners are noisy, so the gate is looser.

The measured numbers are written as JSON (CI uploads the artifact).

Usage::

    PYTHONPATH=src python scripts/jit_smoke.py [--out jit-smoke.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.benchsuite.programs import WORKLOADS, get_workload  # noqa: E402
from repro.core.pipeline import compile_source  # noqa: E402
from repro.vm.interpreter import ENGINES, RESULT_FIELDS, Machine  # noqa: E402
from repro.vm.jit import clear_code_cache  # noqa: E402

#: Program whose call-heavy recursion makes step-limit deopts land at
#: every frame depth and block position.
DEOPT_SOURCE = """
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int main() { print_int(fib(10)); return 0; }
"""

#: warm-cache eager JIT over the predecoded interpreter, at least
MIN_SPEEDUP = 2.0


def run_one(source, name, inputs, max_steps, engine):
    kwargs = {} if max_steps is None else {"max_steps": max_steps}
    machine = Machine(
        compile_source(source, name), inputs=list(inputs), engine=engine,
        **kwargs,
    )
    return machine.run()


def diff_engines(source, name, inputs=(), max_steps=None):
    """Field-level mismatches of every engine vs the executor table."""
    results = {
        engine: run_one(source, name, inputs, max_steps, engine)
        for engine in ENGINES
    }
    mismatches = []
    for engine in ENGINES:
        for field in RESULT_FIELDS:
            a = getattr(results[engine], field)
            b = getattr(results["slow"], field)
            if a != b:
                mismatches.append(
                    f"{name} (max_steps={max_steps}) {engine} vs slow "
                    f"on {field}: {a!r} != {b!r}"
                )
    return mismatches


def check_equivalence() -> list:
    failures = []
    for name in sorted(WORKLOADS):
        workload = get_workload(name)
        failures.extend(diff_engines(workload.source, name, workload.inputs))

    full = Machine(compile_source(DEOPT_SOURCE, "deopt")).run().steps
    limits = list(range(1, 60)) + list(range(full - 5, full + 2))
    for limit in limits:
        failures.extend(
            diff_engines(DEOPT_SOURCE, "deopt", max_steps=limit)
        )
    return failures


def perf_smoke(workload_name: str) -> dict:
    workload = get_workload(workload_name)
    module = compile_source(workload.source, workload.name)

    clear_code_cache()
    warmup = Machine(module, inputs=list(workload.inputs), engine="jit-eager")
    warmup.run()  # pay compilation outside the timed run

    jit_machine = Machine(
        module, inputs=list(workload.inputs), engine="jit-eager"
    )
    start = time.perf_counter()
    jit_result = jit_machine.run()
    jit_seconds = time.perf_counter() - start

    fast_machine = Machine(module, inputs=list(workload.inputs), engine="fast")
    start = time.perf_counter()
    fast_result = fast_machine.run()
    fast_seconds = time.perf_counter() - start

    assert jit_result.steps == fast_result.steps
    return {
        "workload": workload_name,
        "steps": jit_result.steps,
        "jit_warm_seconds": jit_seconds,
        "fast_seconds": fast_seconds,
        "jit_instr_per_sec": jit_result.steps / jit_seconds,
        "fast_instr_per_sec": fast_result.steps / fast_seconds,
        "speedup": fast_seconds / jit_seconds,
    }


def run(out: str) -> int:
    failures = check_equivalence()
    for line in failures:
        print(f"FAIL equivalence: {line}")

    perf = perf_smoke("libquantum")
    print(
        f"jit {perf['jit_instr_per_sec']:,.0f} instr/s vs predecoded "
        f"{perf['fast_instr_per_sec']:,.0f} instr/s "
        f"({perf['speedup']:.2f}x, gate {MIN_SPEEDUP:.1f}x)"
    )
    if perf["speedup"] < MIN_SPEEDUP:
        failures.append(
            f"perf: jit only {perf['speedup']:.2f}x predecoded "
            f"(need {MIN_SPEEDUP:.1f}x)"
        )
        print(f"FAIL {failures[-1]}")

    report = {
        "equivalence_failures": failures,
        "perf": perf,
        "min_speedup": MIN_SPEEDUP,
    }
    Path(out).write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"report written to {out}")
    if failures:
        return 1
    print("jit smoke: OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="jit-smoke.json")
    args = parser.parse_args()
    return run(args.out)


if __name__ == "__main__":
    raise SystemExit(main())
