#!/usr/bin/env python3
"""Self-speed benchmark: how fast is the reproduction's own machinery?

Measures three hot paths and writes ``BENCH_selfspeed.json`` so the
performance trajectory is tracked across changes:

* **engines** — one workload on every engine: the ``slow`` executor
  table, the predecoded ``fast`` dispatch, the eager JIT cold (paying
  compilation, whose time the JIT itself records) and warm
  (:data:`JIT_WARM_RUNS` reruns on the shared code cache), and ``fast``
  with a tracer attached.  Every result must equal the ``slow`` run's
  ``result_fingerprint``, and the warm JIT's median must be at least
  :data:`MIN_JIT_SPEEDUP` times the predecoded run;
* **aes** — T-table AES blocks/sec against the byte-level FIPS-197
  reference implementation (identical ciphertexts required);
* **restart** — per-attempt wall time of the canned CVE attacks under
  every defense, starting a fresh process per attempt against
  restarting one process in place (identical results required).

None of this touches the *measured* guest cycle counts, which are
deterministic and dispatch-independent.

Usage::

    PYTHONPATH=src python scripts/bench_selfspeed.py [--quick]
        [--out BENCH_selfspeed.json]
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.benchsuite.programs import get_workload  # noqa: E402
from repro.core.pipeline import compile_source  # noqa: E402
from repro.obs.gate import Gate, run as run_report, summarize  # noqa: E402
from repro.rng import aes  # noqa: E402
from repro.vm.interpreter import Machine, result_fingerprint  # noqa: E402

#: Workload exercising heavy straight-line interpretation.
ENGINES_WORKLOAD = "bzip2"
ENGINES_WORKLOAD_QUICK = "libquantum"

#: warm eager-JIT reruns of one build behind the JIT median
JIT_WARM_RUNS = 9
#: warm eager JIT over the predecoded interpreter, at least
MIN_JIT_SPEEDUP = 2.0
AES_BLOCKS = 8192
AES_BLOCKS_QUICK = 1024
#: attack attempts per (canned victim, defense) behind the restart row
RESTART_ATTEMPTS = 8
RESTART_ATTEMPTS_QUICK = 3


def bench_engines(workload_name: str):
    """Every engine on one workload, each compared with ``slow``.

    Each leg gets its own freshly compiled module, so no leg inherits
    another's caches; the JIT's warm runs share the cold run's module,
    which is what makes them warm.  Only ``Machine.run`` is timed.
    """
    from repro.obs.metrics import get_registry
    from repro.obs.trace import Tracer
    from repro.vm.jit import clear_code_cache

    workload = get_workload(workload_name)

    def timed(engine, module=None, **options):
        machine = Machine(
            module or compile_source(workload.source, workload.name),
            inputs=list(workload.inputs),
            engine=engine,
            **options,
        )
        start = time.perf_counter()
        result = machine.run()
        return time.perf_counter() - start, result

    slow_s, slow = timed("slow")
    fast_s, fast = timed("fast")
    module = compile_source(workload.source, workload.name)
    compiles = get_registry().histogram("jit_compile_seconds")
    clear_code_cache()
    compiled_before = compiles.total
    cold_s, cold = timed("jit-eager", module)
    compile_s = compiles.total - compiled_before
    warm = [timed("jit-eager", module) for _ in range(JIT_WARM_RUNS)]
    traced_s, traced = timed("fast", tracer=Tracer(record_writes="none"))

    gate = Gate("engines")
    reference = result_fingerprint(slow)
    runs = [("fast", fast), ("jit-eager cold", cold), ("fast traced", traced)]
    runs += [(f"jit-eager warm {i}", result) for i, (_, result) in enumerate(warm)]
    gate.require(
        [
            f"{label} disagrees with slow on {workload_name}"
            for label, result in runs
            if result_fingerprint(result) != reference
        ],
        f"{len(runs)} runs of {workload_name} identical to slow",
    )
    warm_s = [seconds for seconds, _ in warm]
    warm_median = summarize(warm_s)["median"]
    speedup = fast_s / warm_median
    gate.check(
        speedup >= MIN_JIT_SPEEDUP,
        f"warm eager JIT {speedup:.2f}x predecoded on {workload_name} "
        f"(need {MIN_JIT_SPEEDUP:.1f}x)",
    )
    steps = slow.steps
    print(
        f"engines:     {workload_name} {steps:,} steps; instr/sec slow "
        f"{steps / slow_s:,.0f}, fast {steps / fast_s:,.0f}, warm jit "
        f"{steps / warm_median:,.0f}; jit compile {compile_s:.4f}s, traced "
        f"overhead {traced_s / fast_s - 1.0:+.1%}"
    )
    measurements = [
        ("engines.slow", "s", [slow_s]),
        ("engines.fast", "s", [fast_s]),
        ("engines.jit_cold", "s", [cold_s]),
        ("engines.jit_compile", "s", [compile_s]),
        ("engines.jit_warm", "s", warm_s),
        ("engines.fast_traced", "s", [traced_s]),
    ]
    payload = {
        "workload": workload_name,
        "steps": steps,
        "fast_speedup_vs_slow": round(slow_s / fast_s, 2),
        "jit_speedup_vs_fast": round(speedup, 2),
        "jit_speedup_vs_slow": round(slow_s / warm_median, 2),
        "traced_overhead": round(traced_s / fast_s - 1.0, 3),
    }
    return gate, measurements, payload


def bench_restart(attempts: int):
    """A fresh process per attack attempt vs one process restarted.

    Each canned CVE scenario attacks each defense on two builds with the
    same instance seed, so both draw the same per-start randomness.
    Attempt by attempt, one build starts a fresh ``Machine`` and the
    other restarts the machine of its previous attempt
    (:meth:`AttackScenario.start`, as the campaign harness does); the
    two results must be identical.  The first attempt is fresh on both
    sides and untimed; every later one is timed whole (input hook,
    start, run).
    """
    from repro.attacks import dop, librelp, proftpd, wireshark
    from repro.defenses.registry import defense_names, make_defense

    scenarios = [
        dop.Listing1DopAttack(),
        wireshark.WiresharkDopAttack(),
        proftpd.ProftpdDopAttack(),
        librelp.LibrelpDopAttack(),
    ]
    fresh_seconds, restart_seconds, mismatches = [], [], []
    for scenario in scenarios:
        for name in defense_names():
            fresh_build, restart_build = (
                make_defense(name).build(scenario.source) for _ in range(2)
            )
            machine = None
            for attempt in range(attempts):
                start = time.perf_counter()
                fresh = scenario.run_once(
                    fresh_build, random.Random(attempt), attempt
                )
                fresh_elapsed = time.perf_counter() - start
                start = time.perf_counter()
                machine = scenario.start(
                    restart_build, random.Random(attempt), attempt, machine
                )
                restarted = machine.run()
                restart_elapsed = time.perf_counter() - start
                if result_fingerprint(fresh) != result_fingerprint(restarted):
                    mismatches.append(
                        f"{scenario.name} under {name}, attempt {attempt}"
                    )
                if attempt:
                    fresh_seconds.append(fresh_elapsed)
                    restart_seconds.append(restart_elapsed)
    gate = Gate("restart")
    gate.require(
        mismatches,
        f"{len(scenarios)} victims x {len(defense_names())} defenses x "
        f"{attempts} attempts restarted identical to fresh",
    )
    fresh_ms = summarize(fresh_seconds)["median"] * 1000
    restart_ms = summarize(restart_seconds)["median"] * 1000
    print(
        f"restart:     {restart_ms:.3f} ms per restarted attempt vs "
        f"{fresh_ms:.3f} ms fresh (median of {len(restart_seconds)})"
    )
    measurements = [
        ("restart.fresh_attempt", "s", fresh_seconds),
        ("restart.restarted_attempt", "s", restart_seconds),
    ]
    payload = {
        "victims": [scenario.name for scenario in scenarios],
        "defenses": len(defense_names()),
        "speedup": round(fresh_ms / restart_ms, 2),
    }
    return gate, measurements, payload


def bench_aes(block_count: int):
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    blocks = [i.to_bytes(16, "little") for i in range(block_count)]
    cipher = aes.AES128(key)
    round_keys = aes.expand_key(key)

    start = time.perf_counter()
    fast_out = [cipher.encrypt(block) for block in blocks]
    fast_seconds = time.perf_counter() - start

    start = time.perf_counter()
    reference_out = [aes.encrypt_block(block, round_keys) for block in blocks]
    reference_seconds = time.perf_counter() - start

    gate = Gate("aes")
    gate.check(
        fast_out == reference_out,
        f"T-table AES equals the reference on {block_count} blocks",
    )
    print(
        f"aes:         {block_count / fast_seconds:,.0f} blocks/sec "
        f"({reference_seconds / fast_seconds:.2f}x over byte-level reference)"
    )
    measurements = [
        ("aes.ttable", "s", [fast_seconds]),
        ("aes.reference", "s", [reference_seconds]),
    ]
    payload = {
        "blocks": block_count,
        "speedup": round(reference_seconds / fast_seconds, 2),
    }
    return gate, measurements, payload


def run(quick: bool):
    rows = {
        "engines": bench_engines(
            ENGINES_WORKLOAD_QUICK if quick else ENGINES_WORKLOAD
        ),
        "aes": bench_aes(AES_BLOCKS_QUICK if quick else AES_BLOCKS),
        "restart": bench_restart(
            RESTART_ATTEMPTS_QUICK if quick else RESTART_ATTEMPTS
        ),
    }
    gates = [gate for gate, _, _ in rows.values()]
    measurements = [m for _, row, _ in rows.values() for m in row]
    payload = {name: row for name, (_, _, row) in rows.items()}
    return gates, measurements, dict(payload, quick=quick)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workload and fewer blocks/attempts for CI smoke runs",
    )
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_selfspeed.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()
    return run_report(args.out, lambda: run(args.quick))


if __name__ == "__main__":
    raise SystemExit(main())
