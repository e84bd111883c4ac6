#!/usr/bin/env python3
"""Self-speed benchmark: how fast is the reproduction's own machinery?

Measures the three hot paths the fast-path engine targets and writes
``BENCH_selfspeed.json`` so the performance trajectory is tracked across
changes:

* **interpreter** — interpreted instructions/sec under the predecoded
  dispatch, against the ``fast_dispatch=False`` executor-table path
  (identical ExecutionResult required; the script asserts it);
* **jit** — the IR→Python JIT against both interpreter paths
  (bit-identical results asserted), with the JIT's own recorded compile
  time and the amortization over 1 and 10 real runs of the same build;
* **aes** — T-table AES blocks/sec against the byte-level FIPS-197
  reference implementation;
* **restart** — per-attempt wall time of the canned CVE attacks under
  every defense, starting a fresh process per attempt against
  restarting one process in place (identical ExecutionResult asserted),
  as median and quartiles;
* **suite** — wall-clock for a Figure-3-style measurement campaign
  under the current harness (single parse per workload, the default
  JIT engine, T-table AES, optional ``--jobs``) against an emulation of
  the pre-fast-path harness (per-build re-parse, executor-table
  dispatch, byte-level AES, serial).

None of this touches the *measured* guest cycle counts, which are
deterministic and dispatch-independent.

Usage::

    PYTHONPATH=src python scripts/bench_selfspeed.py [--quick] [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.benchsuite import runner  # noqa: E402
from repro.benchsuite.programs import get_workload  # noqa: E402
from repro.core.pipeline import compile_source, harden_source  # noqa: E402
from repro.rng import aes  # noqa: E402
from repro.vm.interpreter import Machine  # noqa: E402

#: Workload exercising heavy straight-line interpretation.
DISPATCH_WORKLOAD = "bzip2"
DISPATCH_WORKLOAD_QUICK = "libquantum"

#: Suite subset: call-heavy (perlbench exercises the RNG via frequent
#: prologues) plus loop-heavy, under schemes that include real AES.
SUITE_WORKLOADS = ["perlbench", "bzip2", "sjeng", "libquantum"]
SUITE_WORKLOADS_QUICK = ["sjeng", "libquantum"]
SUITE_SCHEMES = ("pseudo", "aes-1", "aes-10")
SUITE_SCHEMES_QUICK = ("aes-10",)

#: real runs of one JIT build behind the amortization table
AMORTIZATION_RUNS = 10
AES_BLOCKS = 8192
AES_BLOCKS_QUICK = 1024
#: attack attempts per (canned victim, defense) behind the restart row
RESTART_ATTEMPTS = 8
RESTART_ATTEMPTS_QUICK = 3


def bench_interpreter(workload_name: str) -> dict:
    workload = get_workload(workload_name)
    module_fast = compile_source(workload.source, workload.name)
    module_slow = compile_source(workload.source, workload.name)

    start = time.perf_counter()
    fast = Machine(
        module_fast, inputs=list(workload.inputs), fast_dispatch=True,
        jit=False,
    ).run()
    fast_seconds = time.perf_counter() - start

    start = time.perf_counter()
    slow = Machine(
        module_slow, inputs=list(workload.inputs), fast_dispatch=False
    ).run()
    slow_seconds = time.perf_counter() - start

    for field in ("outcome", "exit_code", "steps", "cycles", "int_outputs",
                  "str_outputs", "max_rss"):
        if getattr(fast, field) != getattr(slow, field):
            raise SystemExit(
                f"dispatch mismatch on {workload_name}.{field}: "
                f"{getattr(fast, field)!r} != {getattr(slow, field)!r}"
            )
    return {
        "workload": workload_name,
        "steps": fast.steps,
        "fast_seconds": round(fast_seconds, 4),
        "slow_seconds": round(slow_seconds, 4),
        "fast_instr_per_sec": round(fast.steps / fast_seconds),
        "slow_instr_per_sec": round(slow.steps / slow_seconds),
        "speedup": round(slow_seconds / fast_seconds, 2),
    }


def bench_jit(workload_name: str) -> dict:
    """JIT vs predecoded dispatch vs executor table, plus amortization.

    The first jit run pays compilation; reruns on the same module hit
    the shared code cache.  ``compile_seconds`` is what the JIT itself
    records in its ``jit_compile_seconds`` histogram during the cold
    run.  The amortization table reports effective instr/sec over the
    first 1 and 10 real runs of the workload (cold cache at run 1),
    which is the number that matters for campaign-style callers —
    attack brute-force, fuzzing, the defense tournament — that execute
    one build many times.
    """
    from repro.obs.metrics import get_registry
    from repro.vm.jit import clear_code_cache

    workload = get_workload(workload_name)
    module = compile_source(workload.source, workload.name)

    def jit_run_seconds() -> tuple:
        machine = Machine(
            module, inputs=list(workload.inputs), jit=True
        )
        start = time.perf_counter()
        result = machine.run()
        return time.perf_counter() - start, result

    compiles = get_registry().histogram("jit_compile_seconds")
    clear_code_cache()
    compiled_before = compiles.total
    cold_seconds, jit_result = jit_run_seconds()
    compile_seconds = compiles.total - compiled_before
    warm = [jit_run_seconds() for _ in range(AMORTIZATION_RUNS - 1)]
    warm_seconds = statistics.median(seconds for seconds, _ in warm)

    fast = Machine(
        compile_source(workload.source, workload.name),
        inputs=list(workload.inputs),
        fast_dispatch=True,
        jit=False,
    )
    start = time.perf_counter()
    fast_result = fast.run()
    fast_seconds = time.perf_counter() - start

    slow = Machine(
        compile_source(workload.source, workload.name),
        inputs=list(workload.inputs),
        fast_dispatch=False,
    )
    start = time.perf_counter()
    slow_result = slow.run()
    slow_seconds = time.perf_counter() - start

    others = [(fast_result, "fast"), (slow_result, "slow")] + [
        (result, "jit-warm") for _, result in warm
    ]
    for other, label in others:
        for field in ("outcome", "exit_code", "steps", "cycles",
                      "int_outputs", "str_outputs", "max_rss"):
            if getattr(jit_result, field) != getattr(other, field):
                raise SystemExit(
                    f"jit mismatch vs {label} on {workload_name}.{field}: "
                    f"{getattr(jit_result, field)!r} != "
                    f"{getattr(other, field)!r}"
                )

    steps = jit_result.steps
    run_seconds = [cold_seconds] + [seconds for seconds, _ in warm]
    amortization = {}
    for runs in (1, AMORTIZATION_RUNS):
        total = sum(run_seconds[:runs])
        amortization[str(runs)] = {
            "total_seconds": round(total, 4),
            "instr_per_sec": round(steps * runs / total),
        }
    return {
        "workload": workload_name,
        "steps": steps,
        "jit_cold_seconds": round(cold_seconds, 4),
        "jit_warm_seconds": round(warm_seconds, 4),
        "compile_seconds": round(compile_seconds, 4),
        "jit_instr_per_sec": round(steps / warm_seconds),
        "fast_instr_per_sec": round(fast_result.steps / fast_seconds),
        "slow_instr_per_sec": round(slow_result.steps / slow_seconds),
        "speedup_vs_fast": round(fast_seconds / warm_seconds, 2),
        "speedup_vs_slow": round(slow_seconds / warm_seconds, 2),
        "amortization_runs": amortization,
    }


def _quartiles_ms(samples) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median": round(median * 1000, 3),
        "q1": round(q1 * 1000, 3),
        "q3": round(q3 * 1000, 3),
    }


def bench_restart(attempts: int) -> dict:
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
    from repro.vm.interpreter import result_fingerprint

    scenarios = [
        dop.Listing1DopAttack(),
        wireshark.WiresharkDopAttack(),
        proftpd.ProftpdDopAttack(),
        librelp.LibrelpDopAttack(),
    ]
    fresh_seconds, restart_seconds = [], []
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
                    raise SystemExit(
                        f"restart mismatch: {scenario.name} under {name}, "
                        f"attempt {attempt}: {fresh!r} != {restarted!r}"
                    )
                if attempt:
                    fresh_seconds.append(fresh_elapsed)
                    restart_seconds.append(restart_elapsed)
    fresh_ms = _quartiles_ms(fresh_seconds)
    restart_ms = _quartiles_ms(restart_seconds)
    return {
        "victims": [scenario.name for scenario in scenarios],
        "defenses": len(defense_names()),
        "timed_attempts": len(restart_seconds),
        "fresh_ms": fresh_ms,
        "restart_ms": restart_ms,
        "speedup": round(fresh_ms["median"] / restart_ms["median"], 2),
    }


def bench_aes(block_count: int) -> dict:
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

    if fast_out != reference_out:
        raise SystemExit("T-table AES disagrees with the reference implementation")
    return {
        "blocks": block_count,
        "ttable_blocks_per_sec": round(block_count / fast_seconds),
        "reference_blocks_per_sec": round(block_count / reference_seconds),
        "speedup": round(reference_seconds / fast_seconds, 2),
    }


def bench_tracing(workload_name: str) -> dict:
    """Tracing-off overhead: a machine built *without* a tracer must run
    as fast as one built before the observability layer existed.

    The design promise is stronger than "cheap": an untraced machine
    decodes exactly the closures it always did and carries no
    per-instruction tracer checks, so the delta here is pure noise.  The
    report records it so a regression (someone adding a hot-path check)
    shows up in the trajectory.
    """
    workload = get_workload(workload_name)
    module_off = compile_source(workload.source, workload.name)
    module_on = compile_source(workload.source, workload.name)

    start = time.perf_counter()
    off = Machine(
        module_off, inputs=list(workload.inputs), fast_dispatch=True,
        jit=False,
    ).run()
    off_seconds = time.perf_counter() - start

    from repro.obs.trace import Tracer

    tracer = Tracer(record_writes="none")
    start = time.perf_counter()
    on = Machine(
        module_on,
        inputs=list(workload.inputs),
        fast_dispatch=True,
        jit=False,
        tracer=tracer,
    ).run()
    on_seconds = time.perf_counter() - start

    for field in ("outcome", "exit_code", "steps", "cycles", "int_outputs",
                  "str_outputs", "max_rss"):
        if getattr(off, field) != getattr(on, field):
            raise SystemExit(
                f"tracing changed {workload_name}.{field}: "
                f"{getattr(off, field)!r} != {getattr(on, field)!r}"
            )
    return {
        "workload": workload_name,
        "steps": off.steps,
        "untraced_seconds": round(off_seconds, 4),
        "traced_seconds": round(on_seconds, 4),
        "untraced_instr_per_sec": round(off.steps / off_seconds),
        "traced_instr_per_sec": round(on.steps / on_seconds),
        #: tracing-ON cost relative to off (opcode histogram updates);
        #: tracing-OFF overhead is by construction zero — no tracer code
        #: exists on the untraced path — so "off" equals the interpreter
        #: benchmark above.
        "traced_overhead": round(on_seconds / off_seconds - 1.0, 3),
    }


def _measure_suite_legacy(names, schemes) -> None:
    """The pre-fast-path harness, faithfully re-enacted.

    Per-build re-parse (baseline and hardened each compile from source),
    executor-table dispatch, serial execution — and byte-level AES, which
    the caller arranges by patching ``AES128.encrypt`` around this call.
    """
    for name in names:
        workload = get_workload(name)
        baseline = runner.run_baseline(workload, fast_dispatch=False)
        hardened = harden_source(workload.source, None, workload.name)
        for scheme in schemes:
            run = runner.run_hardened(
                hardened, workload, scheme, fast_dispatch=False
            )
            assert run.int_outputs == baseline.int_outputs


def bench_suite(names, schemes, jobs: int) -> dict:
    start = time.perf_counter()
    results = runner.measure_suite(names, schemes=schemes, jobs=jobs)
    fast_seconds = time.perf_counter() - start

    original_encrypt = aes.AES128.encrypt
    aes.AES128.encrypt = lambda self, block: aes.encrypt_block(
        block, self._round_keys
    )
    try:
        start = time.perf_counter()
        _measure_suite_legacy(names, schemes)
        legacy_seconds = time.perf_counter() - start
    finally:
        aes.AES128.encrypt = original_encrypt

    return {
        "workloads": list(names),
        "schemes": list(schemes),
        "jobs": jobs,
        "fast_seconds": round(fast_seconds, 3),
        "legacy_seconds": round(legacy_seconds, 3),
        "speedup": round(legacy_seconds / fast_seconds, 2),
        "phase_seconds": {
            phase: round(seconds, 3)
            for phase, seconds in results.phase_seconds.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller workloads/schemes for CI smoke runs",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="process-pool width for the suite measurement (default serial)",
    )
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_selfspeed.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    dispatch_workload = (
        DISPATCH_WORKLOAD_QUICK if args.quick else DISPATCH_WORKLOAD
    )
    suite_names = SUITE_WORKLOADS_QUICK if args.quick else SUITE_WORKLOADS
    suite_schemes = SUITE_SCHEMES_QUICK if args.quick else SUITE_SCHEMES
    aes_blocks = AES_BLOCKS_QUICK if args.quick else AES_BLOCKS
    restart_attempts = (
        RESTART_ATTEMPTS_QUICK if args.quick else RESTART_ATTEMPTS
    )

    report = {
        "quick": args.quick,
        "interpreter": bench_interpreter(dispatch_workload),
        "jit": bench_jit(dispatch_workload),
        "aes": bench_aes(aes_blocks),
        "restart": bench_restart(restart_attempts),
        "tracing": bench_tracing(dispatch_workload),
        "suite": bench_suite(suite_names, suite_schemes, args.jobs),
    }

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    interp = report["interpreter"]
    aes_report = report["aes"]
    suite = report["suite"]
    print(f"interpreter: {interp['fast_instr_per_sec']:,} instr/sec "
          f"({interp['speedup']}x over executor-table dispatch)")
    jit = report["jit"]
    amort = jit["amortization_runs"]
    print(f"jit:         {jit['jit_instr_per_sec']:,} instr/sec warm "
          f"({jit['speedup_vs_fast']}x over predecoded dispatch, "
          f"{jit['speedup_vs_slow']}x over executor table); compile "
          f"{jit['compile_seconds']}s, amortized instr/sec over 1/10 "
          f"runs: {amort['1']['instr_per_sec']:,} / "
          f"{amort[str(AMORTIZATION_RUNS)]['instr_per_sec']:,}")
    print(f"aes:         {aes_report['ttable_blocks_per_sec']:,} blocks/sec "
          f"({aes_report['speedup']}x over byte-level reference)")
    restart = report["restart"]
    print(f"restart:     {restart['restart_ms']['median']} ms per restarted "
          f"attempt vs {restart['fresh_ms']['median']} ms fresh "
          f"({restart['speedup']}x, median of {restart['timed_attempts']})")
    tracing = report["tracing"]
    print(f"tracing:     untraced {tracing['untraced_instr_per_sec']:,} "
          f"instr/sec, traced (writes=none) overhead "
          f"{tracing['traced_overhead']:+.1%}")
    print(f"suite:       {suite['fast_seconds']}s vs legacy "
          f"{suite['legacy_seconds']}s ({suite['speedup']}x)")
    print(f"report:      {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
