"""Measurement harness for the Figure 3 / Figure 4 experiments.

For each workload the harness builds

* the **baseline**: plain compilation, default stack protector on — the
  paper's baseline is Clang -O2 with its default stack smashing
  protection, and
* the **hardened** build: Smokestack instrumentation, stack protector
  replaced by the function-identifier checks (as in §V-A),

then executes both on the deterministic VM, the hardened build once per
randomness scheme.  Overhead is the cycle-count ratio; memory overhead is
the max-RSS ratio (the P-BOX lands in rodata and is part of the image).
Outputs are also compared: a hardened binary must behave identically.

Guests run on the machine's default engine, the tiered IR→Python JIT;
``engine=`` takes any name in :data:`repro.vm.interpreter.ENGINES`.
Every engine gives bit-identical cycles, steps, max RSS and outputs, so
the engine changes only how long the harness takes, never what it
measures.

Harness performance (not to be confused with the *measured* cycle
counts, which are deterministic and unaffected):

* each workload's source is parsed **once**; the same AST is lowered
  twice — the baseline build and the build handed to the hardening
  passes (which mutate their module in place);
* ``measure_suite(jobs=N)`` fans independent workloads out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  The default stays
  serial: results are deterministic either way (each workload is
  self-contained), but serial keeps the harness dependency-free for
  debugging and profiling;
* every measurement times its phases (compile / harden / execute)
  into the ``benchsuite_phase_seconds{phase=...}`` histograms of the
  metrics registry; pool workers ship theirs home, so a suite's totals
  are the same at any ``jobs``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

from repro.core.config import SmokestackConfig
from repro.core.pipeline import (
    HardenedProgram,
    compile_source,
    harden_module,
    harden_source,
    lower_ast,
)
from repro.errors import BenchmarkError
from repro.minic import compile_to_ast
from repro.obs.metrics import get_registry
from repro.rng.entropy import DeterministicEntropy
from repro.rng.sources import SCHEME_NAMES, make_source
from repro.benchsuite.programs import WORKLOADS, Workload, get_workload
from repro.vm.interpreter import Machine

BENCH_MAX_STEPS = 30_000_000


class RunMeasurement(NamedTuple):
    """One execution's numbers."""

    cycles: float
    steps: int
    max_rss: int
    exit_code: Optional[int]
    int_outputs: tuple


class WorkloadMeasurement:
    """Baseline + per-scheme hardened measurements for one workload."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.baseline: Optional[RunMeasurement] = None
        self.hardened: Dict[str, RunMeasurement] = {}
        self.pbox_bytes = 0

    def overhead_pct(self, scheme: str) -> float:
        """Runtime overhead of ``scheme`` vs baseline, in percent."""
        if self.baseline is None or scheme not in self.hardened:
            raise BenchmarkError(f"no measurements for scheme '{scheme}'")
        base = self.baseline.cycles
        hard = self.hardened[scheme].cycles
        return (hard - base) / base * 100.0

    def memory_overhead_pct(self, scheme: str) -> float:
        if self.baseline is None or scheme not in self.hardened:
            raise BenchmarkError(f"no measurements for scheme '{scheme}'")
        base = self.baseline.max_rss
        hard = self.hardened[scheme].max_rss
        return (hard - base) / base * 100.0


def run_baseline(
    workload: Workload,
    scheduling_effects: bool = False,
    opt_level: int = 0,
    module=None,
    engine: str = "jit",
) -> RunMeasurement:
    """Execute the unhardened build (default stack protector on).

    ``module`` lets a caller that already compiled the workload (the
    harness, which shares one parse across builds) skip recompilation.
    """
    if module is None:
        module = compile_source(workload.source, workload.name, opt_level=opt_level)
    machine = Machine(
        module,
        inputs=list(workload.inputs),
        stack_protector=True,
        max_steps=BENCH_MAX_STEPS,
        scheduling_effects=scheduling_effects,
        engine=engine,
    )
    return _run(machine, workload, "baseline")


def run_hardened(
    hardened: HardenedProgram,
    workload: Workload,
    scheme: str,
    entropy_seed: int = 0,
    scheduling_effects: bool = False,
    engine: str = "jit",
) -> RunMeasurement:
    """Execute the hardened build under one randomness scheme."""
    source = make_source(scheme, DeterministicEntropy(entropy_seed))
    machine = Machine(
        hardened.module,
        inputs=list(workload.inputs),
        rng_source=source,
        max_steps=BENCH_MAX_STEPS,
        scheduling_effects=scheduling_effects,
        engine=engine,
    )
    return _run(machine, workload, scheme)


def _run(machine: Machine, workload: Workload, label: str) -> RunMeasurement:
    result = machine.run()
    if not result.finished_cleanly():
        raise BenchmarkError(
            f"workload '{workload.name}' [{label}] did not finish cleanly: "
            f"{result.outcome} ({result.error_message})"
        )
    return RunMeasurement(
        cycles=result.cycles,
        steps=result.steps,
        max_rss=result.max_rss,
        exit_code=result.exit_code,
        int_outputs=tuple(result.int_outputs),
    )


def measure_workload(
    workload_name: str,
    schemes: Sequence[str] = SCHEME_NAMES,
    config: Optional[SmokestackConfig] = None,
    scheduling_effects: bool = False,
    entropy_seed: int = 0,
    opt_level: int = 0,
    engine: str = "jit",
) -> WorkloadMeasurement:
    """Baseline + hardened measurements for one workload.

    Verifies that every hardened run produces the same observable output
    (the printed checksums) as the baseline — layout randomization must
    be semantics-preserving.

    The source is parsed once; the AST is lowered into two independent
    modules (baseline, and the one the hardening passes mutate).
    """
    workload = get_workload(workload_name)
    measurement = WorkloadMeasurement(workload)
    registry = get_registry()
    with registry.timed("benchsuite_phase_seconds", phase="compile"):
        ast = compile_to_ast(workload.source, workload.name)
        baseline_module = lower_ast(ast, workload.name, opt_level=opt_level)
        hardened_module = lower_ast(ast, workload.name, opt_level=opt_level)
    with registry.timed("benchsuite_phase_seconds", phase="harden"):
        hardened = harden_module(hardened_module, config)
    measurement.pbox_bytes = hardened.pbox_bytes()
    with registry.timed("benchsuite_phase_seconds", phase="execute"):
        measurement.baseline = run_baseline(
            workload,
            scheduling_effects,
            opt_level,
            module=baseline_module,
            engine=engine,
        )
        for scheme in schemes:
            run = run_hardened(
                hardened, workload, scheme,
                entropy_seed=entropy_seed,
                scheduling_effects=scheduling_effects,
                engine=engine,
            )
            if run.int_outputs != measurement.baseline.int_outputs:
                raise BenchmarkError(
                    f"hardened '{workload_name}' under {scheme} changed the "
                    f"program output: {run.int_outputs} vs "
                    f"{measurement.baseline.int_outputs}"
                )
            measurement.hardened[scheme] = run
    return measurement


class SuiteResults:
    """All measurements for a suite run."""

    def __init__(self, schemes: Sequence[str]):
        self.schemes = list(schemes)
        #: workload name -> measurement.  Host time per phase is in the
        #: ``benchsuite_phase_seconds`` histograms, not here: parallel
        #: runs sum child-process time, so it tracks work done, not
        #: elapsed wall-clock.
        self.measurements: Dict[str, WorkloadMeasurement] = {}

    def add(self, measurement: WorkloadMeasurement) -> None:
        self.measurements[measurement.workload.name] = measurement

    def workloads(self) -> List[str]:
        return list(self.measurements)

    def overhead(self, workload: str, scheme: str) -> float:
        return self.measurements[workload].overhead_pct(scheme)

    def memory_overhead(self, workload: str, scheme: str) -> float:
        return self.measurements[workload].memory_overhead_pct(scheme)

    def average_overhead(self, scheme: str, category: Optional[str] = None) -> float:
        values = [
            m.overhead_pct(scheme)
            for m in self.measurements.values()
            if category is None or m.workload.category == category
            or (category == "spec" and m.workload.category in ("int", "fp"))
        ]
        if not values:
            raise BenchmarkError("no measurements to average")
        return sum(values) / len(values)

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                scheme: measurement.overhead_pct(scheme)
                for scheme in self.schemes
            }
            for name, measurement in self.measurements.items()
        }


def _measure_workload_pooled(name: str, kwargs: dict):
    """Pool-worker wrapper: ship this job's metrics delta home.

    Phase timings and compile/harden counters recorded inside a
    worker live in that process's registry; the parent merges the
    returned delta so jobs=1 and jobs=N suites report identical totals.
    """
    from repro.obs.metrics import worker_job_metrics

    registry = worker_job_metrics()
    measurement = measure_workload(name, **kwargs)
    return measurement, registry.dump()


def measure_suite(
    workload_names: Optional[Iterable[str]] = None,
    schemes: Sequence[str] = SCHEME_NAMES,
    config: Optional[SmokestackConfig] = None,
    scheduling_effects: bool = False,
    entropy_seed: int = 0,
    jobs: int = 1,
    engine: str = "jit",
) -> SuiteResults:
    """Run the full Figure 3/4 measurement campaign.

    ``jobs > 1`` distributes workloads over a process pool.  Every
    workload measurement is self-contained and deterministic, so the
    parallel results are identical to serial ones; they are folded back
    in input order either way.
    """
    names = list(workload_names) if workload_names is not None else list(WORKLOADS)
    results = SuiteResults(schemes)
    kwargs = dict(
        schemes=tuple(schemes),
        config=config,
        scheduling_effects=scheduling_effects,
        entropy_seed=entropy_seed,
        engine=engine,
    )
    if jobs > 1 and len(names) > 1:
        # Imported here, not at module level: the pool pulls in
        # multiprocessing, socket and logging, which a serial run never
        # needs but every ``repro bench`` start would otherwise compile.
        from concurrent.futures import ProcessPoolExecutor

        registry = get_registry()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_measure_workload_pooled, name, kwargs)
                for name in names
            ]
            for future in futures:  # in input order, for determinism
                measurement, delta = future.result()
                registry.merge(delta)
                results.add(measurement)
    else:
        for name in names:
            results.add(measure_workload(name, **kwargs))
    return results
