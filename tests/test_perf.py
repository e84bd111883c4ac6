"""Harness-performance layer: timed regions, single-parse builds, jobs=N.

Timing *arithmetic* is asserted exactly against a fake clock
monkeypatched into :mod:`repro.obs.metrics` — never against wall-clock
thresholds, which flake on loaded CI runners.  Real-clock tests only
check structure (which series exist, aggregation identities), never
magnitudes.
"""

import pytest

from repro.benchsuite import runner
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry, get_registry


class FakeClock:
    """Deterministic perf_counter stand-in: advances by a scripted step
    on every call."""

    def __init__(self, steps):
        self._steps = iter(steps)
        self._now = 0.0

    def __call__(self):
        self._now += next(self._steps, 0.0)
        return self._now


@pytest.fixture
def fake_clock(monkeypatch):
    def install(steps):
        monkeypatch.setattr(metrics, "clock", FakeClock(steps))

    return install


def _sums(registry, name):
    """``label text -> sum`` of every ``name`` histogram."""
    return {
        key[len(name):]: stats["sum"]
        for key, stats in registry.snapshot()["histograms"].items()
        if key.startswith(name + "{") or key == name
    }


class TestPhaseTimer:
    """``MetricsRegistry.timed``, the one timing mechanism.  The class
    keeps the name of the timer it replaced, so its tests keep theirs."""

    def test_accumulates_per_phase_exactly(self, fake_clock):
        # Each timed() makes exactly two clock calls (enter, exit); the
        # scripted steps make the elapsed times 1.5, 2.25, and 4.0.
        fake_clock([0.0, 1.5, 0.0, 2.25, 0.0, 4.0])
        registry = MetricsRegistry()
        with registry.timed("t_seconds", phase="a"):
            pass
        with registry.timed("t_seconds", phase="a"):
            pass
        with registry.timed("t_seconds", phase="b"):
            pass
        assert _sums(registry, "t_seconds") == {
            "{phase=a}": 3.75,
            "{phase=b}": 4.0,
        }
        assert registry.histogram("t_seconds", phase="a").count == 2
        assert registry.histogram("t_seconds", phase="never").count == 0

    def test_accumulates_on_exception(self, fake_clock):
        fake_clock([0.0, 0.5])
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with registry.timed("t_seconds", phase="broken"):
                raise ValueError("boom")
        assert _sums(registry, "t_seconds") == {"{phase=broken}": 0.5}

    def test_nested_phases_both_charged(self, fake_clock):
        # Outer region spans the inner one plus its own clock overhead:
        # inner elapsed is 2.0, outer sees 1.0 + 2.0 + 1.0 = 4.0.
        fake_clock([0.0, 1.0, 2.0, 1.0])
        registry = MetricsRegistry()
        with registry.timed("t_seconds", phase="outer"):
            with registry.timed("t_seconds", phase="inner"):
                pass
        assert _sums(registry, "t_seconds") == {
            "{phase=inner}": 2.0,
            "{phase=outer}": 4.0,
        }

    def test_merge_sums_overlapping_phases(self, fake_clock):
        fake_clock([0.0, 1.0, 0.0, 2.0, 0.0, 3.0])
        one, two = MetricsRegistry(), MetricsRegistry()
        with one.timed("t_seconds", phase="x"):
            pass
        with two.timed("t_seconds", phase="x"):
            pass
        with two.timed("t_seconds", phase="y"):
            pass
        one.merge(two.dump())
        assert _sums(one, "t_seconds") == {"{phase=x}": 3.0, "{phase=y}": 3.0}
        assert one.histogram("t_seconds", phase="x").count == 2
        # merge() folded a copy: the source registry is untouched.
        assert _sums(two, "t_seconds") == {"{phase=x}": 2.0, "{phase=y}": 3.0}

    def test_real_clock_default_is_monotonic(self):
        # Structural check only with the real clock — elapsed times are
        # non-negative, but no thresholds.
        registry = MetricsRegistry()
        with registry.timed("t_seconds", phase="a"):
            pass
        assert list(_sums(registry, "t_seconds")) == ["{phase=a}"]
        assert registry.histogram("t_seconds", phase="a").total >= 0.0

    def test_series_looked_up_on_exit(self, fake_clock):
        # A reset inside a timed region must not lose the observation
        # to the series object the reset dropped.
        fake_clock([0.0, 1.0])
        registry = MetricsRegistry()
        registry.histogram("t_seconds")
        with registry.timed("t_seconds"):
            registry.reset()
        assert _sums(registry, "t_seconds") == {"": 1.0}

    def test_lex_error_still_observes_compile_once(self):
        from repro.core.pipeline import compile_source
        from repro.errors import LexError

        registry = get_registry()
        registry.reset()
        with pytest.raises(LexError):
            compile_source("int main() { return 0 @ 1; }", "lex-error")
        phases = registry.snapshot()["histograms"]
        assert phases["pipeline_phase_seconds{phase=compile}"]["count"] == 1
        # The front end raised before lowering began.
        assert "pipeline_phase_seconds{phase=lower}" not in phases


class TestPhaseTimerMisuse:
    """Re-entry and exception paths of ``timed``."""

    def test_finished_phase_may_be_reentered(self, fake_clock):
        # The accumulate-across-loop-iterations contract.
        fake_clock([0.0, 1.0, 0.0, 2.0])
        registry = MetricsRegistry()
        with registry.timed("t_seconds", phase="x"):
            pass
        with registry.timed("t_seconds", phase="x"):
            pass
        assert _sums(registry, "t_seconds") == {"{phase=x}": 3.0}

    def test_observer_sees_each_interval(self, fake_clock):
        fake_clock([0.0, 1.5, 0.0, 2.5])
        registry = MetricsRegistry()
        with registry.timed("t_seconds", phase="a"):
            pass
        with registry.timed("t_seconds", phase="a"):
            pass
        series = registry.histogram("t_seconds", phase="a")
        assert (series.count, series.min, series.max) == (2, 1.5, 2.5)

    def test_observer_fires_on_exception_path(self, fake_clock):
        fake_clock([0.0, 0.5])
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with registry.timed("t_seconds", phase="broken"):
                raise ValueError("boom")
        series = registry.histogram("t_seconds", phase="broken")
        assert (series.count, series.min, series.max) == (1, 0.5, 0.5)


class TestSingleParse:
    def test_measure_workload_parses_source_once(self, monkeypatch):
        calls = []
        real_compile = runner.compile_to_ast

        def counting_compile(source, name="program"):
            calls.append(name)
            return real_compile(source, name)

        monkeypatch.setattr(runner, "compile_to_ast", counting_compile)
        measurement = runner.measure_workload("libquantum", schemes=("pseudo",))
        assert calls == ["libquantum"]
        assert measurement.baseline is not None
        assert "pseudo" in measurement.hardened

    def test_timings_recorded(self):
        registry = get_registry()
        registry.reset()
        runner.measure_workload("libquantum", schemes=("pseudo",))
        phases = _phase_histograms(registry)
        assert set(phases) == {"compile", "harden", "execute"}
        assert all(stats["count"] == 1 for stats in phases.values())
        assert all(stats["sum"] >= 0.0 for stats in phases.values())

    def test_run_baseline_accepts_prebuilt_module(self):
        from repro.core.pipeline import compile_source
        from repro.benchsuite.programs import get_workload

        workload = get_workload("libquantum")
        module = compile_source(workload.source, workload.name)
        prebuilt = runner.run_baseline(workload, module=module)
        fresh = runner.run_baseline(workload)
        assert prebuilt == fresh  # RunMeasurement is a NamedTuple


class TestParallelSuite:
    NAMES = ["libquantum", "sjeng"]
    SCHEMES = ("pseudo",)

    def test_parallel_equals_serial(self):
        serial = runner.measure_suite(self.NAMES, schemes=self.SCHEMES, jobs=1)
        parallel = runner.measure_suite(self.NAMES, schemes=self.SCHEMES, jobs=2)
        assert serial.workloads() == parallel.workloads() == self.NAMES
        for name in self.NAMES:
            s, p = serial.measurements[name], parallel.measurements[name]
            assert s.baseline == p.baseline
            assert s.hardened == p.hardened
            assert s.pbox_bytes == p.pbox_bytes

    def test_suite_aggregates_phase_seconds(self):
        registry = get_registry()
        counts = []
        for jobs in (1, 2):
            registry.reset()
            runner.measure_suite(self.NAMES, schemes=self.SCHEMES, jobs=jobs)
            phases = _phase_histograms(registry)
            assert set(phases) == {"compile", "harden", "execute"}
            counts.append({p: stats["count"] for p, stats in phases.items()})
        # One observation per workload and phase, shipped home from the
        # pool workers at jobs=2.
        assert counts[0] == counts[1] == {
            "compile": 2, "harden": 2, "execute": 2
        }


def _phase_histograms(registry):
    """phase -> stats of the ``benchsuite_phase_seconds`` histograms."""
    prefix = "benchsuite_phase_seconds{phase="
    return {
        key[len(prefix):-1]: stats
        for key, stats in registry.snapshot()["histograms"].items()
        if key.startswith(prefix)
    }
