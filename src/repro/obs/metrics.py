"""Metrics registry: counters, gauges and histograms with labeled series.

Naming convention (enforced socially, documented in DESIGN.md):
``<subsystem>_<quantity>[_<unit>]`` in snake_case, with the dynamic
dimensions carried by labels rather than baked into the name::

    pipeline_phase_seconds{phase=compile}
    fuzz_outcomes_total{outcome=harden-diverges}
    analysis_findings_total{severity=warning}

A *series* is one (name, labels) pair; ``counter()``/``gauge()``/
``histogram()`` get-or-create the series, so call sites never need to
pre-register anything.  All state lives in plain dicts — ``snapshot()``
is a deep copy suitable for JSON, and ``reset()`` restores a pristine
registry (tests rely on this; the module-level default registry is
process-global).

Host time is measured one way: ``with registry.timed(name, **labels):``
observes the seconds its block took into that histogram, also when the
block raises.  The ``*_seconds`` series are these timed regions, plus
three explicit ``observe`` calls whose recording depends on the
outcome (DESIGN.md §Metrics lists them).

This module deliberately imports nothing from the rest of ``repro`` so
every layer (pipeline, fuzz, analysis, VM) can populate it without
import cycles.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: The clock :meth:`MetricsRegistry.timed` reads; tests replace it.
clock = time.perf_counter

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_text(key: LabelKey) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A value that goes up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Summary statistics of observed samples (count/sum/min/max).

    A full bucketed distribution is overkill for the phase timings and
    campaign rates recorded here; the per-opcode *cycle* histograms,
    which do need exact per-value counts, live on
    :class:`repro.obs.trace.Tracer` instead.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """All metric series of one process, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- series access (get-or-create) ---------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        key = (name, _label_key(labels))
        series = self._counters.get(key)
        if series is None:
            series = self._counters[key] = Counter()
        return series

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        series = self._gauges.get(key)
        if series is None:
            series = self._gauges[key] = Gauge()
        return series

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = (name, _label_key(labels))
        series = self._histograms.get(key)
        if series is None:
            series = self._histograms[key] = Histogram()
        return series

    @contextmanager
    def timed(self, name: str, **labels: str) -> Iterator[None]:
        """Observe the seconds the ``with`` block took into the
        ``name{labels}`` histogram, also when an exception escapes it.

        The series is looked up on exit, so the observation lands even
        when the block resets the registry.
        """
        started = clock()
        try:
            yield
        finally:
            self.histogram(name, **labels).observe(clock() - started)

    # -- export --------------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready copy: ``{"counters": {...}, "gauges": ..., ...}``.

        Series are keyed ``name{label=value,...}`` in sorted order so the
        output is stable across runs.
        """
        counters = {
            name + _label_text(labels): series.value
            for (name, labels), series in self._counters.items()
        }
        gauges = {
            name + _label_text(labels): series.value
            for (name, labels), series in self._gauges.items()
        }
        histograms = {
            name + _label_text(labels): {
                "count": series.count,
                "sum": series.total,
                "min": series.min,
                "max": series.max,
                "mean": series.mean(),
            }
            for (name, labels), series in self._histograms.items()
        }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def render_text(self) -> str:
        """One line per series, for CLI summaries."""
        snap = self.snapshot()
        lines: List[str] = []
        for name, value in snap["counters"].items():
            lines.append(f"{name} {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"{name} {value:g}")
        for name, stats in snap["histograms"].items():
            lines.append(
                f"{name} count={stats['count']} sum={stats['sum']:g} "
                f"mean={stats['mean']:g}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- cross-process aggregation ---------------------------------------------------
    #
    # The registry is process-global, so counters incremented inside a
    # ``ProcessPoolExecutor`` worker land in *that worker's* registry and
    # would otherwise be dropped on the floor.  Pool call sites therefore
    # ship a structured ``dump()`` back with each job result and the
    # parent folds it in with ``merge()``.  Workers reset their registry
    # at job start (see ``worker_job_metrics``) so each dump is exactly
    # one job's delta — merging in collection order keeps jobs=1 and
    # jobs=N totals identical.

    def dump(self) -> dict:
        """Structured, picklable copy of every series (for ``merge``).

        Unlike :meth:`snapshot`, labels stay structured rather than being
        flattened into display strings, so a parent process can replay
        them without parsing.
        """
        return {
            "counters": [
                [name, list(labels), series.value]
                for (name, labels), series in self._counters.items()
            ],
            "gauges": [
                [name, list(labels), series.value]
                for (name, labels), series in self._gauges.items()
            ],
            "histograms": [
                [
                    name,
                    list(labels),
                    [series.count, series.total, series.min, series.max],
                ]
                for (name, labels), series in self._histograms.items()
            ],
        }

    def merge(self, delta: dict) -> None:
        """Fold a worker's :meth:`dump` into this registry.

        Counters add, histograms combine (count/sum/min/max), gauges are
        last-write-wins — pool results are collected in submission order,
        so the outcome is deterministic.
        """
        for name, labels, value in delta.get("counters", ()):
            self.counter(name, **dict(labels)).inc(value)
        for name, labels, value in delta.get("gauges", ()):
            self.gauge(name, **dict(labels)).set(value)
        for name, labels, (count, total, lo, hi) in delta.get("histograms", ()):
            series = self.histogram(name, **dict(labels))
            series.count += count
            series.total += total
            if lo is not None:
                series.min = lo if series.min is None else min(series.min, lo)
            if hi is not None:
                series.max = hi if series.max is None else max(series.max, hi)


#: Process-wide default registry.  Call sites use ``get_registry()`` so
#: tests can assert on (and reset) a single well-known instance.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _DEFAULT


def worker_job_metrics() -> MetricsRegistry:
    """Prepare the worker-process registry to record one pool job.

    A forked worker starts with a copy of the parent's pre-fork series,
    and a persistent worker still holds its previous jobs' (already
    shipped home with those results) — both would double-count if left
    in place.  Resetting at job start makes the registry hold exactly
    this job's delta, which the worker returns via ``registry.dump()``
    alongside its result for the parent to ``merge()``.
    """
    registry = get_registry()
    registry.reset()
    return registry
