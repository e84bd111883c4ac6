"""Observability layer: metrics registry, tracer, forensics, schema.

The load-bearing property is **equivalence**: attaching a tracer must
not change a run.  Every field of the ExecutionResult plus the integer
guest cycle count must be bit-identical between traced and untraced
machines, on both dispatch paths, for benchmark workloads and for the
canned attack scenarios.
"""

import random

import pytest

from repro.benchsuite.programs import get_workload
from repro.core.pipeline import compile_source, harden_source
from repro.defenses import make_defense
from repro.obs import (
    CROSSING_WHYS,
    MetricsRegistry,
    Tracer,
    render_profile,
    validate_events,
)
from repro.rng.entropy import DeterministicEntropy
from repro.rng.sources import make_source
from repro.vm.interpreter import RESULT_FIELDS, Machine


def fingerprint(machine, result):
    """Everything observable plus the exact guest cycle accumulator."""
    fields = []
    for field in RESULT_FIELDS:
        value = getattr(result, field)
        if isinstance(value, (list, dict, bytearray)):
            value = repr(value)
        fields.append((field, value))
    fields.append(("cycle_units", machine.cost.cycle_units))
    return tuple(fields)


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("x_total").inc()
        registry.counter("x_total").inc(4)
        assert registry.snapshot()["counters"] == {"x_total": 5}

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x_total").inc(-1)

    def test_labels_make_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", kind="a").inc()
        registry.counter("hits_total", kind="b").inc(2)
        assert registry.snapshot()["counters"] == {
            "hits_total{kind=a}": 1,
            "hits_total{kind=b}": 2,
        }

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("x_total", b="2", a="1").inc()
        registry.counter("x_total", a="1", b="2").inc()
        assert registry.snapshot()["counters"] == {"x_total{a=1,b=2}": 2}

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("speed").set(3.5)
        registry.gauge("speed").set(1.25)
        assert registry.snapshot()["gauges"] == {"speed": 1.25}

    def test_histogram_summary_stats(self):
        registry = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            registry.histogram("phase_seconds", phase="x").observe(value)
        stats = registry.snapshot()["histograms"]["phase_seconds{phase=x}"]
        assert stats["count"] == 3
        assert stats["sum"] == 6.0
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["mean"] == 2.0

    def test_reset_restores_pristine(self):
        registry = MetricsRegistry()
        registry.counter("x_total").inc()
        registry.reset()
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_render_text_one_line_per_series(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.gauge("b").set(2)
        registry.histogram("c_seconds").observe(1.0)
        lines = registry.render_text().splitlines()
        assert len(lines) == 3


class TestMetricsMerge:
    """The snapshot/merge protocol that ships worker-process deltas home."""

    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", outcome="ok").inc(3)
        registry.counter("jobs_total", outcome="fail").inc()
        registry.gauge("rate").set(7.5)
        for value in (1.0, 4.0):
            registry.histogram("phase_seconds", phase="x").observe(value)
        return registry

    def test_dump_is_plain_data(self):
        import pickle

        dump = self._populated().dump()
        assert pickle.loads(pickle.dumps(dump)) == dump

    def test_merge_into_empty_equals_source(self):
        source = self._populated()
        target = MetricsRegistry()
        target.merge(source.dump())
        assert target.snapshot() == source.snapshot()

    def test_merge_adds_counters_and_combines_histograms(self):
        target = self._populated()
        target.merge(self._populated().dump())
        snap = target.snapshot()
        assert snap["counters"]["jobs_total{outcome=ok}"] == 6
        assert snap["counters"]["jobs_total{outcome=fail}"] == 2
        stats = snap["histograms"]["phase_seconds{phase=x}"]
        assert stats["count"] == 4
        assert stats["sum"] == 10.0
        assert stats["min"] == 1.0
        assert stats["max"] == 4.0

    def test_merge_histogram_into_empty_keeps_min_max(self):
        target = MetricsRegistry()
        target.merge(self._populated().dump())
        stats = target.snapshot()["histograms"]["phase_seconds{phase=x}"]
        assert (stats["min"], stats["max"]) == (1.0, 4.0)

    def test_merge_empty_delta_is_noop(self):
        target = self._populated()
        before = target.snapshot()
        target.merge(MetricsRegistry().dump())
        assert target.snapshot() == before

    def test_worker_job_metrics_resets_process_registry(self):
        from repro.obs.metrics import get_registry, worker_job_metrics

        get_registry().counter("stale_total").inc()
        registry = worker_job_metrics()
        assert registry is get_registry()
        assert registry.dump() == {
            "counters": [], "gauges": [], "histograms": []
        }


class TestPoolMetricsIdentity:
    """Counters incremented inside pool workers must reach the parent:
    jobs=1 and jobs=4 campaigns report identical ``*_total`` counters."""

    def _campaign_counters(self, jobs: int) -> dict:
        from repro.fuzz import CampaignConfig, run_campaign
        from repro.obs.metrics import get_registry
        from repro.vm.jit import clear_code_cache

        registry = get_registry()
        registry.reset()
        clear_code_cache()
        summary = run_campaign(
            CampaignConfig(
                iterations=6,
                base_seed=101,
                jobs=jobs,
                oracles=("dispatch", "jit"),
                corpus_dir=None,
                reduce_findings=False,
            )
        )
        assert summary.ok
        return {
            key: value
            for key, value in registry.snapshot()["counters"].items()
            if key.endswith("_total") or "_total{" in key
        }

    def test_fuzz_campaign_totals_identical_across_jobs(self):
        serial = self._campaign_counters(jobs=1)
        parallel = self._campaign_counters(jobs=4)
        assert serial == parallel
        # The worker-side JIT counters actually crossed the process
        # boundary (this is the regression: they used to be dropped).
        assert serial["jit_functions_compiled_total"] >= 6


class TestPipelineMetrics:
    def test_compile_populates_phase_histograms(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        registry.reset()
        harden_source("int main() { int x[4]; x[0] = 1; return x[0]; }",
                      opt_level=2)
        snap = registry.snapshot()
        for phase in ("compile", "lower", "optimize", "harden"):
            key = f"pipeline_phase_seconds{{phase={phase}}}"
            assert snap["histograms"][key]["count"] >= 1, key
        assert snap["counters"]["pipeline_compiles_total"] == 1
        assert snap["counters"]["pipeline_hardens_total"] == 1

    def test_analysis_populates_counters(self):
        from repro.analysis import analyze_program
        from repro.obs.metrics import get_registry

        registry = get_registry()
        registry.reset()
        report = analyze_program(
            "int main() { int b[4]; b[0] = 1; return b[0]; }", prove=True
        )
        snap = registry.snapshot()
        assert snap["counters"]["analysis_programs_total"] == 1
        finding_total = sum(
            value
            for key, value in snap["counters"].items()
            if key.startswith("analysis_findings_total{")
        )
        assert finding_total == len(report.findings)
        solver_iters = sum(
            value
            for key, value in snap["counters"].items()
            if key.startswith("analysis_solver_iterations_total{")
        )
        assert solver_iters > 0  # the prover ran the dataflow engine


class TestJitMetrics:
    SOURCE = (
        "int add(int a, int b) { return a + b; }"
        " int main() { int s = 0;"
        " for (int i = 0; i < 50; i = i + 1) { s = add(s, i); }"
        " return s - 1225; }"
    )

    def _fresh_registry(self):
        from repro.obs.metrics import get_registry
        from repro.vm.jit import clear_code_cache

        registry = get_registry()
        registry.reset()
        clear_code_cache()
        return registry

    def test_jit_run_populates_compile_metrics(self):
        registry = self._fresh_registry()
        machine = Machine(compile_source(self.SOURCE), engine="jit-eager")
        result = machine.run()
        assert result.outcome == "exit" and result.exit_code == 0
        snap = registry.snapshot()
        assert snap["counters"]["jit_functions_compiled_total"] == 2
        assert snap["counters"]["jit_blocks_fused_total"] >= 3
        assert snap["histograms"]["jit_compile_seconds"]["count"] == 2

    def test_shared_cache_compiles_once_per_module(self):
        registry = self._fresh_registry()
        module = compile_source(self.SOURCE)
        Machine(module, engine="jit-eager").run()
        Machine(module, engine="jit-eager").run()  # second machine, same module
        snap = registry.snapshot()
        assert snap["counters"]["jit_functions_compiled_total"] == 2

    def test_step_limit_deopt_counted(self):
        registry = self._fresh_registry()
        machine = Machine(
            compile_source(self.SOURCE), engine="jit-eager", max_steps=40
        )
        result = machine.run()
        assert result.outcome == "limit"
        snap = registry.snapshot()
        assert snap["counters"]["jit_deopts_total{reason=step-limit}"] >= 1

    def test_tracer_fallback_counted(self):
        registry = self._fresh_registry()
        machine = Machine(
            compile_source(self.SOURCE), engine="jit-eager", tracer=Tracer()
        )
        result = machine.run()
        assert result.outcome == "exit" and result.exit_code == 0
        snap = registry.snapshot()
        assert snap["counters"]["jit_deopts_total{reason=tracer}"] == 1
        # The whole run deopted: nothing was compiled for it.
        assert "jit_functions_compiled_total" not in snap["counters"]


#: (traced?, engine) — all four interpreter configurations.
MODES = [(False, "fast"), (False, "slow"), (True, "fast"), (True, "slow")]


class TestTracingEquivalence:
    @pytest.mark.parametrize("name", ["libquantum", "sjeng"])
    def test_benchsuite_bit_identical_across_modes(self, name):
        workload = get_workload(name)
        prints = []
        streams = []
        for traced, engine in MODES:
            tracer = Tracer(record_writes="all") if traced else None
            machine = Machine(
                compile_source(workload.source, name),
                inputs=list(workload.inputs),
                engine=engine,
                tracer=tracer,
            )
            result = machine.run()
            prints.append(fingerprint(machine, result))
            if tracer is not None:
                assert not validate_events(tracer.events)
                streams.append(tracer.events)
        assert len(set(prints)) == 1, f"{name}: modes disagree"
        # The two traced runs (fast and slow dispatch) saw identical
        # event streams, timestamps included.
        assert streams[0] == streams[1]

    def test_hardened_traced_equals_untraced(self):
        workload = get_workload("libquantum")
        prints = []
        for traced in (False, True):
            hardened = harden_source(workload.source, None, "libquantum")
            machine = Machine(
                hardened.module,
                inputs=list(workload.inputs),
                rng_source=make_source("aes-10", DeterministicEntropy(3)),
                tracer=Tracer() if traced else None,
            )
            result = machine.run()
            prints.append(fingerprint(machine, result))
        assert prints[0] == prints[1]

    def test_opcode_histogram_matches_step_count(self):
        tracer = Tracer(record_writes="none")
        machine = Machine(
            compile_source(
                "int main() { int s = 0;"
                " for (int i = 0; i < 9; i = i + 1) { s = s + i; }"
                " return s; }"
            ),
            tracer=tracer,
        )
        result = machine.run()
        executed = sum(
            count
            for per_units in tracer.opcode_hist.values()
            for count in per_units.values()
        )
        assert executed == result.steps
        # cycle_units also carries non-instruction charges (frame setup),
        # so the histogram total is a strict component of it.
        total_units = sum(
            units * count
            for per_units in tracer.opcode_hist.values()
            for units, count in per_units.items()
        )
        assert 0 < total_units <= machine.cost.cycle_units


ATTACK_SEED = 2


def run_attack_attempt(scenario_cls, tracer, defense="none", attempt=0):
    """One attack attempt with the harness's exact RNG derivation."""
    scenario = scenario_cls()
    build = make_defense(defense).build(
        scenario.source, instance_seed=ATTACK_SEED
    )
    rng = random.Random(
        (ATTACK_SEED << 16) ^ (attempt * 0x9E37) ^ 0xA77ACC
    )
    hook = scenario.make_input_hook(build, rng, attempt)
    machine = build.make_machine(
        input_hook=hook, tracer=tracer, **scenario.machine_kwargs()
    )
    return machine, machine.run()


class TestAttackTracingEquivalence:
    @pytest.mark.parametrize("attack", ["librelp", "wireshark",
                                        "proftpd", "ripe"])
    def test_canned_attack_bit_identical(self, attack):
        from repro.obs.forensics import CANNED_ATTACKS

        target = CANNED_ATTACKS[attack]
        untraced_machine, untraced = run_attack_attempt(
            target.scenario_class, tracer=None
        )
        tracer = Tracer()
        traced_machine, traced = run_attack_attempt(
            target.scenario_class, tracer=tracer
        )
        assert fingerprint(untraced_machine, untraced) == fingerprint(
            traced_machine, traced
        )
        assert not validate_events(tracer.events)


#: ``target`` is declared before ``buf`` so it sits directly above it:
#: the 12-byte ``input_read`` into the 8-byte buffer spans both slots
#: (an ``overflow`` crossing), while ``helper``'s out-parameter write is
#: a clean single-slot write into the caller's frame (``frame-escape``).
#: Neither reaches the return cookie, so the run exits cleanly.
WRITER = """
int helper(int *out) { *out = 9; return 0; }
int main() {
    int target;
    char buf[8];
    int i;
    target = 1;
    i = input_read(buf, 12);
    helper(&target);
    return target + i;
}
"""

WRITER_INPUTS = [b"A" * 12]


class TestWriteClassification:
    def run_traced(self, source, record_writes="all", **kwargs):
        kwargs.setdefault("inputs", list(WRITER_INPUTS))
        tracer = Tracer(record_writes=record_writes)
        machine = Machine(compile_source(source), tracer=tracer, **kwargs)
        result = machine.run()
        return tracer, result

    def test_writer_program_exits_cleanly(self):
        _, result = self.run_traced(WRITER)
        assert result.outcome == "exit"
        assert result.exit_code == 21  # helper's 9 + input_read's 12

    def test_overflow_touches_both_slots(self):
        tracer, _ = self.run_traced(WRITER, record_writes="crossing")
        overflows = [
            event
            for event in tracer.crossing_events()
            if event["why"] == "overflow"
        ]
        assert overflows, "12B read into an 8B buffer must cross"
        overflow = overflows[0]
        assert overflow["kind"] == "builtin:input_read"
        slots = {touch["slot"] for touch in overflow["touched"]}
        assert {"buf", "target"} <= slots
        assert overflow["size"] == 12

    def test_frame_escape_reported(self):
        tracer, _ = self.run_traced(WRITER, record_writes="crossing")
        escapes = [
            event
            for event in tracer.crossing_events()
            if event["why"] == "frame-escape"
        ]
        assert escapes, "write through &target from helper must escape"
        touched = escapes[0]["touched"]
        assert touched == [
            {"fn": "main", "slot": "target", "depth": 0}
        ]
        assert escapes[0]["fn"] == "helper"

    def test_local_writes_only_in_all_mode(self):
        crossing, _ = self.run_traced(WRITER, record_writes="crossing")
        everything, _ = self.run_traced(WRITER, record_writes="all")
        crossing_writes = [
            e for e in crossing.events if e["ev"] == "write"
        ]
        all_writes = [e for e in everything.events if e["ev"] == "write"]
        assert all(e["why"] in CROSSING_WHYS for e in crossing_writes)
        assert any(e["why"] == "local" for e in all_writes)
        assert len(all_writes) > len(crossing_writes)

    def test_none_mode_counts_but_records_nothing(self):
        tracer, _ = self.run_traced(WRITER, record_writes="none")
        assert tracer.write_count > 0
        assert not [e for e in tracer.events if e["ev"] == "write"]

    def test_event_cap_drops_but_end_always_lands(self):
        tracer = Tracer(record_writes="all", max_events=4)
        machine = Machine(
            compile_source(WRITER),
            inputs=list(WRITER_INPUTS),
            tracer=tracer,
        )
        machine.run()
        assert tracer.dropped > 0
        assert tracer.events[-1]["ev"] == "end"
        assert tracer.events[-1]["dropped"] == tracer.dropped
        # Cap exemption admits exactly the one end event.
        assert len(tracer.events) == 5

    def test_layout_present_on_call_events(self):
        tracer, _ = self.run_traced(WRITER)
        calls = [e for e in tracer.events if e["ev"] == "call"]
        main_call = next(e for e in calls if e["fn"] == "main")
        assert {"buf", "target", "i"} <= set(main_call["layout"])
        helper_call = next(e for e in calls if e["fn"] == "helper")
        assert helper_call["depth"] == 1

    def test_rand_events_on_hardened_run(self):
        source = "int main() { int x[4]; x[0] = 2; return x[0]; }"
        hardened = harden_source(source)
        tracer = Tracer()
        machine = hardened.make_machine(
            entropy=DeterministicEntropy(0), tracer=tracer
        )
        result = machine.run()
        assert result.exit_code == 2
        rand_events = [e for e in tracer.events if e["ev"] == "rand"]
        assert rand_events, "__ss_rand draws must be traced"
        assert rand_events[0]["fn"] == "main"


class TestSchemaValidation:
    def valid_stream(self):
        tracer = Tracer(record_writes="all")
        machine = Machine(
            compile_source(WRITER),
            inputs=list(WRITER_INPUTS),
            tracer=tracer,
        )
        machine.run()
        return tracer.events

    def test_real_stream_is_valid(self):
        assert validate_events(self.valid_stream()) == []

    def test_unknown_event_type_flagged(self):
        events = self.valid_stream()
        events.insert(1, {"ev": "mystery"})
        assert any("unknown ev" in p for p in validate_events(events))

    def test_missing_field_flagged(self):
        events = self.valid_stream()
        del events[0]["entry"]
        assert any("missing 'entry'" in p for p in validate_events(events))

    def test_bool_is_not_a_cycle_count(self):
        events = self.valid_stream()
        events[0]["cycle_units"] = True
        assert any("has type bool" in p for p in validate_events(events))

    def test_extra_field_flagged(self):
        events = self.valid_stream()
        events[0]["surprise"] = 1
        assert any("unexpected fields" in p for p in validate_events(events))

    def test_truncated_stream_flagged(self):
        events = self.valid_stream()[:-1]
        assert any("finish with an 'end'" in p for p in validate_events(events))

    def test_bad_write_why_flagged(self):
        events = self.valid_stream()
        write = next(e for e in events if e["ev"] == "write")
        write["why"] = "sideways"
        assert any("bad write why" in p for p in validate_events(events))


class TestExports:
    def test_jsonl_round_trips(self, tmp_path):
        import json

        tracer = Tracer(record_writes="all")
        Machine(
            compile_source(WRITER), inputs=list(WRITER_INPUTS), tracer=tracer
        ).run()
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(str(path))
        reloaded = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert reloaded == tracer.events

    def test_chrome_trace_balanced_and_timestamped(self):
        tracer = Tracer(record_writes="all")
        Machine(
            compile_source(WRITER), inputs=list(WRITER_INPUTS), tracer=tracer
        ).run()
        chrome = tracer.chrome_trace()
        events = chrome["traceEvents"]
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == 2  # main + helper
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)

    def test_render_profile_table(self):
        tracer = Tracer(record_writes="none")
        Machine(
            compile_source(WRITER), inputs=list(WRITER_INPUTS), tracer=tracer
        ).run()
        table = render_profile(tracer, top=3)
        lines = table.splitlines()
        assert lines[0].startswith("opcode")
        assert len(lines) == 4  # header + top 3


class TestForensics:
    """Acceptance: the corruption timeline agrees with the prover."""

    @pytest.mark.parametrize("attack", ["librelp", "wireshark",
                                        "proftpd", "ripe"])
    def test_undefended_attack_consistent(self, attack):
        from repro.analysis.safety import UNSAFE
        from repro.obs.forensics import attack_forensics

        report = attack_forensics(attack, defense="none", restarts=2)
        first = report.first_crossing()
        assert first is not None, f"{attack}: no boundary-crossing write"
        slots = report.first_crossing_slots()
        assert slots, f"{attack}: first crossing names no real slots"
        assert slots <= report.unsafe, (
            f"{attack}: first crossing touches slots the prover "
            f"did not mark {UNSAFE}: {slots - report.unsafe}"
        )
        assert (
            report.target.victim,
            report.target.buffer,
        ) in report.unsafe
        assert report.consistent()
        text = report.format_text()
        assert "corruption timeline" in text
        assert "CONSISTENT" in text

    def test_smokestack_ripe_no_crossing_vacuously_consistent(self):
        from repro.obs.forensics import attack_forensics

        report = attack_forensics("ripe", defense="smokestack", restarts=1)
        # The unified permuted frame is one slot: the overflow stays
        # inside it and never crosses.
        assert report.first_crossing() is None
        assert report.consistent()

    def test_unknown_attack_rejected(self):
        from repro.obs.forensics import attack_forensics

        with pytest.raises(ValueError, match="unknown attack"):
            attack_forensics("stuxnet")

    def test_decisive_events_validate(self):
        from repro.obs.forensics import attack_forensics

        report = attack_forensics("ripe", defense="none", restarts=1)
        assert validate_events(report.decisive_events()) == []
