"""IR→Python JIT equivalence: compiled execution must be bit-identical.

The JIT (:mod:`repro.vm.jit`) is, like the predecoded dispatcher, a pure
performance layer: for every program — benchsuite workloads, hardened
builds, the canned DOP attacks, programs that fault, trap, or hit the
step limit mid-block — it must produce exactly the ExecutionResult the
interpreter paths produce, field for field.  The deopt boundary gets
special attention: step-limit deopts hand half-executed frames to the
interpreter, and traced machines must skip the JIT entirely while still
producing identical runs and event streams.
"""

import contextlib
import re

import pytest

import repro.vm.interpreter as interpreter
from repro.benchsuite.programs import WORKLOADS, get_workload
from repro.core.pipeline import compile_source
from repro.synth.facts import ProgramFacts
from repro.errors import VMError
from repro.vm.interpreter import ENGINES, RESULT_FIELDS, Machine
from tests.workload_engines import HARDENED_WORKLOADS, assert_engines_agree

COMPARED_FIELDS = RESULT_FIELDS


def assert_identical(jit, reference, label):
    for field in COMPARED_FIELDS:
        assert getattr(jit, field) == getattr(reference, field), (
            f"{label}: jit disagrees on {field}: "
            f"{getattr(jit, field)!r} != {getattr(reference, field)!r}"
        )


def run_engines(source_text, inputs=(), max_steps=None, opt_level=0, **kwargs):
    """(eager jit, fast, slow) results for one program."""
    results = []
    for engine in ("jit-eager", "fast", "slow"):
        machine_kwargs = dict(kwargs, engine=engine)
        if max_steps is not None:
            machine_kwargs["max_steps"] = max_steps
        machine = Machine(
            compile_source(source_text, opt_level=opt_level),
            inputs=list(inputs),
            **machine_kwargs,
        )
        results.append(machine.run())
    return results


#: Tier-up thresholds that make a tiered machine's hand-overs fire on
#: tiny programs: at every call and back-edge, and staggered.
LOW_THRESHOLDS = ((1, 1), (2, 3))


@contextlib.contextmanager
def hot_thresholds(calls, trips):
    """Machines built inside tier up after ``calls``/``trips``."""
    saved = interpreter.HOT_THRESHOLDS
    interpreter.HOT_THRESHOLDS = (calls, trips)
    try:
        yield
    finally:
        interpreter.HOT_THRESHOLDS = saved


def run_tiered(
    source_text, thresholds, inputs=(), max_steps=None, opt_level=0, **kwargs
):
    """One run on the default (tiered) engine at low thresholds."""
    if max_steps is not None:
        kwargs["max_steps"] = max_steps
    with hot_thresholds(*thresholds):
        machine = Machine(
            compile_source(source_text, opt_level=opt_level),
            inputs=list(inputs),
            **kwargs,
        )
    assert machine._hot == thresholds
    return machine.run()


def assert_all_agree(
    source_text, inputs=(), max_steps=None, label="", opt_level=0, **kwargs
):
    jit, fast, slow = run_engines(
        source_text, inputs=inputs, max_steps=max_steps, opt_level=opt_level,
        **kwargs,
    )
    assert_identical(jit, fast, f"{label} (vs fast)")
    assert_identical(jit, slow, f"{label} (vs slow)")
    # The default engine at its own thresholds, then at low ones.
    for thresholds in (interpreter.HOT_THRESHOLDS,) + LOW_THRESHOLDS:
        tiered = run_tiered(
            source_text, thresholds, inputs=inputs, max_steps=max_steps,
            opt_level=opt_level, **kwargs,
        )
        assert_identical(tiered, fast, f"{label} (tiered {thresholds})")
    return jit


class TestWorkloadEquivalence:
    """The JIT engines' rows of the engine-equivalence table."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_baseline_bit_identical(self, name):
        assert_engines_agree(name, ("jit", "jit-eager"))

    @pytest.mark.parametrize("name", HARDENED_WORKLOADS)
    def test_hardened_bit_identical(self, name):
        assert_engines_agree(name, ("jit", "jit-eager"), hardened=True)


class TestCannedAttackEquivalence:
    """All four canned DOP attacks replay identically under the JIT.

    Attack campaigns are the intended JIT consumer (thousands of runs of
    one build), and they exercise the gnarliest machine behavior:
    adaptive input hooks, overflow-corrupted frames, cookie and
    function-identifier checks, hardened prologues drawing randomness.
    """

    @pytest.mark.parametrize(
        "attack", ["listing1", "librelp", "proftpd", "wireshark"]
    )
    @pytest.mark.parametrize("defense_name", ["none", "smokestack"])
    def test_campaign_bit_identical(self, attack, defense_name):
        from repro.attacks import (
            LibrelpDopAttack,
            Listing1DopAttack,
            ProftpdDopAttack,
            WiresharkDopAttack,
        )
        from repro.attacks.harness import run_campaign
        from repro.defenses import make_defense

        scenario_cls = {
            "listing1": Listing1DopAttack,
            "librelp": LibrelpDopAttack,
            "proftpd": ProftpdDopAttack,
            "wireshark": WiresharkDopAttack,
        }[attack]

        def jitted(engine):
            class Wrapped(scenario_cls):
                def machine_kwargs(self):
                    return dict(super().machine_kwargs(), engine=engine)

            return Wrapped()

        attempts = []
        # eager JIT, predecoded, and tiered with every hand-over firing
        with hot_thresholds(1, 1):
            for engine in ("jit-eager", "fast", "jit"):
                report = run_campaign(
                    jitted(engine), make_defense(defense_name),
                    restarts=3, seed=1,
                )
                attempts.append(
                    [(a.index, a.outcome, a.detail) for a in report.attempts]
                )
        assert attempts[0] == attempts[1], f"{attack} vs {defense_name}"
        assert attempts[2] == attempts[1], f"{attack} vs {defense_name} tiered"


class TestErrorPathEquivalence:
    def test_out_of_bounds_fault(self):
        assert_all_agree(
            "int main() { int b[2]; b[700000] = 9; return 0; }",
            label="oob store",
        )

    def test_unmapped_load(self):
        assert_all_agree(
            "int main() { int *p; p = (int *) 3145728; return *p; }",
            label="unmapped load",
        )

    def test_division_by_zero_trap(self):
        assert_all_agree(
            "int main() { int d; d = 0; return 7 / d; }",
            label="div by zero",
        )

    def test_negative_vla_fault(self):
        assert_all_agree(
            "int main() { int n; n = 0 - 3; int v[n]; v[0] = 1;"
            " return v[0]; }",
            label="negative vla",
        )

    def test_runaway_recursion_hits_call_depth(self):
        assert_all_agree(
            "int f(int x) { return f(x + 1); } int main() { return f(0); }",
            label="runaway recursion",
        )

    def test_deep_recursion_under_the_limit(self):
        # 2000 guest frames: deep Python recursion through jitted calls,
        # but within the VM's 4096 depth limit.
        assert_all_agree(
            "int f(int n) { if (n <= 0) { return 0; } return 1 + f(n - 1); }"
            " int main() { return f(2000) - 2000; }",
            label="deep recursion",
        )

    def test_undefined_value_diagnostic_matches(self):
        # Both engines surface non-dominating IR as the same host VMError
        # (the fuzzer's harness treats any difference as a finding).
        from repro.fuzz.oracles import check_program

        verdict = check_program(
            "int main() { int x; if (0) { x = 1; } return x; }",
            oracles=("dispatch", "jit"),
        )
        assert verdict.ok, [str(f) for f in verdict.findings]


class TestDeoptBoundary:
    """Step-limit deopts: the JIT hands frames to the interpreter with
    exact accounting at every possible block position."""

    SOURCE = """
    int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
    int main() { print_int(fib(%d)); return 0; }
    """

    def test_every_limit_bit_identical(self):
        for n in (10, 12):
            source = self.SOURCE % n
            result = Machine(compile_source(source)).run()
            assert result.outcome == "exit"
            full = result.steps
            # Every limit: deopt can land at any block of any frame depth.
            for limit in list(range(1, 120)) + list(range(full - 5, full + 2)):
                assert_all_agree(
                    source, max_steps=limit, label=f"fib({n}) limit {limit}"
                )

    def test_limit_sweep_on_faulting_program(self):
        source = (
            "int main() { int b[2]; int i;"
            " for (i = 0; i < 100; i = i + 1) { b[0] = i; }"
            " b[800000] = 1; return 0; }"
        )
        full = Machine(compile_source(source)).run().steps
        for limit in range(max(1, full - 6), full + 3):
            assert_all_agree(source, max_steps=limit, label=f"limit {limit}")


class TestObservedRunsDeopt:
    """Machines with observers attached skip the JIT loop but stay
    bit-identical — including their event streams."""

    def test_traced_jit_run_equals_traced_fast_run(self):
        from repro.obs import Tracer, validate_events

        workload = get_workload("libquantum")
        streams = []
        results = []
        for engine in ("jit-eager", "fast"):
            tracer = Tracer(record_writes="all")
            machine = Machine(
                compile_source(workload.source, "libquantum"),
                inputs=list(workload.inputs),
                engine=engine,
                tracer=tracer,
            )
            results.append(machine.run())
            assert not validate_events(tracer.events)
            streams.append(tracer.events)
        assert_identical(results[0], results[1], "traced jit")
        assert streams[0] == streams[1]

    def test_traced_jit_machine_never_compiles(self):
        from repro.obs import Tracer
        from repro.vm.interpreter import Machine as M

        machine = M(
            compile_source("int main() { return 0; }"),
            engine="jit-eager",
            tracer=Tracer(),
        )
        machine.run()
        assert machine._jit_engine is None

    def test_probe_frames_on_jit_machine(self):
        # crosscheck-style probing: push a real frame, corrupt it, pop.
        # The probe machinery never executes code, so a jit machine must
        # serve it exactly like an interpreter machine.
        source = (
            "int victim(int n) { int buf[4]; int secret;"
            " buf[0] = n; secret = 99; return secret; }"
            " int main() { return victim(1) - 99; }"
        )
        layouts = []
        for engine in ("jit-eager", "fast"):
            machine = Machine(compile_source(source), engine=engine)
            assert machine.run().exit_code == 0
            frame = machine.push_probe_frame("victim")
            layouts.append(sorted(frame.alloca_addresses.values()))
            machine.pop_probe_frame()
        assert layouts[0] == layouts[1]

    def test_crosscheck_accepts_jit_machine_module(self):
        from repro.analysis.crosscheck import crosscheck_module

        module = compile_source(
            "int main() { char buf[8]; int guard;"
            " guard = 7; buf[0] = 1; return guard - 7; }"
        )
        Machine(module, engine="jit-eager").run()  # warm the shared code cache
        results = crosscheck_module(ProgramFacts(module=module))
        assert results and all(r.ok for r in results)


class TestEngineSelection:
    def test_unknown_engine_is_rejected(self):
        with pytest.raises(VMError, match="unknown engine 'turbo'"):
            Machine(compile_source("int main() { return 0; }"), engine="turbo")

    def test_plain_slow_machine_has_no_decoder(self):
        machine = Machine(
            compile_source("int main() { return 0; }"), engine="slow"
        )
        assert machine._decoder is None

    def test_shared_cache_across_machines_is_bit_identical(self):
        module = compile_source(
            "int main() { int s = 0; for (int i = 0; i < 40; i = i + 1)"
            " { s = s + i; } print_int(s); return 0; }"
        )
        first = Machine(module, engine="jit-eager").run()
        second = Machine(module, engine="jit-eager").run()  # cache hit
        assert_identical(second, first, "cache reuse")

    def test_benchsuite_runner_jit_flag(self):
        from repro.benchsuite.runner import run_baseline

        workload = get_workload("libquantum")
        jit = run_baseline(workload, engine="jit-eager")
        fast = run_baseline(workload, engine="fast")
        assert jit == fast


class TestProcessGlobalState:
    """The JIT's two pieces of process-global state — the host recursion
    limit and the shared code cache — must survive traps, nesting, and
    concurrent use (the serve worker model runs many machines per
    process)."""

    TRAP_MID_RECURSION = (
        "int f(int n) { if (n >= 100) { int d; d = 0; return 7 / d; }"
        " return f(n + 1); }"
        " int main() { return f(0); }"
    )

    def test_limit_identical_after_trap_mid_recursion(self):
        import sys

        before = sys.getrecursionlimit()
        result = Machine(
            compile_source(self.TRAP_MID_RECURSION), engine="jit-eager"
        ).run()
        assert result.outcome == "trap"
        assert sys.getrecursionlimit() == before

    def test_limit_identical_after_fault_and_step_limit(self):
        import sys

        before = sys.getrecursionlimit()
        Machine(
            compile_source(
                "int main() { int b[2]; b[700000] = 9; return 0; }"
            ),
            engine="jit-eager",
        ).run()
        assert sys.getrecursionlimit() == before
        Machine(
            compile_source(self.TRAP_MID_RECURSION),
            engine="jit-eager",
            max_steps=37,
        ).run()
        assert sys.getrecursionlimit() == before

    def test_reentrancy_counter_restores_only_at_depth_zero(self):
        import sys

        from repro.vm.jit import (
            JIT_RECURSION_LIMIT,
            enter_jit_recursion,
            exit_jit_recursion,
            jit_recursion_depth,
        )

        assert jit_recursion_depth() == 0
        before = sys.getrecursionlimit()
        assert before < JIT_RECURSION_LIMIT
        enter_jit_recursion()
        try:
            assert sys.getrecursionlimit() == JIT_RECURSION_LIMIT
            enter_jit_recursion()
            try:
                assert jit_recursion_depth() == 2
            finally:
                exit_jit_recursion()
            # An inner exit (this was the clobber) must NOT restore while
            # an outer jitted run is still active.
            assert sys.getrecursionlimit() == JIT_RECURSION_LIMIT
        finally:
            exit_jit_recursion()
        assert sys.getrecursionlimit() == before
        assert jit_recursion_depth() == 0

    def test_unmatched_exit_raises(self):
        from repro.vm.jit import exit_jit_recursion

        with pytest.raises(RuntimeError):
            exit_jit_recursion()

    def test_nested_machine_via_input_hook(self):
        import sys

        from repro.vm.jit import JIT_RECURSION_LIMIT

        inner_module = compile_source(
            "int f(int n) { if (n <= 0) { return 0; }"
            " return 1 + f(n - 1); }"
            " int main() { return f(200) - 200; }"
        )
        seen = {}

        def hook(machine):
            inner = Machine(inner_module, engine="jit-eager").run()
            seen["inner_outcome"] = inner.outcome
            # After the nested jitted run exits, the limit must still be
            # raised for the outer run that is mid-flight.
            seen["limit_during_outer"] = sys.getrecursionlimit()
            return b"x"

        before = sys.getrecursionlimit()
        outer = Machine(
            compile_source(
                "int main() { char b[8]; input_read(b, 8); return 0; }"
            ),
            input_hook=hook,
            engine="jit-eager",
        ).run()
        assert outer.outcome == "exit"
        assert seen["inner_outcome"] == "exit"
        assert seen["limit_during_outer"] == JIT_RECURSION_LIMIT
        assert sys.getrecursionlimit() == before

    def test_concurrent_compile_and_clear_stress(self):
        import threading

        from repro.vm.jit import clear_code_cache

        module = compile_source(
            "int add(int a, int b) { return a + b; }"
            " int main() { int s = 0;"
            " for (int i = 0; i < 30; i = i + 1) { s = add(s, i); }"
            " print_int(s); return s - 435; }"
        )
        reference = Machine(module, engine="jit-eager").run()
        errors = []
        stop = threading.Event()

        def hammer_runs():
            try:
                for _ in range(8):
                    result = Machine(module, engine="jit-eager").run()
                    assert_identical(result, reference, "threaded run")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)
            finally:
                stop.set()

        def hammer_clears():
            while not stop.is_set():
                clear_code_cache()

        runners = [threading.Thread(target=hammer_runs) for _ in range(8)]
        clearer = threading.Thread(target=hammer_clears)
        clearer.start()
        for thread in runners:
            thread.start()
        for thread in runners:
            thread.join()
        stop.set()
        clearer.join()
        assert not errors, errors


class TestDefaultEngine:
    """The tiered JIT is the default engine; ``Machine.__init__``
    resolves the engine name, once, into the booleans ``run`` reads."""

    SOURCE = (
        "int add(int a, int b) { return a + b; }"
        " int main() { int s = 0;"
        " for (int i = 0; i < 30; i = i + 1) { s = add(s, i); }"
        " print_int(s); return 0; }"
    )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_resolution(self, engine):
        machine = Machine(compile_source(self.SOURCE), engine=engine)
        expect_jit = engine.startswith("jit")
        assert machine.jit is expect_jit
        assert machine.fast_dispatch is (engine != "slow")
        # A decoder exactly when not "slow"; only "jit" is tiered.
        assert (machine._decoder is not None) is (engine != "slow")
        assert (machine._hot is not None) is (engine == "jit")
        assert machine.run().int_outputs == [435]
        # Only a JIT machine builds an engine, and only when it runs.
        assert (machine._jit_engine is not None) is expect_jit

    def test_traced_default_machine_deopts_like_predecoded(self):
        from repro.obs import Tracer, validate_events
        from repro.obs.metrics import get_registry

        workload = get_workload("libquantum")
        registry = get_registry()
        runs = {}
        for label, engine_kwargs in (("default", {}), ("fast", {"engine": "fast"})):
            registry.reset()
            tracer = Tracer(record_writes="all")
            machine = Machine(
                compile_source(workload.source, "libquantum"),
                inputs=list(workload.inputs),
                tracer=tracer,
                **engine_kwargs,
            )
            result = machine.run()
            assert not validate_events(tracer.events)
            counters = registry.snapshot()["counters"]
            runs[label] = (result, tracer.events, counters)
            assert machine._jit_engine is None
        default_result, default_events, default_counters = runs["default"]
        fast_result, fast_events, fast_counters = runs["fast"]
        assert default_counters["jit_deopts_total{reason=tracer}"] == 1
        assert "jit_deopts_total{reason=tracer}" not in fast_counters
        assert_identical(default_result, fast_result, "traced default")
        assert default_events == fast_events

    @pytest.mark.parametrize("name", ["proftpd", "wireshark", "sjeng", "hmmer"])
    def test_measure_workload_default_equals_predecoded(self, name):
        from repro.benchsuite.runner import measure_workload

        default = measure_workload(name)
        fast = measure_workload(name, engine="fast")
        assert default.pbox_bytes == fast.pbox_bytes
        assert list(default.hardened) == list(fast.hardened)
        pairs = [("baseline", default.baseline, fast.baseline)] + [
            (scheme, default.hardened[scheme], fast.hardened[scheme])
            for scheme in default.hardened
        ]
        for label, got, want in pairs:
            for field in ("cycles", "steps", "max_rss", "int_outputs"):
                assert getattr(got, field) == getattr(want, field), (
                    f"{name} [{label}] {field}"
                )


class TestTiering:
    """The default engine interprets a function until it runs hot, then
    hands the running frame to compiled code: at a hot call site (the
    callee runs compiled) or a hot loop back-edge (the frame resumes
    compiled at the loop header).  Every hand-over is bit-identical."""

    LOOPS = """
    int sq(int x) { return x * x; }
    int main() { long s = 0; int i; int j;
      for (i = 0; i < 40; i = i + 1) {
        for (j = 0; j < i; j = j + 1) { s = s + sq(j) - i; }
      }
      print_int((int)s); return 0; }
    """

    @staticmethod
    def compiled_names(machine):
        return {function.name for function in machine._decoder.compiled}

    def test_short_run_compiles_nothing(self):
        source = TestDefaultEngine.SOURCE  # 30 calls, 30 loop trips
        machine = Machine(compile_source(source))
        result = machine.run()
        assert self.compiled_names(machine) == set()
        fast = Machine(compile_source(source), engine="fast").run()
        assert_identical(result, fast, "short run")

    def test_hot_call_site_compiles_callee(self):
        calls, trips = interpreter.HOT_THRESHOLDS
        source = (
            "int sq(int x) { return x * x; }"
            " int main() { int s = 0;"
            f" for (int i = 0; i < {calls + 10}; i = i + 1)"
            " { s = s + sq(i); }"
            " print_int(s); return 0; }"
        )
        assert calls + 10 < trips  # main's loop itself stays cold
        machine = Machine(compile_source(source))
        result = machine.run()
        assert self.compiled_names(machine) == {"sq"}
        fast = Machine(compile_source(source), engine="fast").run()
        assert_identical(result, fast, "hot call site")

    def test_hot_loop_resumes_compiled(self):
        # libquantum: one loop nest in main, no guest calls.
        workload = get_workload("libquantum")
        machine = Machine(
            compile_source(workload.source, "libquantum"),
            inputs=list(workload.inputs),
        )
        result = machine.run()
        assert self.compiled_names(machine) == {"main"}
        fast = Machine(
            compile_source(workload.source, "libquantum"),
            inputs=list(workload.inputs),
            engine="fast",
        ).run()
        assert_identical(result, fast, "hot loop")

    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_every_limit_through_loop_hand_overs(self, opt_level):
        # -O2 loop headers carry phis: the hand-over must pick up their
        # values from frame.env.  Each step limit puts the deopt (and
        # the next hand-over) at another instruction.
        def run(max_steps):
            return Machine(
                compile_source(self.LOOPS, opt_level=opt_level),
                max_steps=max_steps,
                engine="fast",
            ).run()

        full = run(10**9).steps
        for limit in list(range(1, 400, 7)) + list(range(full - 3, full + 2)):
            fast = run(limit)
            for thresholds in LOW_THRESHOLDS:
                with hot_thresholds(*thresholds):
                    machine = Machine(
                        compile_source(self.LOOPS, opt_level=opt_level),
                        max_steps=limit,
                    )
                assert_identical(
                    machine.run(), fast, f"O{opt_level} limit {limit} {thresholds}"
                )
        with hot_thresholds(2, 3):
            machine = Machine(compile_source(self.LOOPS, opt_level=opt_level))
        assert_identical(machine.run(), run(10**9), "full run")
        assert self.compiled_names(machine) == {"main", "sq"}


def compile_function(module, function_name, **machine_kwargs):
    """(compiler, source) of one function: the compiler maps IR values
    to their locals (``names``) and cells (``bindings``)."""
    from repro.vm.jit import _FunctionCompiler

    machine = Machine(module, engine="jit-eager", **machine_kwargs)
    compiler = _FunctionCompiler(machine, module.functions[function_name])
    return compiler, compiler.generate()[0]


def jit_source(module, function_name, **machine_kwargs):
    """The source the JIT generates for one function of ``module``."""
    return compile_function(module, function_name, **machine_kwargs)[1]


def hardened_runs(source_text, engines=("jit-eager", "jit", "slow"), **kwargs):
    """One Smokestack-hardened run per engine, at one permutation seed."""
    from repro.core.pipeline import harden_source
    from repro.rng.entropy import DeterministicEntropy
    from repro.rng.sources import make_source

    results = []
    for engine in engines:
        module = harden_source(source_text).module
        results.append(
            Machine(
                module,
                rng_source=make_source("aes-10", DeterministicEntropy(3)),
                engine=engine,
                **kwargs,
            ).run()
        )
    return results


class TestSlotAccess:
    """Loads and stores through a stack slot of the running frame skip
    the segment range tests: a static alloca, or a constant offset into
    one, is accessed at its precomputed offset ``o<N>``; a run-time
    offset (arrays, Smokestack's P-BOX slot pointers) is guarded once
    where it is defined, and every access falls back to the stack
    window (or ``Memory``) when the guard failed."""

    SCALARS = (
        "struct P { int x; long y; };"
        " int f(int a) { int b; long c; struct P p; b = a + 1; c = b * 2;"
        " p.x = b; p.y = c; return p.x + (int)p.y; }"
        " int main() { print_int(f(4)); return 0; }"
    )

    def test_direct_slots_have_no_window_test(self):
        source = jit_source(compile_source(self.SCALARS), "f")
        assert re.search(r"K\d+\(_SD, o\d+", source)
        assert "_t - _SB" not in source  # no window access
        assert "_t >= _SB" not in source and "_SE" not in source.split("def _body")[1]
        assert "_stack_hwm_low" not in source
        assert_all_agree(self.SCALARS, label="direct slots")

    def test_load_wider_than_its_alloca_takes_the_windows(self):
        from repro.ir import Constant, Function, IRBuilder, Module
        from repro.minic import types as ct

        def build():
            module = Module("wide")
            function = Function("main", ct.INT, [], [])
            builder = IRBuilder(function, function.new_block("entry"))
            low = builder.alloca(ct.INT)
            high = builder.alloca(ct.INT)
            builder.store(Constant(ct.INT, 7), low)
            builder.store(Constant(ct.INT, 9), high)
            wide = builder.load(builder.convert(low, ct.PointerType(ct.LONG)))
            narrow = builder.load(low)
            mixed = builder.xor(wide, builder.convert(narrow, ct.LONG))
            builder.ret(builder.convert(builder.shr(mixed, Constant(ct.LONG, 29)), ct.INT))
            module.add_function(function)
            return module

        source = jit_source(build(), "main")
        assert "_t >= _SB" in source  # the 8-byte load of a 4-byte slot
        assert re.search(r"K\d+\(_SD, o\d+", source)  # 4-byte accesses stay direct
        results = {
            engine: Machine(build(), engine=engine).run()
            for engine in ("jit-eager", "fast", "slow")
        }
        assert results["slow"].exit_code not in (0, None)
        assert_identical(results["jit-eager"], results["slow"], "wide load")
        assert_identical(results["fast"], results["slow"], "wide load (fast)")

    OVERFLOW = (
        "int fill(int n) { int guard; int b[4]; int i; guard = 5;"
        " for (i = 0; i < n; i = i + 1) { b[i] = i * 3; }"
        " return guard + b[1]; }"
        " int main() { int s; s = fill(4); print_int(s);"
        " print_int(fill(%d)); return 0; }"
    )

    #: writes below the frame, into stack no frame has touched yet: the
    #: fallback must lower the high-water mark (``max_rss``)
    UNDERFLOW = (
        "int fill(int n) { int b[4]; int i; b[0] = 1;"
        " for (i = 0; i < n; i = i + 1) { b[0 - i] = i; }"
        " return b[0]; }"
        " int main() { print_int(fill(2)); print_int(fill(%d)); return 0; }"
    )

    @pytest.mark.parametrize(
        "program, count",
        [
            (OVERFLOW, 5), (OVERFLOW, 9), (OVERFLOW, 40), (OVERFLOW, 300000),
            (UNDERFLOW, 3000),
        ],
    )
    def test_overflow_loop_fails_the_guard_like_slow(self, program, count):
        source_text = program % count
        assert "if o" in jit_source(compile_source(source_text), "fill")
        jit = assert_all_agree(source_text, label=f"overflow {count}")
        if count == 300000:
            assert jit.outcome == "fault"
        jit, tiered, reference = hardened_runs(source_text)
        assert_identical(jit, reference, f"hardened overflow {count}")
        assert_identical(tiered, reference, f"hardened overflow {count} tiered")
        with hot_thresholds(1, 1):
            (low,) = hardened_runs(source_text, engines=("jit",))
        assert_identical(low, reference, f"hardened overflow {count} low")

    LOOP = (
        "int main() { int a[8]; long s; int i; int k; s = 0;"
        " for (k = 0; k < 6; k = k + 1) {"
        "   for (i = 0; i < 8; i = i + 1) { a[i] = a[(i + k) % 8] + i * k; }"
        "   s = s + a[k]; }"
        " print_int((int)s); return 0; }"
    )

    def test_tier_up_at_loop_header_restores_offsets(self):
        from repro.vm import jit as jit_module

        source = jit_source(compile_source(self.LOOP), "main")
        restore = source.split("        if _b:\n")[1].split("        else:\n")[0]
        assert " - _SB\n" in restore  # direct slots
        assert " else -1\n" in restore  # guarded array pointers
        calls = []
        original = jit_module.JitEngine._tier_up

        def spy(engine, frame, at_loop_header):
            calls.append(at_loop_header)
            return original(engine, frame, at_loop_header)

        jit_module.JitEngine._tier_up = spy
        try:
            assert_all_agree(self.LOOP, label="tier-up loop")
            jit, tiered, reference = hardened_runs(self.LOOP)
            assert_identical(tiered, reference, "hardened tier-up")
            for thresholds in LOW_THRESHOLDS:
                with hot_thresholds(*thresholds):
                    (low,) = hardened_runs(self.LOOP, engines=("jit",))
                assert_identical(low, reference, f"hardened tier-up {thresholds}")
        finally:
            jit_module.JitEngine._tier_up = original
        assert True in calls  # some frame resumed compiled at a loop header

    def test_cleanstack_unclean_slots_match_slow(self):
        from repro.analysis.partition import machine_partition, partition_module

        source_text = (
            "int serve(int n) { char req[16]; int t0; int i; t0 = 3;"
            " for (i = 0; i < n; i = i + 1) { req[i] = (char)(65 + i); }"
            " input_read(req, 16); return t0 + req[0] + req[n - 1]; }"
            " int main() { int s; int k; s = 0;"
            " for (k = 1; k < 40; k = k + 1) { s = s + serve(k % 16 + 1); }"
            " print_int(s); print_int(serve(60)); return 0; }"
        )
        module = compile_source(source_text, "clean")
        unclean = machine_partition(partition_module(module))
        assert unclean.get("serve")
        results = {}
        for engine in ("jit-eager", "jit", "slow"):
            with hot_thresholds(2, 3):
                machine = Machine(
                    compile_source(source_text, "clean"),
                    inputs=[b"xy"] * 41,
                    clean_partition=unclean,
                    unsafe_stack_offset=4096,
                    engine=engine,
                )
            results[engine] = machine.run()
        assert results["slow"].int_outputs
        for engine in ("jit-eager", "jit"):
            assert_identical(results[engine], results["slow"], f"cleanstack {engine}")


class TestIntegerRanges:
    """The JIT drops a wrap or mask that is the identity on its
    operand's value range and guards every other signed wrap with an
    in-range test.  Values at and across every integer type's limits
    must still come out exactly as the interpreters compute them."""

    PROGRAMS = {
        "int-limits": (
            "int add(int a, int b) { return a + b; }"
            " int main() { int big = 2147483647; int small = -2147483647 - 1;"
            " long l = big; long m = 9223372036854775807;"
            " print_int(big + 1); print_int(small - 1); print_int(big * 2);"
            " print_int(small * -1); print_int(add(big, 1)); print_int(add(small, -1));"
            " l = l + 1; print_int(l); print_int(m + 1); return 0; }",
            [-2147483648, 2147483647, -2, -2147483648, -2147483648, 2147483647,
             2147483648, -9223372036854775808],
        ),
        "narrow-wraps": (
            "int main() { char c = 127; char d = -128; unsigned char uc = 255;"
            " unsigned char uz = 0; short s = 32767; unsigned short us = 0;"
            " unsigned int u = 0; unsigned int v = 4294967295;"
            " c = c + 1; d = d - 1; uc = uc + 1; uz = uz - 1; s = s + 1;"
            " us = us - 1; u = u - 1; v = v + 1;"
            " print_int(c); print_int(d); print_int(uc); print_int(uz);"
            " print_int(s); print_int(us); print_int(u); print_int(v); return 0; }",
            [-128, 127, 0, 255, -32768, 65535, 4294967295, 0],
        ),
        "casts": (
            "int main() { int i = -1; unsigned int u = 4294967295;"
            " long big = 4294967296 + 5; unsigned long ul = (unsigned long)(-1);"
            " long l = i; long lu = u; int t = (int)big;"
            " print_int(l); print_int(lu); print_int(t); print_int((char)300);"
            " print_int((unsigned char)(-1)); print_int((short)65535);"
            " print_int((int)(unsigned char)200); print_int((long)(char)200);"
            " print_int(ul); print_int((int)(ul >> 33));"
            " print_int((unsigned short)(char)(-3)); return 0; }",
            [-1, 4294967295, 5, 44, 255, -1, 200, -56, -1, 2147483647, 65533],
        ),
        "negative-stores": (
            "int main() { char cs[4]; unsigned char cu[4]; short ss[2];"
            " unsigned short su[2]; unsigned int ui[2]; long ls[2]; int k;"
            " for (k = 0; k < 4; k = k + 1) { cs[k] = k - 2; cu[k] = k - 2; }"
            " ss[0] = -1; su[0] = -1; ui[0] = -5; ls[0] = -7;"
            " ss[1] = 40000; su[1] = 70000; ui[1] = -2147483647 - 1; ls[1] = 4294967295;"
            " for (k = 0; k < 4; k = k + 1) { print_int(cs[k]); print_int(cu[k]); }"
            " print_int(ss[0]); print_int(su[0]); print_int(ui[0]); print_int(ls[0]);"
            " print_int(ss[1]); print_int(su[1]); print_int(ui[1]); print_int(ls[1]);"
            " return 0; }",
            [-2, 254, -1, 255, 0, 0, 1, 1, -1, 65535, 4294967291, -7, -25536, 4464,
             2147483648, 4294967295],
        ),
        "compare-chains": (
            "int classify(int x, unsigned int u) { int r = 0;"
            " if (x < 0) { r = r + 1; } if (x >= 2147483647) { r = r + 2; }"
            " if (!(x == -2147483647 - 1)) { r = r + 4; }"
            " if (u > 2147483647) { r = r + 8; }"
            " if (x < 10 && u != 0) { r = r + 16; }"
            " if (x > 5 || u < 3) { r = r + 32; } return r; }"
            " int main() { int xs[5]; unsigned int us[5]; int k; long a = 0;"
            " xs[0] = -2147483647 - 1; xs[1] = -1; xs[2] = 0; xs[3] = 7; xs[4] = 2147483647;"
            " us[0] = 0; us[1] = 4294967295; us[2] = 2147483648; us[3] = 1; us[4] = 3;"
            " for (k = 0; k < 5; k = k + 1) { print_int(classify(xs[k], us[k])); }"
            " while (a < 3000000000) { a = a + 1000000000; } print_int(a); return 0; }",
            [33, 29, 28, 52, 38, 3000000000],
        ),
        "shifts-and-bits": (
            "int main() { int h = 5381; int i; unsigned int uh = 2166136261; char c = -1;"
            " for (i = 0; i < 50; i = i + 1) { h = (h << 5) + h + i; h = h ^ (h >> 7); }"
            " print_int(h);"
            " for (i = 0; i < 50; i = i + 1) { uh = (uh ^ i) * 16777619;"
            " uh = uh >> 1 | uh << 31; }"
            " print_int(uh); print_int(c & 255); print_int(c | 256); print_int(c ^ 127);"
            " return 0; }",
            [1128489249, 2991498891, 255, -1, -128],
        ),
    }

    @pytest.mark.parametrize("opt_level", [0, 2])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_limits_match_slow(self, name, opt_level):
        source_text, expected = self.PROGRAMS[name]
        jit = assert_all_agree(source_text, label=name, opt_level=opt_level)
        assert jit.int_outputs == expected

    def test_sext_of_an_int_load_is_not_wrapped(self):
        from repro.ir import instructions as ir

        module = compile_source(
            "int main() { int a = -5; long b = a; print_int(b); return 0; }"
        )
        compiler, source = compile_function(module, "main")
        (sext,) = [
            inst for block in module.functions["main"].blocks
            for inst in block.instructions
            if isinstance(inst, ir.Cast) and inst.kind == "sext"
        ]
        load = compiler.names[id(sext.value)]
        assert f"{compiler.names[id(sext)]} = ({load})\n" in source
        assert "_w" not in source

    def test_int_store_packs_signed(self):
        from repro.vm.jit import _PACK

        source_text = (
            "int main() { int a = 7; int b; b = a - 9; print_int(b); return 0; }"
        )
        compiler, source = compile_function(compile_source(source_text), "main")
        cells = {name: payload for name, _, payload in compiler.bindings}
        # b = a - 9 is a wrapped int: stored as it is, through "<i"
        stores = re.findall(r"(K\d+)\(_SD, o\d+, v\d+\)", source)
        assert stores
        for cell in stores:
            assert cells[cell] == _PACK[4, True]
        assert_all_agree(source_text, label="signed store")


class TestFusedBranches:
    """A compare whose only use is its block's branch (directly or
    through ``ne c, 0``) becomes the branch test.  Step-limit deopts,
    faults and undefined operands in such a block still match the
    interpreters exactly."""

    LOOP = (
        "int main() { int b[4]; int i; int s; s = 0;"
        " for (i = 0; i < 30; i = i + 1) { if (s > 40) { s = s - 7; }"
        " else { s = s + i; } }"
        " print_int(s); return 0; }"
    )

    #: the fused compare's block loads through an index that leaves the
    #: stack on the second trip
    FAULT = (
        "int main() { int b[4]; int i; int s; s = 0; b[0] = 5;"
        " for (i = 0; i < 10; i = i + 1) { if (b[i * 300000] > 3) { s = s + 1; } }"
        " print_int(s); return 0; }"
    )

    def test_branch_compares_are_not_materialized(self):
        for opt_level in (0, 2):
            source = jit_source(compile_source(self.LOOP, opt_level=opt_level), "main")
            assert "1 if" not in source
            assert re.search(r"if \(v\d+\) < \(30\):", source)

    def test_every_limit_bit_identical(self):
        full = Machine(compile_source(self.LOOP)).run().steps
        for limit in list(range(1, 80)) + list(range(full - 5, full + 2)):
            assert_all_agree(self.LOOP, max_steps=limit, label=f"fused limit {limit}")

    def test_fault_in_fused_block(self):
        full = Machine(compile_source(self.FAULT)).run().steps
        for limit in (None,) + tuple(range(full - 8, full + 2)):
            jit = assert_all_agree(self.FAULT, max_steps=limit, label=f"limit {limit}")
        assert jit.outcome == "fault"

    def test_undefined_operand_charged_at_the_compare(self):
        from repro.ir import Constant, Function, IRBuilder, Module
        from repro.minic import types as ct

        def build():
            module = Module("undefined")
            function = Function("main", ct.INT, [], [])
            entry = function.new_block("entry")
            late = function.new_block("late")
            test = function.new_block("test")
            yes = function.new_block("yes")
            no = function.new_block("no")
            builder = IRBuilder(function, entry)
            builder.cond_br(Constant(ct.INT, 0), late, test)
            builder.position_at_end(late)
            value = builder.add(Constant(ct.INT, 1), Constant(ct.INT, 2))
            builder.br(test)
            builder.position_at_end(test)
            builder.cond_br(builder.cmp("slt", value, Constant(ct.INT, 5)), yes, no)
            builder.position_at_end(yes)
            builder.ret(Constant(ct.INT, 1))
            builder.position_at_end(no)
            builder.ret(Constant(ct.INT, 2))
            module.add_function(function)
            return module

        assert "1 if" not in jit_source(build(), "main")
        # The run ends in a host VMError; the counters it leaves behind
        # show where each engine charged the failing instruction.
        seen = {}
        for engine in ("jit-eager", "fast", "slow"):
            machine = Machine(build(), engine=engine)
            with pytest.raises(VMError, match="undefined value") as caught:
                machine.run()
            seen[engine] = (str(caught.value), machine._steps, machine.cost.cycle_units)
        assert seen["jit-eager"] == seen["slow"] == seen["fast"]


class TestBlockDispatch:
    """Blocks dispatch through a binary search on ``_b``: reaching any
    block costs a number of tests logarithmic in the block count."""

    @staticmethod
    def dispatch_tests(source, block_count):
        """For each block index, how many ``_b`` tests select its arm."""
        import ast

        body = ast.parse(source).body[0].body[-2].body  # _bind -> _body
        (loop,) = [node for node in body if isinstance(node, ast.While)]
        counts = []
        for index in range(block_count):
            statements, tests = loop.body, 0
            while len(statements) == 1 and isinstance(statements[0], ast.If):
                node = statements[0]
                tests += 1
                taken = eval(
                    compile(ast.Expression(node.test), "<test>", "eval"),
                    {"_b": index},
                )
                statements = node.body if taken else node.orelse
            counts.append(tests)
        return counts

    def test_dispatch_depth_is_logarithmic(self):
        import math

        branches = " ".join(
            f"if (x == {k}) {{ s = s + {k}; }}" for k in range(40)
        )
        source_text = (
            f"int f(int x) {{ int s; s = 0; {branches} return s; }}"
            " int main() { int k; long t; t = 0;"
            " for (k = 0; k < 45; k = k + 1) { t = t + f(k); }"
            " print_int(t); return 0; }"
        )
        module = compile_source(source_text)
        blocks = len(module.functions["f"].blocks)
        assert blocks > 64
        counts = self.dispatch_tests(jit_source(module, "f"), blocks)
        assert max(counts) <= math.ceil(math.log2(blocks)) + 3
        assert_all_agree(source_text, label="many blocks")


class TestRodataWindow:
    """Loads through a read-only global (string literals, the P-BOX)
    read the rodata buffer inline; stores through one still reach
    ``Memory`` and fault exactly."""

    PROGRAM = (
        "int main() { char *s = \"hello\"; int i; long t = 0;"
        " for (i = 0; i < 6; i = i + 1) { t = t * 31 + s[i]; }"
        " print_int(t); print_int(s[%s]); s[0] = 106; return 0; }"
    )

    @pytest.mark.parametrize("index", ["2", "5", "4000", "1048576", "0 - 4096"])
    def test_literal_loads_and_store_match(self, index):
        source_text = self.PROGRAM % index
        assert "_RDD" in jit_source(compile_source(source_text, opt_level=2), "main")
        for opt_level in (0, 2):
            jit = assert_all_agree(source_text, label=index, opt_level=opt_level)
            assert jit.outcome == "fault"

    def test_pbox_loads_use_the_window(self):
        from repro.core.pipeline import harden_source
        from repro.rng.entropy import DeterministicEntropy
        from repro.rng.sources import make_source

        module = harden_source(get_workload("hmmer").source, None, "hmmer").module
        source = jit_source(
            module, "viterbi_row",
            rng_source=make_source("aes-10", DeterministicEntropy(0)),
        )
        assert "(_RDD, _t - " in source
        assert "_RD(_t, 4, False)" in source  # the fallback stays


class TestFloatWindows:
    """Float loads and stores use the same stack/data windows as integer
    ones (``struct`` ``unpack_from``/``pack_into``), and everything else
    goes through ``Memory.read_float``/``write_float``: values, f32
    rounding and faults match the interpreters."""

    PROGRAM = (
        "float g_f[4]; double g_d[4];"
        " int main() { float f; double d; float *hf; double *hd; int i;"
        "  f = (float)1 / (float)3; d = (double)2 / (double)3;"
        "  hf = (float *)malloc(16); hd = (double *)malloc(32);"
        "  for (i = 0; i < 4; i = i + 1) {"
        "    g_f[i] = f * (float)i; g_d[i] = d * (double)i;"
        "    hf[i] = g_f[i] + f; hd[i] = g_d[i] + d; }"
        "  d = (double)1; for (i = 0; i < 200; i = i + 1) { d = d * (double)1000; }"
        "  f = (float)d; hf[3] = f; g_f[2] = hf[1] * (float)7;"
        "  print_int((int)(hf[1] * (float)3000000) + (int)(hd[2] * (double)3000000));"
        "  print_int((int)(g_f[3] * (float)3000000) + (int)(g_d[3] * (double)3000000));"
        "  if (hf[3] > (float)1000000) { print_int(1); }"
        "  print_int((int)(g_f[2] * (float)7)); %s return 0; }"
    )

    def test_stack_data_and_heap_floats(self):
        source_text = self.PROGRAM % ""
        jit = assert_all_agree(source_text, label="floats")
        assert jit.outcome == "exit" and len(jit.int_outputs) == 4
        body = jit_source(compile_source(source_text), "main")
        # direct slots (a store's call reads its offset before its value)
        assert re.search(r"= K\d+\(_SD, o\d+\)\[0\]", body)
        assert re.search(r"\(_SD, o\d+, _F32\(float\(", body)
        assert re.search(r"\(_SD, o\d+, float\(", body)
        assert "(_DD, _t - " in body  # data window
        jit, tiered, reference = hardened_runs(source_text)
        assert_identical(jit, reference, "hardened floats")
        assert_identical(tiered, reference, "hardened floats tiered")

    @pytest.mark.parametrize(
        "access",
        [
            "f = *((float *)3145728);",  # past the data segment: unmapped
            "*((double *)3145728) = d;",
            "*((double *)0) = d;",  # null page
            "d = *((double *)16);",
            "*((float *)\"abcdefgh\") = f;",  # rodata is read-only
            "f = *((float *)\"abcdefgh\"); print_int((int)f);",
            "*((double *)8388604) = d;",  # straddles the stack top
        ],
    )
    def test_float_faults_match(self, access):
        jit = assert_all_agree(self.PROGRAM % access, label=access)
        if "abcdefgh\"); print_int" not in access:
            assert jit.outcome == "fault"


class TestEveryFunctionCompiles:
    """``compiled_for`` turns a codegen exception into an interpreted
    function, so a broken emitter would leave every equivalence test
    green.  Every function of every workload, baseline and
    Smokestack-hardened, must compile."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_no_compile_errors(self, name):
        from repro.core.pipeline import harden_source
        from repro.rng.entropy import DeterministicEntropy
        from repro.rng.sources import make_source
        from repro.vm.jit import _CompiledFunction, _FunctionCompiler, compiled_for

        workload = get_workload(name)
        builds = (
            ("baseline", compile_source(workload.source, name), {}),
            (
                "hardened",
                harden_source(workload.source, None, name).module,
                {"rng_source": make_source("aes-10", DeterministicEntropy(0))},
            ),
        )
        for label, module, kwargs in builds:
            machine = Machine(module, engine="jit-eager", **kwargs)
            for function in module.functions.values():
                if not function.blocks:
                    continue
                entry = compiled_for(machine, function)
                if not isinstance(entry, _CompiledFunction):
                    # re-raise the swallowed codegen error, if any
                    _FunctionCompiler(machine, function).compile()
                assert isinstance(entry, _CompiledFunction), (
                    f"{label} {name}.{function.name}: {entry.reason}"
                )
