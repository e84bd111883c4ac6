"""Predecoded-dispatch equivalence: fast and slow paths must agree bit-for-bit.

The predecoded engine (:mod:`repro.vm.decode`) is a pure performance
layer: for every program — including ones that fault, trap, or hit the
step limit — it must produce exactly the ExecutionResult the
executor-table dispatch produces.  These tests pin that down across the
whole benchmark suite and hardened builds (the shared table in
:mod:`tests.workload_engines`) and across the error paths.
"""

import pytest

from repro.benchsuite.programs import WORKLOADS
from repro.core.pipeline import compile_source
from repro.vm.interpreter import RESULT_FIELDS, Machine
from tests.workload_engines import HARDENED_WORKLOADS, assert_engines_agree

#: Every ExecutionResult field (output_data included): the canonical
#: "bit-identical" definition, shared with the fuzzer's dispatch oracle.
COMPARED_FIELDS = RESULT_FIELDS


def assert_identical(fast, slow, label):
    for field in COMPARED_FIELDS:
        assert getattr(fast, field) == getattr(slow, field), (
            f"{label}: dispatch paths disagree on {field}: "
            f"{getattr(fast, field)!r} != {getattr(slow, field)!r}"
        )


def run_both(source_text, inputs=(), max_steps=None, **kwargs):
    results = []
    for engine in ("fast", "slow"):
        machine_kwargs = dict(kwargs, engine=engine)
        if max_steps is not None:
            machine_kwargs["max_steps"] = max_steps
        machine = Machine(
            compile_source(source_text),
            inputs=list(inputs),
            **machine_kwargs,
        )
        results.append(machine.run())
    return results


class TestWorkloadEquivalence:
    """The predecoded engine's rows of the engine-equivalence table."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_baseline_bit_identical(self, name):
        assert_engines_agree(name, ("fast",))

    @pytest.mark.parametrize("name", HARDENED_WORKLOADS)
    def test_hardened_bit_identical(self, name):
        assert_engines_agree(name, ("fast",), hardened=True)


class TestErrorPathEquivalence:
    def test_fault_bit_identical(self):
        fast, slow = run_both(
            "int main() { int *p = (int *)0; return *p; }"
        )
        assert fast.outcome == "fault"
        assert_identical(fast, slow, "null deref")

    def test_trap_bit_identical(self):
        fast, slow = run_both("int main() { return 1 / 0; }")
        assert fast.outcome == "trap"
        assert_identical(fast, slow, "div by zero")

    def test_step_limit_bit_identical(self):
        fast, slow = run_both(
            "int main() { while (1) {} return 0; }", max_steps=10_000
        )
        assert fast.outcome == "limit"
        assert_identical(fast, slow, "step limit")

    def test_oob_stack_write_bit_identical(self):
        # In-frame overflow: corrupts the neighbour, still exits cleanly.
        source = """
        int main() {
            int buf[2];
            int i;
            for (i = 0; i < 3; i = i + 1) { buf[i] = 7; }
            return buf[0];
        }
        """
        fast, slow = run_both(source)
        assert_identical(fast, slow, "stack overflow write")

    def test_oob_store_to_unmapped_gap_bit_identical(self):
        # 0x300000 sits in the hole between the data segment and the
        # heap: the store faults as "unmapped" with the same address on
        # both dispatch paths.
        fast, slow = run_both(
            "int main() { long *p = (long *)3145728; *p = 1; return 0; }"
        )
        assert fast.outcome == "fault"
        assert fast.fault_kind == "unmapped"
        assert fast.fault_address == 0x300000
        assert_identical(fast, slow, "unmapped store")

    def test_runtime_division_by_zero_bit_identical(self):
        # The divisor arrives through memory, so the predecoded engine
        # cannot fold it: this exercises the runtime sdiv trap in the
        # specialized binop step, not the decode-time constant path.
        source = """
        int main() {
            int d[1];
            d[0] = 0;
            return 7 / d[0];
        }
        """
        fast, slow = run_both(source)
        assert fast.outcome == "trap"
        assert_identical(fast, slow, "runtime div by zero")

    def test_runtime_srem_by_zero_bit_identical(self):
        source = """
        int main() {
            int z = 0;
            int *p = &z;
            return 7 % *p;
        }
        """
        fast, slow = run_both(source)
        assert fast.outcome == "trap"
        assert_identical(fast, slow, "runtime srem by zero")

    def test_step_limit_exact_boundary_bit_identical(self):
        # Find the program's natural step count, then pin max_steps to
        # exactly that (must exit) and one below (must hit the limit) —
        # the off-by-one zone where the two engines' step accounting
        # would first drift apart.
        source = """
        int main() {
            int total = 0;
            for (int i = 0; i < 5; i = i + 1) { total = total + i; }
            return total;
        }
        """
        reference, _ = run_both(source)
        assert reference.outcome == "exit"
        natural = reference.steps

        fast, slow = run_both(source, max_steps=natural)
        assert fast.outcome == "exit"
        assert_identical(fast, slow, "at exact step budget")

        fast, slow = run_both(source, max_steps=natural - 1)
        assert fast.outcome == "limit"
        # The limit trips on the first step *past* the budget.
        assert fast.steps == natural
        assert_identical(fast, slow, "one step short")


class TestDispatchToggle:
    def test_fast_dispatch_default_on(self):
        machine = Machine(compile_source("int main() { return 3; }"))
        assert machine._decoder is not None
        assert machine.run().exit_code == 3

    def test_slow_dispatch_has_no_decoder(self):
        machine = Machine(
            compile_source("int main() { return 3; }"), engine="slow"
        )
        assert machine._decoder is None
        assert machine.run().exit_code == 3

    def test_decoded_code_cached_per_block(self):
        machine = Machine(
            compile_source(
                "int f(int x) { return x + 1; }"
                "int main() { return f(1) + f(2) + f(3); }"
            )
        )
        assert machine.run().exit_code == 9
        decoder = machine._decoder
        # Each executed block was decoded once into a cached step list.
        assert decoder._cache
        for block, code in decoder._cache.items():
            # steps + the fell-off-block sentinel
            assert len(code) == len(block.instructions) + 1


class TestDecoderStaleness:
    """Re-transforming a module invalidates a reused machine's caches.

    The bug this pins down: ``Decoder._cache`` and
    ``Machine._static_allocas`` key on object identity of blocks and
    instructions.  ``optimize()`` and ``instrument_module()`` rewrite
    instruction lists in place, so a machine built *before* the rewrite
    would happily keep serving predecoded closures for detached blocks —
    stale code, silently wrong results.  ``Module.version`` is the
    invalidation token; ``Machine.run()`` resyncs on it.
    """

    SOURCE = """
    int helper(int x) { int y; y = x * 2; return y + 1; }
    int main() { int a; a = helper(10); print_int(a); return a - 21; }
    """

    def test_optimize_bumps_module_version(self):
        from repro.opt import optimize

        module = compile_source(self.SOURCE)
        before = module.version
        optimize(module, 2)
        assert module.version > before

    def test_instrument_bumps_module_version(self):
        from repro.core.instrument import instrument_module

        module = compile_source(self.SOURCE)
        before = module.version
        instrument_module(module)
        assert module.version > before

    def test_reused_machine_survives_reoptimize(self):
        from repro.opt import optimize

        module = compile_source(self.SOURCE)
        machine = Machine(module)
        first = machine.run()
        assert first.exit_code == 0
        steps_before = machine._steps

        optimize(module, 2)
        stale = machine.run()
        # Bit-identical observables; the step *delta* shrinks because -O2
        # removed instructions (run() accumulates counters across runs).
        assert stale.exit_code == 0
        assert stale.int_outputs[-1:] == [21]
        assert machine._steps - steps_before < steps_before

        # A fresh machine on the rewritten module agrees exactly.
        fresh = Machine(module).run()
        assert fresh.exit_code == 0
        assert fresh.steps == machine._steps - steps_before

    def test_reused_machine_survives_instrumentation(self):
        from repro.core.instrument import instrument_module
        from repro.rng.entropy import DeterministicEntropy
        from repro.rng.sources import make_source

        module = compile_source(self.SOURCE)
        machine = Machine(module)
        assert machine.run().exit_code == 0
        steps_before = machine._steps

        instrument_module(module)
        machine.rng_source = make_source("pseudo", DeterministicEntropy(7))
        second = machine.run()
        assert second.exit_code == 0
        assert second.int_outputs[-1:] == [21]
        # Hardened code runs *more* steps (prologue + checks): the stale
        # predecoded blocks would have replayed the old count instead.
        assert machine._steps - steps_before > steps_before

        fresh = Machine(
            module, rng_source=make_source("pseudo", DeterministicEntropy(7))
        ).run()
        assert fresh.exit_code == 0
        assert fresh.steps == machine._steps - steps_before

    def test_reused_slow_machine_resyncs_too(self):
        from repro.core.instrument import instrument_module
        from repro.rng.entropy import DeterministicEntropy
        from repro.rng.sources import make_source

        module = compile_source(self.SOURCE)
        machine = Machine(module, engine="slow")
        assert machine.run().exit_code == 0

        instrument_module(module)
        machine.rng_source = make_source("pseudo", DeterministicEntropy(7))
        # _static_allocas held layouts keyed on the dead Alloca objects;
        # without the resync the hardened prologue would mis-handle them.
        assert machine.run().exit_code == 0

    def test_version_resync_keeps_dispatch_agreement(self):
        from repro.core.instrument import instrument_module
        from repro.rng.entropy import DeterministicEntropy
        from repro.rng.sources import make_source

        results = []
        for engine in ("fast", "slow"):
            module = compile_source(self.SOURCE)
            machine = Machine(module, engine=engine)
            machine.run()
            instrument_module(module)
            machine.rng_source = make_source(
                "pseudo", DeterministicEntropy(3)
            )
            results.append(machine.run())
        assert_identical(results[0], results[1], "post-rewrite reuse")

    def test_reused_jit_machine_survives_reoptimize(self):
        from repro.opt import optimize

        module = compile_source(self.SOURCE)
        machine = Machine(module, engine="jit-eager")
        first = machine.run()
        assert first.exit_code == 0
        steps_before = machine._steps
        engine_before = machine._jit_engine
        assert engine_before is not None

        optimize(module, 2)
        stale = machine.run()
        assert stale.exit_code == 0
        assert stale.int_outputs[-1:] == [21]
        assert machine._steps - steps_before < steps_before
        # The old engine bound bodies compiled from the pre-rewrite IR;
        # the version resync must have dropped it.
        assert machine._jit_engine is not engine_before

        fresh = Machine(module, engine="jit-eager").run()
        assert fresh.exit_code == 0
        assert fresh.steps == machine._steps - steps_before

    def test_reused_jit_machine_survives_instrumentation(self):
        from repro.core.instrument import instrument_module
        from repro.rng.entropy import DeterministicEntropy
        from repro.rng.sources import make_source

        module = compile_source(self.SOURCE)
        machine = Machine(module, engine="jit-eager")
        assert machine.run().exit_code == 0
        steps_before = machine._steps

        instrument_module(module)
        machine.rng_source = make_source("pseudo", DeterministicEntropy(7))
        second = machine.run()
        assert second.exit_code == 0
        assert second.int_outputs[-1:] == [21]
        assert machine._steps - steps_before > steps_before

        fresh = Machine(
            module,
            engine="jit-eager",
            rng_source=make_source("pseudo", DeterministicEntropy(7)),
        ).run()
        assert fresh.exit_code == 0
        assert fresh.steps == machine._steps - steps_before

    def test_version_resync_keeps_jit_agreement(self):
        from repro.core.instrument import instrument_module
        from repro.rng.entropy import DeterministicEntropy
        from repro.rng.sources import make_source

        results = []
        for engine in ("jit-eager", "fast", "slow"):
            module = compile_source(self.SOURCE)
            machine = Machine(module, engine=engine)
            machine.run()
            instrument_module(module)
            machine.rng_source = make_source(
                "pseudo", DeterministicEntropy(3)
            )
            results.append(machine.run())
        assert_identical(results[0], results[1], "post-rewrite jit vs fast")
        assert_identical(results[0], results[2], "post-rewrite jit vs slow")
