"""Restarting a process in place must be indistinguishable from a fresh one.

A campaign runs one process per deployed build and restarts it for every
attack attempt (:meth:`Machine.restart`, :meth:`ProgramBuild.restart`).
The restart keeps the decoded blocks and JIT bindings and resets memory
in place (:meth:`Memory.reset`), so everything a start can leave behind
— heap blocks, written globals, stack bytes below the live frames,
frames abandoned by a fault or a limit, counters — must be gone: start
N+1 has to give exactly the :class:`ExecutionResult` a fresh process
with the same options gives, on every engine and under every defense.
"""

import functools
import random

import pytest

from repro.core.config import SmokestackConfig
from repro.core.instrument import instrument_module
from repro.core.pipeline import compile_source, harden_source
from repro.defenses.registry import defense_names, make_defense
from repro.errors import VMError
from repro.obs.metrics import get_registry
from repro.obs.trace import Tracer
from repro.rng.entropy import DeterministicEntropy
from repro.rng.sources import make_source
from repro.synth.campaign import (
    SynthConfig,
    canned_cases,
    example_cases,
    fuzz_cases,
    run_synth_campaign,
)
from repro.vm.interpreter import RESULT_FIELDS, Machine, result_fingerprint
from repro.vm import memory as memory_module
from repro.vm.memory import STACK_TOP, Memory

#: the three engines: the tiered JIT (default), the predecoded
#: interpreter and the executor table
ENGINES = {
    "tiered-jit": {"engine": "jit"},
    "predecoded": {"engine": "fast"},
    "executor-table": {"engine": "slow"},
}

#: inputs that overflow the victims' buffers (faults, smashed frames)
DIRTY = [b"A" * 300, b"\xff" * 300, b"B" * 64]
#: a short, well-formed start after the dirty one
CLEAN = [b"hi", b""]
CORPUS_MAX_STEPS = 200_000
#: where a fingerprint holds the run's print_int outputs
INT_OUTPUTS = RESULT_FIELDS.index("int_outputs")


@functools.lru_cache(maxsize=1)
def _corpus():
    return canned_cases() + example_cases() + fuzz_cases(48)


def _fingerprint(machine: Machine) -> tuple:
    return result_fingerprint(machine.run())


def _restart_then_fresh(source, engine, *, first, second):
    """(restarted, fresh) fingerprints of a second start with options
    ``second`` after a first start with options ``first``."""
    module = compile_source(source)
    machine = Machine(module, **engine, **first)
    machine.run()
    machine.restart(**second)
    restarted = _fingerprint(machine)
    fresh = _fingerprint(Machine(compile_source(source), **engine, **second))
    return restarted, fresh


@pytest.mark.parametrize("defense", sorted(defense_names()))
def test_restart_equals_fresh_on_the_campaign_corpus(defense):
    """Every victim, every engine: two builds with one instance seed
    draw the same per-start options, so build A's restarted second
    start must match build B's fresh second start."""
    checked = 0
    for case in _corpus():
        builds = [make_defense(defense).build(case.source, 7) for _ in range(2)]
        for engine in ENGINES.values():
            dirty = dict(engine, inputs=DIRTY, max_steps=CORPUS_MAX_STEPS)
            clean = dict(engine, inputs=CLEAN, max_steps=CORPUS_MAX_STEPS)
            machine = builds[0].make_machine(**dirty)
            machine.run()
            builds[0].restart(machine, **clean)
            restarted = _fingerprint(machine)
            builds[1].make_machine(**dirty)  # the same first draw
            fresh = _fingerprint(builds[1].make_machine(**clean))
            assert restarted == fresh, (case.name, defense, engine)
            # and a dirty start after the clean one
            builds[0].restart(machine, **dirty)
            assert _fingerprint(machine) == _fingerprint(
                builds[1].make_machine(**dirty)
            ), (case.name, defense, engine)
            checked += 1
    assert checked == len(_corpus()) * len(ENGINES)


HEAP_AND_GLOBALS = """
long g_count = 5;
char g_text[8] = "abc";
int main() {
    long *p = (long *)malloc(64);
    print_int((long)p);
    print_int(p[0]);
    p[0] = 77;
    print_int(g_count);
    g_count = g_count + 1;
    print_str(g_text);
    g_text[0] = 'z';
    print_int(guest_rand() % 1000);
    guest_srand(7);
    return 0;
}
"""

STALE_STACK = """
long peek() {
    long buf[64];
    return buf[10] + buf[63];
}
void fill() {
    long buf[64];
    int i;
    for (i = 0; i < 64; i = i + 1) {
        buf[i] = i + 1;
    }
}
int main() {
    print_int(peek());
    fill();
    print_int(peek());
    return 0;
}
"""

#: reads a mode byte: 'F' faults after dirtying state, 'L' loops, 'R'
#: recurses past the call cap, anything else runs briefly and exits
MODES = """
long g_seen = 0;
long deep(long n) {
    char pad[32];
    pad[0] = (char)n;
    return deep(n + 1) + pad[0];
}
int main() {
    char mode[4];
    long spin = 0;
    long *heap = (long *)malloc(256);
    input_read(mode, 4);
    print_int(g_seen);
    g_seen = 99;
    heap[3] = 42;
    if (mode[0] == 'F') {
        long *bad = (long *)0;
        return (int)bad[0];
    }
    if (mode[0] == 'L') {
        while (spin >= 0) {
            spin = spin + 1;
        }
    }
    if (mode[0] == 'R') {
        return (int)deep(0);
    }
    print_int(heap[3]);
    return 0;
}
"""


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestDirtyStarts:
    """Start N leaves a specific kind of dirt; start N+1 must not see it."""

    def test_heap_and_written_globals(self, engine):
        restarted, fresh = _restart_then_fresh(
            HEAP_AND_GLOBALS, ENGINES[engine], first={}, second={}
        )
        assert restarted == fresh

    def test_stack_writes_below_the_live_frame(self, engine):
        restarted, fresh = _restart_then_fresh(
            STALE_STACK, ENGINES[engine], first={}, second={}
        )
        assert restarted == fresh
        # a fresh stack reads zero; fill() then leaves 11 and 64 behind
        assert restarted[INT_OUTPUTS] == (0, 11 + 64)

    @pytest.mark.parametrize(
        "first",
        [
            {"inputs": [b"F"]},
            {"inputs": [b"L"], "max_steps": 5_000},
            {"inputs": [b"R"]},
        ],
        ids=["fault", "step-limit", "call-cap"],
    )
    def test_after_an_abandoned_run(self, engine, first):
        module = compile_source(MODES)
        machine = Machine(module, **ENGINES[engine], **first)
        aborted = machine.run()
        assert aborted.outcome in ("fault", "limit")
        assert machine.frames  # the run left its frames behind
        machine.restart(inputs=[b"ok"])
        restarted = _fingerprint(machine)
        fresh = _fingerprint(
            Machine(compile_source(MODES), **ENGINES[engine], inputs=[b"ok"])
        )
        assert restarted == fresh
        assert restarted[0] == "exit"

    def test_max_rss_and_call_counts_are_per_start(self, engine):
        module = compile_source(MODES)
        machine = Machine(module, **ENGINES[engine], inputs=[b"R"])
        deep = machine.run()
        assert deep.call_counts["deep"] > 4000
        machine.restart(inputs=[b"ok"])
        light = machine.run()
        fresh = Machine(
            compile_source(MODES), **ENGINES[engine], inputs=[b"ok"]
        ).run()
        assert light.max_rss == fresh.max_rss < deep.max_rss
        assert light.call_counts == fresh.call_counts == {"main": 1}


class TestRestartContract:
    def test_a_tracer_is_refused(self):
        module = compile_source(HEAP_AND_GLOBALS)
        with pytest.raises(VMError, match="traced"):
            Machine(module, tracer=Tracer()).restart()
        with pytest.raises(VMError, match="traced"):
            Machine(module).restart(tracer=Tracer())

    @pytest.mark.parametrize(
        "option, value",
        [
            ("engine", "fast"),
            ("engine", "slow"),
            ("scheduling_effects", True),
            ("stack_protector", True),
            ("shadow_stack", True),
            ("clean_partition", {"main": frozenset({0})}),
        ],
    )
    def test_code_shaping_options_cannot_change(self, option, value):
        machine = Machine(compile_source(HEAP_AND_GLOBALS))
        with pytest.raises(VMError, match=f"restart cannot change {option}"):
            machine.restart(**{option: value})

    def test_code_shaping_options_may_repeat(self):
        partition = {"main": frozenset({0})}
        machine = Machine(
            compile_source(HEAP_AND_GLOBALS),
            stack_protector=True,
            clean_partition=partition,
            engine="fast",
        )
        machine.run()
        machine.restart(
            stack_protector=True, clean_partition=dict(partition), engine="fast"
        )
        assert machine.run().outcome == "exit"

    def test_a_refused_restart_leaves_the_machine_alone(self):
        machine = Machine(compile_source(HEAP_AND_GLOBALS), inputs=[b"x"])
        with pytest.raises(VMError, match="out of range"):
            machine.restart(stack_base_offset=-16)
        assert machine.inputs == [b"x"]

    def test_build_restart_refuses_another_builds_machine(self):
        defense = make_defense("none")
        build = defense.build(HEAP_AND_GLOBALS)
        other = defense.build(HEAP_AND_GLOBALS).make_machine()
        with pytest.raises(ValueError, match="not this none build"):
            build.restart(other)

    def test_restart_resyncs_after_an_in_place_transform(self):
        """Hardening in place bumps ``Module.version`` and adds the P-BOX
        tables and the pseudo PRNG's state global after the load; the
        restarted machine re-syncs, and its pristine data image holds
        the new global's initial value, so every later start redraws
        the same layouts."""
        module = compile_source(STALE_STACK)
        machine = Machine(module)
        machine.run()
        version = module.version
        instrument_module(module, SmokestackConfig(scheme="pseudo"))
        assert module.version != version

        def start() -> tuple:
            machine.restart(rng_source=make_source("pseudo"))
            return _fingerprint(machine)

        first = start()
        assert machine.result.outcome == "exit"
        # the pseudo source advanced its state global during the run
        assert start() == first
        fresh = Machine(module, rng_source=make_source("pseudo"))
        assert _fingerprint(fresh) == first

    def test_hardened_program_restart(self):
        hardened = harden_source(STALE_STACK, SmokestackConfig(scheme="pseudo"))
        machine = hardened.make_machine(entropy=DeterministicEntropy(1))
        first = _fingerprint(machine)
        hardened.restart(machine, entropy=DeterministicEntropy(2))
        restarted = _fingerprint(machine)
        fresh = _fingerprint(hardened.make_machine(entropy=DeterministicEntropy(2)))
        assert restarted == fresh
        assert first[INT_OUTPUTS] == restarted[INT_OUTPUTS]


class TestMemoryReset:
    @pytest.mark.parametrize("dontneed", [True, False], ids=["madvise", "zero-fill"])
    def test_reset_restores_the_loaded_image_in_place(self, dontneed, monkeypatch):
        monkeypatch.setattr(memory_module, "_DONTNEED_ZEROES", dontneed)
        memory = Memory()
        with memory.unprotected():
            base = memory.install("data", b"\x01\x02\x03\x04")
            zeroed = memory.install("data", bytes(8))
        buffers = (memory.stack.data, memory.data.data, memory.heap.data)
        memory.write_int(base, 0xDEAD, 4)
        memory.write_int(zeroed, -1, 8)
        heap = memory.heap_grow(32)
        memory.write_int(heap, 7, 8)
        low = memory.stack.base + 4096
        memory.write_int(low, -1, 8)
        memory.write_int(STACK_TOP - 8, 5, 8)
        memory._protect = False
        assert memory.max_rss_bytes() > 12 + 32

        memory.reset()

        assert all(
            now is then
            for now, then in zip(
                (memory.stack.data, memory.data.data, memory.heap.data), buffers
            )
        )
        assert memory.read_bytes(base, 4) == b"\x01\x02\x03\x04"
        assert memory.read_bytes(zeroed, 8) == bytes(8)
        assert memory.heap.size == 0
        assert memory.stack.data[:] == bytes(memory.stack.size)
        assert memory.max_rss_bytes() == 12
        assert memory._protect


class TestProcessStartMetrics:
    def _starts(self, jobs: int) -> dict:
        registry = get_registry()
        registry.reset()
        run_synth_campaign(
            canned_cases()[:2],
            SynthConfig(
                defenses=("none", "aslr", "smokestack"),
                restarts=3,
                jobs=jobs,
                stop_on_success=False,
                exploit_check=False,
            ),
            check_soundness=False,
        )
        counters = registry.snapshot()["counters"]
        return {
            kind: counters.get(f"vm_process_starts_total{{kind={kind}}}", 0)
            for kind in ("fresh", "restart")
        }

    def test_counts_fresh_and_restart(self):
        registry = get_registry()
        registry.reset()
        module = compile_source(HEAP_AND_GLOBALS)
        machine = Machine(module)
        machine.run()
        for _ in range(3):
            machine.restart()
            machine.run()
        counters = registry.snapshot()["counters"]
        assert counters["vm_process_starts_total{kind=fresh}"] == 1
        assert counters["vm_process_starts_total{kind=restart}"] == 3

    def test_campaign_pool_workers_ship_their_starts_home(self):
        serial = self._starts(jobs=1)
        parallel = self._starts(jobs=2)
        assert serial == parallel
        # each (victim, defense) campaign: one fresh start per attempt
        # for the attacker's address lookup, one fresh process, and a
        # restart for every later attempt
        assert serial["restart"] == 2 * 3 * (3 - 1)
        assert serial["fresh"] == 2 * 3 * (3 + 1)


def test_restarted_campaign_matches_fresh_starts():
    """The harness's restarted attempts give exactly the per-attempt
    results of a fresh process per attempt."""
    from repro.attacks.dop import Listing1DopAttack

    scenario = Listing1DopAttack()
    for defense in sorted(defense_names()):
        fresh_build, restart_build = (
            make_defense(defense).build(scenario.source, 3) for _ in range(2)
        )
        machine = None
        for attempt in range(4):
            fresh = scenario.run_once(fresh_build, random.Random(attempt), attempt)
            machine = scenario.start(
                restart_build, random.Random(attempt), attempt, machine
            )
            assert result_fingerprint(machine.run()) == result_fingerprint(
                fresh
            ), (defense, attempt)
