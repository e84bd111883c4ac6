"""Overflow-reach model, VM cross-check, lint and driver tests."""

import json
import os

import pytest

from repro.analysis import (
    analyze_program,
    crosscheck_module,
    exit_status,
    lint_function,
    overflow_reach,
    reach_under_defense,
    reports_to_json,
)
from repro.analysis.crosscheck import failing, probe_lengths
from repro.analysis.reach import (
    BufferReach,
    intra_frame_reach,
    reach_rows,
    unique_slot_names,
)
from repro.analysis.safety import (
    PROVEN_SAFE,
    UNSAFE,
    SafetyReport,
    proven_reach_conflicts,
)
from repro.core import compile_source
from repro.core.allocations import discover_function
from repro.core.instrument import FNID_SLOT_NAME
from repro.defenses.registry import DEFENSE_ORDER, SCHEMES, defense_class
from repro.synth.facts import FunctionFacts, ProgramFacts
from repro.vm.frame import region_height
from repro.vm.interpreter import Machine

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "minic",
)

VICTIM = """
int main() {
    long quota;
    int level;
    char line[64];
    int i;
    quota = 4096;
    level = 1;
    i = 0;
    line[0] = 35;
    return level + i;
}
"""


class TestLayoutModel:
    def test_declaration_order_stacks_downward(self):
        fn = compile_source(VICTIM).get_function("main")
        layout = FunctionFacts(fn).layout()
        quota, level, line, i = (
            layout.slot(n) for n in ("quota", "level", "line", "i")
        )
        # Earlier declarations sit higher (closer to the frame top).
        assert quota.lo > level.lo > line.lo > i.lo
        # The cookie band is the 8 bytes below the frame top.
        assert quota.hi <= -8

    def test_reach_is_the_slots_above(self):
        fn = compile_source(VICTIM).get_function("main")
        layout = FunctionFacts(fn).layout()
        reach = intra_frame_reach(layout, "line")
        assert reach.corrupted == frozenset({"level", "quota"})
        assert reach.cookie
        # One byte past the buffer touches only the next slot up.
        line = layout.slot("line")
        first = overflow_reach(layout, "line", line.size + 1)
        assert first.corrupted == frozenset({"level"})
        assert not first.cookie

    def test_model_matches_vm_frame(self):
        """Every function of the benchsuite workloads, the canned victims
        and the examples: the model's slot offsets and frame height are
        where ``push_probe_frame`` puts the slots and the frame base, with
        and without the stack protector, and under a deployed cleanstack
        build's partition for both halves of a split frame."""
        from repro.analysis.partition import partition_module
        from repro.analysis.reach import (
            FrameLayout,
            cleanstack_region_slots,
            frame_height,
        )
        from repro.benchsuite.programs import WORKLOADS
        from repro.synth.campaign import canned_cases, example_cases

        sources = [(name, w.source) for name, w in WORKLOADS.items()]
        sources += [
            (case.name, case.source)
            for case in canned_cases() + example_cases(EXAMPLES_DIR)
        ]
        assert len(sources) == 16 + 4 + 2
        split = 0
        for label, source in sources:
            for canary in (False, True):
                module = compile_source(source)
                program = ProgramFacts(source, module=module)
                machine = Machine(module, stack_protector=canary)
                for function in program.functions():
                    facts = program.of(function)
                    layout = facts.layout(canary)
                    frame = machine.push_probe_frame(function.name)
                    try:
                        where = f"{label}:{function.name} canary={canary}"
                        for allocation in facts.descriptor.allocations:
                            slot = layout.slot(
                                facts.allocation_names[id(allocation)]
                            )
                            address = frame.alloca_addresses[allocation.alloca]
                            assert address == frame.frame_top + slot.lo, where
                        assert frame.frame_base == (
                            frame.frame_top - frame_height(layout)
                        ), where
                    finally:
                        machine.pop_probe_frame()
            build = defense_class("cleanstack")().build(source)
            partitions = partition_module(build.module)
            program = ProgramFacts(source, module=build.module)
            machine = build.make_machine()
            for function in program.functions():
                facts = program.of(function)
                main, unclean = cleanstack_region_slots(
                    facts, partitions[function.name]
                )
                height = frame_height(
                    FrameLayout(function.name, main, has_canary=False)
                )
                frame = machine.push_probe_frame(function.name)
                try:
                    where = f"{label}:{function.name} cleanstack"
                    addresses = {
                        facts.allocation_names[id(allocation)]:
                            frame.alloca_addresses[allocation.alloca]
                        for allocation in facts.descriptor.allocations
                    }
                    for slot in main:
                        assert addresses[slot.name] == (
                            frame.frame_top + slot.lo
                        ), where
                    for slot in unclean:
                        assert addresses[slot.name] == (
                            frame.unsafe_top + slot.lo
                        ), where
                    assert frame.frame_base == (
                        frame.frame_top - height
                    ), where
                    if unclean:
                        # The unclean region's base is where the unclean
                        # stack pointer now stands.
                        lowest = min(slot.lo for slot in unclean)
                        assert machine._usp == (
                            frame.unsafe_top - region_height(lowest)
                        ), where
                        split += 1
                finally:
                    machine.pop_probe_frame()
        assert split  # some deployed partition relocates slots

    def test_duplicate_scoped_names_get_unique_slots(self):
        source = """
        int main() {
            char buf[16];
            for (int i = 0; i < 4; i = i + 1) { buf[i] = 1; }
            for (int i = 0; i < 4; i = i + 1) { buf[i] = 2; }
            return 0;
        }
        """
        fn = compile_source(source).get_function("main")
        names = sorted(
            unique_slot_names(discover_function(fn).allocations).values()
        )
        assert "i" in names and "i@2" in names
        layout = FunctionFacts(fn).layout()
        assert len({s.name for s in layout.slots}) == len(layout.slots)

    def test_canary_shifts_every_slot_down(self):
        fn = compile_source(VICTIM).get_function("main")
        plain = FunctionFacts(fn).layout()
        guarded = FunctionFacts(fn).layout(canary=True)
        for slot in plain.slots:
            assert guarded.slot(slot.name).lo == slot.lo - 8


class TestDefenseLayouts:
    def test_every_defense_has_layouts(self):
        fn = compile_source(VICTIM).get_function("main")
        for scheme in SCHEMES:
            layouts = scheme.layouts(FunctionFacts(fn), samples=16)
            assert layouts, scheme.name

    def test_randomizing_defenses_shrink_certainty(self):
        fn = FunctionFacts(compile_source(VICTIM).get_function("main"))
        base = reach_under_defense(fn, "line", defense_class("none"))
        assert base.certain == frozenset({"level", "quota"})
        for defense in ("static-permute", "smokestack"):
            randomized = reach_under_defense(
                fn, "line", defense_class(defense), samples=64
            )
            assert randomized.certain < base.certain, defense
            # but nothing certain under baseline escapes 'possible'.
            assert base.certain <= randomized.possible

    def test_unknown_defense_rejected(self):
        with pytest.raises(ValueError):
            defense_class("no-such-defense")


def _layout_reach(facts, buffer, defense, *, samples, seed=0):
    """The per-layout definition of a reach row: :func:`intra_frame_reach`
    in every member of ``defense.layouts``."""
    layouts = defense.layouts(facts, samples=samples, seed=seed)
    reaches = [intra_frame_reach(layout, buffer) for layout in layouts]
    return BufferReach(
        function=facts.function.name,
        buffer=buffer,
        defense=defense.name,
        certain=frozenset.intersection(*(r.corrupted for r in reaches)),
        possible=frozenset().union(*(r.corrupted for r in reaches)),
        cookie_certain=all(r.cookie for r in reaches),
        layouts=len(layouts),
    )


def _layout_conflicts(program, *, samples=16):
    """The per-layout definition of ``proven_reach_conflicts``: every
    breach replayed with :func:`overflow_reach` in every member."""
    report = program.safety
    conflicts = []
    for name, safety in report.functions.items():
        facts = program.of(program.function(name))
        proven = {s.slot for s in safety.slots if s.verdict == PROVEN_SAFE}
        for slot in safety.slots:
            if slot.write_bound is not None and slot.write_bound <= slot.size:
                continue
            for scheme in SCHEMES:
                for layout in scheme.layouts(facts, samples=samples):
                    try:
                        base = layout.slot(slot.slot)
                    except KeyError:
                        continue
                    length = (
                        slot.write_bound
                        if slot.write_bound is not None
                        else -base.lo
                    )
                    reach = overflow_reach(
                        layout, slot.slot, min(length, -base.lo)
                    )
                    for victim in sorted(reach.corrupted & proven):
                        conflicts.append(
                            f"{name}: PROVEN_SAFE slot '{victim}' inside "
                            f"possible reach of '{slot.slot}' under "
                            f"'{scheme.name}'"
                        )
            if slot.write_bound is None:
                for caller in report.transitive_callers.get(
                    name, frozenset()
                ):
                    caller_safety = report.functions.get(caller)
                    if caller_safety is None:
                        continue
                    for victim in caller_safety.slots:
                        if victim.verdict == PROVEN_SAFE:
                            conflicts.append(
                                f"{caller}: PROVEN_SAFE slot "
                                f"'{victim.slot}' in a transitive caller "
                                f"of '{name}' (unbounded breach)"
                            )
    return sorted(set(conflicts))


def _all_programs():
    from repro.benchsuite.programs import WORKLOADS
    from repro.synth.campaign import canned_cases, example_cases, fuzz_cases

    sources = [(name, w.source) for name, w in WORKLOADS.items()]
    sources += [
        (case.name, case.source)
        for case in canned_cases()
        + example_cases(EXAMPLES_DIR)
        + fuzz_cases(48)
    ]
    assert len(sources) == 16 + 4 + 2 + 48
    return [ProgramFacts(source, name) for name, source in sources]


@pytest.fixture(scope="module")
def programs():
    return _all_programs()


def _doctored(program):
    """``program`` with a safety report that proves every slot but the
    buffers, whose writes cycle through unbounded, 9 bytes past their
    end, and exactly up to the second slot above them in the declaration
    layout (an overflow that ends where a slot starts must not hit it) —
    so every defense's breach replay has proven victims."""
    report = program.safety
    functions = {}

    def bound(index, slot, layout):
        if index % 3 == 0:
            return None
        lo = layout.slot(slot.slot).lo
        above = sorted(s.lo - lo for s in layout.slots if s.lo > lo)
        if index % 3 == 1 or len(above) < 2:
            return slot.size + 9
        return above[1]

    for name, safety in report.functions.items():
        facts = program.of(program.function(name))
        buffers = set(facts.buffers)
        slots = tuple(
            slot._replace(
                verdict=UNSAFE, write_bound=bound(index, slot, facts.layout())
            )
            if slot.slot in buffers
            else slot._replace(verdict=PROVEN_SAFE)
            for index, slot in enumerate(safety.slots)
        )
        functions[name] = safety._replace(slots=slots)
    doctored = ProgramFacts(program.source, module=program.module)
    doctored.safety = SafetyReport(
        functions, report.escape_verdicts, report.transitive_callers
    )
    return doctored


class TestColumnReach:
    """Reach rows read off a family's columns equal the per-layout
    definition, row for row."""

    @pytest.mark.parametrize("defense", DEFENSE_ORDER)
    def test_rows_match_layouts(self, programs, defense):
        scheme = defense_class(defense)
        rows = 0
        for program in programs:
            for function in program.functions():
                facts = program.of(function)
                for samples in (16, 64):
                    for buffer in facts.buffers:
                        expected = _layout_reach(
                            facts, buffer, scheme, samples=samples
                        )
                        assert reach_under_defense(
                            facts, buffer, scheme, samples=samples
                        ) == expected, (program.module.name, function.name, buffer)
                        rows += 1
        assert rows > 300

    def test_reach_rows_is_one_family_for_every_buffer(self, programs):
        scheme = defense_class("smokestack")
        for program in programs[:16]:
            for function in program.functions():
                facts = program.of(function)
                assert reach_rows(facts, facts.buffers, scheme) == [
                    reach_under_defense(facts, buffer, scheme)
                    for buffer in facts.buffers
                ]

    def test_conflicts_match_layouts(self, programs):
        found = 0
        for program in programs:
            assert proven_reach_conflicts(program) == _layout_conflicts(
                program
            ), program.module.name
            doctored = _doctored(program)
            expected = _layout_conflicts(doctored)
            assert proven_reach_conflicts(doctored) == expected, program.module.name
            found += len(expected)
        assert found > 100

    def test_fnid_slot_above_the_buffer_is_not_reported(self):
        facts = FunctionFacts(compile_source(VICTIM).get_function("main"))
        scheme = defense_class("smokestack")
        columns = scheme.columns(facts, samples=64)
        assert any(
            fnid > line
            for fnid, line in zip(
                columns.los[FNID_SLOT_NAME], columns.los["line"]
            )
        )
        row = reach_under_defense(facts, "line", scheme, samples=64)
        assert row == _layout_reach(facts, "line", scheme, samples=64)
        assert FNID_SLOT_NAME not in row.possible
        assert row.possible == {"quota", "level", "i"}

    def test_cleanstack_frame_with_unclean_slots(self):
        source = """
        int main() {
            long quota;
            char head[16];
            long level;
            char line[32];
            quota = 1;
            level = 2;
            input_read(head, 16);
            input_read(line, 32);
            return (int)(quota + level + head[0] + line[0]);
        }
        """
        facts = FunctionFacts(compile_source(source).get_function("main"))
        assert facts.partition.unclean_indices == {1, 3}
        scheme = defense_class("cleanstack")
        for buffer in ("head", "line"):
            for samples in (1, 16, 64):
                row = reach_under_defense(
                    facts, buffer, scheme, samples=samples
                )
                assert row == _layout_reach(
                    facts, buffer, scheme, samples=samples
                ), (buffer, samples)
        # The unclean region moves as a block: 'head' sits above 'line'
        # in every member.
        assert "head" in reach_under_defense(facts, "line", scheme).certain

    @pytest.mark.parametrize("defense", DEFENSE_ORDER)
    def test_source_slot_named_like_a_synthetic_one(self, defense):
        # '__spare' sits above 'buf' in the declaration layout; reach
        # sets name no '__' slot, whichever declared it.
        source = """
        int main() {
            long __spare;
            char buf[16];
            long n;
            __spare = 1;
            n = 2;
            input_read(buf, 16);
            return (int)(__spare + n + buf[0]);
        }
        """
        facts = FunctionFacts(compile_source(source).get_function("main"))
        scheme = defense_class(defense)
        row = reach_under_defense(facts, "buf", scheme, samples=16)
        assert row == _layout_reach(facts, "buf", scheme, samples=16)
        assert "__spare" not in row.possible


class TestCrosscheck:
    def test_victim_zero_mismatches(self):
        module = compile_source(VICTIM)
        results = crosscheck_module(ProgramFacts(module=module))
        assert results
        assert failing(results) == []

    def test_victim_zero_mismatches_with_canary(self):
        module = compile_source(VICTIM)
        results = crosscheck_module(ProgramFacts(module=module), canary=True)
        assert results
        assert failing(results) == []

    def test_probe_lengths_cover_every_boundary(self):
        fn = compile_source(VICTIM).get_function("main")
        layout = FunctionFacts(fn).layout()
        lengths = probe_lengths(layout, "line")
        base = layout.slot("line")
        # Probes the one-past-the-end write and the full frame height.
        assert base.size + 1 in lengths
        assert -base.lo in lengths

    def test_mismatch_is_loud(self):
        # Sabotage the prediction and make sure the checker catches it.
        from repro.analysis import crosscheck as cc

        module = compile_source(VICTIM)
        facts = FunctionFacts(module.get_function("main"))
        machine = Machine(module)
        result = cc._probe_once(
            machine,
            facts.function,
            facts.descriptor,
            facts.allocation_names,
            facts.layout(),
            "line",
            65,
        )
        assert result.ok
        sabotaged = result._replace(predicted=frozenset({"quota"}))
        assert not sabotaged.ok
        assert "MISMATCH" in sabotaged.describe()


UNINIT = """
int main() {
    int ready;
    int n;
    char b[8];
    n = input_read(b, 8);
    if (n > 0) { ready = 1; }
    return ready;
}
"""

OOB_GEP = """
int main() {
    char b[8];
    b[0] = 1;
    b[9] = 2;
    return 0;
}
"""


class TestLint:
    def test_maybe_uninitialized_is_warning(self):
        fn = compile_source(UNINIT).get_function("main")
        diags = lint_function(FunctionFacts(fn))
        assert any(
            d.severity == "warning" and "ready" in d.message for d in diags
        )

    def test_never_initialized_is_error(self):
        fn = compile_source(
            "int main() { int x; return x; }"
        ).get_function("main")
        diags = lint_function(FunctionFacts(fn))
        assert any(
            d.severity == "error" and "never initialized" in d.message
            for d in diags
        )

    def test_constant_oob_gep_is_error(self):
        fn = compile_source(OOB_GEP).get_function("main")
        diags = lint_function(FunctionFacts(fn))
        assert any(
            d.severity == "error" and d.category == "oob-gep" for d in diags
        )

    def test_nested_struct_array_oob_is_error(self):
        # ``b.arr[9]`` lowers to elemptr(fieldptr(b, 1), 9): the bounds
        # check must follow the fieldptr chain instead of skipping it.
        fn = compile_source(
            """
            struct box { int pad; int arr[4]; };
            int main() {
                struct box b;
                b.pad = 0;
                b.arr[9] = 2;
                return 0;
            }
            """
        ).get_function("main")
        diags = lint_function(FunctionFacts(fn))
        assert any(
            d.category == "oob-gep"
            and "index 9" in d.message
            and "b.field1[4]" in d.message
            for d in diags
        )

    def test_nested_struct_array_in_bounds_is_clean(self):
        fn = compile_source(
            """
            struct box { int pad; int arr[4]; };
            int main() {
                struct box b;
                b.pad = 0;
                b.arr[3] = 2;
                return b.arr[3];
            }
            """
        ).get_function("main")
        assert [d for d in lint_function(FunctionFacts(fn)) if d.category == "oob-gep"] == []

    def test_clean_program_is_clean(self):
        fn = compile_source(VICTIM).get_function("main")
        assert lint_function(FunctionFacts(fn)) == []


class TestDriver:
    def test_report_ids_are_stable(self):
        r1 = analyze_program(UNINIT, "p")
        r2 = analyze_program(UNINIT, "p")
        assert [f.id for f in r1.findings] == [f.id for f in r2.findings]
        assert all(f.id[0] in "GRLX" for f in r1.findings)

    def test_exit_status_thresholds(self):
        report = analyze_program(OOB_GEP, "p")
        assert report.worst_severity() == "error"
        assert exit_status([report], "error") == 1
        assert exit_status([report], "never") == 0
        clean = analyze_program(VICTIM, "p")
        assert exit_status([clean], "warning") == 0

    def test_explain_renders_reach_finding(self):
        report = analyze_program(VICTIM, "p")
        reach_ids = [f.id for f in report.findings if f.id.startswith("R")]
        assert reach_ids
        text = report.explain(reach_ids[0])
        assert "smokestack" in text and "baseline" in text.replace(
            "none", "baseline"
        )

    def test_explain_renders_gadget_chain(self):
        report = analyze_program(UNINIT, "p")
        gadget_ids = [f.id for f in report.findings if f.id.startswith("G")]
        assert gadget_ids
        assert report.explain(gadget_ids[0])

    def test_crosscheck_feeds_findings(self):
        report = analyze_program(VICTIM, "p", crosscheck=True)
        assert report.crosscheck
        assert not [r for r in report.crosscheck if not r.ok]

    def test_json_roundtrip(self):
        report = analyze_program(UNINIT, "p", crosscheck=True)
        blob = json.loads(reports_to_json([report]))
        entry = blob["reports"][0]
        assert entry["program"] == "p"
        assert entry["findings"]
        assert entry["crosscheck"]["mismatches"] == []
