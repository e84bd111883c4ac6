"""Overflow-reach model, VM cross-check, lint and driver tests."""

import json

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
from repro.analysis.reach import intra_frame_reach, unique_slot_names
from repro.core import compile_source
from repro.core.allocations import discover_function
from repro.defenses.registry import SCHEMES, defense_class
from repro.synth.facts import FunctionFacts, ProgramFacts
from repro.vm.interpreter import Machine

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
        module = compile_source(VICTIM)
        fn = module.get_function("main")
        layout = FunctionFacts(fn).layout()
        machine = Machine(module)
        frame = machine.push_probe_frame("main")
        try:
            allocations = discover_function(fn).allocations
            names = unique_slot_names(allocations)
            for allocation in allocations:
                address = frame.alloca_addresses[allocation.alloca]
                slot = layout.slot(names[id(allocation)])
                assert slot.lo == address - frame.frame_top
        finally:
            machine.pop_probe_frame()

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
