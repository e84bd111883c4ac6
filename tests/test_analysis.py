"""Static analysis tests: taint, gadget discovery, entropy reporting."""

import pytest

from repro.analysis import (
    TaintAnalysis,
    analyze_module,
    entropy_report,
    find_dispatchers,
    find_gadgets,
    minimum_entropy_bits,
    render_entropy_report,
)
from repro.core import SmokestackConfig, compile_source, harden_source
from repro.synth.facts import FunctionFacts, ProgramFacts
from repro.ir.instructions import Load, Store


def function_of(source, name="main", opt_level=0):
    return compile_source(source, opt_level=opt_level).get_function(name)


class TestTaint:
    def test_loads_from_stack_are_controlled(self):
        fn = function_of("int main() { int x = 1; return x; }")
        taint = TaintAnalysis(fn)
        loads = [i for i in fn.instructions() if isinstance(i, Load)]
        assert loads and all(taint.is_controlled(l) for l in loads)

    def test_constants_are_not_controlled(self):
        fn = function_of("int main() { return 1 + 2; }")
        taint = TaintAnalysis(fn)
        from repro.ir.values import Constant
        from repro.minic import types as ct

        assert not taint.is_controlled(Constant(ct.INT, 1))

    def test_input_calls_are_controlled(self):
        fn = function_of(
            "int main() { char b[4]; return input_read(b, 4); }"
        )
        taint = TaintAnalysis(fn)
        from repro.ir.instructions import Call

        calls = [
            i for i in fn.instructions()
            if isinstance(i, Call) and i.callee_name() == "input_read"
        ]
        assert calls and taint.is_controlled(calls[0])

    def test_propagates_through_arithmetic(self):
        fn = function_of("int main() { int x = 1; return x * 2 + 3; }")
        taint = TaintAnalysis(fn)
        from repro.ir.instructions import BinOp

        binops = [i for i in fn.instructions() if isinstance(i, BinOp)]
        assert binops and all(taint.is_controlled(b) for b in binops)

    def test_reads_of_readonly_globals_not_controlled(self):
        fn = function_of(
            'int main() { char *s = "ro"; return s[0]; }'
        )
        taint = TaintAnalysis(fn)
        # The load of s[0] goes through a pointer loaded from the stack,
        # so it IS controlled (the attacker can redirect s) — but a direct
        # constant-rooted readonly load would not be.  This asserts the
        # conservative behaviour is at least consistent:
        loads = [i for i in fn.instructions() if isinstance(i, Load)]
        assert loads


class TestGadgets:
    INDIRECT_WRITE = """
    long g_dummy;
    int main() {
        long *p = &g_dummy;
        long v = 0;
        input_read((char*)&v, 8);
        *p = v;
        return 0;
    }
    """

    def test_store_through_corruptible_pointer_is_gadget(self):
        fn = function_of(self.INDIRECT_WRITE)
        gadgets = find_gadgets(FunctionFacts(fn))
        kinds = {g.kind for g in gadgets}
        assert "mov" in kinds or "store" in kinds

    def test_deref_gadget(self):
        fn = function_of(
            "int main() { long a = 0; long *p = &a; return (int)*p; }"
        )
        kinds = {g.kind for g in find_gadgets(FunctionFacts(fn))}
        assert "deref" in kinds

    def test_pure_constant_code_has_no_gadgets(self):
        fn = function_of("int main() { return 42; }")
        assert find_gadgets(FunctionFacts(fn)) == []

    def test_send_gadget(self):
        fn = function_of(
            "char g_s[8];\n"
            "int main() { char *p = g_s; long n = 4; output_bytes(p, n);"
            " return 0; }"
        )
        kinds = {g.kind for g in find_gadgets(FunctionFacts(fn))}
        assert "send" in kinds

    def test_listing1_census_matches_paper_shape(self):
        # The canonical DOP example must expose data-movement gadgets and
        # a controlled dispatcher.
        from repro.attacks.dop import Listing1DopAttack

        report = analyze_module(ProgramFacts(Listing1DopAttack.source))
        assert report.has_kinds("mov", "deref")
        assert report.kinds().get("add", 0) >= 1
        assert report.usable_dispatchers()

    def test_librelp_census_matches_paper_claim(self):
        # Paper §II-C: "we discovered gadgets for MOV, DEREFERENCE and
        # STORE operations" plus the dispatcher loop.
        from repro.attacks.librelp import LibrelpDopAttack

        report = analyze_module(ProgramFacts(LibrelpDopAttack.source))
        assert report.has_kinds("store", "deref", "send")
        dispatchers = report.usable_dispatchers()
        assert any(d.function == "relp_lstn_init" for d in dispatchers)

    def test_hardening_does_not_remove_gadgets(self):
        # Smokestack breaks aim, not gadget existence: the census of the
        # hardened module still finds them.
        from repro.attacks.dop import Listing1DopAttack

        baseline = analyze_module(ProgramFacts(Listing1DopAttack.source))
        hardened = harden_source(Listing1DopAttack.source)
        hardened_report = analyze_module(ProgramFacts(module=hardened.module))
        assert hardened_report.has_kinds(*baseline.kinds().keys())


class TestDispatchers:
    def test_loop_with_controlled_bound_detected(self):
        fn = function_of(
            """
            int main() {
                long bound = 10;
                long acc = 0;
                char buf[8];
                long i = 0;
                while (i < bound) {
                    input_read(buf, 8);
                    acc += buf[0];
                    i++;
                }
                return (int)acc;
            }
            """
        )
        dispatchers = find_dispatchers(FunctionFacts(fn))
        assert dispatchers
        assert any(
            d.condition_controlled and d.corruption_sites for d in dispatchers
        )

    def test_constant_loop_is_not_usable(self):
        fn = function_of(
            "int main() { int t = 0;"
            " for (int i = 0; i < 10; i++) t += 1; return t; }",
            opt_level=2,
        )
        # After mem2reg the counter is register-resident: the condition is
        # no longer attacker-controlled.
        dispatchers = find_dispatchers(FunctionFacts(fn))
        assert all(not d.condition_controlled for d in dispatchers)


class TestEntropyReport:
    SOURCE = """
    int tiny() { char b[8]; b[0] = 1; return b[0]; }
    int wide(int n) {
        long a = 1; long b = 2; long c = 3; long d = 4;
        char buf[32]; buf[0] = (char)n;
        return (int)(a + b + c + d + buf[0]);
    }
    int main() { return tiny() + wide(1); }
    """

    def test_report_sorted_weakest_first(self):
        hardened = harden_source(self.SOURCE)
        records = entropy_report(hardened)
        bits = [r.entropy_bits for r in records]
        assert bits == sorted(bits)

    def test_wide_frame_has_more_entropy(self):
        hardened = harden_source(self.SOURCE)
        records = {r.function: r for r in entropy_report(hardened)}
        assert records["wide"].entropy_bits > records["tiny"].entropy_bits

    def test_minimum_entropy(self):
        hardened = harden_source(self.SOURCE)
        minimum = minimum_entropy_bits(hardened)
        records = entropy_report(hardened)
        assert minimum == records[0].entropy_bits

    def test_render(self):
        hardened = harden_source(self.SOURCE)
        text = render_entropy_report(hardened)
        assert "weakest link" in text
        assert "wide" in text and "tiny" in text

    def test_empty_module(self):
        hardened = harden_source("int f() { return 1; } int main() { return f(); }")
        # main and f have no locals... f has none; main has none either.
        assert minimum_entropy_bits(hardened) >= 0.0
