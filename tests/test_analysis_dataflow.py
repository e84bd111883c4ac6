"""Dataflow framework tests: solver convergence, lattice laws, taint.

Covers the ``repro.analysis`` worklist solver on loop and diamond CFGs,
property-based join-semilattice laws for both lattice families, and
known-answer taint propagation on hand-written IR (no front end in the
way, so the expected facts are unambiguous).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    ForwardProblem,
    IntersectLattice,
    TaintFlowAnalysis,
    UnionLattice,
    solve_forward,
)
from repro.analysis.intervals import (
    EMPTY,
    NEG_INF,
    POS_INF,
    TOP,
    Interval,
    IntervalAnalysis,
    const_interval,
)
from repro.analysis.lint import DefiniteInit
from repro.analysis.taintflow import input_deriving_functions, mem
from repro.core import compile_source
from repro.ir import Constant, Function, IRBuilder, Module
from repro.opt.cfg import predecessors
from repro.ir.instructions import Call, CondBr, Load, Store
from repro.minic import types as ct

ELEMENTS = st.frozensets(st.integers(min_value=0, max_value=7), max_size=5)


class TestLatticeLaws:
    """Join-semilattice laws, property-based over small frozensets."""

    @given(a=ELEMENTS, b=ELEMENTS)
    def test_union_join_commutative(self, a, b):
        lat = UnionLattice()
        assert lat.join(a, b) == lat.join(b, a)

    @given(a=ELEMENTS, b=ELEMENTS, c=ELEMENTS)
    def test_union_join_associative(self, a, b, c):
        lat = UnionLattice()
        assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))

    @given(a=ELEMENTS)
    def test_union_join_idempotent_and_bottom_identity(self, a):
        lat = UnionLattice()
        assert lat.join(a, a) == a
        assert lat.join(a, lat.bottom()) == a

    @given(a=ELEMENTS, b=ELEMENTS)
    def test_intersect_join_commutative(self, a, b):
        lat = IntersectLattice(frozenset(range(8)))
        assert lat.join(a, b) == lat.join(b, a)

    @given(a=ELEMENTS, b=ELEMENTS, c=ELEMENTS)
    def test_intersect_join_associative(self, a, b, c):
        lat = IntersectLattice(frozenset(range(8)))
        assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))

    @given(a=ELEMENTS)
    def test_intersect_join_idempotent_and_bottom_identity(self, a):
        lat = IntersectLattice(frozenset(range(8)))
        assert lat.join(a, a) == a
        # bottom is the universe: identity for intersection.
        assert lat.join(a, lat.bottom()) == a

    @given(a=ELEMENTS, b=ELEMENTS)
    def test_union_join_is_upper_bound(self, a, b):
        joined = UnionLattice().join(a, b)
        assert a <= joined and b <= joined

    @given(a=ELEMENTS, b=ELEMENTS)
    def test_intersect_join_is_lower_bound(self, a, b):
        joined = IntersectLattice(frozenset(range(8))).join(a, b)
        assert joined <= a and joined <= b


_BOUND = st.one_of(
    st.integers(min_value=-8, max_value=8),
    st.sampled_from([NEG_INF, POS_INF]),
)
INTERVALS = st.builds(Interval, _BOUND, _BOUND)  # includes empty shapes


class TestIntervalLatticeLaws:
    """The infinite-height interval domain obeys the same laws."""

    @given(a=INTERVALS, b=INTERVALS)
    def test_join_commutative(self, a, b):
        assert a.join(b) == b.join(a)

    @given(a=INTERVALS, b=INTERVALS, c=INTERVALS)
    def test_join_associative(self, a, b, c):
        assert a.join(b).join(c) == a.join(b.join(c))

    @given(a=INTERVALS)
    def test_join_idempotent_and_bottom_identity(self, a):
        assert a.join(a) == a
        assert a.join(EMPTY) == a
        assert a.join(TOP) == TOP

    @given(a=INTERVALS, b=INTERVALS)
    def test_join_is_upper_bound(self, a, b):
        joined = a.join(b)
        assert a.issubset(joined) and b.issubset(joined)

    @given(a=INTERVALS, b=INTERVALS)
    def test_meet_is_lower_bound(self, a, b):
        met = a.meet(b)
        assert met.issubset(a) and met.issubset(b)

    @given(a=INTERVALS, b=INTERVALS)
    def test_widen_is_upper_bound_of_both(self, a, b):
        widened = a.widen(b)
        assert a.issubset(widened) and b.issubset(widened)

    @given(a=INTERVALS, b=INTERVALS, c=INTERVALS)
    def test_widen_monotone_in_new_state(self, a, b, c):
        # b ⊑ c  ⇒  a ∇ b ⊑ a ∇ c: refining the recomputed state never
        # loses information already conceded to the wider one.
        small, big = b.meet(c), c
        assert small.issubset(big)
        assert a.widen(small).issubset(a.widen(big))

    @given(a=INTERVALS, seq=st.lists(INTERVALS, min_size=1, max_size=12))
    def test_widening_terminates_on_ascending_chain(self, a, seq):
        # Feed an arbitrary ascending chain (accumulated joins) through
        # x ∇ ·: one step may leave empty, then each bound can only jump
        # to its infinity — so at most three real changes ever happen.
        x = a
        ascending = a
        steps = 0
        for item in seq:
            ascending = ascending.join(item)
            nxt = x.widen(x.join(ascending))
            if nxt == x:
                continue
            x = nxt
            steps += 1
        assert steps <= 3
        assert x.widen(x.join(ascending)) == x  # genuinely stable

    @given(a=INTERVALS, b=INTERVALS)
    def test_narrow_stays_between(self, a, b):
        # For a sound descending step (new ⊑ old): new ⊑ old △ new ⊑ old.
        new = a.meet(b)
        narrowed = a.narrow(new)
        if not new.is_empty():
            assert new.issubset(narrowed)
        assert narrowed.issubset(a)


class TestIntervalSolver:
    """Widening/narrowing through the generic worklist solver."""

    def test_counted_loop_gets_textbook_bounds(self):
        fn = function_of(
            "int main() { int i = 0; while (i < 10) { i = i + 1; } "
            "return i; }"
        )
        analysis = IntervalAnalysis(fn)
        from repro.ir.instructions import Ret

        ret_interval = None
        body_operands = []
        for block in fn.blocks:
            for inst, state in analysis.states_in(block):
                if isinstance(inst, Ret) and inst.operands:
                    ret_interval = analysis.evaluate(inst.operands[0], state)
                if getattr(inst, "op", None) == "add":
                    body_operands.append(
                        analysis.evaluate(inst.operands[0], state)
                    )
        # Narrowing claws the widened loop head back: on exit i == 10.
        assert ret_interval == const_interval(10)
        # Inside the body the branch refinement pins i to [0, 9].
        assert any(iv == Interval(0, 9) for iv in body_operands)

    def test_unbounded_loop_converges_without_constant_bound(self):
        fn = function_of(
            """
            int main() {
                long n = input_size();
                int i = 0;
                while (i < n) { i = i + 2; }
                return i;
            }
            """
        )
        analysis = IntervalAnalysis(fn)  # must not raise AnalysisError
        from repro.ir.instructions import Ret

        checked = False
        for block in fn.blocks:
            for inst, state in analysis.states_in(block):
                if isinstance(inst, Ret) and inst.operands:
                    interval = analysis.evaluate(inst.operands[0], state)
                    # The exit edge pins i >= n >= 0 even though the
                    # trip count itself is unknown.
                    assert interval.lo >= 0
                    checked = True
        assert checked


def function_of(source, name="main", opt_level=0):
    return compile_source(source, opt_level=opt_level).get_function(name)


class TestSolverConvergence:
    def test_loop_reaches_fixed_point(self):
        fn = function_of(
            """
            int main() {
                int acc = 0;
                int i = 0;
                while (i < 10) {
                    acc = acc + i;
                    i = i + 1;
                }
                return acc;
            }
            """
        )
        problem = DefiniteInit(fn)
        result = solve_forward(fn, problem)
        blocks = list(fn.blocks)
        # Every block got a state, and the loop required extra visits.
        assert set(result.block_in) >= set(blocks)
        assert result.iterations >= len(blocks)
        # Fixed point: one more transfer sweep changes nothing.
        for block in blocks:
            state = result.block_in[block]
            for inst in block.instructions:
                state = problem.transfer(inst, state)
            assert state == result.block_out[block]

    def test_nested_loop_terminates(self):
        fn = function_of(
            """
            int main() {
                int s = 0;
                for (int i = 0; i < 4; i = i + 1) {
                    for (int j = 0; j < 4; j = j + 1) {
                        if (j > i) { s = s + 1; } else { s = s - 1; }
                    }
                }
                return s;
            }
            """
        )
        result = solve_forward(fn, DefiniteInit(fn))
        assert result.iterations < 200  # converged well under the budget

    def test_diamond_joins_both_arms(self):
        fn = function_of(
            """
            int main() {
                int a;
                int b;
                int n = input_read_unbounded((char*)&a);
                if (n > 0) { a = 1; b = 2; } else { a = 3; }
                return a + b;
            }
            """
        )
        problem = DefiniteInit(fn)
        result = solve_forward(fn, problem)
        roots = {a.var_name for a in fn.static_allocas()}
        assert {"a", "b"} <= roots
        # At the merge block, only 'a' (set on both arms) is definite.
        preds = predecessors(fn)
        merge = next(b for b in fn.blocks if len(preds.get(b, [])) == 2)
        names = {root.var_name for root in result.block_in[merge]}
        assert "a" in names
        assert "b" not in names

    def test_states_in_replays_transfers(self):
        fn = function_of("int main() { int x = 4; return x; }")
        problem = DefiniteInit(fn)
        result = solve_forward(fn, problem)
        entry = fn.entry
        pairs = list(result.states_in(entry))
        assert [inst for inst, _ in pairs] == list(entry.instructions)
        assert pairs[0][1] == result.block_in[entry]

    def test_divergent_transfer_hits_budget(self):
        fn = function_of(
            "int main() { int i = 0; while (i < 9) { i = i + 1; } return i; }"
        )

        class Divergent(ForwardProblem):
            lattice = UnionLattice()

            def __init__(self):
                self._counter = [0]

            def transfer(self, inst, state):
                # Grows forever: a broken transfer must not hang the solver.
                self._counter[0] += 1
                return state | {self._counter[0]}

        from repro.analysis import AnalysisError

        with pytest.raises(AnalysisError):
            solve_forward(fn, Divergent())


def handwritten_taint_module():
    """IR built by hand: tainted param -> arith -> store -> load -> branch.

    main(n):
        entry:  slot = alloca long
                doubled = n + n
                store doubled, slot        ; taints memory of slot
                got = load slot            ; tainted via memory
                cond = got > 0
                cond_br cond, hot, cold    ; conditional sink
        hot:    ret 1
        cold:   ret 0
    """
    module = Module("hand")
    fn = Function("main", ct.INT, ["n"], [ct.LONG])
    module.add_function(fn)
    entry = fn.new_block("entry")
    hot = fn.new_block("hot")
    cold = fn.new_block("cold")
    b = IRBuilder(fn, entry)
    slot = b.alloca(ct.LONG, var_name="slot")
    n = fn.params[0]
    doubled = b.add(n, n)
    b.store(doubled, slot)
    got = b.load(slot)
    cond = b.cmp("sgt", got, Constant(ct.LONG, 0))
    b.cond_br(cond, hot, cold)
    b.position_at_end(hot)
    b.ret(Constant(ct.INT, 1))
    b.position_at_end(cold)
    b.ret(Constant(ct.INT, 0))
    return module, fn, {"slot": slot, "doubled": doubled, "got": got,
                        "cond": cond}


class TestKnownAnswerTaint:
    def test_handwritten_chain(self):
        module, fn, v = handwritten_taint_module()
        taint = TaintFlowAnalysis(fn, input_deriving_functions(module))
        exit_state = taint.result.block_out[fn.entry]
        assert fn.params[0] in exit_state          # source
        assert v["doubled"] in exit_state          # through arithmetic
        assert mem(v["slot"]) in exit_state        # through the store
        assert v["got"] in exit_state              # back out of memory
        assert v["cond"] in exit_state             # through the compare
        kinds = {s.kind for s in taint.sinks}
        assert "conditional" in kinds

    def test_untainted_function_has_no_sinks(self):
        fn = function_of(
            "int helper() { int x = 3; if (x > 1) { return 1; } return 0; }",
            name="helper",
        )
        taint = TaintFlowAnalysis(fn)
        assert taint.sinks == []

    def test_input_read_taints_buffer_memory(self):
        fn = function_of(
            """
            int main() {
                char b[16];
                int n = input_read(b, 16);
                if (b[0] > 64) { return 1; }
                return n;
            }
            """
        )
        taint = TaintFlowAnalysis(fn)
        kinds = {s.kind for s in taint.sinks}
        assert "conditional" in kinds

    def test_copy_builtin_propagates_taint(self):
        fn = function_of(
            """
            int main() {
                char src[16];
                char dst[16];
                input_read(src, 16);
                memcpy_(dst, src, 16);
                if (dst[3] == 7) { return 1; }
                return 0;
            }
            """
        )
        taint = TaintFlowAnalysis(fn)
        assert "conditional" in {s.kind for s in taint.sinks}

    def test_interprocedural_source_via_callee(self):
        module = compile_source(
            """
            int fill(char *p) { return input_read(p, 8); }
            int main() {
                char b[8];
                int n = fill(b);
                if (n > 3) { return 1; }
                return 0;
            }
            """
        )
        taint = TaintFlowAnalysis(
            module.get_function("main"), input_deriving_functions(module)
        )
        assert "conditional" in {s.kind for s in taint.sinks}

    def test_explain_chain_reaches_a_source(self):
        module, fn, v = handwritten_taint_module()
        taint = TaintFlowAnalysis(fn, input_deriving_functions(module))
        sink = next(s for s in taint.sinks if s.kind == "conditional")
        chain = taint.explain_chain(sink)
        assert chain  # non-empty, renders without raising
        text = "\n".join(chain)
        assert "n" in text


class TestInterproceduralParamTaint:
    def test_tainted_value_flows_into_callee_param(self):
        from repro.analysis import attacker_param_indices

        module = compile_source(
            """
            int consume(char *p, int n) {
                int i = 0;
                while (i < n) { i = i + 1; }
                return i;
            }
            int main() {
                char b[8];
                int got = input_read(b, 8);
                return consume(b, got);
            }
            """
        )
        param_map = attacker_param_indices(
            module, input_deriving_functions(module)
        )
        # got (index 1) is attacker data; the buffer *address* is not.
        assert 1 in param_map["consume"]
        assert 0 not in param_map["consume"]

    def test_param_taint_reaches_sinks_in_callee(self):
        from repro.analysis import attacker_param_indices

        module = compile_source(
            """
            int consume(int n) {
                if (n > 4) { return 1; }
                return 0;
            }
            int main() {
                char b[8];
                return consume(input_read(b, 8));
            }
            """
        )
        param_map = attacker_param_indices(
            module, input_deriving_functions(module)
        )
        fn = module.get_function("consume")
        taint = TaintFlowAnalysis(
            fn,
            input_deriving_functions(module),
            tainted_params=param_map["consume"],
        )
        assert "conditional" in {s.kind for s in taint.sinks}

    def test_transitive_chain_of_calls(self):
        from repro.analysis import attacker_param_indices

        module = compile_source(
            """
            int deep(int x) { return x + 1; }
            int mid(int y) { return deep(y); }
            int main() {
                char b[8];
                return mid(input_read(b, 8));
            }
            """
        )
        param_map = attacker_param_indices(
            module, input_deriving_functions(module)
        )
        assert 0 in param_map["mid"]
        assert 0 in param_map["deep"]

    def test_untainted_calls_add_nothing(self):
        from repro.analysis import attacker_param_indices

        module = compile_source(
            """
            int helper(int v) { return v * 2; }
            int main() { return helper(21); }
            """
        )
        param_map = attacker_param_indices(
            module, input_deriving_functions(module)
        )
        assert param_map["helper"] == frozenset()
