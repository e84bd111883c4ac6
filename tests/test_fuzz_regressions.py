"""Minimized fuzzer findings, promoted to standing regression tests.

Each program here was found by ``repro.fuzz`` (or distilled while
building it) and minimized with ``reduce.py``.  The bugs are fixed; the
programs stay, run through the full oracle battery, so the bugs can't
come back.
"""

import pytest

from repro.core.pipeline import compile_source
from repro.fuzz import check_program
from repro.vm.interpreter import Machine

#: Finding 1 — generator seed 23, reduced by reduce.py to 7 lines.
#: constfold replaced every use of the VLA length with the constant —
#: except the dynamic Alloca's ``count``, which was a *cached attribute*
#: shadowing operands[0].  DCE then deleted the defining instruction and
#: the O2 build died with "use of undefined value %xN".  Fixed by making
#: Alloca.count a property over operands[0].
VLA_CONSTANT_LENGTH = """
int main() {
    int n13 = (int)(1 + (((-(6))) & 7));
    int w14[n13];
    for (int i15 = 0; i15 < n13; i15++) {
        w14[i15] = (int)(i15 * 7);
    }
}
"""

#: Finding 2 — distilled while probing the opt oracle: float (binary32)
#: arithmetic kept full double precision in mem2reg'd registers but was
#: rounded through 4-byte stores on the O0 memory path, so O0 and O2
#: computed different values.  Fixed by rounding float-typed results
#: per operation (repro.vm.floatmath), the way SSE hardware does.
F32_ACCUMULATION = """
int main() {
    float acc = (float)0;
    for (int i = 0; i < 9; i++) {
        acc = acc + (float)((double)1 / (double)3);
    }
    long scaled = (long)((double)acc * (double)1000);
    print_int(scaled);
    return (int)(scaled & 63);
}
"""

#: Finding 3 — latent host-exception escape: float→int of a non-finite
#: value raised a raw Python OverflowError out of Machine.run instead of
#: landing in an ExecutionResult.  Fixed in repro.vm.floatmath: it is a
#: deterministic VMTrap now, identical on both dispatch paths.
NONFINITE_FLOAT_TO_INT = """
int main() {
    double big = (double)2;
    for (int i = 0; i < 12; i++) {
        big = big * big;
    }
    long n = (long)big;
    print_int(n);
    return 0;
}
"""

#: Finding 4 — the reduced reproducer from the injected-dispatch-bug
#: acceptance drill (tests/test_fuzz.py): a struct array field written
#: at its last index through elemptr and read back.  Kept here as a
#: clean program: all oracles must agree on it forever.
STRUCT_ARRAY_LAST_INDEX = """
struct pack {
    long arr[4];
};
int main() {
    long chk = 0;
    struct pack s6;
    for (int i7 = 0; i7 < 4; i7++) {
        s6.arr[i7] = i7 + 1;
    }
    chk -= ((0) - (s6.arr[(50) & 3]));
    print_int(chk);
    return (int)(chk & 63);
}
"""

CASES = {
    "vla_constant_length": VLA_CONSTANT_LENGTH,
    "f32_accumulation": F32_ACCUMULATION,
    "nonfinite_float_to_int": NONFINITE_FLOAT_TO_INT,
    "struct_array_last_index": STRUCT_ARRAY_LAST_INDEX,
}


class TestRegressionCorpus:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_all_oracles_agree(self, name):
        verdict = check_program(CASES[name])
        assert verdict.compile_error is None, verdict.compile_error
        assert verdict.ok, [str(f) for f in verdict.findings]

    def test_vla_constant_length_runs_at_o2(self):
        # The original symptom: O2 raised VMError before reaching ret.
        result = Machine(
            compile_source(VLA_CONSTANT_LENGTH, opt_level=2)
        ).run()
        assert result.outcome == "exit"
        assert result.exit_code == 0

    def test_f32_accumulation_value_is_rounded(self):
        # 9 × float(1/3) accumulated with per-operation binary32
        # rounding lands at 2.99999976…, i.e. 2999 after scaling — NOT
        # the 3000 an unrounded double accumulation would produce.  Both
        # builds must model the same (float) hardware.
        for opt_level in (0, 2):
            result = Machine(
                compile_source(F32_ACCUMULATION, opt_level=opt_level)
            ).run()
            assert result.outcome == "exit"
            assert result.int_outputs[0] == 2999
        assert (
            Machine(compile_source(F32_ACCUMULATION, opt_level=0)).run().int_outputs
            == Machine(compile_source(F32_ACCUMULATION, opt_level=2)).run().int_outputs
        )

    def test_nonfinite_cast_traps_identically(self):
        results = []
        for engine in ("fast", "slow"):
            result = Machine(
                compile_source(NONFINITE_FLOAT_TO_INT), engine=engine
            ).run()
            results.append(result)
        fast, slow = results
        assert fast.outcome == "trap"
        assert "non-finite" in fast.error_message
        assert fast.error_message == slow.error_message
        assert fast.steps == slow.steps
