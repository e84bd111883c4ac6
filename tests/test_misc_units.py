"""Odds-and-ends unit coverage: errors, entropy sources, defense internals,
report rendering, and small helpers not covered elsewhere."""

import hashlib

import pytest

from repro.errors import SecurityViolation, SourceLocation, VMFault
from repro.rng import AesSource, DeterministicEntropy, SystemEntropy


class TestErrors:
    def test_source_location_str(self):
        loc = SourceLocation("file.c", 3, 9)
        assert str(loc) == "file.c:3:9"
        assert loc == SourceLocation("file.c", 3, 9)
        assert loc != SourceLocation("file.c", 3, 10)

    def test_vmfault_message(self):
        fault = VMFault("unmapped", 0xDEAD)
        assert fault.kind == "unmapped"
        assert "0xdead" in str(fault)

    def test_security_violation_message(self):
        violation = SecurityViolation("stack-canary", "victim", "clobbered")
        assert violation.check == "stack-canary"
        assert "victim" in str(violation)


class TestEntropySources:
    def test_deterministic_reproducible(self):
        a = DeterministicEntropy(5)
        b = DeterministicEntropy(5)
        assert a.read(40) == b.read(40)

    def test_deterministic_seed_sensitivity(self):
        assert DeterministicEntropy(1).read(16) != DeterministicEntropy(2).read(16)

    def test_read_u64_in_range(self):
        value = DeterministicEntropy(3).read_u64()
        assert 0 <= value < 2**64

    def test_partial_reads_consume_stream(self):
        entropy = DeterministicEntropy(4)
        first = entropy.read(10)
        second = entropy.read(10)
        combined = DeterministicEntropy(4).read(20)
        assert first + second == combined

    def test_small_seeds_keep_eight_byte_encoding(self):
        # Every recorded result was drawn from this exact stream.
        for seed in (0, 7, 2**64 - 1):
            expected = hashlib.sha256(
                seed.to_bytes(8, "little") + (0).to_bytes(8, "little")
            ).digest()
            assert DeterministicEntropy(seed).read(32) == expected

    def test_seeds_past_64_bits_accepted(self):
        # A 48-bit serve tenant seed shifted by the smokestack defense.
        big = ((2**48 - 1) << 20) ^ 1
        stream = DeterministicEntropy(big).read(16)
        assert stream == DeterministicEntropy(big).read(16)
        assert stream != DeterministicEntropy(big & (2**64 - 1)).read(16)
        assert DeterministicEntropy(2**64).read(16) != (
            DeterministicEntropy(0).read(16)
        )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            DeterministicEntropy(-1)

    def test_system_entropy_length(self):
        assert len(SystemEntropy().read(32)) == 32

    def test_aes_source_reset_reseeds(self):
        source = AesSource(10, DeterministicEntropy(7))

        class _M:
            universal_call_counter = 1

        first = source.generate(_M())
        source.reset()
        # A reset draws a fresh key from the (advanced) entropy stream:
        # the same counter now yields an unrelated value.
        again = source.generate(_M())
        assert 0 <= again < 2**64
        assert again != first


class TestPaddingInternals:
    def test_apply_function_padding_inserts_first_alloca(self):
        from repro.core.pipeline import compile_source
        from repro.defenses.padding import PAD_SLOT_NAME, apply_function_padding

        module = compile_source(
            "int main() { char buf[64]; buf[0] = 1; return buf[0]; }"
        )
        fn = module.get_function("main")
        assert apply_function_padding(fn, 32)
        first = fn.static_allocas()[0]
        assert first.var_name == PAD_SLOT_NAME
        assert first.static_size() == 32

    def test_small_frame_skipped(self):
        from repro.core.pipeline import compile_source
        from repro.defenses.padding import apply_function_padding

        module = compile_source("int main() { char c; c = 1; return c; }")
        assert not apply_function_padding(module.get_function("main"), 32)

    def test_padding_shifts_absolute_not_relative(self):
        from repro.core.pipeline import compile_source
        from repro.defenses.padding import apply_function_padding
        from repro.vm import Machine

        source = (
            "int main() { long a = 1; char buf[32]; buf[0] = 1;"
            " return (int)a + buf[0]; }"
        )
        plain = Machine(compile_source(source)).baseline_frame_layout("main")
        padded_module = compile_source(source)
        apply_function_padding(padded_module.get_function("main"), 48)
        padded = Machine(padded_module).baseline_frame_layout("main")
        # Every local moved down by the pad...
        assert padded["a"] == plain["a"] + 48
        # ...so relative distances (what DOP needs) are identical.
        assert padded["buf"] - padded["a"] == plain["buf"] - plain["a"]


class TestStaticPermuteInternals:
    def test_single_alloca_untouched(self):
        import random

        from repro.core.pipeline import compile_source
        from repro.defenses.static_permute import permute_function_allocas

        module = compile_source("int main() { int only = 1; return only; }")
        fn = module.get_function("main")
        order = permute_function_allocas(fn, random.Random(0))
        assert order == ["only"]

    def test_permutation_preserves_alloca_multiset(self):
        import random

        from repro.core.pipeline import compile_source
        from repro.defenses.static_permute import permute_function_allocas

        module = compile_source(
            "int main() { int a = 1; long b = 2; char c[8]; c[0] = 3;"
            " return a + (int)b + c[0]; }"
        )
        fn = module.get_function("main")
        before = sorted(a.var_name for a in fn.static_allocas())
        permute_function_allocas(fn, random.Random(3))
        after = sorted(a.var_name for a in fn.static_allocas())
        assert before == after


class TestSurgicalConnection:
    def test_in_buffer_target_rejected(self):
        from repro.attacks.librelp import surgical_connection

        with pytest.raises(ValueError):
            surgical_connection(512, b"x")

    def test_far_target_rejected(self):
        from repro.attacks.librelp import surgical_connection

        with pytest.raises(ValueError):
            surgical_connection(9000, b"x")

    def test_jump_length_equals_target(self):
        from repro.attacks.librelp import surgical_connection

        sans = surgical_connection(1500, b"\xab")
        assert len(sans[0]) == 1500  # the jump SAN
        assert sans[1] == b"\xab"
        assert sans[-1] == b""


class TestNonzeroRuns:
    def test_runs_split_on_zeros(self):
        from repro.attacks.librelp import nonzero_runs

        assert nonzero_runs(b"\x01\x02\x00\x03") == [(0, b"\x01\x02"), (3, b"\x03")]

    def test_all_zero(self):
        from repro.attacks.librelp import nonzero_runs

        assert nonzero_runs(b"\x00\x00") == []

    def test_trailing_run(self):
        from repro.attacks.librelp import nonzero_runs

        assert nonzero_runs(b"\x00\xff") == [(1, b"\xff")]


class TestBuiltinsRegistry:
    def test_unsafe_builtins_are_declared(self):
        from repro.minic.builtins import BUILTINS, UNSAFE_BUILTINS

        assert UNSAFE_BUILTINS <= set(BUILTINS)

    def test_builtin_function_type(self):
        from repro.minic.builtins import builtin_function_type
        from repro.minic import types as ct

        fn_type = builtin_function_type("strlen_")
        assert fn_type.return_type == ct.LONG
        assert len(fn_type.params) == 1

    def test_is_builtin(self):
        from repro.minic.builtins import is_builtin

        assert is_builtin("malloc")
        assert not is_builtin("mystery")
