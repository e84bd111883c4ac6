"""Bounds-safety prover tests: verdicts, soundness gates, selective mode.

The contract under test (ISSUE 4):

* ``checksum_clean.c`` is fully PROVEN_SAFE, ``vulnerable_logger.c``
  is not — the regression pair the CI prove gate pins;
* every canned attack's corrupted buffer lands in UNSAFE (the prover
  would have flagged all four real-world victims);
* PROVEN_SAFE never conflicts with the overflow-reach model
  (``proven_reach_conflicts``) or with a concrete VM overflow probe
  (``crosscheck_safety``) — the two mechanical soundness gates;
* ``SmokestackConfig(selective=True)`` skips exactly the fully-proven
  functions and preserves observable behavior bit-for-bit.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    PROVEN_SAFE,
    UNKNOWN,
    UNSAFE,
    analyze_module_safety,
    crosscheck_safety,
    proven_reach_conflicts,
)
from repro.attacks import librelp, proftpd, ripe, wireshark
from repro.core import SmokestackConfig, compile_source, harden_source
from repro.rng import DeterministicEntropy
from repro.synth.facts import ProgramFacts
from repro.vm import Machine

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "minic"
CLEAN = (EXAMPLES / "checksum_clean.c").read_text()
VULNERABLE = (EXAMPLES / "vulnerable_logger.c").read_text()

ATTACKS = [
    pytest.param(librelp.SOURCE, "relp_chk_peer_name", "all_names",
                 id="librelp"),
    pytest.param(wireshark.SOURCE, "dissect_record", "pd", id="wireshark"),
    pytest.param(proftpd.SOURCE, "sreplace", "buf", id="proftpd"),
    pytest.param(ripe.StackDirectBruteForce.source, "victim", "buff",
                 id="ripe"),
]


class TestExampleVerdicts:
    def test_checksum_clean_is_fully_proven(self):
        module = compile_source(CLEAN, "checksum_clean")
        report = analyze_module_safety(ProgramFacts(module=module))
        counts = report.counts()
        assert counts.get(UNSAFE, 0) == 0
        assert counts.get(UNKNOWN, 0) == 0
        assert counts.get(PROVEN_SAFE, 0) > 0
        assert set(report.proven_functions()) == {"checksum", "main"}

    def test_vulnerable_logger_overflow_slot_is_unsafe(self):
        module = compile_source(VULNERABLE, "vulnerable_logger")
        report = analyze_module_safety(ProgramFacts(module=module))
        assert report.verdict("format_entry", "line") == UNSAFE

    def test_vulnerable_logger_breach_demotes_frame_siblings(self):
        # An unbounded write through `line` can land anywhere in the
        # frame, so no sibling slot may keep its proof.
        module = compile_source(VULNERABLE, "vulnerable_logger")
        report = analyze_module_safety(ProgramFacts(module=module))
        for slot in ("quota", "level"):
            assert report.verdict("format_entry", slot) != PROVEN_SAFE

    def test_vulnerable_logger_escape_demotes_caller(self):
        # format_entry's overflow escapes its frame, so main (its
        # caller) cannot be proven either — selective mode must still
        # permute it.
        module = compile_source(VULNERABLE, "vulnerable_logger")
        report = analyze_module_safety(ProgramFacts(module=module))
        assert report.proven_functions() == []


class TestCannedAttacks:
    @pytest.mark.parametrize("source,function,buffer", ATTACKS)
    def test_corrupted_slot_is_unsafe(self, source, function, buffer):
        module = compile_source(source)
        report = analyze_module_safety(ProgramFacts(module=module))
        assert report.verdict(function, buffer) == UNSAFE


class TestInterprocedural:
    # Parameter-write summaries need mem2reg (opt_level=2): at O0 the
    # spilled parameter hides the Argument root and the prover honestly
    # answers UNKNOWN instead.
    def test_bounded_callee_write_keeps_proof(self):
        module = compile_source(
            """
            void fill(char *p) { p[0] = 1; p[7] = 2; }
            int main() {
                char b[8];
                fill(b);
                return b[0];
            }
            """,
            opt_level=2,
        )
        report = analyze_module_safety(ProgramFacts(module=module))
        assert report.verdict("main", "b") == PROVEN_SAFE

    def test_spilled_params_degrade_to_unknown_not_unsafe(self):
        module = compile_source(
            """
            void fill(char *p) { p[0] = 1; p[7] = 2; }
            int main() {
                char b[8];
                fill(b);
                return b[0];
            }
            """
        )
        report = analyze_module_safety(ProgramFacts(module=module))
        assert report.verdict("main", "b") == UNKNOWN

    def test_attacker_bounded_callee_write_is_unsafe(self):
        # The vulnerable_logger shape, minimized: the copy bound comes
        # straight from input_read, so the callee's overflow is
        # attacker-driven and the caller's frame lands in UNSAFE.
        module = compile_source(
            """
            void smash(char *p, int n) {
                int i;
                i = 0;
                while (i < n) { p[i] = 0; i = i + 1; }
            }
            int main() {
                char pkt[128];
                char b[8];
                int got;
                got = input_read(pkt, 128);
                smash(b, got);
                return 0;
            }
            """
        )
        report = analyze_module_safety(ProgramFacts(module=module))
        assert report.verdict("main", "b") == UNSAFE
        assert report.verdict("smash", "p") == UNSAFE

    def test_constant_overlong_callee_write_is_not_proven(self):
        # A deterministic (untainted) out-of-bounds write is a bug but
        # not attacker-steerable; the prover refuses the proof without
        # claiming exploitability.
        module = compile_source(
            """
            void smash(char *p, int n) {
                int i;
                i = 0;
                while (i < n) { p[i] = 0; i = i + 1; }
            }
            int main() {
                char b[8];
                smash(b, 100);
                return 0;
            }
            """,
            opt_level=2,
        )
        report = analyze_module_safety(ProgramFacts(module=module))
        assert report.verdict("main", "b") != PROVEN_SAFE

    def test_escaped_address_is_not_proven(self):
        # Once the address leaks into integer/global space the prover
        # loses track of writes through it: the honest answer is
        # UNKNOWN, never PROVEN_SAFE.
        module = compile_source(
            """
            long g_p;
            int main() {
                char b[8];
                g_p = (long)&b[0];
                b[0] = 1;
                return 0;
            }
            """
        )
        report = analyze_module_safety(ProgramFacts(module=module))
        assert report.verdict("main", "b") == UNKNOWN


class TestSoundnessGates:
    SOURCES = [
        pytest.param(CLEAN, id="checksum_clean"),
        pytest.param(VULNERABLE, id="vulnerable_logger"),
    ] + ATTACKS[:0]

    @pytest.mark.parametrize("source", [
        pytest.param(CLEAN, id="checksum_clean"),
        pytest.param(VULNERABLE, id="vulnerable_logger"),
        pytest.param(librelp.SOURCE, id="librelp"),
        pytest.param(wireshark.SOURCE, id="wireshark"),
        pytest.param(proftpd.SOURCE, id="proftpd"),
        pytest.param(ripe.StackDirectBruteForce.source, id="ripe"),
    ])
    def test_proven_never_in_possible_reach(self, source):
        module = compile_source(source)
        assert proven_reach_conflicts(ProgramFacts(module=module)) == []

    @pytest.mark.parametrize("source", [
        pytest.param(CLEAN, id="checksum_clean"),
        pytest.param(VULNERABLE, id="vulnerable_logger"),
        pytest.param(librelp.SOURCE, id="librelp"),
        pytest.param(wireshark.SOURCE, id="wireshark"),
        pytest.param(proftpd.SOURCE, id="proftpd"),
        pytest.param(ripe.StackDirectBruteForce.source, id="ripe"),
    ])
    def test_vm_probe_never_corrupts_a_proven_slot(self, source):
        module = compile_source(source)
        probes = crosscheck_safety(ProgramFacts(module=module))
        bad = [p for p in probes if not p.ok]
        assert bad == [], [p.describe() for p in bad]


class TestSelectiveHardening:
    def _run(self, source, config, inputs):
        hardened = harden_source(source, config)
        machine = hardened.make_machine(
            entropy=DeterministicEntropy(7), inputs=list(inputs)
        )
        return hardened, machine.run()

    def test_selective_skips_exactly_the_proven_functions(self):
        config = SmokestackConfig(selective=True)
        hardened = harden_source(CLEAN, config)
        assert set(hardened.selective_skipped()) == {"checksum", "main"}

    def test_selective_skips_nothing_on_the_vulnerable_example(self):
        config = SmokestackConfig(selective=True)
        hardened = harden_source(VULNERABLE, config)
        assert hardened.selective_skipped() == []

    def test_selective_preserves_observables(self):
        inputs = [b"selective-mode-check"]
        _, full = self._run(CLEAN, SmokestackConfig(), inputs)
        _, sel = self._run(CLEAN, SmokestackConfig(selective=True), inputs)
        baseline = Machine(
            compile_source(CLEAN), inputs=list(inputs)
        ).run()
        for result in (full, sel):
            assert result.outcome == "exit"
            assert result.exit_code == baseline.exit_code
            assert result.int_outputs == baseline.int_outputs
            assert result.str_outputs == baseline.str_outputs

    def test_selective_leaves_unsafe_functions_instrumented(self):
        from repro.core import is_instrumented

        hardened = harden_source(
            VULNERABLE, SmokestackConfig(selective=True)
        )
        assert is_instrumented(hardened.module.get_function("format_entry"))

    def test_selective_skipped_functions_keep_their_allocas(self):
        hardened = harden_source(CLEAN, SmokestackConfig(selective=True))
        fn = hardened.module.get_function("main")
        names = {a.var_name for a in fn.static_allocas()}
        assert "buf" in names  # original slot, no __ss_frame rewrite
