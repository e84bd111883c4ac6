"""The analyzer vs. the canned attacks: do reports match what they hit?

Each of the four ported attacks corrupts specific stack slots.  These
tests compile the attack victims and assert the static analyzer reports
exactly those slots as reachable from the overflowed buffer — the
analyzer would have *predicted* every one of the repo's attacks.
"""

import pytest

from repro.analysis import (
    TaintFlowAnalysis,
    frame_height,
    input_deriving_functions,
    overflow_reach,
    reach_under_defense,
    stacked_layout,
)
from repro.analysis.reach import intra_frame_reach
from repro.attacks import librelp, proftpd, ripe, wireshark
from repro.core import compile_source
from repro.defenses import NoDefense, SmokestackDefense
from repro.synth.facts import FunctionFacts


class TestLibrelp:
    """CVE-2018-1000140: ``all_names`` overflow aimed at the caller.

    The DOP gadget operands (``op``/``g_src``/``g_dst``/``g_cnt``) and
    the dispatcher bound (``iters``) live one frame up in
    ``relp_lstn_init`` — the overflow must escape the victim frame and
    the stacked model must place every operand in reach.
    """

    def setup_method(self):
        self.module = compile_source(librelp.SOURCE)
        self.victim = FunctionFacts(
            self.module.get_function("relp_chk_peer_name")
        )
        self.caller = FunctionFacts(self.module.get_function("relp_lstn_init"))

    def test_overflow_escapes_victim_frame(self):
        layout = self.victim.layout()
        reach = overflow_reach(layout, "all_names", 4096)
        assert reach.cookie  # plows through the return cookie
        assert reach.escapes  # and leaves the frame entirely

    def test_caller_gadget_state_in_stacked_reach(self):
        stacked = stacked_layout(self.caller, self.victim)
        reach = overflow_reach(stacked, "all_names", 4096)
        expected = {
            "relp_lstn_init:op",
            "relp_lstn_init:g_src",
            "relp_lstn_init:g_dst",
            "relp_lstn_init:g_cnt",
            "relp_lstn_init:iters",
        }
        assert expected <= reach.corrupted

    def test_caller_contains_the_dop_gadgets(self):
        # The attack's MOV/DEREF/SEND gadgets are flagged by taint: the
        # dispatcher consumes the (attacker-observing) callee's result.
        taint = TaintFlowAnalysis(
            self.caller.function, input_deriving_functions(self.module)
        )
        kinds = {s.kind for s in taint.sinks}
        assert "deref" in kinds  # g_src = *p
        assert "send" in kinds  # output_bytes((char*)g_src, ...)


class TestWireshark:
    """CVE-2014-2299: ``pd`` overflow onto same-frame gadget operands."""

    def setup_method(self):
        self.module = compile_source(wireshark.SOURCE)
        self.victim = FunctionFacts(self.module.get_function("dissect_record"))

    def test_gadget_operands_in_intra_frame_reach(self):
        layout = self.victim.layout()
        reach = intra_frame_reach(layout, "pd")
        # The attack sets col (destination selector) and cinfo (value).
        assert {"col", "cinfo"} <= reach.corrupted
        assert reach.cookie

    def test_smokestack_removes_the_certainty(self):
        base = reach_under_defense(self.victim, "pd", NoDefense)
        ss = reach_under_defense(self.victim, "pd", SmokestackDefense, samples=64)
        assert {"col", "cinfo"} <= base.certain
        # Re-randomized layouts: no sibling is deterministically reachable.
        assert ss.certain < base.certain
        assert "col" not in ss.certain or "cinfo" not in ss.certain


class TestProftpd:
    """CVE-2006-5815: ``buf`` overflow stitching caller-frame gadgets."""

    def setup_method(self):
        self.module = compile_source(proftpd.SOURCE)
        self.victim = FunctionFacts(self.module.get_function("sreplace"))
        self.caller = FunctionFacts(self.module.get_function("command_loop"))

    def test_command_loop_state_in_stacked_reach(self):
        stacked = stacked_layout(self.caller, self.victim)
        reach = overflow_reach(stacked, "buf", 8192)
        expected = {
            "command_loop:op",
            "command_loop:g_src",
            "command_loop:g_dst",
            "command_loop:g_cnt",
            "command_loop:limit",
        }
        assert expected <= reach.corrupted

    def test_stacked_distances_shift_by_frame_height(self):
        # The caller's frame top sits one caller-frame-height above the
        # victim's frame top (callee frame_top == caller frame_base).
        stacked = stacked_layout(self.caller, self.victim)
        caller_frame = self.caller.layout()
        height = frame_height(caller_frame)
        op = caller_frame.slot("op")
        assert stacked.slot("command_loop:op").lo == op.lo + height


class TestRipe:
    """RIPE-style stack-direct: ``buff`` overflow onto session state."""

    def setup_method(self):
        self.module = compile_source(ripe.StackDirectBruteForce.source)
        self.victim = FunctionFacts(self.module.get_function("victim"))

    def test_quota_and_session_state_reachable(self):
        layout = self.victim.layout()
        reach = intra_frame_reach(layout, "buff")
        # The strike targets quota; the collateral the attack must
        # preserve byte-exactly is the s_* session state in between.
        assert "quota" in reach.corrupted
        assert {"s_timeout", "s_cred", "s_scratch"} <= reach.corrupted
        assert reach.cookie

    def test_static_permute_leaves_residual_certainty_smokestack_none(self):
        base = reach_under_defense(self.victim, "buff", NoDefense)
        ss = reach_under_defense(self.victim, "buff", SmokestackDefense,
                                 samples=64)
        assert base.certain  # deterministic target under baseline
        assert ss.certain < base.certain


class TestDefenseOrdering:
    """Across all four victims: randomization strictly shrinks certainty."""

    @pytest.mark.parametrize(
        "source,function,buffer",
        [
            (librelp.SOURCE, "relp_chk_peer_name", "all_names"),
            (wireshark.SOURCE, "dissect_record", "pd"),
            (proftpd.SOURCE, "sreplace", "buf"),
            (ripe.StackDirectBruteForce.source, "victim", "buff"),
        ],
        ids=["librelp", "wireshark", "proftpd", "ripe"],
    )
    def test_smokestack_certain_strictly_smaller(self, source, function,
                                                 buffer):
        fn = FunctionFacts(compile_source(source).get_function(function))
        base = reach_under_defense(fn, buffer, NoDefense)
        ss = reach_under_defense(fn, buffer, SmokestackDefense, samples=64)
        if base.certain:
            assert ss.certain < base.certain
        # Baseline's certain set always survives somewhere in the union.
        assert base.certain <= ss.possible | base.certain
