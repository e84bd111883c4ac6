"""Minimized synthesized attacks, promoted to standing regression tests.

Mirror of ``test_fuzz_regressions.py`` for the attack compiler: each
victim here was produced by :mod:`repro.fuzz.victims`, attacked by
``repro.synth``, and minimized with :func:`repro.fuzz.reduce` under the
predicate "the synthesizer still derives a working exploit on the
baseline defense".  The behaviors they pin down must not drift.
"""

import unittest

from repro.attacks.harness import run_campaign
from repro.defenses.registry import make_defense
from repro.synth.facts import ProgramFacts
from repro.synth.goals import ExfilGoal
from repro.synth.planner import synthesize
from repro.synth.scenario import SynthScenario

#: Reduced from an early victim-generator cohort member (669 -> 489
#: bytes; the generator has since grown more noise slots, so the seed no
#: longer regenerates this text — the reproducer stands alone).  The
#: caller's ``gate`` slot
#: carries a distinctive all-nonzero-byte initial value, so the strike
#: *locates* it inside the echoed stack disclosure instead of trusting a
#: layout hypothesis — the replay+marker path through
#: ``concretize._build_direct_leak``.
MARKED_GATE = """
char g_secret[40] = "AFXGF7XB79YPYXWFY8N75ER7V0V5LB17";
long serve() {
    char req[24];
    long n = 0;
    n = input_read(req, 344);
    output_bytes(req, 304);
}
long run() {
    long r = 0;
    long gate = 7924550605210011421;
    long limit = 6;
    while (r < limit) {
        if (serve() == 0) {
        }
        r = r + 1;
    }
    if (gate == 8887305640675026683) {
        output_bytes(g_secret, 32);
    }
}
int main() {
    char headroom[448];
    return (int)(run() & 1);
}
"""
MARKED_SECRET = b"AFXGF7XB79YPYXWFY8N75ER7V0V5LB17"

#: Reduced from the same early cohort (689 -> 471 bytes; stands alone,
#: as above).  ``gate`` inits to 0 — no
#: marker to find — so the strike must place it from the reference
#: layout hypothesis.  That guess is exact on the baseline and wrong
#: (deterministically, for this build seed) under a compile-time
#: permutation.
UNMARKED_GATE = """
char g_secret[40] = "RXS6A2NCMR8039BAVO4WN6F8QBRBAHY9";
long serve() {
    char req[64];
    long n = 0;
    n = input_read(req, 384);
    output_bytes(req, 344);
}
long run() {
    long limit = 5;
    long gate = 0;
    long r = 0;
    while (r < limit) {
        if (serve() == 0) {
        }
        r = r + 1;
    }
    if (gate == 1197609146361617204) {
        output_bytes(g_secret, 32);
    }
}
int main() {
    char headroom[448];
    return (int)(run() & 1);
}
"""
UNMARKED_SECRET = b"RXS6A2NCMR8039BAVO4WN6F8QBRBAHY9"

#: Distilled while building the victim generator: ``main`` called the
#: service directly, so its frame sat at the very top of the stack
#: segment and the disclosure over-read ran off the segment — every
#: attempt "crashed" on the *baseline*, which made the success-rate
#: columns meaningless.  The fix interposes a caller with dead headroom
#: above the disclosed region; this program reproduces the original
#: shape and must keep crashing (the crash is real VM semantics), while
#: the headroomed victims above must not.
NO_HEADROOM = """
char g_secret[40] = "J0W3Q2XKJ0W3Q2XKJ0W3Q2XKJ0W3Q2XK";
long serve() {
    char req[24];
    long n = 0;
    n = input_read(req, 344);
    output_bytes(req, 304);
    return 1;
}
int main() {
    long gate = 7924550605210011421;
    long limit = 2;
    long r = 0;
    while (r < limit) {
        if (serve() == 0) {
            break;
        }
        r = r + 1;
    }
    if (gate == 8887305640675026683) {
        output_bytes(g_secret, 32);
    }
    return 0;
}
"""


#: Distilled from the generator's unexploitable control cohort: the read
#: budget stops 8 bytes *short* of the buffer's end, so no write can
#: cross into ``run``'s frame however the layouts fall.  The planner must
#: refuse a chain, and the static exploitability prover must return
#: PROVABLY_ROBUST — not UNKNOWN — under every modeled defense: this is
#: the case that keeps the possible-mode over-approximation honest.
UNEXPLOITABLE_CONTROL = """
char g_secret[40] = "K4P0ZVEHB2K4P0ZVEHB2K4P0ZVEHB2K4";
long serve() {
    char req[32];
    long n = 0;
    n = input_read(req, 24);
    if (n <= 0) {
        return 0;
    }
    output_bytes(req, 312);
    return 1;
}
long run() {
    long gate = 0;
    long limit = 4;
    long r = 0;
    while (r < limit) {
        if (serve() == 0) {
            break;
        }
        r = r + 1;
    }
    if (gate == 8887305640675026683) {
        output_bytes(g_secret, 32);
    }
    return r;
}
int main() {
    char headroom[448];
    headroom[0] = 1;
    return (int)(run() & 1);
}
"""
UNEXPLOITABLE_SECRET = b"K4P0ZVEHB2K4P0ZVEHB2K4P0ZVEHB2K4"


def _campaign(source, secret, defense_name, restarts=4, seed=7):
    facts = ProgramFacts(source, "regression")
    plan = synthesize(facts, ExfilGoal(secret))
    if plan is None:
        return None
    scenario = SynthScenario(facts, plan, defense_name)
    return run_campaign(
        scenario, make_defense(defense_name), restarts=restarts, seed=seed
    )


class SynthRegressionTest(unittest.TestCase):
    def test_marked_gate_located_via_disclosure(self):
        for defense_name in ("none", "static-permute", "padding"):
            report = _campaign(MARKED_GATE, MARKED_SECRET, defense_name)
            self.assertIsNotNone(report, defense_name)
            self.assertEqual(report.verdict(), "bypassed", defense_name)
            self.assertEqual(report.first_success, 0, defense_name)

    def test_unmarked_gate_needs_the_layout_hypothesis(self):
        baseline = _campaign(UNMARKED_GATE, UNMARKED_SECRET, "none")
        self.assertEqual(baseline.verdict(), "bypassed")
        self.assertEqual(baseline.first_success, 0)
        permuted = _campaign(UNMARKED_GATE, UNMARKED_SECRET, "static-permute")
        self.assertEqual(permuted.verdict(), "stopped", permuted.breakdown())

    def test_smokestack_stops_both(self):
        # Smokestack's stopping power is probabilistic (per-invocation
        # re-deal): on frames this small a stale-leak replay still hits
        # occasionally, so the campaign seed is pinned to a verified
        # stopped-by-entropy run rather than pretending the residual is 0.
        for source, secret in (
            (MARKED_GATE, MARKED_SECRET),
            (UNMARKED_GATE, UNMARKED_SECRET),
        ):
            report = _campaign(source, secret, "smokestack", seed=2)
            self.assertEqual(report.verdict(), "stopped", report.breakdown())

    def test_unexploitable_control_refused_and_proven_robust(self):
        facts = ProgramFacts(UNEXPLOITABLE_CONTROL, "control")
        goal = ExfilGoal(UNEXPLOITABLE_SECRET)
        self.assertIsNone(synthesize(facts, goal))

        from repro.analysis.exploit import ROBUST, ExploitProver
        from repro.defenses.registry import DEFENSE_ORDER

        prover = ExploitProver(facts)
        for defense_name in DEFENSE_ORDER:
            verdict = prover.prove(goal, defense_name)
            self.assertEqual(verdict.verdict, ROBUST, defense_name)

    def test_overread_without_headroom_crashes_instead_of_scoring(self):
        report = _campaign(NO_HEADROOM, b"J0W3Q2XK" * 4, "none")
        self.assertIsNotNone(report)
        self.assertEqual(report.count("success"), 0)
        self.assertGreater(report.count("crashed"), 0, report.breakdown())


if __name__ == "__main__":
    unittest.main()
