"""Tests for the attack compiler (:mod:`repro.synth`).

The load-bearing properties:

* **prediction == observation** — whatever corruption the planner
  predicts, the :class:`SlotProbe` must observe byte-for-byte in the VM
  under a deterministic defense (zero tolerance, hypothesis-driven);
* **canned re-derivation** — the synthesizer re-derives all four canned
  CVE attacks from goal predicates alone on the baseline defense;
* **soundness** — no chain against fully proven-safe code, and no
  successful corruption of a ``PROVEN_SAFE`` slot;
* **census identity** — the planner's gadget census is the analyzer's
  gadget census, same walk, no drift.
"""

import unittest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.exploit import EXPLOITABLE, ROBUST, UNDECIDED
from repro.analysis.gadgets import find_gadgets, sink_to_gadget
from repro.analysis.safety import PROVEN_SAFE
from repro.attacks.harness import run_campaign
from repro.defenses.registry import defense_names, make_defense
from repro.fuzz.victims import generate_victim, generate_victims
from repro.synth.campaign import (
    DefenseOutcome,
    SynthConfig,
    VictimCase,
    canned_cases,
    check_exploit_soundness,
    check_plan_soundness,
    example_cases,
    fuzz_cases,
    run_synth_campaign,
    run_victim,
)
from repro.synth.facts import FunctionFacts, ProgramFacts
from repro.synth.goals import CorruptGoal, ExfilGoal, parse_goal
from repro.synth.planner import synthesize
from repro.synth.scenario import SynthScenario

LOGGER_SOURCE = open("examples/minic/vulnerable_logger.c").read()
CLEAN_SOURCE = open("examples/minic/checksum_clean.c").read()


def _plan_and_run(facts, goal, defense_name="none", restarts=4, seed=7):
    plan = synthesize(facts, goal)
    assert plan is not None, "planner refused a known-vulnerable victim"
    scenario = SynthScenario(facts, plan, defense_name)
    report = run_campaign(
        scenario, make_defense(defense_name), restarts=restarts, seed=seed
    )
    return plan, scenario, report


class PredictionMatchesObservationTest(unittest.TestCase):
    """Planner-predicted corruptions must be VM ground truth, exactly."""

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(value=st.integers(min_value=1, max_value=2**63 - 1))
    def test_logger_quota_prediction_is_exact(self, value):
        facts = ProgramFacts(LOGGER_SOURCE, "logger")
        goal = CorruptGoal("format_entry", "quota", value)
        plan, scenario, report = _plan_and_run(facts, goal)
        self.assertEqual(report.verdict(), "bypassed")
        predicted = plan.predicted_corruptions()
        self.assertIn(("format_entry", "quota", value), predicted)
        probe = scenario.last_probe
        self.assertIsNotNone(probe)
        for function, slot, want in predicted:
            observed = probe.observed(function, slot)
            self.assertIn(
                want,
                observed,
                f"predicted {function}.{slot}=={hex(want)}, VM saw {sorted(map(hex, observed))}",
            )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=300))
    def test_fuzz_victim_gate_prediction_is_exact(self, seed):
        spec = generate_victim(seed)
        if not spec.exploitable:
            return
        facts = ProgramFacts(spec.source, f"victim{seed}")
        goal = CorruptGoal("run", "gate", spec.magic)
        plan, scenario, report = _plan_and_run(facts, goal)
        self.assertEqual(report.verdict(), "bypassed")
        self.assertIn(("run", "gate", spec.magic), plan.predicted_corruptions())
        self.assertTrue(
            scenario.last_probe.observed_value(
                "run", "gate", spec.magic.to_bytes(8, "little")
            )
        )


class CannedRederivationTest(unittest.TestCase):
    """All four canned CVE attacks fall out of goal predicates alone."""

    def test_canned_attacks_rederived_on_baseline(self):
        for case in canned_cases():
            result = run_victim(case, ["none"], restarts=4, seed=7)
            self.assertTrue(result.planned, f"{case.name}: no plan")
            self.assertEqual(result.soundness, [], case.name)
            outcome = result.defenses[0]
            self.assertEqual(outcome.verdict, "bypassed", f"{case.name}: {outcome}")
            self.assertEqual(
                outcome.first_success, 1, f"{case.name} needed layout guessing on baseline"
            )


class SoundnessTest(unittest.TestCase):
    """The planner and the bounds-safety prover must agree."""

    def test_no_chain_against_proven_safe_program(self):
        facts = ProgramFacts(CLEAN_SOURCE, "clean")
        for function in facts.functions():
            record = facts.safety.functions.get(function.name)
            self.assertIsNotNone(record, function.name)
            self.assertTrue(
                record.proven, f"{function.name} unexpectedly not PROVEN_SAFE"
            )
        self.assertIsNone(synthesize(facts, CorruptGoal("main", "total", 7)))
        self.assertIsNone(synthesize(facts, ExfilGoal(b"anything")))

    def test_successful_corruption_targets_are_never_proven_safe(self):
        for seed in range(0, 12):
            spec = generate_victim(seed)
            if not spec.exploitable:
                continue
            facts = ProgramFacts(spec.source, f"victim{seed}")
            plan = synthesize(facts, ExfilGoal(spec.secret))
            if plan is None:
                continue
            self.assertEqual(check_plan_soundness(facts, plan), [])
            for strike in plan.strikes:
                for write in strike.writes:
                    function = (
                        plan.channel.function.name
                        if write.frame == "victim"
                        else plan.channel.caller.function.name
                    )
                    self.assertNotEqual(
                        facts.safety.verdict(function, write.slot),
                        PROVEN_SAFE,
                        f"{function}.{write.slot}",
                    )

    def test_campaign_flags_plan_against_expected_safe_program(self):
        cases = [
            VictimCase(
                "clean", CLEAN_SOURCE, "corrupt:main.total=7", expect_plan=False
            )
        ]
        summary = run_synth_campaign(
            cases, SynthConfig(defenses=("none",), restarts=1)
        )
        self.assertEqual(summary.soundness_violations, [])
        self.assertEqual(summary.counts()["no_plan"], 1)


class CensusIdentityTest(unittest.TestCase):
    """One census: the planner sees exactly the analyzer's gadgets."""

    def test_planner_census_is_analyzer_census(self):
        sources = [(case.name, case.source) for case in canned_cases()]
        sources.append(("logger", LOGGER_SOURCE))
        for name, source in sources:
            facts = ProgramFacts(source, name)
            for function in facts.functions():
                via_analyzer = {
                    id(g.instruction): g.kind
                    for g in find_gadgets(FunctionFacts(function))
                }
                via_planner = {}
                for hit in facts.sinks(function):
                    gadget = sink_to_gadget(hit, facts.taint(function))
                    if gadget is not None:
                        via_planner[id(gadget.instruction)] = gadget.kind
                self.assertEqual(
                    via_analyzer,
                    via_planner,
                    f"census drift in {name}:{function.name}",
                )


class VictimGeneratorTest(unittest.TestCase):
    def test_deterministic(self):
        self.assertEqual(generate_victim(5), generate_victim(5))

    def test_cohort_mix(self):
        cohort = generate_victims(60)
        marked = sum(1 for spec in cohort if spec.marked)
        controls = sum(1 for spec in cohort if not spec.exploitable)
        self.assertGreater(marked, 10)
        self.assertGreater(len(cohort) - marked, 10)
        self.assertGreater(controls, 0)
        self.assertLess(controls, len(cohort) // 4)

    def test_controls_are_truly_unexploitable(self):
        for spec in generate_victims(40):
            if spec.exploitable:
                continue
            facts = ProgramFacts(spec.source, f"victim{spec.seed}")
            self.assertIsNone(synthesize(facts, ExfilGoal(spec.secret)))


class DefenseOrderingTest(unittest.TestCase):
    """The headline result on a small fixed cohort, strictly ordered."""

    def test_success_rates_order_smokestack_lowest(self):
        cases = [
            VictimCase(
                f"fuzz-{spec.seed}",
                spec.source,
                "exfil:" + spec.secret.hex(),
                expect_plan=spec.exploitable or None,
            )
            for spec in generate_victims(16)
        ]
        summary = run_synth_campaign(
            cases,
            SynthConfig(
                defenses=("none", "static-permute", "smokestack"), restarts=6
            ),
        )
        table = summary.per_defense()
        smokestack = table["smokestack"]["success_rate"]
        static_permute = table["static-permute"]["success_rate"]
        baseline = table["none"]["success_rate"]
        self.assertLess(smokestack, static_permute, table)
        self.assertLess(static_permute, baseline, table)


class BudgetCutTest(unittest.TestCase):
    """A budget-6 campaign is exactly the first 6 attempts of a budget-8 one."""

    def test_truncated_long_campaign_equals_short_campaign(self):
        defenses = sorted(defense_names())
        # fuzz-11: static-permute fails all 8 attempts and smokestack is
        # bypassed only on attempt 7, so the cut changes its verdict
        for case in (canned_cases()[0], fuzz_cases(1, start_seed=11)[0]):
            long = run_victim(case, defenses, restarts=8)
            short = run_victim(case, defenses, restarts=6)
            self.assertEqual(
                [o.truncated(6) for o in long.defenses], short.defenses, case.name
            )
        by_defense = {o.defense: o for o in long.defenses}
        self.assertEqual(by_defense["static-permute"].attempts, 8)
        self.assertEqual(by_defense["smokestack"].first_success, 7)
        self.assertEqual(by_defense["smokestack"].truncated(6).verdict, "stopped")

    def test_outcome_properties(self):
        outcome = DefenseOutcome("canary", ("detected", "crashed", "success"))
        self.assertEqual(outcome.attempts, 3)
        self.assertEqual(outcome.successes, 1)
        self.assertEqual(outcome.first_success, 3)
        self.assertEqual(outcome.verdict, "bypassed")
        self.assertEqual(
            outcome.breakdown,
            {"success": 1, "detected": 1, "crashed": 1, "failed": 0, "limit": 0},
        )
        cut = outcome.truncated(2)
        self.assertEqual((cut.successes, cut.first_success), (0, None))
        self.assertEqual(cut.verdict, "stopped")


class ExploitSoundnessRuleTest(unittest.TestCase):
    """Known answers for the one prover-vs-VM soundness rule."""

    def test_success_under_robust_verdict(self):
        violations = check_exploit_soundness(
            {"smokestack": ROBUST},
            [DefenseOutcome("smokestack", ("detected", "success"))],
            True,
        )
        self.assertEqual(len(violations), 1)
        self.assertIn(f"{ROBUST} under smokestack", violations[0])

    def test_unconfirmed_exploitable_under_fixed_defense(self):
        stopped = ("failed",) * 8
        violations = check_exploit_soundness(
            {"none": EXPLOITABLE, "static-permute": EXPLOITABLE},
            [
                DefenseOutcome("none", stopped),
                DefenseOutcome("static-permute", stopped),
            ],
            True,
        )
        # only the single-layout defense must confirm certain reach
        self.assertEqual(len(violations), 1)
        self.assertIn("deterministic defense none", violations[0])

    def test_control_not_robust(self):
        violations = check_exploit_soundness(
            {"none": ROBUST, "canary": UNDECIDED}, [], False
        )
        self.assertEqual(len(violations), 1)
        self.assertIn(f"{UNDECIDED} under canary", violations[0])

    def test_clean(self):
        self.assertEqual(
            check_exploit_soundness(
                {"none": EXPLOITABLE, "smokestack": UNDECIDED},
                [
                    DefenseOutcome("none", ("success",)),
                    DefenseOutcome("smokestack", ("detected",) * 8),
                ],
                True,
            ),
            [],
        )
        self.assertEqual(
            check_exploit_soundness(
                {d: ROBUST for d in defense_names()}, [], False
            ),
            [],
        )


class GoalGrammarTest(unittest.TestCase):
    def test_parse_exfil_hex(self):
        goal = parse_goal("exfil:" + b"KEY".hex())
        self.assertIsInstance(goal, ExfilGoal)
        self.assertEqual(goal.needle, b"KEY")

    def test_parse_exfil_text(self):
        self.assertEqual(parse_goal("exfil-text:SECRET").needle, b"SECRET")

    def test_parse_corrupt(self):
        goal = parse_goal("corrupt:run.gate=0x2a")
        self.assertEqual(
            (goal.function, goal.slot, goal.value), ("run", "gate", 42)
        )

    def test_reject_garbage(self):
        for bad in ("", "exfil:", "corrupt:run.gate", "wat:1", "corrupt:x=1"):
            with self.assertRaises(ValueError):
                parse_goal(bad)


if __name__ == "__main__":
    unittest.main()
