"""One fact bundle for every analysis: ``analyze`` reads the module it
reports on, and its rows agree with the exploit prover's facts."""

from pathlib import Path

import pytest

from repro.analysis import analyze_program, reach_under_defense
from repro.analysis.exploit import ExploitProver, default_goals
from repro.core.pipeline import compile_source
from repro.defenses.registry import DEFENSE_ORDER, defense_class
from repro.synth.campaign import canned_cases
from repro.synth.facts import ProgramFacts

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "minic"
CI_EXAMPLES = ("vulnerable_logger.c", "checksum_clean.c")
CANNED = {case.name: case for case in canned_cases()}


def _example(name):
    return (EXAMPLES / name).read_text()


@pytest.mark.parametrize(
    "source",
    [
        pytest.param(_example("vulnerable_logger.c"), id="vulnerable_logger"),
        pytest.param(CANNED["canned-wireshark"].source, id="wireshark"),
        pytest.param(CANNED["canned-proftpd"].source, id="proftpd"),
    ],
)
def test_exploit_proves_the_optimized_module_it_reports_on(source):
    report = analyze_program(source, "p", opt_level=2, exploit=True)
    facts = ProgramFacts(source, module=compile_source(source, opt_level=2))
    prover = ExploitProver(facts)
    expected = [
        prover.prove(goal, defense).to_dict()
        for goal in default_goals(facts)
        for defense in DEFENSE_ORDER
    ]
    assert [entry.to_dict() for entry in report.exploit] == expected
    for goal in default_goals(facts):
        frame = facts.of(report.module.functions[goal.function])
        assert goal.slot in {slot.name for slot in frame.layout().named_slots()}


@pytest.mark.parametrize("name", CI_EXAMPLES)
def test_given_module_reports_like_a_fresh_compile(name):
    source = _example(name)
    options = dict(crosscheck=True, prove=True, exploit=True)
    fresh = analyze_program(source, name, **options)
    cached = analyze_program(
        source, name, module=compile_source(source), **options
    )
    assert cached.to_dict() == fresh.to_dict()


@pytest.mark.parametrize("name", sorted(CANNED))
def test_cleanstack_reach_rows_match_the_provers_partition(name):
    case = CANNED[name]
    report = analyze_program(case.source, case.name)
    facts = ProgramFacts(case.source, case.name)
    rows = [row for row in report.reach if row.defense == "cleanstack"]
    assert rows
    for row in rows:
        function = facts.of(facts.function(row.function))
        assert row == reach_under_defense(
            function, row.buffer, defense_class("cleanstack")
        ), (row.function, row.buffer)
