"""The gate harness: one artifact envelope and exit code for every script."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.gate import Gate, environment, run, summarize, write_report

ROOT = Path(__file__).resolve().parent.parent


def load_measure():
    spec = importlib.util.spec_from_file_location(
        "bench_measure", ROOT / "bench" / "measure.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def passing_and_failing():
    good, bad = Gate("good"), Gate("bad")
    good.check(True, "fine")
    bad.check(False, "broken", "first reason", "second reason")
    bad.require([], "nothing missing")
    return good, bad


class TestSummaries:
    def test_single_run_quartiles_are_the_median(self):
        assert summarize([2.5]) == {
            "median": 2.5, "q1": 2.5, "q3": 2.5, "spread": 0.0, "runs": 1,
        }

    @pytest.mark.parametrize(
        "samples", [[1.0], [3.0, 1.0], [1.0, 2.0, 4.0, 8.0, 9.0], [0.0, 0.0]]
    )
    def test_matches_the_benchmark_harness(self, samples):
        assert summarize(samples) == load_measure().summarize(samples)

    def test_environment_keys_match_the_benchmark_harness(self):
        record = environment()
        assert set(record) == {"git_sha", "python", "nproc", "platform"}
        assert set(record) == set(load_measure().environment())


class TestGate:
    def test_checks_record_name_pass_detail(self, capsys):
        good, bad = passing_and_failing()
        assert good.checks == [{"name": "good", "pass": True, "detail": "fine"}]
        assert bad.checks[0] == {
            "name": "bad", "pass": False,
            "detail": "broken: first reason; second reason",
        }
        assert bad.checks[1]["pass"]
        assert bad.failures == ["first reason", "second reason"]
        out = capsys.readouterr().out
        assert "good: fine [ok]" in out
        assert "bad: broken [GATE FAILURE]" in out
        assert "bad: nothing missing: 0 failures [ok]" in out

    def test_failure_line_stands_in_for_missing_reasons(self):
        only = Gate("only")
        only.check(False, "the line")
        assert only.failures == ["the line"]
        assert only.checks[0]["detail"] == "the line"


class TestReport:
    def test_envelope_comes_first_and_payload_is_sorted(self, tmp_path):
        path = tmp_path / "report.json"
        code = write_report(
            path, [Gate("empty")], [("wall", "s", [1.0, 3.0, 2.0])],
            zeta={"b": 1, "a": 2}, alpha=[1],
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert list(report) == [
            "environment", "checks", "measurements", "alpha", "zeta"
        ]
        assert list(report["zeta"]) == ["a", "b"]
        assert report["environment"] == environment()
        (record,) = report["measurements"]
        assert record == {
            "name": "wall", "unit": "s", "runs": 3,
            "median": 2.0, "q1": 1.0, "q3": 3.0,
        }

    def test_single_run_measurement(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, [], [("once", "s", [0.25])])
        (record,) = json.loads(path.read_text())["measurements"]
        assert record["runs"] == 1
        assert record["q1"] == record["median"] == record["q3"] == 0.25

    def test_failing_check_sets_the_exit_code(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert write_report(path, passing_and_failing(), []) == 1
        report = json.loads(path.read_text())
        assert [(c["name"], c["pass"]) for c in report["checks"]] == [
            ("good", True), ("bad", False), ("bad", True),
        ]
        out = capsys.readouterr().out
        assert "bad: FAILED" in out
        assert "  - first reason" in out

    def test_run_writes_what_collect_returns(self, tmp_path):
        path = tmp_path / "report.json"
        good = Gate("good")
        good.check(True, "fine")
        assert run(path, lambda: ([good], [], {"rows": 3})) == 0
        report = json.loads(path.read_text())
        assert report["rows"] == 3
        assert "environment" in report

    def test_missing_directory_raises_before_collect(self, tmp_path):
        called = []

        def collect():
            called.append(True)
            return [], [], {}

        with pytest.raises(FileNotFoundError):
            run(tmp_path / "missing" / "report.json", collect)
        assert not called
