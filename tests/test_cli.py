"""CLI tests (driving repro.cli.main directly)."""

import pytest

from repro.cli import main

HELLO = """
int main() {
    char msg[8] = "cli";
    print_str(msg);
    return 7;
}
"""

VULNERABLE = """
long g_x;
int main() {
    long *p = &g_x;
    long v = 0;
    char buf[16];
    long bound = 4;
    long i = 0;
    while (i < bound) {
        input_read(buf, 16);
        *p = v;
        i++;
    }
    return 0;
}
"""


@pytest.fixture
def hello_file(tmp_path):
    path = tmp_path / "hello.c"
    path.write_text(HELLO)
    return str(path)


@pytest.fixture
def vulnerable_file(tmp_path):
    path = tmp_path / "vuln.c"
    path.write_text(VULNERABLE)
    return str(path)


class TestRunCommand:
    def test_run_prints_result(self, hello_file, capsys):
        status = main(["run", hello_file])
        out = capsys.readouterr().out
        assert status == 0
        assert "exit    : 7" in out
        assert "b'cli'" in out

    def test_run_with_opt(self, hello_file, capsys):
        assert main(["run", hello_file, "--opt", "2"]) == 0
        assert "exit    : 7" in capsys.readouterr().out

    def test_run_with_inputs(self, tmp_path, capsys):
        path = tmp_path / "echo.c"
        path.write_text(
            "int main() { char b[8]; int n = input_read(b, 8); return n; }"
        )
        assert main(["run", str(path), "--input", "abc"]) == 0
        assert "exit    : 3" in capsys.readouterr().out


    @pytest.mark.parametrize(
        "engine_args, expect",
        [
            ([], ("jit", True)),  # default: the tiered JIT
            (["--engine", "jit"], ("jit", True)),
            (["--engine", "fast"], ("fast", False)),
            (["--engine", "slow"], ("slow", False)),
        ],
    )
    def test_run_engine_selection(
        self, hello_file, capsys, monkeypatch, engine_args, expect
    ):
        import repro.cli as cli

        built = []

        class Recording(cli.Machine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(cli, "Machine", Recording)
        assert main(["run", hello_file, *engine_args]) == 0
        assert "exit    : 7" in capsys.readouterr().out
        (machine,) = built
        assert (machine.engine, machine._hot is not None) == expect


class TestHardenCommand:
    def test_harden_runs_and_reports_pbox(self, hello_file, capsys):
        status = main(["harden", hello_file])
        out = capsys.readouterr().out
        assert status == 0
        assert "P-BOX" in out
        assert "exit    : 7" in out

    def test_harden_multiple_runs(self, hello_file, capsys):
        assert main(["harden", hello_file, "--runs", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("exit    : 7") == 3

    @pytest.mark.parametrize("scheme", ["pseudo", "aes-1", "rdrand"])
    def test_harden_schemes(self, hello_file, scheme, capsys):
        assert main(["harden", hello_file, "--scheme", scheme]) == 0


class TestIrCommand:
    def test_dump_baseline_ir(self, hello_file, capsys):
        assert main(["ir", hello_file]) == 0
        out = capsys.readouterr().out
        assert "define int @main" in out
        assert "alloca" in out

    def test_dump_hardened_ir(self, hello_file, capsys):
        assert main(["ir", hello_file, "--harden"]) == 0
        out = capsys.readouterr().out
        assert "__ss_rand" in out
        assert "__ss_pbox_" in out

    def test_dump_optimized_ir_has_phis(self, tmp_path, capsys):
        path = tmp_path / "loop.c"
        path.write_text(
            "int main() { int t = 0;"
            " for (int i = 0; i < 5; i++) t += i; return t; }"
        )
        assert main(["ir", str(path), "--opt", "2"]) == 0
        assert "phi" in capsys.readouterr().out


class TestAnalysisCommands:
    def test_gadget_census(self, vulnerable_file, capsys):
        assert main(["gadgets", vulnerable_file]) == 0
        out = capsys.readouterr().out
        assert "gadget census" in out
        assert "dispatchers" in out
        assert "USABLE" in out

    def test_entropy_report(self, vulnerable_file, capsys):
        assert main(["entropy", vulnerable_file]) == 0
        out = capsys.readouterr().out
        assert "weakest link" in out


class TestAttackCommand:
    def test_attack_stopped_by_smokestack(self, capsys):
        status = main(
            ["attack", "listing1", "--defense", "smokestack", "--restarts", "2"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "verdict  : stopped" in out

    def test_attack_bypasses_none(self, capsys):
        status = main(
            ["attack", "listing1", "--defense", "none", "--restarts", "2"]
        )
        out = capsys.readouterr().out
        assert status == 2
        assert "verdict  : bypassed" in out

    def test_unknown_attack_rejected(self):
        with pytest.raises(SystemExit):
            main(["attack", "nonexistent"])


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bench_accepts_workload_filter(self, capsys):
        status = main(
            ["bench", "--workloads", "xalancbmk", "--schemes", "pseudo"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "xalancbmk" in out


OVERFLOWING = """
int main() {
    long quota;
    int level;
    char line[16];
    int n;
    quota = 1;
    level = 2;
    n = input_read(line, 64);
    if (n > 0) { return level; }
    return (int)quota;
}
"""


@pytest.fixture
def overflowing_file(tmp_path):
    path = tmp_path / "overflowing.c"
    path.write_text(OVERFLOWING)
    return str(path)


class TestAnalyzeCommand:
    def test_analyze_reports_findings(self, overflowing_file, capsys):
        status = main(["analyze", overflowing_file])
        out = capsys.readouterr().out
        assert status == 0  # info findings don't trip --fail-on=error
        assert "exposure" in out
        assert "main" in out

    def test_analyze_json_artifact(self, overflowing_file, tmp_path, capsys):
        artifact = tmp_path / "report.json"
        status = main(
            ["analyze", overflowing_file, "--json", str(artifact)]
        )
        capsys.readouterr()
        assert status == 0
        import json

        blob = json.loads(artifact.read_text())
        assert blob["reports"][0]["findings"]

    def test_analyze_crosscheck_runs_clean(self, overflowing_file, capsys):
        status = main(["analyze", overflowing_file, "--crosscheck"])
        out = capsys.readouterr().out
        assert status == 0
        assert "0 mismatches" in out

    def test_analyze_fail_on_error(self, tmp_path, capsys):
        bad = tmp_path / "oob.c"
        bad.write_text(
            "int main() { char b[4]; b[9] = 1; return 0; }"
        )
        assert main(["analyze", str(bad)]) == 1
        capsys.readouterr()
        assert main(["analyze", str(bad), "--fail-on", "never"]) == 0

    def test_analyze_explain_finding(self, overflowing_file, capsys):
        status = main(["analyze", overflowing_file, "--verbose"])
        out = capsys.readouterr().out
        assert status == 0
        import re

        ids = re.findall(r"\b([GR]\d{3})\b", out)
        assert ids, out
        status = main(["analyze", overflowing_file, "--explain", ids[0]])
        explained = capsys.readouterr().out
        assert status == 0
        assert ids[0] in explained

    def test_analyze_explain_unknown_id(self, overflowing_file, capsys):
        status = main(["analyze", overflowing_file, "--explain", "G999"])
        capsys.readouterr()
        assert status == 2

    def test_analyze_compile_error_status(self, tmp_path, capsys):
        broken = tmp_path / "broken.c"
        broken.write_text("int main( {")
        status = main(["analyze", str(broken)])
        capsys.readouterr()
        assert status == 2

    def test_analyze_benchsuite_smoke(self, capsys):
        status = main(["analyze", "--benchsuite", "--fail-on", "never"])
        out = capsys.readouterr().out
        assert status == 0
        assert "benchsuite:" in out

    def test_analyze_exploit_verdicts(self, capsys):
        logger = str(EXAMPLES / "vulnerable_logger.c")
        status = main(
            ["analyze", logger, "--exploit", "--fail-on", "never"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "exploitability verdicts:" in out
        assert "PROVABLY_EXPLOITABLE" in out
        assert "adjusted=" in out  # verdicts folded into exposure

    def test_analyze_exploit_explain_witness(self, capsys):
        logger = str(EXAMPLES / "vulnerable_logger.c")
        status = main(
            ["analyze", logger, "--exploit", "--exploit-defenses", "none",
             "--explain", "E001"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "strike 1" in out  # the concrete witness chain

    def test_analyze_exploit_unknown_defense(self, capsys):
        logger = str(EXAMPLES / "vulnerable_logger.c")
        status = main(
            ["analyze", logger, "--exploit", "--exploit-defenses", "bogus"]
        )
        capsys.readouterr()
        assert status == 2


EXAMPLES = __import__("pathlib").Path(__file__).resolve().parent.parent \
    / "examples" / "minic"


class TestProveAndSelective:
    """Regression pins for ISSUE 4: the example pair's verdicts and the
    selective-hardening CLI surface must not drift."""

    def test_checksum_clean_is_fully_proven(self, capsys):
        status = main(
            ["analyze", str(EXAMPLES / "checksum_clean.c"), "--prove"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "UNSAFE=0" in out
        assert "UNKNOWN=0" in out
        assert "'checksum'" in out and "'main'" in out  # fully proven

    def test_vulnerable_logger_is_not_proven(self, capsys):
        status = main(
            ["analyze", str(EXAMPLES / "vulnerable_logger.c"), "--prove"]
        )
        out = capsys.readouterr().out
        assert status == 0  # UNSAFE verdicts are warnings, bar is error
        assert "S001 [warning]" in out
        assert "is UNSAFE" in out
        assert "'line'" in out
        assert "fully proven functions: none" in out

    def test_prove_verdicts_fail_on_warning(self, capsys):
        status = main(
            ["analyze", str(EXAMPLES / "vulnerable_logger.c"), "--prove",
             "--fail-on", "warning"]
        )
        capsys.readouterr()
        assert status == 1

    def test_prove_json_carries_safety_section(self, tmp_path, capsys):
        import json

        artifact = tmp_path / "prove.json"
        status = main(
            ["analyze", str(EXAMPLES / "checksum_clean.c"), "--prove",
             "--json", str(artifact)]
        )
        capsys.readouterr()
        assert status == 0
        blob = json.loads(artifact.read_text())
        safety = blob["reports"][0]["safety"]
        assert safety["slot_counts"]["UNSAFE"] == 0
        assert set(safety["proven_functions"]) == {"checksum", "main"}

    def test_harden_selective_reports_skips(self, capsys):
        status = main(
            ["harden", str(EXAMPLES / "checksum_clean.c"), "--selective"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "selective:" in out
        assert "checksum" in out

    def test_harden_selective_vulnerable_skips_none(self, capsys):
        # The run itself may fault (the victim's unbounded output read
        # trips the hardened frame) — the pin is the skip report: the
        # prover must not exempt any function here.
        main(
            ["harden", str(EXAMPLES / "vulnerable_logger.c"), "--selective"]
        )
        out = capsys.readouterr().out
        assert "selective: 0 proven-safe function(s)" in out


class TestTraceCommand:
    #: 24 bytes into line[16]: overflows upward into level and quota but
    #: stops short of the return cookie, so the run still exits cleanly.
    SPILL = "A" * 24

    def test_trace_file_reports_crossing(self, overflowing_file, capsys):
        status = main(["trace", overflowing_file, "--input", self.SPILL])
        out = capsys.readouterr().out
        assert status == 0
        assert "outcome  : exit" in out
        assert "boundary-crossing" in out
        assert "first boundary crossing" in out
        assert "overflow" in out

    def test_trace_exports_jsonl_and_chrome(
        self, overflowing_file, tmp_path, capsys
    ):
        import json

        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        status = main(
            ["trace", overflowing_file, "--input", self.SPILL,
             "--writes", "all",
             "--json", str(jsonl), "--chrome", str(chrome)]
        )
        capsys.readouterr()
        assert status == 0
        events = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        assert events[0]["ev"] == "start"
        assert events[-1]["ev"] == "end"
        blob = json.loads(chrome.read_text())
        assert blob["traceEvents"]

    def test_trace_hardened_moves_crossings_in_frame(
        self, overflowing_file, capsys
    ):
        # Under Smokestack the unified permuted frame is one slot: the
        # same overflow no longer crosses a slot boundary.
        status = main(
            ["trace", overflowing_file, "--harden", "--input", self.SPILL]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "0 boundary-crossing" in out

    def test_trace_attack_forensics_consistent(self, capsys):
        status = main(
            ["trace", "--attack", "ripe", "--restarts", "2"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "corruption timeline" in out
        assert "CONSISTENT" in out

    def test_trace_without_file_or_attack_errors(self, capsys):
        status = main(["trace"])
        out = capsys.readouterr().out
        assert status == 2
        assert "--attack" in out

    def test_trace_unknown_attack_raises(self):
        with pytest.raises(ValueError, match="unknown attack"):
            main(["trace", "--attack", "bogus"])


class TestProfileCommand:
    def test_profile_prints_table(self, hello_file, capsys):
        status = main(["profile", hello_file])
        out = capsys.readouterr().out
        assert status == 0
        assert "opcode" in out and "cycles" in out and "share" in out
        assert "guest cycles" in out

    def test_profile_top_limits_rows(self, hello_file, capsys):
        assert main(["profile", hello_file, "--top", "2"]) == 0
        out = capsys.readouterr().out
        table = [
            line for line in out.splitlines()
            if line and not line.startswith("outcome")
        ]
        # header + at most 2 opcode rows
        assert len(table) <= 3

    def test_profile_hardened_shows_permute_cost(self, hello_file, capsys):
        assert main(["profile", hello_file, "--harden"]) == 0
        out = capsys.readouterr().out
        assert "Call" in out or "call" in out
