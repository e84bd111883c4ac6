"""Benchmark suite tests: workload correctness and harness behaviour."""

import pytest

from repro.benchsuite import (
    IO_WORKLOADS,
    SPEC_WORKLOADS,
    WORKLOADS,
    get_workload,
    measure_workload,
    render_figure3,
    render_figure4,
    render_overhead_summary,
    render_table1,
    run_baseline,
)
from repro.benchsuite.runner import SuiteResults
from repro.core import SmokestackConfig, harden_source
from repro.errors import BenchmarkError
from repro.rng import DeterministicEntropy
from repro.vm import Machine
from tests.workload_engines import HARDENED_WORKLOADS, slow_reference


class TestWorkloadRegistry:
    def test_sixteen_workloads(self):
        assert len(WORKLOADS) == 16

    def test_categories_partition(self):
        assert set(SPEC_WORKLOADS) | set(IO_WORKLOADS) == set(WORKLOADS)
        assert not set(SPEC_WORKLOADS) & set(IO_WORKLOADS)

    def test_io_workloads_are_the_papers_apps(self):
        assert set(IO_WORKLOADS) == {"proftpd", "wireshark"}

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_workload("specmark9000")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_baseline_runs_cleanly(name):
    measurement = run_baseline(get_workload(name))
    assert measurement.exit_code == 0
    assert measurement.int_outputs  # every workload prints its checksum


@pytest.mark.parametrize("name", ["perlbench", "libquantum", "proftpd"])
def test_workload_checksum_deterministic(name):
    a = run_baseline(get_workload(name))
    b = run_baseline(get_workload(name))
    assert a.int_outputs == b.int_outputs
    assert a.cycles == b.cycles


class TestHardenedCorrectness:
    @pytest.mark.parametrize("name", ["gcc", "omnetpp", "wireshark"])
    def test_hardened_output_matches_baseline(self, name):
        measurement = measure_workload(name, schemes=("aes-1",))
        hardened = measurement.hardened["aes-1"]
        assert hardened.int_outputs == measurement.baseline.int_outputs

    @pytest.mark.parametrize("name", HARDENED_WORKLOADS)
    def test_slow_hardened_output_matches_baseline(self, name):
        # the executor-table engine keeps hardened output too
        hardened = slow_reference(name, True)
        assert hardened.int_outputs == slow_reference(name, False).int_outputs

    def test_output_mismatch_raises(self, monkeypatch):
        from repro.benchsuite import runner

        real = runner.run_hardened

        def corrupted(*args, **kwargs):
            measurement = real(*args, **kwargs)
            return measurement._replace(int_outputs=(999,))

        monkeypatch.setattr(runner, "run_hardened", corrupted)
        with pytest.raises(BenchmarkError):
            runner.measure_workload("xalancbmk", schemes=("aes-1",))


class TestOverheadShape:
    """The Figure 3 shape: cheap sources cheap, RDRAND most expensive."""

    @pytest.fixture(scope="class")
    def perlbench(self):
        return measure_workload("perlbench")

    def test_scheme_ordering(self, perlbench):
        overheads = [
            perlbench.overhead_pct(s)
            for s in ("pseudo", "aes-1", "aes-10", "rdrand")
        ]
        assert overheads == sorted(overheads)

    def test_pseudo_is_near_noise(self, perlbench):
        assert abs(perlbench.overhead_pct("pseudo")) < 8.0

    def test_rdrand_is_substantial(self, perlbench):
        assert perlbench.overhead_pct("rdrand") > 20.0

    def test_call_free_workload_has_no_overhead(self):
        measurement = measure_workload("libquantum", schemes=("aes-10",))
        assert abs(measurement.overhead_pct("aes-10")) < 2.0

    def test_io_workload_overhead_is_small(self):
        measurement = measure_workload("proftpd", schemes=("rdrand",))
        assert measurement.overhead_pct("rdrand") < 8.0

    def test_memory_overhead_positive(self, perlbench):
        assert perlbench.memory_overhead_pct("aes-10") > 0.0
        assert perlbench.pbox_bytes > 0


class TestRenderers:
    @pytest.fixture(scope="class")
    def results(self):
        suite = SuiteResults(schemes=("pseudo", "aes-10"))
        for name in ("xalancbmk", "proftpd"):
            suite.add(measure_workload(name, schemes=("pseudo", "aes-10")))
        return suite

    def test_table1_renders(self):
        text = render_table1()
        assert "RDRAND" in text and "265.6" in text

    def test_table1_with_measurements(self):
        text = render_table1({"pseudo": 3.5})
        assert "3.5" in text

    def test_figure3_renders(self, results):
        text = render_figure3(results)
        assert "xalancbmk" in text and "SPEC average" in text

    def test_figure4_renders(self, results):
        text = render_figure4(results)
        assert "xalancbmk" in text
        assert "proftpd" not in text  # Figure 4 covers SPEC only

    def test_summary_renders(self, results):
        text = render_overhead_summary(results)
        assert "paper-avg" in text

    def test_average_requires_measurements(self):
        empty = SuiteResults(schemes=("aes-10",))
        with pytest.raises(BenchmarkError):
            empty.average_overhead("aes-10")


class TestTable1Measured:
    def test_measured_rates_match_nominal(self):
        # Run a call-heavy hardened workload and derive the per-invocation
        # randomness cost from the cycle difference between schemes.
        source = """
        int tick() { long a = 1; char b[8]; b[0] = 2; return (int)(a + b[0]); }
        int main() { int t = 0; for (int i = 0; i < 400; i++) t += tick(); return t & 0xff; }
        """
        hardened = harden_source(source)
        cycles = {}
        for scheme in ("pseudo", "aes-1", "aes-10", "rdrand"):
            machine = hardened.make_machine(
                entropy=DeterministicEntropy(0), scheme=scheme
            )
            result = machine.run()
            assert result.finished_cleanly()
            cycles[scheme] = result.cycles
        calls = 401  # tick x400 + main
        aes10_rate = (cycles["aes-10"] - cycles["pseudo"]) / calls + 3.4
        rdrand_rate = (cycles["rdrand"] - cycles["pseudo"]) / calls + 3.4
        assert aes10_rate == pytest.approx(92.8, rel=0.02)
        assert rdrand_rate == pytest.approx(265.6, rel=0.02)
