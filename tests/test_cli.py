"""Tests for the command-line interfaces: ``repro-pathload`` and
``repro-sweep``."""

from repro.cli import main
from repro.sweep_cli import main as sweep_main


class TestCli:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "repro-pathload" in capsys.readouterr().out

    def test_figure_list(self, capsys):
        assert sweep_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "fig15-16" in out

    def test_figure_unknown(self, capsys):
        assert sweep_main(["fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure_jobs_below_one_rejected(self, capsys):
        assert sweep_main(["fig05", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_measure_single_hop(self, capsys):
        code = main(
            [
                "measure",
                "--capacity-mbps",
                "10",
                "--utilization",
                "0.5",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avail-bw range" in out
        assert "true average 5.00" in out

    def test_measure_with_json_output(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "measure",
                "--capacity-mbps",
                "10",
                "--utilization",
                "0.5",
                "--seed",
                "2",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        from repro.core.report_io import load_report

        report = load_report(str(out))
        assert report.low_bps <= report.high_bps

    def test_measure_multihop(self, capsys):
        code = main(
            ["measure", "--hops", "3", "--utilization", "0.6", "--seed", "3"]
        )
        assert code == 0
        assert "avail-bw range" in capsys.readouterr().out
