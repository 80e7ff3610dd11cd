"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTables:
    def test_table_1(self, capsys):
        code, out = run_cli(capsys, "table", "1")
        assert code == 0
        assert "Table 1" in out
        assert "Binary Event Model" in out

    def test_table_2(self, capsys):
        code, out = run_cli(capsys, "table", "2")
        assert code == 0
        assert "Location Determination" in out
        assert "0.25" in out

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            main(["table", "3"])


class TestAnalyze:
    def test_baseline_curve(self, capsys):
        code, out = run_cli(
            capsys, "analyze", "baseline", "--n", "10", "--p", "0.95"
        )
        assert code == 0
        assert "P(success)" in out
        assert out.count("\n") >= 12  # header + m = 0..10

    def test_decay_roots(self, capsys):
        code, out = run_cli(
            capsys, "analyze", "decay", "--lambdas", "0.1", "0.25"
        )
        assert code == 0
        assert "k_max" in out
        assert "0.25" in out

    def test_decay_small_n_prints_inf(self, capsys):
        code, out = run_cli(
            capsys, "analyze", "decay", "--n", "3", "--lambdas", "0.25"
        )
        assert code == 0
        assert "inf" in out


class TestFigures:
    def test_fig10_is_instant_and_tabular(self, capsys):
        code, out = run_cli(capsys, "fig", "10")
        assert code == 0
        assert "p=0.99" in out
        assert "% faulty" in out

    def test_fig11_uses_k_axis(self, capsys):
        code, out = run_cli(capsys, "fig", "11")
        assert code == 0
        assert "lambda=" in out
        assert out.splitlines()[1].startswith("k")

    def test_fig2_small_run(self, capsys):
        code, out = run_cli(
            capsys, "fig", "2", "--trials", "1", "--events", "10",
            "--seed", "3",
        )
        assert code == 0
        assert "NER" in out

    def test_invalid_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig", "1"])


class TestRun:
    def test_location_run_prints_metrics(self, capsys):
        code, out = run_cli(
            capsys, "run", "--nodes", "25", "--events", "10",
            "--percent-faulty", "20", "--seed", "3",
        )
        assert code == 0
        assert "accuracy" in out
        assert "TIBFIT" in out

    def test_baseline_flag(self, capsys):
        code, out = run_cli(
            capsys, "run", "--nodes", "25", "--events", "5",
            "--baseline", "--seed", "3",
        )
        assert code == 0
        assert "Baseline (majority)" in out

    def test_binary_mode(self, capsys):
        code, out = run_cli(
            capsys, "run", "--mode", "binary", "--nodes", "10",
            "--events", "10", "--percent-faulty", "40", "--seed", "3",
        )
        assert code == 0
        assert "binary" in out

    def test_diagnosis_reporting(self, capsys):
        code, out = run_cli(
            capsys, "run", "--nodes", "25", "--events", "20",
            "--percent-faulty", "20", "--seed", "3",
            "--diagnosis-threshold", "0.3",
        )
        assert code == 0
        assert "diagnosed nodes" in out
        assert "diagnosis recall" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestTrace:
    ARGS = (
        "trace", "--mode", "binary", "--nodes", "10", "--events", "15",
        "--percent-faulty", "30", "--seed", "7",
        "--diagnosis-threshold", "0.5",
    )

    def test_renders_trajectories_and_timeline(self, capsys):
        code, out = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert "TI trajectories" in out
        assert "decision timeline:" in out
        assert "metrics registry:" in out
        assert "radio.sent" in out
        assert "trust.vote.margin" in out

    def test_exports_validating_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "artifacts"
        code, out = run_cli(capsys, *self.ARGS, "--out", str(out_dir))
        assert code == 0
        assert "artifacts:" in out
        from repro.obs.export import validate_artifacts

        counts = validate_artifacts(out_dir)
        assert counts["metrics.jsonl"] > 0
        # The TI history's record: the journal the trace replayed.
        assert counts["session_journal.jsonl"] > 0
        # Spans are always collected, so every bundle can be explained.
        assert counts["spans.jsonl"] > 0
        assert counts["provenance.jsonl"] > 0

    def test_max_nodes_limits_trajectories(self, capsys):
        code, out = run_cli(
            capsys, "trace", "--mode", "binary", "--nodes", "10",
            "--events", "5", "--seed", "7", "--max-nodes", "3",
        )
        assert code == 0
        assert "3 lowest-final-TI of 10 nodes" in out
        assert sum(1 for line in out.splitlines()
                   if line.startswith("  node ")) == 3

    def test_without_diagnosis_threshold(self, capsys):
        code, out = run_cli(
            capsys, "trace", "--mode", "binary", "--nodes", "10",
            "--events", "5", "--seed", "7",
        )
        assert code == 0
        assert "diagnosis disabled" in out


class TestRotate:
    def test_rotating_run_prints_registry_summary(self, capsys):
        code, out = run_cli(
            capsys, "rotate", "--nodes", "25", "--rounds", "2",
            "--events-per-round", "3", "--percent-faulty", "20",
            "--seed", "3",
        )
        assert code == 0
        assert "distinct leaders" in out
        assert "mean honest registry TI" in out

    def test_amnesia_flag(self, capsys):
        code, out = run_cli(
            capsys, "rotate", "--nodes", "25", "--rounds", "2",
            "--events-per-round", "3", "--no-transfer", "--seed", "3",
        )
        assert code == 0
        assert "amnesia" in out

    def test_baseline_flag(self, capsys):
        code, out = run_cli(
            capsys, "rotate", "--nodes", "25", "--rounds", "2",
            "--events-per-round", "3", "--baseline", "--seed", "3",
        )
        assert code == 0
        assert "Baseline" in out


class TestRejectedValues:
    """A count or percentage the run cannot use is an argparse error."""

    @pytest.mark.parametrize("argv, option", [
        (("fig", "2", "--events", "0"), "--events"),
        (("fig", "2", "--trials", "0"), "--trials"),
        (("fig", "2", "--workers", "0"), "--workers"),
        (("run", "--events", "0"), "--events"),
        (("run", "--nodes", "0"), "--nodes"),
        (("run", "--percent-faulty", "150"), "--percent-faulty"),
        (("trace", "--events", "-3"), "--events"),
        (("trace", "--percent-faulty", "nan"), "--percent-faulty"),
        (("rotate", "--nodes", "0"), "--nodes"),
        (("rotate", "--rounds", "0"), "--rounds"),
        (("rotate", "--events-per-round", "0"), "--events-per-round"),
        (("rotate", "--percent-faulty", "-1"), "--percent-faulty"),
        (("chaos", "--workers", "0"), "--workers"),
        (("chaos", "--nodes", "0", "--seeds", "1"), "--nodes"),
        (("chaos", "--seeds", "0"), "--seeds"),
        (("chaos", "--rounds", "0"), "--rounds"),
        (("chaos", "--rounds", "two"), "--rounds"),
    ])
    def test_exits_2_naming_the_option(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {option}:" in captured.err
        assert captured.out == ""


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [("table", "1"), ("fig", "10")])
    def test_closed_reader_ends_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""
