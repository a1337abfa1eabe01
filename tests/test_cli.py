"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_arguments(self):
        args = build_parser().parse_args(
            ["train", "Homo LR", "RCV1", "--epochs", "2",
             "--key-bits", "2048"])
        assert args.model == "Homo LR"
        assert args.dataset == "RCV1"
        assert args.epochs == 2
        assert args.key_bits == 2048

    def test_train_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "SVM"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "FLBooster" in out
        assert "RTX 3090" in out

    def test_compress(self, capsys):
        assert main(["compress"]) == 0
        out = capsys.readouterr().out
        assert "32.0x" in out and "127.9x" in out

    def test_compress_single_key(self, capsys):
        assert main(["compress", "2048"]) == 0
        out = capsys.readouterr().out
        assert "64.0x" in out and "127.9x" not in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "[6, 28, 318]" in out

    def test_train_quick(self, capsys):
        assert main(["train", "Homo LR", "Synthetic",
                     "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "FATE" in out and "FLBooster" in out


class TestReport:
    def test_report_to_stdout(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table3_running_time.txt").write_text("TABLE3 CONTENT")
        (results / "custom_extra.txt").write_text("EXTRA CONTENT")
        assert main(["report", "--results-dir", str(results)]) == 0
        out = capsys.readouterr().out
        assert "TABLE3 CONTENT" in out
        assert "EXTRA CONTENT" in out
        assert "Table III" in out

    def test_report_to_file(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig1_fate_breakdown.txt").write_text("FIG1")
        output = tmp_path / "REPORT.md"
        assert main(["report", "--results-dir", str(results),
                     "--output", str(output)]) == 0
        assert "FIG1" in output.read_text()

    def test_missing_results_raise(self, tmp_path):
        import pytest as _pytest
        with _pytest.raises(FileNotFoundError):
            main(["report", "--results-dir", str(tmp_path / "nope")])


class TestFailoverCommand:
    def test_single_scenario_prints_result_json(self, capsys):
        import json

        assert main(["failover", "--rounds", "1",
                     "--after-record", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kills"][0]["kind"] == "coordinator_crash"
        assert data["kills"][0]["lsn"] == 2
        assert data["wal_records"] == 7

    def test_failover_mode(self, capsys):
        import json

        assert main(["failover", "--rounds", "1", "--mode", "failover",
                     "--after-record", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kills"][0]["kind"] == "failover"

    def test_sweep_reports_every_boundary(self, capsys):
        assert main(["failover", "--sweep", "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert "boundaries tested    7" in out
        assert "bit-identical" in out

    def test_sweep_both_modes(self, capsys):
        assert main(["failover", "--sweep", "--mode", "both",
                     "--rounds", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("bit-identical") == 2


class TestFaultsDumpPlan:
    def test_dump_plan_round_trips(self, capsys):
        import json

        from repro.federation.faults import FaultPlan

        assert main(["faults", "--dump-plan", "--crashes", "2",
                     "--clients", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        plan = FaultPlan.from_dict(data)
        assert [(e.kind, e.party) for e in plan.events] == [
            ("crash", "client-4"), ("crash", "client-3"),
            ("straggler", "client-2")]
        assert plan.to_dict() == data

    @pytest.mark.parametrize("flag", ["--coordinator-crash", "--failover"])
    def test_coordinator_kill_flags_are_rejected(self, flag, capsys):
        """Training aggregates through ``SecureAggregator.average``,
        which no coordinator kill reaches, so ``faults`` offers none."""
        with pytest.raises(SystemExit) as exit_info:
            main(["faults", "--dump-plan", f"{flag}=4"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
