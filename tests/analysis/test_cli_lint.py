"""`python -m repro lint`: exit codes, JSON output, the rule set."""

import json
from pathlib import Path

import repro
from repro.cli import main

from tests.analysis.conftest import FIXTURES

LEAK_FIXTURE = FIXTURES / "taint_bad_basic.py"
SRC_REPRO = Path(repro.__file__).resolve().parent
#: The committed flcheck snapshot (benchmarks/test_bench_flcheck.py).
SNAPSHOT = SRC_REPRO.parents[1] / "BENCH_flcheck.json"


def test_shipped_codebase_is_flcheck_clean(capsys):
    # The acceptance gate: all five rules, default paths, no waiver file.
    assert main(["lint", "--json", str(SRC_REPRO)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    assert payload["rules_run"] == sorted([
        "plaintext-wire", "determinism", "ledger-category",
        "deprecated-api", "wal-discipline"])
    # The committed snapshot describes this tree (its seconds are the
    # host's and are not compared).
    snapshot = json.loads(SNAPSHOT.read_text())
    assert (snapshot["files_scanned"], snapshot["full"]["suppressed"]) == \
        (payload["files_scanned"], payload["suppressed"])


def test_planted_leak_fails_lint(tmp_path, capsys):
    # Simulates the CI failure mode: a plaintext-leak fixture lands in
    # the scanned tree and the job must go red.
    planted = tmp_path / "src"
    planted.mkdir()
    (planted / "evil.py").write_text(LEAK_FIXTURE.read_text())
    assert main(["lint", str(planted)]) == 1
    out = capsys.readouterr().out
    assert "plaintext-wire" in out
    assert "evil.py" in out


def test_rule_filter_and_human_output(tmp_path, capsys):
    planted = tmp_path / "evil.py"
    planted.write_text(LEAK_FIXTURE.read_text())
    assert main(["lint", "--rule", "determinism", str(planted)]) == 0
    assert main(["lint", "--rule", "plaintext-wire", str(planted)]) == 1
    out = capsys.readouterr().out
    assert "finding(s)" in out


def test_unknown_rule_exits_2(capsys):
    assert main(["lint", "--rule", "bogus", str(SRC_REPRO)]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_max_seconds_budget_exit_code(capsys):
    assert main(["lint", "--max-seconds", "0", str(SRC_REPRO)]) == 2
    assert "budget" in capsys.readouterr().err
