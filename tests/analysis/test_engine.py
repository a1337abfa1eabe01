"""Engine mechanics: pragmas, discovery, budget, report."""

import json

import pytest

from repro.analysis.base import Rule
from repro.analysis.engine import (
    ALL_RULES,
    TimeBudgetExceeded,
    discover_files,
    run_lint,
)

from tests.analysis.conftest import FIXTURES
from tests.conftest import concrete_subclasses

LEAK = ("def leak(channel, engine, c):\n"
        "    plain = engine.decrypt_tensor(c)\n"
        "    channel.send(plain)\n")


def test_all_five_rules_are_registered():
    assert sorted(rule.name for rule in ALL_RULES) == [
        "deprecated-api", "determinism", "ledger-category",
        "plaintext-wire", "wal-discipline"]


def test_every_rule_class_is_in_all_rules():
    assert set(ALL_RULES) == concrete_subclasses(Rule, "repro.analysis")
    assert len({rule.name for rule in ALL_RULES}) == len(ALL_RULES)


def test_run_lint_over_a_directory(tmp_path):
    (tmp_path / "leak.py").write_text(LEAK)
    (tmp_path / "clean.py").write_text("x = 1\n")
    report = run_lint([tmp_path])
    assert report.files_scanned == 2
    assert [d.rule for d in report.findings] == ["plaintext-wire"]
    assert report.findings[0].line == 3


def test_rule_filter(tmp_path):
    (tmp_path / "leak.py").write_text(LEAK + "import gmpy2\n"
                                             "y = gmpy2.mpz(1)\n")
    only_taint = run_lint([tmp_path], rule_filter=["plaintext-wire"])
    assert {d.rule for d in only_taint.findings} == {"plaintext-wire"}
    assert only_taint.rules_run == ["plaintext-wire"]
    everything = run_lint([tmp_path])
    assert {d.rule for d in everything.findings} == \
        {"plaintext-wire", "deprecated-api"}


def test_unknown_rule_name_raises(tmp_path):
    with pytest.raises(ValueError, match="unknown rule"):
        run_lint([tmp_path], rule_filter=["no-such-rule"])


def test_pragma_counts_as_suppressed(tmp_path):
    (tmp_path / "ok.py").write_text(
        "def leak(channel, engine, c):\n"
        "    plain = engine.decrypt_tensor(c)\n"
        "    channel.send(plain)  # flcheck: allow[plaintext-wire]\n")
    report = run_lint([tmp_path])
    assert report.clean
    assert report.suppressed == 1


def test_pragma_allow_all(tmp_path):
    (tmp_path / "ok.py").write_text(
        "def leak(channel, engine, c):\n"
        "    plain = engine.decrypt_tensor(c)\n"
        "    channel.send(plain)  # flcheck: allow[all]\n")
    assert run_lint([tmp_path]).clean


def test_syntax_error_becomes_a_finding(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    report = run_lint([tmp_path])
    assert [d.rule for d in report.findings] == ["parse-error"]


def test_time_budget(tmp_path):
    for index in range(3):
        (tmp_path / f"module_{index}.py").write_text("x = 1\n")
    with pytest.raises(TimeBudgetExceeded):
        run_lint([tmp_path], max_seconds=0.0)
    report = run_lint([tmp_path], max_seconds=60.0)
    assert report.files_scanned == 3


def test_discovery_skips_pycache(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
    (tmp_path / "real.py").write_text("x = 1\n")
    assert [p.name for p in discover_files([tmp_path])] == ["real.py"]


def test_json_report_shape(tmp_path):
    (tmp_path / "leak.py").write_text(LEAK)
    payload = json.loads(run_lint([tmp_path]).to_json())
    assert payload["version"] == 1
    assert payload["clean"] is False
    (finding,) = payload["findings"]
    assert finding["rule"] == "plaintext-wire"
    assert finding["line"] == 3
    assert finding["path"].endswith("leak.py")


def test_fixture_corpus_paths_are_stable():
    report = run_lint([FIXTURES], rule_filter=["plaintext-wire"])
    assert all(d.path.startswith("fixtures/") or "fixtures" in d.path
               for d in report.findings)
