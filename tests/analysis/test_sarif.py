"""SARIF 2.1.0 output: structural validation and the CLI flag.

The container ships no ``jsonschema``, so validation is a hand-rolled
walk of the SARIF 2.1.0 core constraints this repo relies on: required
properties, types, the version literal, 1-based regions, and
rules/results cross-references.  Stricter than nothing, looser than the
full schema -- but every constraint here is one GitHub code scanning
actually enforces on upload.
"""

import json

from repro.analysis.engine import ALL_RULES
from repro.analysis.diagnostics import Diagnostic, LintReport
from repro.cli import main

from tests.analysis.conftest import FIXTURES


def validate_sarif(payload):
    """Assert the SARIF 2.1.0 core constraints; return the results."""
    assert isinstance(payload, dict)
    assert payload["version"] == "2.1.0"
    assert payload["$schema"].endswith("sarif-2.1.0.json")
    runs = payload["runs"]
    assert isinstance(runs, list) and runs
    all_results = []
    for run in runs:
        driver = run["tool"]["driver"]
        assert isinstance(driver["name"], str) and driver["name"]
        rules = driver.get("rules", [])
        rule_ids = []
        for rule in rules:
            assert isinstance(rule["id"], str) and rule["id"]
            assert isinstance(rule["shortDescription"]["text"], str)
            rule_ids.append(rule["id"])
        assert len(set(rule_ids)) == len(rule_ids)
        results = run["results"]
        assert isinstance(results, list)
        for result in results:
            assert isinstance(result["message"]["text"], str)
            assert result["message"]["text"]
            if "level" in result:
                assert result["level"] in ("none", "note", "warning",
                                           "error")
            if "ruleId" in result and rule_ids:
                assert result["ruleId"] in rule_ids
            if "ruleIndex" in result:
                index = result["ruleIndex"]
                assert isinstance(index, int) and 0 <= index < len(rules)
                assert rules[index]["id"] == result["ruleId"]
            for location in result.get("locations", []):
                physical = location["physicalLocation"]
                uri = physical["artifactLocation"]["uri"]
                assert isinstance(uri, str) and not uri.startswith("/")
                region = physical["region"]
                assert isinstance(region["startLine"], int)
                assert region["startLine"] >= 1
                assert region.get("startColumn", 1) >= 1
            fingerprints = result.get("partialFingerprints", {})
            assert all(isinstance(v, str)
                       for v in fingerprints.values())
        all_results.extend(results)
    return all_results


def _report():
    return LintReport(
        findings=[
            Diagnostic(rule="plaintext-wire", path="repro/a.py", line=3,
                       col=4, message="decrypted value 'x' leaks",
                       symbol="leak"),
            Diagnostic(rule="wal-discipline", path="repro/b.py", line=9,
                       col=0, message="_apply() acts on a WalRecord "
                                      "never journaled"),
        ],
        files_scanned=2,
        rules_run=[rule.name for rule in ALL_RULES],
    )


def test_report_emits_valid_sarif():
    descriptions = {rule.name: rule.description for rule in ALL_RULES}
    payload = json.loads(_report().to_sarif(descriptions))
    results = validate_sarif(payload)
    assert len(results) == 2
    assert {r["ruleId"] for r in results} == \
        {"plaintext-wire", "wal-discipline"}


def test_sarif_columns_are_one_based():
    payload = json.loads(_report().to_sarif())
    region = payload["runs"][0]["results"][1]["locations"][0][
        "physicalLocation"]["region"]
    assert region["startColumn"] == 1  # ast col 0 -> SARIF column 1


def test_sarif_fingerprints_are_the_diagnostic_identity():
    report = _report()
    payload = json.loads(report.to_sarif())
    fingerprint = payload["runs"][0]["results"][0][
        "partialFingerprints"]["flcheck/v1"]
    assert fingerprint == "|".join(report.findings[0].fingerprint)
    # Normalized: the identifier is stripped.
    assert "'<id>'" in fingerprint
    assert fingerprint.startswith("plaintext-wire|repro/a.py|")


def test_sarif_symbol_becomes_a_logical_location():
    payload = json.loads(_report().to_sarif())
    locations = payload["runs"][0]["results"][0]["locations"][0]
    assert locations["logicalLocations"] == \
        [{"name": "leak", "kind": "function"}]


def test_empty_report_is_still_valid_sarif():
    payload = json.loads(LintReport(
        rules_run=[rule.name for rule in ALL_RULES]).to_sarif())
    assert validate_sarif(payload) == []
    rules = payload["runs"][0]["tool"]["driver"]["rules"]
    assert len(rules) == len(ALL_RULES)


def test_cli_writes_a_sarif_log_next_to_json_output(tmp_path, capsys):
    planted = tmp_path / "evil.py"
    planted.write_text((FIXTURES / "taint_bad_basic.py").read_text())
    sarif_path = tmp_path / "lint.sarif"
    exit_code = main(["lint", "--json", "--sarif", str(sarif_path),
                      str(planted)])
    assert exit_code == 1  # findings still gate the exit code
    payload = json.loads(sarif_path.read_text())
    results = validate_sarif(payload)
    assert results
    json_payload = json.loads(capsys.readouterr().out)
    assert len(results) == len(json_payload["findings"])
