"""Suppression: the inline pragma, the one waiver."""

from repro.analysis.diagnostics import normalize_message
from repro.analysis.engine import run_lint


# ---------------------------------------------------------------------------
# Pragmas.
# ---------------------------------------------------------------------------

def test_multi_rule_pragma_silences_each_listed_rule(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import random\n"
        "def leak(channel, engine, c):\n"
        "    plain = engine.decrypt_tensor(c)\n"
        "    channel.send(plain)"
        "  # flcheck: allow[plaintext-wire, determinism]\n")
    report = run_lint([tmp_path])
    assert report.clean
    assert report.suppressed == 1


def test_pragma_anchors_to_the_finding_line_only(tmp_path):
    # The pragma sits one line above the sink: it must NOT suppress.
    (tmp_path / "mod.py").write_text(
        "def leak(channel, engine, c):\n"
        "    plain = engine.decrypt_tensor(c)\n"
        "    # flcheck: allow[plaintext-wire]\n"
        "    channel.send(plain)\n")
    report = run_lint([tmp_path])
    assert [d.rule for d in report.findings] == ["plaintext-wire"]
    assert report.suppressed == 0


def test_pragma_for_the_wrong_rule_does_not_suppress(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def leak(channel, engine, c):\n"
        "    plain = engine.decrypt_tensor(c)\n"
        "    channel.send(plain)  # flcheck: allow[determinism]\n")
    report = run_lint([tmp_path])
    assert [d.rule for d in report.findings] == ["plaintext-wire"]


def test_pragmas_parse_per_unit():
    source = ("x = 1  # flcheck: allow[rule-a, rule-b]\n"
              "y = 2  # flcheck: allow[all]\n")
    import ast
    from pathlib import Path

    from repro.analysis.engine import ModuleUnit, _parse_pragmas
    unit = ModuleUnit(path=Path("m.py"), display_path="m.py",
                      source=source, tree=ast.parse(source),
                      pragmas=_parse_pragmas(source))
    assert unit.allows("rule-a", 1) and unit.allows("rule-b", 1)
    assert not unit.allows("rule-c", 1)
    assert unit.allows("anything", 2)
    assert not unit.allows("rule-a", 3)


# ---------------------------------------------------------------------------
# Fingerprints survive identifier churn.
# ---------------------------------------------------------------------------

def test_normalize_message_strips_identifiers_and_paths():
    assert normalize_message("decrypted value 'plain' flows into send()") \
        == "decrypted value '<id>' flows into send()"
    assert normalize_message('kind "shard_split" is rejected') == \
        "kind '<id>' is rejected"
    assert normalize_message(
        "reaches send() (path: forward -> relay -> send())") == \
        "reaches send() (path: <path>)"


# ---------------------------------------------------------------------------
# --changed-only scoping.
# ---------------------------------------------------------------------------

HELPER = ("def relay(channel, payload):\n"
          "    channel.send(payload)\n")

# Import spelling must match the scanned display path ("pkg/helper.py"
# -> module "pkg.helper") for the cross-module edge to resolve, exactly
# as repo code imports through its ``repro.*`` paths.
CALLER = ("from pkg.helper import relay\n"
          "def forward(channel, engine, share):\n"
          "    plain = engine.decrypt_share(share)\n"
          "    relay(channel, plain)\n")


def _cross_file_corpus(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "helper.py").write_text(HELPER)
    (pkg / "caller.py").write_text(CALLER)
    return pkg


def test_changed_only_restricts_findings_to_changed_files(tmp_path):
    pkg = _cross_file_corpus(tmp_path)
    full = run_lint([pkg], rule_filter=["plaintext-wire"])
    assert {d.path for d in full.findings} == {"pkg/caller.py"}

    scoped = run_lint([pkg], rule_filter=["plaintext-wire"],
                      changed_paths={(pkg / "caller.py").resolve()})
    assert [d.path for d in scoped.findings] == ["pkg/caller.py"]
    assert scoped.files_scanned == 2  # the whole tree is still parsed


def test_changed_only_cross_file_flow_needs_the_full_graph(tmp_path):
    """Only the un-changed helper is selected: the caller's finding is
    out of scope, yet the graph spanned both files to derive it."""
    pkg = _cross_file_corpus(tmp_path)
    scoped = run_lint([pkg], rule_filter=["plaintext-wire"],
                      changed_paths={(pkg / "helper.py").resolve()})
    assert scoped.findings == []
    assert scoped.files_scanned == 2
