"""Interprocedural ``plaintext-wire``: summaries, paths, sanitizers."""

from tests.analysis.conftest import fixture_unit, marked_lines

from repro.analysis.ipa.project import Project
from repro.analysis.ipa.taint_summaries import TaintSummaries
from repro.analysis.taint import PlaintextWireRule


def _project(*names):
    return Project([fixture_unit(name) for name in names])


def _ipa_findings(*names):
    rule = PlaintextWireRule()
    return list(rule.check_project(_project(*names)))


def test_ipa_pass_flags_exactly_the_marked_lines():
    unit = fixture_unit("ipa_taint_flagged.py")
    findings = _ipa_findings("ipa_taint_flagged.py")
    assert {diag.line for diag in findings} == marked_lines(unit)
    assert all(diag.rule == "plaintext-wire" for diag in findings)


def test_call_path_is_rendered_in_the_message():
    findings = _ipa_findings("ipa_taint_flagged.py")
    by_symbol = {diag.symbol: diag.message for diag in findings}
    assert "path: forward -> relay -> send()" in by_symbol["forward"]
    assert "path: forward_deep -> hop -> relay -> send()" in \
        by_symbol["forward_deep"]


def test_tainted_return_flow_names_its_producer():
    findings = _ipa_findings("ipa_taint_flagged.py")
    publish = [d for d in findings if d.symbol == "publish"]
    assert len(publish) == 1
    assert "returned decrypted by fetch()" in publish[0].message


def test_attribute_flow_is_grounded_through_the_call_site():
    findings = _ipa_findings("ipa_taint_flagged.py")
    flush = [d for d in findings if d.symbol == "flush"]
    assert len(flush) == 1
    assert "'self'" in flush[0].message or "self.buf" not in flush[0].message


def test_store_into_a_parameter_taints_the_actual():
    findings = _ipa_findings("ipa_taint_flagged.py")
    for symbol, name in (("publish_boxed", "'box'"),
                         ("publish_items", "'items'"),
                         ("publish_filled", "'box'")):
        stored = [d for d in findings if d.symbol == symbol]
        assert len(stored) == 1, symbol
        assert name in stored[0].message
    project = _project("ipa_taint_flagged.py")
    analysis = TaintSummaries(PlaintextWireRule(), project)
    analysis.run()
    for helper in ("put", "put_first"):
        summary = analysis.summary_for(f"fixtures.ipa_taint_flagged.{helper}")
        assert summary.param_deps == frozenset({(1, 0)})
        assert summary.param_always == frozenset()
    fill = analysis.summary_for("fixtures.ipa_taint_flagged.fill")
    assert fill.param_always == frozenset({0})
    assert fill.param_deps == frozenset()


def test_clean_twin_is_silent():
    assert _ipa_findings("ipa_taint_clean.py") == []


def test_sanitizer_wrapper_summary_is_clean():
    """``protect`` sanitizes by summary, not by name."""
    project = _project("ipa_taint_clean.py")
    analysis = TaintSummaries(PlaintextWireRule(), project)
    analysis.run()
    summary = analysis.summary_for("fixtures.ipa_taint_clean.protect")
    assert not summary.ret_always
    assert summary.ret_deps == frozenset()


def test_helper_summary_records_sink_param_and_path():
    project = _project("ipa_taint_flagged.py")
    analysis = TaintSummaries(PlaintextWireRule(), project)
    analysis.run()
    relay = analysis.summary_for("fixtures.ipa_taint_flagged.relay")
    assert relay.sink_flows_for(1) == [("send", ("relay",))]
    hop = analysis.summary_for("fixtures.ipa_taint_flagged.hop")
    assert hop.sink_flows_for(1) == [("send", ("hop", "relay"))]
    fetch = analysis.summary_for("fixtures.ipa_taint_flagged.fetch")
    assert fetch.ret_always


def test_both_corpora_in_one_project_do_not_cross_contaminate():
    findings = _ipa_findings("ipa_taint_clean.py", "ipa_taint_flagged.py")
    assert {diag.path for diag in findings} == \
        {"fixtures/ipa_taint_flagged.py"}
