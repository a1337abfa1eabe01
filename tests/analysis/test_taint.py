"""The plaintext-wire taint rule against its fixture corpus."""

import ast

from repro.analysis.engine import ModuleUnit
from repro.analysis.taint import PlaintextWireRule

from tests.analysis.conftest import (
    fixture_unit,
    live_findings,
    marked_lines,
    raw_findings,
)


def _unit_from(source):
    return ModuleUnit(path=None, display_path="<snippet>", source=source,
                      tree=ast.parse(source), pragmas={})


def _lines(source):
    return sorted(d.line for d in raw_findings(PlaintextWireRule(),
                                                _unit_from(source)))


class TestBasicLeaks:
    def test_every_marked_line_is_flagged(self):
        unit = fixture_unit("taint_bad_basic.py")
        findings = live_findings(PlaintextWireRule(), unit)
        assert {d.line for d in findings} == marked_lines(unit)

    def test_diagnostics_carry_anchor_and_symbol(self):
        unit = fixture_unit("taint_bad_basic.py")
        findings = live_findings(PlaintextWireRule(), unit)
        by_symbol = {d.symbol: d for d in findings}
        assert "leak_via_send" in by_symbol
        diag = by_symbol["leak_via_send"]
        assert diag.rule == "plaintext-wire"
        assert diag.path == "fixtures/taint_bad_basic.py"
        source_line = unit.source.splitlines()[diag.line - 1]
        assert "channel.send(plain)" in source_line
        assert "'plain'" in diag.message
        assert "encrypt_tensor" in diag.message

    def test_sink_variety(self):
        unit = fixture_unit("taint_bad_basic.py")
        messages = " ".join(
            d.message for d in live_findings(PlaintextWireRule(), unit))
        for sink in ("send()", "serialize_tensor()", "_log()",
                     "broadcast()"):
            assert sink in messages


class TestEdgeCases:
    def test_every_marked_edge_case_is_flagged(self):
        unit = fixture_unit("taint_bad_edges.py")
        findings = live_findings(PlaintextWireRule(), unit)
        assert {d.line for d in findings} == marked_lines(unit)

    def test_tuple_unpacking_taints_only_the_bound_element(self):
        unit = fixture_unit("taint_good.py")
        findings = live_findings(PlaintextWireRule(), unit)
        assert findings == []

    def test_dict_values_propagate(self):
        lines = _lines(
            "def f(channel, engine, c):\n"
            "    payload = {'result': engine.decrypt_tensor(c)}\n"
            "    channel.send(payload)\n")
        assert lines == [3]

    def test_subscript_propagates(self):
        lines = _lines(
            "def f(channel, engine, c):\n"
            "    plain = engine.decrypt_tensor(c)\n"
            "    channel.send(plain[0])\n")
        assert lines == [3]

    def test_starred_argument_propagates(self):
        lines = _lines(
            "def f(channel, engine, c):\n"
            "    parts = [engine.decrypt_tensor(c)]\n"
            "    channel.send(*parts)\n")
        assert lines == [3]

    def test_walrus_binding(self):
        lines = _lines(
            "def f(channel, engine, c):\n"
            "    if (plain := engine.decrypt_tensor(c)) is not None:\n"
            "        channel.send(plain)\n")
        assert lines == [3]

    def test_module_level_leak(self):
        findings = raw_findings(PlaintextWireRule(), _unit_from(
            "import channel, engine\n"
            "c = engine.load()\n"
            "channel.send(engine.decrypt_tensor(c))\n"))
        assert [(d.line, d.symbol) for d in findings] == [(3, "")]

    def test_def_under_a_compound_statement(self):
        lines = _lines(
            "try:\n"
            "    import numpy\n"
            "except ImportError:\n"
            "    def f(channel, engine, c):\n"
            "        channel.send(engine.decrypt_tensor(c))\n")
        assert lines == [5]

    def test_every_one_of_two_conditional_defs(self):
        lines = _lines(
            "import os\n"
            "if os.environ.get('X'):\n"
            "    def f(channel, engine, c):\n"
            "        channel.send(engine.decrypt_tensor(c))\n"
            "else:\n"
            "    def f(channel, engine, c):\n"
            "        channel.send(c)\n")
        assert lines == [4]

    def test_property_getter_beside_its_setter(self):
        lines = _lines(
            "class Node:\n"
            "    @property\n"
            "    def value(self):\n"
            "        self.channel.send(self.engine.decrypt_tensor(self.c))\n"
            "    @value.setter\n"
            "    def value(self, v):\n"
            "        self.c = v\n")
        assert lines == [4]

    def test_def_under_a_match_case(self):
        lines = _lines(
            "import sys\n"
            "match sys.argv:\n"
            "    case [_, 'leak']:\n"
            "        def f(channel, engine, c):\n"
            "            channel.send(engine.decrypt_tensor(c))\n")
        assert lines == [5]

    def test_a_sink_call_is_one_finding(self):
        """A direct sink whose own definition also reaches a sink is
        reported once, not again through its summary."""
        lines = _lines(
            "class Channel:\n"
            "    def send(self, payload):\n"
            "        serialize_tensor(payload)\n"
            "def f(channel: Channel, engine, c):\n"
            "    channel.send(engine.decrypt_tensor(c))\n")
        assert lines == [5]

    def test_with_binding(self):
        lines = _lines(
            "def f(channel, engine, c):\n"
            "    with engine.decrypt_tensor(c) as plain:\n"
            "        channel.send(plain)\n")
        assert lines == [3]


class TestSanitizers:
    def test_reencryption_clears_taint(self):
        lines = _lines(
            "def f(channel, engine, c):\n"
            "    plain = engine.decrypt_tensor(c)\n"
            "    safe = engine.encrypt_tensor(plain)\n"
            "    channel.send(safe)\n")
        assert lines == []

    def test_encrypt_wrapping_a_tainted_argument_is_clean(self):
        lines = _lines(
            "def f(channel, engine, c):\n"
            "    channel.send(engine.encrypt_tensor("
            "engine.decrypt_tensor(c)))\n")
        assert lines == []

    def test_a_clean_summary_overrides_the_local_rule(self):
        lines = _lines(
            "def size(v):\n"
            "    return 0\n"
            "def f(channel, engine, c):\n"
            "    channel.send(size(engine.decrypt_tensor(c)))\n")
        assert lines == []

    def test_good_corpus_is_clean(self):
        unit = fixture_unit("taint_good.py")
        assert live_findings(PlaintextWireRule(), unit) == []


class TestUnsummarizedActuals:
    """A tainted actual no parameter summary covers taints the result,
    as an unresolved call's would."""

    def test_varargs_forwarder(self):
        lines = _lines(
            "def first(*v):\n"
            "    return v[0]\n"
            "def f(channel, engine, c):\n"
            "    y = first(engine.decrypt_tensor(c))\n"
            "    channel.send(y)\n")
        assert lines == [5]

    def test_kwargs_forwarder_and_double_star_actual(self):
        lines = _lines(
            "def pack(**kw):\n"
            "    return kw\n"
            "def f(channel, engine, c):\n"
            "    channel.send(pack(x=engine.decrypt_tensor(c)))\n"
            "    channel.send(pack(**{'x': engine.decrypt_tensor(c)}))\n")
        assert lines == [4, 5]

    def test_starred_actual(self):
        lines = _lines(
            "def size(v):\n"
            "    return 0\n"
            "def f(channel, engine, c):\n"
            "    channel.send(size(*[engine.decrypt_tensor(c)]))\n")
        assert lines == [4]

    def test_parameter_past_the_assumption_bound(self):
        lines = _lines(
            "def pick(a, b, c, d, e, f, g):\n"
            "    return g\n"
            "def f(channel, engine, c):\n"
            "    y = pick(0, 0, 0, 0, 0, 0, engine.decrypt_tensor(c))\n"
            "    channel.send(y)\n"
            "    z = pick(0, 0, 0, 0, 0, 0, g=engine.decrypt_tensor(c))\n"
            "    channel.send(z)\n")
        assert lines == [5, 7]

    def test_constructor_result_holds_its_arguments(self):
        lines = _lines(
            "class Box:\n"
            "    def __init__(self, v):\n"
            "        self.v = v\n"
            "def f(channel, engine, c):\n"
            "    channel.send(Box(engine.decrypt_tensor(c)))\n")
        assert lines == [5]


class TestPragma:
    def test_pragma_suppresses_but_rule_still_fires(self):
        unit = fixture_unit("taint_good.py")
        raw = raw_findings(PlaintextWireRule(), unit)
        suppressed = [d for d in raw if unit.allows(d.rule, d.line)]
        assert len(suppressed) == 1
        assert suppressed[0].symbol == "pragma_suppressed"

    def test_pragma_is_rule_scoped(self):
        source = (
            "def f(channel, engine, c):\n"
            "    plain = engine.decrypt_tensor(c)\n"
            "    channel.send(plain)  # flcheck: allow[determinism]\n")
        unit = _unit_from(source)
        unit.pragmas = {3: {"determinism"}}
        findings = live_findings(PlaintextWireRule(), unit)
        assert [d.line for d in findings] == [3]
