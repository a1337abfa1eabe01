"""Shared helpers for the flcheck test suite."""

from pathlib import Path

import pytest

from repro.analysis.engine import load_module
from repro.analysis.ipa.project import Project

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_unit(name):
    """Parse one corpus file into a ModuleUnit."""
    path = FIXTURES / name
    return load_module(path, f"fixtures/{name}")


def raw_findings(rule, unit):
    """Every diagnostic ``rule`` reports for ``unit``, suppressed or not;
    a whole-program rule sees the unit as a one-module project."""
    if rule.needs_project:
        return list(rule.check_project(Project([unit])))
    return list(rule.check(unit))


def live_findings(rule, unit):
    """Diagnostics from ``rule`` minus pragma-suppressed ones."""
    return [diag for diag in raw_findings(rule, unit)
            if not unit.allows(diag.rule, diag.line)]


def marked_lines(unit, marker="# flagged"):
    """1-based lines of ``unit`` carrying an expectation marker."""
    return {lineno
            for lineno, text in enumerate(unit.source.splitlines(), start=1)
            if marker in text}


@pytest.fixture
def check_fixture():
    """(rule, fixture name) -> (unit, live findings)."""
    def run(rule, name):
        unit = fixture_unit(name)
        return unit, live_findings(rule, unit)
    return run
