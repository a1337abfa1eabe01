"""The ledger-category rule against its fixture corpus and the registry."""

import pytest

from repro.analysis.ledger_rule import LedgerCategoryRule
from repro.ledger import (
    CostLedger,
    admission_category,
    comm_category,
    fault_category,
    is_known_category,
    validate_category,
)

from tests.analysis.conftest import fixture_unit, live_findings, marked_lines


def test_every_marked_line_is_flagged():
    unit = fixture_unit("ledger_bad.py")
    findings = live_findings(LedgerCategoryRule(), unit)
    assert {d.line for d in findings} == marked_lines(unit)


def test_good_corpus_is_clean():
    unit = fixture_unit("ledger_good.py")
    assert live_findings(LedgerCategoryRule(), unit) == []


def test_typo_message_names_the_category():
    unit = fixture_unit("ledger_bad.py")
    findings = live_findings(LedgerCategoryRule(), unit)
    typo = [d for d in findings if "he.encrpyt" in d.message]
    assert len(typo) == 1
    assert typo[0].symbol == "typo_suffix"


class TestRegistry:
    def test_closed_family_suffixes(self):
        assert is_known_category("he.encrypt")
        assert is_known_category("fault.giveup")
        assert not is_known_category("he.square")
        assert not is_known_category("he")
        assert not is_known_category("")

    def test_open_families_accept_any_suffix(self):
        assert is_known_category("comm.upload.gradients")
        assert is_known_category("model.sbt.histograms")
        assert not is_known_category("comm.")

    def test_validate_category_raises(self):
        assert validate_category("gpu.launch") == "gpu.launch"
        with pytest.raises(ValueError, match="unregistered"):
            validate_category("gpu.warp")
        with pytest.raises(ValueError, match="unregistered"):
            validate_category("he.encrpyt")

    def test_builders(self):
        assert fault_category("crash") == "fault.crash"
        assert comm_category("upload.x") == "comm.upload.x"
        with pytest.raises(ValueError):
            fault_category("meteor_strike")

    def test_tenant_fault_kinds_are_registered(self):
        assert fault_category("tenant_flood") == "fault.tenant_flood"
        assert fault_category("tenant_crash") == "fault.tenant_crash"

    def test_admission_builder(self):
        assert admission_category("accept") == "comm.admission.accept"
        assert (admission_category("quota", "tenant-a")
                == "comm.admission.quota.tenant-a")
        with pytest.raises(ValueError):
            admission_category("maybe")
        with pytest.raises(ValueError):
            admission_category("accept", "dotted.tenant")

    def test_tenant_prefixed_admission_is_registered(self):
        assert is_known_category("comm.admission.quota.tenant-a")
        assert is_known_category("fault.tenant_flood")

    def test_default_ledger_stays_permissive(self):
        ledger = CostLedger()
        ledger.charge(  # flcheck: allow[ledger-category]
            "adhoc.notebook", 1.0)
        assert ledger.seconds("adhoc") == 1.0
