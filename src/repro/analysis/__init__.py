"""flcheck: AST-based invariant checking for the reproduction codebase.

Three PRs of infrastructure established repo-wide invariants -- plaintext
never crosses a channel unencrypted, nondeterminism routes through
``REPRO_TEST_SEED`` streams, every modelled cost lands in a registered
ledger category -- but tests only guard the call sites they happen to
exercise.  flcheck enforces the invariants *statically*: it parses every
module under ``src/repro`` with :mod:`ast` and reports typed diagnostics
with file:line anchors, so a violating diff fails lint instead of a fuzz
run.

Rules (each in its own module, all registered in :data:`ALL_RULES`):

- ``plaintext-wire``   -- taint analysis from ``decrypt*`` / ``PlainTensor``
  to ``send`` / ``serialize_*`` / WAL sinks (:mod:`repro.analysis.taint`);
- ``determinism``      -- global RNG / wall-clock / OS-entropy use outside
  the whitelisted modules (:mod:`repro.analysis.determinism`);
- ``ledger-category``  -- charge-site categories validated against
  :data:`repro.ledger.CATEGORY_FAMILIES`
  (:mod:`repro.analysis.ledger_rule`);
- ``deprecated-api``   -- resurrection of removed raw-list shims and
  gmpy-style bigint imports (:mod:`repro.analysis.deprecation`);
- ``kernel-budget``    -- declared kernel resource envelopes evaluated
  against device limits (:mod:`repro.analysis.kernel_budget`);
- ``wal-discipline``   -- journal-then-act ordering on write-ahead-log
  records, checked interprocedurally
  (:mod:`repro.analysis.ipa.wal_rule`);
- ``ledger-conservation`` -- admission verdicts must move the flow
  counters the conservation law expects
  (:mod:`repro.analysis.ipa.ledger_flow`).

The last two need a whole-program view -- symbol table, class
hierarchy, call graph, and summary fixpoints live under
:mod:`repro.analysis.ipa`; ``plaintext-wire`` also runs an
interprocedural pass on top of its per-module one.

Run it as ``python -m repro lint``; see ``docs/analysis.md`` for the
pragma and baseline workflow.
"""

from repro.analysis.base import Rule
from repro.analysis.deprecation import DeprecatedApiRule
from repro.analysis.determinism import DeterminismRule
from repro.analysis.diagnostics import Diagnostic, LintReport
from repro.analysis.engine import (
    ModuleUnit,
    TimeBudgetExceeded,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.analysis.ipa.ledger_flow import LedgerConservationRule
from repro.analysis.ipa.wal_rule import WalDisciplineRule
from repro.analysis.kernel_budget import KernelBudgetRule
from repro.analysis.ledger_rule import LedgerCategoryRule
from repro.analysis.taint import PlaintextWireRule

#: Every shipped rule, in reporting order.
ALL_RULES = (
    PlaintextWireRule,
    DeterminismRule,
    LedgerCategoryRule,
    DeprecatedApiRule,
    KernelBudgetRule,
    WalDisciplineRule,
    LedgerConservationRule,
)

__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "DeprecatedApiRule",
    "DeterminismRule",
    "KernelBudgetRule",
    "LedgerCategoryRule",
    "LedgerConservationRule",
    "LintReport",
    "ModuleUnit",
    "PlaintextWireRule",
    "Rule",
    "WalDisciplineRule",
    "TimeBudgetExceeded",
    "load_baseline",
    "run_lint",
    "write_baseline",
]
