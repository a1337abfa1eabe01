"""Rule ``ledger-conservation``: admission charges move flow counters.

The ingress queues promise ``accepted + migrated_in - migrated_out ==
delivered + shed + failed + queued`` (see the conservation tables in
:mod:`repro.ledger`), and the cost ledger sees the same events through
``comm.admission.*`` / ``fault.shed`` charges.  The two views only
reconcile when they move together, so the rule checks both directions:

- **charge-without-counter** -- a charge whose category names an
  admission verdict must have a matching counter increment (per
  :data:`repro.ledger.CONSERVATION_COUNTERS`) somewhere in its
  control-flow neighbourhood: the charging function, its callees
  (transitively), or any caller and *its* callees.  The neighbourhood
  is deliberately wide so the two sides may sit in different helpers
  (one charges, its caller counts); today ``AsyncChannel.submit``,
  ``_reject`` and ``drain`` each do both themselves.
- **counter-without-charge** -- incrementing ``accepted`` / a
  ``rejected_*`` counter / ``shed`` on a conservation-tracked stats
  object without any charge of the corresponding verdict in the same
  neighbourhood leaves the ledger blind to an admission event.
  Outflow counters (``delivered``, ``failed``, ``migrated_*``) are
  exempt: delivery cost is charged by the transfer itself.

A *tracked* stats class is one whose annotated fields cover the whole
conservation vocabulary (both sides of the equation); increments on
receivers that provably have some *other* type (``FuzzReport.accepted``
counts fuzz verdicts, not admissions) are out of scope, while
receivers the resolver cannot type are kept in scope -- the in-tree
stats objects come out of dict lookups the type inference cannot see
through, and skipping them would hollow the rule out.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.base import Rule, callee_name, register
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.ipa.callgraph import own_statements
from repro.analysis.ipa.dataflow import SummaryAnalysis
from repro.analysis.ipa.symbols import FunctionInfo
from repro.ledger import (
    CAT_COMM_ADMISSION_ACCEPT,
    CAT_COMM_ADMISSION_QUOTA,
    CAT_COMM_ADMISSION_REJECT,
    CAT_FAULT_SHED,
    CONSERVATION_COUNTERS,
    CONSERVATION_SINKS,
    CONSERVATION_SOURCES,
)

#: Constant name -> category value, for charge sites spelled through
#: the ledger module's constants rather than string literals.
_CATEGORY_CONSTANTS = {
    "CAT_COMM_ADMISSION_ACCEPT": CAT_COMM_ADMISSION_ACCEPT,
    "CAT_COMM_ADMISSION_REJECT": CAT_COMM_ADMISSION_REJECT,
    "CAT_COMM_ADMISSION_QUOTA": CAT_COMM_ADMISSION_QUOTA,
    "CAT_FAULT_SHED": CAT_FAULT_SHED,
}

#: counter name -> verdicts whose charge accounts for it (the inverse
#: of CONSERVATION_COUNTERS; a counter served by several verdicts is
#: satisfied by any of them).
_COUNTER_VERDICTS: Dict[str, FrozenSet[str]] = {}
for _verdict, _counters in CONSERVATION_COUNTERS.items():
    for _counter in _counters:
        _COUNTER_VERDICTS[_counter] = _COUNTER_VERDICTS.get(
            _counter, frozenset()) | {_verdict}

#: Every counter name in the conservation vocabulary.  Rejection
#: counters sit outside the queue equation (a rejected upload was never
#: accepted) but inside the charge correspondence, so both sets join.
_ALL_COUNTERS = CONSERVATION_SOURCES | CONSERVATION_SINKS | frozenset(
    counter for counters in CONSERVATION_COUNTERS.values()
    for counter in counters)


def _category_verdicts(category: str) -> FrozenSet[str]:
    """Verdicts named by one category string (empty when unrelated)."""
    if category == CAT_FAULT_SHED:
        return frozenset({"shed"})
    parts = category.split(".")
    if len(parts) >= 3 and parts[0] == "comm" and parts[1] == "admission" \
            and parts[2] in CONSERVATION_COUNTERS:
        return frozenset({parts[2]})
    return frozenset()


def _expr_verdicts(node: ast.expr) -> FrozenSet[str]:
    """Verdicts a charge's category expression can denote.

    Handles string literals, the ``CAT_*`` constants,
    ``admission_category(<verdict>, ...)`` calls, and conditional
    expressions over any of those (``"quota" if quota else "reject"``
    charges either verdict, so both count).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _category_verdicts(node.value)
    if isinstance(node, ast.Name) and node.id in _CATEGORY_CONSTANTS:
        return _category_verdicts(_CATEGORY_CONSTANTS[node.id])
    if isinstance(node, ast.IfExp):
        return _expr_verdicts(node.body) | _expr_verdicts(node.orelse)
    if isinstance(node, ast.Call) and \
            callee_name(node.func) == "admission_category" and node.args:
        verdict = node.args[0]
        if isinstance(verdict, ast.Constant) and \
                isinstance(verdict.value, str):
            return frozenset({verdict.value}) & set(CONSERVATION_COUNTERS)
        if isinstance(verdict, ast.IfExp):
            names: Set[str] = set()
            for arm in (verdict.body, verdict.orelse):
                if isinstance(arm, ast.Constant) and \
                        isinstance(arm.value, str):
                    names.add(arm.value)
            return frozenset(names) & set(CONSERVATION_COUNTERS)
    return frozenset()


def _charge_verdicts(call: ast.Call) -> FrozenSet[str]:
    """Verdicts charged by one call, or empty when it is not a charge."""
    if callee_name(call.func) != "charge":
        return frozenset()
    category: Optional[ast.expr] = None
    if call.args:
        category = call.args[0]
    else:
        for keyword in call.keywords:
            if keyword.arg == "category":
                category = keyword.value
    if category is None:
        return frozenset()
    return _expr_verdicts(category)


def tracked_classes(project) -> Set[str]:
    """Classes whose annotated fields span the conservation vocabulary."""
    tracked: Set[str] = set()
    for qualname, info in project.symbols.classes.items():
        fields = {stmt.target.id for stmt in info.node.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)}
        if _ALL_COUNTERS <= fields:
            tracked.add(qualname)
    return tracked


def _counter_increments(project, tracked: Set[str],
                        fn: FunctionInfo) -> List[Tuple[ast.AugAssign, str]]:
    """In-scope ``<stats>.<counter> += n`` sites in one function."""
    increments: List[Tuple[ast.AugAssign, str]] = []
    for node in own_statements(fn.node):
        if not isinstance(node, ast.AugAssign) or \
                not isinstance(node.op, ast.Add) or \
                not isinstance(node.target, ast.Attribute):
            continue
        counter = node.target.attr
        if counter not in _ALL_COUNTERS:
            continue
        receiver = project.resolver.receiver_class(fn, node.target.value)
        if receiver is not None and receiver not in tracked:
            continue  # provably some other type's field (e.g. FuzzReport)
        increments.append((node, counter))
    return increments


@dataclass(frozen=True)
class FlowEffects:
    """Counters moved and verdicts charged by a function, transitively."""

    counters: FrozenSet[str] = frozenset()
    verdicts: FrozenSet[str] = frozenset()

    def __or__(self, other: "FlowEffects") -> "FlowEffects":
        return FlowEffects(counters=self.counters | other.counters,
                           verdicts=self.verdicts | other.verdicts)


class FlowSummaries(SummaryAnalysis):
    """Fixpoint of :class:`FlowEffects` over the call graph."""

    def __init__(self, project, tracked: Set[str]):
        super().__init__(project.callgraph)
        self.project = project
        self.tracked = tracked

    def bottom(self, fn: FunctionInfo) -> FlowEffects:
        return FlowEffects()

    def transfer(self, fn: FunctionInfo, get_summary) -> FlowEffects:
        counters = {counter for _, counter in
                    _counter_increments(self.project, self.tracked, fn)}
        verdicts: Set[str] = set()
        for node in own_statements(fn.node):
            if not isinstance(node, ast.Call):
                continue
            verdicts |= _charge_verdicts(node)
            for qualname in self.project.resolver.resolve_call(fn, node):
                callee = get_summary(qualname)
                if isinstance(callee, FlowEffects):
                    counters |= callee.counters
                    verdicts |= callee.verdicts
        return FlowEffects(counters=frozenset(counters),
                           verdicts=frozenset(verdicts))


@register
class LedgerConservationRule(Rule):
    name = "ledger-conservation"
    description = ("admission verdict charges and conservation-law flow "
                   "counters must move together (accepted == delivered "
                   "+ shed + failed + queued, modulo migration)")
    needs_project = True

    def check_project(self, project) -> Iterator[Diagnostic]:
        tracked = tracked_classes(project)
        effects = FlowSummaries(project, tracked)
        effects.run()
        for qualname in sorted(project.symbols.functions):
            fn = project.symbols.functions[qualname]
            nearby = self._neighbourhood(effects, qualname)
            yield from self._check_charges(fn, nearby)
            yield from self._check_counters(project, tracked, fn, nearby)

    # ------------------------------------------------------------------

    @staticmethod
    def _neighbourhood(effects: FlowSummaries,
                       qualname: str) -> FlowEffects:
        """Own transitive effects, joined with every caller's.

        A caller's summary already includes *its* callees, so sibling
        helpers (a caller counts what its callee charges) fall inside
        the neighbourhood without a second hop.
        """
        nearby = effects.summary(qualname) or FlowEffects()
        for caller in effects.callgraph.callers.get(qualname, ()):
            summary = effects.summary(caller)
            if isinstance(summary, FlowEffects):
                nearby = nearby | summary
        return nearby

    def _check_charges(self, fn: FunctionInfo,
                       nearby: FlowEffects) -> Iterator[Diagnostic]:
        for node in own_statements(fn.node):
            if not isinstance(node, ast.Call):
                continue
            verdicts = _charge_verdicts(node)
            if not verdicts:
                continue
            required = frozenset().union(
                *(CONSERVATION_COUNTERS[v] for v in verdicts))
            if required & nearby.counters:
                continue
            label = "/".join(sorted(verdicts))
            expected = ", ".join(sorted(required))
            yield self.diagnostic(
                fn.unit, node,
                f"admission charge ({label}) with no matching flow "
                f"counter: the conservation law expects one of "
                f"[{expected}] to move in this function, a callee, or "
                f"a caller, or the ledger and the queue stats drift "
                f"apart",
                symbol=fn.name)

    def _check_counters(self, project, tracked: Set[str],
                        fn: FunctionInfo,
                        nearby: FlowEffects) -> Iterator[Diagnostic]:
        for node, counter in _counter_increments(project, tracked, fn):
            required = _COUNTER_VERDICTS.get(counter)
            if required is None:
                continue  # outflow counter with no admission category
            if required & nearby.verdicts:
                continue
            expected = " or ".join(
                f"comm.admission.{v}" if v != "shed" else CAT_FAULT_SHED
                for v in sorted(required))
            yield self.diagnostic(
                fn.unit, node,
                f"flow counter '{counter}' moves without a ledger "
                f"charge: no {expected} charge in this function, a "
                f"callee, or a caller, so the admission event is "
                f"invisible to cost accounting",
                symbol=fn.name)
