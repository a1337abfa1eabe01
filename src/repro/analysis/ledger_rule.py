"""Rule ``ledger-category``: every charged category must be registered.

A typo'd category silently mis-buckets the paper's Table VI component
splits -- ``"he.encrpyt"`` lands in "HE operations" percentages as zero
and in "Others" as noise, and nothing crashes.  This rule extracts the
category argument of every charge-like call and validates it against
:data:`repro.ledger.CATEGORY_FAMILIES` (the runtime registry is imported,
so rule and ledger can never drift apart):

- string literals must satisfy :func:`repro.ledger.is_known_category`;
- ``CAT_*`` constant names must exist in :mod:`repro.ledger`;
- f-strings are only legal when their static prefix pins an *open*
  family (``f"comm.{tag}"``); closed families must not be assembled
  dynamically -- use the validated builders (:func:`fault_category`)
  instead, which this rule accepts;
- a bare name is legal only inside a registered *forwarder* (``charge``,
  ``_charge``, ``_charging``, ``charge_model_compute``,
  ``charge_pipeline_stage``) whose parameter it is -- the forwarder's
  own call sites are checked instead;
- anything else is a dynamic category and is flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Union

import repro.ledger as _ledger
from repro.analysis.base import Rule, callee_name
from repro.analysis.diagnostics import Diagnostic

#: Attribute calls whose first positional arg is a category.
_CHARGE_METHODS = {"charge", "_charge", "_charging"}
#: Free functions taking the category as ``tag`` (position 2).
_TAG_FUNCTIONS = {"charge_model_compute", "charge_pipeline_stage"}
#: Functions allowed to receive a category as a parameter and forward it.
_FORWARDERS = _CHARGE_METHODS | _TAG_FUNCTIONS
#: Builder helpers that validate at runtime.
_VALIDATED_BUILDERS = {"fault_category", "comm_category",
                       "admission_category", "validate_category"}

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _param_names(func: _FunctionNode) -> List[str]:
    args = func.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        params.append(args.vararg.arg)
    if args.kwarg:
        params.append(args.kwarg.arg)
    return params


def _category_argument(call: ast.Call) -> Optional[ast.expr]:
    """The category expression of a charge-like call, if it is one."""
    name = callee_name(call.func)
    if isinstance(call.func, ast.Attribute) and name in _CHARGE_METHODS:
        if call.args:
            return call.args[0]
        for kw in call.keywords:
            if kw.arg == "category":
                return kw.value
        return None
    if name in _TAG_FUNCTIONS:
        if len(call.args) >= 3:
            return call.args[2]
        for kw in call.keywords:
            if kw.arg == "tag":
                return kw.value
        return None  # default tag comes from the registry constant
    return None


def _fstring_prefix(node: ast.JoinedStr) -> str:
    """Leading constant text of an f-string."""
    prefix = ""
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            prefix += value.value
        else:
            break
    return prefix


class LedgerCategoryRule(Rule):
    name = "ledger-category"
    description = ("categories at CostLedger charge sites must come from "
                   "the repro.ledger registry")

    def check(self, unit) -> Iterator[Diagnostic]:
        yield from self._visit(unit, unit.tree, [])

    def _visit(self, unit, node: ast.AST,
               stack: List[_FunctionNode]) -> Iterator[Diagnostic]:
        """Depth-first walk carrying the lexical function stack.

        The stack is what lets a forwarder's *closure* use of its
        category parameter pass (``_charging``'s nested context-manager
        charging ``category`` on exit) while the same bare name anywhere
        else is flagged.
        """
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._visit(unit, child, stack + [child])
                continue
            if isinstance(child, ast.Call):
                yield from self._check_call(unit, child, stack)
            yield from self._visit(unit, child, stack)

    def _check_call(self, unit, call: ast.Call,
                    stack: List[_FunctionNode]) -> Iterator[Diagnostic]:
        category = _category_argument(call)
        if category is None:
            return
        symbol = stack[-1].name if stack else ""
        verdict = self._judge(category, stack)
        if verdict:
            yield self.diagnostic(unit, call, verdict, symbol=symbol)

    @staticmethod
    def _judge(expr: ast.expr, stack: List[_FunctionNode]) -> str:
        """Empty string when legal; otherwise the diagnostic message."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            if _ledger.is_known_category(expr.value):
                return ""
            return (f"unregistered ledger category {expr.value!r}; "
                    f"declare it in repro.ledger.CATEGORY_FAMILIES")
        if isinstance(expr, (ast.Name, ast.Attribute)):
            tail = expr.attr if isinstance(expr, ast.Attribute) else expr.id
            if tail.startswith("CAT_"):
                value = getattr(_ledger, tail, None)
                if isinstance(value, str) and \
                        _ledger.is_known_category(value):
                    return ""
                return (f"constant {tail} is not defined by the "
                        f"repro.ledger registry")
            if isinstance(expr, ast.Name) and any(
                    func.name in _FORWARDERS
                    and expr.id in _param_names(func)
                    for func in stack):
                return ""  # forwarder parameter; call sites are checked
            return (f"dynamic ledger category {tail!r}; use a CAT_* "
                    f"constant or a validated builder from repro.ledger")
        if isinstance(expr, ast.Call):
            if callee_name(expr.func) in _VALIDATED_BUILDERS:
                return ""
            return ("category built by an unvalidated call; use "
                    "fault_category/comm_category from repro.ledger")
        if isinstance(expr, ast.JoinedStr):
            prefix = _fstring_prefix(expr)
            family, dot, _ = prefix.partition(".")
            if dot and family in _ledger.OPEN_FAMILIES:
                return ""
            return (f"dynamic f-string category with prefix {prefix!r}; "
                    f"only open families "
                    f"({', '.join(sorted(_ledger.OPEN_FAMILIES))}) may be "
                    f"assembled dynamically")
        return ("unanalyzable ledger category expression; use a string "
                "literal, CAT_* constant, or validated builder")
