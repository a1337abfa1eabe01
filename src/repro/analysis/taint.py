"""Rule ``plaintext-wire``: decrypted values must not reach the wire.

A value is *tainted* when it originates from a decryption (any call
whose last dotted segment starts with ``decrypt``) or from a
:class:`PlainTensor` construction; taint follows assignments (including
tuple unpacking and augmented assignment), arithmetic, containers,
subscripts, attribute access, comprehensions, ternaries, f-strings, and
calls that receive a tainted receiver or argument.  Any call whose last
segment starts with ``encrypt`` is a *sanitizer*: its result is clean,
whatever went in -- re-encryption clears taint.

Sinks are the places bytes leave the process's trust boundary:

- ``*.send(...)`` / ``*.broadcast(...)``  (channel / party transport),
- ``serialize_*``                          (wire encodings),
- ``*._log(...)`` / ``WalRecord(...)``     (write-ahead-log payloads,
  which land on disk and are replayed across failover).

A tainted expression reaching any sink argument is flagged.  Deliberate
exceptions carry ``# flcheck: allow[plaintext-wire]`` on the call's first
line -- today the only one in-tree is the coordinator's
``DECRYPT_COMMITTED`` WAL record, whose entire point is to persist the
decrypted aggregate for crash recovery.

The rule runs as one interprocedural pass
(:mod:`repro.analysis.ipa.taint_summaries`): every function body and
every module body is analyzed once with per-function taint summaries
composed along the project call graph, so a decrypt result laundered
through a helper is seen where it is handed over.  Loop bodies get a
silent warm-up pass so loop-carried taint is visible to sinks earlier in
the body.  This module holds the rule and its source / sink / sanitizer
vocabulary.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.base import Rule, callee_name
from repro.analysis.diagnostics import Diagnostic

#: Call targets (last dotted segment) whose results are tainted.
SOURCE_PREFIXES = ("decrypt",)
#: Constructors producing plaintext tensor values.
PLAIN_CONSTRUCTORS = {"PlainTensor"}
#: Call targets whose results are clean regardless of arguments.
SANITIZER_PREFIXES = ("encrypt",)

#: Method-call sinks (attribute calls only -- transport objects).
SINK_METHODS = {"send", "broadcast"}
#: Function-name-prefix sinks (wire encoders).
SINK_PREFIXES = ("serialize_",)
#: WAL sinks: payloads are persisted and replayed across failover.
WAL_SINKS = {"_log", "WalRecord"}


def _is_source(func: ast.expr) -> bool:
    name = callee_name(func)
    if name.startswith(SOURCE_PREFIXES) or name in PLAIN_CONSTRUCTORS:
        return True
    # PlainTensor.encode(...) and friends: classmethod constructors.
    return (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in PLAIN_CONSTRUCTORS)


def _is_sanitizer(func: ast.expr) -> bool:
    return callee_name(func).startswith(SANITIZER_PREFIXES)


def _sink_label(func: ast.expr) -> str:
    """Non-empty label when ``func`` is a sink call target."""
    name = callee_name(func)
    if isinstance(func, ast.Attribute) and name in SINK_METHODS:
        return name
    if name.startswith(SINK_PREFIXES):
        return name
    if name in WAL_SINKS:
        return name
    return ""


def _target_names(target: ast.expr) -> List[str]:
    """Every plain name bound by an assignment target."""
    names: List[str] = []
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.append(node.id)
    return names


def _describe(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return f"'{node.id}'"
    if isinstance(node, ast.keyword):  # pragma: no cover -- defensive
        return f"'{node.arg}'"
    return "(expression)"


class PlaintextWireRule(Rule):
    name = "plaintext-wire"
    description = ("decrypted values must pass through encrypt_tensor "
                   "before send/serialize/WAL sinks")
    needs_project = True

    def check_project(self, project) -> Iterator[Diagnostic]:
        from repro.analysis.ipa.taint_summaries import collect_findings
        yield from collect_findings(self, project)
