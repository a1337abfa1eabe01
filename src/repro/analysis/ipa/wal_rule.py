"""Rule ``wal-discipline``: journal-then-act typestate over WAL records.

The durability story in :mod:`repro.federation` hinges on one ordering:
a state mutation must be *journaled* before it *acts*, so replaying the
write-ahead log after a crash reproduces exactly the state the dead
process reached.  The in-tree pattern is ``_log``::

    record = WalRecord(kind=..., ...)
    lsn = self.wal.append(record)      # journal ...
    self._apply(record)                # ... then act

Three ways to get it wrong, three checks:

- **fresh-apply** -- a record constructed with ``WalRecord(...)`` is
  passed to an act call (``_apply`` / ``apply``) before any
  ``wal.append`` of that same record: the mutation would not survive a
  crash.  Records read back *from* a journal (``wal.records``,
  ``records_since(...)``, ``replay_wal(...)``) are already durable and
  may be applied freely.
- **unjournaled-migrate** -- ``migrate_orphans(...)`` re-routes queue
  entries to the successor topology; calling it in a function that has
  not first journaled a topology record (directly or through a helper
  like ``_log`` / ``split`` / ``merge``) or replayed a journal (the
  recovery path constructs the pool *from* an image) moves entries the
  journal knows nothing about.
- **machine-rebalance** -- ``RoundStateMachine.apply`` rejects
  ``REBALANCE_KINDS`` at runtime (topology records belong to the shard
  pool's journal); feeding it a record whose ``kind`` is statically a
  rebalance kind is a guaranteed ``InvalidTransitionError``.

Whether a callee journals or replays is a whole-program fact -- the
append usually hides inside ``_log`` -- so both are computed as
interprocedural summaries over the project call graph.  Ordering inside
one function is judged by source position, which is exact for the
repo's construct-then-use style (the checks are about *statement
discipline*, not arbitrary control flow).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.analysis.base import Rule, callee_name, dotted_name
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.ipa.callgraph import own_statements
from repro.analysis.ipa.dataflow import SummaryAnalysis
from repro.analysis.ipa.symbols import FunctionInfo
from repro.federation.wal import REBALANCE_KINDS

#: Call names that *act* on a record (mutate state from it).
ACT_NAMES = frozenset({"_apply", "apply"})

#: Constant names conventionally holding rebalance kinds.
REBALANCE_CONSTANTS = frozenset({"SHARD_SPLIT", "SHARD_MERGE"})

#: Journal read surfaces: records coming out of these are durable.
REPLAY_ATTRS = frozenset({"records"})
REPLAY_CALLS = frozenset({"records_since", "replay_wal"})


@dataclass(frozen=True)
class JournalEffects:
    """Whether a function journals and/or replays, transitively."""

    journals: bool = False
    replays: bool = False


def _is_wal_append(project, fn: FunctionInfo, call: ast.Call) -> bool:
    """``<wal>.append(record)``: the journaling primitive itself."""
    if callee_name(call.func) != "append" or \
            not isinstance(call.func, ast.Attribute):
        return False
    for qualname in project.resolver.resolve_call(fn, call):
        if qualname.endswith(".WriteAheadLog.append"):
            return True
    receiver = dotted_name(call.func.value)
    return receiver is not None and receiver.split(".")[-1] in (
        "wal", "_wal", "log", "journal")


def _is_replay_read(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr in REPLAY_ATTRS:
        return True
    return isinstance(node, ast.Call) and \
        callee_name(node.func) in REPLAY_CALLS


class JournalSummaries(SummaryAnalysis):
    """Fixpoint of :class:`JournalEffects` over the call graph."""

    def __init__(self, project):
        super().__init__(project.callgraph)
        self.project = project

    def bottom(self, fn: FunctionInfo) -> JournalEffects:
        return JournalEffects()

    def transfer(self, fn: FunctionInfo, get_summary) -> JournalEffects:
        journals = False
        replays = False
        for node in own_statements(fn.node):
            if _is_replay_read(node):
                replays = True
            if not isinstance(node, ast.Call):
                continue
            if _is_wal_append(self.project, fn, node):
                journals = True
            for qualname in self.project.resolver.resolve_call(fn, node):
                callee = get_summary(qualname)
                if isinstance(callee, JournalEffects):
                    journals = journals or callee.journals
                    replays = replays or callee.replays
        return JournalEffects(journals=journals, replays=replays)


def _record_kind(call: ast.Call) -> Optional[str]:
    """The statically known ``kind`` of a ``WalRecord(...)`` call."""
    value: Optional[ast.expr] = None
    for keyword in call.keywords:
        if keyword.arg == "kind":
            value = keyword.value
    if value is None and call.args:
        value = call.args[0]
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return value.value
    if isinstance(value, ast.Name) and value.id in REBALANCE_CONSTANTS:
        return value.id.lower()
    return None


def _first_arg_name(call: ast.Call) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.Name):
        return call.args[0].id
    return None


def _machine_receiver(project, fn: FunctionInfo, call: ast.Call) -> bool:
    """Whether an ``apply`` call dispatches into ``RoundStateMachine``."""
    for qualname in project.resolver.resolve_call(fn, call):
        if qualname.endswith(".RoundStateMachine.apply"):
            return True
    if isinstance(call.func, ast.Attribute):
        receiver = dotted_name(call.func.value)
        if receiver is not None and \
                receiver.split(".")[-1] in ("machine", "_machine"):
            return True
    return False


class WalDisciplineRule(Rule):
    name = "wal-discipline"
    description = ("WAL records must be journaled (wal.append) before "
                   "they act (_apply/migrate); rebalance kinds never "
                   "reach RoundStateMachine")
    needs_project = True

    def check_project(self, project) -> Iterator[Diagnostic]:
        effects = JournalSummaries(project)
        effects.run()
        for qualname in sorted(project.symbols.functions):
            fn = project.symbols.functions[qualname]
            yield from self._check_function(project, effects, fn)

    # ------------------------------------------------------------------

    def _check_function(self, project, effects: JournalSummaries,
                        fn: FunctionInfo) -> Iterator[Diagnostic]:
        #: name -> the WalRecord(...) call that freshly bound it.
        fresh: Dict[str, ast.Call] = {}
        #: lines on which something journaled or replayed.
        context_lines: List[int] = []
        for node in sorted(own_statements(fn.node),
                           key=lambda n: (getattr(n, "lineno", 0),
                                          getattr(n, "col_offset", 0))):
            if _is_replay_read(node):
                context_lines.append(getattr(node, "lineno", 0))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._track_bindings(node, fresh)
            if isinstance(node, (ast.For, ast.AsyncFor)):
                # Loop targets rebind: whatever they held is gone.
                for name in _target_name_list(node.target):
                    fresh.pop(name, None)
            if not isinstance(node, ast.Call):
                continue
            name = callee_name(node.func)
            summaries = [effects.summary(q) for q in
                         project.resolver.resolve_call(fn, node)]
            journaling = _is_wal_append(project, fn, node) or any(
                s.journals for s in summaries
                if isinstance(s, JournalEffects))
            replaying = any(s.replays for s in summaries
                            if isinstance(s, JournalEffects))
            if journaling or replaying:
                context_lines.append(node.lineno)
            if journaling:
                # Every record handed to a journaling call is durable.
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        fresh.pop(arg.id, None)
                continue
            if name == "migrate_orphans":
                if not any(line < node.lineno for line in context_lines):
                    yield self.diagnostic(
                        fn.unit, node,
                        "migrate_orphans() without a journaled topology "
                        "change: no wal.append (or journal replay) "
                        "precedes it in this function, so the entry "
                        "moves would not survive a crash",
                        symbol=fn.name)
                continue
            if name not in ACT_NAMES:
                continue
            record = _first_arg_name(node)
            inline = node.args[0] if node.args and \
                isinstance(node.args[0], ast.Call) and \
                callee_name(node.args[0].func) == "WalRecord" else None
            source = inline if inline is not None else \
                fresh.get(record) if record is not None else None
            if source is None:
                continue
            kind = _record_kind(source)
            if kind in REBALANCE_KINDS and \
                    _machine_receiver(project, fn, node):
                yield self.diagnostic(
                    fn.unit, node,
                    f"RoundStateMachine.apply() fed a {kind!r} record: "
                    f"rebalance kinds belong to the shard pool's "
                    f"topology journal and raise "
                    f"InvalidTransitionError here",
                    symbol=fn.name)
                continue
            yield self.diagnostic(
                fn.unit, node,
                f"{name}() acts on a WalRecord never journaled: "
                f"wal.append must come first (journal-then-act), or "
                f"the mutation is lost on crash replay",
                symbol=fn.name)

    @staticmethod
    def _track_bindings(node: ast.stmt, fresh: Dict[str, ast.Call]) -> None:
        value = node.value
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target]
        is_record = isinstance(value, ast.Call) and \
            callee_name(value.func) == "WalRecord"
        for target in targets:
            for name in _target_name_list(target):
                if is_record:
                    fresh[name] = value
                else:
                    fresh.pop(name, None)


def _target_name_list(target: ast.expr) -> List[str]:
    names: List[str] = []
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.append(node.id)
    return names
