"""The ``plaintext-wire`` engine: taint summaries + one reporting pass.

A decrypt result laundered through a one-line helper must still be seen
where it reaches the channel, so the taint engine composes *per-function
taint summaries* along the project call graph:

- ``ret_always`` -- the function returns decrypted data no matter what
  goes in (it calls ``decrypt*`` / builds a ``PlainTensor`` and returns
  the result, possibly through further summarized calls);
- ``ret_deps`` -- parameter indices whose taint flows to the return
  value (a pass-through helper has ``ret_deps == {0}``; an
  ``encrypt_tensor`` wrapper has *empty* ``ret_deps``, which is exactly
  the sanitizer summary: composition makes its result clean);
- ``sink_params`` -- parameter indices that reach a wire/WAL sink
  inside the function or transitively through its callees, each with
  the shortest call path to the sink;
- ``attr_always`` / ``attr_deps`` -- ``self`` attributes the function
  stores taint into (unconditionally, or when a given parameter is
  tainted);
- ``param_always`` / ``param_deps`` -- parameters the function stores
  taint into through an attribute or item write (``box.held = value``),
  unconditionally or when a given parameter is tainted: at a call site
  the actual bound to such a parameter holds taint afterwards.

Summaries are context-insensitive (one per function, joined over call
sites and over CHA dispatch candidates) and are computed with the same
boolean engine that reports: each function body is re-analyzed under
one *assumption* per parameter ("only parameter ``i`` is tainted"), and
facts that appear under assumption ``i`` but not under the empty
assumption are attributed to that parameter.  Monotonicity of the
boolean lattice makes the attribution exact.  A call nothing in the
project defines keeps the local heuristic: a tainted receiver or
argument taints its result.  So does a resolved call whose tainted
actual lands in no summarized parameter (``*args``, ``**kwargs``, a
``*xs`` / ``**mapping`` actual, a parameter past
:data:`MAX_ASSUMED_PARAMS`), and a constructor call, whose result is
the instance rather than what ``__init__`` returns.

``self``-attribute flows are tracked object-insensitively: one
project-wide set of attribute *names* that may hold plaintext, grown to
a fixpoint by re-running the summary pass until no new attribute is
discovered (a ``self.buf = decrypt(...)`` in one method makes
``self.buf`` a taint source in every other method reading it).

The reporting pass then analyzes every module body and every function
once, with all summaries and the attribute set active.  A call that is
itself a sink yields one finding; a call whose callee's summary reaches
a sink yields one per sink label, with the full call path rendered in
the message::

    plaintext leak: decrypted value 'share' flows into relay() and
    reaches send() (path: collect -> relay -> forward -> send())
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.base import callee_name
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.ipa.dataflow import SummaryAnalysis
from repro.analysis.ipa.project import Project
from repro.analysis.ipa.symbols import FunctionInfo, module_name
from repro.analysis.taint import (_describe, _is_sanitizer, _is_source,
                                  _sink_label, _target_names)

#: Assumption runs per function are bounded: parameters past this index
#: are never assumed tainted, so a tainted actual landing there falls
#: back to the local rule (the call's result is tainted).
MAX_ASSUMED_PARAMS = 6

#: Global attribute-taint rounds (each is a full summary fixpoint); the
#: attribute name set grows monotonically so this converges fast.
MAX_ATTR_ROUNDS = 4

#: One summarized sink flow: (parameter index, sink label, call path).
SinkFlow = Tuple[int, str, Tuple[str, ...]]


@dataclass(frozen=True)
class TaintSummary:
    """Taint effects of one function, composable at its call sites."""

    ret_always: bool = False
    ret_deps: FrozenSet[int] = frozenset()
    sink_params: Tuple[SinkFlow, ...] = ()
    attr_always: FrozenSet[str] = frozenset()
    attr_deps: FrozenSet[Tuple[str, int]] = frozenset()
    #: Parameter indices left holding taint whatever goes in.
    param_always: FrozenSet[int] = frozenset()
    #: (tainted parameter, parameter it is stored into) index pairs.
    param_deps: FrozenSet[Tuple[int, int]] = frozenset()

    def sink_flows_for(self, index: int) -> List[Tuple[str, Tuple[str, ...]]]:
        return [(label, path) for i, label, path in self.sink_params
                if i == index]


EMPTY_SUMMARY = TaintSummary()


def _param_offset(candidate: FunctionInfo, call: ast.Call,
                  static_receiver: bool) -> int:
    """Index of the first positional argument in the candidate's params.

    ``obj.m(a)`` binds ``a`` to parameter 1 of an instance method
    (``self`` is the receiver) and of a classmethod (``cls`` is
    implicit); a ``@staticmethod`` binds from 0 even through a
    receiver.  ``Class.m(obj, a)`` and plain functions bind from 0.
    Constructor calls ``C(...)`` resolve to ``__init__`` whose ``self``
    is likewise implicit.
    """
    if not candidate.is_method or candidate.binding == "static":
        return 0
    if candidate.name == "__init__" and not isinstance(call.func,
                                                       ast.Attribute):
        return 1  # C(...) constructor call
    if isinstance(call.func, ast.Attribute) and not static_receiver:
        return 1  # bound call through a receiver
    if candidate.binding == "class":
        return 1  # Class.m(a): ``cls`` is still implicit
    return 0


class _FunctionTaint:
    """Taint state and sink detection for one function (or module) body.

    One instance analyzes one body either to *summarize* it (``assumed``
    carries parameter names taken as tainted; effects are collected, no
    diagnostics) or to *report* (``assumed`` empty, ``report`` true).
    Calls that resolve in the project compose their callees' summaries;
    unresolved calls keep the local heuristic (a tainted receiver or
    argument taints the result).
    """

    def __init__(self, rule, fn: FunctionInfo, analysis: "TaintSummaries",
                 assumed: FrozenSet[str] = frozenset(),
                 report: bool = False):
        self.rule = rule
        self.fn = fn
        self.analysis = analysis
        self.assumed = assumed
        self.tainted: Set[str] = set(assumed)
        #: Whether sink hits become diagnostics; off in summary mode and
        #: during a loop body's silent warm-up pass.
        self.reporting = report
        self.hits: List[Diagnostic] = []
        #: Reported sites: ``(line, col)`` for a direct sink, which also
        #: covers summary flows into the same call, and ``(line, col,
        #: label)`` for a summary flow.
        self._seen: Set[tuple] = set()
        # Collected effects (summary mode).
        self.returned_taint = False
        self.attrs_written: Set[str] = set()
        #: Names taint was stored into by an attribute or item write.
        self.stored_into: Set[str] = set()
        #: (sink label, call path starting at this function) -> None.
        self.sink_hits: Dict[Tuple[str, Tuple[str, ...]], None] = {}
        # Per-name provenance for readable reporting-mode messages.
        self.origins: Dict[str, str] = {}
        self._origin_call: Optional[str] = None
        # Call targets pre-resolved by the call graph for this body.
        self._site_targets: Dict[int, Tuple[str, ...]] = {
            id(site): targets
            for site, targets in
            analysis.callgraph.sites.get(fn.qualname, [])}

    # -- candidate plumbing ----------------------------------------------

    def _candidates(self, call: ast.Call) -> List[FunctionInfo]:
        targets = self._site_targets.get(id(call))
        if targets is None:  # a module body: not in the call graph
            targets = self._site_targets[id(call)] = \
                self.analysis.resolve(self.fn, call)
        functions = self.analysis.symbols.functions
        return [functions[qualname] for qualname in targets
                if qualname in functions]

    def _static_receiver(self, call: ast.Call) -> bool:
        if not isinstance(call.func, ast.Attribute):
            return False
        owner = self.analysis.symbols.resolve_name(self.fn.module,
                                                   call.func.value)
        return owner in self.analysis.symbols.classes

    def _actual_taints(self, call: ast.Call, candidate: FunctionInfo,
                       receiver: bool, arg_taints: List[bool],
                       kw_taints: List[bool],
                       ) -> Tuple[Dict[int, ast.expr], bool]:
        """param index -> the tainted actual expression feeding it.

        Also says whether some tainted actual lands in no summarized
        parameter: a ``*xs`` or ``**mapping`` actual, one bound to
        ``*args`` / ``**kwargs`` or past :data:`MAX_ASSUMED_PARAMS`, or
        the receiver of a static or class method.  The summary knows
        nothing of such an actual, so the caller keeps the local
        heuristic for it.
        """
        offset = _param_offset(candidate, call, self._static_receiver(call))
        arguments = candidate.node.args
        positional = min(len(arguments.posonlyargs) + len(arguments.args),
                         MAX_ASSUMED_PARAMS)
        summarized = candidate.params[:MAX_ASSUMED_PARAMS]
        flows: Dict[int, ast.expr] = {}
        unsummarized = False
        if receiver:
            if offset == 1 and candidate.binding == "instance" \
                    and isinstance(call.func, ast.Attribute):
                flows[0] = call.func.value
            else:
                unsummarized = True
        for position, arg in enumerate(call.args):
            if not arg_taints[position]:
                continue
            if offset + position < positional:
                flows[offset + position] = arg
            if isinstance(arg, ast.Starred) or \
                    offset + position >= positional:
                unsummarized = True
        for kw, tainted in zip(call.keywords, kw_taints):
            if not tainted:
                continue
            if kw.arg in summarized:
                flows[candidate.params.index(kw.arg)] = kw.value
            else:
                unsummarized = True
        return flows, unsummarized

    def _is_self_attribute(self, node: ast.Attribute) -> bool:
        return isinstance(node.value, ast.Name) and \
            node.value.id == self.fn.self_param

    # -- expression taint ------------------------------------------------

    def is_tainted(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Attribute):
            if self._is_self_attribute(node) and \
                    self.analysis.attr_is_tainted(self.fn.cls, node.attr):
                return True
            return self.is_tainted(node.value)
        if isinstance(node, ast.Subscript):
            return self.is_tainted(node.value) or self.is_tainted(node.slice)
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.BinOp):
            return self.is_tainted(node.left) or self.is_tainted(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.is_tainted(node.operand)
        if isinstance(node, ast.BoolOp):
            return any(self.is_tainted(value) for value in node.values)
        if isinstance(node, ast.Compare):
            # Comparison results are booleans, not plaintext payloads --
            # but operands still need visiting for walrus bindings.
            self.is_tainted(node.left)
            for comparator in node.comparators:
                self.is_tainted(comparator)
            return False
        if isinstance(node, ast.IfExp):
            return self.is_tainted(node.body) or self.is_tainted(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(self.is_tainted(elt) for elt in node.elts)
        if isinstance(node, ast.Dict):
            return any(self.is_tainted(value) for value in node.values
                       if value is not None) or \
                   any(key is not None and self.is_tainted(key)
                       for key in node.keys)
        if isinstance(node, ast.Starred):
            return self.is_tainted(node.value)
        if isinstance(node, ast.JoinedStr):
            return any(self.is_tainted(value) for value in node.values)
        if isinstance(node, ast.FormattedValue):
            return self.is_tainted(node.value)
        if isinstance(node, ast.NamedExpr):
            result = self.is_tainted(node.value)
            self._bind(node.target, result)
            return result
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comprehension_taint(node, [node.elt])
        if isinstance(node, ast.DictComp):
            return self._comprehension_taint(node, [node.key, node.value])
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.is_tainted(node.value)
        if isinstance(node, ast.Yield):
            return node.value is not None and self.is_tainted(node.value)
        return False

    def _call_taint(self, node: ast.Call) -> bool:
        if _is_sanitizer(node.func):
            return False
        if _is_source(node.func):
            return True
        receiver = isinstance(node.func, ast.Attribute) and \
            self.is_tainted(node.func.value)
        arg_taints = [self.is_tainted(arg) for arg in node.args]
        kw_taints = [self.is_tainted(kw.value) for kw in node.keywords]
        any_tainted = receiver or any(arg_taints) or any(kw_taints)
        candidates = self._candidates(node)
        if not candidates:
            # Unresolved call: a method on a tainted receiver
            # (x.ravel()) or any tainted argument taints the result.
            return any_tainted
        result = False
        for candidate in candidates:
            summary = self.analysis.summary_for(candidate.qualname)
            flows, unsummarized = self._actual_taints(
                node, candidate, receiver, arg_taints, kw_taints)
            self._apply_param_stores(node, candidate, summary, flows)
            # A constructor's result is the instance, not what
            # ``__init__`` returns: built from taint, it holds it.
            constructor = candidate.name == "__init__" and \
                not isinstance(node.func, ast.Attribute)
            if not result and (
                    summary.ret_always or unsummarized or
                    (constructor and any_tainted) or
                    any(index in summary.ret_deps for index in flows)):
                self._origin_call = callee_name(node.func)
                result = True
        # With no candidate saying otherwise, the result is clean: this
        # is the sanitizer summary (an encrypt_tensor wrapper's result
        # is clean whatever went in), overriding the local heuristic.
        return result

    def _apply_param_stores(self, call: ast.Call, candidate: FunctionInfo,
                            summary: TaintSummary,
                            flows: Dict[int, ast.expr]) -> None:
        """The actuals bound to parameters the callee stores taint into
        hold taint after the call."""
        stored = set(summary.param_always)
        stored.update(target for source, target in summary.param_deps
                      if source in flows)
        if not stored:
            return
        actuals, _ = self._actual_taints(
            call, candidate, True, [True] * len(call.args),
            [True] * len(call.keywords))
        for index in sorted(stored):
            if index in actuals:
                self._store_into(actuals[index])

    def _comprehension_taint(self, node, results: List[ast.expr]) -> bool:
        bound: List[str] = []
        iter_tainted = False
        for gen in node.generators:
            if self.is_tainted(gen.iter):
                iter_tainted = True
                for name in _target_names(gen.target):
                    if name not in self.tainted:
                        self.tainted.add(name)
                        bound.append(name)
        result = iter_tainted or \
            any(self.is_tainted(expr) for expr in results)
        for name in bound:  # comprehension targets do not escape
            self.tainted.discard(name)
        return result

    # -- bindings --------------------------------------------------------

    def _bind(self, target: ast.expr, value_tainted: bool) -> None:
        """Bind one assignment target, by its structure.

        Tainting every name inside a target would make
        ``self.weights[i] = tainted`` taint ``self`` and ``i`` -- too
        coarse once attributes are tracked by name: a tainted ``self``
        makes *every* attribute read tainted.  So subscript and starred
        wrappers unwrap to the container being written (weak update:
        writing one clean element does not clean it), a ``self``
        attribute write records the attribute, and a plain name gets a
        strong update (assignment both taints and *untaints*).
        """
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, value_tainted)
            return
        core = target
        while isinstance(core, (ast.Subscript, ast.Starred)):
            core = core.value
        weak = core is not target
        if isinstance(core, ast.Attribute):
            if self._is_self_attribute(core):
                if value_tainted:
                    self.attrs_written.add(core.attr)
            elif value_tainted:  # obj.attr = tainted: obj now holds taint
                self._store_into(core.value)
            return
        if isinstance(core, ast.Name):
            if value_tainted and weak:
                self._store_into(core)
            elif value_tainted:
                self.tainted.add(core.id)
            elif not weak:
                self.tainted.discard(core.id)
                self.origins.pop(core.id, None)
            return
        for name in _target_names(target):
            if value_tainted:
                self.tainted.add(name)
            else:
                self.tainted.discard(name)

    def _store_into(self, holder: ast.expr) -> None:
        """``holder`` now holds taint written into an attribute or item of
        it, here or by a callee through a parameter."""
        names = _target_names(holder)
        self.tainted.update(names)
        self.stored_into.update(names)

    def _assign(self, targets: List[ast.expr], value: ast.expr) -> None:
        self._origin_call = None
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)) and \
                    isinstance(value, (ast.Tuple, ast.List)) and \
                    len(target.elts) == len(value.elts):
                # Element-wise tuple unpacking keeps precision:
                # ``a, b = decrypt(x), 0`` taints only ``a``.
                for t_elt, v_elt in zip(target.elts, value.elts):
                    self._bind(t_elt, self.is_tainted(v_elt))
            else:
                self._bind(target, self.is_tainted(value))
        origin = self._origin_call
        for target in targets:
            for name in _target_names(target):
                if name not in self.tainted:
                    self.origins.pop(name, None)
                elif origin is not None:
                    self.origins[name] = origin

    # -- sinks -----------------------------------------------------------

    def _scan_sinks(self, node: ast.AST) -> None:
        """Record sink facts always; emit diagnostics only when reporting.

        A call is checked as a sink itself first, then for the sinks its
        callees' summaries reach; one finding per call site when it is a
        sink itself.
        """
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                self._check_direct_sink(call)
                self._check_summary_sinks(call)

    def _check_direct_sink(self, call: ast.Call) -> None:
        label = _sink_label(call.func)
        if not label:
            return
        flows = [arg for arg in call.args if self.is_tainted(arg)]
        flows += [kw.value for kw in call.keywords
                  if self.is_tainted(kw.value)]
        if not flows:
            return
        self.sink_hits.setdefault((label, (self.fn.name,)), None)
        key = (call.lineno, call.col_offset)
        if not self.reporting or key in self._seen:
            return
        self._seen.add(key)
        origin = ""
        if isinstance(flows[0], ast.Name):
            producer = self.origins.get(flows[0].id)
            if producer is not None:
                origin = f" (returned decrypted by {producer}())"
        self.hits.append(self.rule.diagnostic(
            self.fn.unit, call,
            f"plaintext leak: decrypted value {_describe(flows[0])}"
            f"{origin} reaches {label}() without passing through "
            f"encrypt_tensor", symbol=self.fn.name))

    def _check_summary_sinks(self, call: ast.Call) -> None:
        candidates = self._candidates(call)
        if not candidates:
            return
        receiver = isinstance(call.func, ast.Attribute) and \
            self.is_tainted(call.func.value)
        arg_taints = [self.is_tainted(arg) for arg in call.args]
        kw_taints = [self.is_tainted(kw.value) for kw in call.keywords]
        if not (receiver or any(arg_taints) or any(kw_taints)):
            return
        for candidate in candidates:
            summary = self.analysis.summary_for(candidate.qualname)
            flows, _ = self._actual_taints(call, candidate, receiver,
                                           arg_taints, kw_taints)
            for index, actual in sorted(flows.items()):
                for label, path in summary.sink_flows_for(index):
                    self._record_summary_sink(call, candidate, actual,
                                              label, path)
            if not self.assumed and candidate.cls is not None:
                # Taint stored into an attribute by the callee becomes
                # grounded once a really-tainted actual reaches it.
                for attr, index in summary.attr_deps:
                    if index in flows:
                        self.analysis.discovered_attrs.add(
                            (candidate.cls, attr))

    def _record_summary_sink(self, call: ast.Call, candidate: FunctionInfo,
                             actual: ast.expr, label: str,
                             path: Tuple[str, ...]) -> None:
        full_path = (self.fn.name or "<module>",) + path
        self.sink_hits.setdefault((label, full_path), None)
        site = (call.lineno, call.col_offset)
        if not self.reporting or site in self._seen or \
                site + (label,) in self._seen:
            return
        self._seen.add(site + (label,))
        rendered = " -> ".join(full_path) + f" -> {label}()"
        self.hits.append(self.rule.diagnostic(
            self.fn.unit, call,
            f"plaintext leak: decrypted value {_describe(actual)} flows "
            f"into {candidate.name}() and reaches {label}() without "
            f"passing through encrypt_tensor (path: {rendered})",
            symbol=self.fn.name))

    # -- statements ------------------------------------------------------

    def run(self, body: List[ast.stmt]) -> List[Diagnostic]:
        self.visit_body(body)
        return self.hits

    def visit_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.visit_stmt(stmt)

    def _visit_loop_body(self, body: List[ast.stmt]) -> None:
        """Loop bodies get a silent warm-up pass first, so taint created
        late in iteration N is visible to sinks early in iteration N+1
        (loop-carried flows)."""
        was_reporting = self.reporting
        self.reporting = False
        self.visit_body(body)
        self.reporting = was_reporting
        self.visit_body(body)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are analyzed independently
        if isinstance(stmt, ast.Assign):
            self._scan_sinks(stmt.value)
            self._assign(stmt.targets, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_sinks(stmt.value)
                self._bind(stmt.target, self.is_tainted(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self._scan_sinks(stmt.value)
            already = self.is_tainted(stmt.target)
            self._bind(stmt.target,
                       already or self.is_tainted(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self._scan_sinks(stmt.value)
            self.is_tainted(stmt.value)  # evaluate walrus bindings
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            value = stmt.value if isinstance(stmt, ast.Return) else stmt.exc
            if value is not None:
                self._scan_sinks(value)
            if isinstance(stmt, ast.Return) and value is not None and \
                    self.is_tainted(value):
                self.returned_taint = True
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_sinks(stmt.iter)
            if self.is_tainted(stmt.iter):
                self._bind(stmt.target, True)
            self._visit_loop_body(stmt.body)
            self.visit_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._scan_sinks(stmt.test)
            self.is_tainted(stmt.test)   # evaluate walrus bindings
            self._visit_loop_body(stmt.body)
            self.visit_body(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._scan_sinks(stmt.test)
            self.is_tainted(stmt.test)   # evaluate walrus bindings
            self.visit_body(stmt.body)
            self.visit_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_sinks(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars,
                               self.is_tainted(item.context_expr))
            self.visit_body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.visit_body(stmt.body)
            for handler in stmt.handlers:
                self.visit_body(handler.body)
            self.visit_body(stmt.orelse)
            self.visit_body(stmt.finalbody)
        # Assert/Delete/Import/Global/Nonlocal/Pass/Break/Continue: no
        # taint flow.


class TaintSummaries(SummaryAnalysis):
    """Fixpoint of :class:`TaintSummary` over the project call graph."""

    def __init__(self, rule, project: Project,
                 attr_taint: Optional[Set[Tuple[str, str]]] = None):
        super().__init__(project.callgraph)
        self.rule = rule
        self.project = project
        #: (class qualname, attribute name) pairs that may hold
        #: plaintext; scoped per class so two unrelated ``buf``
        #: attributes never contaminate each other.
        self.attr_taint: Set[Tuple[str, str]] = set(attr_taint or ())
        #: Attribute pairs grounded through call sites this run.
        self.discovered_attrs: Set[Tuple[str, str]] = set()

    def resolve(self, fn: FunctionInfo, call: ast.Call) -> Tuple[str, ...]:
        return self.project.resolver.resolve_call(fn, call)

    def attr_is_tainted(self, cls: Optional[str], attr: str) -> bool:
        """Whether ``cls`` (or any ancestor) has a tainted ``attr``."""
        seen: Set[str] = set()
        frontier = [cls] if cls is not None else []
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            if (current, attr) in self.attr_taint:
                return True
            info = self.symbols.classes.get(current)
            if info is not None:
                frontier.extend(info.bases)
        return False

    def summary_for(self, qualname: str) -> TaintSummary:
        summary = self.summary(qualname)
        return summary if summary is not None else EMPTY_SUMMARY

    # -- SummaryAnalysis interface ----------------------------------------

    def bottom(self, fn: FunctionInfo) -> TaintSummary:
        return EMPTY_SUMMARY

    def _analyze(self, fn: FunctionInfo,
                 assumed: FrozenSet[str]) -> _FunctionTaint:
        analyzer = _FunctionTaint(self.rule, fn, self, assumed=assumed)
        analyzer.run(fn.node.body)
        return analyzer

    def transfer(self, fn: FunctionInfo, get_summary) -> TaintSummary:
        params = fn.params[:MAX_ASSUMED_PARAMS]
        base = self._analyze(fn, frozenset())
        ret_always = base.returned_taint
        attr_always = frozenset(base.attrs_written)
        param_always = frozenset(index for index, param in enumerate(params)
                                 if param in base.stored_into)
        base_sinks = set(base.sink_hits)
        ret_deps: Set[int] = set()
        attr_deps: Set[Tuple[str, int]] = set()
        param_deps: Set[Tuple[int, int]] = set()
        sink_params: Dict[Tuple[int, str], Tuple[str, ...]] = {}
        for index, param in enumerate(params):
            assumed = self._analyze(fn, frozenset({param}))
            if assumed.returned_taint and not ret_always:
                ret_deps.add(index)
            for attr in assumed.attrs_written - base.attrs_written:
                attr_deps.add((attr, index))
            stored = assumed.stored_into - base.stored_into
            param_deps.update((index, target)
                              for target, name in enumerate(params)
                              if target != index and name in stored)
            for label, path in assumed.sink_hits:
                if (label, path) in base_sinks:
                    continue  # reached without this parameter's help
                best = sink_params.get((index, label))
                if best is None or (len(path), path) < (len(best), best):
                    sink_params[(index, label)] = path
        flows = tuple(sorted(
            (index, label, path)
            for (index, label), path in sink_params.items()))
        return TaintSummary(ret_always=ret_always,
                            ret_deps=frozenset(ret_deps),
                            sink_params=flows,
                            attr_always=attr_always,
                            attr_deps=frozenset(attr_deps),
                            param_always=param_always,
                            param_deps=frozenset(param_deps))


def collect_findings(rule, project: Project) -> List[Diagnostic]:
    """Every ``plaintext-wire`` finding for a project.

    Runs the attribute fixpoint (summaries re-derived until no new
    tainted ``self`` attribute appears), then one reporting pass over
    each module body and each function.
    """
    attr_taint: Set[Tuple[str, str]] = set()
    analysis = TaintSummaries(rule, project, attr_taint)
    analysis.run()
    for _ in range(MAX_ATTR_ROUNDS):
        grown = analysis.discovered_attrs | _always_attrs(analysis)
        if grown <= attr_taint:
            break
        attr_taint |= grown
        analysis = TaintSummaries(rule, project, attr_taint)
        analysis.run()

    functions = analysis.symbols.functions
    scopes = [_module_scope(unit) for unit in project.units.values()]
    scopes += [functions[qualname] for qualname in sorted(functions)]
    findings: List[Diagnostic] = []
    for fn in scopes:
        reporter = _FunctionTaint(rule, fn, analysis, report=True)
        findings.extend(reporter.run(fn.node.body))
    return findings


def _module_scope(unit) -> FunctionInfo:
    """A module's top-level statements as a parameterless function.

    Named ``""`` (the module-scope symbol of a diagnostic) and qualified
    apart from every real definition; it is reported on, never
    summarized, and its calls resolve through the module's imports.
    """
    module = module_name(unit.display_path)
    node = ast.FunctionDef(
        name="", args=ast.arguments(posonlyargs=[], args=[], kwonlyargs=[],
                                    kw_defaults=[], defaults=[]),
        body=unit.tree.body, decorator_list=[])
    return FunctionInfo(qualname=f"{module}.<module>", module=module,
                        name="", node=node, unit=unit)


def _always_attrs(analysis: TaintSummaries) -> Set[Tuple[str, str]]:
    grown: Set[Tuple[str, str]] = set()
    for qualname, summary in analysis.summaries.items():
        if not isinstance(summary, TaintSummary) or not summary.attr_always:
            continue
        fn = analysis.symbols.functions.get(qualname)
        if fn is not None and fn.cls is not None:
            grown |= {(fn.cls, attr) for attr in summary.attr_always}
    return grown
