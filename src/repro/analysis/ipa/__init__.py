"""Interprocedural analysis (ipa): the whole-program layer under flcheck.

A per-module rule sees one parsed file and nothing else, which is why
a decrypt result laundered through a one-line helper reached the
channel unseen.  This subpackage gives rules a *project* view:

- :mod:`repro.analysis.ipa.symbols` -- a project-wide symbol table:
  every function and class under the scanned roots, module-qualified,
  with the class hierarchy resolved so method lookups follow
  inheritance (and, conservatively, overrides in subclasses -- the
  duck-typed engine/codec/rule registries dispatch on shared method
  names, never on concrete types);
- :mod:`repro.analysis.ipa.callgraph` -- call-site resolution
  (imported names, ``self.method``, ``Class()`` construction, locally
  inferred receiver types, bounded duck-typed fallback) condensed into
  a call graph with Tarjan SCCs, so recursion is a fixpoint over one
  component instead of an infinite descent;
- :mod:`repro.analysis.ipa.dataflow` -- the worklist framework that
  computes one *summary* per function, callee-first over the SCC
  condensation, iterating each SCC to a fixpoint;
- :mod:`repro.analysis.ipa.project` -- the
  :class:`~repro.analysis.ipa.project.Project` facade the engine builds
  once per run and hands to every project-scoped rule;
- :mod:`repro.analysis.ipa.taint_summaries` -- the interprocedural
  upgrade of ``plaintext-wire``: per-function taint summaries
  (param -> sink, tainted returns, ``self`` attribute flows, encrypt
  sanitizers) composed along the call graph, with the full call path
  rendered in every diagnostic;
- :mod:`repro.analysis.ipa.wal_rule` -- ``wal-discipline``: the
  journal-then-act typestate check over WAL records.

Summaries are context-insensitive (one summary per function, joined
over all call sites) but *summary-composed*: a helper's effects are
applied at every caller, so a taint fact or journal obligation crosses
any number of call boundaries at a cost linear in program size.
"""
