"""flcheck: AST-based invariant checking for the reproduction codebase.

Three PRs of infrastructure established repo-wide invariants -- plaintext
never crosses a channel unencrypted, nondeterminism routes through
``REPRO_TEST_SEED`` streams, every modelled cost lands in a registered
ledger category -- but tests only guard the call sites they happen to
exercise.  flcheck enforces the invariants *statically*: it parses every
module under ``src/repro`` with :mod:`ast` and reports typed diagnostics
with file:line anchors, so a violating diff fails lint instead of a fuzz
run.

Rules (each in its own module, all listed in
:data:`repro.analysis.engine.ALL_RULES`):

- ``plaintext-wire``   -- taint analysis from ``decrypt*`` / ``PlainTensor``
  to ``send`` / ``serialize_*`` / WAL sinks, one interprocedural pass
  (:mod:`repro.analysis.taint`);
- ``determinism``      -- global RNG / wall-clock / OS-entropy use outside
  the whitelisted modules (:mod:`repro.analysis.determinism`);
- ``ledger-category``  -- charge-site categories validated against
  :data:`repro.ledger.CATEGORY_FAMILIES`
  (:mod:`repro.analysis.ledger_rule`);
- ``deprecated-api``   -- resurrection of removed raw-list shims and
  gmpy-style bigint imports (:mod:`repro.analysis.deprecation`);
- ``wal-discipline``   -- journal-then-act ordering on write-ahead-log
  records, checked interprocedurally
  (:mod:`repro.analysis.ipa.wal_rule`).

``plaintext-wire`` and ``wal-discipline`` need a whole-program view --
symbol table, class hierarchy, call graph, and summary fixpoints live
under :mod:`repro.analysis.ipa`.  One gate per invariant: what the
runtime already enforces where it matters is not linted twice.  Kernel
resource envelopes are checked by :class:`repro.gpu.kernels.GpuKernels`
whenever kernels are built, and the ingress charges and counts each
admission verdict in one call (``AsyncChannel._charge``).

Run it as ``python -m repro lint``; see ``docs/analysis.md`` for the
pragma workflow.
"""
