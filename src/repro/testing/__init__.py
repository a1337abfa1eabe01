"""Correctness subsystem: differential oracle, simulator, fuzzer.

Three pillars (PR 3's tentpole):

- :mod:`repro.testing.trace` / :mod:`repro.testing.conformance` -- the
  declarative op-trace format and the cross-engine differential oracle
  that replays each trace against every engine in its table *and* a pure
  ``pow()`` reference, asserting bit-identical ciphertexts;
- :mod:`repro.testing.simulator` -- the deterministic federation
  simulator (seeded virtual clock, zero wall-clock
  dependence) whose failures replay from ``(seed, trace)`` alone;
- :mod:`repro.testing.fuzz` -- the structured FLT3 / WAL wire-format fuzzer
  (seeded header/payload mutations that must always produce *typed*
  rejections, never crashes or silent mis-decodes).

Import from the modules themselves: the package imports none of them, so
the ``pow()``-only :mod:`repro.testing.reference` loads without the
engines and the tensor stack (numpy) the oracle needs.
"""
