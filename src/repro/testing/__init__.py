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
"""

from repro.testing.conformance import (
    ConformanceFailure,
    ConformancePair,
    ConformanceResult,
    check_fused_vs_eager,
    conformance_matrix,
    engines,
    full_trace_suite,
    replay,
    run_all,
    run_trace,
)
from repro.testing.trace import (
    ConformanceTrace,
    TraceBuilder,
    TraceOp,
    ring_trace,
    standard_traces,
)

__all__ = [
    "ConformanceFailure",
    "ConformancePair",
    "ConformanceResult",
    "ConformanceTrace",
    "TraceBuilder",
    "TraceOp",
    "check_fused_vs_eager",
    "conformance_matrix",
    "engines",
    "full_trace_suite",
    "replay",
    "ring_trace",
    "run_all",
    "run_trace",
    "standard_traces",
]
