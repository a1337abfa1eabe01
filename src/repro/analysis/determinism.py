"""Rule ``determinism``: all randomness and time must be injected.

The conformance simulator replays every experiment bit-for-bit from
``REPRO_TEST_SEED``; one call into the process-global ``random`` state, a
wall-clock read, or an OS-entropy draw breaks that.  This rule flags:

- the stdlib global RNG (``random.random``, ``random.seed``, ...) and
  ``random.SystemRandom`` -- seeded ``random.Random(seed)`` instances are
  fine anywhere;
- argless ``random.Random()`` / ``numpy.random.default_rng()`` (they
  self-seed from entropy) and every legacy ``numpy.random.*`` global
  (``rand``, ``seed``, ``RandomState``, ...);
- wall-clock reads: ``time.time`` / ``monotonic`` / ``perf_counter``
  (+ ``_ns`` variants) and ``time.sleep``, both called *and* passed as a
  bare reference (e.g. ``clock=time.monotonic`` defaults);
- ``datetime.now`` / ``utcnow`` / ``today``, ``os.urandom``,
  ``uuid.uuid1``/``uuid4``, and anything in ``secrets``.

Whitelisted module paths (where nondeterminism is the point):

- ``repro/rng.py``           -- the one sanctioned construction site for
  routed streams;
- ``repro/mpint/primes.py``  -- production keygen entropy
  (``LimbRandom.entropy``); replayable keys would leak;
- ``repro/testing/``         -- harnesses that *measure* wall-clock;
- ``repro/analysis/``        -- flcheck's own ``--max-seconds`` clock.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro.analysis.base import ImportMap, Rule
from repro.analysis.diagnostics import Diagnostic

#: Posix path suffixes/prefix-dirs exempt from this rule.
WHITELIST_FILES = (
    "repro/rng.py",
    "repro/mpint/primes.py",
)
WHITELIST_DIRS = (
    "repro/testing/",
    "repro/analysis/",
)

#: Fully qualified names flagged whenever *called*.
_FLAGGED_CALLS = {
    "os.urandom": "os.urandom draws OS entropy",
    "uuid.uuid1": "uuid.uuid1 embeds host clock and MAC",
    "uuid.uuid4": "uuid.uuid4 draws OS entropy",
    "random.SystemRandom": "random.SystemRandom is OS entropy",
    "numpy.random.RandomState": "legacy numpy RandomState; route through "
                                "repro.rng.np_rng",
}

#: Names flagged when called *or* referenced (often passed as callables).
_CLOCKS = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.sleep",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Argless construction of these self-seeds from entropy.
_NEEDS_SEED = {"random.Random", "numpy.random.default_rng"}


def _whitelisted(display_path: str) -> bool:
    return display_path.endswith(WHITELIST_FILES) or \
        any(marker in display_path for marker in WHITELIST_DIRS)


class DeterminismRule(Rule):
    name = "determinism"
    description = ("no global RNG, wall clock, or OS entropy outside "
                   "the whitelisted routing modules")

    def check(self, unit) -> Iterator[Diagnostic]:
        if _whitelisted(unit.display_path):
            return
        imports = ImportMap(unit.tree)
        reported: Set[Tuple[int, int]] = set()

        def emit(node: ast.AST, message: str) -> Diagnostic:
            reported.add((node.lineno, node.col_offset))
            return self.diagnostic(unit, node, message)

        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Call):
                resolved = imports.resolve(node.func)
                verdict = self._check_call(node, resolved)
                if verdict:
                    yield emit(node, verdict)
                    reported.add((node.func.lineno, node.func.col_offset))
            elif isinstance(node, (ast.Attribute, ast.Name)):
                if (node.lineno, node.col_offset) in reported:
                    continue
                resolved = imports.resolve(node)
                if resolved in _CLOCKS:
                    yield emit(node, f"wall-clock reference {resolved}; "
                                     f"inject a clock instead")
                elif resolved is not None and \
                        resolved.startswith("secrets."):
                    yield emit(node, f"{resolved} draws OS entropy")

    @staticmethod
    def _check_call(node: ast.Call, resolved: Optional[str]) \
            -> Optional[str]:
        if resolved is None:
            return None
        if resolved in _FLAGGED_CALLS:
            return (f"{_FLAGGED_CALLS[resolved]}; route randomness "
                    f"through repro.rng")
        if resolved in _CLOCKS:
            return f"wall-clock call {resolved}; inject a clock instead"
        if resolved in _NEEDS_SEED:
            if not node.args and not node.keywords:
                return (f"argless {resolved}() self-seeds from OS "
                        f"entropy; pass a routed seed (repro.rng)")
            return None
        if resolved.startswith("secrets."):
            return f"{resolved} draws OS entropy"
        if resolved.startswith("numpy.random."):
            return (f"global numpy RNG {resolved}; use "
                    f"repro.rng.np_rng(stream) instead")
        if resolved.startswith("random."):
            # Anything else on the random module hits the process-global
            # Mersenne Twister (random.random, .seed, .choice, ...).
            return (f"process-global RNG {resolved}; use "
                    f"repro.rng.py_rng(stream) instead")
        return None
