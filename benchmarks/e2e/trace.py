"""In-memory span tracer, installed by wrapping public callables.

The benchmark owns its tracing: nothing under ``src/`` is edited.  A
:class:`Probe` names one public callable (a method on a class, or a
module-level function) and the span it should produce; the
:class:`Tracer` swaps a timing wrapper in for the duration of a traced
block and puts the original object back afterwards.  Spans carry name,
start, end, parent, workload and round id, stay in memory, and are
written as Chrome-trace JSON when the benchmark exits.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so self times of one round add up to
the round's wall time (the remainder is the ``bench.round`` root span's
own self time, reported as ``bench.unattributed_ms``).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

#: Round id of spans recorded during set-up (before the first round).
SETUP_ROUND = -1

#: Name of the root span the harness opens around every traced round.
ROUND_SPAN = "bench.round"

# Span record layout (a list, mutated in place while the span is open).
_NAME, _START, _END, _PARENT, _ROUND, _CHILD_S, _PAYLOAD = range(7)


class Probe(NamedTuple):
    """One public callable to wrap.

    Attributes:
        owner: The class or module whose attribute is replaced.
        attr: Attribute name; must be defined on ``owner`` itself.
        span: Span name, ``<layer>.<operation>``.
        capture: Optional ``(result, args, kwargs) -> payload`` run after
            the span closed.  Must be O(1): it only picks out what the
            metric derivation needs later (a length, a record).
    """

    owner: Any
    attr: str
    span: str
    capture: Optional[Callable] = None


def function_probes(function: Callable, span: str,
                    capture: Optional[Callable] = None,
                    package: str = "repro") -> List[Probe]:
    """Probes for every binding of a module-level function.

    ``from x import f`` copies the binding into the importing module, so
    wrapping ``x.f`` alone would miss those call sites; this finds each
    loaded ``package`` module whose global is the very same object.
    """
    probes = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == package
                                  or module_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                probes.append(Probe(module, attr, span, capture))
    return probes


class Tracer:
    """Span store plus the install / restore of its probes."""

    def __init__(self, workload: str):
        self.workload = workload
        self.round_id = SETUP_ROUND
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def open_span(self, name: str) -> int:
        """Open a span by hand (the harness' per-round root)."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0,
                           self._stack[-1] if self._stack else -1,
                           self.round_id, 0.0, None])
        self._stack.append(index)
        self.spans[index][_START] = time.perf_counter()
        return index

    def close_span(self, index: int) -> None:
        """Close a span opened with :meth:`open_span`."""
        record = self.spans[index]
        record[_END] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans must close in LIFO order")
        if self._stack:
            self.spans[self._stack[-1]][_CHILD_S] += \
                record[_END] - record[_START]

    def _wrap(self, function: Callable, name: str,
              capture: Optional[Callable]) -> Callable:
        spans, stack, clock, tracer = (self.spans, self._stack,
                                       time.perf_counter, self)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.round_id, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[_START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[_END] = end = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][_CHILD_S] += end - record[_START]
            if capture is not None:
                record[_PAYLOAD] = capture(result, args, kwargs)
            return result

        return traced

    # ------------------------------------------------------------------
    # Install / restore.
    # ------------------------------------------------------------------

    def install(self, probes: List[Probe]) -> None:
        """Swap a timing wrapper in for every probe's callable."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for probe in probes:
            namespace = vars(probe.owner)
            if probe.attr not in namespace:
                raise AttributeError(
                    f"{probe.owner!r} does not define {probe.attr!r} "
                    f"itself; name the defining class")
            original = namespace[probe.attr]
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(self._wrap(
                    original.__func__, probe.span, probe.capture))
            else:
                wrapper = self._wrap(original, probe.span, probe.capture)
            setattr(probe.owner, probe.attr, wrapper)
            self._patched.append((probe.owner, probe.attr, original))

    def restore(self) -> None:
        """Put every original object back (idempotent)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Derivation.
    # ------------------------------------------------------------------

    def layer_totals(self, setup: bool = False) -> Dict[str, dict]:
        """Per span name: self seconds, calls and captured payloads.

        A name that never ran reads as zeros.

        Args:
            setup: Total the set-up spans instead of the round spans.
        """
        totals: Dict[str, dict] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0, "payloads": []})
        for record in self.spans:
            if (record[_ROUND] == SETUP_ROUND) != setup:
                continue
            entry = totals[record[_NAME]]
            entry["self_s"] += (record[_END] - record[_START]
                                - record[_CHILD_S])
            entry["calls"] += 1
            if record[_PAYLOAD] is not None:
                entry["payloads"].append(record[_PAYLOAD])
        return totals

    def calls_beneath(self, ancestor: str, names: tuple) -> tuple:
        """(calls, summed payloads) of the round spans called ``names``
        that ran beneath a span called ``ancestor``."""
        calls = payloads = 0
        for record in self.spans:
            if record[_ROUND] == SETUP_ROUND or record[_NAME] not in names:
                continue
            parent = record[_PARENT]
            while parent >= 0 and self.spans[parent][_NAME] != ancestor:
                parent = self.spans[parent][_PARENT]
            if parent >= 0:
                calls += 1
                payloads += record[_PAYLOAD] or 0
        return calls, payloads

    def chrome_events(self, pid: int = 1) -> Iterator[dict]:
        """The spans as Chrome-trace complete (``ph: X``) events."""
        for index, record in enumerate(self.spans):
            yield {
                "name": record[_NAME],
                "cat": record[_NAME].split(".", 1)[0],
                "ph": "X",
                "pid": pid,
                "tid": 1,
                "ts": record[_START] * 1e6,
                "dur": (record[_END] - record[_START]) * 1e6,
                "args": {"id": index, "parent": record[_PARENT],
                         "workload": self.workload,
                         "round": record[_ROUND]},
            }


def write_chrome_trace(path, tracers: List[Tracer]) -> None:
    """Write every tracer's spans as one Chrome-trace JSON file.

    Each workload becomes its own process row (``pid``), named by a
    metadata event, so ``chrome://tracing`` / Perfetto shows the four
    timelines stacked.
    """
    events: List[dict] = []
    for pid, tracer in enumerate(tracers, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 1, "args": {"name": tracer.workload}})
        events.extend(tracer.chrome_events(pid))
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
