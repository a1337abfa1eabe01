"""Measurement sessions: set-up, blocks of timed rounds, correctness gates.

A :class:`Session` owns one workload instance.  Its rounds run in
*blocks*; a block is either untraced (the end-to-end clock) or traced
(probes installed, spans recorded).  The one-workload driver mode runs
one workload's blocks back to back; the suite mode interleaves the four
workloads' blocks round-robin.

Every time is raw wall-clock (``time.perf_counter``).  A fixed-operand
``pow`` probe is timed before each block and printed as
``bench.host_speed_index``; it explains host drift between two runs and
is never used to normalise anything.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
import traceback
from typing import Dict, List, Optional

from repro.federation.wal import encode_record

from benchmarks.e2e.metrics import LAYER_SPANS
from benchmarks.e2e.probes import standard_probes
from benchmarks.e2e.trace import ROUND_SPAN, Tracer
from benchmarks.e2e.workloads import Workload

#: Modelled-seconds columns: ledger category prefix per column.
LEDGER_COLUMNS = {"he": "he.", "comm": "comm.", "pipeline": "pipeline.",
                  "model": "model.", "total": ""}

# Fixed operands of the host probe (a 2048-bit modexp, the operation
# every workload's HE cost reduces to).
_PROBE_MODULUS = (1 << 2047) + 12345
_PROBE_EXPONENT = (1 << 1023) + 77
_PROBE_BASE = 3 ** 600
_PROBE_OPS = 3


def host_probe() -> float:
    """Seconds per fixed-operand modexp, right now, on this host.

    The median of three, so that one preempted ``pow`` does not read as
    a slow host.
    """
    samples = []
    for offset in range(_PROBE_OPS):
        start = time.perf_counter()
        pow(_PROBE_BASE + offset, _PROBE_EXPONENT, _PROBE_MODULUS)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def peak_rss_mib() -> float:
    """Peak resident set of this process so far (``ru_maxrss`` is KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quartile_spread(values: List[float]) -> float:
    """Inter-quartile range (0 for fewer than two samples)."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return high - low


class Session:
    """One workload being measured.

    Args:
        workload_cls: The workload to instantiate.
        seed: Workload seed (inputs, keys and randomizers derive from it).
        traced: Record spans during set-up and in the traced blocks.
    """

    def __init__(self, workload_cls, seed: int, traced: bool = False):
        self.workload_cls = workload_cls
        self.seed = seed
        self.tracer: Optional[Tracer] = (
            Tracer(workload_cls.name) if traced else None)
        # Built once: finding every binding of a module-level function
        # walks sys.modules.
        self._probes = standard_probes() if traced else []
        self.workload: Optional[Workload] = None
        self.setup_s = 0.0
        #: One entry per block: {"traced": bool, "probe_s": seconds per
        #: host-probe modexp right before it, "rounds": [wall seconds]}.
        self.blocks: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.decode_err_max = 0.0
        #: sha256 of each round's decoded output, by round number.
        self.digests: List[str] = []
        self.ledger_seconds = {column: 0.0 for column in LEDGER_COLUMNS}
        self._counters_start: Dict[str, int] = {}
        self._traced_counters: Dict[str, int] = {}
        #: ``ru_maxrss`` after this session's latest round.
        self.peak_rss_mib = 0.0

    # ------------------------------------------------------------------
    # Set-up.
    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Build the workload and run its warm-up round, timed once."""
        if self.tracer is not None:
            self.tracer.install(self._probes)
        start = time.perf_counter()
        try:
            workload = self.workload_cls(self.seed)
            workload.setup()
        finally:
            self.setup_s = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.restore()
        self.workload = workload
        self._counters_start = workload.counters()
        self._traced_counters = dict.fromkeys(self._counters_start, 0)

    # ------------------------------------------------------------------
    # Rounds.
    # ------------------------------------------------------------------

    def run_block(self, rounds: int, traced: bool = False) -> None:
        """Run one block of ``rounds`` rounds."""
        if traced and self.tracer is None:
            raise RuntimeError("session was not created for tracing")
        workload = self.workload
        gc.collect()
        block = {"traced": traced, "probe_s": host_probe(), "rounds": []}
        self.blocks.append(block)
        for _ in range(rounds):
            workload.prepare_round()
            before = workload.counters() if traced else None
            if traced:
                self.tracer.round_id = len(self.digests)
                self.tracer.install(self._probes)
                root = self.tracer.open_span(ROUND_SPAN)
            error = None
            start = time.perf_counter()
            try:
                workload.run_round()
            except Exception as raised:
                # A failed round is a result (it counts against
                # failed_share), not a reason to lose the other rounds.
                traceback.print_exc()
                error = f"{type(raised).__name__}: {raised}"
            finally:
                elapsed = time.perf_counter() - start
                if traced:
                    self.tracer.close_span(root)
                    self.tracer.restore()
            block["rounds"].append(elapsed)
            self.attempted += 1
            if error is None:
                error = self._check(workload)
            else:
                self.digests.append("")
            if error is not None:
                self.failed += 1
                self.failures.append(
                    f"round {self.attempted - 1}: {error}")
            if traced:
                after = workload.counters()
                for key, value in after.items():
                    self._traced_counters[key] += value - before[key]
        self.peak_rss_mib = peak_rss_mib()

    def _check(self, workload: Workload) -> Optional[str]:
        """The per-round correctness gate; returns a failure or None."""
        outcome = workload.check_round()
        self.digests.append(
            hashlib.sha256(outcome.decoded.tobytes()).hexdigest())
        for column, prefix in LEDGER_COLUMNS.items():
            self.ledger_seconds[column] += sum(
                ledger.seconds(prefix) for ledger in outcome.ledgers)
        if not outcome.accepted:
            return "round rejected, shed or below quorum"
        error = outcome.error
        if not error <= outcome.tolerance:  # also catches NaN
            return (f"decode error {error:.3e} over the live scheme's "
                    f"{outcome.tolerance:.3e}")
        self.decode_err_max = max(self.decode_err_max, error)
        return None

    # ------------------------------------------------------------------
    # End-to-end metrics.
    # ------------------------------------------------------------------

    def rounds(self, traced: bool = False) -> List[float]:
        """Wall seconds of every round of the (un)traced blocks."""
        return [seconds for block in self.blocks
                if block["traced"] == traced
                for seconds in block["rounds"]]

    def round_s_p50(self, traced: bool = False) -> float:
        """Median over blocks of the block's median round time."""
        return statistics.median(
            statistics.median(block["rounds"]) for block in self.blocks
            if block["traced"] == traced and block["rounds"])

    def end_to_end(self) -> Dict[str, float]:
        """The seven end-to-end metrics, from the untraced blocks."""
        rounds = self.rounds()
        counters = self.workload.counters()
        wire = (counters["channel.wire_bytes"]
                - self._counters_start["channel.wire_bytes"])
        failed_share = self.failed / self.attempted
        return {
            "setup_s": self.setup_s,
            "round_s_p50": self.round_s_p50(),
            # Only rounds that passed their gate aggregated anything.
            "values_per_s": (
                self.workload.values_per_round * len(rounds)
                * (1.0 - failed_share)
                / sum(rounds)),
            "wire_bytes_per_round": wire / self.attempted,
            "decode_err_max": self.decode_err_max,
            "peak_rss_mb": self.peak_rss_mib,
            "failed_share": failed_share,
        }

    def sample_counts(self) -> Dict[str, int]:
        """How many samples stand behind each statistic."""
        return {"blocks": len(self.blocks),
                "rounds_untraced": len(self.rounds()),
                "rounds_traced": len(self.rounds(traced=True))}

    # ------------------------------------------------------------------
    # Per-layer metrics (traced blocks).
    # ------------------------------------------------------------------

    def per_layer(self) -> Dict[str, float]:
        """Every per-layer metric, per traced round."""
        tracer = self.tracer
        count = len(self.rounds(traced=True))
        totals = tracer.layer_totals()
        metrics: Dict[str, float] = {}

        for span in LAYER_SPANS:
            metrics[f"{span}.self_ms"] = (
                1000.0 * totals[span]["self_s"] / count)
        for op in ("encrypt", "decrypt", "add", "scalar_mul"):
            metrics[f"crypto.{op}.ops"] = (
                sum(totals[f"crypto.{op}"]["payloads"]) / count)
        encoded = totals["quantization.encode_pack"]["payloads"]
        metrics["quantization.encode_pack.values"] = (
            sum(values for values, _words in encoded) / count)
        metrics["quantization.words_per_round"] = (
            sum(words for _values, words in encoded) / count)
        metrics["quantization.decode_err_max"] = self.decode_err_max
        metrics["crypto.pool_fill.s"] = tracer.layer_totals(
            setup=True)["crypto.pool_fill"]["self_s"]
        metrics["gpu.launches"] = totals["gpu.kernels"]["calls"] / count
        calls, words = tracer.calls_beneath(
            "tensor.materialize", ("crypto.add", "crypto.scalar_mul"))
        metrics["tensor.engine_calls"] = calls / count
        metrics["tensor.words_per_engine_call"] = (
            words / calls if calls else 0.0)
        metrics["federation.serialization.frame_bytes"] = sum(
            totals["federation.serialization.serialize"]["payloads"]) / count
        records = totals["federation.wal.append"]["payloads"]
        metrics["federation.wal.records"] = len(records) / count
        metrics["federation.wal.bytes"] = sum(
            len(encode_record(record)) for record in records) / count
        metrics["federation.shard.leaves"] = (
            totals["federation.shard.combine_round"]["calls"] / count)
        metrics["ledger.charge.calls"] = (
            totals["ledger.charge"]["calls"] / count)

        for key, value in self._traced_counters.items():
            metrics[f"federation.{key}"] = value / count
        for column, seconds in self.ledger_seconds.items():
            metrics[f"ledger.modelled_s.{column}"] = (
                seconds / self.attempted)

        metrics["bench.trace_overhead_ratio"] = (
            self.round_s_p50(traced=True) / self.round_s_p50())
        metrics["bench.unattributed_ms"] = (
            1000.0 * totals[ROUND_SPAN]["self_s"] / count)
        metrics["bench.round_s_iqr"] = quartile_spread(self.rounds())
        metrics["bench.host_speed_index"] = 1.0 / statistics.median(
            block["probe_s"] for block in self.blocks)
        return metrics
