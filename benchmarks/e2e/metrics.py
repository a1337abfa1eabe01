"""Every metric the benchmark emits: name, unit, direction, provenance.

``tag`` says which clock a number comes from: ``measured`` is wall time
(or a count / size of real bytes) taken by this harness; ``modelled`` is
the program's own cost model (ledger seconds, the channel's nominal
wire bytes).  ``BENCHMARK.json`` at the repo root lists the subset the
driver judges; ``test_bench_e2e.py`` checks the two agree.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

MEASURED = "measured"
MODELLED = "modelled"


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    tag: str = MEASURED


#: The seven end-to-end metrics of the suite (untraced run).
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower"),
    Metric("round_s_p50", "s", "lower"),
    Metric("values_per_s", "1/s", "higher"),
    Metric("wire_bytes_per_round", "bytes", "lower", MODELLED),
    Metric("decode_err_max", "abs", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
    Metric("failed_share", "ratio", "lower"),
]

#: Span names with a ``.self_ms`` metric, in pipeline order.
LAYER_SPANS = [
    "models.run_epoch",
    "quantization.encode_pack",
    "quantization.unpack_decode",
    "crypto.encrypt",
    "crypto.decrypt",
    "crypto.add",
    "crypto.scalar_mul",
    "gpu.kernels",
    "tensor.materialize",
    "federation.aggregator.aggregate",
    "federation.aggregator.validate",
    "federation.serialization.serialize",
    "federation.serialization.deserialize",
    "federation.channel.send",
    "federation.eventloop.submit",
    "federation.eventloop.drain",
    "federation.coordinator.accept_upload",
    "federation.wal.append",
    "federation.shard.combine_round",
    "federation.shard.reduce_round",
    "federation.shard.run_round",
    "federation.tenancy.run_round",
    "ledger.charge",
]

#: Backends and operations of the micro-table.
MICRO_BACKENDS = ("cpu", "gpu", "vector")
MICRO_OPS = ("encrypt_fresh", "encrypt_pooled", "decrypt", "add",
             "scalar_mul")

#: Per-layer metrics of the traced run.  Times are self time per traced
#: round; counts are per traced round.
PER_LAYER: List[Metric] = (
    [Metric(f"{span}.self_ms", "ms", "lower") for span in LAYER_SPANS]
    + [Metric(f"crypto.{op}.ops", "count", "lower")
       for op in ("encrypt", "decrypt", "add", "scalar_mul")]
    + [
        Metric("crypto.pool_fill.s", "s", "lower"),
        Metric("quantization.encode_pack.values", "count", "higher"),
        Metric("quantization.words_per_round", "count", "lower"),
        Metric("quantization.decode_err_max", "abs", "lower"),
        Metric("gpu.launches", "count", "lower", MODELLED),
        Metric("tensor.engine_calls", "count", "lower"),
        Metric("tensor.words_per_engine_call", "count", "higher"),
        Metric("federation.serialization.frame_bytes", "bytes", "lower"),
        Metric("federation.channel.messages", "count", "lower"),
        Metric("federation.channel.wire_bytes", "bytes", "lower",
               MODELLED),
        Metric("federation.channel.retransmissions", "count", "lower"),
        Metric("federation.eventloop.rejected", "count", "lower"),
        Metric("federation.eventloop.shed", "count", "lower"),
        Metric("federation.wal.records", "count", "lower"),
        Metric("federation.wal.bytes", "bytes", "lower"),
        Metric("federation.shard.leaves", "count", "lower"),
        Metric("federation.tenancy.rebalance_ops", "count", "lower"),
        Metric("ledger.charge.calls", "count", "lower"),
    ]
    + [Metric(f"ledger.modelled_s.{column}", "s", "lower", MODELLED)
       for column in ("he", "comm", "pipeline", "model", "total")]
    + [Metric(f"crypto.{backend}.{op}_us", "us", "lower")
       for backend in MICRO_BACKENDS for op in MICRO_OPS]
    + [
        Metric("mpint.batched_pow_us", "us", "lower"),
        Metric("mpint.scalar_pow_us", "us", "lower"),
        Metric("bench.trace_overhead_ratio", "ratio", "lower"),
        Metric("bench.unattributed_ms", "ms", "lower"),
        Metric("bench.round_s_iqr", "s", "lower"),
        Metric("bench.host_speed_index", "1/s", "higher"),
    ]
)


def by_name(metrics: List[Metric]) -> Dict[str, Metric]:
    return {metric.name: metric for metric in metrics}
