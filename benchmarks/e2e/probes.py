"""Which public callables the traced run wraps, and under which span.

Layers are this repo's modules.  Every entry names the class (or module
function) that *defines* the callable, so the wrapper sits exactly at
the layer boundary the per-layer metrics in ``BENCHMARK.json`` describe.
Wrapping a class nobody instantiates in a given workload costs nothing;
one list therefore serves all four workloads, whichever engine
``he_backend="auto"`` resolves to.
"""

from __future__ import annotations

from typing import List

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.crypto.engine import RandomizerPool
from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.crypto.vector_engine import VectorPaillierEngine
from repro.federation import serialization
from repro.federation.aggregator import SecureAggregator
from repro.federation.channel import Channel
from repro.federation.coordinator import DurableCoordinator
from repro.federation.eventloop import AsyncChannel
from repro.federation.shard import (
    MultiTenantAggregationService,
    RootCoordinator,
    ShardAggregator,
    ShardedAggregationService,
)
from repro.federation.wal import WriteAheadLog
from repro.gpu.kernels import GpuKernels
from repro.ledger import CostLedger
from repro.models.homo_lr import HomoLogisticRegression
from repro.tensor.cipher import CipherTensor
from repro.tensor.plain import PlainTensor

from benchmarks.e2e.trace import Probe, function_probes


def _batch_size(result, args, kwargs) -> int:
    """Operations in one engine ``*_batch`` call (``args[0]`` is self)."""
    return len(args[1])


def _encoded(result, args, kwargs) -> tuple:
    """(values, words) of one ``PlainTensor.encode``."""
    return (result.meta.count, len(result.words))


def _frame_out(result, args, kwargs) -> int:
    return len(result)


def _frame_in(result, args, kwargs) -> int:
    return len(args[0])


def _wal_record(result, args, kwargs):
    """The appended record; its encoded size is taken after the run."""
    return args[1]


#: Every engine class ``he_backend="auto"`` could resolve to.
ENGINE_CLASSES = (CpuPaillierEngine, GpuPaillierEngine, VectorPaillierEngine)


def standard_probes() -> List[Probe]:
    """The span list of the traced run."""
    probes = [
        Probe(HomoLogisticRegression, "run_epoch", "models.run_epoch"),
        Probe(PlainTensor, "encode", "quantization.encode_pack", _encoded),
        Probe(PlainTensor, "decode", "quantization.unpack_decode"),
        Probe(RandomizerPool, "fill", "crypto.pool_fill"),
        Probe(CipherTensor, "materialize", "tensor.materialize"),
        Probe(SecureAggregator, "aggregate",
              "federation.aggregator.aggregate"),
        Probe(SecureAggregator, "validate_ciphertexts",
              "federation.aggregator.validate"),
        Probe(Channel, "send", "federation.channel.send"),
        Probe(AsyncChannel, "submit", "federation.eventloop.submit"),
        Probe(AsyncChannel, "drain", "federation.eventloop.drain"),
        Probe(DurableCoordinator, "accept_upload",
              "federation.coordinator.accept_upload"),
        Probe(WriteAheadLog, "append", "federation.wal.append",
              _wal_record),
        Probe(ShardAggregator, "combine_round",
              "federation.shard.combine_round"),
        Probe(RootCoordinator, "reduce_round",
              "federation.shard.reduce_round"),
        Probe(ShardedAggregationService, "run_round",
              "federation.shard.run_round"),
        Probe(MultiTenantAggregationService, "run_round",
              "federation.tenancy.run_round"),
        Probe(CostLedger, "charge", "ledger.charge"),
    ]
    for engine in ENGINE_CLASSES:
        probes += [
            Probe(engine, "encrypt_batch", "crypto.encrypt", _batch_size),
            Probe(engine, "decrypt_batch", "crypto.decrypt", _batch_size),
            Probe(engine, "add_batch", "crypto.add", _batch_size),
            Probe(engine, "scalar_mul_batch", "crypto.scalar_mul",
                  _batch_size),
        ]
    # Every recorded launch enters through one of these four
    # (mod_pow_scalar_exponent delegates to mod_pow).
    for kernel in ("mod_mul", "mod_pow", "charge_mod_mul",
                   "charge_mod_pow"):
        probes.append(Probe(GpuKernels, kernel, "gpu.kernels"))
    probes += function_probes(serialization.serialize_tensor,
                              "federation.serialization.serialize",
                              _frame_out)
    probes += function_probes(serialization.deserialize_tensor,
                              "federation.serialization.deserialize",
                              _frame_in)
    return probes
