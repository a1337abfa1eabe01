"""Fig. 4 companion: per-stage timing of the data-processing pipeline.

Fig. 4 is an architecture figure (no measurements in the paper), but the
staged pipeline it draws is implemented in :mod:`repro.pipeline`; this
benchmark prints where one encryption / decryption round's time actually
goes -- GPU compute dominates, the encode/pack stages are the lightweight
plug-in the paper promises (Sec. IV-B: "the time spent on encoding and
quantization is extremely small").
"""

from benchmarks.common import bench_rng, publish
from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.experiments import format_table
from repro.federation.metrics import (
    CPU_FLOP_RATE,
    PIPELINE_SECONDS_PER_VALUE,
)
from repro.federation.runtime import cached_keypair
from repro.gpu.kernels import GpuKernels
from repro.gpu.resource_manager import ResourceManager
from repro.mpint.primes import LimbRandom
from repro.pipeline import DecryptionPipeline, EncryptionPipeline
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker

VALUES = 2048


def collect():
    keypair = cached_keypair(256)
    engine = GpuPaillierEngine(
        keypair,
        kernels=GpuKernels(resource_manager=ResourceManager(managed=True)),
        nominal_bits=1024, rng=LimbRandom(seed=4),
        randomizer_pool_size=16)
    scheme = QuantizationScheme(alpha=1.0, r_bits=5, num_parties=4)
    packer = BatchPacker(scheme,
                         plaintext_bits=engine.physical_plaintext_bits,
                         capacity=32)
    gradients = bench_rng(2).uniform(-1, 1, VALUES)
    encrypted = EncryptionPipeline(engine, packer).run(gradients)
    decrypted = DecryptionPipeline(engine, packer).run(
        encrypted.values, count=VALUES)
    return encrypted, decrypted


def test_fig4_pipeline_stages(benchmark):
    encrypted, decrypted = benchmark.pedantic(collect, rounds=1,
                                              iterations=1)

    rows = []
    for phase, result in (("encryption", encrypted),
                          ("decryption", decrypted)):
        for stage in result.stages:
            share = 100 * stage.seconds / result.total_seconds
            priced_by = ("engine ledger (Eq. 10 launches)"
                         if stage.name == "gpu_compute"
                         else f"flops / CPU_FLOP_RATE ({CPU_FLOP_RATE:.0e})")
            rows.append([phase, stage.name,
                         f"{stage.seconds * 1e3:.3f}", f"{share:.1f}%",
                         priced_by])
        rows.append([phase, "TOTAL",
                     f"{result.total_seconds * 1e3:.3f}", "100%", ""])
    table = format_table(
        ["Phase", "Stage", "ms (modelled)", "Share", "Priced by"],
        rows,
        title=f"Fig. 4 -- pipeline stage breakdown "
              f"({VALUES} gradients @1024, packed)")
    # The runtime prices the same host work with a different constant;
    # say so under the table (docs/cost_model.md has both numbers).
    table += (
        f"\nHost rows are not what a runtime round is charged: the ledger "
        f"prices encode+pack (and unpack+decode) at "
        f"PIPELINE_SECONDS_PER_VALUE = {PIPELINE_SECONDS_PER_VALUE:.0e}, "
        f"{VALUES * PIPELINE_SECONDS_PER_VALUE * 1e3:.2f} ms for these "
        f"{VALUES} values per direction.")
    publish("fig4_pipeline_stages", table)

    # GPU compute dominates both phases; host-side stages are the
    # "extremely small" plug-in the paper claims.
    for result in (encrypted, decrypted):
        compute = result.stage_seconds("gpu_compute")
        host_side = result.total_seconds - compute
        assert compute > 0.5 * result.total_seconds
        assert host_side < result.total_seconds
