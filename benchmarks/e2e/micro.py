"""Backend micro-table: per-op cost of each HE engine's public ``*_batch``.

Run once per traced invocation at 1024-bit real keys and batch 64.  It
predicts which backend ``he_backend="auto"`` *should* pick; the
workloads' ``round_s_p50`` only moves once ``auto`` actually selects it.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict

from repro.crypto.cpu_engine import CpuPaillierEngine
from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.crypto.vector_engine import VectorPaillierEngine
from repro.federation.runtime import cached_keypair
from repro.gpu.kernels import GpuKernels
from repro.gpu.resource_manager import ResourceManager
from repro.mpint import limb_plane
from repro.mpint.primes import LimbRandom

KEY_BITS = 1024
BATCH = 64
POOL_SIZE = 32
#: A cipher_pack-style slot shift: the short exponent scalar_mul sees.
SCALAR = 1 << 31


def _engine_factories(keypair, seed: int) -> Dict[str, Callable]:
    """Backend name -> ``(pool_size) -> engine``."""

    def cpu(pool_size):
        return CpuPaillierEngine(keypair, rng=LimbRandom(seed=seed),
                                 randomizer_pool_size=pool_size)

    def gpu(pool_size):
        kernels = GpuKernels(resource_manager=ResourceManager(managed=True))
        return GpuPaillierEngine(keypair, kernels=kernels,
                                 rng=LimbRandom(seed=seed),
                                 randomizer_pool_size=pool_size)

    def vector(pool_size):
        return VectorPaillierEngine(keypair, rng=LimbRandom(seed=seed),
                                    randomizer_pool_size=pool_size)

    return {"cpu": cpu, "gpu": gpu, "vector": vector}


def _timed(call: Callable, repeats: int = 1) -> tuple:
    """(median microseconds per batch element, the last result)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / BATCH * 1e6, result


def micro_table(seed: int, quick: bool = False) -> Dict[str, float]:
    """Every ``crypto.<backend>.<op>_us`` and ``mpint.*_pow_us`` metric.

    Operations that cost a modexp per element (fresh encryption,
    decryption, the raw ``pow``) run once -- that is already 64 samples
    of the modexp; the cheap ones report a median of several calls.

    Args:
        quick: One call of everything (the smoke scale).
    """
    keypair = cached_keypair(KEY_BITS, seed=seed)
    n = keypair.public_key.n
    n_squared = keypair.public_key.n_squared
    # Full-width plaintexts, like the packed words the workloads encrypt.
    plaintexts = [pow(3 + seed % 1000, 1000 + i, n) for i in range(BATCH)]
    scalars = [SCALAR] * BATCH
    repeats = 1 if quick else 15

    metrics = {}
    for backend, build in _engine_factories(keypair, seed).items():
        fresh, pooled = build(0), build(POOL_SIZE)
        ciphertexts = pooled.encrypt_batch(plaintexts)  # fills the pool
        prefix = f"crypto.{backend}."
        metrics[prefix + "encrypt_fresh_us"], _ = _timed(
            lambda: fresh.encrypt_batch(plaintexts))
        metrics[prefix + "encrypt_pooled_us"], _ = _timed(
            lambda: pooled.encrypt_batch(plaintexts), repeats)
        metrics[prefix + "decrypt_us"], decrypted = _timed(
            lambda: pooled.decrypt_batch(ciphertexts))
        metrics[prefix + "add_us"], _ = _timed(
            lambda: pooled.add_batch(ciphertexts, ciphertexts), repeats)
        metrics[prefix + "scalar_mul_us"], _ = _timed(
            lambda: pooled.scalar_mul_batch(ciphertexts, scalars), repeats)
        if decrypted != plaintexts:
            raise RuntimeError(
                f"micro-table: backend {backend!r} failed its round trip")

    bases = [2 + plaintext for plaintext in plaintexts]
    metrics["mpint.scalar_pow_us"], powers = _timed(
        lambda: [pow(base, n, n_squared) for base in bases])
    metrics["mpint.batched_pow_us"], batched = _timed(
        lambda: limb_plane.batched_pow(bases, n, n_squared))
    if batched != powers:
        raise RuntimeError("micro-table: batched_pow disagrees with pow")
    return metrics
