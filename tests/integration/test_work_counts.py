"""Exact work counts on the warm paths the e2e benchmark times.

Each test wraps one callable and counts what a real 1024-bit round does
with it.  A regression here would still compute the right answer and
would show in a round time only as noise, so the count is the assertion.
(CI's ``bench-e2e-smoke`` job runs this file on a runner where the
native library is known to bind.)
"""

import numpy as np
import pytest

from repro.crypto.gpu_engine import GpuPaillierEngine
from repro.federation.coordinator import RoundStateMachine
from repro.federation.runtime import (
    FLBOOSTER_SYSTEM,
    FederationRuntime,
    cached_keypair,
)
from repro.federation.shard import ShardedAggregationService
from repro.federation.wal import ROUND_CLOSE
from repro.mpint import native
from repro.quantization import encoding


@pytest.mark.skipif(not native.HAVE_NATIVE,
                    reason="residency needs the native library")
def test_a_1024_word_sum_stays_resident_at_every_level(monkeypatch):
    """A reduction that silently left the library would still sum
    correctly, 3-4x slower."""
    engine = GpuPaillierEngine(cached_keypair(1024, seed=1),
                               randomizer_pool_size=8)
    words = engine.encrypt_batch(list(range(1024)))
    levels = []

    def spy(a, b, modulus):
        levels.append(type(a) is type(b) is native.ResidueBatch)
        return native.mulmod_batch(a, b, modulus)

    monkeypatch.setattr("repro.gpu.kernels.mulmod_batch", spy)
    assert engine.decrypt_batch([engine.sum_ciphertexts(words)]) == \
        [1023 * 512]
    assert levels == [True] * 10


def test_a_warm_upload_encodes_without_rederiving_its_geometry(monkeypatch):
    """Slot widths, masks and shifts are fixed when the scheme and the
    codec are built; a log2 back on the encode path is what this
    catches."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=128,
                                key_bits=1024)
    upload = np.linspace(-0.9, 0.9, 64)
    runtime.aggregator.encrypt_tensor(upload)   # first of its layout
    calls = []
    derive = encoding.overflow_bits_for
    monkeypatch.setattr(encoding, "overflow_bits_for",
                        lambda p: calls.append(p) or derive(p))
    runtime.aggregator.encrypt_tensor(upload)
    assert calls == []


def test_a_warm_journaled_round_digests_only_at_round_close(monkeypatch):
    """The per-record digest trail is the crash sweep's witness and is
    read off the journal on demand; a digest back on the append path
    re-serialises the whole open round for every record."""
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=8,
                                key_bits=1024)
    service = ShardedAggregationService(runtime.aggregator,
                                        seed=runtime.seed)
    uploads = [np.linspace(-0.9, 0.9, 64) * (i + 1) / 8 for i in range(8)]
    service.run_round(uploads, round_index=0)   # builds the nodes
    calls = []
    digest = RoundStateMachine.digest
    monkeypatch.setattr(
        RoundStateMachine, "digest",
        lambda machine: calls.append(machine) or digest(machine))
    service.run_round(uploads, round_index=1)
    closes = sum(record.kind == ROUND_CLOSE and record.round_index == 1
                 for node in (*service.leaves.values(), service.root)
                 for record in node.wal.records)
    assert len(calls) == closes > 0
