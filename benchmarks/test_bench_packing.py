"""Codec-layer ablation: ciphertext counts and summand capacity.

The dense Eq. 9 layout charges every logical position a full slot, so a
~0.1%-dense 10k-parameter gradient (RCV1/Avazu-shaped) pays >99% of its
ciphertexts to carry quantized zeros.  The sparse index+value codec
stores only the support; the interleaved codec spends extra guard bits
to raise the safe-summand bound at the same key size.

The sweep packs one synthetic sparse gradient under all three registered
codecs and snapshots ciphertext counts, plaintext-space utilization and
summand capacity into ``BENCH_packing.json`` at the repo root, so CI can
diff the >=50x sparse reduction and the interleave capacity claim
without re-running the sweep.
"""

import json
from pathlib import Path

import numpy as np

from benchmarks.common import (
    bench_rng,
    bench_seed,
    label_figures,
    publish,
)
from repro.experiments import format_table
from repro.quantization.codecs import InterleavedCodec, SparseCodec
from repro.quantization.encoding import QuantizationScheme
from repro.quantization.packing import BatchPacker

REPO_ROOT = Path(__file__).parent.parent
SNAPSHOT = REPO_ROOT / "BENCH_packing.json"

NUM_PARAMS = 10_000
DENSITY = 0.001          # 0.1% of positions carry gradient mass.
PLAINTEXT_BITS = 2048
R_BITS = 30
NUM_PARTIES = 8
SEED_STREAM = 89


def sparse_gradient():
    """A 10k-parameter gradient with ~0.1% nonzero positions."""
    rng = bench_rng(SEED_STREAM)
    nnz = int(NUM_PARAMS * DENSITY)
    gradient = np.zeros(NUM_PARAMS)
    support = rng.choice(NUM_PARAMS, size=nnz, replace=False)
    gradient[support] = rng.uniform(-0.5, 0.5, size=nnz)
    return gradient


def measure(codec, gradient):
    """Pack one gradient and report the codec's wire economics."""
    words = codec.pack_values(gradient)
    n = len(gradient)
    assert codec.words_needed(n) == len(words)
    decoded = codec.decode_words(words, n)
    assert len(decoded) == n
    return {
        "codec": codec.codec_id,
        "ciphertexts": len(words),
        "capacity_per_word": codec.capacity,
        "slot_bits": codec.slot_bits,
        "max_safe_summands": codec.max_safe_summands(),
        "plaintext_space_utilization": codec.achieved_psu(n),
    }


def test_bench_packing_codecs(benchmark):
    scheme = QuantizationScheme(alpha=1.0, r_bits=R_BITS,
                                num_parties=NUM_PARTIES)
    gradient = sparse_gradient()
    codecs = [
        BatchPacker(scheme, plaintext_bits=PLAINTEXT_BITS),
        InterleavedCodec(scheme, plaintext_bits=PLAINTEXT_BITS),
        SparseCodec.for_values(gradient, scheme,
                               plaintext_bits=PLAINTEXT_BITS),
    ]
    rows = benchmark.pedantic(
        lambda: [measure(codec, gradient) for codec in codecs],
        rounds=1, iterations=1)
    by_codec = {row["codec"]: row for row in rows}

    dense, inter = by_codec["dense"], by_codec["interleave"]
    sparse = by_codec["sparse"]
    reduction = dense["ciphertexts"] / sparse["ciphertexts"]
    capacity_gain = (inter["max_safe_summands"]
                     / dense["max_safe_summands"])

    table = format_table(
        ["Codec", "Ciphertexts", "Slots/word", "Slot bits",
         "Safe summands", "PSU"],
        [[row["codec"], row["ciphertexts"], row["capacity_per_word"],
          row["slot_bits"], row["max_safe_summands"],
          f"{row['plaintext_space_utilization']:.3f}"]
         for row in rows],
        title=(f"Packing codecs, {NUM_PARAMS:,} params at "
               f"{DENSITY:.1%} density, {PLAINTEXT_BITS}-bit plaintext"))
    publish("bench_packing", table)

    snapshot = {
        "benchmark": "packing_codecs",
        "seed": bench_seed(SEED_STREAM),
        "num_params": NUM_PARAMS,
        "density": DENSITY,
        "plaintext_bits": PLAINTEXT_BITS,
        "r_bits": R_BITS,
        "num_parties": NUM_PARTIES,
        "codecs": rows,
        "sparse_ciphertext_reduction": reduction,
        "interleave_summand_capacity_gain": capacity_gain,
    }
    # Every figure is read off the packing run itself: word counts and
    # slot geometry of real packed gradients, nothing charged or scaled.
    snapshot = label_figures(snapshot, SEED_STREAM, {
        "codecs": "measured",
        "sparse_ciphertext_reduction": "measured",
        "interleave_summand_capacity_gain": "measured",
    }, inputs=("density",))
    SNAPSHOT.write_text(json.dumps(snapshot, indent=2) + "\n")

    # The issue's acceptance bar: >=50x fewer ciphertexts for the
    # 0.1%-dense gradient, and a strictly higher summand bound from the
    # guard band at equal key size.
    assert reduction >= 50, reduction
    assert inter["max_safe_summands"] > dense["max_safe_summands"]
    # Sanity: the interleaved layout trades capacity, not correctness.
    assert inter["ciphertexts"] >= dense["ciphertexts"]
    assert sparse["ciphertexts"] <= len(gradient[gradient != 0.0])
