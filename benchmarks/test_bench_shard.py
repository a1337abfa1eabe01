"""Beyond-the-paper ablation: root-coordinator cost under sharding.

A flat aggregator makes the root touch every one of the ``P`` uploads,
so its per-round cost grows linearly in the federation size.  The
sharded service interposes ``S(P) = ceil(sqrt(P))`` leaf aggregators
that combine ciphertexts homomorphically and forward one partial each,
so the root only touches ``S(P)`` messages per round.

The sweep measures real sharded rounds at small party counts to
calibrate the per-message root cost from the ledger (``comm.partial``
for shard partial uploads, ``he.decrypt`` for the final decode), then
extrapolates both topologies to 1k -> 100k simulated parties.  The
snapshot lands in ``BENCH_shard.json`` at the repo root so CI can diff
the sub-linear claim without re-running the sweep.
"""

import json
import math
from pathlib import Path

from benchmarks.common import (
    bench_rng,
    bench_seed,
    fast_mode,
    label_figures,
    publish,
)
from repro.experiments.harness import format_table
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.federation.shard import ShardedAggregationService

REPO_ROOT = Path(__file__).parent.parent
SNAPSHOT = REPO_ROOT / "BENCH_shard.json"

#: Real runs used to calibrate per-message root cost.
MEASURED_COUNTS = (16, 64) if fast_mode() else (16, 64, 256)
#: Extrapolated federation sizes (the issue's 1k -> 100k sweep).
PARTY_COUNTS = (1_000, 10_000, 100_000)
KEY_BITS = 256
PHYSICAL_KEY_BITS = 128
VECTOR_SIZE = 8
SEED_STREAM = 83


def measure(num_clients):
    """Run one real sharded round and split ledger cost by layer."""
    seed = bench_seed(SEED_STREAM)
    runtime = FederationRuntime(
        FLBOOSTER_SYSTEM, num_clients=num_clients, key_bits=KEY_BITS,
        physical_key_bits=PHYSICAL_KEY_BITS, seed=seed)
    service = ShardedAggregationService(runtime.aggregator, seed=seed)
    rng = bench_rng(SEED_STREAM + num_clients)
    vectors = [rng.uniform(-0.5, 0.5, size=VECTOR_SIZE)
               for _ in range(num_clients)]
    service.run_round(vectors, round_index=0)

    ledger = runtime.ledger
    shards = len(service.leaves)
    return {
        "parties": num_clients,
        "shards": shards,
        "partial_uploads": ledger.count("comm.partial"),
        "root_partial_seconds": ledger.seconds("comm.partial"),
        "root_decrypt_seconds": ledger.seconds("he.decrypt"),
        "leaf_upload_seconds": ledger.seconds("comm.upload"),
    }


def extrapolate(measured):
    """Model root cost per round for sharded and flat topologies.

    Calibration uses the largest measured run: per-partial root comm
    from ``comm.partial`` and per-upload comm from ``comm.upload``
    (what a flat root would pay to receive every client directly).
    The decrypt term is a flat per-round add-on for both topologies.
    """
    widest = measured[-1]
    per_partial = (widest["root_partial_seconds"]
                   / widest["partial_uploads"])
    per_upload = widest["leaf_upload_seconds"] / widest["parties"]
    decrypt = widest["root_decrypt_seconds"]

    rows = []
    for parties in PARTY_COUNTS:
        shards = math.isqrt(parties - 1) + 1  # ceil(sqrt(parties))
        sharded = per_partial * shards + decrypt
        flat = per_upload * parties + decrypt
        rows.append({
            "parties": parties,
            "shards": shards,
            "modelled_root_seconds": sharded,
            "modelled_flat_root_seconds": flat,
        })
    return rows


def test_bench_shard_root_cost_sublinear(benchmark):
    measured = benchmark.pedantic(
        lambda: [measure(p) for p in MEASURED_COUNTS],
        rounds=1, iterations=1)

    for row in measured:
        # The service defaults to ceil(sqrt(P)) leaves, one partial each.
        assert row["shards"] == math.isqrt(row["parties"] - 1) + 1
        assert row["partial_uploads"] == row["shards"]

    rows = extrapolate(measured)
    root = [row["modelled_root_seconds"] for row in rows]
    flat = [row["modelled_flat_root_seconds"] for row in rows]
    growth = PARTY_COUNTS[-1] / PARTY_COUNTS[0]
    root_growth = root[-1] / root[0]
    flat_growth = flat[-1] / flat[0]

    table = format_table(
        ["Parties", "Shards", "Root (s/round)", "Flat root (s/round)",
         "Speedup"],
        [[f"{row['parties']:,}", row["shards"],
          f"{row['modelled_root_seconds']:.4f}",
          f"{row['modelled_flat_root_seconds']:.4f}",
          f"{row['modelled_flat_root_seconds'] / row['modelled_root_seconds']:.1f}x"]
         for row in rows],
        title="Root-coordinator cost, sharded vs flat (modelled)")
    publish("bench_shard", table)

    snapshot = {
        "benchmark": "shard_root_cost",
        "seed": bench_seed(SEED_STREAM),
        "key_bits": KEY_BITS,
        "physical_key_bits": PHYSICAL_KEY_BITS,
        "vector_size": VECTOR_SIZE,
        "measured": measured,
        "extrapolated": rows,
        "root_cost_growth_1k_to_100k": root_growth,
        "flat_cost_growth_1k_to_100k": flat_growth,
        "party_growth_1k_to_100k": growth,
        "sublinear": root_growth < growth,
    }
    # The "measured" rows are real sharded rounds, but their seconds
    # are the cost ledger's; everything past 256 parties is a fit.
    snapshot = label_figures(snapshot, SEED_STREAM, {
        "measured.parties": "measured",
        "measured.shards": "measured",
        "measured.partial_uploads": "measured",
        "measured.root_partial_seconds": "modelled",
        "measured.root_decrypt_seconds": "modelled",
        "measured.leaf_upload_seconds": "modelled",
        "extrapolated": "extrapolated",
        "root_cost_growth_1k_to_100k": "extrapolated",
        "flat_cost_growth_1k_to_100k": "extrapolated",
        "party_growth_1k_to_100k": "extrapolated",
    })
    SNAPSHOT.write_text(json.dumps(snapshot, indent=2) + "\n")

    # Root cost rises with the federation, but sub-linearly: growing
    # parties 100x grows the sharded root ~sqrt(100x) while the flat
    # root tracks the full 100x.
    assert root == sorted(root)
    assert root_growth < growth, (root_growth, growth)
    assert root_growth < flat_growth
    assert flat_growth > growth * 0.5
