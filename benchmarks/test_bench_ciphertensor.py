"""CipherTensor fusion micro-bench: fused vs unfused Homo-LR epoch.

The lazy CipherTensor planner coalesces the per-round aggregation of N
client deltas into ceil(log2 N) level-wise ``add_batch`` launches; the
eager path issues N-1 pair-at-a-time additions.  Both reduce the same
Paillier ciphertexts with commutative modular multiplications, so the
decrypted model must come out bit-identical -- the fusion win is pure
launch count (and the modelled seconds it drags along).

Emits ``benchmarks/results/BENCH_ciphertensor.json`` alongside the
usual text table.
"""

import json

import numpy as np

from benchmarks.common import RESULTS_DIR, bench_seed, label_figures, publish
from repro.datasets.generators import synthetic_like
from repro.experiments.harness import format_table
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.models.homo_lr import HomoLogisticRegression

NUM_CLIENTS = 8
KEY_BITS = 1024
PHYSICAL_KEY_BITS = 256
SEED_STREAM = 0


def run_mode(fused: bool) -> dict:
    """One Homo-LR epoch under the given aggregation mode."""
    dataset = synthetic_like(instances=256, features=32, seed=3)
    model = HomoLogisticRegression(dataset, num_clients=NUM_CLIENTS,
                                   batch_size=64, rounds_per_epoch=2,
                                   seed=3)
    runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=NUM_CLIENTS,
                                key_bits=KEY_BITS,
                                physical_key_bits=PHYSICAL_KEY_BITS,
                                seed=bench_seed(SEED_STREAM), fused=fused)
    ledger = runtime.begin_epoch()
    loss = model.run_epoch(runtime)
    return {
        "fused": fused,
        "gpu_launches": ledger.count("gpu.launch"),
        "server_device_launches":
            runtime.server_engine.kernels.device.launches,
        "he_add_ops": ledger.count("he.add"),
        "modelled_seconds": ledger.total_seconds,
        "loss": loss,
        "weights": model.weights,
    }


def collect():
    return {"fused": run_mode(fused=True),
            "eager": run_mode(fused=False)}


def test_bench_ciphertensor(benchmark):
    results = benchmark.pedantic(collect, rounds=1, iterations=1)
    fused, eager = results["fused"], results["eager"]

    # The acceptance bar: strictly fewer simulated-GPU launches at
    # identical decrypted outputs.
    assert fused["gpu_launches"] < eager["gpu_launches"]
    assert fused["server_device_launches"] < \
        eager["server_device_launches"]
    assert np.array_equal(fused["weights"], eager["weights"])
    assert fused["loss"] == eager["loss"]

    rows = []
    for label, stats in (("fused", fused), ("eager", eager)):
        rows.append([label, f"{stats['gpu_launches']:,}",
                     f"{stats['server_device_launches']:,}",
                     f"{stats['he_add_ops']:,}",
                     f"{stats['modelled_seconds']:.3f}",
                     f"{stats['loss']:.6f}"])
    table = format_table(
        ["Mode", "gpu.launch count", "Server device launches",
         "he.add ops", "Modelled seconds", "Epoch loss"], rows)
    header = (f"CipherTensor fusion: Homo LR epoch, Synthetic, "
              f"{NUM_CLIENTS} clients, {KEY_BITS}-bit keys\n")
    publish("bench_ciphertensor", header + table)

    def serializable(stats):
        return {key: value for key, value in stats.items()
                if key != "weights"}

    payload = {
        "benchmark": "ciphertensor_fusion",
        "model": "Homo LR",
        "dataset": "Synthetic",
        "num_clients": NUM_CLIENTS,
        "key_bits": KEY_BITS,
        "physical_key_bits": PHYSICAL_KEY_BITS,
        "fused": serializable(fused),
        "eager": serializable(eager),
        "launch_reduction":
            eager["gpu_launches"] / max(fused["gpu_launches"], 1),
        "identical_outputs":
            bool(np.array_equal(fused["weights"], eager["weights"])),
    }
    # Launches, adds and the loss are counted off the real epochs; the
    # seconds are the cost ledger's.
    kinds = {"launch_reduction": "measured"}
    for mode in ("fused", "eager"):
        kinds.update({f"{mode}.{name}": "measured" for name in (
            "gpu_launches", "server_device_launches", "he_add_ops", "loss")})
        kinds[f"{mode}.modelled_seconds"] = "modelled"
    payload = label_figures(payload, SEED_STREAM, kinds)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_ciphertensor.json").write_text(
        json.dumps(payload, indent=2) + "\n")
