"""Shared helpers for the table/figure benchmarks.

Every benchmark prints its reproduced table to stdout (visible with
``pytest -s``) and writes it to ``benchmarks/results/<name>.txt`` so the
output survives pytest's capture.  EXPERIMENTS.md summarizes the
paper-versus-measured comparison these files feed.
"""

from __future__ import annotations

import os
import platform
import random
import subprocess
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

#: What a snapshot figure is: timed on this host's wall clock or
#: counted off a real run (``measured``), charged by the cost ledger on
#: the virtual clock (``modelled``), or fitted from smaller runs
#: (``extrapolated``).
FIGURE_KINDS = ("measured", "modelled", "extrapolated")

#: Key sizes swept by the paper.
KEY_SIZES = (1024, 2048, 4096)

#: The evaluation grid.
MODELS = ("Homo LR", "Hetero LR", "Hetero SBT", "Hetero NN")
DATASETS = ("RCV1", "Avazu", "Synthetic")


def master_seed() -> int:
    """The one seed every benchmark RNG derives from.

    Defaults to 0 so the derived streams equal the historical hardcoded
    seeds; set ``REPRO_TEST_SEED`` to shift every stream at once.
    """
    return int(os.environ.get("REPRO_TEST_SEED", "0"))


def bench_seed(stream: int) -> int:
    """Combine the master seed with a per-benchmark stream id."""
    return master_seed() * 1_000_003 + stream


def bench_rng(stream: int):
    """A numpy Generator on the given stream of the master seed."""
    import numpy as np
    return np.random.default_rng(bench_seed(stream))


def bench_random(stream: int) -> random.Random:
    """A stdlib Random on the given stream of the master seed."""
    return random.Random(bench_seed(stream))


def fast_mode() -> bool:
    """True when REPRO_BENCH_FAST=1 trims sweeps to a subset."""
    return os.environ.get("REPRO_BENCH_FAST", "") == "1"


def bench_key_sizes() -> tuple:
    """Key sizes to sweep (trimmed in fast mode)."""
    return (1024,) if fast_mode() else KEY_SIZES


def bench_models() -> tuple:
    """Models to sweep (trimmed in fast mode)."""
    return ("Homo LR", "Hetero LR") if fast_mode() else MODELS


def bench_datasets() -> tuple:
    """Datasets to sweep (trimmed in fast mode)."""
    return ("Synthetic",) if fast_mode() else DATASETS


def publish(name: str, text: str) -> None:
    """Print a reproduced table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def provenance(stream: int) -> dict:
    """Seed, commit and host of a root ``BENCH_*.json`` snapshot."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT,
            check=True, capture_output=True, text=True,
            timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": bench_seed(stream),
        "commit": commit,
        "host": f"{platform.machine()} {platform.system()}, "
                f"{os.cpu_count()} cpus, python "
                f"{platform.python_version()}",
    }


def _leaves(node, path=()):
    """``(dotted path, value)`` of every leaf; list positions dropped."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for value in node:
            yield from _leaves(value, path)
    else:
        yield ".".join(path), node


def label_figures(snapshot: dict, stream: int, kinds: dict,
                  inputs: tuple = ()) -> dict:
    """Tag every figure of a snapshot ``measured | modelled |
    extrapolated`` and stamp it with seed / commit / host.

    ``kinds`` maps a figure's dotted path (list positions dropped, a
    path prefix labels everything below it) to its kind; ``inputs``
    names the sections that hold workload parameters, not results.
    Every other float must be covered -- a new number cannot land
    unlabelled -- and every label must name something present.
    """
    def covers(label: str, path: str) -> bool:
        return path == label or path.startswith(label + ".")

    paths = dict(_leaves(snapshot))
    for label, kind in kinds.items():
        if kind not in FIGURE_KINDS:
            raise ValueError(f"{label}: unknown figure kind {kind!r}")
        if not any(covers(label, path) for path in paths):
            raise ValueError(f"{label} labels nothing in the snapshot")
    for path, value in paths.items():
        if isinstance(value, float) and not any(
                covers(label, path) for label in (*kinds, *inputs)):
            raise ValueError(f"figure {path} has no kind label")
    return {**snapshot, "provenance": provenance(stream), "kinds": kinds}
