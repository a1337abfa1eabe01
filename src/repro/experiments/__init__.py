"""Experiment harness (paper Sec. VI).

Shared machinery behind ``benchmarks/``: scaled dataset construction,
model factories, per-epoch measurement under a system configuration, HE
throughput microbenchmarks and SM-utilization sweeps.  Every table and
figure benchmark is a thin formatter over these functions.
"""

from repro.experiments.harness import (
    physical_key_for,
    DEFAULT_PHYSICAL_KEY_BITS,
    SCALED_DATASET_SPECS,
    scaled_dataset,
    build_model,
    run_epoch_experiment,
    run_training,
    RecoveryResult,
    TrainingCheckpoint,
    he_throughput,
    sm_utilization,
    format_table,
)

__all__ = [
    "DEFAULT_PHYSICAL_KEY_BITS",
    "SCALED_DATASET_SPECS",
    "physical_key_for",
    "scaled_dataset",
    "build_model",
    "run_epoch_experiment",
    "run_training",
    "RecoveryResult",
    "TrainingCheckpoint",
    "he_throughput",
    "sm_utilization",
    "format_table",
]
