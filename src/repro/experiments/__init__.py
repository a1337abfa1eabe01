"""Experiment harness (paper Sec. VI).

Shared machinery behind ``benchmarks/``: scaled dataset construction,
model factories, per-epoch measurement under a system configuration, HE
throughput microbenchmarks and SM-utilization sweeps.  Every table and
figure benchmark is a thin formatter over these functions.
"""
