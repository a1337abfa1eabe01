"""Simulated GPU substrate (paper Sec. III-C, IV-A2).

The paper runs its homomorphic-encryption kernels on an NVIDIA RTX 3090.
This repository has no GPU, so the package provides a *behavioural
simulation*: the same limb-parallel algorithms are executed (on the CPU,
bit-for-bit), while a calibrated device model charges the time a GPU launch
would take -- transfer in, parallel compute across stream multiprocessors,
transfer out -- following the structure of the paper's Eq. 10.

- :mod:`repro.gpu.device` -- the device description (SMs, warps, registers,
  memory) and running sums of the launches' prices.
- :mod:`repro.gpu.resource_manager` -- the paper's GPU resource manager:
  block-size selection, register budgeting, branch combining, and the
  memory table's launch latency; also the source of the SM-utilization
  numbers in Fig. 6.
- :mod:`repro.gpu.cost_model` -- the hardware time model (Eq. 10).
- :mod:`repro.gpu.kernels` -- batched big-integer kernels (mod_mul,
  mod_pow, encrypt/decrypt primitives) used by the GPU HE engine.
"""
