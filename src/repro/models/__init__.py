"""The four benchmark FL models (paper Sec. VI-A).

- :mod:`repro.models.homo_lr` -- homogeneous logistic regression [28]:
  horizontal split, FedAvg-style secure gradient aggregation.
- :mod:`repro.models.hetero_lr` -- heterogeneous logistic regression [11]:
  vertical split, encrypted forward-sum / residual exchange.
- :mod:`repro.models.hetero_sbt` -- heterogeneous SecureBoost [17]:
  vertical gradient boosting with encrypted gradient/histogram exchange.
- :mod:`repro.models.hetero_nn` -- heterogeneous neural network [71]:
  split network with an encrypted interactive layer.

All models run their numerics for real (losses are genuine) and route
every cross-party tensor through the secure pipeline
(encode -> pack -> encrypt -> transfer -> decrypt), so HE-operation and
communication counts respond to the system configuration exactly as the
paper's do.  DESIGN.md documents where the cipher-domain per-element
computations of the original vertical protocols are replaced by
masked-transfer equivalents with matching operation counts.
"""
