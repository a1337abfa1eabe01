"""Datasets (paper Sec. VI-A, Table II).

Synthetic replicas of the paper's three evaluation datasets, matching each
one's *shape* -- sparsity pattern, feature-dimension ratios, label balance
-- at a configurable scale, plus the horizontal / vertical partitioners
that produce the homogeneous and heterogeneous federation splits.

- ``rcv1_like``      -- sparse, text-categorization-shaped (RCV1).
- ``avazu_like``     -- very sparse, one-hot CTR-shaped (Avazu).
- ``synthetic_like`` -- the dense LEAF ``synthetic`` generator of Li et
  al. [39], reimplemented from its published recipe.
"""
