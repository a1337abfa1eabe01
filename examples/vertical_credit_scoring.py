"""Vertical FL scenario: a bank and an ad platform score jointly.

Run:  python examples/vertical_credit_scoring.py

The paper's motivating industrial setting: two organizations share the
same users but hold disjoint features (the bank holds labels + financial
features, the platform holds behavioural features).  They train a
Hetero LR and a Hetero SBT over the encrypted-exchange protocols and
compare against each party modelling alone -- the joint model should win,
which is the whole point of federating.
"""

import numpy as np

from repro.federation.intersection import RsaIntersection
from repro.datasets.generators import synthetic_like
from repro.datasets.partition import vertical_split
from repro.federation.runtime import FLBOOSTER_SYSTEM, FederationRuntime
from repro.models.hetero_lr import HeteroLogisticRegression
from repro.models.hetero_sbt import HeteroSecureBoost
from repro.models.losses import logistic_gradient
from repro.models.optim import AdamOptimizer


def train_solo(features, labels, epochs=40):
    """A party training alone on its own feature block."""
    weights = np.zeros(features.shape[1])
    optimizer = AdamOptimizer(learning_rate=0.1)
    for _ in range(epochs):
        gradient = logistic_gradient(features, features @ weights, labels,
                                     weights=weights, l2=0.01)
        weights = optimizer.step(weights, gradient)
    logits = features @ weights
    return float(np.mean((logits > 0) == labels))


def main() -> None:
    # Continuous feature aggregates (spend ratios, activity scores) --
    # the typical cross-silo credit-scoring feature shape.
    dataset = synthetic_like(instances=512, features=64, seed=11)
    bank, platform = vertical_split(dataset, num_parties=2, seed=11)

    # Step 0: sample alignment.  The parties privately intersect their
    # user lists (RSA blind-signature PSI, FATE's ``intersect`` step)
    # before any vertical training can start.
    bank_users = [f"user-{i:05d}" for i in range(dataset.num_instances)]
    platform_users = [f"user-{i:05d}"
                      for i in range(dataset.num_instances + 128)]
    psi = RsaIntersection(key_bits=1024, seed=11)
    alignment = psi.run(bank_users, platform_users)
    print(f"sample alignment (blind-RSA PSI): bank holds "
          f"{alignment.guest_set_size} users, platform "
          f"{alignment.host_set_size}; intersection "
          f"{alignment.intersection_size} "
          f"({alignment.modelled_seconds:.2f} s modelled)")

    print(f"shared users: {dataset.num_instances}, "
          f"bank features: {bank.num_features}, "
          f"platform features: {platform.num_features}\n")

    bank_solo = train_solo(bank.features, dataset.labels)
    platform_solo = train_solo(platform.features, dataset.labels)
    print(f"bank alone      : {bank_solo:.1%} accuracy")
    print(f"platform alone  : {platform_solo:.1%} accuracy "
          f"(it never sees labels in the federation -- this is the\n"
          f"                   hypothetical centralized upper bound "
          f"for its features)\n")

    for model_cls, kwargs in ((HeteroLogisticRegression,
                               dict(batch_size=128)),
                              (HeteroSecureBoost,
                               dict(max_depth=3, num_bins=8))):
        model = model_cls(dataset, seed=11, **kwargs)
        runtime = FederationRuntime(FLBOOSTER_SYSTEM, num_clients=2,
                                    key_bits=1024, physical_key_bits=256,
                                    bc_capacity="physical")
        total_seconds = 0.0
        epochs = 10
        for _ in range(epochs):
            ledger = runtime.begin_epoch()
            model.run_epoch(runtime)
            total_seconds += ledger.total_seconds
        print(f"{model.name} (federated, encrypted exchanges):")
        print(f"  accuracy            : {model.accuracy():.1%}")
        print(f"  loss                : {model.loss():.4f}")
        print(f"  modelled train time : {total_seconds:.1f} s "
              f"({epochs} epochs under FLBooster)")
        best_solo = max(bank_solo, platform_solo)
        gain = model.accuracy() - best_solo
        print(f"  vs best solo party  : {gain:+.1%}\n")


if __name__ == "__main__":
    main()
