"""Guided end-to-end walkthrough: align, train, evaluate, ship.

Run:  python examples/tutorial_walkthrough.py

A complete vertical-FL engagement on FLBooster, in order:

  1. sample alignment       (blind-RSA PSI)
  2. secure training        (Hetero SBT through the encrypted pipeline)
  3. held-out evaluation    (AUC on unseen users)
  4. persistence            (save / reload the trained model)
  5. cost accounting        (where the modelled time went)
"""

import json
import tempfile
from pathlib import Path


from repro.baselines import FLBOOSTER
from repro.datasets import synthetic_like, train_test_split, vertical_split
from repro.federation import RsaIntersection
from repro.federation.runtime import FederationRuntime
from repro.ledger import CostLedger
from repro.models import HeteroSecureBoost
from repro.models.evaluation import load_model_state, roc_auc, \
    save_model_state


def main() -> None:
    dataset = synthetic_like(instances=400, features=32, seed=13)
    train, test = train_test_split(dataset, test_fraction=0.25, seed=13)

    # 1 -- sample alignment ------------------------------------------
    guest_users = [f"u{i}" for i in range(train.num_instances)]
    host_users = guest_users + [f"stranger{i}" for i in range(50)]
    alignment = RsaIntersection(key_bits=1024, seed=13).run(
        guest_users, host_users)
    print(f"1. PSI: {alignment.intersection_size} shared users of "
          f"{alignment.host_set_size} "
          f"({alignment.modelled_seconds:.2f} s modelled)")

    # 2 -- secure training -------------------------------------------
    model = HeteroSecureBoost(train, max_depth=3, num_bins=8, seed=13)
    runtime = FederationRuntime(FLBOOSTER, num_clients=2, key_bits=1024,
                                physical_key_bits=256,
                                bc_capacity="physical")
    training = CostLedger()                 # every epoch's ledger, merged
    epochs = 8
    for _ in range(epochs):
        ledger = runtime.begin_epoch()
        model.run_epoch(runtime)
        training.merge(ledger)
    print(f"2. trained {epochs} boosting rounds, final loss "
          f"{model.loss():.4f} ({training.total_seconds:.1f} s modelled)")

    # 3 -- held-out evaluation ---------------------------------------
    guest_block, host_block = (part.features for part in vertical_split(
        test, num_parties=2, seed=model.seed))
    scores = model.predict_scores(guest_block, host_block)
    print(f"3. held-out AUC on {test.num_instances} unseen users: "
          f"{roc_auc(scores, test.labels):.3f}")

    # 4 -- persistence -------------------------------------------------
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "sbt_state.json"
        save_model_state(model, path)
        fresh = HeteroSecureBoost(train, max_depth=3, num_bins=8, seed=13)
        load_model_state(fresh, path)
        size = len(json.loads(path.read_text()))
        print(f"4. state saved/reloaded ({path.stat().st_size:,} bytes, "
              f"{size} fields); losses match: "
              f"{abs(fresh.loss() - model.loss()) < 1e-12}")

    # 5 -- cost accounting ---------------------------------------------
    shares = ", ".join(f"{component} {percent:.0f}%" for component, percent
                       in training.component_percentages().items())
    print(f"5. modelled time: {shares}; "
          f"{training.count('gpu.launch')} simulated kernel launches")


if __name__ == "__main__":
    main()
