"""Heterogeneous (vertical) logistic regression (paper's Hetero LR [11]).

Two parties share the sample space and split the features: the *guest*
holds the labels, the *host* holds only features.  Training uses the
Taylor-linearized protocol of Hardy et al.:

1. the host computes its forward fragment ``u_h = X_h w_h`` and sends
   ``0.25 u_h`` through the encrypted pipeline to the guest;
2. the guest forms the linearized residual
   ``d = 0.25 (u_g + u_h) - 0.5 (2y - 1)`` and sends it back through the
   encrypted pipeline;
3. each party computes its local gradient ``X^T d / m`` and updates.

Both cross-party tensors (forward fragments, residuals) travel encrypted
and quantized, so batch compression and GPU HE accelerate exactly these
legs.  DESIGN.md records the protocol simplification relative to FATE
(the host receives the decrypted residual instead of computing its
gradient in the ciphertext domain; operation and transfer counts per
batch are identical, per-element ciphertext scalar products are not
modelled).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.generators import Dataset
from repro.datasets.partition import vertical_split
from repro.federation.metrics import charge_model_compute
from repro.federation.runtime import FederationRuntime
from repro.models.base import FederatedModel
from repro.models.losses import logistic_loss, taylor_gradient
from repro.models.optim import AdamOptimizer

#: Adam step size.
LEARNING_RATE = 0.15
#: L2 penalty (the paper's 0.01).
L2 = 0.01


class HeteroLogisticRegression(FederatedModel):
    """Vertical logistic regression between a guest and >= 1 hosts.

    Args:
        dataset: The full dataset (vertically split internally).
        batch_size: Mini-batch size (paper default 1024).
        num_hosts: Feature-holding parties besides the guest (FATE's
            multi-host vertical setting).
        seed: Determinism seed.
    """

    name = "Hetero LR"

    def __init__(self, dataset: Dataset, batch_size: int = 256,
                 num_hosts: int = 1, seed: int = 0):
        super().__init__(dataset, seed=seed)
        if num_hosts < 1:
            raise ValueError("need at least one host")
        self.batch_size = batch_size
        self._density = max(dataset.density, 1e-6)
        parties = vertical_split(dataset, num_parties=1 + num_hosts,
                                 seed=seed)
        self.guest = parties[0]
        self.hosts = parties[1:]
        self.guest_weights = np.zeros(self.guest.num_features)
        self.host_weights = [np.zeros(host.num_features)
                             for host in self.hosts]
        self._guest_optimizer = AdamOptimizer(LEARNING_RATE)
        self._host_optimizers = [AdamOptimizer(LEARNING_RATE)
                                 for _ in self.hosts]

    @property
    def host(self):
        """The first host's partition (two-party convenience)."""
        return self.hosts[0]

    def run_epoch(self, runtime: FederationRuntime) -> float:
        """One epoch of mini-batch vertical updates."""
        order = self.rng.permutation(self.dataset.num_instances)
        for start in range(0, len(order), self.batch_size):
            batch = order[start:start + self.batch_size]
            self._run_batch(runtime, batch)
        return self.loss()

    def _run_batch(self, runtime: FederationRuntime,
                   batch: np.ndarray) -> None:
        X_g = self.guest.features[batch]
        y = self.guest.labels[batch]

        # (1) Each host's forward fragment, pre-scaled by the Taylor 0.25
        # so the guest-side combination stays purely additive.
        u_hosts_received = []
        for index, host in enumerate(self.hosts):
            X_h = host.features[batch]
            u_host = X_h @ self.host_weights[index]
            charge_model_compute(
                runtime.ledger, 2.0 * X_h.size * self._density,
                tag="model.hetero_lr.host_fwd")
            u_hosts_received.append(self.secure_transfer(
                runtime, 0.25 * u_host, sender=f"host-{index}",
                receiver="guest", tag="hetero_lr.forward"))

        # (2) Guest residual (Taylor-linearized fore-gradient).
        u_guest = X_g @ self.guest_weights
        charge_model_compute(
            runtime.ledger, 2.0 * X_g.size * self._density,
            tag="model.hetero_lr.guest_fwd")
        residual = (np.sum(u_hosts_received, axis=0)
                    + 0.25 * u_guest - 0.5 * (2.0 * y - 1.0))

        # (3) The residual returns to every host; gradients are local.
        guest_gradient = taylor_gradient(X_g, residual,
                                         weights=self.guest_weights,
                                         l2=L2)
        self.guest_weights = self._guest_optimizer.step(
            self.guest_weights, guest_gradient)
        for index, host in enumerate(self.hosts):
            residual_received = self.secure_transfer(
                runtime, residual, sender="guest",
                receiver=f"host-{index}", tag="hetero_lr.residual")
            X_h = host.features[batch]
            host_gradient = taylor_gradient(X_h, residual_received,
                                            weights=self.host_weights[index],
                                            l2=L2)
            charge_model_compute(
                runtime.ledger, 2.0 * X_h.size * self._density,
                tag="model.hetero_lr.gradients")
            self.host_weights[index] = self._host_optimizers[index].step(
                self.host_weights[index], host_gradient)
        charge_model_compute(runtime.ledger,
                             2.0 * X_g.size * self._density,
                             tag="model.hetero_lr.gradients")

    @property
    def training_blocks(self):
        """The guest's features, then each host's."""
        return (self.guest.features,
                *(host.features for host in self.hosts))

    def _scores(self, guest_features: np.ndarray,
                *host_features: np.ndarray) -> np.ndarray:
        logits = guest_features @ self.guest_weights
        for block, weights in zip(host_features, self.host_weights):
            logits = logits + block @ weights
        return logits

    def state_dict(self) -> dict:
        """Guest weights plus each host's (``host_weights.<index>``)."""
        state = {"guest_weights": self.guest_weights}
        for index, weights in enumerate(self.host_weights):
            state[f"host_weights.{index}"] = weights
        return state

    def load_state_dict(self, state: dict) -> None:
        self.guest_weights = np.asarray(state["guest_weights"],
                                        dtype=np.float64)
        self.host_weights = [
            np.asarray(state[f"host_weights.{index}"], dtype=np.float64)
            for index in range(len(self.hosts))]

    def loss(self) -> float:
        """Global training loss, with the L2 penalty on every party's
        weights."""
        joint_weights = np.concatenate([self.guest_weights,
                                        *self.host_weights])
        return logistic_loss(self.predict_scores(*self.training_blocks),
                             self.dataset.labels, weights=joint_weights,
                             l2=L2)
