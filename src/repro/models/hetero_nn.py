"""Heterogeneous neural network (paper's Hetero NN [71]).

A split network over a vertical partition, in the style of FATE's
Hetero NN / GELU-Net:

- the *host* runs a bottom MLP over its features and contributes an
  interactive-layer fragment ``u_h = bottom_h(X_h) @ W_h``;
- the *guest* runs its own bottom MLP, adds the host fragment inside the
  interactive layer ``z = bottom_g(X_g) @ W_g + u_h``, and runs the top
  model (a logistic head) on ``tanh(z)``;
- on the backward pass the guest returns the interactive-layer gradient
  ``dL/du_h`` to the host, which backpropagates through its weights.

The two per-batch cross-party tensors -- the forward fragment and the
backward gradient, each ``batch x INTERACTIVE_DIM`` -- travel through the
encode -> pack -> encrypt -> transfer -> decrypt pipeline, making Hetero
NN the most HE-op-intensive model per instance after SBT, as in the
paper's Fig. 1.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.datasets.generators import Dataset
from repro.datasets.partition import vertical_split
from repro.federation.metrics import charge_model_compute
from repro.federation.runtime import FederationRuntime
from repro.models.base import FederatedModel
from repro.models.losses import sigmoid
from repro.models.optim import AdamOptimizer

#: Bottom-MLP hidden width on each side.
HIDDEN_DIM = 16
#: Width of the encrypted interactive layer.
INTERACTIVE_DIM = 4
#: Adam step size.
LEARNING_RATE = 0.02
#: Weight decay.
L2 = 1e-4


class HeteroNeuralNetwork(FederatedModel):
    """Split neural network between a guest and a host.

    Args:
        dataset: The full dataset (vertically split internally).
        batch_size: Mini-batch size.
        seed: Determinism seed.
    """

    name = "Hetero NN"

    def __init__(self, dataset: Dataset, batch_size: int = 256,
                 seed: int = 0):
        super().__init__(dataset, seed=seed)
        self.batch_size = batch_size
        self._density = max(dataset.density, 1e-6)
        guest, host = vertical_split(dataset, num_parties=2, seed=seed)
        self.guest = guest
        self.host = host

        def xavier(rows: int, cols: int) -> np.ndarray:
            bound = np.sqrt(6.0 / (rows + cols))
            return self.rng.uniform(-bound, bound, size=(rows, cols))

        self.params: Dict[str, np.ndarray] = {
            # Bottom MLPs (tanh keeps interactive inputs bounded).
            "guest_w1": xavier(guest.num_features, HIDDEN_DIM),
            "guest_b1": np.zeros(HIDDEN_DIM),
            "host_w1": xavier(host.num_features, HIDDEN_DIM),
            "host_b1": np.zeros(HIDDEN_DIM),
            # Interactive layer.
            "guest_wi": xavier(HIDDEN_DIM, INTERACTIVE_DIM),
            "host_wi": xavier(HIDDEN_DIM, INTERACTIVE_DIM),
            "bias_i": np.zeros(INTERACTIVE_DIM),
            # Top (logistic head).
            "top_w": xavier(INTERACTIVE_DIM, 1),
            "top_b": np.zeros(1),
        }
        self._optimizers = {
            name: AdamOptimizer(LEARNING_RATE)
            for name in self.params
        }

    # ------------------------------------------------------------------
    # Epoch.
    # ------------------------------------------------------------------

    def run_epoch(self, runtime: FederationRuntime) -> float:
        """One epoch of mini-batch split training."""
        order = self.rng.permutation(self.dataset.num_instances)
        for start in range(0, len(order), self.batch_size):
            batch = order[start:start + self.batch_size]
            self._run_batch(runtime, batch)
        return self.loss()

    def _run_batch(self, runtime: FederationRuntime,
                   batch: np.ndarray) -> None:
        p = self.params
        X_g = self.guest.features[batch]
        X_h = self.host.features[batch]
        y = self.guest.labels[batch]
        m = len(batch)

        # Host bottom forward and interactive fragment.
        a_h = np.tanh(X_h @ p["host_w1"] + p["host_b1"])
        u_h = a_h @ p["host_wi"]
        charge_model_compute(
            runtime.ledger,
            2.0 * (X_h.size * self._density * p["host_w1"].shape[1]
                   / max(m, 1)
                   + a_h.size * INTERACTIVE_DIM / max(m, 1)) * m,
            tag="model.nn.host_forward")
        u_h_received = self.secure_transfer(
            runtime, u_h, sender="host", receiver="guest",
            tag="hetero_nn.forward", scale=4.0)

        # Guest forward through interactive + top layers.
        a_g = np.tanh(X_g @ p["guest_w1"] + p["guest_b1"])
        z_i = a_g @ p["guest_wi"] + u_h_received + p["bias_i"]
        act_i = np.tanh(z_i)
        logits = (act_i @ p["top_w"]).ravel() + p["top_b"][0]
        probabilities = sigmoid(logits)
        charge_model_compute(runtime.ledger,
                             6.0 * X_g.size * self._density,
                             tag="model.nn.guest_forward")

        # Backward (manual autodiff of the split graph).
        d_logits = (probabilities - y)[:, None] / m
        grad_top_w = act_i.T @ d_logits + L2 * p["top_w"]
        grad_top_b = d_logits.sum(axis=0)
        d_act_i = d_logits @ p["top_w"].T
        d_z_i = d_act_i * (1.0 - act_i ** 2)
        grad_bias_i = d_z_i.sum(axis=0)
        grad_guest_wi = a_g.T @ d_z_i + L2 * p["guest_wi"]
        d_a_g = d_z_i @ p["guest_wi"].T
        d_z_g = d_a_g * (1.0 - a_g ** 2)
        grad_guest_w1 = X_g.T @ d_z_g + L2 * p["guest_w1"]
        grad_guest_b1 = d_z_g.sum(axis=0)
        charge_model_compute(runtime.ledger,
                             8.0 * X_g.size * self._density,
                             tag="model.nn.guest_backward")

        # Interactive-layer gradient returns to the host encrypted.
        d_u_h = self.secure_transfer(
            runtime, d_z_i, sender="guest", receiver="host",
            tag="hetero_nn.backward", scale=1.0)

        grad_host_wi = a_h.T @ d_u_h + L2 * p["host_wi"]
        d_a_h = d_u_h @ p["host_wi"].T
        d_z_h = d_a_h * (1.0 - a_h ** 2)
        grad_host_w1 = X_h.T @ d_z_h + L2 * p["host_w1"]
        grad_host_b1 = d_z_h.sum(axis=0)
        charge_model_compute(runtime.ledger,
                             8.0 * X_h.size * self._density,
                             tag="model.nn.host_backward")

        gradients = {
            "guest_w1": grad_guest_w1, "guest_b1": grad_guest_b1,
            "host_w1": grad_host_w1, "host_b1": grad_host_b1,
            "guest_wi": grad_guest_wi, "host_wi": grad_host_wi,
            "bias_i": grad_bias_i,
            "top_w": grad_top_w, "top_b": grad_top_b,
        }
        for name, gradient in gradients.items():
            p[name] = self._optimizers[name].step(p[name], gradient)

    # ------------------------------------------------------------------
    # Scoring.
    # ------------------------------------------------------------------

    @property
    def training_blocks(self):
        """The guest's features, then the host's."""
        return (self.guest.features, self.host.features)

    def _scores(self, guest_features: np.ndarray,
                host_features: np.ndarray) -> np.ndarray:
        p = self.params
        a_g = np.tanh(guest_features @ p["guest_w1"] + p["guest_b1"])
        a_h = np.tanh(host_features @ p["host_w1"] + p["host_b1"])
        z_i = a_g @ p["guest_wi"] + a_h @ p["host_wi"] + p["bias_i"]
        return (np.tanh(z_i) @ p["top_w"]).ravel() + p["top_b"][0]

    def state_dict(self) -> dict:
        """Every parameter array, by name."""
        return dict(self.params)

    def load_state_dict(self, state: dict) -> None:
        self.params = {name: np.asarray(state[name], dtype=np.float64)
                       for name in self.params}
