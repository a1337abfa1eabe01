"""Heterogeneous SecureBoost (paper's Hetero SBT [17]).

Vertical gradient boosting: the guest holds the labels and some features,
the host holds the remaining features.  One training epoch builds one
boosting tree:

1. the guest computes first/second-order gradients ``(g, h)`` from the
   current scores and ships them through the encrypted pipeline to the
   host (the SecureBoost gradient broadcast);
2. level by level, the host builds per-feature, per-bin ``(G, H)``
   histograms over its candidate splits and ships the histogram tensor
   back through the encrypted pipeline (SecureBoost's aggregated split
   statistics; cipher compression applies here in SecureBoost+ [16]);
3. the guest evaluates the XGBoost split gain for every candidate (its
   own features in plaintext, the host's from the received histograms),
   picks the winner, and instructs the host with a tiny plaintext message
   which instances go left;
4. leaves get the Newton weight ``-G / (H + lambda)``, and scores update
   with shrinkage.

Gradients, histograms, split decisions and leaf weights are all real, so
quantization error shifts split choices exactly the way the paper's
convergence-bias experiment probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.datasets.generators import Dataset
from repro.datasets.partition import vertical_split
from repro.federation.channel import Message
from repro.federation.metrics import charge_model_compute
from repro.federation.runtime import FederationRuntime
from repro.models.base import FederatedModel
from repro.models.losses import gbdt_gradients

#: Shrinkage applied to leaf weights.
LEARNING_RATE = 0.3
#: L2 regularization on leaf weights.
REG_LAMBDA = 1.0
#: Fewest instances a child keeps for its parent to split.
MIN_CHILD_INSTANCES = 8


@dataclass
class _TreeNode:
    """One node of a (vertical) boosting tree."""

    instances: np.ndarray
    party: Optional[str] = None          # "guest" or "host" once split
    feature: int = -1                    # feature index within the party
    threshold_bin: int = -1
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _bin(features: np.ndarray, edges: List[np.ndarray]) -> np.ndarray:
    """Each value's bin: how many of its column's cut points are <= it."""
    bins = np.zeros_like(features, dtype=np.int32)
    for column, cuts in enumerate(edges):
        bins[:, column] = np.searchsorted(cuts, features[:, column],
                                          side="right")
    return bins


#: A node-table row's party code; code 0 marks a leaf.
_PARTIES = (None, "guest", "host")


def _node_rows(node: _TreeNode) -> Iterator[tuple]:
    """The subtree's node-table rows in preorder: a node's row ``(party
    code, feature, threshold bin, weight)``, then its left subtree's rows,
    then its right's."""
    yield (_PARTIES.index(node.party), node.feature, node.threshold_bin,
           node.weight)
    if not node.is_leaf:
        yield from _node_rows(node.left)
        yield from _node_rows(node.right)


def _subtree(rows: Iterator[np.ndarray]) -> _TreeNode:
    """Rebuild the subtree whose :func:`_node_rows` ``rows`` yields next."""
    party, feature, threshold_bin, weight = next(rows)
    node = _TreeNode(instances=np.arange(0), party=_PARTIES[int(party)],
                     feature=int(feature), threshold_bin=int(threshold_bin),
                     weight=float(weight))
    if node.party is not None:
        node.left = _subtree(rows)
        node.right = _subtree(rows)
    return node


class HeteroSecureBoost(FederatedModel):
    """Vertical secure gradient boosting (one tree per epoch).

    Args:
        dataset: The full dataset (vertically split internally).
        max_depth: Tree depth (levels of splits).
        num_bins: Histogram bins per feature.
        seed: Determinism seed.
    """

    name = "Hetero SBT"

    def __init__(self, dataset: Dataset, max_depth: int = 3,
                 num_bins: int = 8, seed: int = 0):
        super().__init__(dataset, seed=seed)
        self.max_depth = max_depth
        self.num_bins = num_bins
        guest, host = vertical_split(dataset, num_parties=2, seed=seed)
        self.guest = guest
        self.host = host
        self._density = max(dataset.density, 1e-6)
        self.scores = np.zeros(dataset.num_instances)
        #: Root of each fitted tree; rows are routed by their bins under
        #: the model's edges.
        self.trees: List[_TreeNode] = []
        self._guest_bins, self._guest_edges = self._bin_features(
            guest.features)
        self._host_bins, self._host_edges = self._bin_features(host.features)

    # ------------------------------------------------------------------
    # Epoch = one boosting round.
    # ------------------------------------------------------------------

    def run_epoch(self, runtime: FederationRuntime) -> float:
        """Build one tree from securely exchanged gradients."""
        g, h = gbdt_gradients(self.scores, self.guest.labels)
        charge_model_compute(runtime.ledger, 6.0 * len(g),
                             tag="model.sbt.gradients")

        # (1) Gradient broadcast guest -> host through the HE pipeline.
        transferred = self.secure_transfer(
            runtime, np.concatenate([g, h]), sender="guest",
            receiver="host", tag="sbt.gradients")
        host_g = transferred[:len(g)]
        host_h = transferred[len(g):]

        root = _TreeNode(instances=np.arange(self.dataset.num_instances))
        level = [root]
        for _ in range(self.max_depth):
            next_level: List[_TreeNode] = []
            splittable = [node for node in level
                          if len(node.instances) >= 2 * MIN_CHILD_INSTANCES]
            if not splittable:
                break
            # (2) Host histograms for this whole level, one transfer.
            host_histograms = self._host_level_histograms(
                runtime, splittable, host_g, host_h)
            for node_index, node in enumerate(splittable):
                children = self._split_node(
                    runtime, node, g, h, host_histograms[node_index])
                next_level.extend(children)
            level = next_level
            if not level:
                break

        self._finalize_leaves(root, g, h)
        self.trees.append(root)
        self.scores = self.scores + LEARNING_RATE * self._walk(
            root, self._guest_bins, self._host_bins)
        return self.loss()

    # ------------------------------------------------------------------
    # Histogram machinery.
    # ------------------------------------------------------------------

    def _bin_features(self, features: np.ndarray):
        """Quantile binning; returns (bin indices, edges per feature)."""
        quantiles = np.linspace(0, 1, self.num_bins + 1)[1:-1]
        edges = [np.unique(np.quantile(features[:, column], quantiles))
                 for column in range(features.shape[1])]
        return _bin(features, edges), edges

    def _histograms(self, bins: np.ndarray, instances: np.ndarray,
                    g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """(features, bins, 2) tensor of G/H sums over ``instances``."""
        node_bins = bins[instances]
        num_features = bins.shape[1]
        out = np.zeros((num_features, self.num_bins, 2))
        g_node = g[instances]
        h_node = h[instances]
        for feature in range(num_features):
            idx = node_bins[:, feature]
            out[feature, :, 0] = np.bincount(
                idx, weights=g_node, minlength=self.num_bins)[:self.num_bins]
            out[feature, :, 1] = np.bincount(
                idx, weights=h_node, minlength=self.num_bins)[:self.num_bins]
        return out

    def _host_level_histograms(self, runtime: FederationRuntime,
                               nodes: List[_TreeNode], host_g: np.ndarray,
                               host_h: np.ndarray) -> List[np.ndarray]:
        """Host builds and securely returns histograms for a tree level."""
        tensors = []
        total_values = 0
        for node in nodes:
            tensor = self._histograms(self._host_bins, node.instances,
                                      host_g, host_h)
            tensors.append(tensor)
            total_values += tensor.size
        charge_model_compute(
            runtime.ledger,
            2.0 * sum(len(n.instances) for n in nodes)
            * self._host_bins.shape[1] * self._density,
            tag="model.sbt.host_histograms")
        flat = np.concatenate([t.ravel() for t in tensors])
        # Histogram sums scale with the node size; normalize into the
        # quantization range and restore at the guest.
        scale = max(float(np.max(np.abs(flat))), 1.0)
        received = self.secure_transfer(
            runtime, flat, sender="host", receiver="guest",
            tag="sbt.histograms", scale=scale)
        out: List[np.ndarray] = []
        cursor = 0
        for tensor in tensors:
            out.append(received[cursor:cursor + tensor.size]
                       .reshape(tensor.shape))
            cursor += tensor.size
        return out

    # ------------------------------------------------------------------
    # Split search.
    # ------------------------------------------------------------------

    def _gain(self, g_left: float, h_left: float, g_total: float,
              h_total: float) -> float:
        """XGBoost split gain (up to the constant gamma)."""
        g_right = g_total - g_left
        h_right = h_total - h_left

        def score(g_sum: float, h_sum: float) -> float:
            return g_sum * g_sum / (h_sum + REG_LAMBDA)

        return 0.5 * (score(g_left, h_left) + score(g_right, h_right)
                      - score(g_total, h_total))

    def _best_split(self, histogram: np.ndarray):
        """Best (feature, bin, gain) over one party's histogram tensor."""
        g_totals = histogram[:, :, 0].sum(axis=1)
        h_totals = histogram[:, :, 1].sum(axis=1)
        best = (-np.inf, -1, -1)
        for feature in range(histogram.shape[0]):
            g_cum = np.cumsum(histogram[feature, :-1, 0])
            h_cum = np.cumsum(histogram[feature, :-1, 1])
            for bin_index in range(len(g_cum)):
                gain = self._gain(float(g_cum[bin_index]),
                                  float(h_cum[bin_index]),
                                  float(g_totals[feature]),
                                  float(h_totals[feature]))
                if gain > best[0]:
                    best = (gain, feature, bin_index)
        return best

    def _split_node(self, runtime: FederationRuntime, node: _TreeNode,
                    g: np.ndarray, h: np.ndarray,
                    host_histogram: np.ndarray) -> List[_TreeNode]:
        """Choose guest-vs-host split for one node; returns children."""
        guest_histogram = self._histograms(self._guest_bins, node.instances,
                                           g, h)
        charge_model_compute(
            runtime.ledger,
            2.0 * len(node.instances) * self._guest_bins.shape[1]
            * self._density,
            tag="model.sbt.guest_histograms")
        guest_gain, guest_feature, guest_bin = self._best_split(
            guest_histogram)
        host_gain, host_feature, host_bin = self._best_split(host_histogram)

        if max(guest_gain, host_gain) <= 1e-12:
            return []
        if guest_gain >= host_gain:
            node.party = "guest"
            node.feature = guest_feature
            node.threshold_bin = guest_bin
            go_left = self._guest_bins[node.instances, guest_feature] \
                <= guest_bin
        else:
            node.party = "host"
            node.feature = host_feature
            node.threshold_bin = host_bin
            # The guest tells the host which (feature, bin) won; the host
            # answers with the membership bitmap: a tiny plaintext
            # exchange (SecureBoost's split-info message).
            runtime.channel.send(Message(
                sender="guest", receiver="host", tag="sbt.split_info",
                payload=(host_feature, host_bin),
                plaintext_bytes=16 + len(node.instances) // 8))
            go_left = self._host_bins[node.instances, host_feature] \
                <= host_bin

        left_idx = node.instances[go_left]
        right_idx = node.instances[~go_left]
        if len(left_idx) < MIN_CHILD_INSTANCES or \
                len(right_idx) < MIN_CHILD_INSTANCES:
            node.party = None
            node.feature = -1
            node.threshold_bin = -1
            return []
        node.left = _TreeNode(instances=left_idx)
        node.right = _TreeNode(instances=right_idx)
        return [node.left, node.right]

    # ------------------------------------------------------------------
    # Leaves and scoring.
    # ------------------------------------------------------------------

    def _finalize_leaves(self, root: _TreeNode, g: np.ndarray,
                         h: np.ndarray) -> None:
        """Assign Newton weights ``-G / (H + lambda)`` to every leaf."""
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                g_sum = float(g[node.instances].sum())
                h_sum = float(h[node.instances].sum())
                node.weight = -g_sum / (h_sum + REG_LAMBDA)
            else:
                stack.extend([node.left, node.right])

    def _walk(self, root: _TreeNode, guest_bins: np.ndarray,
              host_bins: np.ndarray) -> np.ndarray:
        """Route every row of the parties' bin blocks to its leaf weight."""
        predictions = np.zeros(len(guest_bins))
        stack = [(root, np.arange(len(guest_bins)))]
        while stack:
            node, instances = stack.pop()
            if node.is_leaf:
                predictions[instances] = node.weight
                continue
            bins = guest_bins if node.party == "guest" else host_bins
            go_left = bins[instances, node.feature] <= node.threshold_bin
            stack.append((node.left, instances[go_left]))
            stack.append((node.right, instances[~go_left]))
        return predictions

    @property
    def training_blocks(self):
        """The guest's features, then the host's."""
        return (self.guest.features, self.host.features)

    def _scores(self, guest_features: np.ndarray,
                host_features: np.ndarray) -> np.ndarray:
        """Ensemble scores: rows are binned by the training edges and go
        through the same walk as training, so a training row scores
        exactly its entry of :attr:`scores`."""
        guest_bins = _bin(guest_features, self._guest_edges)
        host_bins = _bin(host_features, self._host_edges)
        scores = np.zeros(len(guest_bins))
        for root in self.trees:
            scores += LEARNING_RATE * self._walk(root, guest_bins,
                                                 host_bins)
        return scores

    # ------------------------------------------------------------------
    # Learnable state.
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Training scores plus each tree's node table (``tree.<i>``, the
        rows of :func:`_node_rows`).  Bin edges are rebuilt from the data,
        so they are not state."""
        state = {"scores": self.scores}
        for index, root in enumerate(self.trees):
            state[f"tree.{index}"] = np.array(list(_node_rows(root)),
                                              dtype=np.float64)
        return state

    def load_state_dict(self, state: dict) -> None:
        self.scores = np.asarray(state["scores"], dtype=np.float64)
        # Every entry but the scores is a tree's node table.
        self.trees = [
            _subtree(iter(np.asarray(state[f"tree.{index}"],
                                     dtype=np.float64)))
            for index in range(len(state) - 1)]
