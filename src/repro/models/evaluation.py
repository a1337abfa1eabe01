"""Evaluation metrics and model persistence.

Metrics beyond the paper's training loss (ROC AUC, accuracy at a score
threshold) plus JSON persistence of any model's learnable state, so
trained federated models can be shipped to serving.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.federation.wal import replace_durably


def binary_accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct sign predictions (a positive score is 1)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must share a shape")
    return float(np.mean((scores > 0.0) == labels))


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic.

    AUC = (mean rank of positives - (P + 1) / 2) / N, the Mann-Whitney
    identity; ties get average ranks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must share a shape")
    positives = int(labels.sum())
    negatives = len(labels) - positives
    if positives == 0 or negatives == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    # Average ranks over ties.
    index = 0
    position = 1.0
    while index < len(sorted_scores):
        tie_end = index
        while tie_end + 1 < len(sorted_scores) and \
                sorted_scores[tie_end + 1] == sorted_scores[index]:
            tie_end += 1
        average_rank = (position + position + (tie_end - index)) / 2.0
        ranks[order[index:tie_end + 1]] = average_rank
        position += tie_end - index + 1
        index = tie_end + 1
    positive_rank_sum = float(ranks[labels == 1.0].sum())
    u_statistic = positive_rank_sum - positives * (positives + 1) / 2.0
    return u_statistic / (positives * negatives)


# ----------------------------------------------------------------------
# Persistence.
# ----------------------------------------------------------------------

def save_model_state(model, path: Union[str, Path]) -> None:
    """Persist a model's :meth:`~repro.models.base.FederatedModel.state_dict`
    as JSON, atomically and durably
    (:func:`~repro.federation.wal.replace_durably`).

    ``ndarray.tolist()`` keeps every float64 exactly, so a model built over
    the same dataset and seed and loaded with :func:`load_model_state`
    predicts exactly what this one does.
    """
    state = {name: np.asarray(value).tolist()
             for name, value in model.state_dict().items()}
    replace_durably(Path(path), json.dumps(
        {"model": model.name, "state": state}).encode("utf-8"))


def load_model_state(model, path: Union[str, Path]) -> None:
    """Restore state saved by :func:`save_model_state` (in place)."""
    saved = json.loads(Path(path).read_text())
    if saved.get("model") != model.name:
        raise ValueError(
            f"state is for {saved.get('model')!r}, not {model.name!r}")
    if "state" not in saved:
        raise ValueError(
            f"{path} was saved in an older format without a 'state' "
            "entry; re-save it with save_model_state")
    model.load_state_dict(saved["state"])
