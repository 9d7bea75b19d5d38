"""k-nearest-neighbor prediction by Euclidean distance.

The caller is responsible for feature scaling (the pipeline standardizes the
continuous block and keeps the dummies as-is). Distances are computed in
blocks to bound memory; equidistant neighbors resolve to the lowest training
index via a stable sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core import FarecastError
from ..util import as_float_arrays, check_shapes, from_jsonable

_BLOCK = 64


class TooFewRows(FarecastError):
    """Fewer training rows than neighbours asked for."""


@dataclass
class Knn:
    task: str
    k: int = 5
    X: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.task not in ("regression", "classification"):
            raise FarecastError(f"unknown task {self.task!r}")
        if self.k < 1:
            raise FarecastError("k must be >= 1")
        as_float_arrays(self, "X", "y")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Knn":
        self.X = np.asarray(X, dtype=float).copy()
        self.y = np.asarray(y, dtype=float).copy()
        if len(self.X) < self.k:
            raise TooFewRows(f"k={self.k} exceeds {len(self.X)} training rows")
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Mean of the k nearest labels/targets."""
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        for start in range(0, len(X), _BLOCK):
            chunk = X[start : start + _BLOCK]
            diff = chunk[:, None, :] - self.X[None, :, :]
            d2 = (diff * diff).sum(axis=2)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            out[start : start + _BLOCK] = self.y[nearest].mean(axis=1)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.predict_scores(X)
        if self.task == "classification":
            return (scores > 0.5).astype(int)  # vote ties go to wait
        return scores

    @classmethod
    def from_jsonable(cls, raw: dict, n_inputs: int) -> "Knn":
        """Raises FarecastError unless X is (m, n_inputs), y is (m,) and k <= m."""
        model = from_jsonable(cls, raw)
        m = np.size(model.y)
        check_shapes(model, X=(m, n_inputs), y=(m,))
        if model.k > m:
            raise FarecastError(f"k={model.k} exceeds the {m} stored training rows")
        return model
