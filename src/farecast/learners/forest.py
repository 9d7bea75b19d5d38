"""Random forest over the CART implementation.

Per tree: a bootstrap resample and per-node feature subsampling (sqrt(d) for
classification, d/3 for regression). `bootstrap="identity"` and
`subsample=False` turn both randomizations off, which reduces a 1-tree
forest to plain CART; the test suite holds it to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import FarecastError
from ..util import derive_seed, from_jsonable
from .tree import Cart


def default_mtry(task: str, d: int) -> int:
    if task == "classification":
        return max(1, int(round(np.sqrt(d))))
    return max(1, int(round(d / 3.0)))


@dataclass
class RandomForest:
    task: str
    n_trees: int = 100
    max_depth: Optional[int] = None
    min_leaf: int = 1
    bootstrap: str = "resample"  # resample | identity
    subsample: bool = True
    trees: list[Cart] = field(default_factory=list)

    def __post_init__(self):
        if self.task not in ("regression", "classification"):
            raise FarecastError(f"unknown task {self.task!r}")
        if self.bootstrap not in ("resample", "identity"):
            raise FarecastError(f"unknown bootstrap mode {self.bootstrap!r}")
        if self.n_trees < 1:
            raise FarecastError("n_trees must be >= 1")

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "RandomForest":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float if self.task == "regression" else int)
        n, d = X.shape
        mtry = default_mtry(self.task, d) if self.subsample else None
        self.trees = []
        for b in range(self.n_trees):
            rng = np.random.default_rng(derive_seed(seed, "tree", b))
            if self.bootstrap == "resample":
                rows = rng.integers(0, n, size=n)
                Xb, yb = X[rows], y[rows]
            else:
                Xb, yb = X, y
            tree = Cart(task=self.task, max_depth=self.max_depth,
                        min_leaf=self.min_leaf, mtry=mtry)
            tree.fit(Xb, yb, rng=rng if mtry is not None else None)
            tree.fitted_value = None  # n floats per tree that the forest never reads
            self.trees.append(tree)
        return self

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Mean member output: vote fraction (classification) or mean value."""
        X = np.asarray(X, dtype=float)
        votes = np.zeros(len(X))
        for tree in self.trees:
            votes += tree.predict(X)
        return votes / len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        scores = self.predict_scores(X)
        if self.task == "classification":
            return (scores > 0.5).astype(int)  # vote ties go to wait
        return scores

    @classmethod
    def from_jsonable(cls, raw: dict, n_inputs: Optional[int] = None) -> "RandomForest":
        """Raises FarecastError unless it holds n_trees valid trees."""
        model = from_jsonable(cls, raw)
        if len(model.trees) != model.n_trees:
            raise FarecastError(f"{len(model.trees)} trees for n_trees {model.n_trees}")
        model.trees = [Cart.from_jsonable(t, n_inputs) for t in model.trees]
        return model
