"""Three-layer perceptron: input, one tanh hidden layer, linear/sigmoid output.

Trained with seeded mini-batch gradient descent. `loss_and_grad` exposes the
full-batch analytic gradient as a flat vector so it can be compared against
central finite differences. The hyperparameters' defaults live in
``learners._KIND_TABLE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import FarecastError
from ..util import NOT_SAVED, as_float_arrays, check_finite, check_shapes, from_jsonable


@dataclass
class Mlp3:
    task: str  # regression | classification
    hidden: int
    lr: float
    epochs: int
    batch_size: int
    w1: Optional[np.ndarray] = None
    b1: Optional[np.ndarray] = None
    w2: Optional[np.ndarray] = None
    b2: float = 0.0
    loss_history: list[float] = field(default_factory=list, metadata=NOT_SAVED)

    def __post_init__(self):
        if self.task not in ("regression", "classification"):
            raise FarecastError(f"unknown task {self.task!r}")
        if min(self.hidden, self.batch_size) < 1:
            raise FarecastError("hidden and batch_size must each be >= 1")
        self.lr, self.b2 = float(self.lr), float(self.b2)
        if not 0.0 < self.lr < np.inf:  # 0 trains nothing, a negative lr ascends
            raise FarecastError(f"lr must be positive and finite, got {self.lr}")
        as_float_arrays(self, "w1", "b1", "w2")

    # -- parameter vector plumbing (for the finite-difference check) -------

    def pack(self) -> np.ndarray:
        return np.concatenate([self.w1.ravel(), self.b1, self.w2.ravel(), [self.b2]])

    def unpack(self, flat: np.ndarray) -> None:
        d = self.w1.shape[0]
        h = self.hidden
        self.w1 = flat[: d * h].reshape(d, h).copy()
        self.b1 = flat[d * h : d * h + h].copy()
        self.w2 = flat[d * h + h : d * h + 2 * h].copy()
        self.b2 = float(flat[-1])

    def _init_params(self, d: int, rng: np.random.Generator) -> None:
        bound = 1.0 / np.sqrt(d)
        self.w1 = rng.uniform(-bound, bound, size=(d, self.hidden))
        self.b1 = np.zeros(self.hidden)
        self.w2 = rng.uniform(-1.0 / np.sqrt(self.hidden), 1.0 / np.sqrt(self.hidden),
                              size=self.hidden)
        self.b2 = 0.0

    # -- forward/backward --------------------------------------------------

    def _forward(self, X: np.ndarray):
        z1 = X @ self.w1 + self.b1
        a1 = np.tanh(z1)
        out = a1 @ self.w2 + self.b2
        return a1, out

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray):
        """Mean loss over the batch and its analytic gradient, packed flat."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(y)
        a1, out = self._forward(X)
        if self.task == "regression":
            loss = float(0.5 * np.mean((out - y) ** 2))
            dout = (out - y) / n
        else:
            loss = float(np.mean(np.logaddexp(0.0, out) - y * out))
            dout = (1.0 / (1.0 + np.exp(-out)) - y) / n
        gw2 = a1.T @ dout
        gb2 = dout.sum()
        da1 = np.outer(dout, self.w2)
        dz1 = da1 * (1.0 - a1 * a1)
        gw1 = X.T @ dz1
        gb1 = dz1.sum(axis=0)
        grad = np.concatenate([gw1.ravel(), gb1, gw2.ravel(), [gb2]])
        return loss, grad

    # -- training / prediction ---------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "Mlp3":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, d = X.shape
        rng = np.random.default_rng(seed)
        self._init_params(d, rng)
        self.loss_history = []
        batch = min(self.batch_size, n)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                rows = order[start : start + batch]
                _, grad = self.loss_and_grad(X[rows], y[rows])
                flat = self.pack() - self.lr * grad
                self.unpack(flat)
            epoch_loss, _ = self.loss_and_grad(X, y)
            self.loss_history.append(epoch_loss)
        return self

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        _, out = self._forward(np.asarray(X, dtype=float))
        return out

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.predict_raw(X)))

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.task == "classification":
            return (self.predict_scores(X) > 0.5).astype(int)
        return self.predict_raw(X)

    @classmethod
    def from_jsonable(cls, raw: dict, n_inputs: int) -> "Mlp3":
        """Raises FarecastError unless w1 is (n_inputs, hidden), b1 and w2 (hidden,),
        and every weight and bias is finite."""
        model = from_jsonable(cls, raw)
        h = model.hidden
        check_shapes(model, w1=(n_inputs, h), b1=(h,), w2=(h,))
        check_finite(model, "w1", "b1", "w2", "b2")
        return model
