"""Three-layer perceptron: input, one tanh hidden layer, linear/sigmoid output.

Trained with seeded mini-batch gradient descent, each step updating the four
parameters in place. `loss` and `grads` expose the mean loss and its
analytic gradient so the gradient can be compared against central finite
differences. The hyperparameters' defaults live in
``learners._KIND_TABLE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import FarecastError
from ..util import NOT_SAVED, check_shapes
from .linear import _sigmoid


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
        if min(self.hidden, self.batch_size) < 1:
            raise FarecastError("hidden and batch_size must each be >= 1")
        self.lr = float(self.lr)  # a spec may give an integer
        if not 0.0 < self.lr < np.inf:  # 0 trains nothing, a negative lr ascends
            raise FarecastError(f"lr must be positive and finite, got {self.lr}")

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

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean loss over the batch."""
        _, out = self._forward(X)
        if self.task == "regression":
            return float(0.5 * np.mean((out - y) ** 2))
        return float(np.mean(np.logaddexp(0.0, out) - y * out))

    def grads(self, X: np.ndarray, y: np.ndarray):
        """Analytic gradient of the mean batch loss: (w1, b1, w2, b2)."""
        a1, out = self._forward(X)
        if self.task == "regression":
            dout = (out - y) / len(y)
        else:
            dout = (_sigmoid(out) - y) / len(y)
        dz1 = np.outer(dout, self.w2) * (1.0 - a1 * a1)
        return X.T @ dz1, dz1.sum(axis=0), a1.T @ dout, dout.sum()

    # -- training / prediction ---------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "Mlp3":
        """Raises FarecastError, naming the epoch, once an epoch ends with a
        training loss that is not finite, as a too large ``lr`` makes it."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, d = X.shape
        rng = np.random.default_rng(seed)
        self._init_params(d, rng)
        self.loss_history = []
        batch = min(self.batch_size, n)
        # A diverging fit overflows before its loss is checked; the check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(1, self.epochs + 1):
                order = rng.permutation(n)
                for start in range(0, n, batch):
                    rows = order[start : start + batch]
                    gw1, gb1, gw2, gb2 = self.grads(X[rows], y[rows])
                    self.w1 -= self.lr * gw1
                    self.b1 -= self.lr * gb1
                    self.w2 -= self.lr * gw2
                    self.b2 = float(self.b2 - self.lr * gb2)
                epoch_loss = self.loss(X, y)
                if not np.isfinite(epoch_loss):
                    raise FarecastError(f"mlp3 diverged: the training loss is {epoch_loss} "
                                        f"after epoch {epoch} of {self.epochs}; lower lr")
                self.loss_history.append(epoch_loss)
        return self

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        _, out = self._forward(np.asarray(X, dtype=float))
        return out

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.predict_raw(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.task == "classification":
            return (self.predict_scores(X) > 0.5).astype(int)
        return self.predict_raw(X)

    def check_inputs(self, n_inputs: int) -> None:
        """Raises FarecastError unless w1 is (n_inputs, hidden), b1 and w2 (hidden,)."""
        h = self.hidden
        check_shapes(self, w1=(n_inputs, h), b1=(h,), w2=(h,))
