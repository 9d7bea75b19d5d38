"""Linear models: least squares (regression) and logistic (classification)."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..util import NOT_SAVED, as_float_arrays, check_shapes, from_jsonable

logger = logging.getLogger(__name__)

RIDGE_JITTER = 1e-8


def _with_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((len(X), 1)), X])


@dataclass
class LeastSquares:
    """Ordinary least squares via normal equations.

    Columns are standardized internally (constant columns are only
    centered), and the ridge jitter keeps the Gram matrix invertible.
    One iterative-refinement step against the unjittered normal equations
    removes the O(jitter) bias the regularizer would otherwise leave in
    the coefficients.
    """

    standardize: bool = True
    jitter: float = RIDGE_JITTER
    coef: Optional[np.ndarray] = None  # intercept first, in internal scale
    mean: Optional[np.ndarray] = None
    scale: Optional[np.ndarray] = None

    def __post_init__(self):
        as_float_arrays(self, "coef", "mean", "scale")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LeastSquares":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.standardize:
            self.mean = X.mean(axis=0)
            std = X.std(axis=0)
            self.scale = np.where(std == 0.0, 1.0, std)
        else:
            self.mean = np.zeros(X.shape[1])
            self.scale = np.ones(X.shape[1])
        Z = _with_intercept((X - self.mean) / self.scale)

        gram = Z.T @ Z
        rhs = Z.T @ y
        damped = gram + self.jitter * np.eye(Z.shape[1])
        beta = np.linalg.solve(damped, rhs)
        residual = rhs - gram @ beta
        beta = beta + np.linalg.solve(damped, residual)
        self.coef = beta
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        Z = _with_intercept((np.asarray(X, dtype=float) - self.mean) / self.scale)
        return Z @ self.coef

    def coef_original(self) -> tuple[float, np.ndarray]:
        """(intercept, slopes) in the unstandardized input units."""
        slopes = self.coef[1:] / self.scale
        intercept = float(self.coef[0] - (self.coef[1:] * self.mean / self.scale).sum())
        return intercept, slopes

    @classmethod
    def from_jsonable(cls, raw: dict, n_inputs: int) -> "LeastSquares":
        """Raises FarecastError unless coef, mean and scale fit ``n_inputs``."""
        model = from_jsonable(cls, raw)
        check_shapes(model, coef=(n_inputs + 1,), mean=(n_inputs,), scale=(n_inputs,))
        return model


@dataclass
class Logistic:
    """Binary logistic regression by full-batch gradient descent.

    Each step starts from twice the last accepted step size and backtracks
    (halving, Armijo condition) until the cross-entropy decreases, so the
    loss history is non-increasing by construction. Training stops when the
    gradient norm drops below ``grad_tol`` or at ``max_iter``.
    """

    grad_tol: float = 1e-6
    max_iter: int = 1000
    coef: Optional[np.ndarray] = None
    loss_history: list[float] = field(default_factory=list, metadata=NOT_SAVED)
    converged: bool = False

    def __post_init__(self):
        as_float_arrays(self, "coef")

    @staticmethod
    def _loss_grad(Z: np.ndarray, y: np.ndarray, beta: np.ndarray):
        margin = Z @ beta
        # mean softplus(margin) - y*margin, stable for large |margin|
        loss = float(np.mean(np.logaddexp(0.0, margin) - y * margin))
        p = 1.0 / (1.0 + np.exp(-margin))
        grad = Z.T @ (p - y) / len(y)
        return loss, grad

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Logistic":
        Z = _with_intercept(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        beta = np.zeros(Z.shape[1])
        self.loss_history = []
        self.converged = False
        step = 1.0
        loss, grad = self._loss_grad(Z, y, beta)
        for _ in range(self.max_iter):
            self.loss_history.append(loss)
            gnorm2 = float(grad @ grad)
            if np.sqrt(gnorm2) < self.grad_tol:
                self.converged = True
                break
            step = min(step * 2.0, 1e6)
            while step > 1e-16:
                candidate = beta - step * grad
                new_loss, new_grad = self._loss_grad(Z, y, candidate)
                if new_loss <= loss - 1e-4 * step * gnorm2:
                    break
                step *= 0.5
            else:
                break  # no descent direction left at float precision
            beta, loss, grad = candidate, new_loss, new_grad
        else:
            logger.info("logistic stopped at max_iter=%d (grad norm %.3g)",
                        self.max_iter, float(np.linalg.norm(grad)))
        self.coef = beta
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Z = _with_intercept(np.asarray(X, dtype=float))
        return 1.0 / (1.0 + np.exp(-(Z @ self.coef)))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) > 0.5).astype(int)

    @classmethod
    def from_jsonable(cls, raw: dict, n_inputs: int) -> "Logistic":
        """Raises FarecastError unless coef has ``n_inputs`` + 1 entries."""
        model = from_jsonable(cls, raw)
        check_shapes(model, coef=(n_inputs + 1,))
        return model
