"""Linear models: least squares (regression) and logistic (classification);
the logistic defaults live in ``learners._KIND_TABLE``."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import FarecastError
from ..util import NOT_SAVED, check_shapes

logger = logging.getLogger(__name__)

RIDGE_JITTER = 1e-8


def _with_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((len(X), 1)), X])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)). Below z of about -709, exp(-z) overflows to inf
    without a warning, and the result is the limit, 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


@dataclass
class LeastSquares:
    """Ordinary least squares via normal equations.

    With ``standardize`` the columns are standardized internally (constant
    columns are only centered); the facade leaves it off, since it scales
    the continuous block itself. The ridge jitter keeps the Gram matrix
    invertible.
    One iterative-refinement step against the unjittered normal equations
    removes the O(jitter) bias the regularizer would otherwise leave in
    the coefficients.
    """

    standardize: bool = False
    jitter: float = RIDGE_JITTER
    coef: Optional[np.ndarray] = None  # intercept first, in internal scale
    mean: Optional[np.ndarray] = None
    scale: Optional[np.ndarray] = None

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

    def check_inputs(self, n_inputs: int) -> None:
        """Raises FarecastError unless coef, mean and scale fit ``n_inputs``, the
        scales positive."""
        check_shapes(self, coef=(n_inputs + 1,), mean=(n_inputs,), scale=(n_inputs,))
        if not (self.scale > 0.0).all():
            raise FarecastError("LeastSquares.scale must hold positive numbers")


@dataclass
class Logistic:
    """Binary logistic regression by full-batch gradient descent.

    Each step starts from twice the last accepted step size and backtracks
    (halving, Armijo condition) until the cross-entropy decreases, so the
    loss history is non-increasing by construction. Training stops when the
    gradient norm drops below ``grad_tol`` or at ``max_iter``.
    """

    grad_tol: float
    max_iter: int
    coef: Optional[np.ndarray] = None
    loss_history: list[float] = field(default_factory=list, metadata=NOT_SAVED)
    converged: bool = False

    @staticmethod
    def _loss_grad(Z: np.ndarray, y: np.ndarray, beta: np.ndarray):
        margin = Z @ beta
        # mean softplus(margin) - y*margin, stable for large |margin|
        loss = float(np.mean(np.logaddexp(0.0, margin) - y * margin))
        p = _sigmoid(margin)
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

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        Z = _with_intercept(np.asarray(X, dtype=float))
        return _sigmoid(Z @ self.coef)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_scores(X) > 0.5).astype(int)

    def check_inputs(self, n_inputs: int) -> None:
        """Raises FarecastError unless coef has ``n_inputs`` + 1 entries."""
        check_shapes(self, coef=(n_inputs + 1,))
