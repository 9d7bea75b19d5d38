"""Boosted trees: discrete AdaBoost (classification) and a weighted-median
regression variant with loss-proportional reweighting.

Classification tracks, per round, the weak learner's weighted error, the
ensemble's training error, and the exponential-loss bound prod 2*sqrt(e(1-e)).
The bound must upper-bound training error after every round; that is asserted
by the test suite, not silently assumed here.

Both fits take sample weights, so an oversampled matrix can be fit as its
distinct rows weighted by their counts (``tree.distinct_rows``): the
reweighting treats a row of weight k*w as k rows of weight w. X is coded
once (``tree.ColumnCodes``) and every round's tree fits those codes. Each
round reads its tree's training predictions from ``Cart.fitted_value``
instead of predicting X again, and drops them, so the ensemble keeps no
per-row array.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..core import FarecastError
from ..util import NOT_SAVED, from_jsonable
from .tree import Cart, ColumnCodes

logger = logging.getLogger(__name__)


def _fit_round(tree: Cart, coded: ColumnCodes, y, w) -> np.ndarray:
    """Fit ``tree`` and hand over its training rows' leaf values."""
    tree.fit(coded, y, sample_weight=w)
    fitted, tree.fitted_value = tree.fitted_value, None
    return fitted


def _check_size(model) -> None:
    """Fewer than one round or a weak depth below 1 boosts nothing."""
    if min(model.n_rounds, model.weak_depth) < 1:
        raise FarecastError("n_rounds and weak_depth must each be >= 1")


def _truncated(model, n_rounds: int, per_round: tuple[str, ...]):
    """The fit of ``n_rounds`` read off ``model``'s longer fit, whose first
    rounds it runs (the loop uses ``n_rounds`` only as its bound); None where
    the longer fit collapsed to one tree at round ``n_rounds`` or later and so
    dropped the trees before it. ``per_round`` names the per-round lists, the
    last a diagnostic that ends in 0 on such a collapse."""
    diagnostics = getattr(model, per_round[-1])
    collapsed = bool(diagnostics) and diagnostics[-1] == 0.0
    ran = len(diagnostics) + (model.stopped_early is not None and not collapsed)
    if collapsed and n_rounds < ran:
        return None
    return replace(model, n_rounds=n_rounds,
                   stopped_early=model.stopped_early if n_rounds >= ran else None,
                   **{name: getattr(model, name)[:min(n_rounds, ran)] for name in per_round})


def _trees_from_jsonable(trees: list, weights: list,
                         n_inputs: Optional[int]) -> tuple[list[Cart], list[float]]:
    """The trees and their weights as floats; raises FarecastError unless
    there is one finite, positive weight per tree, as every fit gives."""
    weights = [float(w) for w in weights]
    if len(trees) != len(weights):
        raise FarecastError(f"{len(trees)} trees for {len(weights)} weights")
    if not all(0.0 < w < math.inf for w in weights):
        raise FarecastError("tree weights must be finite and positive")
    return [Cart.from_jsonable(t, n_inputs) for t in trees], weights


@dataclass
class AdaBoostClassifier:
    n_rounds: int = 100
    weak_depth: int = 1
    min_leaf: int = 1
    trees: list[Cart] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    # per accepted round; fit diagnostics, not saved
    epsilons: list[float] = field(default_factory=list, metadata=NOT_SAVED)
    bounds: list[float] = field(default_factory=list, metadata=NOT_SAVED)
    train_errors: list[float] = field(default_factory=list, metadata=NOT_SAVED)
    stopped_early: Optional[str] = field(default=None, metadata=NOT_SAVED)
    majority: int = 0  # fallback when no weak learner is accepted

    def __post_init__(self):
        _check_size(self)

    def fit(self, X: np.ndarray, y: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "AdaBoostClassifier":
        coded = ColumnCodes.of(X)
        y = np.asarray(y, dtype=int)
        n = len(y)
        sign = 2.0 * y - 1.0
        w = np.ones(n) / n if sample_weight is None else np.asarray(sample_weight, dtype=float)
        # Exact class totals, so balanced classes tie, and ties go to wait.
        self.majority = int(math.fsum(w[y == 1]) > math.fsum(w[y == 0]))
        w = w / w.sum()
        w0 = w.copy()  # training error is measured against the starting weights

        self.trees, self.alphas = [], []
        self.epsilons, self.bounds, self.train_errors = [], [], []
        self.stopped_early = None
        margin = np.zeros(n)
        bound = 1.0
        for t in range(self.n_rounds):
            tree = Cart(task="classification", max_depth=self.weak_depth,
                        min_leaf=self.min_leaf)
            h = 2.0 * (_fit_round(tree, coded, y, w) > 0.5) - 1.0
            miss = h != sign
            eps = float(w[miss].sum())
            if eps >= 0.5:
                self.stopped_early = f"round {t}: weak error {eps:.4f} >= 0.5"
                logger.info("boosting stopped: %s", self.stopped_early)
                break
            if eps == 0.0:
                # A perfect weak learner; the ensemble collapses to it.
                self.trees, self.alphas = [tree], [1.0]
                self.epsilons.append(0.0)
                self.bounds.append(0.0)
                margin = h
                self.train_errors.append(float(w0[np.sign(margin) != sign].sum()))
                self.stopped_early = f"round {t}: weak error 0"
                break
            alpha = 0.5 * np.log((1.0 - eps) / eps)
            self.trees.append(tree)
            self.alphas.append(float(alpha))
            w = w * np.exp(-alpha * sign * h)
            w = w / w.sum()

            margin = margin + alpha * h
            bound *= 2.0 * np.sqrt(eps * (1.0 - eps))
            self.epsilons.append(eps)
            self.bounds.append(float(bound))
            # sign(0) counts as wait; a zero margin on a buy row is an error.
            predicted = np.where(margin > 0.0, 1.0, -1.0)
            self.train_errors.append(float(w0[predicted != sign].sum()))
        return self

    def decision_margin(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        margin = np.zeros(len(X))
        for tree, alpha in zip(self.trees, self.alphas):
            margin += alpha * (2.0 * tree.predict(X) - 1.0)
        return margin

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.trees:
            return np.full(len(X), self.majority, dtype=int)
        return (self.decision_margin(X) > 0.0).astype(int)

    def truncated(self, n_rounds: int) -> Optional["AdaBoostClassifier"]:
        return _truncated(self, n_rounds, ("trees", "alphas", "bounds", "train_errors",
                                           "epsilons"))

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Margin mapped affinely onto [0, 1]; 0.5 is the decision point."""
        if not self.trees:
            return np.full(len(X), float(self.majority))
        total = sum(self.alphas)
        return (self.decision_margin(X) / total + 1.0) / 2.0

    @classmethod
    def from_jsonable(cls, raw: dict, n_inputs: Optional[int] = None) -> "AdaBoostClassifier":
        model = from_jsonable(cls, raw)
        model.trees, model.alphas = _trees_from_jsonable(model.trees, model.alphas, n_inputs)
        if model.majority not in (0, 1):
            raise FarecastError(f"majority must be 0 or 1, got {model.majority!r}")
        return model


@dataclass
class AdaBoostRegressor:
    """Median-combination boosting for regression.

    Per round: fit a weighted CART, compute each row's linear loss
    |residual| / max|residual|, average it under the current weights, and
    reweight rows by beta^(1 - loss) with beta = avg / (1 - avg), so
    well-fit rows shrink. Prediction is the weighted median of the member
    predictions under the log(1/beta) model weights.
    """

    n_rounds: int = 100
    weak_depth: int = 8
    min_leaf: int = 1
    trees: list[Cart] = field(default_factory=list)
    log_inv_betas: list[float] = field(default_factory=list)
    avg_losses: list[float] = field(default_factory=list, metadata=NOT_SAVED)
    stopped_early: Optional[str] = field(default=None, metadata=NOT_SAVED)

    def __post_init__(self):
        _check_size(self)

    def fit(self, X: np.ndarray, y: np.ndarray,
            sample_weight: Optional[np.ndarray] = None) -> "AdaBoostRegressor":
        coded = ColumnCodes.of(X)
        y = np.asarray(y, dtype=float)
        n = len(y)
        w = np.ones(n) / n if sample_weight is None else np.asarray(sample_weight, dtype=float)
        w = w / w.sum()

        self.trees, self.log_inv_betas, self.avg_losses = [], [], []
        self.stopped_early = None
        for t in range(self.n_rounds):
            tree = Cart(task="regression", max_depth=self.weak_depth,
                        min_leaf=self.min_leaf)
            abs_err = np.abs(_fit_round(tree, coded, y, w) - y)
            worst = float(abs_err.max())
            if worst == 0.0:
                self.trees, self.log_inv_betas = [tree], [1.0]
                self.avg_losses.append(0.0)
                self.stopped_early = f"round {t}: exact fit"
                break
            loss = abs_err / worst
            avg = float((w * loss).sum())
            if avg >= 0.5:
                self.stopped_early = f"round {t}: average loss {avg:.4f} >= 0.5"
                logger.info("regression boosting stopped: %s", self.stopped_early)
                break
            beta = avg / (1.0 - avg)
            self.trees.append(tree)
            self.log_inv_betas.append(float(np.log(1.0 / beta)))
            self.avg_losses.append(avg)
            w = w * beta ** (1.0 - loss)
            w = w / w.sum()
        if not self.trees:
            # Nothing accepted: keep a single tree under the starting weights.
            tree = Cart(task="regression", max_depth=self.weak_depth,
                        min_leaf=self.min_leaf)
            _fit_round(tree, coded, y, sample_weight)
            self.trees, self.log_inv_betas = [tree], [1.0]
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        preds = np.column_stack([t.predict(X) for t in self.trees])
        weights = np.asarray(self.log_inv_betas)
        order = np.argsort(preds, axis=1, kind="stable")
        sorted_preds = np.take_along_axis(preds, order, axis=1)
        cum = np.cumsum(weights[order], axis=1)
        # First member where cumulative weight reaches half the total.
        half = 0.5 * cum[:, -1:]
        pick = (cum >= half).argmax(axis=1)
        return sorted_preds[np.arange(len(X)), pick]

    def truncated(self, n_rounds: int) -> Optional["AdaBoostRegressor"]:
        return _truncated(self, n_rounds, ("trees", "log_inv_betas", "avg_losses"))

    @classmethod
    def from_jsonable(cls, raw: dict, n_inputs: Optional[int] = None) -> "AdaBoostRegressor":
        model = from_jsonable(cls, raw)
        if not model.trees:  # a fit keeps at least one
            raise FarecastError("a boosted regressor needs at least one tree")
        model.trees, model.log_inv_betas = _trees_from_jsonable(model.trees, model.log_inv_betas,
                                                                n_inputs)
        return model
