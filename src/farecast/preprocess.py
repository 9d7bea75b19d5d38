"""Training-set preparation: random oversampling and cluster-based outlier removal.

A sample is an outlier when it does not fall in the cluster identified with
its labeled class. Both clusterings (2-cluster K-Means and a 2-component
Gaussian mixture fit by EM) start from the class means, which fixes the
cluster-to-class identification. Outlier removal runs before oversampling so
duplicated minority points cannot produce singular clusters.

Under-sampling and synthetic (algorithmic) oversampling are deliberately not
provided.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
import numpy as np

from .core import BUY, WAIT, Dataset, FarecastError
from .features import CONTINUOUS

logger = logging.getLogger(__name__)

COV_REG = 1e-6


class SingleClassDataset(FarecastError):
    pass


@dataclass(frozen=True)
class ClusterInit:
    """Class-conditional initialization: per-class mean vectors and counts."""

    centers: np.ndarray  # (2, d), row k = mean of class k
    counts: np.ndarray   # (2,)


def continuous_matrix(X: np.ndarray) -> np.ndarray:
    """Standardized continuous block of the design matrix ``X`` (dummies
    excluded), for clustering."""
    X = X[:, CONTINUOUS]
    std = X.std(axis=0)
    return (X - X.mean(axis=0)) / np.where(std == 0.0, 1.0, std)


def class_mean_init(X: np.ndarray, y: np.ndarray) -> ClusterInit:
    centers = np.vstack([X[y == k].mean(axis=0) for k in (WAIT, BUY)])
    counts = np.array([(y == WAIT).sum(), (y == BUY).sum()])
    if (counts == 0).any():
        raise SingleClassDataset("both classes are required for clustering")
    return ClusterInit(centers=centers, counts=counts)


@dataclass
class KMeansFit:
    centers: np.ndarray
    assignments: np.ndarray
    objective_history: list[float]
    converged: bool


def kmeans2(X: np.ndarray, init: ClusterInit, max_iter: int = 100, tol: float = 1e-8) -> KMeansFit:
    """Lloyd's algorithm with 2 clusters; equidistant points go to the lower index."""
    centers = init.centers.astype(float).copy()
    history: list[float] = []
    prev = None
    converged = False
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)  # argmin takes the first (lower) index on ties
        history.append(float(d2[np.arange(len(X)), assign].sum()))
        if prev is not None and np.array_equal(assign, prev):
            converged = True
            break
        shift = 0.0
        for k in (0, 1):
            mask = assign == k
            if mask.any():
                new_center = X[mask].mean(axis=0)
                shift = max(shift, float(np.abs(new_center - centers[k]).max()))
                centers[k] = new_center
        prev = assign
        if shift < tol:
            converged = True
            break
    else:
        logger.warning("k-means did not converge in %d iterations", max_iter)
    # Final assignment under the final centers.
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = np.argmin(d2, axis=1)
    return KMeansFit(centers=centers, assignments=assign,
                     objective_history=history, converged=converged)


def _log_gaussian(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = X.shape[1]
    L = np.linalg.cholesky(cov)
    z = (X - mean) @ np.linalg.inv(L).T
    maha = (z * z).sum(axis=1)
    logdet = 2.0 * np.log(np.diag(L)).sum()
    return -0.5 * (d * math.log(2.0 * math.pi) + logdet + maha)


@dataclass
class GmmFit:
    means: np.ndarray
    covariances: np.ndarray
    weights: np.ndarray
    responsibilities: np.ndarray
    loglik_history: list[float]
    converged: bool


def gmm_em2(
    X: np.ndarray,
    init: ClusterInit,
    y: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> GmmFit:
    """2-component full-covariance Gaussian mixture fit by EM.

    Means start at the class means; weights and covariances start from the
    classes labeled by ``y``. The diagonal regularizer keeps covariances
    invertible in the presence of duplicates.
    EM stops when a step changes the log-likelihood ``ll`` by at most
    ``tol * |ll|``.
    """
    n, d = X.shape
    means = init.centers.astype(float).copy()
    weights = init.counts / init.counts.sum()
    covs = np.stack([np.cov(X[y == k].T, bias=True).reshape(d, d) + COV_REG * np.eye(d)
                     for k in (0, 1)])

    history: list[float] = []
    converged = False
    resp = np.full((n, 2), 0.5)
    for _ in range(max_iter):
        log_joint = np.stack(
            [np.log(weights[k]) + _log_gaussian(X, means[k], covs[k]) for k in (0, 1)],
            axis=1,
        )
        shift = log_joint.max(axis=1, keepdims=True)
        log_norm = shift[:, 0] + np.log(np.exp(log_joint - shift).sum(axis=1))
        ll = float(log_norm.sum())
        resp = np.exp(log_joint - log_norm[:, None])
        if history and abs(ll - history[-1]) <= tol * abs(ll):
            history.append(ll)
            converged = True
            break
        history.append(ll)

        nk = resp.sum(axis=0).clip(min=1e-12)
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        for k in (0, 1):
            diff = X - means[k]
            covs[k] = (diff * resp[:, k, None]).T @ diff / nk[k] + COV_REG * np.eye(d)
    else:
        logger.warning("EM did not converge in %d iterations", max_iter)
    return GmmFit(means=means, covariances=covs, weights=weights,
                  responsibilities=resp, loglik_history=history, converged=converged)


def oversample(train: Dataset, seed: int) -> Dataset:
    """Duplicate minority-class rows uniformly at random until the classes balance.

    The duplicates follow the original rows, which keep their order.
    """
    buys = np.flatnonzero(train.label_class == BUY)
    waits = np.flatnonzero(train.label_class == WAIT)
    if not len(buys) or not len(waits):
        raise SingleClassDataset("oversampling needs both classes")
    minority = buys if len(buys) < len(waits) else waits
    n_extra = abs(len(waits) - len(buys))
    if n_extra == 0:
        return train
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(minority), size=n_extra)
    return train.take(np.concatenate([np.arange(len(train)), minority[picks]]))


def remove_outliers(
    train: Dataset,
    method: str = "kmeans",
    max_iter: int = 100,
    tol: float = 1e-8,
) -> tuple[Dataset, Dataset]:
    """Split the training set into (kept, removed) by cluster disagreement.

    A row is removed when its assigned cluster (nearest center for K-Means,
    maximum posterior for EM) differs from the cluster of its labeled class.
    ``tol`` is relative to |ll| for EM and bounds the center shift, in
    standardized units, for K-Means. An unconverged fit logs one warning and
    its result is used as it stands.
    """
    if method not in ("kmeans", "em"):
        raise FarecastError(f"unknown outlier-removal method {method!r}")
    y = train.label_class
    if len(np.unique(y)) < 2:
        raise SingleClassDataset("outlier removal needs both classes")
    X = continuous_matrix(train.X)
    init = class_mean_init(X, y)
    if method == "kmeans":
        fit = kmeans2(X, init, max_iter=max_iter, tol=tol)
        assigned = fit.assignments
    else:
        fit = gmm_em2(X, init, y=y, max_iter=max_iter, tol=tol)
        assigned = fit.responsibilities.argmax(axis=1)
    keep = assigned == y
    logger.info("outlier removal (%s): flagged %d of %d training rows",
                method, int((~keep).sum()), len(train))
    return train.take(keep), train.take(~keep)
