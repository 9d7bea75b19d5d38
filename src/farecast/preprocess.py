"""Training-set preparation: random oversampling and cluster-based outlier removal.

A sample is an outlier when it does not fall in the cluster identified with
its labeled class. Both clusterings (2-cluster K-Means and a 2-component
Gaussian mixture fit by EM) start from the class means, which fixes the
cluster-to-class identification. Outlier removal runs before oversampling so
duplicated minority points cannot produce singular clusters.

Both fits keep each per-row quantity (a squared distance, a Mahalanobis
term, a log joint density, a responsibility) as one contiguous array of n
values per cluster, so no numpy call reduces or broadcasts over rows of only
2 values, and a sum over the d columns adds whole columns. They give the bits
of the row-major form they replace:

- a sum of squares over the d columns adds them first to last, the order in
  which ``(A * A).sum(axis=1)`` adds a row for d < 8 (``_squared_norms``);
- a sum over the n rows adds them in the order the row-major form did:
  ``resp.sum(axis=0)`` is sequential, a cumsum, and ``X[mask].mean(axis=0)``
  stays as it was;
- every BLAS product, ``(X - mean) @ inv(L).T``, ``resp.T @ X`` and
  ``(diff * r).T @ diff``, keeps the operands of the row-major form, each a
  C-ordered (n, d) or (n, 2) array, so its bits do not hang on the kernel a
  BLAS picks for another layout.

EM holds no more memory at its peak than the row-major form. X - mean lives
in one (n, d) buffer, written a column at a time (``_centered``), and the
next E-step starts from the M-step's last one; no (d, n) copy of X is made.

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
KMEANS_TOL = 1e-8  # in standardized units
EM_TOL = 1e-8


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


def _squared_norms(A: np.ndarray) -> np.ndarray:
    """Sum of squares of each row of the (n, d) ``A``, added a column at a
    time, first to last. For d < 8 that is the order in which numpy's pairwise
    ``(A * A).sum(axis=1)`` adds them, so the two agree bit for bit."""
    total = A[:, 0] * A[:, 0]
    for j in range(1, A.shape[1]):
        total += A[:, j] * A[:, j]
    return total


def kmeans2(X: np.ndarray, init: ClusterInit, max_iter: int = 100) -> KMeansFit:
    """Lloyd's algorithm with 2 clusters; equidistant points go to the lower index.
    It stops when the assignments repeat or no center moves by ``KMEANS_TOL``
    or more in any coordinate."""
    row_index = np.arange(len(X))
    centers = init.centers.astype(float).copy()
    history: list[float] = []
    prev = None
    converged = False
    for _ in range(max_iter):
        d2 = np.stack([_squared_norms(X - center) for center in centers])
        assign = np.argmin(d2, axis=0)  # argmin takes the first (lower) index on ties
        history.append(float(d2[assign, row_index].sum()))
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
        if shift < KMEANS_TOL:
            converged = True
            break
    else:
        logger.warning("k-means did not converge in %d iterations", max_iter)
    # Final assignment under the final centers.
    assign = np.argmin(np.stack([_squared_norms(X - center) for center in centers]), axis=0)
    return KMeansFit(centers=centers, assignments=assign,
                     objective_history=history, converged=converged)


def _log_gaussian(diff: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Gaussian log-density at the rows of ``diff``, the C-ordered (n, d)
    differences X - mean."""
    d = diff.shape[1]
    L = np.linalg.cholesky(cov)
    z = diff @ np.linalg.inv(L).T
    log_density = _squared_norms(z)
    log_density += d * math.log(2.0 * math.pi) + 2.0 * np.log(np.diag(L)).sum()
    log_density *= -0.5
    return log_density


def _centered(X: np.ndarray, mean: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``X - mean`` written into ``out`` a column at a time, which is faster
    than numpy's broadcast of one d-wide row over every row."""
    for j, m in enumerate(mean):
        np.subtract(X[:, j], m, out=out[:, j])
    return out


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
) -> GmmFit:
    """2-component full-covariance Gaussian mixture fit by EM.

    Means start at the class means; weights and covariances start from the
    classes labeled by ``y``. The diagonal regularizer keeps covariances
    invertible in the presence of duplicates.
    EM stops when a step changes the log-likelihood ``ll`` by at most
    ``EM_TOL * |ll|``.
    """
    n, d = X.shape
    means = init.centers.astype(float).copy()
    weights = init.counts / init.counts.sum()
    covs = np.stack([np.cov(X[y == k].T, bias=True).reshape(d, d) + COV_REG * np.eye(d)
                     for k in (0, 1)])

    # X - means[k], C-ordered like X. It holds X - means[1] at the top of
    # each iteration: set here, and left by the M-step.
    diff = _centered(X, means[1], np.empty((n, d)))
    log_joint = np.empty((2, n))
    history: list[float] = []
    converged = False
    resp = np.full((n, 2), 0.5)
    for _ in range(max_iter):
        log_joint[1] = _log_gaussian(diff, covs[1])
        log_joint[0] = _log_gaussian(_centered(X, means[0], diff), covs[0])
        log_joint += np.log(weights)[:, None]
        shift = np.maximum(log_joint[0], log_joint[1])
        scaled = np.exp(log_joint - shift)
        log_norm = shift + np.log(scaled[0] + scaled[1])
        ll = float(log_norm.sum())
        resp_columns = np.exp(log_joint - log_norm)
        resp = np.ascontiguousarray(resp_columns.T)
        if history and abs(ll - history[-1]) <= EM_TOL * abs(ll):
            history.append(ll)
            converged = True
            break
        history.append(ll)

        # resp.sum(axis=0) adds the rows one after another, as cumsum does.
        nk = np.cumsum(resp_columns, axis=1)[:, -1].clip(min=1e-12)
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        # (diff * r_k).T @ diff with both operands C-ordered (n, d); the
        # weighted copy is written a column at a time.
        weighted = np.empty_like(diff)
        for k in (0, 1):
            _centered(X, means[k], diff)
            np.multiply(diff.T, resp_columns[k], out=weighted.T)
            covs[k] = weighted.T @ diff / nk[k] + COV_REG * np.eye(d)
        del weighted  # kept into the next E-step, it would raise EM's peak memory
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
) -> tuple[Dataset, Dataset]:
    """Split the training set into (kept, removed) by cluster disagreement.

    A row is removed when its assigned cluster (nearest center for K-Means,
    maximum posterior for EM) differs from the cluster of its labeled class.
    The fits stop at ``KMEANS_TOL`` and ``EM_TOL``. An unconverged fit logs
    one warning and its result is used as it stands.
    """
    if method not in ("kmeans", "em"):
        raise FarecastError(f"unknown outlier-removal method {method!r}")
    y = train.label_class
    if len(np.unique(y)) < 2:
        raise SingleClassDataset("outlier removal needs both classes")
    X = continuous_matrix(train.X)
    init = class_mean_init(X, y)
    if method == "kmeans":
        fit = kmeans2(X, init, max_iter=max_iter)
        assigned = fit.assignments
    else:
        fit = gmm_em2(X, init, y=y, max_iter=max_iter)
        assigned = fit.responsibilities.argmax(axis=1)
    keep = assigned == y
    logger.info("outlier removal (%s): flagged %d of %d training rows",
                method, int((~keep).sum()), len(train))
    return train.take(keep), train.take(~keep)
