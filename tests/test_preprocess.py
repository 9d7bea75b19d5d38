import logging
import math
from collections import Counter
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import class_counts, dataset_of, row_major_gmm_em2, row_major_kmeans2
from farecast.core import SeriesKey
from farecast.features import corpus_anchor
from farecast.ingest import split
from farecast.pipeline import build_dataset, route_order
from farecast.preprocess import (
    COV_REG,
    ClusterInit,
    SingleClassDataset,
    class_mean_init,
    continuous_matrix,
    gmm_em2,
    kmeans2,
    oversample,
    remove_outliers,
)
from farecast.preprocess import _log_gaussian, _squared_norms
from farecast.synthgen import default_split_for
from farecast.tuning import cv_folds

EM_TOL = 1e-8  # gmm_em2's default tol


def make_dataset(values, labels):
    """One row per (value, label); value fills all continuous features. Each
    row is its own series, so ``series`` holds the row's original index."""
    rows = []
    for i, (v, lab) in enumerate(zip(values, labels)):
        key = SeriesKey("R1", date(2016, 1, 13) + timedelta(days=i))
        v = float(v)
        rows.append((key, 0, (v, v + 1.0, 65, int(abs(v)) % 60, v + 0.5), int(lab), v))
    return dataset_of(rows)


def blob_dataset(seed=0, n_per=100, swap_frac=0.05, sep=10.0, sigma=0.1):
    """Two separated blobs; a known fraction of labels swapped."""
    rng = np.random.default_rng(seed)
    vals0 = rng.normal(0.0, sigma, n_per)
    vals1 = rng.normal(sep, sigma, n_per)
    values = np.concatenate([vals0, vals1])
    labels = np.array([0] * n_per + [1] * n_per)
    n_swap = int(round(swap_frac * len(labels)))
    swapped = rng.choice(len(labels), size=n_swap, replace=False)
    labels = labels.copy()
    labels[swapped] ^= 1
    return make_dataset(values, labels), set(swapped.tolist())


# -- oversampling -----------------------------------------------------------


def test_oversample_balances_counts():
    ds = make_dataset(range(1000), [1] * 100 + [0] * 900)
    out = oversample(ds, seed=0)
    wait, buy = class_counts(out)
    assert (wait, buy) == (900, 900)
    # all originals still present, in their original order
    assert np.array_equal(out.series[: len(ds)], ds.series)
    assert np.array_equal(out.X[: len(ds)], ds.X)


def test_oversample_noop_when_balanced():
    ds = make_dataset(range(10), [0, 1] * 5)
    assert np.array_equal(oversample(ds, seed=3).series, ds.series)


def test_oversample_deterministic():
    ds = make_dataset(range(10), [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(oversample(ds, seed=42).series, oversample(ds, seed=42).series)


def test_oversample_duplicates_come_from_minority():
    ds = make_dataset(range(10), [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    out = oversample(ds, seed=1)
    extras = out.take(np.arange(len(ds), len(out)))
    assert len(extras) == 4
    assert (extras.label_class == 1).all()
    assert np.array_equal(extras.X, ds.X[extras.series])
    # majority multiset unchanged
    maj_in = Counter(ds.series[ds.label_class == 0].tolist())
    maj_out = Counter(out.series[out.label_class == 0].tolist())
    assert maj_in == maj_out


def test_oversample_single_class_raises():
    with pytest.raises(SingleClassDataset):
        oversample(make_dataset(range(5), [0] * 5), seed=0)


def test_oversample_can_grow_majority_never():
    # wait is the minority here; buy rows must be untouched
    ds = make_dataset(range(9), [1, 1, 1, 1, 1, 1, 0, 0, 0])
    out = oversample(ds, seed=5)
    wait, buy = class_counts(out)
    assert wait == buy == 6
    assert (out.label_class[len(ds):] == 0).all()


# -- clustering internals ---------------------------------------------------


def test_class_mean_init_centers():
    X = np.array([[0.0, 0.0], [2.0, 2.0], [10.0, 10.0], [14.0, 14.0]])
    y = np.array([0, 0, 1, 1])
    init = class_mean_init(X, y)
    assert np.allclose(init.centers[0], [1, 1])
    assert np.allclose(init.centers[1], [12, 12])
    assert init.counts.tolist() == [2, 2]


def test_kmeans_objective_monotone():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, (60, 3)), rng.normal(4, 1, (60, 3))])
    y = np.array([0] * 60 + [1] * 60)
    fit = kmeans2(X, class_mean_init(X, y))
    hist = fit.objective_history
    assert len(hist) >= 1
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
    assert fit.converged


def test_kmeans_assignment_tie_goes_low():
    X = np.array([[0.0], [2.0], [1.0]])  # last point equidistant
    init = ClusterInit(centers=np.array([[0.0], [2.0]]), counts=np.array([1, 1]))
    fit = kmeans2(X, init, max_iter=0)
    assert fit.assignments[2] == 0


def test_gmm_loglik_monotone():
    rng = np.random.default_rng(1)
    X = np.vstack([rng.normal(0, 1, (80, 2)), rng.normal(5, 1, (80, 2))])
    y = np.array([0] * 80 + [1] * 80)
    fit = gmm_em2(X, class_mean_init(X, y), y=y)
    hist = fit.loglik_history
    assert len(hist) >= 2
    assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))
    assert fit.converged


def reference_log_gaussian(X, mean, cov):
    """Gaussian log-density by a linear solve against every row and slogdet:
    the oracle for the Cholesky form in ``_log_gaussian``."""
    d = X.shape[1]
    diff = X - mean
    solved = np.linalg.solve(cov, diff.T).T
    maha = (diff * solved).sum(axis=1)
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (d * math.log(2.0 * math.pi) + logdet + maha)


def standardized(X):
    std = X.std(axis=0)
    return (X - X.mean(axis=0)) / np.where(std == 0.0, 1.0, std)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), n=st.integers(1, 120),
       rank=st.integers(0, 5), tied=st.booleans())
def test_cholesky_log_gaussian_matches_solve(seed, d, n, rank, tied):
    # A class covariance as gmm_em2 builds it: class rows of a standardized
    # matrix, plus COV_REG. The class spans ``rank`` random directions (fewer
    # than d, or fewer than d + 1 rows, makes it rank-deficient), and ``tied``
    # puts one raw feature equal to another within the class, as
    # current_price == min_price_so_far holds on every BUY row.
    rng = np.random.default_rng(seed)
    rank = min(rank, d)
    raw = rng.normal(0.0, 1.0, (n + 50, d)) * 10.0 ** rng.uniform(-1, 2, d)
    raw[:n] = rng.normal(0.0, 1.0, (n, rank)) @ rng.normal(0.0, 3.0, (rank, d)) + raw[0]
    if tied and d > 1:
        i, j = rng.choice(d, 2, replace=False)
        raw[:n, j] = raw[:n, i]
    X = standardized(raw)
    cov = np.cov(X[:n].T, bias=True).reshape(d, d) + COV_REG * np.eye(d)
    for mean in (X[:n].mean(axis=0), rng.normal(0.0, 1.0, d)):
        ref = reference_log_gaussian(X, mean, cov)
        # Both forms carry a relative error of order eps * cond(cov): on a
        # class with an exact linear relation (cond ~ 1e6) each is off a
        # 50-digit evaluation by up to a few 1e-10, so a fixed 1e-10 bound
        # holds only on well-conditioned covariances.
        tol = 16 * np.finfo(float).eps * np.linalg.cond(cov)
        assert np.all(np.abs(_log_gaussian(X - mean, cov) - ref) <= tol * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("d", range(1, 8))
def test_squared_norms_add_in_the_order_of_a_row_sum(d):
    rng = np.random.default_rng(d)
    A = rng.normal(0.0, 1.0, (40, d)) * 10.0 ** rng.uniform(-8, 8, (40, d))
    assert np.array_equal(_squared_norms(A), (A * A).sum(axis=1))


def assert_fits_equal(fit, oracle):
    """Every field of two KMeansFit or GmmFit instances holds the same bits."""
    for name, value in vars(oracle).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(fit, name), value), name
        else:
            assert getattr(fit, name) == value, name


def labeled_classes(seed, d, n_wait, n_buy, rank, tied):
    """Standardized rows of two labeled classes. The BUY class spans ``rank``
    random directions (fewer than d, or fewer than d + 1 rows, makes it
    rank-deficient), and ``tied`` copies one raw feature into another on it,
    as current_price == min_price_so_far holds on every BUY row."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(0.0, 1.0, (n_wait + n_buy, d)) * 10.0 ** rng.uniform(-1, 2, d)
    buy = rng.normal(0.0, 1.0, (n_buy, rank)) @ rng.normal(0.0, 3.0, (rank, d))
    raw[n_wait:] = buy + rng.normal(0.0, 2.0, d)
    if tied and d > 1:
        i, j = rng.choice(d, 2, replace=False)
        raw[n_wait:, j] = raw[n_wait:, i]
    y = np.repeat([0, 1], [n_wait, n_buy])
    order = rng.permutation(len(y))
    return standardized(raw[order]), y[order]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), n_wait=st.integers(1, 200),
       n_buy=st.integers(1, 200), rank=st.integers(0, 5), tied=st.booleans(),
       max_iter=st.integers(1, 100))
def test_column_layout_fits_equal_the_row_major_oracles(seed, d, n_wait, n_buy, rank, tied,
                                                         max_iter):
    X, y = labeled_classes(seed, d, n_wait, n_buy, min(rank, d), tied)
    init = class_mean_init(X, y)
    assert_fits_equal(gmm_em2(X, init, y=y, max_iter=max_iter),
                      row_major_gmm_em2(X, init, y=y, max_iter=max_iter))
    assert_fits_equal(kmeans2(X, init, max_iter=max_iter),
                      row_major_kmeans2(X, init, max_iter=max_iter))


def test_column_layout_fits_equal_the_oracles_on_a_bench_fold(default_corpus):
    """A training fold shaped like those of the bench ``tune`` workload: four
    of five folds of the default corpus's training series, 17,280 rows of 5
    continuous columns."""
    cfg, series = default_corpus
    train, _ = split(series, default_split_for(cfg))
    ds = build_dataset(train, route_order(series), corpus_anchor(series), role="train")
    held_out = np.isin(ds.series, cv_folds(len(ds.keys), k=5, seed=0)[0])
    fold = ds.take(~held_out)
    X, y = continuous_matrix(fold.X), fold.label_class
    assert X.shape == (17_280, 5)
    init = class_mean_init(X, y)
    assert_fits_equal(gmm_em2(X, init, y=y), row_major_gmm_em2(X, init, y=y))
    assert_fits_equal(kmeans2(X, init), row_major_kmeans2(X, init))


def gaussian_classes(seed, d, n_per, sep, swap_frac):
    """Two labeled Gaussian classes in d dimensions, each spanning all of
    them, with a fraction of labels swapped."""
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0.0, 1.0, (n_per, d)),
                   rng.normal(sep, rng.uniform(0.5, 2.0), (n_per, d))])
    y = np.repeat([0, 1], n_per)
    swapped = rng.random(len(y)) < swap_frac
    y[swapped] ^= 1
    return standardized(X), y


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), n_per=st.integers(20, 150),
       sep=st.floats(0.0, 4.0), swap_frac=st.floats(0.0, 0.3), max_iter=st.integers(1, 40))
def test_gmm_stops_exactly_when_the_relative_change_is_small(seed, d, n_per, sep, swap_frac,
                                                              max_iter):
    X, y = gaussian_classes(seed, d, n_per, sep, swap_frac)
    fit = gmm_em2(X, class_mean_init(X, y), y=y, max_iter=max_iter)
    hist = fit.loglik_history
    small = [abs(b - a) <= EM_TOL * abs(b) for a, b in zip(hist, hist[1:])]
    if fit.converged:
        # a fit may converge on its last allowed iteration
        assert len(hist) <= max_iter
        assert small and small[-1] and not any(small[:-1])
    else:
        assert len(hist) == max_iter
        assert not any(small)
    # Each class spans all d dimensions, so the COV_REG ridge barely moves
    # the M-step off the maximum.
    assert all(b >= a - EM_TOL * abs(b) for a, b in zip(hist, hist[1:]))


@pytest.mark.parametrize("seed", range(5))
def test_gmm_converges_with_a_class_on_a_line(seed):
    # Like the BUY class, whose current price always equals its minimum so
    # far: the class covariance is singular but for COV_REG.
    rng = np.random.default_rng(seed)
    t = rng.normal(0.0, 1.0, 200)
    X = standardized(np.vstack([rng.normal(0.0, 1.0, (800, 2)) + [1.5, -1.5],
                                np.column_stack([t, t])]))
    y = np.repeat([0, 1], [800, 200])
    fit = gmm_em2(X, class_mean_init(X, y), y=y)
    assert fit.converged
    assert len(fit.loglik_history) < 100


def test_gmm_survives_duplicated_points():
    # oversampling-style duplicates make covariances near-singular
    base = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    X = np.repeat(base, 12, axis=0)
    y = np.repeat(np.array([0, 0, 1, 1]), 12)
    fit = gmm_em2(X, class_mean_init(X, y), y=y)
    assert np.isfinite(fit.loglik_history).all()


# -- outlier removal --------------------------------------------------------


@pytest.mark.parametrize("method", ["kmeans", "em"])
def test_planted_mislabels_recovered(method):
    ds, swapped = blob_dataset(seed=0)
    kept, removed = remove_outliers(ds, method=method)
    removed_idx = set(removed.series.tolist())
    recall = len(removed_idx & swapped) / len(swapped)
    assert recall >= 0.95


@pytest.mark.parametrize("method", ["kmeans", "em"])
def test_clean_blobs_nothing_removed(method):
    ds, _ = blob_dataset(seed=1, swap_frac=0.0)
    kept, removed = remove_outliers(ds, method=method)
    assert len(removed) == 0
    assert np.array_equal(kept.series, ds.series)
    assert np.array_equal(kept.X, ds.X)


@pytest.mark.parametrize("method", ["kmeans", "em"])
def test_partition_property(method):
    ds, _ = blob_dataset(seed=2)
    kept, removed = remove_outliers(ds, method=method)
    assert len(kept) + len(removed) == len(ds)
    assert set(kept.series.tolist()).isdisjoint(set(removed.series.tolist()))
    assert Counter(kept.series.tolist()) + Counter(removed.series.tolist()) == Counter(
        ds.series.tolist())
    assert np.array_equal(kept.X, ds.X[kept.series])
    assert np.array_equal(removed.X, ds.X[removed.series])


def test_remove_outliers_single_class_raises():
    with pytest.raises(SingleClassDataset):
        remove_outliers(make_dataset(range(6), [1] * 6))


def test_remove_outliers_unknown_method():
    ds, _ = blob_dataset(seed=3)
    from farecast.core import FarecastError

    with pytest.raises(FarecastError):
        remove_outliers(ds, method="dbscan")


def test_no_convergence_warns_but_returns(caplog):
    ds, _ = blob_dataset(seed=4)
    with caplog.at_level(logging.WARNING):
        kept, removed = remove_outliers(ds, method="em", max_iter=1)
    assert len(kept) + len(removed) == len(ds)
    assert any("converge" in r.message for r in caplog.records)


@pytest.mark.parametrize("method, name", [("em", "EM"), ("kmeans", "k-means")])
def test_unconverged_fit_warns_once(caplog, method, name):
    ds, _ = blob_dataset(seed=4)
    with caplog.at_level(logging.WARNING):
        remove_outliers(ds, method=method, max_iter=1)
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert warnings == [f"{name} did not converge in 1 iterations"]


def test_continuous_matrix_standardized():
    ds = make_dataset([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
    Z = continuous_matrix(ds.X)
    assert Z.shape == (4, 5)
    assert np.allclose(Z.mean(axis=0), 0, atol=1e-12)
