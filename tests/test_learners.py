"""Low-level learner cores, exercised directly on numeric arrays."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farecast.core import FarecastError
from farecast.learners.boosting import AdaBoostClassifier, AdaBoostRegressor
from farecast.learners.forest import RandomForest, default_mtry
from farecast.learners.knn import Knn, TooFewRows
from farecast.learners.linear import LeastSquares, Logistic
from farecast.learners.mlp import Mlp3
from farecast.learners import tree as tree_module
from farecast.learners.tree import _EPS, Cart, ColumnCodes, distinct_rows
from farecast.util import to_jsonable

from conftest import coef_original, level_walk_scores


# -- least squares ----------------------------------------------------------


def test_least_squares_exact_on_linear_data():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([2.0, 4.0, 6.0])
    model = LeastSquares(standardize=True).fit(X, y)
    intercept, slopes = coef_original(model)
    assert abs(slopes[0] - 2.0) < 1e-9
    assert abs(intercept) < 1e-9
    assert np.allclose(model.predict(X), y, atol=1e-9)


def test_least_squares_multifeature_exact():
    rng = np.random.default_rng(0)
    X = rng.normal(0, 5, (50, 4))
    true = np.array([1.5, -2.0, 0.0, 3.25])
    y = X @ true + 7.0
    model = LeastSquares(standardize=True).fit(X, y)
    intercept, slopes = coef_original(model)
    assert np.allclose(slopes, true, atol=1e-8)
    assert abs(intercept - 7.0) < 1e-8


def test_least_squares_survives_collinear_columns():
    # duplicated column makes the normal equations singular without jitter
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, 30)
    X = np.column_stack([x, x])
    y = 3 * x + 1
    model = LeastSquares(standardize=True).fit(X, y)
    assert np.allclose(model.predict(X), y, atol=1e-6)


def test_least_squares_json_round_trip():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([2.0, 4.0, 6.0])
    model = LeastSquares(standardize=True).fit(X, y)
    clone = LeastSquares.from_jsonable(to_jsonable(model), X.shape[1])
    assert np.array_equal(model.predict(X), clone.predict(X))


# -- logistic ---------------------------------------------------------------


def separable_blobs(seed=0, n=40):
    rng = np.random.default_rng(seed)
    a = rng.normal([-3, -3], 0.5, (n, 2))
    b = rng.normal([3, 3], 0.5, (n, 2))
    X = np.vstack([a, b])
    y = np.array([0] * n + [1] * n)
    return X, y


def perceptron_separable(X, y, max_epochs=200):
    """Independent separability oracle: perceptron converges iff separable."""
    Xb = np.hstack([X, np.ones((len(X), 1))])
    s = 2 * y - 1
    w = np.zeros(Xb.shape[1])
    for _ in range(max_epochs):
        changed = False
        for i in range(len(Xb)):
            if s[i] * (Xb[i] @ w) <= 0:
                w = w + s[i] * Xb[i]
                changed = True
        if not changed:
            return True
    return False


def test_logistic_separable_reaches_accuracy_one():
    X, y = separable_blobs()
    assert perceptron_separable(X, y)
    model = Logistic(grad_tol=1e-6, max_iter=1000).fit(X, y)
    assert np.array_equal(model.predict(X), y)


def test_logistic_loss_non_increasing():
    X, y = separable_blobs(seed=2)
    model = Logistic(max_iter=300, grad_tol=1e-6).fit(X, y)
    hist = model.loss_history
    assert len(hist) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


def test_logistic_zero_coef_predicts_wait():
    X, y = separable_blobs(seed=3)
    model = Logistic(max_iter=0, grad_tol=1e-6).fit(X, y)
    assert np.allclose(model.predict_scores(X), 0.5)
    assert not model.predict(X).any()  # p == 0.5 is not a buy


def test_logistic_scores_far_from_the_boundary_are_0_and_1_without_a_warning():
    # exp(-z) overflows below z of about -709; RuntimeWarnings are errors here
    X, y = separable_blobs(seed=3)
    model = Logistic(max_iter=0, grad_tol=1e-6).fit(X, y)
    model.coef = np.zeros(X.shape[1] + 1)
    model.coef[1] = 1.0
    far = np.zeros((2, X.shape[1]))
    far[:, 0] = [-1000.0, 1000.0]
    assert model.predict_scores(far).tolist() == [0.0, 1.0]


def test_logistic_converges_flag():
    X, y = separable_blobs(seed=4, n=20)
    model = Logistic(grad_tol=1e-4, max_iter=5000).fit(X, y)
    assert model.converged


def test_logistic_json_round_trip():
    X, y = separable_blobs(seed=5)
    model = Logistic(grad_tol=1e-6, max_iter=1000).fit(X, y)
    clone = Logistic.from_jsonable(to_jsonable(model), X.shape[1])
    assert np.array_equal(model.predict_scores(X), clone.predict_scores(X))


# -- MLP --------------------------------------------------------------------


def mlp_gradient_error(net, X, y, eps=1e-6) -> float:
    """Relative distance of the analytic gradient from central differences of
    ``net.loss`` in w1, b1, w2 and b2, both flattened in that order."""
    def central(set_value, value):
        set_value(value + eps)
        up = net.loss(X, y)
        set_value(value - eps)
        down = net.loss(X, y)
        set_value(value)
        return (up - down) / (2 * eps)

    fd = []
    for flat in (net.w1.reshape(-1), net.b1, net.w2):  # views, so a write reaches the net
        fd += [central(lambda v: flat.__setitem__(i, v), flat[i]) for i in range(flat.size)]
    fd.append(central(lambda v: setattr(net, "b2", v), net.b2))
    grad = np.concatenate([np.ravel(g) for g in net.grads(X, y)])
    return np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_mlp_gradient_matches_finite_differences(task):
    rng = np.random.default_rng(6)
    X = rng.normal(0, 1, (12, 4))
    y = (rng.random(12) > 0.5).astype(float) if task == "classification" else rng.normal(0, 1, 12)
    net = Mlp3(task=task, hidden=5, epochs=0, lr=0.01, batch_size=32)
    net.fit(X, y, seed=0)  # epochs=0: init only
    assert mlp_gradient_error(net, X, y) < 1e-4


def test_mlp_learns_a_simple_function():
    rng = np.random.default_rng(7)
    X = rng.normal(0, 1, (200, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    net = Mlp3(task="classification", hidden=8, lr=0.1, epochs=300, batch_size=32)
    net.fit(X, y, seed=1)
    acc = (net.predict(X) == y).mean()
    assert acc > 0.95


def test_mlp_loss_history_tracks_epochs():
    rng = np.random.default_rng(8)
    X = rng.normal(0, 1, (40, 3))
    y = rng.normal(0, 1, 40)
    net = Mlp3(task="regression", hidden=4, epochs=25, lr=0.01, batch_size=32).fit(X, y, seed=0)
    assert len(net.loss_history) == 25
    assert net.loss_history[-1] < net.loss_history[0]


def test_a_diverging_mlp_fit_raises_naming_the_epoch():
    # The suite turns RuntimeWarnings into errors: the overflow must not surface first.
    rng = np.random.default_rng(8)
    X = rng.normal(0, 1, (40, 3))
    y = rng.normal(0, 1, 40)
    net = Mlp3(task="regression", hidden=4, epochs=50, lr=100.0, batch_size=32)
    with pytest.raises(FarecastError, match=r"mlp3 diverged: .* after epoch \d+ of 50"):
        net.fit(X, y, seed=0)


def test_mlp_deterministic_per_seed():
    rng = np.random.default_rng(9)
    X = rng.normal(0, 1, (30, 3))
    y = rng.normal(0, 1, 30)
    a = Mlp3(task="regression", hidden=4, epochs=10, lr=0.01, batch_size=32).fit(X, y, seed=5)
    b = Mlp3(task="regression", hidden=4, epochs=10, lr=0.01, batch_size=32).fit(X, y, seed=5)
    assert np.array_equal(a.predict(X), b.predict(X))


def test_mlp_json_round_trip():
    rng = np.random.default_rng(10)
    X = rng.normal(0, 1, (20, 3))
    y = (X[:, 0] > 0).astype(int)
    net = Mlp3(task="classification", hidden=4, lr=0.01, epochs=20, batch_size=32).fit(
        X, y, seed=0)
    clone = Mlp3.from_jsonable(to_jsonable(net), X.shape[1])
    assert np.array_equal(net.predict_scores(X), clone.predict_scores(X))


# -- CART -------------------------------------------------------------------


def test_cart_simple_threshold():
    X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    tree = Cart(task="classification", max_depth=None, min_leaf=1).fit(X, y)
    assert np.array_equal(tree.predict(X), y)
    assert np.array_equal(tree.predict(np.array([[5.0]])), [0])  # left of midpoint 6.5
    assert np.array_equal(tree.predict(np.array([[8.0]])), [1])


def test_cart_split_at_midpoint_left_inclusive():
    X = np.array([[1.0], [3.0]])
    y = np.array([0, 1])
    tree = Cart(task="classification", max_depth=None, min_leaf=1).fit(X, y)
    # boundary value 2.0 == midpoint goes left
    assert tree.predict(np.array([[2.0]]))[0] == 0
    assert tree.predict(np.array([[2.0001]]))[0] == 1


def test_cart_max_depth_zero_is_a_leaf():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([0, 1, 1])
    tree = Cart(task="classification", max_depth=0, min_leaf=1).fit(X, y)
    assert len(tree.feature) == 1  # single node
    assert np.array_equal(tree.predict(X), [1, 1, 1])


def test_cart_leaf_tie_predicts_wait():
    X = np.array([[1.0], [1.0]])
    y = np.array([0, 1])  # unsplittable, p = 0.5
    tree = Cart(task="classification", max_depth=None, min_leaf=1).fit(X, y)
    assert tree.predict(np.array([[1.0]]))[0] == 0


def test_cart_min_leaf_respected():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.array([0] * 9 + [1])
    tree = Cart(task="classification", min_leaf=3, max_depth=None).fit(X, y)
    # the lone positive cannot be isolated: every leaf carries >= 3 rows
    counts = np.bincount(_leaf_of(tree, X), minlength=len(tree.feature))
    for node, cnt in enumerate(counts):
        if tree.feature[node] == -1 and cnt:
            assert cnt >= 3


def _leaf_of(tree, X):
    out = []
    for x in X:
        node = 0
        while tree.feature[node] != -1:
            node = tree.left[node] if x[tree.feature[node]] <= tree.threshold[node] else tree.right[node]
        out.append(node)
    return np.array(out)


def _weighted_impurity(tree, X, y, w):
    """Recompute impurity decrease at every internal node; must be positive."""
    node_rows = {0: np.arange(len(X))}
    stack = [0]
    decreases = []
    while stack:
        node = stack.pop()
        rows = node_rows[node]
        if tree.feature[node] == -1:
            continue
        f, thr = tree.feature[node], tree.threshold[node]
        go_left = X[rows, f] <= thr
        l_rows, r_rows = rows[go_left], rows[~go_left]
        node_rows[tree.left[node]] = l_rows
        node_rows[tree.right[node]] = r_rows
        stack += [tree.left[node], tree.right[node]]

        def gini(idx):
            ww = w[idx]
            tot = ww.sum()
            if tot == 0:
                return 0.0
            p = ww[y[idx] == 1].sum() / tot
            return 2 * p * (1 - p)

        tot = w[rows].sum()
        parent = gini(rows)
        child = (w[l_rows].sum() * gini(l_rows) + w[r_rows].sum() * gini(r_rows)) / tot
        decreases.append(parent - child)
    return decreases


def test_cart_every_split_strictly_reduces_impurity():
    rng = np.random.default_rng(11)
    X = rng.normal(0, 1, (120, 3))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0.5)).astype(int)
    w = np.ones(len(y)) / len(y)
    tree = Cart(task="classification", max_depth=6, min_leaf=1).fit(X, y)
    decreases = _weighted_impurity(tree, X, y, w)
    assert decreases  # the pattern is splittable
    assert all(d > 0 for d in decreases)


def test_cart_zero_weight_rows_are_ignored():
    X = np.array([[1.0], [2.0], [3.0], [3.0]])
    y = np.array([0, 0, 1, 0])  # last row contradicts, but carries no weight
    w = np.array([1.0, 1.0, 1.0, 0.0])
    tree = Cart(task="classification", max_depth=None, min_leaf=1).fit(X, y, sample_weight=w)
    assert tree.predict(np.array([[3.0]]))[0] == 1


def test_cart_regression_variance_split():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([5.0, 5.0, 20.0, 22.0])
    tree = Cart(task="regression", max_depth=1, min_leaf=1).fit(X, y)
    assert tree.predict(np.array([[0.5]]))[0] == 5.0
    assert tree.predict(np.array([[10.5]]))[0] == 21.0  # leaf mean of {20, 22}


def test_cart_constant_target_single_leaf():
    X = np.arange(6, dtype=float).reshape(-1, 1)
    y = np.full(6, 9.5)
    tree = Cart(task="regression", max_depth=None, min_leaf=1).fit(X, y)
    assert len(tree.feature) == 1
    assert np.allclose(tree.predict(X), 9.5)


def as_matrix(X):
    """X itself, or the matrix a ``ColumnCodes`` was coded from."""
    if isinstance(X, ColumnCodes):
        return np.column_stack([v[c] for v, c in zip(X.values, X.codes)])
    return np.asarray(X, dtype=float)


def reference_cart_fit(tree, X, y, sample_weight=None, rng=None):
    """The per-node mask split search over presorted rows, kept as the
    oracle for ``Cart.fit`` where every partial sum is exact.

    Every node rescans all n presorted rows of every candidate feature and
    scores every sorted position; fills ``tree`` in place, with
    ``fitted_value`` from ``predict_scores``, and returns it.
    """
    X = as_matrix(X)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    presorted = np.argsort(X, axis=0, kind="stable")

    def impurity_of(yv, wv, w_total):
        s = float((wv * yv).sum())
        if tree.task == "classification":
            return 2.0 * s * (w_total - s) / w_total
        q = float((wv * yv * yv).sum())
        return q - s * s / w_total

    def best_split(mask, parent_impurity):
        if tree.mtry is not None and tree.mtry < d:
            candidates = np.sort(rng.choice(d, size=tree.mtry, replace=False))
        else:
            candidates = np.arange(d)
        best = (parent_impurity - _EPS, -1, 0.0)
        for f in candidates:
            order = presorted[:, f]
            sel = order[mask[order]]
            xv = X[sel, f]
            if xv[0] == xv[-1]:
                continue
            wv = w[sel]
            sv = wv * y[sel]
            w_left = np.cumsum(wv)[:-1]
            s_left = np.cumsum(sv)[:-1]
            w_all, s_all = w_left[-1] + wv[-1], s_left[-1] + sv[-1]
            w_right = w_all - w_left
            s_right = s_all - s_left
            m = len(sel)
            counts = np.arange(1, m)
            valid = (xv[:-1] < xv[1:]) & (w_left > 0) & (w_right > 0)
            if tree.min_leaf > 1:
                valid &= (counts >= tree.min_leaf) & (m - counts >= tree.min_leaf)
            if not valid.any():
                continue
            if tree.task == "classification":
                with np.errstate(divide="ignore", invalid="ignore"):
                    score = (2.0 * s_left * (w_left - s_left) / w_left
                             + 2.0 * s_right * (w_right - s_right) / w_right)
            else:
                qv = wv * y[sel] * y[sel]
                q_left = np.cumsum(qv)[:-1]
                q_right = (q_left[-1] + qv[-1]) - q_left
                with np.errstate(divide="ignore", invalid="ignore"):
                    score = (q_left - s_left * s_left / w_left) + (q_right - s_right * s_right / w_right)
            score = np.where(valid, score, np.inf)
            i = int(np.argmin(score))
            if score[i] < best[0]:
                best = (float(score[i]), int(f), float((xv[i] + xv[i + 1]) / 2.0))
        return None if best[1] < 0 else (best[1], best[2])

    tree.feature, tree.threshold = [], []
    tree.left, tree.right, tree.value = [], [], []
    depth_cap = tree.max_depth if tree.max_depth is not None else 30
    stack = [(tree._new_node(), np.ones(n, dtype=bool), 0)]
    while stack:
        node_id, mask, depth = stack.pop()
        idx = np.flatnonzero(mask)
        wv, yv = w[idx], y[idx]
        w_total = wv.sum()
        tree.value[node_id] = float((wv * yv).sum() / w_total) if w_total > 0 else float(yv.mean())
        if depth >= depth_cap or len(idx) < 2 * tree.min_leaf:
            continue
        impurity = impurity_of(yv, wv, w_total)
        if impurity <= _EPS:
            continue
        split = best_split(mask, impurity)
        if split is None:
            continue
        f, thr = split
        tree.feature[node_id] = f
        tree.threshold[node_id] = thr
        tree.left[node_id] = tree._new_node()
        tree.right[node_id] = tree._new_node()
        stack.append((tree.right[node_id], mask & (X[:, f] > thr), depth + 1))
        stack.append((tree.left[node_id], mask & (X[:, f] <= thr), depth + 1))
    tree.fitted_value = tree.predict_scores(X)
    return tree


def histogram_reference_fit(tree, X, y, sample_weight=None, rng=None):
    """The per-node mask split search that sums in ``Cart.fit``'s order,
    kept as its oracle for any weights.

    Every node bins its rows (a boolean mask over all n) per feature, one
    bin per distinct value of X, adding rows in ascending index; the larger
    child of a split takes its parent's bins minus the smaller child's when
    every feature is a candidate. Running sums restart at each feature and
    skip empty bins. Fills ``tree`` in place, with ``fitted_value`` from
    ``predict_scores``, and returns it.
    """
    X = as_matrix(X)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
    values, codes = zip(*(np.unique(column, return_inverse=True) for column in X.T))
    row_sums = [w, w * y] if tree.task == "classification" else [w, w * y, w * y * y]

    def bin_rows(mask):
        """Per feature: the count and each row sum of every bin."""
        return [[np.bincount(codes[f][mask], minlength=len(values[f]))]
                + [np.bincount(codes[f][mask], weights=r[mask], minlength=len(values[f]))
                   for r in row_sums] for f in range(d)]

    def best_split(hist, m, candidates, parent_impurity):
        best = (parent_impurity - _EPS, -1, 0.0)
        for f in candidates:
            count, *bin_sums = hist[f]
            held = np.flatnonzero(count)
            if len(held) < 2:
                continue
            w_left, s_left, *q_left = [np.cumsum(b[held]) for b in bin_sums]
            w_right, s_right = w_left[-1] - w_left, s_left[-1] - s_left
            counts = np.cumsum(count[held])
            valid = (w_left > 0) & (w_right > 0)
            valid &= (counts >= tree.min_leaf) & (m - counts >= tree.min_leaf)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                if tree.task == "classification":
                    score = (2.0 * s_left * (w_left - s_left) / w_left
                             + 2.0 * s_right * (w_right - s_right) / w_right)
                else:
                    q_right = q_left[0][-1] - q_left[0]
                    score = ((q_left[0] - s_left * s_left / w_left)
                             + (q_right - s_right * s_right / w_right))
            score = np.where(valid, score, np.inf)
            i = int(np.argmin(score))
            if score[i] < best[0]:
                thr = (values[f][held[i]] + values[f][held[i + 1]]) / 2.0
                best = (float(score[i]), int(f), float(thr))
        return None if best[1] < 0 else (best[1], best[2])

    tree.feature, tree.threshold = [], []
    tree.left, tree.right, tree.value = [], [], []
    depth_cap = tree.max_depth if tree.max_depth is not None else 30
    stack = [(tree._new_node(), np.ones(n, dtype=bool), 0, None)]
    while stack:
        node_id, mask, depth, hist = stack.pop()
        idx = np.flatnonzero(mask)
        wv, yv = w[idx], y[idx]
        w_total = wv.sum()
        s = float((wv * yv).sum())
        tree.value[node_id] = float(s / w_total) if w_total > 0 else float(yv.mean())
        if depth >= depth_cap or len(idx) < 2 * tree.min_leaf:
            continue
        if tree.task == "classification":
            impurity = 2.0 * s * (w_total - s) / w_total
        else:
            impurity = float((wv * yv * yv).sum()) - s * s / w_total
        if impurity <= _EPS:
            continue
        if tree.mtry is not None and tree.mtry < d:
            candidates = np.sort(rng.choice(d, size=tree.mtry, replace=False))
        else:
            candidates = np.arange(d)
        hist = bin_rows(mask) if hist is None else hist
        split = best_split(hist, len(idx), candidates, impurity)
        if split is None:
            continue
        f, thr = split
        tree.feature[node_id] = f
        tree.threshold[node_id] = thr
        tree.left[node_id] = tree._new_node()
        tree.right[node_id] = tree._new_node()
        masks = [mask & (X[:, f] <= thr), mask & (X[:, f] > thr)]
        hists = [None, None]
        small = 0 if masks[0].sum() < masks[1].sum() else 1
        if tree.mtry is None:
            hists[small] = bin_rows(masks[small])
            hists[1 - small] = [[p - c for p, c in zip(parent, child)]
                                for parent, child in zip(hist, hists[small])]
        stack.append((tree.right[node_id], masks[1], depth + 1, hists[1]))
        stack.append((tree.left[node_id], masks[0], depth + 1, hists[0]))
    tree.fitted_value = tree.predict_scores(X)
    return tree


@st.composite
def cart_problems(draw, exact=False):
    """Small weighted matrices with constant, binary and heavily tied columns.
    With ``exact``, weights and targets are integers, so every partial sum
    is exact whatever its grouping."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 150))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(seed)
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["normal", "tied", "binary", "constant"]))
        if kind == "normal":
            columns.append(rng.normal(0.0, 1.0, n))
        elif kind == "tied":
            columns.append(np.round(rng.normal(0.0, 1.0, n), 1))
        elif kind == "binary":
            columns.append(rng.integers(0, 2, n).astype(float))
        else:
            columns.append(np.full(n, 3.5))
    X = np.column_stack(columns)
    task = draw(st.sampled_from(["classification", "regression"]))
    if task == "classification":
        y = rng.integers(0, 2, n).astype(float)
    else:
        y = np.round(rng.normal(0.0, 2.0, n), 0 if exact else draw(st.sampled_from([0, 3])))
    # Tenths are inexact in binary, so the grouping of their sums decides
    # near-ties that integer weights would make exact.
    weights = draw(st.sampled_from(["unit", "integer"] if exact else ["unit", "random", "tenths"]))
    if weights == "unit":
        w = np.ones(n)
    elif weights == "integer":
        w = rng.integers(1, 4, n).astype(float)
    elif weights == "random":
        w = rng.random(n)
    else:
        w = rng.integers(1, 4, n) / 10.0
    if draw(st.booleans()):
        w[rng.random(n) < 0.3] = 0.0
    if not w.any():
        w[0] = 1.0
    max_depth = draw(st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6]))
    min_leaf = draw(st.integers(1, 4))
    mtry = draw(st.one_of(st.none(), st.integers(1, d)))
    return X, y, w, task, max_depth, min_leaf, mtry, seed


def fit_both(problem, reference):
    X, y, w, task, max_depth, min_leaf, mtry, seed = problem
    fitted = []
    for fit in (Cart.fit, reference):
        tree = Cart(task=task, max_depth=max_depth, min_leaf=min_leaf, mtry=mtry)
        rng = np.random.default_rng(seed) if mtry is not None else None
        fit(tree, X, y, sample_weight=w, rng=rng)
        fitted.append(to_jsonable(tree))
    return fitted


@st.composite
def trees_and_rows(draw):
    """(tree, X): a single leaf, a full depth-3 tree, or a ragged tree up to
    depth 14, whose thresholds and rows come from one grid of a few values,
    so rows fall on thresholds; from 0 rows to past three partition cutoffs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth, split_prob = draw(st.sampled_from([(0, 1.0), (3, 1.0), (14, 0.8)]))
    d = draw(st.integers(1, 5))
    grid = np.round(rng.normal(0.0, 1.0, draw(st.integers(1, 8))), 1)
    tree = Cart("regression", None, 1)
    frontier = [(tree._new_node(), 0)]  # nodes numbered level by level
    while frontier:
        node, at = frontier.pop(0)
        tree.value[node] = float(rng.normal())
        if at < depth and rng.random() < split_prob:
            tree.feature[node] = int(rng.integers(d))
            tree.threshold[node] = float(rng.choice(grid))
            tree.left[node], tree.right[node] = tree._new_node(), tree._new_node()
            frontier += [(tree.left[node], at + 1), (tree.right[node], at + 1)]
    n = draw(st.integers(0, 3 * tree_module._PARTITION_MIN_ROWS))
    return tree, rng.choice(grid, (n, d))


@settings(max_examples=150, deadline=None)
@given(trees_and_rows())
@example((Cart("regression", None, 1, feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0],
               left=[1, -1, -1], right=[2, -1, -1], value=[0.0, 1.0, 2.0]), np.empty((0, 1))))
@example((Cart("regression", None, 1, feature=[-1], threshold=[0.0], left=[-1], right=[-1],
               value=[3.0]), np.empty((0, 2))))
def test_partition_descent_predicts_as_the_level_walk(tree_and_rows):
    tree, X = tree_and_rows
    got = tree.predict_scores(X)
    assert got.dtype == float and got.tobytes() == level_walk_scores(tree, X).tobytes()


@settings(max_examples=300, deadline=None)
@given(cart_problems(exact=True))
def test_cart_fit_matches_the_presorted_reference_where_sums_are_exact(problem):
    # Integer weights and targets: only the grouping of the partial sums
    # changed from the presorted search, so the trees must be the same.
    fast, slow = fit_both(problem, reference_cart_fit)
    assert fast == slow


# Children of equal size, where the histogram subtracted and the one
# binned decide the bits of a near-tie.
EVEN_SPLIT = (np.array([[0, 1, 1, 1, 1], [0, 0, 0, 1, 0], [1, 1, 0, 1, 1], [0, 1, 1, 0, 1],
                        [0, 0, 0, 1, 0], [0, 0, 1, 0, 1], [0, 0, 0, 0, 1], [1, 1, 0, 0, 1]],
                       dtype=float),
              np.array([1.0, -2.0, 2.0, -1.0, -2.0, 2.0, 1.0, 0.0]),
              np.array([0.2, 0.3, 0.3, 0.3, 0.1, 0.2, 0.2, 0.1]),
              "regression", 4, 1, None, 0)

# Constant columns around and between the ones that split, like the route
# dummies of a single-route fit: no column is binned that has no cut.
_rng = np.random.default_rng(17)
CONSTANT_COLUMNS = (np.column_stack([np.full(60, 1.0), np.round(_rng.normal(0, 1, 60), 1),
                                     np.zeros(60), np.zeros(60), _rng.integers(0, 2, 60),
                                     np.full(60, -2.5)]).astype(float),
                    _rng.integers(0, 2, 60).astype(float), _rng.random(60),
                    "classification", None, 1, None, 0)


@settings(max_examples=300, deadline=None)
@given(cart_problems())
@example(EVEN_SPLIT)
@example(CONSTANT_COLUMNS)
def test_cart_fit_matches_the_per_node_mask_reference(problem):
    fast, slow = fit_both(problem, histogram_reference_fit)
    assert fast == slow


def test_even_split_bins_one_child_and_subtracts_the_other(monkeypatch):
    calls = {}
    for name in ("_bins", "_minus"):
        def spy(*args, _name=name, _fn=getattr(tree_module, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(tree_module, name, spy)
    X, y, w, task, max_depth, min_leaf, mtry, seed = EVEN_SPLIT
    tree = Cart(task=task, max_depth=max_depth, min_leaf=min_leaf).fit(X, y, sample_weight=w)
    assert tree.feature[0] >= 0
    # The root, then one binned child per subtracted one.
    assert calls["_minus"] >= 1
    assert calls["_bins"] >= 1 + calls["_minus"]


def test_adaboost_matches_boosting_over_reference_trees(monkeypatch):
    rng = np.random.default_rng(21)
    X = np.column_stack([rng.normal(0, 1, 300), np.round(rng.normal(0, 1, 300), 1),
                         rng.integers(0, 2, 300).astype(float), np.zeros(300)])
    y = ((X[:, 0] + X[:, 1] > 0.3) ^ (rng.random(300) < 0.15)).astype(int)
    fast = AdaBoostClassifier(n_rounds=25, weak_depth=3, min_leaf=1).fit(X, y)
    monkeypatch.setattr(Cart, "fit", histogram_reference_fit)
    slow = AdaBoostClassifier(n_rounds=25, weak_depth=3, min_leaf=1).fit(X, y)
    assert fast.epsilons == slow.epsilons
    assert fast.train_errors == slow.train_errors
    assert to_jsonable(fast) == to_jsonable(slow)


def test_boosting_with_shared_codes_fits_the_trees_of_coding_per_tree(monkeypatch):
    rng = np.random.default_rng(22)
    X = np.column_stack([rng.normal(0, 1, 400), np.round(rng.normal(0, 1, 400), 1),
                         rng.integers(0, 2, (400, 3)).astype(float)])
    y = ((X[:, 0] - X[:, 1] > 0.2) ^ (rng.random(400) < 0.1)).astype(int)
    w = rng.random(400)
    shared = [AdaBoostClassifier(n_rounds=10, weak_depth=3, min_leaf=1).fit(X, y, sample_weight=w),
              AdaBoostRegressor(n_rounds=5, weak_depth=4, min_leaf=1).fit(
                  X, y + X[:, 0], sample_weight=w)]

    # Boosting whose every tree codes X again.
    fit = Cart.fit
    monkeypatch.setattr(Cart, "fit", lambda tree, X, *args, **kwargs:
                        fit(tree, as_matrix(X), *args, **kwargs))
    assert to_jsonable(AdaBoostClassifier(n_rounds=10, weak_depth=3, min_leaf=1).fit(
        X, y, sample_weight=w)) == to_jsonable(shared[0])
    assert to_jsonable(AdaBoostRegressor(n_rounds=5, weak_depth=4, min_leaf=1).fit(
        X, y + X[:, 0], sample_weight=w)) == to_jsonable(shared[1])


@settings(max_examples=150, deadline=None)
@given(cart_problems())
def test_cart_fitted_value_is_the_leaf_value_of_each_training_row(problem):
    X, y, w, task, max_depth, min_leaf, mtry, seed = problem
    tree = Cart(task=task, max_depth=max_depth, min_leaf=min_leaf, mtry=mtry)
    tree.fit(X, y, sample_weight=w, rng=np.random.default_rng(seed) if mtry else None)
    assert np.array_equal(tree.fitted_value, tree.predict_scores(X))


@st.composite
def repeated_rows(draw):
    """Matrices with few distinct values per column, so rows repeat, some
    with both labels."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(0, 60))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, draw(st.integers(1, 4)), (n, d)).astype(float)
    y = rng.integers(0, 2, n).astype(float)
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    return X, y


@settings(max_examples=200, deadline=None)
@given(repeated_rows())
def test_distinct_rows_are_first_occurrences_with_their_counts(problem):
    X, y = problem
    rows, counts = distinct_rows(X, y)
    assert np.all(np.diff(rows) > 0)  # original order
    pairs = [(tuple(X[i]), y[i]) for i in range(len(y))]
    firsts = {}
    for i, pair in enumerate(pairs):
        firsts.setdefault(pair, i)
    assert rows.tolist() == sorted(firsts.values())
    rebuilt = sorted(pair for i, k in zip(rows, counts) for pair in [pairs[i]] * k)
    assert rebuilt == sorted(pairs)


@settings(max_examples=150, deadline=None)
@given(repeated_rows(), st.sampled_from(["classification", "regression"]),
       st.sampled_from([None, 1, 2, 3]))
def test_cart_on_distinct_rows_equals_cart_on_the_copies(problem, task, max_depth):
    # Integer X and y and unit weights: every partial sum is exact, so the
    # weighted distinct rows must give the very same tree.
    X, y = problem
    if not len(y):
        return
    if task == "regression":
        y = y * 3.0 + X[:, 0]
    rows, counts = distinct_rows(X, y)
    copies = Cart(task=task, max_depth=max_depth, min_leaf=1).fit(X, y)
    weighted = Cart(task=task, max_depth=max_depth, min_leaf=1).fit(X[rows], y[rows],
                                                        sample_weight=counts.astype(float))
    assert to_jsonable(weighted) == to_jsonable(copies)


def test_cart_json_round_trip():
    rng = np.random.default_rng(12)
    X = rng.normal(0, 1, (60, 4))
    y = (X[:, 2] > 0.2).astype(int)
    tree = Cart(task="classification", max_depth=4, min_leaf=1).fit(X, y)
    clone = Cart.from_jsonable(to_jsonable(tree), X.shape[1])
    probe = rng.normal(0, 1, (30, 4))
    assert np.array_equal(tree.predict(probe), clone.predict(probe))


# -- AdaBoost classification -------------------------------------------------


def reference_adaboost_stumps(X, y, rounds):
    """Small independent implementation used as an oracle (1-D stumps only)."""
    x = X[:, 0]
    n = len(y)
    s = 2 * y - 1
    w = np.ones(n) / n
    committee = []
    thresholds = np.concatenate([[x.min() - 1], (np.sort(np.unique(x))[:-1] + np.sort(np.unique(x))[1:]) / 2, [x.max() + 1]])
    for _ in range(rounds):
        best = None
        for thr in thresholds:
            for pol in (1, -1):
                h = pol * np.where(x <= thr, -1, 1)
                err = w[(h != s)].sum()
                if best is None or err < best[0]:
                    best = (err, thr, pol)
        err, thr, pol = best
        if err >= 0.5:
            break
        if err == 0:
            committee = [(1.0, thr, pol)]
            break
        alpha = 0.5 * math.log((1 - err) / err)
        committee.append((alpha, thr, pol))
        h = pol * np.where(x <= thr, -1, 1)
        w = w * np.exp(-alpha * s * h)
        w = w / w.sum()
    margin = np.zeros(n)
    for alpha, thr, pol in committee:
        margin += alpha * pol * np.where(x <= thr, -1, 1)
    return (margin > 0).astype(int)


def test_adaboost_shatters_the_interleaved_pattern():
    # x in 1..8, buy at {1,2,5,6}: three stumps are provably needed
    X = np.arange(1, 9, dtype=float).reshape(-1, 1)
    y = np.array([1, 1, 0, 0, 1, 1, 0, 0])
    model = AdaBoostClassifier(n_rounds=10, weak_depth=1, min_leaf=1).fit(X, y)
    assert np.array_equal(model.predict(X), y)
    assert model.train_errors[-1] == 0.0
    # cross-check against the independent reference
    assert np.array_equal(reference_adaboost_stumps(X, y, 10), y)


def test_adaboost_per_round_invariants():
    rng = np.random.default_rng(13)
    X = rng.normal(0, 1, (300, 4))
    clean = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    flip = rng.random(300) < 0.08
    y = np.where(flip, 1 - clean, clean)
    model = AdaBoostClassifier(n_rounds=40, weak_depth=1, min_leaf=1).fit(X, y)
    assert len(model.epsilons) >= 5
    for eps in model.epsilons:
        assert eps < 0.5
    for err, bound in zip(model.train_errors, model.bounds):
        assert err <= bound


def test_adaboost_perfect_stump_collapses():
    X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0]])
    y = np.array([0, 0, 0, 1, 1])
    model = AdaBoostClassifier(n_rounds=25, weak_depth=1, min_leaf=1).fit(X, y)
    assert len(model.trees) == 1
    assert model.alphas == [1.0]
    assert model.epsilons[-1] == 0.0
    assert model.bounds[-1] == 0.0
    assert model.train_errors[-1] == 0.0
    assert model.stopped_early and "weak error 0" in model.stopped_early
    assert np.array_equal(model.predict(X), y)


def test_adaboost_stops_on_unlearnable_xor():
    # axis-aligned stumps are useless on XOR; first round fails at eps >= 0.5
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    model = AdaBoostClassifier(n_rounds=10, weak_depth=1, min_leaf=1).fit(X, y)
    assert model.trees == []
    assert model.stopped_early and ">= 0.5" in model.stopped_early
    # majority fallback: balanced classes tie -> wait
    assert not model.predict(X).any()


def test_adaboost_zero_margin_counts_as_wait():
    X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0]])
    y = np.array([0, 0, 0, 1, 1])
    model = AdaBoostClassifier(n_rounds=5, weak_depth=1, min_leaf=1).fit(X, y)
    model.trees = model.trees * 2
    model.alphas = [1.0, -1.0]  # force margin exactly 0
    assert not model.predict(X).any()


def test_adaboost_proba_centered_on_half():
    X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = AdaBoostClassifier(n_rounds=10, weak_depth=1, min_leaf=1).fit(X, y)
    p = model.predict_scores(X)
    assert ((0.0 <= p) & (p <= 1.0)).all()
    assert np.array_equal((p > 0.5).astype(int), model.predict(X))


def test_adaboost_json_round_trip():
    rng = np.random.default_rng(14)
    X = rng.normal(0, 1, (80, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(int)
    model = AdaBoostClassifier(n_rounds=15, weak_depth=2, min_leaf=1).fit(X, y)
    clone = AdaBoostClassifier.from_jsonable(to_jsonable(model), X.shape[1])
    probe = rng.normal(0, 1, (20, 3))
    assert np.array_equal(model.predict(probe), clone.predict(probe))


# -- AdaBoost regression -----------------------------------------------------


def test_adaboost_regressor_exact_fit_collapses():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    model = AdaBoostRegressor(n_rounds=20, weak_depth=8, min_leaf=1).fit(X, y)
    assert len(model.trees) == 1
    assert model.stopped_early == "round 0: exact fit"
    assert np.allclose(model.predict(X), y)


def test_adaboost_regressor_improves_over_a_stump():
    rng = np.random.default_rng(15)
    X = rng.uniform(-3, 3, (200, 1))
    y = np.sin(X[:, 0])
    stump = Cart(task="regression", max_depth=3, min_leaf=1).fit(X, y)
    model = AdaBoostRegressor(n_rounds=30, weak_depth=3, min_leaf=1).fit(X, y)
    assert len(model.trees) > 1
    for avg in model.avg_losses:
        assert avg < 0.5
    rmse_stump = np.sqrt(np.mean((stump.predict(X) - y) ** 2))
    rmse_boost = np.sqrt(np.mean((model.predict(X) - y) ** 2))
    assert rmse_boost < rmse_stump


def test_adaboost_regressor_prediction_is_a_member_value():
    rng = np.random.default_rng(16)
    X = rng.uniform(-2, 2, (60, 2))
    y = X[:, 0] ** 2 + rng.normal(0, 0.05, 60)
    model = AdaBoostRegressor(n_rounds=10, weak_depth=2, min_leaf=1).fit(X, y)
    preds = np.column_stack([t.predict(X) for t in model.trees])
    out = model.predict(X)
    for i in range(len(X)):
        assert out[i] in preds[i]


def test_adaboost_regressor_json_round_trip():
    rng = np.random.default_rng(17)
    X = rng.uniform(-2, 2, (50, 2))
    y = X[:, 0] - X[:, 1]
    model = AdaBoostRegressor(n_rounds=8, weak_depth=3, min_leaf=1).fit(X, y)
    clone = AdaBoostRegressor.from_jsonable(to_jsonable(model), X.shape[1])
    assert np.array_equal(model.predict(X), clone.predict(X))


# -- truncation: a shorter fit read off a longer one ---------------------------


def everything(model):
    """Every field of a core, the fit diagnostics included."""
    return {f.name: to_jsonable(getattr(model, f.name)) for f in fields(model)}


@settings(max_examples=200, deadline=None)
@given(cart_problems(), st.sampled_from([None, 0, 1, 3]))
def test_truncated_cart_is_the_fit_of_the_smaller_depth(problem, extra):
    X, y, w, task, max_depth, min_leaf, _, _ = problem
    deep_depth = None if extra is None or max_depth is None else max_depth + extra
    deep = Cart(task=task, max_depth=deep_depth, min_leaf=min_leaf).fit(X, y, w)
    direct = Cart(task=task, max_depth=max_depth, min_leaf=min_leaf).fit(X, y, w)
    assert to_jsonable(deep.truncated(max_depth)) == to_jsonable(direct)


# Runs found by search: each stops or collapses after at least two rounds.
STOPS_AFTER_TWO_ROUNDS = (AdaBoostRegressor, np.array([[0.0], [0.0], [2.0], [3.0]]),
                          np.array([2.0, 1.0, 2.0, 4.0]), None, 1, 12)
STOPS_AFTER_NINE_ROUNDS = (AdaBoostClassifier, np.array([[2.0], [3.0], [3.0], [2.0], [3.0]]),
                           np.array([0, 1, 0, 1, 0]), None, 2, 12)
COLLAPSES_AT_ROUND_THREE = (AdaBoostClassifier,
                            np.array([[3.0, 2.0], [2.0, 1.0], [3.0, 1.0], [2.0, 3.0]]),
                            np.array([1, 1, 0, 0]), None, 2, 12)
FITS_EXACTLY_AT_ROUND_TWO = (AdaBoostRegressor,
                             np.array([[3.0, 0.0], [2.0, 2.0], [0.0, 2.0], [0.0, 3.0],
                                       [1.0, 0.0]]),
                             np.array([2.0, 0.0, 2.0, 3.0, 2.0]), None, 2, 12)


@st.composite
def boosting_problems(draw):
    """Small, heavily tied matrices, on which boosting often stops early or
    collapses to one tree."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    X = rng.integers(0, draw(st.integers(2, 6)), (n, draw(st.integers(1, 3)))).astype(float)
    cls = draw(st.sampled_from([AdaBoostClassifier, AdaBoostRegressor]))
    if cls is AdaBoostClassifier:
        y = rng.integers(0, 2, n)
    else:
        y = rng.integers(0, 5, n).astype(float)
    w = draw(st.sampled_from([None, rng.integers(1, 4, n).astype(float)]))
    return cls, X, y, w, draw(st.integers(1, 3)), draw(st.integers(1, 15))


@settings(max_examples=150, deadline=None)
@given(boosting_problems())
@example(STOPS_AFTER_TWO_ROUNDS)
@example(STOPS_AFTER_NINE_ROUNDS)
@example(COLLAPSES_AT_ROUND_THREE)
@example(FITS_EXACTLY_AT_ROUND_TWO)
def test_boosting_prefix_is_the_fit_of_fewer_rounds(problem):
    cls, X, y, w, weak_depth, n_long = problem
    long = cls(n_rounds=n_long, weak_depth=weak_depth, min_leaf=1).fit(X, y, w)
    diagnostics = long.epsilons if cls is AdaBoostClassifier else long.avg_losses
    collapse_round = len(diagnostics) - 1 if diagnostics and diagnostics[-1] == 0.0 else None
    for n in range(1, n_long + 1):
        direct = cls(n_rounds=n, weak_depth=weak_depth, min_leaf=1).fit(X, y, w)
        prefix = long.truncated(n)
        if collapse_round is not None and n <= collapse_round:
            # The collapse dropped the trees of the rounds before it.
            assert prefix is None
            assert len(direct.trees) == n and direct.stopped_early is None
            continue
        assert everything(prefix) == everything(direct)
        assert len(prefix.trees) == len(direct.trees)  # rounds_used
        assert prefix.stopped_early == direct.stopped_early


def test_the_found_runs_stop_and_collapse_where_named():
    for problem, rounds, diagnostic in ((STOPS_AFTER_TWO_ROUNDS, 2, 0.5),
                                        (STOPS_AFTER_NINE_ROUNDS, 9, 0.5),
                                        (COLLAPSES_AT_ROUND_THREE, 3, 0.0),
                                        (FITS_EXACTLY_AT_ROUND_TWO, 2, 0.0)):
        cls, X, y, w, weak_depth, n_long = problem
        model = cls(n_rounds=n_long, weak_depth=weak_depth, min_leaf=1).fit(X, y, w)
        assert model.stopped_early.startswith(f"round {rounds}:")
        last = (model.epsilons if cls is AdaBoostClassifier else model.avg_losses)[-1]
        assert (last == 0.0) == (diagnostic == 0.0)
        if diagnostic == 0.0:
            assert model.truncated(rounds) is None
            assert everything(model.truncated(rounds + 1)) == everything(
                cls(n_rounds=rounds + 1, weak_depth=weak_depth, min_leaf=1).fit(X, y, w))


# -- random forest -----------------------------------------------------------


def test_default_mtry():
    assert default_mtry("classification", 13) == 4  # round(sqrt(13))
    assert default_mtry("regression", 13) == 4  # round(13/3)
    assert default_mtry("classification", 4) == 2
    assert default_mtry("regression", 1) == 1


def test_forest_identity_single_tree_equals_cart():
    rng = np.random.default_rng(18)
    X = rng.normal(0, 1, (100, 5))
    y = (X[:, 1] > 0.1).astype(int)
    forest = RandomForest(
        task="classification", n_trees=1, max_depth=None, min_leaf=1, bootstrap="identity",
        subsample=False
    ).fit(X, y, seed=0)
    tree = Cart(task="classification", max_depth=None, min_leaf=1).fit(X, y)
    probe = rng.normal(0, 1, (40, 5))
    assert np.array_equal(forest.predict(probe), tree.predict(probe))


def test_forest_vote_tie_predicts_wait():
    X = np.array([[0.0], [1.0]])
    # constant-label training yields single-leaf trees with opposite votes
    always_buy = Cart(task="classification", max_depth=None, min_leaf=1).fit(X, np.array([1, 1]))
    always_wait = Cart(task="classification", max_depth=None, min_leaf=1).fit(X, np.array([0, 0]))
    forest = RandomForest(task="classification", n_trees=2, max_depth=None, min_leaf=1,
                          bootstrap="resample", subsample=True)
    forest.trees = [always_buy, always_wait]
    assert np.allclose(forest.predict_scores(X), 0.5)
    assert not forest.predict(X).any()


def test_forest_deterministic_per_seed():
    rng = np.random.default_rng(19)
    X = rng.normal(0, 1, (80, 4))
    y = (X[:, 0] > 0).astype(int)
    a, b = (RandomForest(task="classification", n_trees=10, max_depth=None, min_leaf=1,
                         bootstrap="resample", subsample=True).fit(X, y, seed=7) for _ in range(2))
    probe = rng.normal(0, 1, (30, 4))
    assert np.array_equal(a.predict_scores(probe), b.predict_scores(probe))


def test_forest_regression_mean_of_members():
    rng = np.random.default_rng(20)
    X = rng.uniform(-2, 2, (90, 3))
    y = X[:, 0] * 2
    forest = RandomForest(task="regression", n_trees=5, max_depth=3, min_leaf=1,
                          bootstrap="resample", subsample=True).fit(X, y, seed=1)
    probe = rng.uniform(-2, 2, (10, 3))
    member = np.column_stack([t.predict(probe) for t in forest.trees])
    assert np.allclose(forest.predict(probe), member.mean(axis=1))


def test_forest_json_round_trip():
    rng = np.random.default_rng(21)
    X = rng.normal(0, 1, (60, 3))
    y = (X[:, 2] < 0).astype(int)
    forest = RandomForest(task="classification", n_trees=4, max_depth=3, min_leaf=1,
                          bootstrap="resample", subsample=True).fit(X, y, seed=2)
    clone = RandomForest.from_jsonable(to_jsonable(forest), X.shape[1])
    assert np.array_equal(forest.predict(X), clone.predict(X))


# -- KNN ---------------------------------------------------------------------


def test_knn_one_reproduces_training_labels():
    rng = np.random.default_rng(22)
    X = rng.normal(0, 1, (50, 4))  # distinct points almost surely
    y = (rng.random(50) > 0.5).astype(int)
    model = Knn(task="classification", k=1).fit(X, y)
    assert np.array_equal(model.predict(X), y)


def test_knn_matches_brute_force():
    rng = np.random.default_rng(23)
    X = rng.normal(0, 1, (200, 5))  # spans multiple distance blocks
    y = rng.normal(0, 1, 200)
    model = Knn(task="regression", k=7).fit(X, y)
    probe = rng.normal(0, 1, (90, 5))
    dists = ((probe[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    idx = np.argsort(dists, axis=1, kind="stable")[:, :7]
    expected = y[idx].mean(axis=1)
    assert np.allclose(model.predict(probe), expected, atol=1e-9)


def test_knn_vote_tie_predicts_wait():
    X = np.array([[0.0], [2.0]])
    y = np.array([0, 1])
    model = Knn(task="classification", k=2).fit(X, y)
    assert model.predict(np.array([[1.0]]))[0] == 0


def test_knn_k_larger_than_train_raises():
    X = np.zeros((3, 2))
    y = np.array([0, 1, 0])
    with pytest.raises(TooFewRows):
        Knn(task="classification", k=4).fit(X, y)


def test_knn_json_round_trip():
    rng = np.random.default_rng(24)
    X = rng.normal(0, 1, (40, 3))
    y = (X[:, 0] > 0).astype(int)
    model = Knn(task="classification", k=3).fit(X, y)
    clone = Knn.from_jsonable(to_jsonable(model), X.shape[1])
    probe = rng.normal(0, 1, (15, 3))
    assert np.array_equal(model.predict_scores(probe), clone.predict_scores(probe))
