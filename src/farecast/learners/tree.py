"""Weighted CART: greedy binary splits on one feature at a time.

Classification nodes minimize weighted Gini impurity, regression nodes
weighted squared error. A node becomes a leaf when it is pure, too small,
at max depth, or when no split strictly reduces impurity. Ties between
candidate splits resolve to the lowest feature index, then the lowest
threshold, so fits are reproducible without a seed.

Split search works on presorted attribute lists partitioned at every split
(SLIQ, Mehta et al. 1996; SPRINT, Shafer et al. 1996). A fit copies the
column-wise argsort of X into one (d+1, n) index array: row f lists the
samples in ascending X[:, f], ties by sample index, and row d lists them in
ascending sample index. Every node owns the same column range [lo, hi) of
all rows. A split stably partitions that range, left members first, so each
row stays sorted and each level of the tree reads each row once. Row d gives
the node's weighted sums the summation order of a boolean member mask.

Scoring keeps a running sum over the node's sorted weights on every feature,
which fixes the bits of each partial sum, and evaluates the impurity only
where the sorted feature value changes: a route dummy has one such place.

A fit keeps each training row's leaf value in ``fitted_value`` (not
saved): the leaves own the row ranges already, and boosting reads its
round's training predictions there instead of predicting X again.

Boosting shares across its rounds the one thing that does not change, X:
``presort`` sorts it once and X is read column by column from one
Fortran-ordered copy. Only the sample weights change between rounds.

One row of weight k*w is the same, for weighted Gini, weighted squared error
and the AdaBoost update, as k copies of weight w (Freund & Schapire 1997).
``distinct_rows`` finds the distinct (x, y) rows of an oversampled matrix and
their counts, so the tree kinds fit each once with its count as its weight.
The result is the same tree up to the grouping of partial sums, which can
flip a near-tie split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core import FarecastError
from ..util import NOT_SAVED, from_jsonable

# Strict-improvement guard: splits must beat the parent impurity by more
# than accumulated float noise, otherwise the node stays a leaf.
_EPS = 1e-12


def _index_dtype(n: int):
    # 32-bit sample indices halve the memory of the index arrays a fit holds.
    return np.int32 if n <= np.iinfo(np.int32).max else np.intp


def presort(X: np.ndarray) -> np.ndarray:
    """Stable argsort of every column of X: an (n, d) array whose transpose
    is C-contiguous, so ``Cart.fit`` copies it row by row."""
    n, d = X.shape
    order = np.empty((d, n), dtype=_index_dtype(n))
    for f in range(d):
        order[f] = np.argsort(X[:, f], kind="stable")
    return order.T


def distinct_rows(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, counts): the index of the first occurrence of each distinct
    (X[i], y[i]) row, in their original order, and how often each occurs.

    One stable lexsort over y and X's columns puts equal rows next to each
    other, first occurrence first; neighbours are then compared one column
    at a time, so the matrix is never copied whole.
    """
    n = len(y)
    order = np.lexsort((*X.T, y))
    same = np.ones(n, dtype=bool)  # sorted row i equals sorted row i - 1
    same[:1] = False
    for key in (y, *X.T):
        sorted_key = key[order]
        same[1:] &= sorted_key[1:] == sorted_key[:-1]
    starts = np.flatnonzero(~same)
    counts = np.diff(starts, append=n)
    first = order[starts]
    by_position = np.argsort(first)
    return first[by_position], counts[by_position]


@dataclass
class Cart:
    task: str  # regression | classification
    max_depth: Optional[int] = None
    min_leaf: int = 1
    mtry: Optional[int] = None

    # Flat node storage; index 0 is the root. Leaves have feature -1.
    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)
    # Leaf value of each row of the last fit's X; not saved, and dropped by
    # the ensembles, which keep many trees.
    fitted_value: Optional[np.ndarray] = field(default=None, repr=False, compare=False,
                                               metadata=NOT_SAVED)

    def __post_init__(self):
        if self.task not in ("regression", "classification"):
            raise FarecastError(f"unknown task {self.task!r}")
        if self.mtry is not None and self.mtry < 1:
            raise FarecastError("mtry must be >= 1")

    # -- fitting ---------------------------------------------------------

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        presorted: Optional[np.ndarray] = None,
    ) -> "Cart":
        X = np.asfortranarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n, d = X.shape
        w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)
        if self.mtry is not None and rng is None:
            raise ValueError("feature subsampling needs an rng")

        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []
        depth_cap = self.max_depth if self.max_depth is not None else 30

        cols = X.T  # cols[f] is X[:, f], contiguous
        wy = w * y
        wyy = wy * y if self.task == "regression" else None
        # The partitioned index array of the module docstring.
        index = np.empty((d + 1, n), dtype=_index_dtype(n))
        index[:d] = (presort(X) if presorted is None else presorted).T
        index[d] = np.arange(n)
        goes_left = np.empty(n, dtype=bool)
        self.fitted_value = np.empty(n)

        # (node_id, lo, hi, depth); preorder so node ids are stable.
        stack = [(self._new_node(), 0, n, 0)]
        while stack:
            node_id, lo, hi, depth = stack.pop()
            idx = index[d, lo:hi].astype(np.intp)
            w_total = w[idx].sum()
            s = float(wy[idx].sum())
            self.value[node_id] = float(s / w_total) if w_total > 0 else float(y[idx].mean())

            split = None
            if depth < depth_cap and hi - lo >= 2 * self.min_leaf:
                if self.task == "classification":
                    # Weighted Gini of a {0,1} node: 2 p (1-p) scaled by total weight.
                    impurity = 2.0 * s * (w_total - s) / w_total
                else:
                    impurity = float(wyy[idx].sum()) - s * s / w_total
                if impurity > _EPS:
                    split = self._best_split(cols, w, wy, wyy, index, lo, hi, rng, impurity)
            if split is None:
                self.fitted_value[idx] = self.value[node_id]
                continue
            f, thr = split
            self.feature[node_id] = f
            self.threshold[node_id] = thr
            self.left[node_id] = self._new_node()
            self.right[node_id] = self._new_node()

            # Stable partition of the node's columns: left members first,
            # each row keeping its order. Children at the depth cap are never
            # split, so they need only the sample-index row.
            member_left = cols[f][idx] <= thr
            goes_left[idx] = member_left
            n_left = int(np.count_nonzero(member_left))
            for row in index[:, lo:hi] if depth + 1 < depth_cap else index[d:, lo:hi]:
                flags = goes_left[row.astype(np.intp)]
                left_part, right_part = row[flags], row[~flags]
                row[:n_left] = left_part
                row[n_left:] = right_part

            stack.append((self.right[node_id], lo + n_left, hi, depth + 1))
            stack.append((self.left[node_id], lo, lo + n_left, depth + 1))
        return self

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _best_split(self, cols, w, wy, wyy, index, lo, hi, rng, parent_impurity):
        d = len(cols)
        if self.mtry is not None and self.mtry < d:
            candidates = np.sort(rng.choice(d, size=self.mtry, replace=False))
        else:
            candidates = np.arange(d)

        m = hi - lo
        best = (parent_impurity - _EPS, -1, 0.0)  # (score to beat, feature, threshold)
        for f in candidates:
            sel = index[f, lo:hi].astype(np.intp)
            xv = cols[f][sel]
            if xv[0] == xv[-1]:
                continue
            # A split after sorted position i is a candidate only where the
            # value changes; the running sums still cover every position, so
            # each partial sum is the same float whatever the ties.
            cut = np.flatnonzero(xv[:-1] < xv[1:])
            w_run = np.cumsum(w[sel])
            s_run = np.cumsum(wy[sel])
            w_left, s_left = w_run[cut], s_run[cut]
            w_right = w_run[-1] - w_left
            s_right = s_run[-1] - s_left

            valid = (w_left > 0) & (w_right > 0)
            if self.min_leaf > 1:
                counts = cut + 1
                valid &= (counts >= self.min_leaf) & (m - counts >= self.min_leaf)
            if not valid.any():
                continue

            if self.task == "classification":
                with np.errstate(divide="ignore", invalid="ignore"):
                    score = (2.0 * s_left * (w_left - s_left) / w_left
                             + 2.0 * s_right * (w_right - s_right) / w_right)
            else:
                q_run = np.cumsum(wyy[sel])
                q_left = q_run[cut]
                q_right = q_run[-1] - q_left
                with np.errstate(divide="ignore", invalid="ignore"):
                    score = (q_left - s_left * s_left / w_left) + (q_right - s_right * s_right / w_right)
            score = np.where(valid, score, np.inf)
            i = int(np.argmin(score))
            if score[i] < best[0]:
                j = cut[i]
                best = (float(score[i]), int(f), float((xv[j] + xv[j + 1]) / 2.0))
        if best[1] < 0:
            return None
        return best[1], best[2]

    # -- prediction ------------------------------------------------------

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Raw leaf values: class-1 weight fraction, or the weighted mean target."""
        X = np.asarray(X, dtype=float)
        feature = np.asarray(self.feature)
        threshold = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        value = np.asarray(self.value)

        node = np.zeros(len(X), dtype=int)
        active = feature[node] >= 0
        while active.any():
            rows = np.flatnonzero(active)
            cur = node[rows]
            go_left = X[rows, feature[cur]] <= threshold[cur]
            node[rows] = np.where(go_left, left[cur], right[cur])
            active = feature[node] >= 0
        return value[node]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels for classification (leaf ties go to 0), values for regression."""
        raw = self.predict_value(X)
        if self.task == "classification":
            return (raw > 0.5).astype(int)
        return raw

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_jsonable(cls, raw: dict, n_inputs: Optional[int] = None) -> "Cart":
        """Rebuild a tree; raises FarecastError unless its node lists have one
        length, every split's children come after it (so a walk from the root
        ends), and every split feature is below ``n_inputs`` when given."""
        tree = from_jsonable(cls, raw)
        for name, kind in (("feature", int), ("threshold", float), ("left", int),
                           ("right", int), ("value", float)):
            setattr(tree, name, [kind(v) for v in getattr(tree, name)])
        n_nodes = len(tree.feature)
        lists = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        if n_nodes == 0 or any(len(v) != n_nodes for v in lists):
            raise FarecastError(f"tree node lists must share one nonzero length, "
                                f"got {[len(v) for v in lists]}")
        width = n_inputs if n_inputs is not None else float("inf")
        for node, f in enumerate(tree.feature):
            children = (tree.left[node], tree.right[node])
            if not -1 <= f < width or (f >= 0 and not all(node < c < n_nodes for c in children)):
                raise FarecastError(f"tree node {node} (feature {f}, children {children}) "
                                    f"is out of range for {n_nodes} nodes")
        return tree
