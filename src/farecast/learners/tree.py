"""Weighted CART: greedy binary splits on one feature at a time.

Classification nodes minimize weighted Gini impurity, regression nodes
weighted squared error. A node becomes a leaf when it is pure, too small,
at max depth, or when no split strictly reduces impurity. Ties between
candidate splits resolve to the lowest feature index, then the lowest
threshold, so fits are reproducible without a seed. ``Cart`` gives its
hyperparameters no defaults: the facade's ``_KIND_TABLE`` declares them.

Split search reads histograms with one bin per distinct value of each
feature, so no tree is approximated (the histograms of LightGBM, Ke et al.
2017, without its value buckets). ``ColumnCodes`` codes each column once by
the rank of its distinct values and counts the rows holding each value,
which are the root's counts. A node adds its rows' count, weight w and
w*y, plus w*y*y for regression, into the bins of each candidate feature:
into buffers over all of X's values, which the fit allocates once, keeping
the bins that hold rows (so every node, however small, clears and scans
buffers as wide as X's bins). Each bin adds its rows one by one in ascending
sample index, as a bincount does. Running sums over a feature's bins that
hold rows, restarting at each feature, give every cut's left side; the
feature's total minus the left gives the right. A cut follows every held
value but the feature's last, at the midpoint of the two values around it,
and its score is its two sides' impurities, summed in plain numpy. A node's
own value and impurity still sum its rows directly, ``w[idx].sum()``.

Two binning tricks stay: the buffers are allocated once per fit, not per
node, and the sums are packed two to a complex number, so one ``np.add.at``
bins two of them. On the benchmark's 100-round depth-3 AdaBoost fit,
binning with ``np.bincount`` instead took 50% more CPU time, and fresh
buffers per node 1-4% more.

When every feature is a candidate (no ``mtry``), a column that holds one
value across the fit's rows is never binned, since it has no cut. If the
larger child of a split may split again, only the smaller child is binned,
and the larger takes its parent's histogram minus the smaller's. That
skips binning the larger half of every split, but the larger child's sums
are differences, not sums of its rows: their last bits can differ, and with
them a near-tie split.

A fit keeps each training row's leaf value in ``fitted_value`` (not
saved), so boosting reads its round's training predictions there instead
of predicting X again.

Prediction descends by row partition: a node compares one column of its own
rows with its threshold and splits the row set between its children, and a
leaf writes its value into its rows. That is a few numpy calls per node
visited, so the rows of a node with fewer than ``_PARTITION_MIN_ROWS`` rows
are finished together by one level walk, each row from the node where it
stopped: every level moves each row still at a split one node down, and
drops the rows that reached a leaf. Outputs are copies of leaf values, so
any order of the work gives the same bits. Measured on the benchmark's
specific corpus (2-vCPU Xeon, best of 5, against a level walk of every row
from the root): 100 depth-3 AdaBoost trees took 30-32 ms for 14,400 rows
(66-70 ms) and 4.3 ms for 1,080 (7.4 ms); a default 100-tree forest 125-128
ms for 14,400 (206-208 ms). The cutoff is where a full-depth regression tree
of 43,127 nodes stops losing to the walk: 11.2-11.5 ms at 256 rows against
11.8-11.9 ms, but 15.8 ms at 64, where 432 nodes are partitioned, and about
300 ms with no cutoff. A tree of at most ``_PARTITION_ALL_NODES`` nodes
skips the walk's fixed cost: a depth-3 tree on 1,080 rows took 43 us
partitioned to its leaves and 61 us with a cutoff.

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
# The depth at which a tree with a null max_depth stops.
DEPTH_CAP = 30
# predict_scores partitions the rows of a node that holds at least this many;
# the rows of smaller nodes finish together in one level walk. A tree of at
# most _PARTITION_ALL_NODES nodes (15 splits) is partitioned to its leaves.
_PARTITION_MIN_ROWS = 256
_PARTITION_ALL_NODES = 31


@dataclass(frozen=True)
class ColumnCodes:
    """A matrix by column: ``values[f]`` holds the distinct values of column
    f in ascending order, ``codes[f, i]`` the rank of X[i, f] among them, and
    ``counts`` how many rows hold each value, feature after feature."""

    codes: np.ndarray  # (d, n) intp, the index type np.add.at and take read without a cast
    values: tuple[np.ndarray, ...]
    counts: np.ndarray

    @classmethod
    def of(cls, X: np.ndarray) -> "ColumnCodes":
        X = np.asarray(X, dtype=float)
        codes = np.empty((X.shape[1], X.shape[0]), dtype=np.intp)
        values, counts = [], []
        for f in range(X.shape[1]):
            distinct, codes[f], count = np.unique(X[:, f], return_inverse=True,
                                                  return_counts=True)
            values.append(distinct)
            counts.append(count)
        return cls(codes, tuple(values), np.concatenate([np.empty(0, np.intp), *counts]))


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


def _bins(coded, offsets, node_sums, idx, features, count_buf, sum_buf):
    """(bins, count, sums) of the node's rows: add each candidate feature's
    rows into the fit's buffers over all of its values, then keep the bins
    the node holds. ``np.add.at`` adds in row order, as a bincount would.
    The root holds every row, so it takes its counts from ``coded``."""
    count_buf[:] = 0
    sum_buf[:len(node_sums)] = 0
    root = len(idx) == coded.codes.shape[1]
    for f in features:
        lo, hi = offsets[f], offsets[f + 1]
        if root:
            node_codes = coded.codes[f]
            count_buf[lo:hi] = coded.counts[lo:hi]
        else:
            node_codes = coded.codes[f][idx]
            np.add.at(count_buf[lo:hi], node_codes, 1)
        for row, weights in zip(sum_buf, node_sums):
            np.add.at(row[lo:hi], node_codes, weights)
    bins = np.flatnonzero(count_buf)
    return bins, count_buf[bins], np.take(sum_buf[:len(node_sums)], bins, axis=1)


def _minus(hist, count_buf, sum_buf):
    """``hist`` minus the histogram ``_bins`` left in the buffers,
    computed in ``hist``'s arrays; keeps the bins that still hold rows."""
    bins, count, sums = hist
    count -= count_buf[bins]
    sums -= np.take(sum_buf[:len(sums)], bins, axis=1)
    held = np.flatnonzero(count)
    return bins[held], count[held], np.take(sums, held, axis=1)


@dataclass
class Cart:
    task: str  # regression | classification
    max_depth: Optional[int]  # null grows to DEPTH_CAP
    min_leaf: int
    mtry: Optional[int] = None  # features drawn per node; set by the forest only

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
        if self.max_depth is not None and self.max_depth < 0:
            raise FarecastError("max_depth must be >= 0 or null")

    # -- fitting ---------------------------------------------------------

    def fit(
        self,
        X: np.ndarray | ColumnCodes,
        y: np.ndarray,
        sample_weight: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> "Cart":
        """Grow the tree on X, or on X's ``ColumnCodes`` when an ensemble
        shares them across its trees."""
        coded = X if isinstance(X, ColumnCodes) else ColumnCodes.of(X)
        codes = coded.codes
        d, n = codes.shape
        y = np.asarray(y, dtype=float)
        w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=float)

        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []
        depth_cap = self.max_depth if self.max_depth is not None else DEPTH_CAP

        # The sums a histogram holds, packed two to a complex number: w + i w*y,
        # and for regression also w*y*y. Complex addition adds the two parts
        # apart, so one scatter-add bins both, each exactly as alone.
        sums = np.zeros((1 if self.task == "classification" else 2, n), dtype=complex)
        sums[0].real = w
        np.multiply(w, y, out=sums[0].imag)
        if len(sums) == 2:
            np.multiply(sums[0].imag, y, out=sums[1].real)
        widths = [len(v) for v in coded.values]
        offsets = np.concatenate(([0], np.cumsum(widths))).astype(np.intp)
        n_bins = int(offsets[-1])
        # A column that holds one value across the fit's rows has no cut.
        splittable = np.flatnonzero(np.asarray(widths) > 1)
        bin_value = np.concatenate(coded.values) if d else np.empty(0)
        # Binning buffers, reused by every node.
        count_buf = np.empty(n_bins, dtype=np.intp)
        sum_buf = np.empty((2 * len(sums), n_bins), dtype=complex)
        self.fitted_value = np.empty(n)

        # (node_id, rows ascending, depth, histogram or None); preorder so
        # node ids are stable.
        stack = [(self._new_node(), np.arange(n), 0, None)]
        while stack:
            node_id, idx, depth, hist = stack.pop()
            m = len(idx)
            node_sums = sums if m == n else np.take(sums, idx, axis=1)
            # A strided view sums pairwise just as a contiguous w[idx] would.
            w_total = node_sums[0].real.sum()
            s = float(node_sums[0].imag.sum())
            self.value[node_id] = float(s / w_total) if w_total > 0 else float(y[idx].mean())

            split = None
            if depth < depth_cap and m >= 2 * self.min_leaf:
                if self.task == "classification":
                    # Weighted Gini of a {0,1} node: 2 p (1-p) scaled by total weight.
                    impurity = 2.0 * s * (w_total - s) / w_total
                else:
                    impurity = float(node_sums[1].real.sum()) - s * s / w_total
                if impurity > _EPS:
                    if self.mtry is not None and self.mtry < d:
                        features = np.sort(rng.choice(d, size=self.mtry, replace=False))
                    else:
                        features = splittable
                    if hist is None:
                        hist = _bins(coded, offsets, node_sums, idx, features, count_buf, sum_buf)
                    split = self._best_split(hist, offsets, bin_value, m, impurity, sum_buf)
            if split is None:
                self.fitted_value[idx] = self.value[node_id]
                continue
            f, thr = split
            self.feature[node_id] = f
            self.threshold[node_id] = thr
            self.left[node_id] = self._new_node()
            self.right[node_id] = self._new_node()

            # Rows at or below the threshold go left, as in predict_scores.
            goes_left = codes[f][idx] < np.searchsorted(coded.values[f], thr, side="right")
            children = [idx[goes_left], idx[~goes_left]]
            child_hists = [None, None]
            small = 0 if len(children[0]) < len(children[1]) else 1
            large = 1 - small
            if (self.mtry is None and depth + 1 < depth_cap
                    and len(children[large]) >= 2 * self.min_leaf):
                # The smaller child is binned and the larger takes the
                # parent's histogram minus it.
                child_hists[small] = _bins(
                    coded, offsets, np.take(sums, children[small], axis=1), children[small],
                    features, count_buf, sum_buf)
                child_hists[large] = _minus(hist, count_buf, sum_buf)
            stack.append((self.right[node_id], children[1], depth + 1, child_hists[1]))
            stack.append((self.left[node_id], children[0], depth + 1, child_hists[0]))
        return self

    def truncated(self, max_depth: Optional[int]) -> "Cart":
        """The tree a fit with ``max_depth`` grows, copied off this deeper fit
        without ``mtry``: a node above the cap splits as here (its histogram
        and split search do not depend on the cap), and nodes are numbered as
        a fit numbers them, left subtree first."""
        tree = Cart(self.task, max_depth, self.min_leaf)
        cap = max_depth if max_depth is not None else DEPTH_CAP
        stack = [(0, tree._new_node(), 0)]
        while stack:
            old, new, depth = stack.pop()
            tree.value[new] = self.value[old]
            if self.feature[old] < 0 or depth >= cap:
                continue
            tree.feature[new], tree.threshold[new] = self.feature[old], self.threshold[old]
            tree.left[new], tree.right[new] = tree._new_node(), tree._new_node()
            stack.append((self.right[old], tree.right[new], depth + 1))
            stack.append((self.left[old], tree.left[new], depth + 1))
        return tree

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _best_split(self, hist, offsets, bin_value, m, parent_impurity, buf):
        bins, count, sums = hist
        k, n_held = sums.shape
        left, right = buf[:k, :n_held], buf[k:2 * k, :n_held]
        # Feature f's bins are positions [bounds[f], bounds[f + 1]).
        bounds = np.searchsorted(bins, offsets)
        starts, stops = bounds[:-1], bounds[1:]
        held = stops > starts
        for a, b in zip(starts[held].tolist(), stops[held].tolist()):
            np.cumsum(sums[:, a:b], axis=1, out=left[:, a:b])
            np.subtract(left[:, b - 1:b], left[:, a:b], out=right[:, a:b])
        # A cut follows every bin; a feature's last leaves nothing on the
        # right, so its right weight is 0 and it is never valid.
        w_left, s_left = left[0].real, left[0].imag
        w_right, s_right = right[0].real, right[0].imag
        valid = (w_left > 0) & (w_right > 0)
        if self.min_leaf > 1:
            count_run = np.cumsum(count)
            base = count_run[starts[held]] - count[starts[held]]
            counts = count_run - np.repeat(base, stops[held] - starts[held])
            valid &= (counts >= self.min_leaf) & (m - counts >= self.min_leaf)
        if not valid.any():
            return None

        # A cut's score is the impurity of its left side plus its right's,
        # each computed as a node's own impurity is in ``fit``. Adding the
        # right's into the left's array, not into a third, took the peak RSS
        # of the benchmark's ``tune`` from 62.0 to 60.1 MB.
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.task == "classification":
                score = 2.0 * s_left * (w_left - s_left) / w_left
                score += 2.0 * s_right * (w_right - s_right) / w_right
            else:
                score = left[1].real - s_left * s_left / w_left
                score += right[1].real - s_right * s_right / w_right
        score[~valid] = np.inf
        # The first minimum: the lowest feature, then the lowest threshold.
        i = int(np.argmin(score))
        if not score[i] < parent_impurity - _EPS:
            return None
        f = int(np.searchsorted(stops, i, side="right"))
        return f, float((bin_value[bins[i]] + bin_value[bins[i + 1]]) / 2.0)

    # -- prediction ------------------------------------------------------

    def predict_scores(self, X: np.ndarray) -> np.ndarray:
        """Raw leaf values: class-1 weight fraction, or the weighted mean target.

        Rows descend by partition: a node splits its row set on one column,
        and a leaf writes its value into its rows. In a tree of more than
        ``_PARTITION_ALL_NODES`` nodes, the rows of a node with fewer than
        ``_PARTITION_MIN_ROWS`` rows are finished together level by level.
        """
        X = np.ascontiguousarray(X, dtype=float)
        columns = X.T
        out = np.empty(len(X))
        min_rows = _PARTITION_MIN_ROWS if len(self.feature) > _PARTITION_ALL_NODES else 0
        parked_nodes, parked_rows = [], []
        stack = [(0, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            f = self.feature[node]
            if f < 0:
                out[rows] = self.value[node]
            elif len(rows) < min_rows:
                parked_nodes.append(node)
                parked_rows.append(rows)
            else:
                goes_left = columns[f].take(rows) <= self.threshold[node]
                stack.append((self.right[node], rows.compress(~goes_left)))
                stack.append((self.left[node], rows.compress(goes_left)))
        if parked_rows:
            self._level_walk(X, np.concatenate(parked_rows),
                             np.repeat(parked_nodes, [len(r) for r in parked_rows]), out)
        return out

    def _level_walk(self, X: np.ndarray, rows: np.ndarray, node: np.ndarray,
                    out: np.ndarray) -> None:
        """Write the leaf value of each row ``rows[i]`` of the C-ordered X,
        started at ``node[i]``, into ``out``: every level moves each row still
        at a split one node down, and drops the rows that reached a leaf."""
        n_nodes = len(self.feature)
        feature = np.array(self.feature)
        threshold = np.array(self.threshold)
        value = np.array(self.value)
        # Right children, then left ones: a row's next node is at its node
        # plus n_nodes if it goes left.
        child = np.array(self.right + self.left)
        flat = X.ravel()
        while len(rows):
            f = feature.take(node)
            leaf = f < 0
            if leaf.any():
                out[rows.compress(leaf)] = value.take(node.compress(leaf))
                split = ~leaf
                rows, node, f = rows.compress(split), node.compress(split), f.compress(split)
            goes_left = flat.take(rows * X.shape[1] + f) <= threshold.take(node)
            node = child.take(node + n_nodes * goes_left)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels for classification (leaf ties go to 0), values for regression."""
        raw = self.predict_scores(X)
        if self.task == "classification":
            return (raw > 0.5).astype(int)
        return raw

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_jsonable(cls, raw: dict, n_inputs: int) -> "Cart":
        """Rebuild a tree; raises FarecastError unless its node lists have one
        length, every split's children come after it (so a walk from the root
        ends), and every split feature is below ``n_inputs``."""
        tree = from_jsonable(cls, raw)
        n_nodes = len(tree.feature)
        lists = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        if n_nodes == 0 or any(len(v) != n_nodes for v in lists):
            raise FarecastError(f"tree node lists must share one nonzero length, "
                                f"got {[len(v) for v in lists]}")
        for node, f in enumerate(tree.feature):
            children = (tree.left[node], tree.right[node])
            if not -1 <= f < n_inputs or (
                    f >= 0 and not all(node < c < n_nodes for c in children)):
                raise FarecastError(f"tree node {node} (feature {f}, children {children}) "
                                    f"is out of range for {n_nodes} nodes")
        return tree


def trees_from_jsonable(raw: list, n_inputs: int, task: str) -> list[Cart]:
    """An ensemble's saved trees; raises FarecastError unless each is a valid
    tree of the ensemble's ``task``."""
    trees = [Cart.from_jsonable(t, n_inputs) for t in raw]
    if any(tree.task != task for tree in trees):
        raise FarecastError(f"a {task} ensemble holds a tree of another task")
    return trees
