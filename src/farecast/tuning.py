"""Grid search over LearnerSpecs with series-grouped k-fold cross-validation.

Folds are dealt over series, not rows: both labels are functions of a whole
series (its global minimum), so letting one series straddle folds would leak
its own future into validation. Any preprocessing is re-fit inside each
training fold; validation rows are never resampled or filtered.

Cells that differ only in their kind's nested hyperparameter (``max_depth``
of ``cart``, ``n_rounds`` of ``adaboost_cart``) form a group. CART grows
top-down and AdaBoost round by round, so per fold the group's largest cell
is fit once and each smaller cell is read off it: the same model, summary
and loss as its own fit. A boosting run that collapsed to one tree before a
smaller cell's last round has dropped that cell's trees, so the cell is fit.

Fold f runs whole in worker f mod W, W = min(jobs, k, usable CPUs): worker 0
is the caller, the others are forked from it (Linux), so folds share no GIL.
Merged in fold order, results and the error raised are those of one worker."""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Dataset, FarecastError
from .learners import _KIND_TABLE, LearnerSpec, fit, nested_group, predict, truncated
from .util import derive_seed

logger = logging.getLogger(__name__)


class TooFewSeries(FarecastError):
    pass


class AllCellsFailed(FarecastError):
    pass


@dataclass
class CvCell:
    spec: LearnerSpec
    fold_losses: list[float]
    mean_loss: Optional[float]
    var_loss: Optional[float]
    failed: bool
    error: Optional[str]


def cv_folds(n: int, k: int = 5, seed: int = 0) -> list[list[int]]:
    """Partition 0..n-1 into k folds whose sizes differ by at most one."""
    if k < 2:
        raise FarecastError(f"cross-validation needs at least 2 folds, got {k}")
    if n < k:
        raise TooFewSeries(f"{n} series cannot fill {k} folds")
    order = np.random.default_rng(seed).permutation(n)
    return [sorted(int(i) for i in order[f::k]) for f in range(k)]


def _forked(w: int) -> list:
    """Worker w's folds, by the fold runner fork copied in as ``_forked.run`` (none is
    pickled). It exits once the parent is gone, even if killed: the parent's sentinel is ready."""
    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=lambda: wait([sentinel]) and os._exit(1), daemon=True).start()
    return _forked.run(w)


def _loss(spec: LearnerSpec, model, val: Dataset) -> float:
    pred = predict(model, val.X)
    if spec.task == "classification":
        return float(np.mean(pred != val.label_class))
    return float(np.sqrt(np.mean((pred - val.label_reg) ** 2)))


def grid_search(
    spec_grid: Sequence[LearnerSpec],
    train: Dataset,
    seed: int,
    k: int = 5,
    preprocess: Optional[Callable[[Dataset, int], Dataset]] = None,
    jobs: int = 1,
) -> tuple[LearnerSpec, list[CvCell]]:
    """Pick the spec minimizing mean CV loss (error rate / RMSE).

    Ties go to the earliest spec in grid order. A spec whose fit fails on
    any fold is excluded; if every spec fails, AllCellsFailed carries the
    first error.
    """
    if not spec_grid:
        raise FarecastError("empty spec grid")
    if jobs < 1:
        raise FarecastError(f"grid search needs at least 1 job, got {jobs}")
    series = np.unique(train.series)
    folds = cv_folds(len(series), k=k, seed=seed)

    # Cells of one nested group, largest first (ties in grid order).
    groups: dict = {}
    for spec_idx, spec in enumerate(spec_grid):
        key, size = nested_group(spec)
        groups.setdefault(key or spec_idx, []).append((-size, spec_idx))
    cell_groups = [[(i, spec_grid[i]) for _, i in sorted(cells)] for cells in groups.values()]

    def run_folds(w: int) -> list:
        """(fold, spec_idx, loss, error) per cell on folds w, w + W, ...; an exception ends them."""
        out: list = []
        try:
            for f in range(w, k, workers):
                held_out = np.isin(train.series, series[folds[f]])
                fold_train, val = train.take(~held_out), train.take(held_out)
                if preprocess is not None:
                    fold_train = preprocess(fold_train, derive_seed(seed, "fold-prep", f))
                for cells in cell_groups:  # the largest cell that fits; smaller ones off it
                    whole = None
                    for spec_idx, spec in cells:
                        try:
                            model = whole and truncated(whole, spec)
                            if model is None:
                                model = whole = fit(spec, fold_train,
                                                    seed=derive_seed(seed, "fold-fit", f))
                            out.append((f, spec_idx, _loss(spec, model, val), None))
                        except (FarecastError, ValueError, np.linalg.LinAlgError) as exc:
                            out.append((f, spec_idx, None, f"{type(exc).__name__}: {exc}"))
                fold_train = val = whole = model = None  # not held into the next fold
        except Exception as exc:  # noqa: BLE001 - raised in fold order below
            out.append((f, None, None, exc))
        return out

    workers = min(jobs, k, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1
    with ProcessPoolExecutor(workers - 1, multiprocessing.get_context("fork"), setattr,
                             (_forked, "run", run_folds)) if workers > 1 else nullcontext() as pool:
        children = [pool.submit(_forked, w) for w in range(1, workers)]
        outcomes = run_folds(0) + [o for child in children for o in child.result()]
    losses, errors = [[] for _ in spec_grid], [None] * len(spec_grid)
    for _, spec_idx, loss, error in sorted(outcomes, key=lambda o: o[0]):
        if isinstance(error, Exception):
            raise error
        losses[spec_idx] += [] if error else [loss]
        errors[spec_idx] = errors[spec_idx] or error

    table: list[CvCell] = []
    for spec_idx, (spec, fold_losses, error) in enumerate(zip(spec_grid, losses, errors)):
        if error is not None:
            logger.warning("grid cell %d (%s) failed: %s", spec_idx, spec.kind, error)
        table.append(CvCell(spec=spec, fold_losses=fold_losses,
                            mean_loss=None if error else float(np.mean(fold_losses)),
                            var_loss=None if error else float(np.var(fold_losses)),
                            failed=error is not None, error=error))

    viable = [c for c in table if not c.failed]
    if not viable:
        raise AllCellsFailed(table[0].error or "all grid cells failed")
    best = min(viable, key=lambda c: c.mean_loss)  # min() keeps the first on ties
    return best.spec, table


def default_grid(kind: str, task: str) -> list[LearnerSpec]:
    """The kind's stock hyperparameter grid, from the learner kind table."""
    return [LearnerSpec(kind=kind, task=task, hyperparams=dict(hp))
            for hp in _KIND_TABLE[kind].grid]
