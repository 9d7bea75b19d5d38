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
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
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
    cell_groups = [[spec_idx for _, spec_idx in sorted(cells)] for cells in groups.values()]

    # Each cell's fold losses in fold order, and its first error: folds run
    # one after another, and a cell belongs to one group, so to one thread.
    losses: list[list[float]] = [[] for _ in spec_grid]
    errors: list[Optional[str]] = [None] * len(spec_grid)

    def run_group(args) -> None:
        """Fit the largest cell that fits; read the smaller ones off the last fit."""
        cells, f, fold_train, val = args
        whole = None
        for spec_idx in cells:
            spec = spec_grid[spec_idx]
            try:
                model = whole and truncated(whole, spec)
                if model is None:
                    model = whole = fit(spec, fold_train, seed=derive_seed(seed, "fold-fit", f))
                losses[spec_idx].append(_loss(spec, model, val))
            except (FarecastError, ValueError, np.linalg.LinAlgError) as exc:
                errors[spec_idx] = errors[spec_idx] or f"{type(exc).__name__}: {exc}"

    # One fold at a time: its groups share its train/validation data, and no
    # other fold's data is held while they run. One group runs in this thread.
    workers = min(jobs, len(cell_groups))
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if workers > 1 else map
        for f, fold in enumerate(folds):
            held_out = np.isin(train.series, series[fold])
            fold_train = train.take(~held_out)
            if preprocess is not None:
                fold_train = preprocess(fold_train, derive_seed(seed, "fold-prep", f))
            val = train.take(held_out)
            list(run(run_group, [(cells, f, fold_train, val) for cells in cell_groups]))

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
