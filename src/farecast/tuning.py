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
    series = np.unique(train.series)
    folds = cv_folds(len(series), k=k, seed=seed)

    # Cells of one nested group, largest first (ties in grid order).
    groups: dict = {}
    for spec_idx, spec in enumerate(spec_grid):
        key, size = nested_group(spec)
        groups.setdefault(key or spec_idx, []).append((-size, spec_idx))
    cell_groups = [[spec_idx for _, spec_idx in sorted(cells)] for cells in groups.values()]

    def run_group(args) -> list[tuple[int, int, Optional[float], Optional[str]]]:
        """Fit the largest cell that fits; read the smaller ones off the last fit."""
        cells, f, fold_train, val = args
        out, whole = [], None
        for spec_idx in cells:
            spec = spec_grid[spec_idx]
            try:
                model = whole and truncated(whole, spec)
                if model is None:
                    model = whole = fit(spec, fold_train, seed=derive_seed(seed, "fold-fit", f))
                out.append((spec_idx, f, _loss(spec, model, val), None))
            except (FarecastError, ValueError, np.linalg.LinAlgError) as exc:
                out.append((spec_idx, f, None, f"{type(exc).__name__}: {exc}"))
        return out

    # One fold at a time: its groups share its train/validation data, and no
    # other fold's data is held while they run.
    results = []
    with ThreadPoolExecutor(max_workers=max(jobs, 1)) as pool:
        run = pool.map if jobs > 1 else map
        for f, fold in enumerate(folds):
            held_out = np.isin(train.series, series[fold])
            fold_train = train.take(~held_out)
            if preprocess is not None:
                fold_train = preprocess(fold_train, derive_seed(seed, "fold-prep", f))
            val = train.take(held_out)
            for out in run(run_group, [(cells, f, fold_train, val) for cells in cell_groups]):
                results += out

    by_spec: dict[int, dict[int, tuple[Optional[float], Optional[str]]]] = {}
    for spec_idx, f, loss, err in results:
        by_spec.setdefault(spec_idx, {})[f] = (loss, err)

    table: list[CvCell] = []
    for spec_idx, spec in enumerate(spec_grid):
        losses, first_error = [], None
        for f in range(k):
            loss, err = by_spec[spec_idx][f]
            if err is not None and first_error is None:
                first_error = err
            if loss is not None:
                losses.append(loss)
        failed = first_error is not None
        if failed:
            logger.warning("grid cell %d (%s) failed: %s", spec_idx, spec.kind, first_error)
            table.append(CvCell(spec=spec, fold_losses=losses, mean_loss=None,
                                var_loss=None, failed=True, error=first_error))
        else:
            mean = float(np.mean(losses))
            var = float(np.var(losses))
            table.append(CvCell(spec=spec, fold_losses=losses, mean_loss=mean,
                                var_loss=var, failed=False, error=None))

    viable = [c for c in table if not c.failed]
    if not viable:
        raise AllCellsFailed(table[0].error or "all grid cells failed")
    best = min(viable, key=lambda c: c.mean_loss)  # min() keeps the first on ties
    return best.spec, table


def default_grid(kind: str, task: str) -> list[LearnerSpec]:
    """The kind's stock hyperparameter grid, from the learner kind table."""
    return [LearnerSpec(kind=kind, task=task, hyperparams=dict(hp))
            for hp in _KIND_TABLE[kind].grid]
