"""Cross-validation folds and grid search."""

import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dataset_of
from farecast import pipeline, preprocess, tuning
from farecast.core import FarecastError, SeriesKey
from farecast.learners import LearnerSpec, fit
from farecast.pipeline import PreprocessConfig, apply_preprocessing
from farecast.preprocess import SingleClassDataset
from farecast.tuning import (
    AllCellsFailed,
    CvCell,
    TooFewSeries,
    _loss,
    cv_folds,
    default_grid,
    grid_search,
)
from farecast.util import derive_seed, to_jsonable


def series_rows(series_id, values, label_fn=None, reg_fn=None, route_idx=0):
    """Rows that all belong to one series (one departure per series_id)."""
    key = SeriesKey(f"R{route_idx + 1}", date(2016, 3, 1) + timedelta(days=series_id))
    rows = []
    for i, v in enumerate(values):
        v = float(v)
        rows.append((
            key,
            route_idx,
            (v, v + 1.0, 60 + (i % 10), i % 60, v + 0.5),
            None if label_fn is None else int(bool(label_fn(v))),
            None if reg_fn is None else float(reg_fn(v)),
        ))
    return rows


# -- folds -------------------------------------------------------------------


def test_folds_ten_into_five():
    folds = cv_folds(10, k=5, seed=0)
    assert [len(f) for f in folds] == [2, 2, 2, 2, 2]
    assert sorted(i for f in folds for i in f) == list(range(10))


def test_folds_eleven_into_five():
    folds = cv_folds(11, k=5, seed=0)
    assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]
    assert sorted(i for f in folds for i in f) == list(range(11))


def test_folds_same_seed_identical():
    assert cv_folds(23, k=5, seed=9) == cv_folds(23, k=5, seed=9)


def test_folds_too_few_series():
    with pytest.raises(TooFewSeries):
        cv_folds(4, k=5, seed=0)


@given(
    n=st.integers(min_value=5, max_value=60),
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_folds_partition_property(n, k, seed):
    folds = cv_folds(n, k=k, seed=seed)
    assert len(folds) == k
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    assert sorted(i for f in folds for i in f) == list(range(n))


# -- grid search --------------------------------------------------------------


def clean_blob_train(n_series=10, rows_per=6, seed=33):
    rng = np.random.default_rng(seed)
    rows = []
    for s in range(n_series):
        lows = rng.uniform(10, 20, rows_per // 2)
        highs = rng.uniform(80, 90, rows_per - rows_per // 2)
        rows += series_rows(s, np.concatenate([lows, highs]), label_fn=lambda v: v < 50)
    return dataset_of(rows)


def test_single_spec_grid_returns_it():
    train = clean_blob_train()
    spec = LearnerSpec("cart", "classification", {"max_depth": 3})
    best, table = grid_search([spec], train, seed=1, k=5)
    assert best == spec
    assert len(table) == 1
    assert len(table[0].fold_losses) == 5
    assert not table[0].failed


def test_knn_one_wins_on_clean_blobs():
    train = clean_blob_train()
    grid = [
        LearnerSpec("knn", "classification", {"k": 1}),
        LearnerSpec("cart", "classification", {"max_depth": 0}),
    ]
    best, table = grid_search(grid, train, seed=2, k=5)
    assert best == grid[0]
    assert table[0].mean_loss == 0.0
    assert table[1].mean_loss > 0.0


def test_duplicate_specs_first_wins_and_folds_match():
    # same model under an aliased hyperparameter name: losses must be
    # bitwise equal (per-fold seeds cannot depend on grid position)
    train = clean_blob_train()
    grid = [
        LearnerSpec("random_forest", "classification", {"n_trees": 5}),
        LearnerSpec("random_forest", "classification", {"B": 5}),
    ]
    best, table = grid_search(grid, train, seed=3, k=5)
    assert table[0].fold_losses == table[1].fold_losses
    assert table[0].mean_loss == table[1].mean_loss
    assert best is grid[0]
    assert "n_trees" in best.hyperparams


def test_mean_and_var_recompute():
    train = clean_blob_train()
    _, table = grid_search(
        [LearnerSpec("cart", "classification", {"max_depth": 2})], train, seed=4, k=5
    )
    cell = table[0]
    assert abs(cell.mean_loss - np.mean(cell.fold_losses)) < 1e-12
    assert abs(cell.var_loss - np.var(cell.fold_losses)) < 1e-12


def test_failing_spec_is_excluded():
    train = clean_blob_train(n_series=10, rows_per=4)  # 40 rows, fold-train 32
    grid = [
        LearnerSpec("knn", "classification", {"k": 1}),
        LearnerSpec("knn", "classification", {"k": 100}),  # k > any fold-train
    ]
    best, table = grid_search(grid, train, seed=5, k=5)
    assert best == grid[0]
    assert table[1].failed
    assert table[1].mean_loss is None
    assert "TooFewRows" in table[1].error


def test_spec_fails_if_any_single_fold_fails():
    # wildly uneven series sizes: k sits between the smallest and largest
    # fold-train, so some folds fit fine and the spec still must be dropped
    rng = np.random.default_rng(34)
    rows = []
    sizes = [2, 2, 2, 2, 2, 14, 14, 14, 14, 14]
    for s, size in enumerate(sizes):
        rows += series_rows(s, rng.uniform(10, 90, size), label_fn=lambda v: v < 50)
    train = dataset_of(rows)

    ordered = np.bincount(train.series).tolist()
    folds = cv_folds(len(ordered), k=5, seed=6)
    fold_train_sizes = [sum(ordered) - sum(ordered[g] for g in fold) for fold in folds]
    k_bad = min(fold_train_sizes) + 1
    assert k_bad <= max(fold_train_sizes)  # genuinely partial failure

    grid = [
        LearnerSpec("cart", "classification", {"max_depth": 2}),
        LearnerSpec("knn", "classification", {"k": k_bad}),
    ]
    best, table = grid_search(grid, train, seed=6, k=5)
    assert best == grid[0]
    assert table[1].failed
    assert table[1].fold_losses  # some folds did succeed before the failure


def test_all_cells_failed():
    train = clean_blob_train()
    with pytest.raises(AllCellsFailed):
        grid_search(
            [LearnerSpec("knn", "classification", {"k": 10_000})], train, seed=7, k=5
        )


def test_series_never_straddle_folds():
    # identical rows within each series, random labels across series: with
    # correct grouping a validation series has no same-series neighbor, so
    # 1-NN cannot score anywhere near zero
    rng = np.random.default_rng(35)
    rows = []
    for s in range(10):
        v = float(rng.uniform(10, 90))
        label = bool(rng.integers(0, 2))
        rows += series_rows(s, [v, v, v], label_fn=lambda _, lab=label: lab)
    train = dataset_of(rows)
    _, table = grid_search(
        [LearnerSpec("knn", "classification", {"k": 1})], train, seed=8, k=5
    )
    assert table[0].mean_loss > 0.2


def test_preprocess_runs_once_per_fold_with_derived_seeds():
    from farecast.util import derive_seed

    train = clean_blob_train()
    calls = []

    def recorder(ds, seed):
        calls.append((seed, {ds.keys[i] for i in ds.series}))
        return ds

    grid_search(
        [LearnerSpec("cart", "classification", {"max_depth": 2})],
        train, seed=9, k=5, preprocess=recorder,
    )
    assert [s for s, _ in calls] == [derive_seed(9, "fold-prep", f) for f in range(5)]
    all_keys = set(train.keys)
    for key in all_keys:
        held_out = sum(1 for _, keys in calls if key not in keys)
        assert held_out == 1  # each series is validation data exactly once


def test_jobs_do_not_change_results():
    train = clean_blob_train()
    grid = [
        LearnerSpec("cart", "classification", {"max_depth": d}) for d in (1, 2, 3)
    ]
    best1, table1 = grid_search(grid, train, seed=10, k=5, jobs=1)
    best2, table2 = grid_search(grid, train, seed=10, k=5, jobs=3)
    assert best1 == best2
    assert [c.fold_losses for c in table1] == [c.fold_losses for c in table2]


def failing_on(folds, seed):
    """A preprocess that raises on the given folds, naming the fold."""
    seeds = {derive_seed(seed, "fold-prep", f): f for f in folds}

    def preprocess(ds, fold_seed):
        if fold_seed in seeds:
            raise SingleClassDataset(f"fold {seeds[fold_seed]} has one class")
        return ds
    return preprocess


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_preprocessing_error_in_a_forked_fold_reaches_the_caller(jobs):
    # With two workers fold 1 runs in the forked child, folds 0 and 2 here:
    # fold 1's error is raised, as when the folds run one after another.
    grid = [LearnerSpec("cart", "classification", {"max_depth": 2})]
    for failing in ([1], [1, 2], [3, 2]):
        with pytest.raises(SingleClassDataset, match=f"^fold {min(failing)} has one class$"):
            grid_search(grid, clean_blob_train(), seed=4, k=5, jobs=jobs,
                        preprocess=failing_on(failing, seed=4))
        assert multiprocessing.active_children() == []


def logging_each_fold(seed):
    """A preprocess that logs one info and one warning line naming the fold."""
    folds = {derive_seed(seed, "fold-prep", f): f for f in range(5)}
    log = logging.getLogger("farecast.preprocess")

    def preprocess(ds, fold_seed):
        log.info("fold %d", folds[fold_seed])
        log.warning("fold %d warns", folds[fold_seed])
        return ds
    return preprocess


@pytest.mark.parametrize("jobs", [1, 2])
def test_fold_log_records_reach_the_caller_in_fold_order(caplog, jobs):
    # With two workers folds 1 and 3 log in the forked child.
    grid = [LearnerSpec("cart", "classification", {"max_depth": 2})]
    caplog.set_level(logging.INFO, logger="farecast")
    grid_search(grid, clean_blob_train(), seed=4, k=5, jobs=jobs,
                preprocess=logging_each_fold(seed=4))
    assert [r.getMessage() for r in caplog.records] == [
        line for f in range(5) for line in (f"fold {f}", f"fold {f} warns")]
    assert logging.getLogger("farecast").propagate


def test_holding_fold_logs_makes_no_record_below_the_level(caplog):
    made = []
    factory = logging.getLogRecordFactory()

    def counting(*args, **kwargs):
        record = factory(*args, **kwargs)
        made.append(record.getMessage())
        return record
    caplog.set_level(logging.WARNING, logger="farecast")
    grid = [LearnerSpec("cart", "classification", {"max_depth": 2})]
    logging.setLogRecordFactory(counting)
    try:
        grid_search(grid, clean_blob_train(), seed=4, k=5, jobs=1,
                    preprocess=logging_each_fold(seed=4))
    finally:
        logging.setLogRecordFactory(factory)
    assert made == [f"fold {f} warns" for f in range(5)]
    assert [r.getMessage() for r in caplog.records] == made


class FakeExecutor:
    """Stands in for ProcessPoolExecutor: records how many workers it was
    asked for, and runs the fold runner a worker would inherit in this process."""

    built: list = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        FakeExecutor.built.append(max_workers)
        self.runner = initargs[-1]  # the fold runner the initializer hands each worker

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        done = Future()
        done.set_result(self.runner(*args))
        return done


@pytest.mark.parametrize("jobs, children", [(10**6, [1]), (2, [1]), (1, [])])
def test_workers_are_capped_by_folds_and_cpus(monkeypatch, jobs, children):
    monkeypatch.setattr(FakeExecutor, "built", [])
    monkeypatch.setattr(tuning, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    grid = [LearnerSpec("cart", "classification", {"max_depth": d}) for d in (1, 2)]
    _, table = grid_search(grid, clean_blob_train(), seed=10, k=5, jobs=jobs)
    assert FakeExecutor.built == children
    _, inline = grid_search(grid, clean_blob_train(), seed=10, k=5, jobs=1)
    assert [c.fold_losses for c in table] == [c.fold_losses for c in inline]


KILLED_CALLER = """
import os, signal, sys, time
import numpy as np
from datetime import date
from farecast.core import Dataset, SeriesKey
from farecast.learners import LearnerSpec
from farecast.tuning import grid_search
from farecast.util import derive_seed

pid_file = sys.argv[1]

def preprocess(ds, fold_seed):
    if fold_seed == derive_seed(0, "fold-prep", 1):  # fold 1, in the forked worker
        with open(pid_file + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.rename(pid_file + ".tmp", pid_file)
        time.sleep(30)  # SIGKILLed with its parent, or by itself below
    while not os.path.exists(pid_file):  # fold 0, here, until the worker runs
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGKILL)

ds = Dataset(X=np.zeros((10, 13)), label_class=np.arange(10) % 2, label_reg=np.zeros(10),
             series=np.arange(10), keys=tuple(SeriesKey("R1", date(2016, 3, d + 1))
                                              for d in range(10)), role="train")
grid_search([LearnerSpec("cart", "classification", {"max_depth": 1})], ds, seed=0, k=5,
            jobs=2, preprocess=preprocess)
"""


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="folds are forked on Linux with at least 2 usable CPUs")
def test_a_forked_fold_worker_dies_with_its_killed_caller(tmp_path):
    pid_file = tmp_path / "worker.pid"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(tuning.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    # No pipes: a surviving worker would hold them open.
    with open(tmp_path / "stderr", "w") as err:
        done = subprocess.run([sys.executable, "-c", KILLED_CALLER, str(pid_file)], env=env,
                              stderr=err, timeout=60)
    assert done.returncode == -signal.SIGKILL, (tmp_path / "stderr").read_text()
    worker = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and _running(worker):
            time.sleep(0.05)
        assert not _running(worker), "the forked worker outlived its killed caller"
    finally:
        if _running(worker):
            os.kill(worker, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether the process exists and is not a zombie waiting for its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_regression_loss_is_rmse():
    rng = np.random.default_rng(36)
    rows = []
    for s in range(10):
        rows += series_rows(s, rng.uniform(10, 90, 4), reg_fn=lambda v: 2 * v + 5)
    train = dataset_of(rows)
    _, table = grid_search(
        [LearnerSpec("least_squares", "regression")], train, seed=11, k=5
    )
    assert table[0].mean_loss < 1e-6  # linear target recovered exactly


def test_grid_search_rejects_empty_grid():
    train = clean_blob_train()
    from farecast.core import FarecastError

    with pytest.raises(FarecastError):
        grid_search([], train, seed=0)


def test_too_few_series_through_grid_search():
    rng = np.random.default_rng(37)
    rows = []
    for s in range(4):
        rows += series_rows(s, rng.uniform(10, 90, 4), label_fn=lambda v: v < 50)
    train = dataset_of(rows)
    with pytest.raises(TooFewSeries):
        grid_search(
            [LearnerSpec("cart", "classification", {})], train, seed=0, k=5
        )


# -- nested groups ------------------------------------------------------------


def per_cell_grid_search(spec_grid, train, seed, k=5):
    """Oracle: every cell fit directly on every fold, the loop grid_search ran
    before the cells of a nested group shared one fit. (fold losses, first
    error) per cell."""
    series = np.unique(train.series)
    outcomes = [[] for _ in spec_grid]  # per cell, a loss or an error per fold
    for f, fold in enumerate(cv_folds(len(series), k=k, seed=seed)):
        held_out = np.isin(train.series, series[fold])
        fold_train, val = train.take(~held_out), train.take(held_out)
        for outcome, spec in zip(outcomes, spec_grid):
            try:
                model = fit(spec, fold_train, seed=derive_seed(seed, "fold-fit", f))
                outcome.append(_loss(spec, model, val.X, val.label_class, val.label_reg))
            except (FarecastError, ValueError, np.linalg.LinAlgError) as exc:
                outcome.append(f"{type(exc).__name__}: {exc}")
    return [([x for x in outcome if not isinstance(x, str)],
             next((x for x in outcome if isinstance(x, str)), None)) for outcome in outcomes]


def noisy_train(seed, n_series=10, rows_per=6):
    rng = np.random.default_rng(seed)
    rows = []
    for s in range(n_series):
        values = np.round(rng.uniform(10, 90, rows_per), 0)
        rows += series_rows(s, values, label_fn=lambda v: (v < 50) != (v % 5 == 0),
                            reg_fn=lambda v: v % 7)
    return dataset_of(rows)


def test_folds_outlier_halves_and_balanced_sets_hold_training_rows_by_index(monkeypatch):
    """Every training subset refers to the training set's arrays by a row
    index: each fold, both halves of the outlier split, the balanced set."""
    train = noisy_train(5)
    held = []

    def remove_outliers(ds, method):
        kept, removed = preprocess.remove_outliers(ds, method=method)
        held.extend([kept, removed])
        return kept, removed

    def prepare(fold, seed):
        balanced = apply_preprocessing(fold, PreprocessConfig(outlier_removal="kmeans"), seed)
        held.extend([fold, balanced])
        return balanced

    monkeypatch.setattr(pipeline, "remove_outliers", remove_outliers)
    grid_search([LearnerSpec("cart", "classification")], train, seed=0, k=5, preprocess=prepare)
    assert len(held) == 4 * 5
    for ds in held:
        assert ds.index is not None
        assert np.array_equal(ds.X, train.X[ds.index])
        assert np.array_equal(ds.label_class, train.label_class[ds.index])


NESTED_CELLS = st.one_of(
    st.builds(lambda d, leaf: {"max_depth": d, "min_leaf": leaf},
              st.sampled_from([None, 0, 1, 2, 3, 5, -1]), st.sampled_from([1, 2])),
    st.builds(lambda t, d: {"n_rounds": t, "weak_depth": d},
              st.sampled_from([1, 2, 3, 5, 8, 0]), st.sampled_from([1, 2])),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(NESTED_CELLS, st.sampled_from(["classification", "regression"])),
                min_size=1, max_size=6),
       st.integers(0, 2**16), st.sampled_from([1, 2]))
def test_grid_search_equals_fitting_every_cell(cells, seed, jobs):
    grid = [LearnerSpec("cart" if "max_depth" in hp else "adaboost_cart", task, hp)
            for hp, task in cells]
    train = noisy_train(seed)
    expected = per_cell_grid_search(grid, train, seed=seed)
    try:
        best, table = grid_search(grid, train, seed=seed, jobs=jobs)
    except AllCellsFailed:
        assert all(error is not None for _, error in expected)
        return
    assert [(c.fold_losses, c.error) for c in table] == expected
    assert best == min((c for c in table if not c.failed), key=lambda c: c.mean_loss).spec


def collapsing_train():
    """Five series of two rows with two small integer features and random
    labels (rng seed 23, found by search): on three of the five folds a
    12-round depth-2 AdaBoost fit collapses to one tree after round 0."""
    rng = np.random.default_rng(23)
    rows = []
    for s in range(5):
        key = SeriesKey("R1", date(2016, 3, 1) + timedelta(days=s))
        for _ in range(2):
            a, b = rng.integers(0, 3, 2).astype(float)
            rows.append((key, 0, (a, b, 0.0, 0.0, 0.0), int(rng.integers(0, 2)), None))
    return dataset_of(rows)


def test_cells_a_collapse_dropped_are_fit_directly(monkeypatch):
    train = collapsing_train()
    grid = [LearnerSpec("adaboost_cart", "classification", {"n_rounds": t, "weak_depth": 2})
            for t in (1, 2, 3, 12)]
    fits = []
    monkeypatch.setattr(tuning, "fit",
                        lambda spec, *args, **kw: fits.append(spec) or fit(spec, *args, **kw))
    _, table = grid_search(grid, train, seed=0)
    # Per fold: the 12-round fit, then the longest cell its collapse dropped,
    # whose own fit holds the cells below it.
    assert [spec.hyperparams["n_rounds"] for spec in fits] == [12, 1, 12, 2, 12, 12, 12, 1]
    assert [(c.fold_losses, c.error) for c in table] == per_cell_grid_search(grid, train, seed=0)


# -- stock grids --------------------------------------------------------------


def test_default_grids():
    ada = default_grid("adaboost_cart", "classification")
    assert len(ada) == 9
    assert {(s.hyperparams["n_rounds"], s.hyperparams["weak_depth"]) for s in ada} == {
        (t, d) for t in (50, 100, 200) for d in (1, 2, 3)
    }
    assert all(s.task == "classification" for s in ada)

    cart = default_grid("cart", "regression")
    assert [s.hyperparams["max_depth"] for s in cart] == [3, 5, 8, 12]

    knn = default_grid("knn", "classification")
    assert [s.hyperparams["k"] for s in knn] == [3, 5, 7, 11]


def test_cv_cell_to_dict():
    cell = CvCell(
        spec=LearnerSpec("cart", "classification", {"max_depth": 2}),
        fold_losses=[0.1, 0.2],
        mean_loss=0.15,
        var_loss=0.0025,
        failed=False,
        error=None,
    )
    d = to_jsonable(cell)
    assert d["spec"]["kind"] == "cart"
    assert d["fold_losses"] == [0.1, 0.2]
    assert d["failed"] is False
