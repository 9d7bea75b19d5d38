"""Saved documents are their dataclass fields: the util codec and the v1 format."""

import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import hmm_fit, read_core
from farecast import hmm, learners, qlearn
from farecast.cli import main
from farecast.core import FarecastError
from farecast.features import corpus_anchor
from farecast.hmm import HmmModel
from farecast.ingest import SplitConfig, load_quotes, split
from farecast.learners import LearnerSpec, load_model, save_model
from farecast.metrics import backtest_report
from farecast.pipeline import build_dataset, route_order
from farecast.policy import decide_classification
from farecast.tuning import grid_search
from farecast.util import from_jsonable, to_jsonable

V1 = Path(__file__).parent / "data" / "v1"

# Fit diagnostics an instance keeps and a document leaves out.
NOT_SAVED_FIELDS = {
    "Cart": {"fitted_value"},
    "AdaBoostClassifier": {"epsilons", "bounds", "train_errors", "stopped_early"},
    "AdaBoostRegressor": {"avg_losses", "stopped_early"},
    "Logistic": {"loss_history"},
    "Mlp3": {"loss_history"},
}
PAIRS = [("least_squares", "regression", {}), ("logistic", "classification", {}),
         ("mlp3", "regression", {"hidden": 4, "epochs": 5}),
         ("mlp3", "classification", {"hidden": 4, "epochs": 5}),
         ("cart", "regression", {"max_depth": 3}), ("cart", "classification", {}),
         ("adaboost_cart", "regression", {"n_rounds": 5, "weak_depth": 2}),
         ("adaboost_cart", "classification", {"n_rounds": 5, "weak_depth": 2}),
         ("random_forest", "regression", {"n_trees": 3, "max_depth": 3}),
         ("random_forest", "classification", {"n_trees": 3}),
         ("knn", "regression", {"k": 3}), ("knn", "classification", {"k": 3})]


@pytest.fixture(scope="module")
def corpus():
    series = load_quotes(V1 / "quotes.csv")
    train, test = split(series, SplitConfig.from_json(V1 / "split.json"))
    routes, anchor = route_order(series), corpus_anchor(series)
    return (build_dataset(train, routes, anchor, role="train"),
            build_dataset(test, routes, anchor, role="test"), train, test)


def fitted_documents(corpus):
    """(instance, reader) per document class; a reader takes the saved dict."""
    train_ds, test_ds, train_series, test_series = corpus
    for kind, task, hp in PAIRS:
        model = learners.fit(LearnerSpec(kind, task, hp), train_ds, seed=3)
        std = model.standardizer
        n_inputs = model.n_features if std is None else int(std.keep.sum())
        core = model.core
        yield core, lambda raw, cls=type(core), n=n_inputs: read_core(cls, raw, n)
    yield hmm_fit(train_series[:3], n_states=2, max_iter=5, seed=1), None
    yield qlearn.q_train(train_series, episodes=2, seed=1), None
    decisions = [decide_classification(s, np.zeros(len(s), dtype=int)) for s in test_series]
    yield backtest_report(decisions, test_series)[0], None
    grid = [LearnerSpec("cart", "classification", {"max_depth": d}) for d in (1, 2)]
    yield grid_search(grid, train_ds, seed=0, k=2)[1][0], None


def test_documents_hold_exactly_the_saved_fields_and_read_back(corpus):
    seen = set()
    for instance, reader in fitted_documents(corpus):
        cls = type(instance)
        seen.add(cls.__name__)
        doc = to_jsonable(instance)
        assert set(doc) == ({f.name for f in fields(cls)}
                            - NOT_SAVED_FIELDS.get(cls.__name__, set())), cls.__name__
        read = reader or (lambda raw: from_jsonable(cls, raw))
        assert to_jsonable(read(doc)) == doc, cls.__name__
    assert len(seen) == 12  # the 12 kind x task pairs use 8 core classes, + 4


def test_to_jsonable_converts_arrays_tuples_dates_and_numpy_scalars():
    split_cfg = SplitConfig.default()
    assert to_jsonable({"a": (np.arange(2), np.float64(0.5), np.int64(3), np.bool_(True)),
                        "split": split_cfg}) == {
        "a": [[0, 1], 0.5, 3, True],
        "split": {"train_start": "2015-11-09", "train_end": "2016-01-15",
                  "test_start": "2016-01-16", "test_end": "2016-02-20"}}
    assert type(to_jsonable(np.int64(3))) is int


@pytest.mark.parametrize("edit", [lambda d: d.pop("norm_mean"), lambda d: d.update(x=1)],
                         ids=["missing", "extra"])
def test_from_jsonable_needs_exactly_the_saved_keys(edit):
    model = HmmModel(route_index=0, n_states=1, initial=np.array([1.0]),
                     transition=np.array([[1.0]]), means=np.array([1.0]),
                     variances=np.array([0.1]))
    doc = to_jsonable(model)
    assert to_jsonable(from_jsonable(HmmModel, doc)) == doc
    edit(doc)
    with pytest.raises(FarecastError):
        from_jsonable(HmmModel, doc)
    with pytest.raises(FarecastError):
        from_jsonable(HmmModel, [1, 2])


# -- the version-1 documents -----------------------------------------------------


V1_MODELS = sorted(p.name for p in V1.glob("model_*.json"))


def test_v1_has_every_kind_and_task_and_the_blend():
    assert len(V1_MODELS) == 13


@pytest.mark.parametrize("name", V1_MODELS)
def test_v1_model_saves_back_byte_for_byte_and_predicts_as_written(name, corpus, tmp_path):
    model = load_model(V1 / name)
    save_model(model, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (V1 / name).read_bytes()
    want = json.loads((V1 / "predictions.json").read_text(encoding="utf-8"))[name]
    X = corpus[1].X
    assert learners.predict(model, X).tolist() == want["predict"]
    assert learners.predict_scores(model, X).tolist() == want["scores"]


def test_v1_hmm_template_and_qtable_save_back_byte_for_byte(tmp_path):
    hmm.save_model(hmm.load_model(V1 / "hmm_0.json"), tmp_path / "hmm_0.json")
    assert (tmp_path / "hmm_0.json").read_bytes() == (V1 / "hmm_0.json").read_bytes()
    qlearn.save_qtable(qlearn.load_qtable(V1 / "qtable.json"), tmp_path / "qtable.json")
    assert (tmp_path / "qtable.json").read_bytes() == (V1 / "qtable.json").read_bytes()


TREE_MODELS = [name for name in V1_MODELS if "cart" in name or "forest" in name
               or "blend" in name]
BOOSTED_WEIGHTS = {"model_adaboost_cart_classification.json": "alphas",
                   "model_adaboost_cart_regression.json": "log_inv_betas"}


def first_tree(doc: dict) -> dict:
    core = doc["core"]
    if "members" in core:
        return first_tree(core["members"][0])
    return core["trees"][0] if "trees" in core else core


def backtest_exit_code(doc: dict, tmp_path, capsys) -> int:
    """``backtest --load-model`` of ``doc``, or of the text ``doc``; an exit of 2
    must print one JSON line."""
    path = tmp_path / "model.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["backtest", "--quotes", str(V1 / "quotes.csv"), "--split-config",
                 str(V1 / "split.json"), "--load-model", str(path), "--out", os.devnull])
    if code == 2:
        assert json.loads(capsys.readouterr().err)["error"] == "FarecastError"
    return code


@pytest.mark.parametrize("name", V1_MODELS)
def test_v1_model_documents_back_test(name, tmp_path, capsys):
    doc = json.loads((V1 / name).read_text(encoding="utf-8"))
    assert backtest_exit_code(doc, tmp_path, capsys) == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["threshold", "value"])
@pytest.mark.parametrize("name", TREE_MODELS)
def test_a_tree_float_no_fit_gives_exits_two(name, field, bad, tmp_path, capsys):
    doc = json.loads((V1 / name).read_text(encoding="utf-8"))
    first_tree(doc)[field][0] = bad
    assert backtest_exit_code(doc, tmp_path, capsys) == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0],
                         ids=["nan", "inf", "-inf", "negative"])
@pytest.mark.parametrize("name", sorted(BOOSTED_WEIGHTS))
def test_a_boosting_weight_no_fit_gives_exits_two(name, bad, tmp_path, capsys):
    # A NaN in alphas[0] of the bench model reported -49.35 with exit 0, and
    # an infinite one 87.44: its mean_normalized_pct is 88.00.
    doc = json.loads((V1 / name).read_text(encoding="utf-8"))
    doc["core"][BOOSTED_WEIGHTS[name]][0] = bad
    assert backtest_exit_code(doc, tmp_path, capsys) == 2


# Every other saved float field, with the values no fit gives beyond nan and
# +-inf: a scale of least squares and a Q-table's route mean must be positive.
# A nan in Logistic.coef[0] reported a mean_normalized_pct of 50.11, not 78.77,
# with exit 0, and a zero LeastSquares.scale[0] 54.85, not 57.26.
NOT_FINITE = (math.nan, math.inf, -math.inf)
NOT_POSITIVE = (*NOT_FINITE, 0.0, -1.0)
MLP3, KNN = ("w1", "b1", "w2", "b2"), ("X", "y")
SAVED_FLOATS = {
    "model_least_squares_regression.json": {"coef": NOT_FINITE, "mean": NOT_FINITE,
                                            "scale": NOT_POSITIVE},
    "model_logistic_classification.json": {"coef": NOT_FINITE},
    **{f"model_mlp3_{task}.json": dict.fromkeys(MLP3, NOT_FINITE)
       for task in ("classification", "regression")},
    **{f"model_knn_{task}.json": dict.fromkeys(KNN, NOT_FINITE)
       for task in ("classification", "regression")},
}


def with_first_entry(values, bad):
    """``values`` with its first scalar, however deeply nested, set to ``bad``."""
    if not isinstance(values, list):
        return bad
    return [with_first_entry(values[0], bad), *values[1:]]


@pytest.mark.parametrize("name, field, bad", [
    (name, field, bad) for name, saved in sorted(SAVED_FLOATS.items())
    for field, bads in saved.items() for bad in bads])
def test_a_saved_float_no_fit_gives_exits_two(name, field, bad, tmp_path, capsys):
    doc = json.loads((V1 / name).read_text(encoding="utf-8"))
    doc["core"][field] = with_first_entry(doc["core"][field], bad)
    assert backtest_exit_code(doc, tmp_path, capsys) == 2


@pytest.mark.parametrize("bad", [None, *NOT_POSITIVE])
def test_a_qtable_route_mean_no_fit_gives_exits_two(bad, tmp_path, capsys):
    doc = json.loads((V1 / "qtable.json").read_text(encoding="utf-8"))
    if bad is not None:
        doc["route_means"]["R1"] = bad
    path = tmp_path / "qtable.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["qlearn", "--quotes", str(V1 / "quotes.csv"), "--split-config",
                 str(V1 / "split.json"), "--load-table", str(path), "--out", os.devnull])
    if bad is None:
        assert code == 0
    else:
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FarecastError"


# -- inputs the one reader rejects ------------------------------------------------


OTHER_TASK = {"classification": "regression", "regression": "classification"}


@pytest.mark.parametrize("name", ["model_adaboost_cart_classification.json",
                                  "model_random_forest_classification.json",
                                  "model_adaboost_cart_regression.json"])
def test_member_trees_of_the_other_task_exit_two(name, tmp_path, capsys):
    # These loaded with exit 0 and reported a mean_normalized_pct of 78.766,
    # 62.9068 and 50.1109, against 68.2802, 68.0096 and 51.9671 as saved.
    doc = json.loads((V1 / name).read_text(encoding="utf-8"))
    for tree in doc["core"]["trees"]:
        tree["task"] = OTHER_TASK[tree["task"]]
    assert backtest_exit_code(doc, tmp_path, capsys) == 2


# A tree field's first entry, as the literal JSON text of the file. Infinity and
# the two overflowing literals ended in an OverflowError traceback; 2.5 loaded
# as feature 2 and true as feature 1, with exit 0.
TREE_LITERALS = [("feature", "Infinity"), ("left", "Infinity"), ("right", "Infinity"),
                 ("feature", "2.5"), ("feature", "true"), ("feature", "1e999"),
                 ("threshold", "1" + "0" * 400)]


@pytest.mark.parametrize("field, literal", TREE_LITERALS,
                         ids=[f"{f}-{t[:8]}" for f, t in TREE_LITERALS])
def test_a_tree_entry_the_reader_rejects_exits_two(field, literal, tmp_path, capsys):
    doc = json.loads((V1 / "model_cart_classification.json").read_text(encoding="utf-8"))
    doc["core"][field][0] = "@@"
    text = json.dumps(doc).replace('"@@"', literal)
    assert backtest_exit_code(text, tmp_path, capsys) == 2
