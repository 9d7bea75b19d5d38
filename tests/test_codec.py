"""Saved documents are their dataclass fields: the util codec and the v1 format."""

import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

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
        yield core, lambda raw, cls=type(core), n=n_inputs: cls.from_jsonable(raw, n)
    yield hmm.hmm_fit(train_series[:3], n_states=2, max_iter=5, seed=1), None
    yield qlearn.q_train(train_series, episodes=2, seed=1), None
    decisions = {s.key: decide_classification(s, np.zeros(len(s), dtype=int))
                 for s in test_series}
    yield backtest_report(decisions, {s.key: s for s in test_series})[0], None
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
    model = HmmModel(route_index=0, n_states=1, initial=[1.0], transition=[[1.0]],
                     means=[1.0], variances=[0.1])
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
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    code = main(["backtest", "--quotes", str(V1 / "quotes.csv"), "--split-config",
                 str(V1 / "split.json"), "--load-model", str(path), "--out", os.devnull])
    if code == 2:
        assert json.loads(capsys.readouterr().err)["error"] == "FarecastError"
    return code


@pytest.mark.parametrize("name", TREE_MODELS)
def test_v1_tree_documents_back_test(name, tmp_path, capsys):
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
