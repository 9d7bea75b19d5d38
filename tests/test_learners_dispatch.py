"""The fit/predict facade: specs, dispatch, blending, serialization."""

import functools
import json
from dataclasses import MISSING, fields
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import class_counts, copying_take, dataset_of
from farecast import learners
from farecast.core import BUY, WAIT, FarecastError, SeriesKey
from farecast.features import CONTINUOUS_NAMES, feature_dataset, set_route_dummies
from farecast.learners import (
    DegenerateData,
    IncompatibleSpec,
    LearnerSpec,
    TrainedModel,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from farecast.learners.boosting import AdaBoostClassifier
from farecast.learners.tree import DEPTH_CAP, distinct_rows
from farecast.pipeline import run_uniform_generalized
from farecast.policy import PurchaseDecision, decide_classification
from farecast.preprocess import oversample
from farecast.synthgen import generalized_config, generate_corpus
from farecast.tuning import default_grid
from farecast.util import to_jsonable


def feature_rows(values, label_fn=None, reg_fn=None, route_idx=0):
    """One row per value; continuous features track the value."""
    key = SeriesKey(f"R{route_idx + 1}", date(2016, 1, 13))
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


@pytest.fixture(scope="module")
def threshold_data():
    rng = np.random.default_rng(30)
    values = rng.uniform(10, 90, 120)
    return dataset_of(
        feature_rows(values, label_fn=lambda v: v < 50, reg_fn=lambda v: 2 * v + 5))


CLS_KINDS = ["logistic", "mlp3", "cart", "adaboost_cart", "random_forest", "knn"]
REG_KINDS = ["least_squares", "mlp3", "cart", "adaboost_cart", "random_forest", "knn"]

FAST_HP = {
    "mlp3": {"hidden": 8, "epochs": 150, "lr": 0.05},
    "adaboost_cart": {"n_rounds": 10, "weak_depth": 1},
    "random_forest": {"n_trees": 10},
    "knn": {"k": 3},
}


@pytest.mark.parametrize("kind", CLS_KINDS)
def test_fit_predict_classification(kind, threshold_data):
    spec = LearnerSpec(kind=kind, task="classification", hyperparams=FAST_HP.get(kind, {}))
    model = learners.fit(spec, threshold_data, seed=0)
    y = threshold_data.label_class
    pred = learners.predict(model, threshold_data.X)
    assert set(np.unique(pred)) <= {0, 1}
    assert (pred == y).mean() >= 0.9


@pytest.mark.parametrize("kind", REG_KINDS)
def test_fit_predict_regression(kind, threshold_data):
    spec = LearnerSpec(kind=kind, task="regression", hyperparams=FAST_HP.get(kind, {}))
    model = learners.fit(spec, threshold_data, seed=0)
    y = threshold_data.label_reg
    pred = learners.predict(model, threshold_data.X)
    rmse = np.sqrt(np.mean((pred - y) ** 2))
    assert rmse < np.std(y)  # beats predicting the mean


def test_least_squares_recovers_linear_target(threshold_data):
    spec = LearnerSpec(kind="least_squares", task="regression")
    model = learners.fit(spec, threshold_data, seed=0)
    y = threshold_data.label_reg
    assert np.allclose(learners.predict(model, threshold_data.X), y, atol=1e-6)


@pytest.mark.parametrize("kind", CLS_KINDS)
def test_scores_agree_with_hard_labels(kind, threshold_data):
    spec = LearnerSpec(kind=kind, task="classification", hyperparams=FAST_HP.get(kind, {}))
    model = learners.fit(spec, threshold_data, seed=0)
    scores = learners.predict_scores(model, threshold_data.X)
    assert ((0.0 <= scores) & (scores <= 1.0)).all()
    assert np.array_equal(
        (scores > 0.5).astype(int), learners.predict(model, threshold_data.X)
    )


def test_spec_validation():
    with pytest.raises(IncompatibleSpec):
        LearnerSpec(kind="least_squares", task="classification")
    with pytest.raises(IncompatibleSpec):
        LearnerSpec(kind="logistic", task="regression")
    with pytest.raises(IncompatibleSpec):
        LearnerSpec(kind="svm", task="classification")
    with pytest.raises(IncompatibleSpec):
        LearnerSpec(kind="cart", task="ranking")


def test_single_class_training_raises(threshold_data):
    rows = feature_rows(np.linspace(10, 40, 20), label_fn=lambda v: True)
    spec = LearnerSpec(kind="cart", task="classification")
    with pytest.raises(DegenerateData):
        learners.fit(spec, dataset_of(rows), seed=0)


def test_empty_training_set_raises():
    spec = LearnerSpec(kind="cart", task="classification")
    with pytest.raises(DegenerateData):
        learners.fit(spec, dataset_of([]), seed=0)


def test_hyperparam_aliases(threshold_data):
    base = learners.fit(
        LearnerSpec("adaboost_cart", "classification", {"n_rounds": 7, "weak_depth": 1}),
        threshold_data, seed=0,
    )
    alias = learners.fit(
        LearnerSpec("adaboost_cart", "classification", {"T": 7, "weak_depth": 1}),
        threshold_data, seed=0,
    )
    assert np.array_equal(
        learners.predict(base, threshold_data.X),
        learners.predict(alias, threshold_data.X),
    )

    base = learners.fit(
        LearnerSpec("random_forest", "classification", {"n_trees": 5}), threshold_data, seed=3
    )
    alias = learners.fit(
        LearnerSpec("random_forest", "classification", {"B": 5}), threshold_data, seed=3
    )
    assert np.array_equal(
        learners.predict_scores(base, threshold_data.X),
        learners.predict_scores(alias, threshold_data.X),
    )


def test_standardizer_only_on_scale_sensitive_kinds(threshold_data):
    scaled = {"least_squares", "logistic", "mlp3", "knn"}
    for kind in set(CLS_KINDS) | set(REG_KINDS):
        task = "regression" if kind == "least_squares" else (
            "classification" if kind == "logistic" else "regression"
        )
        if kind == "logistic":
            task = "classification"
        spec = LearnerSpec(kind=kind, task=task, hyperparams=FAST_HP.get(kind, {}))
        model = learners.fit(spec, threshold_data, seed=0)
        if kind in scaled:
            assert model.standardizer is not None
        else:
            assert model.standardizer is None


def test_adaboost_train_summary_fields(threshold_data):
    model = learners.fit(
        LearnerSpec("adaboost_cart", "classification", {"n_rounds": 5, "weak_depth": 1}),
        threshold_data, seed=0,
    )
    s = model.train_summary
    assert {"rounds_used", "epsilons", "bounds", "train_errors", "stopped_early"} <= set(s)
    assert len(s["epsilons"]) == len(s["bounds"]) == len(s["train_errors"])

    reg = learners.fit(
        LearnerSpec("adaboost_cart", "regression", {"n_rounds": 5, "weak_depth": 2}),
        threshold_data, seed=0,
    )
    assert "avg_losses" in reg.train_summary


@pytest.mark.parametrize("kind", ["mlp3", "random_forest"])
def test_seeded_kinds_are_deterministic(kind, threshold_data):
    spec = LearnerSpec(kind=kind, task="classification", hyperparams=FAST_HP[kind])
    a = learners.fit(spec, threshold_data, seed=11)
    b = learners.fit(spec, threshold_data, seed=11)
    assert np.array_equal(
        learners.predict_scores(a, threshold_data.X),
        learners.predict_scores(b, threshold_data.X),
    )


# -- tree kinds fit distinct rows ------------------------------------------------


def direct_core(kind, task, X, y, sample_weight=None, **hp):
    """The core ``learners.fit`` builds for a tree kind, fit on (X, y) as given."""
    spec = LearnerSpec(kind, task, hp)
    return learners._new_core(spec, learners._resolve(spec)).fit(X, y, sample_weight)


TREE_SPECS = [("cart", "classification", {}), ("cart", "regression", {}),
              ("adaboost_cart", "classification", {"n_rounds": 10, "weak_depth": 2}),
              ("adaboost_cart", "regression", {"n_rounds": 10, "weak_depth": 2})]


def labels(data, task):
    return data.label_class if task == "classification" else data.label_reg


@pytest.mark.parametrize("kind,task,hp", TREE_SPECS)
def test_tree_kinds_without_repeated_rows_fit_the_rows_as_given(kind, task, hp, threshold_data):
    model = learners.fit(LearnerSpec(kind, task, hp), threshold_data, seed=0)
    direct = direct_core(kind, task, threshold_data.X, labels(threshold_data, task), **hp)
    assert model_to_dict(model)["core"] == to_jsonable(direct)


@pytest.fixture(scope="module")
def oversampled_data():
    rng = np.random.default_rng(31)
    data = dataset_of(feature_rows(rng.uniform(10, 90, 80), label_fn=lambda v: v < 30,
                                   reg_fn=lambda v: round(v)))
    return oversample(data, seed=4)


@pytest.mark.parametrize("kind,task,hp", TREE_SPECS)
def test_tree_kinds_fit_repeated_rows_once_weighted_by_count(kind, task, hp, oversampled_data):
    X, y = oversampled_data.X, labels(oversampled_data, task)
    rows, counts = distinct_rows(X, y)
    assert len(rows) < len(y)
    model = learners.fit(LearnerSpec(kind, task, hp), oversampled_data, seed=0)
    direct = direct_core(kind, task, X[rows], y[rows], counts.astype(float), **hp)
    assert model_to_dict(model)["core"] == to_jsonable(direct)


def test_min_leaf_above_one_keeps_the_repeated_rows():
    # Row 0 (the only buy) three times: with min_leaf 2 the copies may form a
    # leaf of their own, a single weighted row may not.
    data = dataset_of(feature_rows(range(6), label_fn=lambda v: v == 0)).take(
        np.array([0, 0, 0, 1, 2, 3, 4, 5]))
    X, y = data.X, data.label_class
    model = learners.fit(LearnerSpec("cart", "classification", {"min_leaf": 2}), data, seed=0)
    copies = direct_core("cart", "classification", X, y, min_leaf=2)
    rows, counts = distinct_rows(X, y)
    weighted = direct_core("cart", "classification", X[rows], y[rows], counts.astype(float),
                           min_leaf=2)
    assert model_to_dict(model)["core"] == to_jsonable(copies)
    assert to_jsonable(copies) != to_jsonable(weighted)


@st.composite
def oversampled_by_index(draw):
    """(balanced, copies): ``oversample`` of a small two-route set whose rows
    repeat exactly, each route holding both classes and either class the
    minority, and the same rows copied."""
    def values():
        return draw(st.tuples(*[st.integers(0, 2)] * len(CONTINUOUS_NAMES)))

    distinct = [(route, values(), label) for route in (0, 1) for label in (False, True)]
    distinct += [(draw(st.integers(0, 1)), values(), draw(st.booleans()))
                 for _ in range(draw(st.integers(0, 4)))]
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=20))
    rows = distinct + [distinct[i] for i in picks]
    buys = sum(label for _, _, label in rows)
    assume(2 * buys != len(rows))
    minority = draw(st.sampled_from([WAIT, BUY]))
    flip = (2 * buys < len(rows)) != (minority == BUY)
    key = SeriesKey("R1", date(2016, 1, 13))
    train = dataset_of([(key, route, v, label != flip, sum(v) + label) for route, v, label in rows],
                       width=2)
    assert class_counts(train)[minority] < class_counts(train)[1 - minority]
    balanced = oversample(train, seed=draw(st.integers(0, 2**16)))
    return balanced, copying_take(train, balanced.index)


BY_INDEX_SPECS = [
    *(LearnerSpec(kind, task, {**hp, "min_leaf": leaf}) for kind, task, hp in TREE_SPECS
      for leaf in (1, 2)),
    LearnerSpec("uniform_blend", "classification", {"member_kind": "cart"}),
    LearnerSpec("uniform_blend", "classification",
                {"member_params": {"n_rounds": 5, "weak_depth": 2}}),
    LearnerSpec("uniform_blend", "regression", {"member_params": {"min_leaf": 2}}),
    LearnerSpec("logistic", "classification", {"max_iter": 50}),
    LearnerSpec("knn", "classification", {"k": 3}),
    LearnerSpec("knn", "regression", {"k": 3}),
]


def fit_outcome(spec, train):
    """The saved document of ``spec`` fit on ``train``, or the error it raised."""
    try:
        return json.dumps(model_to_dict(learners.fit(spec, train, seed=7)))
    except FarecastError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("spec", BY_INDEX_SPECS, ids=lambda s: f"{s.kind}-{s.task}-" + json.dumps(
    s.hyperparams, separators=(",", ":")).replace('"', ""))
@settings(max_examples=40, deadline=None)
@given(oversampled_by_index())
def test_a_fit_on_rows_held_by_index_is_the_fit_on_their_copies(spec, sets):
    balanced, copies = sets
    assert fit_outcome(spec, balanced) == fit_outcome(spec, copies)
    # Reversed, each row is first held out of the order of the training set.
    backwards = np.arange(len(copies))[::-1]
    assert fit_outcome(spec, balanced.take(backwards)) == \
        fit_outcome(spec, copying_take(copies, backwards))


def test_balanced_oversampled_classes_fall_back_to_wait():
    # 11 waits, then 4 buys that oversampling copies up to 11: the class
    # weights are exactly equal, so the no-tree fallback is wait.
    train = oversample(dataset_of(feature_rows(range(15), label_fn=lambda v: v >= 11)), seed=0)
    assert class_counts(train) == (11, 11)
    boost = AdaBoostClassifier(n_rounds=1, weak_depth=1, min_leaf=1)
    assert boost.fit(train.X, train.label_class).majority == 0
    model = learners.fit(LearnerSpec("adaboost_cart", "classification", {"n_rounds": 1}),
                         train, seed=0)
    assert model.core.majority == 0


# -- nested grid cells ---------------------------------------------------------


@pytest.fixture(scope="module")
def noisy_oversampled_data():
    rng = np.random.default_rng(32)
    values = np.round(rng.uniform(10, 90, 120))
    data = dataset_of(feature_rows(values, label_fn=lambda v: (v < 50) != (v % 7 < 2),
                                   reg_fn=lambda v: v % 13 + v / 10))
    return oversample(data, seed=5)


@pytest.mark.parametrize("task", learners.TASKS)
@pytest.mark.parametrize("kind, fixed, sizes", [
    ("cart", {}, [None, 12, 4, 1, 0]),
    ("adaboost_cart", {"weak_depth": 2}, [25, 24, 9, 1]),
])
def test_truncated_model_is_the_direct_fit(noisy_oversampled_data, kind, fixed, sizes, task):
    nested = learners._KIND_TABLE[kind].nested
    specs = [LearnerSpec(kind, task, {**fixed, nested: size}) for size in sizes]
    whole = learners.fit(specs[0], noisy_oversampled_data, seed=3)
    for spec in specs:
        derived = learners.truncated(whole, spec)
        direct = learners.fit(spec, noisy_oversampled_data, seed=3)
        assert model_to_dict(derived) == model_to_dict(direct)  # train_summary included


def test_nested_groups():
    groups = {}
    for spec in default_grid("adaboost_cart", "classification"):
        key, size = learners.nested_group(spec)
        groups.setdefault(key, []).append(size)
    assert sorted(groups.values()) == [[50, 100, 200]] * 3
    alias = LearnerSpec("adaboost_cart", "classification", {"T": 7, "weak_depth": 1})
    assert learners.nested_group(alias) == (next(iter(groups)), 7)

    def cart(task="regression", **hp):
        return learners.nested_group(LearnerSpec("cart", task, hp))
    assert cart(max_depth=None) == (cart()[0], DEPTH_CAP)
    assert cart(min_leaf=2)[0] != cart()[0] != cart("classification")[0]
    assert cart(max_dept=2) == (None, 0)  # does not resolve
    assert learners.nested_group(LearnerSpec("knn", "regression", {"k": 3})) == (None, 0)


# -- uniform blend ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def vote_member(reversed_, route_idx, width=8):
    """A per-route CART over ``width`` route dummies that votes 1 on cheap
    rows (or the opposite)."""
    rng = np.random.default_rng(100 + route_idx)
    values = rng.uniform(10, 90, 30)
    fn = (lambda v: v > 50) if reversed_ else (lambda v: v < 50)
    rows = feature_rows(values, label_fn=fn, route_idx=route_idx)
    return learners.fit(
        LearnerSpec("cart", "classification", {"max_depth": 2}),
        dataset_of(rows, width=width),
        seed=0,
    )


def cheap_probe(width=8):
    return dataset_of(feature_rows([10.0], label_fn=lambda v: True), width=width).X


def blend_document(members, task="classification", width=8):
    """The document of a blend over ``width`` route dummies holding ``members``."""
    spec = LearnerSpec("uniform_blend", task)
    return model_to_dict(TrainedModel(spec, width + len(CONTINUOUS_NAMES), None, members, {}))


def blend_of(members, width=8):
    return model_from_dict(blend_document(members, width=width))


@functools.lru_cache(maxsize=None)
def gen_series():
    """Two generalized series, the rows of which carry no route dummy."""
    cfg = generalized_config(n_routes=2, departures_per_route=1, horizon_days=10)
    return tuple(generate_corpus(cfg, seed=4))


def test_blend_majority_of_five_buys():
    blend = blend_of([vote_member(r >= 5, r) for r in range(8)])
    assert learners.predict(blend, cheap_probe())[0] == 1


def test_blend_four_four_tie_waits():
    blend = blend_of([vote_member(r >= 4, r) for r in range(8)])
    assert learners.predict(blend, cheap_probe())[0] == 0


def test_blend_unanimous_matches_any_member():
    members = [vote_member(False, r) for r in range(8)]
    probe = cheap_probe()
    assert (learners.predict(blend_of(members), probe)[0]
            == learners.predict(members[0], probe)[0] == 1)
    assert learners.predict(blend_of([vote_member(True, r) for r in range(8)]), probe)[0] == 0


@settings(max_examples=30, deadline=None)
@given(labels=st.lists(st.integers(0, 1), min_size=1, max_size=9))
def test_blend_vote_is_a_strict_majority(labels):
    """On a cheap row member r votes labels[r]. The blend votes 1 iff more
    than half of its n members do, and the no-history column is the same
    vote over rows tagged with each member's own route."""
    n = len(labels)
    members = [vote_member(not label, r, width=n) for r, label in enumerate(labels)]
    blend = blend_of(members, width=n)
    assert learners.predict(blend, cheap_probe(width=n))[0] == int(sum(labels) > n // 2)

    block = feature_dataset(gen_series(), n, "generalized")
    votes = np.zeros(len(block), dtype=int)
    for r, member in enumerate(members):
        X = block.X.copy()
        set_route_dummies(X, r)
        votes += learners.predict(member, X)
    expected = [decide_classification(s, v > n // 2)
                for s, v in zip(gen_series(), block.split(votes))]
    assert run_uniform_generalized(blend, gen_series()) == expected


def test_uniform_generalized_tags_rows_with_each_members_route():
    """KNN members that see only the route dummies: member r votes 1 on a row
    tagged r and 0 on any other, so only rows re-tagged per member buy."""
    members = []
    for r in range(8):
        other = (r + 1) % 8
        rows = [feature_rows([0.0], label_fn=lambda v: False, route_idx=other)[0],
                feature_rows([0.0], label_fn=lambda v: True, route_idx=r)[0]]
        members.append(learners.fit(LearnerSpec("knn", "classification", {"k": 1}),
                                    dataset_of(rows), seed=0))
    blend = blend_of(members)
    block = feature_dataset(gen_series(), 8, "generalized")
    for r in range(8):  # every member on route r's rows: one vote, so no row buys
        set_route_dummies(block.X, r)
        assert not learners.predict(blend, block.X).any()
    decisions = run_uniform_generalized(blend, gen_series())
    assert decisions == [PurchaseDecision(s.first_query_date, float(s.prices[0]), False)
                         for s in gen_series()]


def test_blend_document_needs_one_member_per_route():
    members = [vote_member(False, r) for r in range(8)]
    model_from_dict(blend_document(members))
    for cut in (members[:7], members[:3], []):
        with pytest.raises(IncompatibleSpec, match=f"8 non-blend .* it has {len(cut)}$"):
            model_from_dict(blend_document(cut))


def test_blend_document_rejects_members_of_another_task(threshold_data):
    reg = learners.fit(LearnerSpec("cart", "regression"), threshold_data, seed=0)
    with pytest.raises(IncompatibleSpec, match="8 non-blend classification members"):
        model_from_dict(blend_document([reg] * 8))
    cls = vote_member(False, 0)
    with pytest.raises(IncompatibleSpec, match="8 non-blend regression members"):
        model_from_dict(blend_document([cls] * 8, task="regression"))


def test_uniform_generalized_needs_a_classification_blend(threshold_data):
    reg = learners.fit(LearnerSpec("cart", "regression"), threshold_data, seed=0)
    regression_blend = model_from_dict(blend_document([reg] * 8, task="regression"))
    with pytest.raises(FarecastError, match="classification uniform_blend"):
        run_uniform_generalized(regression_blend, gen_series())


def blend_train_data():
    rng = np.random.default_rng(31)
    rows = []
    for r in range(8):
        values = rng.uniform(10, 90, 24)
        rows += feature_rows(
            values, label_fn=lambda v: v < 50, reg_fn=lambda v: 3 * v, route_idx=r
        )
    return dataset_of(rows)


def test_fit_uniform_blend_classification():
    train = blend_train_data()
    spec = LearnerSpec(
        "uniform_blend", "classification",
        {"member_params": {"n_rounds": 10, "weak_depth": 1}},
    )
    model = learners.fit(spec, train, seed=2)
    members = model.core
    assert len(members) == 8
    assert all(m.spec.kind == "adaboost_cart" for m in members)
    probe = cheap_probe()
    votes = sum(learners.predict(m, probe)[0] for m in members)
    assert learners.predict(model, probe)[0] == int(votes > 4)
    assert learners.predict_scores(model, probe)[0] == votes / 8


def test_fit_uniform_blend_regression_is_member_mean():
    train = blend_train_data()
    spec = LearnerSpec("uniform_blend", "regression", {"member_kind": "cart"})
    model = learners.fit(spec, train, seed=2)
    members = model.core
    probe = dataset_of(feature_rows([33.0], reg_fn=float)).X
    expected = np.mean([learners.predict(m, probe) for m in members], axis=0)
    assert np.allclose(learners.predict(model, probe), expected)


def test_fit_blend_requires_every_route():
    rng = np.random.default_rng(32)
    rows = []
    for r in range(6):  # routes 6 and 7 missing
        rows += feature_rows(rng.uniform(10, 90, 20), label_fn=lambda v: v < 50, route_idx=r)
    spec = LearnerSpec("uniform_blend", "classification", {"member_kind": "cart"})
    with pytest.raises(DegenerateData, match="6, 7"):
        learners.fit(spec, dataset_of(rows), seed=0)


@pytest.mark.parametrize("n_routes", [1, 2])
def test_a_blend_of_blends_is_incompatible(n_routes):
    rng = np.random.default_rng(33)
    rows = []
    for r in range(n_routes):
        rows += feature_rows(rng.uniform(10, 90, 20), label_fn=lambda v: v < 50, route_idx=r)
    spec = LearnerSpec("uniform_blend", "classification", {"member_kind": "uniform_blend"})
    with pytest.raises(IncompatibleSpec, match="member_kind"):
        learners.fit(spec, dataset_of(rows, width=n_routes), seed=0)


# -- serialization ----------------------------------------------------------


ALL_SPECS = [
    ("least_squares", "regression"),
    ("logistic", "classification"),
    ("mlp3", "classification"),
    ("mlp3", "regression"),
    ("cart", "classification"),
    ("cart", "regression"),
    ("adaboost_cart", "classification"),
    ("adaboost_cart", "regression"),
    ("random_forest", "classification"),
    ("random_forest", "regression"),
    ("knn", "classification"),
    ("knn", "regression"),
]


@pytest.mark.parametrize("kind,task", ALL_SPECS)
def test_save_load_round_trip(kind, task, threshold_data, tmp_path):
    spec = LearnerSpec(kind=kind, task=task, hyperparams=FAST_HP.get(kind, {}))
    model = learners.fit(spec, threshold_data, seed=4)
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    assert clone.spec == model.spec
    assert np.array_equal(
        learners.predict(model, threshold_data.X),
        learners.predict(clone, threshold_data.X),
    )
    assert np.array_equal(
        learners.predict_scores(model, threshold_data.X),
        learners.predict_scores(clone, threshold_data.X),
    )


def test_save_load_blend_round_trip(tmp_path):
    train = blend_train_data()
    spec = LearnerSpec("uniform_blend", "classification", {"member_kind": "cart"})
    model = learners.fit(spec, train, seed=2)
    path = tmp_path / "blend.json"
    save_model(model, path)
    clone = load_model(path)
    assert len(clone.core) == 8
    assert np.array_equal(
        learners.predict(model, train.X), learners.predict(clone, train.X)
    )


def test_model_document_guards(threshold_data):
    model = learners.fit(LearnerSpec("cart", "regression"), threshold_data, seed=0)
    doc = model_to_dict(model)
    assert doc["format"] == "farecast-model"
    assert doc["version"] == 1

    bad = dict(doc)
    bad["format"] = "something-else"
    with pytest.raises(FarecastError):
        model_from_dict(bad)
    bad = dict(doc)
    bad["version"] = 99
    with pytest.raises(FarecastError):
        model_from_dict(bad)


@pytest.mark.parametrize("edit", [
    lambda core: core.update(feature=core["feature"][:1]),
    lambda core: core.update(value=core["value"] + [0.0]),
    lambda core: core.update(right=[len(core["right"])] * len(core["right"])),
    lambda core: core.update(left=[0] * len(core["left"])),
    lambda core: core.update(feature=[-2] * len(core["feature"])),
    lambda core: core.update(feature=[], threshold=[], left=[], right=[], value=[]),
])
def test_cart_document_with_inconsistent_nodes_is_rejected(edit, threshold_data):
    doc = model_to_dict(learners.fit(LearnerSpec("cart", "classification"), threshold_data,
                                     seed=0))
    edit(doc["core"])
    with pytest.raises(FarecastError):
        model_from_dict(doc)


def test_tree_document_splitting_past_the_input_width_is_rejected(threshold_data):
    for kind in ("cart", "adaboost_cart", "random_forest"):
        doc = model_to_dict(learners.fit(
            LearnerSpec(kind, "classification", FAST_HP.get(kind, {})), threshold_data, seed=0))
        for tree in doc["core"].get("trees", [doc["core"]]):
            tree["feature"] = [doc["n_features"] if f >= 0 else f for f in tree["feature"]]
        with pytest.raises(FarecastError):
            model_from_dict(doc)


@pytest.mark.parametrize("task,weights", [("classification", "alphas"),
                                          ("regression", "log_inv_betas")])
def test_adaboost_document_needs_one_weight_per_tree(task, weights, threshold_data):
    doc = model_to_dict(learners.fit(
        LearnerSpec("adaboost_cart", task, FAST_HP["adaboost_cart"]), threshold_data, seed=0))
    doc["core"][weights] = doc["core"][weights][:-1]
    with pytest.raises(FarecastError):
        model_from_dict(doc)


@pytest.mark.parametrize("kind,task,edit", [
    ("random_forest", "classification", lambda core: core.update(trees=core["trees"][:-1])),
    ("adaboost_cart", "regression", lambda core: core.update(trees=[], log_inv_betas=[])),
    ("adaboost_cart", "classification", lambda core: core.update(trees=[], alphas=[],
                                                                  majority=5)),
], ids=["forest-fewer-trees-than-n-trees", "boosted-regressor-without-trees",
        "boosted-classifier-majority-not-a-label"])
def test_ensemble_document_without_its_trees_is_rejected(kind, task, edit, threshold_data):
    doc = model_to_dict(learners.fit(LearnerSpec(kind, task, FAST_HP[kind]), threshold_data,
                                     seed=0))
    edit(doc["core"])
    with pytest.raises(FarecastError):
        model_from_dict(doc)


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(n_features="13"),
    lambda doc: doc.update(n_features=13.0),
    lambda doc: doc.update(n_features=5),
    lambda doc: doc["spec"].update(hyperparams=[]),
    lambda doc: doc["spec"].pop("hyperparams"),
    lambda doc: doc.pop("train_summary"),
    lambda doc: doc["core"].update(extra=[]),
], ids=["n-features-string", "n-features-float", "n-features-no-dummy", "hyperparams-list",
        "no-hyperparams", "no-train-summary", "blend-core-extra-key"])
def test_blend_document_with_a_bad_part_is_rejected(edit):
    spec = LearnerSpec("uniform_blend", "classification", {"member_kind": "cart"})
    doc = model_to_dict(learners.fit(spec, blend_train_data(), seed=2))
    model_from_dict(doc)
    edit(doc)
    with pytest.raises(FarecastError):
        model_from_dict(doc)


# -- batch invariance -------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_block():
    """Every quote of a 4-route corpus as one labeled block, 8 series a route."""
    from farecast import synthgen
    from farecast.pipeline import build_dataset, route_order

    cfg = synthgen.GeneratorConfig(n_routes=4, departures_per_route=8, horizon_days=20)
    series = synthgen.generate_corpus(cfg, seed=2)
    return build_dataset(series, route_order(series), series[0].first_query_date, "train")


BIT_EXACT = [("cart", "classification"), ("cart", "regression"),
             ("adaboost_cart", "classification"), ("adaboost_cart", "regression"),
             ("random_forest", "classification"), ("random_forest", "regression"),
             ("knn", "classification"), ("knn", "regression"),
             ("uniform_blend", "classification"), ("uniform_blend", "regression")]
# Matrix products round differently with the row count.
BLAS_ROUNDED = [("logistic", "classification"), ("mlp3", "classification"),
                ("mlp3", "regression"), ("least_squares", "regression")]
BATCH_HP = {**FAST_HP, "uniform_blend": {"member_kind": "cart", "member_params": {"max_depth": 3}}}


@pytest.mark.parametrize("kind,task", BIT_EXACT + BLAS_ROUNDED)
def test_predict_on_the_block_equals_predict_per_series(kind, task, corpus_block):
    model = learners.fit(LearnerSpec(kind, task, BATCH_HP.get(kind, {})), corpus_block, seed=1)
    parts = corpus_block.split(corpus_block.X)
    assert len(parts) == 32
    whole = learners.predict(model, corpus_block.X)
    per_series = np.concatenate([learners.predict(model, part) for part in parts])
    scores = learners.predict_scores(model, corpus_block.X)
    scores_per_series = np.concatenate([learners.predict_scores(model, p) for p in parts])
    if (kind, task) in BIT_EXACT:
        assert np.array_equal(whole, per_series)
        assert np.array_equal(scores, scores_per_series)
    else:
        if task == "classification":
            assert np.array_equal(whole, per_series)
        else:
            np.testing.assert_allclose(whole, per_series, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scores, scores_per_series, rtol=0, atol=1e-12)


# -- hyperparameter resolution -------------------------------------------------------


def owner_spec(name, default, value):
    """A spec of the kind whose table entry has ``name`` with ``default``."""
    kind, entry = next((k, e) for k, e in learners._KIND_TABLE.items()
                       if name in e.hyperparams and e.hyperparams[name] == default)
    return LearnerSpec(kind, next(iter(entry.cores)), {name: value})


@pytest.mark.parametrize("name, default, value", [
    ("max_depth", 8, None), ("max_depth", None, 4), ("lr", 0.01, 1), ("lr", 0.01, 0.5),
    ("subsample", True, False), ("bootstrap", "resample", "identity"),
    ("member_params", {}, {"max_depth": 2}), ("n_rounds", 100, 7),
])
def test_hyperparameter_of_the_default_type_passes(name, default, value):
    resolved = learners._resolve(owner_spec(name, default, value))
    assert resolved[name] == value


@pytest.mark.parametrize("name, default, value", [
    ("max_depth", 8, "x"), ("max_depth", 8, True), ("max_depth", None, 2.0),
    ("n_rounds", 100, 5.0), ("n_rounds", 100, "abc"), ("lr", 0.01, True),
    ("subsample", True, "false"), ("subsample", True, 1), ("bootstrap", "resample", 0),
    ("member_params", {}, []), ("k", 5, None),
])
def test_hyperparameter_of_another_type_is_incompatible(name, default, value):
    with pytest.raises(IncompatibleSpec):
        learners._resolve(owner_spec(name, default, value))


def test_hyperparameter_alias_is_type_checked_too():
    spec = LearnerSpec("adaboost_cart", "classification", {"T": "many"})
    with pytest.raises(IncompatibleSpec):
        learners._resolve(spec)
    assert learners._resolve(
        LearnerSpec("adaboost_cart", "classification", {"T": 3}))["n_rounds"] == 3


def test_resolver_fills_in_every_default():
    assert learners._resolve(LearnerSpec("random_forest", "regression", {"B": 7})) == {
        "n_trees": 7, "max_depth": None, "min_leaf": 1, "bootstrap": "resample",
        "subsample": True}


@pytest.mark.parametrize("kind, hyperparams", [
    ("cart", {"max_dept": 2}), ("cart", {"T": 5}), ("least_squares", {"k": 3}),
    ("adaboost_cart", {"T": 5, "n_rounds": 5}), ("random_forest", {"n_trees": 5, "B": 5}),
], ids=["typo", "alias-of-another-kind", "kind-without-hyperparameters",
        "rounds-twice", "trees-twice"])
def test_unknown_or_repeated_hyperparameter_is_incompatible(kind, hyperparams, threshold_data):
    spec = LearnerSpec(kind, "regression", hyperparams)
    with pytest.raises(IncompatibleSpec, match=repr(next(iter(hyperparams)))):
        learners._resolve(spec)
    with pytest.raises(IncompatibleSpec):  # fit resolves before any work
        learners.fit(spec, threshold_data, seed=0)


@pytest.mark.parametrize("lr", [0, -1, float("inf"), float("nan")])
def test_mlp3_learning_rate_must_be_positive_and_finite(lr, threshold_data):
    spec = LearnerSpec("mlp3", "classification", {"lr": lr})
    with pytest.raises(FarecastError, match="lr must be positive and finite"):
        learners.fit(spec, threshold_data, seed=0)


def test_every_stock_grid_cell_resolves():
    for kind, entry in learners._KIND_TABLE.items():
        for task in entry.cores:
            for spec in default_grid(kind, task):
                learners._resolve(spec)


def test_the_kind_table_holds_the_only_hyperparameter_defaults():
    # A blend's core is a list of member models, which has no fields.
    for kind, entry in learners._KIND_TABLE.items():
        for task, cls in entry.cores.items():
            if cls is list:
                continue
            declared = {f.name: f for f in fields(cls)}
            for name in entry.hyperparams:
                assert name in declared, (kind, task, name)
                assert declared[name].default is MISSING, (kind, task, name)
                assert declared[name].default_factory is MISSING, (kind, task, name)


def test_readme_table_lists_every_kind_task_and_hyperparameter():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Model kinds", 1)[1].split("\n## ", 1)[0]
    rows = {line.split("|")[1].strip(): line for line in section.splitlines()
            if line.startswith("| `")}
    assert set(rows) == {f"`{kind}`" for kind in learners.KINDS}
    for kind, entry in learners._KIND_TABLE.items():
        row = rows[f"`{kind}`"]
        tasks = "both" if len(entry.cores) == 2 else next(iter(entry.cores))
        assert row.split("|")[2].strip() == tasks, kind
        names = list(entry.hyperparams) + [a for a, n in learners._ALIASES.items()
                                           if n in entry.hyperparams]
        for name in names:
            assert f"`{name}`" in row, (kind, name)
