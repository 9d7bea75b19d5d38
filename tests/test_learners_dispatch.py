"""The fit/predict facade: specs, dispatch, blending, serialization."""

from datetime import date

import numpy as np
import pytest

from conftest import dataset_of
from farecast import learners
from farecast.core import SeriesKey
from farecast.learners import (
    DegenerateData,
    IncompatibleSpec,
    LearnerSpec,
    WrongMemberCount,
    blend_predict,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)


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
            assert model.parameters["standardizer"] is not None
        else:
            assert model.parameters["standardizer"] is None


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


# -- uniform blend ----------------------------------------------------------


def vote_member(reversed_, route_idx, seed=0):
    """A per-route CART that votes 1 on cheap rows (or the opposite)."""
    rng = np.random.default_rng(100 + route_idx)
    values = rng.uniform(10, 90, 30)
    fn = (lambda v: v > 50) if reversed_ else (lambda v: v < 50)
    rows = feature_rows(values, label_fn=fn, route_idx=route_idx)
    return learners.fit(
        LearnerSpec("cart", "classification", {"max_depth": 2}),
        dataset_of(rows),
        seed=seed,
    )


def cheap_probe():
    return dataset_of(feature_rows([10.0], label_fn=lambda v: True)).X


def test_blend_majority_of_five_buys():
    members = [vote_member(r >= 5, r) for r in range(8)]
    assert blend_predict(members, cheap_probe())[0] == 1


def test_blend_four_four_tie_waits():
    members = [vote_member(r >= 4, r) for r in range(8)]
    assert blend_predict(members, cheap_probe())[0] == 0


def test_blend_unanimous_matches_any_member():
    members = [vote_member(False, r) for r in range(8)]
    probe = cheap_probe()
    assert blend_predict(members, probe)[0] == learners.predict(members[0], probe)[0] == 1
    members = [vote_member(True, r) for r in range(8)]
    assert blend_predict(members, probe)[0] == 0


def test_blend_wrong_member_count():
    members = [vote_member(False, r) for r in range(7)]
    with pytest.raises(WrongMemberCount):
        blend_predict(members, cheap_probe())


def test_blend_rejects_regression_members(threshold_data):
    reg = learners.fit(LearnerSpec("cart", "regression"), threshold_data, seed=0)
    with pytest.raises(IncompatibleSpec):
        blend_predict([reg] * 8, cheap_probe())


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
    members = model.parameters["core"]
    assert len(members) == 8
    assert all(m.spec.kind == "adaboost_cart" for m in members)
    probe = cheap_probe()
    assert np.array_equal(
        learners.predict(model, probe), blend_predict(members, probe)
    )
    scores = learners.predict_scores(model, probe)
    votes = sum(learners.predict(m, probe)[0] for m in members)
    assert scores[0] == votes / 8


def test_fit_uniform_blend_regression_is_member_mean():
    train = blend_train_data()
    spec = LearnerSpec("uniform_blend", "regression", {"member_kind": "cart"})
    model = learners.fit(spec, train, seed=2)
    members = model.parameters["core"]
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


def test_blend_own_dummies_retags_rows():
    """KNN members whose only informative feature is the route dummy."""
    members = []
    for r in range(8):
        other = (r + 1) % 8
        rows = [
            feature_rows([0.0], label_fn=lambda v: False, route_idx=other)[0],
            feature_rows([1.0], label_fn=lambda v: True, route_idx=r)[0],
        ]
        members.append(
            learners.fit(
                LearnerSpec("knn", "classification", {"k": 1}),
                dataset_of(rows),
                seed=0,
            )
        )
    probe = dataset_of(feature_rows([0.5], label_fn=lambda v: True, route_idx=7)).X
    # re-tagged: every member sees its own route dummy and finds the 1-label row
    with_own = blend_predict(members, probe, own_dummies=True)
    assert with_own[0] == 1
    # raw rows carry route 7: only member 7 matches its 1-label row
    without = blend_predict(members, probe, own_dummies=False)
    assert without[0] == 0


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
    assert len(clone.parameters["core"]) == 8
    assert np.array_equal(
        learners.predict(model, train.X), learners.predict(clone, train.X)
    )


def test_model_document_guards(threshold_data):
    model = learners.fit(LearnerSpec("cart", "regression"), threshold_data, seed=0)
    doc = model_to_dict(model)
    assert doc["format"] == "farecast-model"
    assert doc["version"] == 1

    from farecast.core import FarecastError

    bad = dict(doc)
    bad["format"] = "something-else"
    with pytest.raises(FarecastError):
        model_from_dict(bad)
    bad = dict(doc)
    bad["version"] = 99
    with pytest.raises(FarecastError):
        model_from_dict(bad)


# -- batch invariance -------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_block():
    """Every quote of a 4-route corpus as one labeled block, 8 series a route."""
    from conftest import group_series
    from farecast import synthgen
    from farecast.pipeline import build_dataset, route_order

    cfg = synthgen.GeneratorConfig(n_routes=4, departures_per_route=8, horizon_days=20)
    series = group_series(synthgen.generate_corpus(cfg, seed=2))
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
