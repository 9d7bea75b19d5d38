"""Acceptance checks for the whole pipeline, one test per criterion.

Each test registers a label with the terminal-summary hook in conftest so a
run prints a single PASS/FAIL line per criterion. Tolerances and time
budgets are stated inline; oracles are either shared with the module tests
(imported from their files) or recomputed here from first principles.
"""

import math
import time

import numpy as np
import pytest

from conftest import (baum_welch, coef_original, forward_loglik, oracle_evaluate,
                      register_criterion, sample, series_of)
from farecast.cli import main as cli_main
from farecast.features import corpus_anchor
from farecast.hmm import HmmModel, classify, fit_bank, generalized_predict
from farecast.ingest import split
from farecast.learners import LearnerSpec, fit, predict
from farecast.learners.boosting import AdaBoostClassifier
from farecast.learners.forest import RandomForest
from farecast.learners.knn import Knn
from farecast.learners.linear import LeastSquares, Logistic
from farecast.learners.mlp import Mlp3
from farecast.learners.tree import Cart
from farecast.metrics import optimal_price, random_purchase_price
from farecast.pipeline import (
    PreprocessConfig,
    apply_preprocessing,
    build_dataset,
    route_order,
    run_policy,
    run_uniform_generalized,
    score_decisions,
    train_specific,
)
from farecast.policy import PurchaseDecision, decide_classification
from farecast.preprocess import class_mean_init, gmm_em2, kmeans2, remove_outliers
from farecast.qlearn import q_policy, q_train
from farecast.synthgen import (
    GeneratorConfig,
    default_split_for,
    generalized_config,
    generate_corpus,
)
from farecast.tuning import grid_search
from farecast.util import derive_seed
from test_hmm import brute_force_loglik, random_model
from test_learners import mlp_gradient_error, perceptron_separable, separable_blobs
from test_preprocess import blob_dataset
from test_qlearn import gapped_series

register_criterion("test_c01", "1. oracle policy scores 100%, random-expectation policy 0%")
register_criterion("test_c02", "2. backtest benchmarks equal the generator's own accounting")
register_criterion("test_c03", "3. labels match a brute-force minimum scan on 1000 series")
register_criterion("test_c04", "4. forward loglik equals path enumeration; EM is monotone")
register_criterion("test_c05", "5. template bank identifies held-out sequences (>= 90%)")
register_criterion("test_c06", "6. learner sanity: OLS, 1-NN, logistic, boosting, MLP grad, forest==CART")
register_criterion("test_c07", "7. boosting training error within the exponential bound")
register_criterion("test_c08", "8. planted mislabel recall >= 0.95, clusterers monotone")
register_criterion("test_c09", "9. one-sweep Q values equal backward induction; greedy is optimal")
register_criterion("test_c10", "10. tuned boosted-tree pipeline beats random purchase")
register_criterion("test_c11", "11. route-template transfer beats uniform blending")
register_criterion("test_c12", "12. identical config and seed give byte-identical outputs")


@pytest.fixture(scope="module")
def specific_split(default_corpus):
    """Default corpus split plus everything the training entry points need."""
    cfg, series = default_corpus
    train_series, test_series = split(series, default_split_for(cfg))
    routes = route_order(series)
    anchor = corpus_anchor(series)
    prep = PreprocessConfig(oversample=True, outlier_removal="none")
    return cfg, series, train_series, test_series, routes, anchor, prep


# -- 1: metric identities ------------------------------------------------------


def test_c01_metric_identities(default_corpus):
    _, series = default_corpus
    start = time.perf_counter()

    # a clairvoyant policy buys at the true minimum on every series
    oracle_decisions = []
    for s in series:
        lowest = min(s.prices)
        labels = [1 if p == lowest else 0 for p in s.prices]
        oracle_decisions.append(decide_classification(s, labels))
    per_route, mean_norm, _ = score_decisions(oracle_decisions, series)
    assert len(per_route) == 8
    for m in per_route:
        assert m.normalized_defined
        assert abs(m.normalized_performance_pct - 100.0) < 1e-9

    # paying the expected random price on every series nets exactly zero
    random_decisions = [
        PurchaseDecision(
            buy_query_date=s.query_dates[0].item(),
            paid_price=random_purchase_price(s),
            forced=False,
        )
        for s in series
    ]
    per_route, _, _ = score_decisions(random_decisions, series)
    for m in per_route:
        assert abs(m.performance_pct) < 1e-9

    assert time.perf_counter() - start < 10.0


# -- 2: scoring cross-check ----------------------------------------------------


def test_c02_backtest_matches_generator_accounting(default_corpus):
    _, series = default_corpus
    decisions = [
        PurchaseDecision(
            buy_query_date=s.query_dates[0].item(),
            paid_price=float(s.prices[0]),
            forced=False,
        )
        for s in series
    ]
    per_route, _, _ = score_decisions(decisions, series)
    oracle = oracle_evaluate(series)
    assert {m.route_id for m in per_route} == set(oracle)
    for m in per_route:
        expected_random, expected_optimal = oracle[m.route_id]
        assert m.random_purchase_price == expected_random
        assert m.optimal_price == expected_optimal


# -- 3: labeling vs brute force ------------------------------------------------


def test_c03_labels_match_brute_force_scan():
    cfg = GeneratorConfig(departures_per_route=125, horizon_days=30)
    series = generate_corpus(cfg, seed=17)
    assert len(series) == 1000
    ds = build_dataset(series, route_order(series), corpus_anchor(series), role="train")
    for s, label_class, label_reg in zip(series, ds.split(ds.label_class),
                                         ds.split(ds.label_reg)):
        lowest = min(s.prices)
        expected = [1 if p == lowest else 0 for p in s.prices]
        assert label_class.tolist() == expected
        assert all(v == lowest for v in label_reg)


# -- 4: HMM inference and estimation ---------------------------------------------


def test_c04_forward_enumeration_and_em_monotonicity():
    for trial in range(500):
        k = 1 + trial % 3
        length = 1 + trial % 5
        model = random_model(seed=5000 + trial, k=k)
        obs = np.random.default_rng(trial).normal(0.0, 2.0, length)
        assert abs(forward_loglik(model, obs) - brute_force_loglik(model, obs)) < 1e-9

    for d in range(20):
        rng = np.random.default_rng(100 + d)
        centers = rng.uniform(-5, 5, 3)
        seqs = [
            centers[rng.integers(0, 3, 20)] + rng.normal(0, 0.5, 20)
            for _ in range(4)
        ]
        result = baum_welch(seqs, n_states=2 + d % 2, max_iter=50, tol=0.0, seed=d)
        hist = result.loglik_history
        assert len(hist) >= 2
        assert all(b >= a - 1e-8 for a, b in zip(hist, hist[1:]))


# -- 5: template identification --------------------------------------------------


def test_c05_bank_identifies_heldout_sequences():
    start = time.perf_counter()
    bank = [
        HmmModel(
            route_index=r,
            n_states=2,
            initial=np.array([0.6, 0.4]),
            transition=np.array([[0.85, 0.15], [0.2, 0.8]]),
            means=np.array([1.0 + 3.0 * r, 2.5 + 3.0 * r]),
            variances=np.array([0.04, 0.04]),
        )
        for r in range(8)
    ]
    routes = np.arange(200) % 8
    obs = np.stack([sample(bank[r], 20, seed=derive_seed(7, "heldout", r, i))
                    for i, r in enumerate(routes.tolist())])
    hits = int((classify(bank, obs, [20] * 200) == routes).sum())
    assert hits / 200 >= 0.90
    assert time.perf_counter() - start < 60.0


# -- 6: learner sanity ------------------------------------------------------------


def test_c06_learner_sanity():
    rng = np.random.default_rng(21)

    # least squares recovers a noiseless linear map exactly
    X = rng.normal(0, 1, (30, 3))
    w_true = np.array([2.0, -1.0, 0.5])
    y = X @ w_true + 4.0
    ls = LeastSquares(standardize=True).fit(X, y)
    assert np.abs(ls.predict(X) - y).max() < 1e-9
    intercept, slopes = coef_original(ls)
    assert np.abs(slopes - w_true).max() < 1e-9
    assert abs(intercept - 4.0) < 1e-9

    # 1-NN reproduces its own training labels
    Xb, yb = separable_blobs(seed=3, n=30)
    knn = Knn(task="classification", k=1).fit(Xb, yb)
    assert np.array_equal(knn.predict(Xb), yb)

    # logistic drives training error to zero on a separable set
    assert perceptron_separable(Xb, yb)
    logit = Logistic(grad_tol=1e-6, max_iter=1000).fit(Xb, yb)
    assert (logit.predict(Xb) == yb).mean() == 1.0

    # boosting shatters a pattern no single stump can
    Xi = np.arange(1, 9, dtype=float).reshape(-1, 1)
    yi = np.array([1, 1, 0, 0, 1, 1, 0, 0])
    boost = AdaBoostClassifier(n_rounds=20, weak_depth=1, min_leaf=1).fit(Xi, yi)
    assert boost.train_errors[-1] == 0.0
    assert np.array_equal(boost.predict(Xi), yi)

    # backprop gradient against central finite differences
    for task in ("classification", "regression"):
        Xg = rng.normal(0, 1, (12, 4))
        yg = (rng.random(12) > 0.5).astype(float) if task == "classification" else rng.normal(0, 1, 12)
        net = Mlp3(task=task, hidden=5, epochs=0, lr=0.01, batch_size=32)
        net.fit(Xg, yg, seed=0)
        assert mlp_gradient_error(net, Xg, yg) < 1e-4

    # a single-tree forest without resampling collapses to plain CART
    Xf = rng.normal(0, 1, (100, 5))
    yf = (Xf[:, 1] > 0.1).astype(int)
    forest = RandomForest(
        task="classification", n_trees=1, max_depth=None, min_leaf=1, bootstrap="identity",
        subsample=False
    ).fit(Xf, yf, seed=0)
    tree = Cart(task="classification", max_depth=None, min_leaf=1).fit(Xf, yf)
    probe = rng.normal(0, 1, (40, 5))
    assert np.array_equal(forest.predict(probe), tree.predict(probe))


# -- 7: boosting bound -------------------------------------------------------------


def test_c07_boosting_error_bound_holds_each_round():
    def check(model):
        assert len(model.train_errors) == len(model.bounds)
        assert len(model.train_errors) >= 1
        for err, bound in zip(model.train_errors, model.bounds):
            assert err <= bound + 1e-12

    Xi = np.arange(1, 9, dtype=float).reshape(-1, 1)
    yi = np.array([1, 1, 0, 0, 1, 1, 0, 0])
    check(AdaBoostClassifier(n_rounds=20, weak_depth=1, min_leaf=1).fit(Xi, yi))

    for seed in range(9):
        rng = np.random.default_rng(seed)
        X = rng.normal(0, 1, (150, 3))
        clean = ((X[:, 0] + X[:, 1] > 0)).astype(int)
        flip = rng.random(150) < 0.1
        y = np.where(flip, 1 - clean, clean)
        model = AdaBoostClassifier(n_rounds=25, weak_depth=1 + seed % 2, min_leaf=1).fit(X, y)
        check(model)


# -- 8: outlier removal -------------------------------------------------------------


def test_c08_planted_mislabels_and_monotone_clusterers():
    for method in ("kmeans", "em"):
        ds, swapped = blob_dataset(seed=0)
        _, removed = remove_outliers(ds, method=method)
        removed_idx = set(removed.series.tolist())  # one series per fixture row
        recall = len(removed_idx & swapped) / len(swapped)
        assert recall >= 0.95

    rng = np.random.default_rng(40)
    X = np.vstack([rng.normal(-2, 1.2, (70, 2)), rng.normal(2, 1.2, (70, 2))])
    y = np.array([0] * 70 + [1] * 70)
    km = kmeans2(X, class_mean_init(X, y))
    assert all(b <= a + 1e-9 for a, b in zip(km.objective_history, km.objective_history[1:]))
    em = gmm_em2(X, class_mean_init(X, y), y=y)
    assert all(b >= a - 1e-9 for a, b in zip(em.loglik_history, em.loglik_history[1:]))


# -- 9: Q-learning ------------------------------------------------------------------


def test_c09_q_values_equal_backward_induction():
    day_prices = [(9, 120.0), (7, 95.0), (4, 130.0), (2, 80.0), (0, 150.0)]
    s = gapped_series(day_prices)
    table = q_train([s], episodes=1, gamma=1.0, alpha=1.0, seed=0)
    mean = math.fsum(p for _, p in day_prices) / len(day_prices)
    assert abs(table.route_means["R1"] - mean) < 1e-12

    # deterministic series, gamma=1, alpha=1: one reverse sweep is exact DP
    states = [d for d, _ in day_prices]
    v_buy, v_wait = {}, {}
    for d, p in day_prices:
        v_buy[d] = -p / mean
    for i in range(len(states) - 1, -1, -1):
        d = states[i]
        if d == 0:
            continue
        nxt = states[i + 1]
        best_next = v_buy[0] if nxt == 0 else max(v_buy[nxt], v_wait[nxt])
        v_wait[d] = best_next
    for d in states:
        assert abs(table.buy[d] - v_buy[d]) < 1e-9
        if d != 0:
            assert abs(table.wait[d] - v_wait[d]) < 1e-9

    # the greedy policy buys the series minimum
    decision = q_policy(table, s)
    assert decision.paid_price == 80.0
    assert not decision.forced
    per_route, _, _ = score_decisions([decision], [s])
    assert abs(per_route[0].normalized_performance_pct - 100.0) < 1e-9


# -- 10: end-to-end specific pipeline -------------------------------------------------


def test_c10_tuned_pipeline_beats_random(specific_split):
    _, _, train_series, test_series, routes, anchor, prep = specific_split
    start = time.perf_counter()

    train_ds = build_dataset(train_series, routes, anchor, role="train")
    grid = [
        LearnerSpec("adaboost_cart", "classification", {"n_rounds": t, "weak_depth": d})
        for t in (50, 100)
        for d in (1, 2, 3)
    ]
    best, table = grid_search(
        grid, train_ds, seed=5, k=5,
        preprocess=lambda ds, s: apply_preprocessing(ds, prep, s), jobs=2,
    )
    assert any(not cell.failed for cell in table)

    model = train_specific(best, train_series, routes, anchor, prep, seed=5)
    decisions = run_policy(model, test_series, routes, anchor)
    per_route, mean_norm, _ = score_decisions(decisions, test_series)

    assert len(per_route) == 8
    assert mean_norm > 0.0
    assert sum(m.performance_pct > 0.0 for m in per_route) >= 6
    assert time.perf_counter() - start < 300.0


# -- 11: generalization to routes without history ---------------------------------------


def test_c11_template_transfer_beats_uniform_blending(specific_split):
    _, _, train_series, _, routes, anchor, prep = specific_split

    frozen_spec = LearnerSpec(
        "adaboost_cart", "classification", {"n_rounds": 100, "weak_depth": 2}
    )
    frozen = train_specific(frozen_spec, train_series, routes, anchor, prep, seed=5)
    blend_spec = LearnerSpec("uniform_blend", "classification", {})
    blend = train_specific(blend_spec, train_series, routes, anchor, prep, seed=5)
    bank = fit_bank(train_series, routes, n_states=4, seed=derive_seed(0, "bank"))

    gen_series = generate_corpus(generalized_config(), seed=23)
    assert len({s.key.route_id for s in gen_series}) == 12

    result = generalized_predict(bank, frozen, gen_series)
    _, hmm_mean, _ = score_decisions(result.decisions, gen_series)
    uniform_decisions = run_uniform_generalized(blend, gen_series)
    _, uniform_mean, _ = score_decisions(uniform_decisions, gen_series)

    assert hmm_mean > uniform_mean
    assert hmm_mean > 0.0


# -- 12: reproducibility ------------------------------------------------------------------


def test_c12_identical_runs_are_byte_identical(tmp_path):
    quotes = tmp_path / "quotes.csv"
    split_json = tmp_path / "split.json"
    assert cli_main([
        "gen-data", "--seed", "3", "--out", str(quotes),
        "--routes", "8", "--departures", "3", "--horizon", "10",
        "--split-out", str(split_json),
    ]) == 0
    quotes2 = tmp_path / "quotes2.csv"
    assert cli_main([
        "gen-data", "--seed", "3", "--out", str(quotes2),
        "--routes", "8", "--departures", "3", "--horizon", "10",
    ]) == 0
    assert quotes.read_bytes() == quotes2.read_bytes()

    base = ["--quotes", str(quotes), "--split-config", str(split_json)]

    def twice(argv_for):
        payloads = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            assert cli_main(argv_for(out)) == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]

    model_path = tmp_path / "frozen.json"
    twice(lambda out: ["train"] + base + [
        "--task", "classification", "--model", "cart",
        "--hyperparams", '{"max_depth": 3}', "--seed", "5",
        "--save-model", str(model_path), "--out", str(out),
    ])
    twice(lambda out: ["backtest"] + base + [
        "--task", "classification", "--model", "knn",
        "--hyperparams", '{"k": 3}', "--seed", "4", "--out", str(out),
    ])
    tune_cfg = tmp_path / "tune.json"
    tune_cfg.write_text('{"grids": {"cart": [{"max_depth": 2}, {"max_depth": 4}]}}')
    twice(lambda out: ["tune"] + base + [
        "--task", "classification", "--model", "cart",
        "--config", str(tune_cfg), "--seed", "2", "--out", str(out),
    ])
    twice(lambda out: ["qlearn"] + base + [
        "--episodes", "10", "--alpha", "0.5", "--seed", "8", "--out", str(out),
    ])

    gen_quotes = tmp_path / "gen.csv"
    assert cli_main([
        "gen-data", "--generalized", "--seed", "7", "--out", str(gen_quotes),
        "--routes", "12", "--departures", "2", "--horizon", "10",
    ]) == 0
    blend_path = tmp_path / "blend.json"
    assert cli_main(["train"] + base + [
        "--task", "classification", "--model", "uniform_blend",
        "--hyperparams", '{"member_kind": "cart", "member_params": {"max_depth": 2}}',
        "--seed", "5", "--save-model", str(blend_path),
    ]) == 0
    gen_cfg = tmp_path / "gen_cfg.json"
    gen_cfg.write_text('{"hmm": {"max_iter": 15}}')
    twice(lambda out: ["generalize"] + base + [
        "--gen-quotes", str(gen_quotes), "--frozen-model", str(model_path),
        "--config", str(gen_cfg), "--n-states", "2", "--seed", "1",
        "--bank-out", str(tmp_path / f"bank_{out.stem}"), "--blend-model", str(blend_path),
        "--out", str(out),
    ])
    bank_a = sorted((tmp_path / "bank_a").glob("hmm_*.json"))
    bank_b = sorted((tmp_path / "bank_b").glob("hmm_*.json"))
    assert len(bank_a) == 8
    assert [p.read_bytes() for p in bank_a] == [p.read_bytes() for p in bank_b]
