"""Per-layer metrics, derived from the span table of one traced run.

Each entry is (metric name, unit, function of the span totals). A metric of
a layer that a workload never calls reads 0. ``cli.startup_s`` and the
``trace.*`` metrics are measured by ``run.py`` and passed in as extras.
"""

from __future__ import annotations


def _get(totals, span, key):
    return totals.get(span, {}).get(key, 0)


def _self(span):
    return lambda t: float(_get(t, span, "self_s"))


def _total(span):
    return lambda t: float(_get(t, span, "total_s"))


def _count(span, key="calls"):
    return lambda t: _get(t, span, key)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


def _fits(key):
    return lambda t: sum(v.get(key, 0) for k, v in t.items() if k.startswith("learners.fit."))


_DECIDE = ("policy.decide_classification", "policy.decide_regression")


def _decide(key):
    return lambda t: sum(_get(t, name, key) for name in _DECIDE)


def _busy(t):
    gs = t.get("tuning.grid_search")
    if not gs or not gs["total_s"]:
        return 0.0
    jobs = gs.get("jobs", gs["calls"]) / gs["calls"]
    return gs.get("cell_s", 0.0) / (gs["total_s"] * jobs)


PER_LAYER = [
    ("ingest.load_quotes.self_s", "s", _self("ingest.load_quotes")),
    ("ingest.quotes_parsed", "count", _count("ingest.load_quotes", "quotes")),
    ("features.extract_rows.self_s", "s", _self("features.extract_rows")),
    ("features.extract_rows.rows", "count", _count("features.extract_rows", "rows")),
    ("features.label_rows.self_s", "s", _self("features.label_rows")),
    ("features.to_matrix.self_s", "s", _self("features.to_matrix")),
    ("features.to_matrix.calls", "count", _count("features.to_matrix")),
    ("features.to_matrix.rows", "count", _count("features.to_matrix", "rows")),
    ("core.FeatureRow.with_dummies.self_s", "s", _self("core.FeatureRow.with_dummies")),
    ("core.FeatureRow.with_dummies.calls", "count", _count("core.FeatureRow.with_dummies")),
    ("pipeline.build_dataset.self_s", "s", _self("pipeline.build_dataset")),
    ("pipeline.run_policy.self_s", "s", _self("pipeline.run_policy")),
    ("pipeline.run_uniform_generalized.self_s", "s", _self("pipeline.run_uniform_generalized")),
    ("preprocess.remove_outliers.self_s", "s", _self("preprocess.remove_outliers")),
    ("preprocess.removed_ratio", "ratio",
     _ratio(_count("preprocess.remove_outliers", "removed"),
            _count("preprocess.remove_outliers", "rows_in"))),
    ("preprocess.gmm_em2.iterations", "count", _count("preprocess.gmm_em2", "iterations")),
    ("preprocess.gmm_em2.converged_ratio", "ratio",
     _ratio(_count("preprocess.gmm_em2", "converged"), _count("preprocess.gmm_em2"))),
    ("preprocess.oversample.self_s", "s", _self("preprocess.oversample")),
    ("preprocess.oversample.rows_added", "count", _count("preprocess.oversample", "rows_added")),
    ("learners.fit.adaboost_cart.self_s", "s", _self("learners.fit.adaboost_cart")),
    ("learners.fit.adaboost_cart.total_s", "s", _total("learners.fit.adaboost_cart")),
    ("learners.fit.cart.self_s", "s", _self("learners.fit.cart")),
    ("learners.fit.cart.total_s", "s", _total("learners.fit.cart")),
    ("learners.fit.uniform_blend.self_s", "s", _self("learners.fit.uniform_blend")),
    ("learners.fit.uniform_blend.total_s", "s", _total("learners.fit.uniform_blend")),
    ("learners.fit.calls", "count", _fits("calls")),
    ("learners.fit.rows", "count", _fits("rows")),
    ("learners.cart_fit.calls", "count", _count("learners.cart_fit")),
    ("learners.cart_fit.self_s", "s", _self("learners.cart_fit")),
    ("learners.boosting.rounds_used", "count", _count("learners.fit.adaboost_cart", "rounds_used")),
    ("learners.boosting.stopped_early_ratio", "ratio",
     _ratio(_count("learners.fit.adaboost_cart", "stopped_early"),
            _count("learners.fit.adaboost_cart"))),
    ("learners.predict.self_s", "s", _self("learners.predict")),
    ("learners.predict.rows", "count", _count("learners.predict", "rows")),
    ("learners.load_model.self_s", "s", _self("learners.load_model")),
    ("learners.save_model.self_s", "s", _self("learners.save_model")),
    ("tuning.grid_search.self_s", "s", _self("tuning.grid_search")),
    ("tuning.cells", "count", _count("tuning.grid_search", "cells")),
    ("tuning.cells_failed_ratio", "ratio",
     _ratio(_count("tuning.grid_search", "failed"), _count("tuning.grid_search", "cells"))),
    ("tuning.busy_ratio", "ratio", _busy),
    ("policy.decide.self_s", "s", lambda t: float(_decide("self_s")(t))),
    ("policy.decisions", "count", _decide("calls")),
    ("policy.forced_ratio", "ratio", _ratio(_decide("forced"), _decide("calls"))),
    ("metrics.backtest_report.self_s", "s", _self("metrics.backtest_report")),
    ("qlearn.q_train.self_s", "s", _self("qlearn.q_train")),
    ("qlearn.q_train.episodes", "count", _count("qlearn.q_train", "episodes")),
    ("qlearn.q_policy.self_s", "s", _self("qlearn.q_policy")),
    ("hmm.fit_bank.self_s", "s", _self("hmm.fit_bank")),
    ("hmm.baum_welch.self_s", "s", _self("hmm.baum_welch")),
    ("hmm.baum_welch.calls", "count", _count("hmm.baum_welch")),
    ("hmm.baum_welch.iterations", "count", _count("hmm.baum_welch", "iterations")),
    ("hmm.baum_welch.converged_ratio", "ratio",
     _ratio(_count("hmm.baum_welch", "converged"), _count("hmm.baum_welch"))),
    ("hmm.load_model.self_s", "s", _self("hmm.load_model")),
    ("hmm.forward_loglik.self_s", "s", _self("hmm.forward_loglik")),
    ("hmm.forward_loglik.calls", "count", _count("hmm.forward_loglik")),
    ("hmm.forward_loglik.steps", "count", _count("hmm.forward_loglik", "steps")),
    ("hmm.equivalence_sequence.self_s", "s", _self("hmm.equivalence_sequence")),
    ("hmm.generalized_predict.self_s", "s", _self("hmm.generalized_predict")),
    ("hmm.template_switches", "count", _count("hmm.generalized_predict", "switches")),
    ("synthgen.generate_corpus.self_s", "s", _self("synthgen.generate_corpus")),
    ("synthgen.write_corpus_csv.self_s", "s", _self("synthgen.write_corpus_csv")),
]

EXTRAS = [
    ("cli.startup_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_ratio", "ratio"),
]


def per_layer(totals: dict, extras: dict) -> dict:
    """Every per-layer metric as ``{name: {"value": v, "unit": u}}``."""
    out = {name: {"value": extras[name], "unit": unit} for name, unit in EXTRAS}
    for name, unit, derive in PER_LAYER:
        out[name] = {"value": derive(totals), "unit": unit}
    return out
