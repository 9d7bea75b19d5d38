"""End-to-end wiring: series to datasets, training, backtests, reports.

Route indices (the dummy positions) come from the natural-sorted unique
route ids of the training corpus; the same ordering is used everywhere a
bank, blend, or report enumerates routes, and its length is the dummy width
of every model, blend and bank built from the corpus. Preprocessing (outlier
removal, then oversampling) applies to classification training data only;
labels for regression are untouched real prices and resampling would only
distort the loss.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date
from typing import Mapping, Optional, Sequence

from .core import Dataset, FarecastError, PriceSeries, SeriesKey
from .features import feature_dataset
from .learners import LearnerSpec, TrainedModel, blend_predict, fit, predict
from .metrics import BacktestMetrics, aggregate, backtest_report
from .policy import PurchaseDecision, decide_classification, decide_regression
from .preprocess import oversample, remove_outliers
from .util import derive_seed, natural_key

logger = logging.getLogger(__name__)


def route_order(series: Sequence[PriceSeries]) -> list[str]:
    """Unique route ids in natural order; defines the dummy index per route."""
    return sorted({s.key.route_id for s in series}, key=natural_key)


def build_dataset(
    series: Sequence[PriceSeries],
    routes: Sequence[str],
    anchor: date,
    role: str,
) -> Dataset:
    """Labeled features of every quote of every series, one dummy per route."""
    index = {route_id: i for i, route_id in enumerate(routes)}
    for s in series:
        if s.key.route_id not in index:
            raise FarecastError(f"series {s.key} belongs to no known route")
    return feature_dataset(series, len(routes), role, anchor,
                           route_index=[index[s.key.route_id] for s in series])


@dataclass(frozen=True)
class PreprocessConfig:
    oversample: bool = True
    outlier_removal: str = "none"  # none | kmeans | em

    def __post_init__(self):
        if self.outlier_removal not in ("none", "kmeans", "em"):
            raise FarecastError(f"unknown outlier removal {self.outlier_removal!r}")


def apply_preprocessing(train: Dataset, cfg: PreprocessConfig, seed: int) -> Dataset:
    """Outlier removal first (on original rows), then minority oversampling."""
    out = train
    if cfg.outlier_removal != "none":
        out, removed = remove_outliers(out, method=cfg.outlier_removal)
        logger.info("outlier removal dropped %d rows", len(removed))
    if cfg.oversample:
        out = oversample(out, seed=derive_seed(seed, "oversample"))
    return out


def preprocessing_of(spec: LearnerSpec, cfg: PreprocessConfig) -> Optional[PreprocessConfig]:
    """The preprocessing a fit of ``spec`` runs: ``cfg`` for classification,
    none for regression."""
    return cfg if spec.task == "classification" else None


def preprocess_for(spec: LearnerSpec, train: Dataset, cfg: PreprocessConfig,
                   seed: int) -> Dataset:
    run = preprocessing_of(spec, cfg)
    return train if run is None else apply_preprocessing(train, run, seed)


def run_policy(
    model: TrainedModel,
    test_series: Sequence[PriceSeries],
    routes: Sequence[str],
    anchor: date,
) -> dict[SeriesKey, PurchaseDecision]:
    """Predict every test row in one call and apply the buy/wait rule per series."""
    block = build_dataset(test_series, routes, anchor, role="test")
    predicted = block.split(predict(model, block.X))
    decide = (decide_classification if model.spec.task == "classification"
              else decide_regression)
    return {s.key: decide(s, p) for s, p in zip(test_series, predicted)}


def run_uniform_generalized(
    blend_model: TrainedModel,
    gen_series: Sequence[PriceSeries],
    anchor: Optional[date] = None,
) -> dict[SeriesKey, PurchaseDecision]:
    """No-history variant of uniform blending.

    Generalized rows carry no route identity, so each member votes on the
    rows re-tagged with its own dummy index.
    """
    if blend_model.spec.kind != "uniform_blend":
        raise FarecastError("uniform generalization needs a uniform_blend model")
    members = blend_model.core
    block = feature_dataset(gen_series, len(members), "generalized", anchor)
    votes = block.split(blend_predict(members, block.X, own_dummies=True))
    return {s.key: decide_classification(s, v) for s, v in zip(gen_series, votes)}


def score_decisions(
    decisions: Mapping[SeriesKey, PurchaseDecision],
    series: Sequence[PriceSeries],
) -> tuple[list[BacktestMetrics], float, float]:
    """(per-route metrics, mean normalized, population variance)."""
    series_map = {s.key: s for s in series}
    per_route = backtest_report(decisions, series_map)
    mean, var = aggregate(per_route)
    return per_route, mean, var


def train_specific(
    spec: LearnerSpec,
    train_series: Sequence[PriceSeries],
    routes: Sequence[str],
    anchor: date,
    prep: PreprocessConfig,
    seed: int,
) -> TrainedModel:
    """Build the training dataset, preprocess it, and fit one model."""
    train_ds = build_dataset(train_series, routes, anchor, role="train")
    prepared = preprocess_for(spec, train_ds, prep, seed)
    if len(prepared) != len(train_ds):
        logger.info("preprocessing: %d rows in, %d out", len(train_ds), len(prepared))
    return fit(spec, prepared, seed=derive_seed(seed, "fit"))
