"""Buy-or-wait decisions for airline tickets from historical price quotes.

The library ingests quote CSVs, extracts per-day features, trains a small
from-scratch model zoo, simulates the resulting purchase policies against
benchmark prices, and extends trained models to routes without history via
per-route HMM templates. The `farecast` CLI wires the same pieces together.
"""

from .core import (
    BUY,
    WAIT,
    Dataset,
    EmptySeries,
    FarecastError,
    NonPositivePrice,
    PriceSeries,
    QueryAfterDeparture,
    SeriesKey,
)
from .ingest import SplitConfig, load_quotes, split
from .learners import LearnerSpec, TrainedModel, blend_predict, fit, load_model, predict, predict_scores, save_model
from .metrics import BacktestMetrics, aggregate, backtest_report
from .policy import PurchaseDecision, decide_classification, decide_regression

__all__ = [
    "BUY",
    "WAIT",
    "BacktestMetrics",
    "Dataset",
    "EmptySeries",
    "FarecastError",
    "LearnerSpec",
    "NonPositivePrice",
    "PriceSeries",
    "PurchaseDecision",
    "QueryAfterDeparture",
    "SeriesKey",
    "SplitConfig",
    "TrainedModel",
    "aggregate",
    "backtest_report",
    "blend_predict",
    "decide_classification",
    "decide_regression",
    "fit",
    "load_model",
    "load_quotes",
    "predict",
    "predict_scores",
    "save_model",
    "split",
]

__version__ = "0.1.0"
