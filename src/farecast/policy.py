"""Purchase policies: turn per-row predictions into one buy day per series."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Sequence

import numpy as np

from .core import BUY, FarecastError, PriceSeries

LAST_BUY_DAYS_BEFORE_DEPARTURE = 7


@dataclass(frozen=True)
class PurchaseDecision:
    buy_query_date: date
    paid_price: float
    forced: bool  # True when the 7-day fallback fired


def _check_aligned(s: PriceSeries, predictions: Sequence) -> np.ndarray:
    if len(predictions) != len(s):
        raise FarecastError(
            f"{len(predictions)} predictions for a series of {len(s)} quotes"
        )
    return np.asarray(predictions)


def buy_at(s: PriceSeries, i: int, forced: bool) -> PurchaseDecision:
    """The decision to buy ``s`` at its ``i``-th quote."""
    return PurchaseDecision(buy_query_date=s.query_dates[i].item(),
                            paid_price=float(s.prices[i]), forced=forced)


def _decide(s: PriceSeries, mask: np.ndarray) -> PurchaseDecision:
    """Buy at the first day ``mask`` marks; if none, fall back to the latest
    quote still 7 days out, or the earliest one in a degenerate short series."""
    hits = np.flatnonzero(mask)
    if len(hits):
        return buy_at(s, hits[0], forced=False)
    candidates = np.flatnonzero(s.days_to_departure >= LAST_BUY_DAYS_BEFORE_DEPARTURE)
    return buy_at(s, candidates[-1] if len(candidates) else 0, forced=True)


# Per series: bench/tracing.py's HOOKS read .forced from each decide_* call (forced_ratio).
def decide_regression(s: PriceSeries, predicted_min: Sequence[float]) -> PurchaseDecision:
    """Buy at the first day whose current price undercuts the predicted minimum.

    Only days at least 7 days before departure qualify; if the predicted
    minimum is never undercut, fall back to the latest quote still 7 days out.
    """
    predicted_min = _check_aligned(s, predicted_min)
    return _decide(s, (s.prices < predicted_min)
                   & (s.days_to_departure >= LAST_BUY_DAYS_BEFORE_DEPARTURE))


def decide_classification(s: PriceSeries, predicted_class: Sequence[int]) -> PurchaseDecision:
    """Buy at the earliest row predicted buy; same fallback as regression if none."""
    return _decide(s, _check_aligned(s, predicted_class) == BUY)
