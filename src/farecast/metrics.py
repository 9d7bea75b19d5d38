"""Benchmark prices and the three backtest performance metrics.

Performance is the percentage saved against a random purchase; optimal
performance is the saving of the hindsight-optimal buyer; normalized
performance is their ratio (x100). Normalized performance never exceeds 100
but is unbounded below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import EmptySeries, FarecastError, PriceSeries, SeriesKey
from .policy import PurchaseDecision
from .util import natural_key


@dataclass(frozen=True)
class BacktestMetrics:
    route_id: str
    random_purchase_price: float
    optimal_price: float
    predicted_price: float
    performance_pct: float
    optimal_performance_pct: float
    normalized_performance_pct: float
    normalized_defined: bool = True


def random_purchase_price(s: PriceSeries) -> float:
    """Expected price of buying on a uniformly random query day (exact mean)."""
    return math.fsum(s.prices) / len(s)


def simulated_random_purchase_price(s: PriceSeries, n_draws: int, rng) -> float:
    """Monte Carlo variant of the random-purchase benchmark (sampled draws)."""
    if n_draws < 1:
        raise FarecastError(f"the random-purchase estimate needs at least 1 draw, got {n_draws}")
    picks = rng.integers(0, len(s), size=n_draws)
    return math.fsum(s.prices[picks]) / n_draws


def optimal_price(s: PriceSeries) -> float:
    """Hindsight minimum over all quotes of the series."""
    return float(s.prices.min())


def performance_metrics(
    random_p: float, optimal_p: float, predicted_p: float
) -> tuple[float, float, float, bool]:
    """(performance, optimal performance, normalized performance, defined).

    A constant-price route has zero optimal performance; normalized is then
    100 if the policy matched the optimum and otherwise flagged undefined.
    """
    if random_p == 0:
        raise FarecastError("random purchase price is zero")
    performance = (random_p - predicted_p) / random_p * 100.0
    optimal_perf = (random_p - optimal_p) / random_p * 100.0
    if optimal_perf == 0:
        if predicted_p == optimal_p:
            return performance, optimal_perf, 100.0, True
        return performance, optimal_perf, math.nan, False
    return performance, optimal_perf, performance / optimal_perf * 100.0, True


def route_metrics(
    decisions: Mapping[SeriesKey, PurchaseDecision],
    series: Mapping[SeriesKey, PriceSeries],
) -> BacktestMetrics:
    """Metrics for one route: benchmark and paid prices averaged over its series."""
    if not decisions:
        raise EmptySeries("no decisions to score")
    route_ids = {key.route_id for key in decisions}
    if len(route_ids) != 1:
        raise FarecastError(f"route_metrics got several routes: {sorted(route_ids)}")
    keys = sorted(decisions, key=lambda k: (k.route_id, k.departure_date))
    missing = [k for k in keys if k not in series]
    if missing:
        raise FarecastError(f"decisions without series: {missing[:3]}")

    random_p = math.fsum(random_purchase_price(series[k]) for k in keys) / len(keys)
    optimal_p = math.fsum(optimal_price(series[k]) for k in keys) / len(keys)
    predicted_p = math.fsum(decisions[k].paid_price for k in keys) / len(keys)
    performance, optimal_perf, normalized, defined = performance_metrics(
        random_p, optimal_p, predicted_p
    )
    return BacktestMetrics(
        route_id=route_ids.pop(),
        random_purchase_price=random_p,
        optimal_price=optimal_p,
        predicted_price=predicted_p,
        performance_pct=performance,
        optimal_performance_pct=optimal_perf,
        normalized_performance_pct=normalized,
        normalized_defined=defined,
    )


def backtest_report(
    decisions: Mapping[SeriesKey, PurchaseDecision],
    series: Mapping[SeriesKey, PriceSeries],
) -> list[BacktestMetrics]:
    """Per-route metrics over all decided series, routes in sorted order."""
    by_route: dict[str, dict[SeriesKey, PurchaseDecision]] = {}
    for key, decision in decisions.items():
        by_route.setdefault(key.route_id, {})[key] = decision
    return [route_metrics(route_decisions, series)
            for _, route_decisions in sorted(by_route.items(),
                                              key=lambda kv: natural_key(kv[0]))]


def aggregate(per_route: Sequence[BacktestMetrics]) -> tuple[float, float]:
    """Mean and population variance of normalized performance across routes."""
    if not per_route:
        raise FarecastError("aggregate of zero routes")
    values = [m.normalized_performance_pct for m in per_route if m.normalized_defined]
    if not values:
        raise FarecastError("no route has a defined normalized performance")
    mean = math.fsum(values) / len(values)
    variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
    return mean, variance
