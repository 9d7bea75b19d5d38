"""Benchmark prices and the three backtest performance metrics.

Performance is the percentage saved against a random purchase; optimal
performance is the saving of the hindsight-optimal buyer; normalized
performance is their ratio (x100). Normalized performance never exceeds 100
but is unbounded below. A policy decides a list of series, one purchase each, in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import FarecastError, PriceSeries
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


# Named by bench/layers.py's metric metrics.backtest_report.self_s.
def backtest_report(
    decisions: Sequence[PurchaseDecision],
    series: Sequence[PriceSeries],
) -> list[BacktestMetrics]:
    """Per-route metrics in natural route order; ``decisions[i]`` buys ``series[i]``.
    A route's prices are ``math.fsum`` means over its series, exact in any order."""
    by_route: dict[str, list[tuple[PurchaseDecision, PriceSeries]]] = {}
    for d, s in zip(decisions, series, strict=True):
        by_route.setdefault(s.key.route_id, []).append((d, s))
    report = []
    for route_id in sorted(by_route, key=natural_key):
        pairs = by_route[route_id]
        random_p = math.fsum(random_purchase_price(s) for _, s in pairs) / len(pairs)
        optimal_p = math.fsum(optimal_price(s) for _, s in pairs) / len(pairs)
        predicted_p = math.fsum(d.paid_price for d, _ in pairs) / len(pairs)
        report.append(BacktestMetrics(route_id, random_p, optimal_p, predicted_p,
                                      *performance_metrics(random_p, optimal_p, predicted_p)))
    return report


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
