import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from farecast.metrics import (
    aggregate,
    backtest_report,
    optimal_price,
    performance_metrics,
    random_purchase_price,
    route_metrics,
    simulated_random_purchase_price,
)
from farecast.policy import PurchaseDecision
from farecast.util import to_jsonable

from conftest import series_of


def buy_at(s, idx):
    return PurchaseDecision(buy_query_date=s.query_dates[idx].item(),
                            paid_price=float(s.prices[idx]), forced=False)


def test_random_purchase_is_exact_mean():
    assert random_purchase_price(series_of([50, 40, 40, 60])) == 47.5
    assert random_purchase_price(series_of([30])) == 30
    assert random_purchase_price(series_of([20, 20, 20])) == 20


def test_optimal_price_is_series_min():
    assert optimal_price(series_of([50, 40, 40, 60])) == 40
    assert optimal_price(series_of([30])) == 30


def test_route_metrics_eq_chain():
    s = series_of([50, 40, 40, 60])
    m = route_metrics({s.key: buy_at(s, 1)}, {s.key: s})
    assert m.random_purchase_price == 47.5
    assert m.optimal_price == 40
    assert m.predicted_price == 40
    assert math.isclose(m.performance_pct, (47.5 - 40) / 47.5 * 100, rel_tol=1e-12)
    assert round(m.performance_pct, 3) == 15.789
    assert m.normalized_performance_pct == 100.0


def test_route_metrics_zero_numerator():
    # paying exactly the random-purchase expectation → performance 0
    s = series_of([50, 40, 40, 60])
    d = PurchaseDecision(buy_query_date=s.query_dates[0].item(), paid_price=47.5, forced=False)
    m = route_metrics({s.key: d}, {s.key: s})
    assert m.performance_pct == 0.0
    assert m.normalized_performance_pct == 0.0


def test_route_metrics_hand_arithmetic():
    s = series_of([50, 40, 40, 60])
    d = PurchaseDecision(buy_query_date=s.query_dates[3].item(), paid_price=44.0, forced=False)
    m = route_metrics({s.key: d}, {s.key: s})
    expected = (3.5 / 47.5) / (7.5 / 47.5) * 100
    assert math.isclose(m.normalized_performance_pct, expected, rel_tol=1e-12)
    assert round(m.normalized_performance_pct, 3) == 46.667


def test_route_metrics_averages_across_series():
    a = series_of([10, 20], departure=date(2016, 1, 13))
    b = series_of([30, 50], departure=date(2016, 1, 14))
    decisions = {a.key: buy_at(a, 0), b.key: buy_at(b, 1)}
    m = route_metrics(decisions, {a.key: a, b.key: b})
    assert m.random_purchase_price == (15 + 40) / 2
    assert m.optimal_price == (10 + 30) / 2
    assert m.predicted_price == (10 + 50) / 2


def test_constant_route_normalized_definition():
    s = series_of([20, 20, 20])
    m = route_metrics({s.key: buy_at(s, 0)}, {s.key: s})
    # predicted == optimal on a zero-spread route → normalized pinned at 100
    assert m.optimal_performance_pct == 0.0
    assert m.normalized_performance_pct == 100.0
    assert m.normalized_defined


def test_constant_route_undefined_when_suboptimal():
    perf, opt, norm, defined = performance_metrics(20.0, 20.0, 21.0)
    assert opt == 0.0
    assert not defined


def test_aggregate_trivial_and_population_variance():
    # build metrics objects through route_metrics to keep fields consistent
    series, decisions = {}, {}
    for route, prices, idx in [("R1", [40, 60], 0), ("R2", [40, 60], 0)]:
        s = series_of(prices, route_id=route)
        series[s.key], decisions[s.key] = s, buy_at(s, idx)
    per_route = backtest_report(decisions, series)
    mean, var = aggregate(per_route)
    assert mean == per_route[0].normalized_performance_pct
    assert var == 0.0


def test_aggregate_two_values():
    from farecast.metrics import BacktestMetrics

    def fake(route, norm):
        return BacktestMetrics(
            route_id=route,
            random_purchase_price=1,
            optimal_price=1,
            predicted_price=1,
            performance_pct=0,
            optimal_performance_pct=1,
            normalized_performance_pct=norm,
            normalized_defined=True,
        )

    mean, var = aggregate([fake("R1", 40.0), fake("R2", 60.0)])
    assert mean == 50.0
    assert var == 100.0  # population variance, not sample


def test_aggregate_skips_undefined_rows():
    from farecast.metrics import BacktestMetrics

    good = BacktestMetrics("R1", 1, 1, 1, 0, 1, 75.0, True)
    bad = BacktestMetrics("R2", 1, 1, 1, 0, 0, 0.0, False)
    mean, var = aggregate([good, bad])
    assert mean == 75.0 and var == 0.0


def test_backtest_report_natural_route_order():
    series, decisions = {}, {}
    for route in ["R10", "R2", "R1"]:
        s = series_of([10, 20], route_id=route)
        series[s.key], decisions[s.key] = s, buy_at(s, 0)
    report = backtest_report(decisions, series)
    assert [m.route_id for m in report] == ["R1", "R2", "R10"]


def test_report_invariant_to_mapping_order():
    series, decisions = {}, {}
    for route in ["R3", "R1", "R2"]:
        s = series_of([10, 20, 15], route_id=route)
        series[s.key], decisions[s.key] = s, buy_at(s, 2)
    fwd = backtest_report(decisions, series)
    rev = backtest_report(
        dict(reversed(decisions.items())), dict(reversed(series.items()))
    )
    assert fwd == rev


@given(
    st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=25).filter(
        lambda p: min(p) < max(p)
    ),
    st.integers(min_value=0, max_value=24),
)
def test_normalized_bounded_above(prices, buy_idx):
    s = series_of(prices)
    m = route_metrics({s.key: buy_at(s, buy_idx % len(prices))}, {s.key: s})
    assert m.normalized_performance_pct <= 100.0 + 1e-12
    assert (m.normalized_performance_pct == 100.0) == (m.predicted_price == m.optimal_price)


def test_simulated_random_matches_exact_in_the_limit():
    s = series_of([50, 40, 40, 60])
    rng = np.random.default_rng(0)
    sim = simulated_random_purchase_price(s, 200_000, rng)
    assert abs(sim - 47.5) < 0.05
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    assert simulated_random_purchase_price(s, 100, rng_a) == simulated_random_purchase_price(s, 100, rng_b)


def test_metrics_to_dict_keys():
    s = series_of([50, 40])
    m = route_metrics({s.key: buy_at(s, 1)}, {s.key: s})
    d = to_jsonable(m)
    for k in (
        "route_id",
        "random_purchase_price",
        "optimal_price",
        "predicted_price",
        "performance_pct",
        "optimal_performance_pct",
        "normalized_performance_pct",
    ):
        assert k in d
