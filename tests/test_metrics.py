import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from farecast.core import FarecastError
from farecast.metrics import (
    aggregate,
    backtest_report,
    optimal_price,
    performance_metrics,
    random_purchase_price,
    simulated_random_purchase_price,
)
from farecast.pipeline import score_decisions
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
    m = backtest_report([buy_at(s, 1)], [s])[0]
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
    m = backtest_report([d], [s])[0]
    assert m.performance_pct == 0.0
    assert m.normalized_performance_pct == 0.0


def test_route_metrics_hand_arithmetic():
    s = series_of([50, 40, 40, 60])
    d = PurchaseDecision(buy_query_date=s.query_dates[3].item(), paid_price=44.0, forced=False)
    m = backtest_report([d], [s])[0]
    expected = (3.5 / 47.5) / (7.5 / 47.5) * 100
    assert math.isclose(m.normalized_performance_pct, expected, rel_tol=1e-12)
    assert round(m.normalized_performance_pct, 3) == 46.667


def test_route_metrics_averages_across_series():
    a = series_of([10, 20], departure=date(2016, 1, 13))
    b = series_of([30, 50], departure=date(2016, 1, 14))
    [m] = backtest_report([buy_at(a, 0), buy_at(b, 1)], [a, b])
    assert m.random_purchase_price == (15 + 40) / 2
    assert m.optimal_price == (10 + 30) / 2
    assert m.predicted_price == (10 + 50) / 2


def test_constant_route_normalized_definition():
    s = series_of([20, 20, 20])
    m = backtest_report([buy_at(s, 0)], [s])[0]
    # predicted == optimal on a zero-spread route → normalized pinned at 100
    assert m.optimal_performance_pct == 0.0
    assert m.normalized_performance_pct == 100.0
    assert m.normalized_defined


def test_constant_route_undefined_when_suboptimal():
    perf, opt, norm, defined = performance_metrics(20.0, 20.0, 21.0)
    assert opt == 0.0
    assert not defined


# The scoring raises, each reached through pipeline.score_decisions.


def test_scoring_zero_series_raises():
    with pytest.raises(FarecastError, match="zero routes"):
        score_decisions([], [])


def test_scoring_a_zero_price_route_raises():
    # Quotes read from a file are positive; a series built in code may not be.
    s = series_of([0.0, 0.0])
    with pytest.raises(FarecastError, match="random purchase price is zero"):
        score_decisions([buy_at(s, 0)], [s])


def test_scoring_raises_when_no_route_has_a_defined_normalized_performance():
    # The mean of 1 and the next float up rounds to 1, the minimum: the route
    # has zero optimal performance, and a buy at the higher quote is not optimal.
    s = series_of([1.0, math.nextafter(1.0, 2.0)])
    (m,) = backtest_report([buy_at(s, 1)], [s])
    assert m.optimal_performance_pct == 0.0 and not m.normalized_defined
    with pytest.raises(FarecastError, match="no route has a defined"):
        score_decisions([buy_at(s, 1)], [s])


def test_aggregate_trivial_and_population_variance():
    # build metrics objects through backtest_report to keep fields consistent
    series = [series_of([40, 60], route_id=route) for route in ("R1", "R2")]
    per_route = backtest_report([buy_at(s, 0) for s in series], series)
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
    series = [series_of([10, 20], route_id=route) for route in ["R10", "R2", "R1"]]
    report = backtest_report([buy_at(s, 0) for s in series], series)
    assert [m.route_id for m in report] == ["R1", "R2", "R10"]


@given(st.lists(st.tuples(st.sampled_from(["R1", "R2", "R10"]),
                          st.lists(st.integers(min_value=1, max_value=500),
                                   min_size=1, max_size=6),
                          st.integers(min_value=0, max_value=5)),
                min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_report_invariant_to_pair_order(draws, rnd):
    """Permuting (decision, series) pairs together leaves every digit of the report."""
    series = [series_of([float(p) for p in prices], route_id=route,
                        departure=date(2016, 1, 10) + timedelta(days=i))
              for i, (route, prices, _) in enumerate(draws)]
    decisions = [buy_at(s, idx % len(s)) for s, (_, _, idx) in zip(series, draws)]
    pairs = list(zip(decisions, series))
    rnd.shuffle(pairs)
    shuffled = backtest_report([d for d, _ in pairs], [s for _, s in pairs])
    assert to_jsonable(shuffled) == to_jsonable(backtest_report(decisions, series))


@pytest.mark.parametrize("n_decisions", [0, 1, 3])
def test_report_rejects_unaligned_lists(n_decisions):
    series = [series_of([10, 20], route_id=route) for route in ("R1", "R2")]
    with pytest.raises(ValueError):
        backtest_report([buy_at(series[0], 0)] * n_decisions, series)


@given(
    st.lists(st.integers(min_value=1, max_value=500), min_size=2, max_size=25).filter(
        lambda p: min(p) < max(p)
    ),
    st.integers(min_value=0, max_value=24),
)
def test_normalized_bounded_above(prices, buy_idx):
    s = series_of(prices)
    m = backtest_report([buy_at(s, buy_idx % len(prices))], [s])[0]
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
    m = backtest_report([buy_at(s, 1)], [s])[0]
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
