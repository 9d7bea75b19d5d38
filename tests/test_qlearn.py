"""Tabular Q-learning over days-to-departure states."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farecast.core import (
    EmptySeries,
    FarecastError,
    PriceSeries,
    SeriesKey,
)
from farecast.pipeline import score_decisions
from farecast.qlearn import QTable, _route_means, load_qtable, q_policy, q_train, save_qtable
from farecast.util import derive_seed, to_jsonable

from conftest import series_of


def gapped_series(day_prices, route_id="R1", departure=date(2016, 2, 1)):
    """Quotes at explicit days-to-departure values (not necessarily daily),
    given from the earliest query day on."""
    return PriceSeries(SeriesKey(route_id, departure),
                       [departure - timedelta(days=d) for d, _ in day_prices],
                       [float(p) for _, p in day_prices])


def test_three_day_example_values():
    s = series_of([30.0, 20.0, 40.0])
    table = q_train([s], episodes=1, gamma=1.0, alpha=1.0, seed=0)
    mean = table.route_means["R1"]
    assert abs(mean - 30.0) < 1e-12
    # values are learned on mean-normalized prices; scale back to dollars
    assert abs(table.q_buy(0) * mean - (-40.0)) < 1e-9
    assert abs(table.q_buy(1) * mean - (-20.0)) < 1e-9
    assert abs(table.q_wait(1) * mean - (-40.0)) < 1e-9
    assert abs(table.q_buy(2) * mean - (-30.0)) < 1e-9
    assert abs(table.q_wait(2) * mean - (-20.0)) < 1e-9


def test_three_day_example_policy_is_optimal():
    s = series_of([30.0, 20.0, 40.0])
    table = q_train([s], episodes=1, gamma=1.0, alpha=1.0, seed=0)
    decision = q_policy(table, s)
    assert decision.paid_price == 20.0
    assert (s.key.departure_date - decision.buy_query_date).days == 1
    assert not decision.forced
    metrics, mean_norm, _ = score_decisions({s.key: decision}, [s])
    assert metrics[0].normalized_performance_pct == 100.0
    assert mean_norm == 100.0


def test_single_pass_equals_backward_induction():
    # irregular day gaps; gamma=1 alpha=1 and one reverse sweep must agree
    # with exact dynamic programming to float precision
    day_prices = [(9, 120.0), (7, 95.0), (4, 130.0), (2, 80.0), (0, 150.0)]
    s = gapped_series(day_prices)
    table = q_train([s], episodes=1, gamma=1.0, alpha=1.0, seed=0)
    mean = table.route_means["R1"]

    states = [d for d, _ in day_prices]
    prices = [p / mean for _, p in day_prices]
    v_buy = {st: -p for st, p in zip(states, prices)}
    v_wait = {}
    best = {states[-1]: v_buy[states[-1]]}  # no waiting past the last quote
    for t in reversed(range(len(states) - 1)):
        v_wait[states[t]] = best[states[t + 1]]
        best[states[t]] = max(v_buy[states[t]], v_wait[states[t]])

    for st in states:
        assert abs(table.q_buy(st) - v_buy[st]) < 1e-9
    for st in states[:-1]:
        assert abs(table.q_wait(st) - v_wait[st]) < 1e-9


def test_constant_series_ties_buy_immediately():
    s = series_of([50.0, 50.0, 50.0])
    table = q_train([s], episodes=1, gamma=1.0, alpha=1.0, seed=0)
    decision = q_policy(table, s)
    assert decision.buy_query_date == s.query_dates[0].item()
    assert not decision.forced


def test_always_wait_forces_last_quote():
    train = series_of([30.0, 20.0, 40.0])
    table = q_train([train], episodes=1, gamma=1.0, alpha=1.0, seed=0)
    # only state 2 is consulted (waiting wins there), then departure day
    target = gapped_series([(2, 33.0), (0, 44.0)])
    decision = q_policy(table, target)
    assert decision.forced
    assert decision.paid_price == 44.0


def test_single_quote_series_buys_it():
    s = series_of([75.0], last_days_to_departure=3)
    table = q_train([s], episodes=1, gamma=1.0, alpha=1.0, seed=0)
    decision = q_policy(table, s)
    assert decision.paid_price == 75.0
    assert decision.buy_query_date == s.query_dates[0].item()


def test_unseen_state_buys():
    train = series_of([30.0, 20.0, 40.0])
    table = q_train([train], episodes=1, gamma=1.0, alpha=1.0, seed=0)
    assert table.q_buy(table.d_max + 5) == 0.0
    assert table.q_wait(table.d_max + 5) == 0.0
    target = gapped_series([(table.d_max + 5, 200.0), (1, 10.0)])
    decision = q_policy(table, target)
    assert decision.paid_price == 200.0
    assert not decision.forced


def test_wait_at_departure_day_is_undefined():
    s = series_of([30.0, 20.0, 40.0])
    table = q_train([s], episodes=1, gamma=1.0, alpha=1.0, seed=0)
    with pytest.raises(FarecastError):
        table.q_wait(0)


def test_parameter_validation():
    s = series_of([30.0, 20.0])
    for gamma, alpha in [(0.0, 1.0), (1.5, 1.0), (1.0, 0.0), (1.0, 1.0001)]:
        with pytest.raises(FarecastError):
            q_train([s], episodes=1, gamma=gamma, alpha=alpha)
    with pytest.raises(EmptySeries):
        q_train([], episodes=1)


def test_empty_series_policy_raises():
    # q_policy cannot be handed an empty series: the type rejects it.
    with pytest.raises(EmptySeries):
        PriceSeries(key=SeriesKey("R1", date(2016, 2, 1)), query_dates=(), prices=())


def test_route_means_normalize_scales():
    a = series_of([100.0, 120.0, 80.0], route_id="R1")
    b = series_of([10.0, 12.0, 8.0], route_id="R2", departure=date(2016, 3, 1))
    table = q_train([a, b], episodes=50, gamma=1.0, alpha=0.5, seed=0)
    assert abs(table.route_means["R1"] - 100.0) < 1e-12
    assert abs(table.route_means["R2"] - 10.0) < 1e-12
    # both routes land on the same normalized scale, so shared states blend
    # toward values near -1 rather than -price
    for st in range(table.d_max + 1):
        assert -2.0 < table.q_buy(st) <= 0.0


def test_more_episodes_converge_to_price():
    # alpha < 1 needs repetition to pull values onto the observed prices
    s = series_of([60.0, 30.0, 90.0])
    one = q_train([s], episodes=1, gamma=1.0, alpha=0.1, seed=0)
    many = q_train([s], episodes=200, gamma=1.0, alpha=0.1, seed=0)
    mean = many.route_means["R1"]
    target = -30.0 / mean
    assert abs(many.q_buy(1) - target) < abs(one.q_buy(1) - target)
    assert abs(many.q_buy(1) - target) < 1e-6


def test_training_is_deterministic():
    rng = np.random.default_rng(40)
    series = [
        series_of(rng.uniform(50, 150, 10), departure=date(2016, 2, 1) + timedelta(days=i))
        for i in range(6)
    ]
    a = q_train(series, episodes=20, alpha=0.3, seed=7)
    b = q_train(series, episodes=20, alpha=0.3, seed=7)
    assert np.array_equal(a.buy, b.buy)
    assert np.array_equal(a.wait, b.wait)


def test_qtable_round_trip(tmp_path):
    s = series_of([30.0, 20.0, 40.0])
    table = q_train([s], episodes=3, alpha=0.5, seed=1)
    path = tmp_path / "qtable.json"
    save_qtable(table, path)
    clone = load_qtable(path)
    assert clone.d_max == table.d_max
    assert np.array_equal(clone.buy, table.buy)
    assert np.array_equal(clone.wait, table.wait)
    assert clone.route_means == table.route_means
    assert clone.gamma == table.gamma and clone.alpha == table.alpha


def reference_q_train(train_series, episodes, gamma, alpha, seed):
    """The update loop on numpy arrays and scalars, kept as the oracle for q_train."""
    means = _route_means(train_series)
    d_max = max((s.key.departure_date - s.first_query_date).days for s in train_series)
    buy = np.zeros(d_max + 1)
    wait = np.zeros(d_max + 1)
    prepared = []
    for s in train_series:
        states = [(s.key.departure_date - d).days for d in s.query_dates.tolist()]
        prices = [p / means[s.key.route_id] for p in s.prices.tolist()]
        prepared.append((states, prices))
    rng = np.random.default_rng(derive_seed(seed, "qlearn"))
    for _ in range(episodes):
        for series_idx in rng.permutation(len(prepared)):
            states, prices = prepared[series_idx]
            for t in reversed(range(len(states))):
                s_t = states[t]
                buy[s_t] = (1.0 - alpha) * buy[s_t] + alpha * (-prices[t])
                if t + 1 < len(states):
                    s_next = states[t + 1]
                    if s_next == 0:
                        best_next = buy[s_next]
                    else:
                        best_next = max(buy[s_next], wait[s_next])
                    wait[s_t] = (1.0 - alpha) * wait[s_t] + alpha * gamma * best_next
    return QTable(d_max=d_max, buy=buy, wait=wait, gamma=gamma, alpha=alpha,
                  route_means=means)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_series=st.integers(1, 6),
    episodes=st.integers(1, 6),
    gamma=st.sampled_from([1.0, 0.9, 0.37]),
    alpha=st.sampled_from([1.0, 0.5, 0.1, 0.03]),
)
def test_q_train_matches_the_numpy_scalar_reference(seed, n_series, episodes, gamma, alpha):
    rng = np.random.default_rng(seed)
    series = []
    for i in range(n_series):
        days = sorted(rng.choice(12, size=int(rng.integers(1, 9)), replace=False).tolist())
        prices = np.round(rng.uniform(20, 200, len(days)), int(rng.integers(0, 3)))
        series.append(gapped_series(list(zip(days[::-1], prices)), route_id=f"R{i % 3}",
                                    departure=date(2016, 2, 1) + timedelta(days=i)))
    got = q_train(series, episodes=episodes, gamma=gamma, alpha=alpha, seed=seed)
    want = reference_q_train(series, episodes, gamma, alpha, seed)
    assert to_jsonable(got) == to_jsonable(want)
