from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from farecast.features import feature_dataset
from farecast.policy import (
    LAST_BUY_DAYS_BEFORE_DEPARTURE,
    decide_classification,
    decide_regression,
)

from conftest import series_of


def days_to_departure(s, decision):
    return (s.key.departure_date - decision.buy_query_date).days


def test_regression_buys_first_strict_crossing():
    s = series_of([50, 48, 43, 44], last_days_to_departure=7)
    d = decide_regression(s, [45, 45, 45, 45])
    assert d.paid_price == 43
    assert d.buy_query_date == s.query_dates[2].item()
    assert not d.forced


def test_regression_crossing_must_be_strict():
    s = series_of([50, 45, 43], last_days_to_departure=7)
    # equal prediction does not trigger; 43 < 45 does
    d = decide_regression(s, [45, 45, 45])
    assert d.paid_price == 43


def test_regression_fallback_at_seven_days():
    # daily quotes all the way to departure, prediction never undercut
    s = series_of([30 + i for i in range(20)], last_days_to_departure=0)
    d = decide_regression(s, [10.0] * 20)
    assert d.forced
    assert days_to_departure(s, d) == LAST_BUY_DAYS_BEFORE_DEPARTURE


def test_regression_ignores_late_crossing():
    # crossing exists only inside the 7-day window: must not fire
    prices = [50, 50, 50, 50, 50, 50, 50, 50, 5, 5]
    s = series_of(prices, last_days_to_departure=0)
    d = decide_regression(s, [40.0] * len(prices))
    assert d.forced
    assert days_to_departure(s, d) == 7
    assert d.paid_price == 50


def test_regression_short_series_forced_earliest():
    s = series_of([30], last_days_to_departure=3)
    d = decide_regression(s, [10.0])
    assert d.forced
    assert d.paid_price == 30
    assert d.buy_query_date == s.first_query_date


def test_classification_buys_earliest_one():
    s = series_of([50, 48, 43, 44, 60])
    d = decide_classification(s, [0, 0, 1, 1, 0])
    assert d.paid_price == 43
    assert not d.forced


def test_classification_buy_signal_ignores_seven_day_rule():
    # a predicted buy inside the 7-day window is still taken at face value
    s = series_of([50, 40], last_days_to_departure=2)
    d = decide_classification(s, [0, 1])
    assert d.paid_price == 40
    assert not d.forced


def test_classification_all_wait_falls_back():
    s = series_of([30 + i for i in range(15)], last_days_to_departure=0)
    d = decide_classification(s, [0] * 15)
    assert d.forced
    assert days_to_departure(s, d) == LAST_BUY_DAYS_BEFORE_DEPARTURE


def test_oracle_labels_attain_minimum():
    s = series_of([50, 40, 40, 60])
    d = decide_classification(s, feature_dataset([s], 0, "train").label_class)
    assert d.paid_price == 40
    assert d.buy_query_date == s.query_dates[1].item()


@given(st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=30))
def test_oracle_optimality_property(prices):
    s = series_of(prices)
    d = decide_classification(s, feature_dataset([s], 0, "train").label_class)
    assert d.paid_price == min(prices)


@given(
    st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=20),
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=20),
    st.integers(min_value=0, max_value=12),
)
def test_decisions_stay_inside_series(prices, raw_preds, tail_gap):
    preds = (raw_preds * 20)[: len(prices)]
    s = series_of(prices, last_days_to_departure=tail_gap)
    d = decide_classification(s, preds)
    assert d.paid_price in s.prices
    assert d.buy_query_date in s.query_dates.tolist()


def test_earlier_positive_never_delays_purchase():
    prices = [50, 48, 43, 44, 60]
    s = series_of(prices)
    base = decide_classification(s, [0, 0, 1, 0, 0])
    for flip_at in range(3):
        preds = [0] * len(prices)
        preds[flip_at] = 1
        preds[2] = 1
        d = decide_classification(s, preds)
        assert d.buy_query_date <= base.buy_query_date


def test_prediction_length_must_match():
    s = series_of([50, 40])
    with pytest.raises(Exception):
        decide_classification(s, [1])


def test_decisions_hold_a_date_and_a_python_float():
    from farecast.features import corpus_anchor
    from farecast.qlearn import q_policy, q_train

    s = series_of([50, 40, 45], last_days_to_departure=7)
    table = q_train([s], episodes=1, gamma=1.0, alpha=1.0, seed=0)
    for d in (decide_regression(s, [45, 45, 45]), decide_classification(s, [0, 0, 0]),
              q_policy(table, s)):
        assert type(d.buy_query_date) is date
        assert type(d.paid_price) is float
    assert type(corpus_anchor([s])) is date
