import logging
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from farecast.core import EmptySeries, Quote, SeriesKey, make_series, one_hot
from farecast.features import (
    CONTINUOUS,
    CONTINUOUS_NAMES,
    Standardizer,
    corpus_anchor,
    dump_features,
    extract_rows,
    label_rows,
    labels_class,
    labels_reg,
    to_matrix,
)

from conftest import series_of


def test_running_extrema():
    s = series_of([50, 40, 45])
    rows = extract_rows(s)
    assert [r.min_price_so_far for r in rows] == [50, 40, 40]
    assert [r.max_price_so_far for r in rows] == [50, 50, 50]
    assert [r.current_price for r in rows] == [50, 40, 45]


def test_day_arithmetic_relative_to_anchor():
    anchor = date(2015, 11, 9)
    departure = anchor + timedelta(days=30)
    s = series_of([10.0], departure=departure, last_days_to_departure=2)
    rows = extract_rows(s, anchor=anchor)
    assert rows[0].days_to_departure == 2
    assert rows[0].query_to_departure == 30


def test_query_to_departure_by_calendar_enumeration():
    # independent oracle: walk the calendar one day at a time
    anchor = date(2015, 11, 9)
    departure = date(2016, 1, 13)
    steps = 0
    d = anchor
    while d < departure:
        d += timedelta(days=1)
        steps += 1
    assert steps == 65
    s = series_of([10.0, 11.0], departure=departure)
    rows = extract_rows(s, anchor=anchor)
    assert all(r.query_to_departure == 65 for r in rows)


def test_anchor_defaults_to_own_first_query():
    s = series_of([10.0, 11.0, 12.0], departure=date(2016, 1, 13), last_days_to_departure=0)
    rows = extract_rows(s)
    # first query is 2 days before departure here
    assert rows[0].query_to_departure == 2


def test_corpus_anchor_is_min_first_query():
    early = series_of([1, 2], departure=date(2016, 1, 10))
    late = series_of([1, 2], departure=date(2016, 2, 10))
    assert corpus_anchor([late, early]) == early.first_query_date


def test_labels_tie_all_buy():
    s = series_of([50, 40, 40, 60])
    rows = label_rows(extract_rows(s), s)
    assert [r.label_class for r in rows] == [0, 1, 1, 0]
    assert all(r.label_reg == 40 for r in rows)


def test_labels_singleton():
    s = series_of([30])
    rows = label_rows(extract_rows(s), s)
    assert [r.label_class for r in rows] == [1]
    assert [r.label_reg for r in rows] == [30]


def test_labels_increasing_series():
    s = series_of([10, 20, 30])
    rows = label_rows(extract_rows(s), s)
    assert [r.label_class for r in rows] == [1, 0, 0]


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=40))
def test_label_properties(prices):
    s = series_of(prices)
    rows = label_rows(extract_rows(s), s)
    assert sum(r.label_class for r in rows) >= 1
    lo = min(prices)
    for r in rows:
        assert r.label_reg == lo
        assert r.label_reg <= r.min_price_so_far
        assert r.min_price_so_far <= r.max_price_so_far
        assert r.min_price_so_far <= r.current_price
        assert r.query_to_departure >= r.days_to_departure >= 0


def test_extract_empty_is_impossible_via_make_series():
    with pytest.raises(EmptySeries):
        make_series(SeriesKey("R1", date(2016, 1, 13)), [])


def test_route_index_sets_dummies():
    s = series_of([10, 20])
    rows = extract_rows(s, dummies=one_hot(3, 8))
    assert rows[0].flight_dummies == (0, 0, 0, 1, 0, 0, 0, 0)
    plain = extract_rows(s)
    assert plain[0].flight_dummies is None


def test_to_matrix_layout():
    s = series_of([50, 40, 45])
    rows = [r.with_dummies(2, 8) for r in label_rows(extract_rows(s), s)]
    X = to_matrix(rows)
    assert X.shape == (3, 8 + len(CONTINUOUS_NAMES))
    assert X[:, :8].sum() == 3
    assert np.array_equal(X[:, 2], np.ones(3))
    # continuous block order: min, max, query_to_departure, dtd, current
    assert np.array_equal(X[0, CONTINUOUS], [50, 50, 2, 2, 50])
    y = labels_class(rows)
    assert y.tolist() == [0, 1, 0]
    yr = labels_reg(rows)
    assert yr.tolist() == [40.0, 40.0, 40.0]


def test_to_matrix_requires_dummies():
    s = series_of([50, 40])
    rows = label_rows(extract_rows(s), s)
    with pytest.raises(Exception):
        to_matrix(rows)


def test_standardizer_centers_continuous_block():
    rng = np.random.default_rng(0)
    X = np.hstack([np.tile([1, 0, 0, 0, 0, 0, 0, 0], (40, 1)), rng.normal(5, 3, (40, 5))])
    std = Standardizer.fit(X)
    Z = std.transform(X)
    assert np.allclose(Z[:, CONTINUOUS].mean(axis=0), 0, atol=1e-12)
    assert np.allclose(Z[:, CONTINUOUS].std(axis=0), 1, atol=1e-12)
    # dummy block untouched
    assert np.array_equal(Z[:, :8], X[:, :8])


def test_standardizer_drops_constant_column(caplog):
    rng = np.random.default_rng(1)
    X = np.hstack([np.tile([1, 0, 0, 0, 0, 0, 0, 0], (30, 1)), rng.normal(0, 1, (30, 5))])
    X[:, 10] = 7.0  # constant query_to_departure
    with caplog.at_level(logging.WARNING):
        std = Standardizer.fit(X)
    assert any("zero-variance" in r.message for r in caplog.records)
    Z = std.transform(X)
    # the constant column is removed outright
    assert Z.shape == (30, 8 + len(CONTINUOUS_NAMES) - 1)
    assert not (Z == 7.0).any()


def test_standardizer_round_trip():
    rng = np.random.default_rng(2)
    X = np.hstack([np.tile([0, 1, 0, 0, 0, 0, 0, 0], (20, 1)), rng.normal(2, 9, (20, 5))])
    std = Standardizer.fit(X)
    clone = Standardizer.from_dict(std.to_dict())
    assert np.array_equal(std.transform(X), clone.transform(X))


def test_dump_features_csv(tmp_path):
    s = series_of([50, 40, 45])
    rows = [r.with_dummies(0, 8) for r in label_rows(extract_rows(s), s)]
    out = tmp_path / "features.csv"
    dump_features(rows, out)
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert "min_price_so_far" in header
    assert "label_class" in header
