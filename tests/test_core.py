from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from farecast.core import (
    EmptySeries,
    FarecastError,
    FeatureRow,
    NonPositivePrice,
    QueryAfterDeparture,
    Quote,
    SeriesKey,
    format_price,
    make_series,
    quote_from_csv_row,
    quote_to_csv_row,
    validate_quote,
)

from farecast.features import set_route_dummies

from conftest import dataset_of, series_of


def test_validate_quote_accepts_well_formed():
    q = Quote("R1", date(2016, 1, 13), date(2015, 12, 1), 49.99)
    assert validate_quote(q) is q


def test_validate_quote_rejects_query_after_departure():
    q = Quote("R1", date(2016, 1, 13), date(2016, 2, 1), 49.99)
    with pytest.raises(QueryAfterDeparture):
        validate_quote(q)


def test_validate_quote_rejects_zero_price():
    q = Quote("R1", date(2016, 1, 13), date(2015, 12, 1), 0.0)
    with pytest.raises(NonPositivePrice):
        validate_quote(q)


def test_query_on_departure_day_is_allowed():
    q = Quote("R1", date(2016, 1, 13), date(2016, 1, 13), 10.0)
    assert validate_quote(q) is q


def test_make_series_sorts_by_query_date():
    dep = date(2016, 1, 13)
    quotes = [
        Quote("R1", dep, date(2015, 12, 3), 45.0),
        Quote("R1", dep, date(2015, 12, 1), 50.0),
        Quote("R1", dep, date(2015, 12, 2), 40.0),
    ]
    s = make_series(SeriesKey("R1", dep), quotes)
    assert s.prices == (50.0, 40.0, 45.0)
    assert s.first_query_date == date(2015, 12, 1)


def test_make_series_rejects_duplicate_query_date():
    dep = date(2016, 1, 13)
    quotes = [
        Quote("R1", dep, date(2015, 12, 1), 50.0),
        Quote("R1", dep, date(2015, 12, 1), 40.0),
    ]
    with pytest.raises(FarecastError):
        make_series(SeriesKey("R1", dep), quotes)


def test_make_series_rejects_empty():
    with pytest.raises(EmptySeries):
        make_series(SeriesKey("R1", date(2016, 1, 13)), [])


def test_series_len_and_first_query_date():
    s = series_of([50, 40, 45])
    assert len(s) == 3
    assert s.first_query_date == s.quotes[0].query_date


def test_format_price_three_decimals():
    assert format_price(28.768) == "28.768"
    assert format_price(49.99) == "49.990"
    assert format_price(30) == "30.000"


def test_quote_csv_round_trip_exact():
    q = Quote("R3", date(2016, 1, 13), date(2015, 11, 9), 28.768)
    row = quote_to_csv_row(q)
    assert row == ("R3", "2016-01-13", "2015-11-09", "28.768")
    assert quote_from_csv_row(*row) == q


@given(
    price=st.decimals(min_value="0.001", max_value="9999.999", places=3),
    gap=st.integers(min_value=0, max_value=300),
)
def test_quote_round_trip_property(price, gap):
    dep = date(2016, 1, 13)
    q = Quote("R7", dep, dep - timedelta(days=gap), float(price))
    assert quote_from_csv_row(*quote_to_csv_row(q)) == q


def test_one_hot_layout():
    X = np.full((8, 8 + 5), 7.0)
    set_route_dummies(X, np.arange(8))
    assert np.array_equal(X[:, :8], np.eye(8))
    assert (X[:, 8:] == 7.0).all()  # the continuous block is untouched
    set_route_dummies(X, 7)
    assert X[:, :8].tolist() == [[0, 0, 0, 0, 0, 0, 0, 1]] * 8
    with pytest.raises(FarecastError):
        set_route_dummies(X, 8)
    with pytest.raises(FarecastError):
        set_route_dummies(X, -1)


def test_feature_row_with_dummies():
    row = FeatureRow(
        key=SeriesKey("R2", date(2016, 1, 13)),
        query_date=date(2015, 12, 1),
        min_price_so_far=40.0,
        max_price_so_far=50.0,
        query_to_departure=65,
        days_to_departure=43,
        current_price=45.0,
    )
    tagged = row.with_dummies(1, 8)
    assert tagged.flight_dummies == (0, 1, 0, 0, 0, 0, 0, 0)
    # original untouched, labels carried over
    assert row.flight_dummies is None
    assert tagged.label_class == row.label_class


def test_dataset_class_counts():
    key = SeriesKey("R1", date(2016, 1, 13))
    ds = dataset_of([(key, 0, (1.0, 1.0, 10, 5, 1.0), lab, None) for lab in [0, 0, 1, 0]])
    assert ds.class_counts() == (3, 1)
    assert ds.take(ds.label_class == 1).class_counts() == (0, 1)


def test_dataset_role_validated():
    with pytest.raises(FarecastError):
        dataset_of([], role="validation")
