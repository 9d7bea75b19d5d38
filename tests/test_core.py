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
    PriceSeries,
    QueryAfterDeparture,
    SeriesKey,
    format_price,
)
from farecast.ingest import CSV_HEADER, ParseError, load_quotes
from farecast.synthgen import write_corpus_csv

from farecast.features import set_route_dummies

from conftest import dataset_of, series_of

KEY = SeriesKey("R1", date(2016, 1, 13))


def write_rows(path, rows):
    path.write_text("\n".join([",".join(CSV_HEADER)] + [",".join(r) for r in rows]) + "\n",
                    encoding="utf-8")


# -- the quote rules, applied by load_quotes ------------------------------------


def test_validate_quote_accepts_well_formed(tmp_path):
    f = tmp_path / "q.csv"
    write_rows(f, [("R1", "2016-01-13", "2015-12-01", "49.990")])
    (s,) = load_quotes(f)
    assert s.key == KEY
    assert s.query_dates.tolist() == [date(2015, 12, 1)]
    assert s.prices.tolist() == [49.99]


def test_validate_quote_rejects_query_after_departure(tmp_path):
    f = tmp_path / "q.csv"
    write_rows(f, [("R1", "2016-01-13", "2015-11-30", "50.000"),
                   ("R1", "2016-01-13", "2016-02-01", "49.990")])
    with pytest.raises(ParseError) as exc:
        load_quotes(f)
    assert exc.value.line_no == 3
    assert isinstance(exc.value.__cause__, QueryAfterDeparture)


def test_validate_quote_rejects_zero_price(tmp_path):
    f = tmp_path / "q.csv"
    write_rows(f, [("R1", "2016-01-13", "2015-12-01", "0.0")])
    with pytest.raises(ParseError) as exc:
        load_quotes(f)
    assert exc.value.line_no == 2
    assert isinstance(exc.value.__cause__, NonPositivePrice)


def test_query_on_departure_day_is_allowed(tmp_path):
    f = tmp_path / "q.csv"
    write_rows(f, [("R1", "2016-01-13", "2016-01-13", "10.000")])
    (s,) = load_quotes(f)
    assert s.query_dates.tolist() == [date(2016, 1, 13)]
    assert s.days_to_departure.tolist() == [0]


# -- PriceSeries invariants -------------------------------------------------------


def test_price_series_holds_read_only_columns():
    s = PriceSeries(KEY, [date(2015, 12, 1), date(2015, 12, 2)], [50, 40.5])
    assert s.query_dates.dtype == np.dtype("datetime64[D]")
    assert s.prices.dtype == np.float64
    assert tuple(s.prices) == (50.0, 40.5)
    with pytest.raises(ValueError):
        s.prices[0] = 1.0


def test_make_series_sorts_by_query_date(tmp_path):
    # Rows out of query order come back sorted; the type itself refuses them.
    f = tmp_path / "q.csv"
    write_rows(f, [("R1", "2016-01-13", "2015-12-03", "45.000"),
                   ("R1", "2016-01-13", "2015-12-01", "50.000"),
                   ("R1", "2016-01-13", "2015-12-02", "40.000")])
    (s,) = load_quotes(f)
    assert tuple(s.prices) == (50.0, 40.0, 45.0)
    assert s.first_query_date == date(2015, 12, 1)
    with pytest.raises(FarecastError):
        PriceSeries(KEY, [date(2015, 12, 3), date(2015, 12, 1), date(2015, 12, 2)],
                    [45.0, 50.0, 40.0])


def test_make_series_rejects_duplicate_query_date():
    with pytest.raises(FarecastError):
        PriceSeries(KEY, [date(2015, 12, 1), date(2015, 12, 1)], [50.0, 40.0])


def test_make_series_rejects_empty():
    with pytest.raises(EmptySeries):
        PriceSeries(KEY, (), ())


def test_price_series_rejects_unequal_columns():
    with pytest.raises(FarecastError):
        PriceSeries(KEY, [date(2015, 12, 1)], [50.0, 40.0])


def test_series_len_and_first_query_date():
    s = series_of([50, 40, 45])
    assert len(s) == 3
    assert s.first_query_date == s.query_dates[0].item() == date(2016, 1, 11)
    assert s.days_to_departure.tolist() == [2, 1, 0]


def test_format_price_three_decimals():
    assert format_price(28.768) == "28.768"
    assert format_price(49.99) == "49.990"
    assert format_price(30) == "30.000"


def test_quote_csv_round_trip_exact(tmp_path):
    f = tmp_path / "q.csv"
    s = PriceSeries(SeriesKey("R3", date(2016, 1, 13)), [date(2015, 11, 9)], [28.768])
    write_corpus_csv([s], f)
    assert f.read_text(encoding="utf-8").splitlines()[1] == "R3,2016-01-13,2015-11-09,28.768"
    (back,) = load_quotes(f)
    assert back.key == s.key
    assert back.query_dates.tolist() == [date(2015, 11, 9)]
    assert back.prices.tolist() == [28.768]


@given(
    price=st.decimals(min_value="0.001", max_value="9999.999", places=3),
    gap=st.integers(min_value=0, max_value=300),
)
def test_quote_round_trip_property(tmp_path_factory, price, gap):
    f = tmp_path_factory.mktemp("round-trip") / "q.csv"
    dep = date(2016, 1, 13)
    s = PriceSeries(SeriesKey("R7", dep), [dep - timedelta(days=gap)], [float(price)])
    write_corpus_csv([s], f)
    (back,) = load_quotes(f)
    assert back.key == s.key
    assert back.query_dates.tolist() == s.query_dates.tolist()
    assert back.prices.tolist() == [float(price)]


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
