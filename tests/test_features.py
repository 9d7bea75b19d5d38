import csv
import logging
import os
import subprocess
import sys
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import farecast
from farecast.core import (
    BUY,
    WAIT,
    EmptySeries,
    FarecastError,
    FeatureRow,
    PriceSeries,
    SeriesKey,
    format_price,
)
from farecast.features import (
    CONTINUOUS,
    CONTINUOUS_NAMES,
    FeatureMismatch,
    Standardizer,
    corpus_anchor,
    dump_features,
    feature_dataset,
    set_route_dummies,
)
from farecast.learners import LearnerSpec, fit, predict
from farecast.pipeline import build_dataset
from farecast.util import from_jsonable, to_jsonable

from conftest import series_of


# -- the row-at-a-time extraction, kept as the oracle of feature_dataset -------


def extract_rows(s: PriceSeries, dummies=None, anchor=None) -> list[FeatureRow]:
    """One unlabeled FeatureRow per quote, running extrema by a scalar loop."""
    if anchor is None:
        anchor = s.first_query_date
    rows = []
    running_min, running_max = float("inf"), float("-inf")
    for query_date, price in zip(s.query_dates.tolist(), s.prices.tolist()):
        running_min = min(running_min, price)
        running_max = max(running_max, price)
        rows.append(FeatureRow(
            key=s.key,
            query_date=query_date,
            min_price_so_far=running_min,
            max_price_so_far=running_max,
            query_to_departure=(s.key.departure_date - anchor).days,
            days_to_departure=(s.key.departure_date - query_date).days,
            current_price=price,
            flight_dummies=dummies,
        ))
    return rows


def label_rows(rows, s: PriceSeries) -> list[FeatureRow]:
    prices = s.prices.tolist()
    series_min = min(prices)
    return [replace(r, label_class=BUY if price == series_min else WAIT,
                    label_reg=series_min) for r, price in zip(rows, prices)]


def to_matrix(rows) -> np.ndarray:
    return np.array([list(r.flight_dummies) + [
        r.min_price_so_far, r.max_price_so_far, r.query_to_departure,
        r.days_to_departure, r.current_price] for r in rows], dtype=float)


def one_series(s, width=0, anchor=None, route_index=None):
    return feature_dataset([s], width, "train", anchor=anchor, route_index=route_index)


def column(ds, name):
    return ds.X[:, CONTINUOUS][:, CONTINUOUS_NAMES.index(name)]


# -- extraction -----------------------------------------------------------------


def test_running_extrema():
    ds = one_series(series_of([50, 40, 45]))
    assert column(ds, "min_price_so_far").tolist() == [50, 40, 40]
    assert column(ds, "max_price_so_far").tolist() == [50, 50, 50]
    assert column(ds, "current_price").tolist() == [50, 40, 45]


def test_day_arithmetic_relative_to_anchor():
    anchor = date(2015, 11, 9)
    departure = anchor + timedelta(days=30)
    s = series_of([10.0], departure=departure, last_days_to_departure=2)
    ds = one_series(s, anchor=anchor)
    assert column(ds, "days_to_departure")[0] == 2
    assert column(ds, "query_to_departure")[0] == 30


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
    ds = one_series(s, anchor=anchor)
    assert (column(ds, "query_to_departure") == 65).all()


def test_anchor_defaults_to_own_first_query():
    s = series_of([10.0, 11.0, 12.0], departure=date(2016, 1, 13), last_days_to_departure=0)
    ds = one_series(s)
    # first query is 2 days before departure here
    assert column(ds, "query_to_departure")[0] == 2


def test_corpus_anchor_is_min_first_query():
    early = series_of([1, 2], departure=date(2016, 1, 10))
    late = series_of([1, 2], departure=date(2016, 2, 10))
    assert corpus_anchor([late, early]) == early.first_query_date


def test_labels_tie_all_buy():
    ds = one_series(series_of([50, 40, 40, 60]))
    assert ds.label_class.tolist() == [0, 1, 1, 0]
    assert (ds.label_reg == 40).all()


def test_labels_singleton():
    ds = one_series(series_of([30]))
    assert ds.label_class.tolist() == [1]
    assert ds.label_reg.tolist() == [30]


def test_labels_increasing_series():
    ds = one_series(series_of([10, 20, 30]))
    assert ds.label_class.tolist() == [1, 0, 0]


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=40))
def test_label_properties(prices):
    ds = one_series(series_of(prices))
    assert ds.label_class.sum() >= 1
    low, high = column(ds, "min_price_so_far"), column(ds, "max_price_so_far")
    assert (ds.label_reg == min(prices)).all()
    assert (ds.label_reg <= low).all()
    assert (low <= high).all()
    assert (low <= column(ds, "current_price")).all()
    assert (column(ds, "query_to_departure") >= column(ds, "days_to_departure")).all()
    assert (column(ds, "days_to_departure") >= 0).all()


def test_extract_empty_is_impossible_via_make_series():
    key = SeriesKey("R1", date(2016, 1, 13))
    with pytest.raises(EmptySeries):
        feature_dataset([series_of([10.0]), PriceSeries(key, (), ())], 0, "train",
                        anchor=date(2016, 1, 1))


def test_route_index_sets_dummies():
    s = series_of([10, 20])
    ds = one_series(s, width=8, route_index=[3])
    assert ds.X[0, :8].tolist() == [0, 0, 0, 1, 0, 0, 0, 0]
    plain = one_series(s, width=8)
    assert (plain.X[:, :8] == 0).all()


def test_dataset_layout():
    s = series_of([50, 40, 45])
    ds = one_series(s, width=8, route_index=[2])
    X = ds.X
    assert X.shape == (3, 8 + len(CONTINUOUS_NAMES))
    assert X[:, :8].sum() == 3
    assert np.array_equal(X[:, 2], np.ones(3))
    # continuous block order: min, max, query_to_departure, dtd, current
    assert np.array_equal(X[0, CONTINUOUS], [50, 50, 2, 2, 50])
    assert ds.label_class.tolist() == [0, 1, 0]
    assert ds.label_reg.tolist() == [40.0, 40.0, 40.0]
    assert ds.series.tolist() == [0, 0, 0] and ds.keys == (s.key,)
    assert X.flags["C_CONTIGUOUS"]


def test_predict_requires_route_dummies():
    train = [series_of([50, 40, 45, 60], route_id="R1"),
             series_of([70, 80, 65, 90], route_id="R2", departure=date(2016, 1, 20))]
    model = fit(LearnerSpec("cart", "classification"),
                feature_dataset(train, 2, "train", route_index=[0, 1]), seed=0)
    untagged = feature_dataset(train, 2, "generalized")
    with pytest.raises(FeatureMismatch):
        predict(model, untagged.X)
    set_route_dummies(untagged.X, 1)
    assert len(predict(model, untagged.X)) == 8


@st.composite
def corpora(draw):
    """Series of several routes with gaps in the query days, single quotes
    and constant prices."""
    series = []
    for i in range(draw(st.integers(1, 6))):
        route = draw(st.integers(0, 3))
        departure = date(2016, 3, 1) + timedelta(days=draw(st.integers(0, 40)) + 50 * i)
        days_out = sorted(draw(st.sets(st.integers(0, 45), min_size=1, max_size=12)),
                          reverse=True)
        flat = draw(st.booleans())
        prices = [100.0] * len(days_out) if flat else [
            draw(st.floats(1.0, 500.0, allow_nan=False)) for _ in days_out]
        key = SeriesKey(f"R{route}", departure)
        series.append(PriceSeries(key, [departure - timedelta(days=d) for d in days_out],
                                  prices))
    return series


@settings(max_examples=100, deadline=None)
@given(corpora())
def test_feature_dataset_matches_row_oracle(series):
    anchor = corpus_anchor(series) - timedelta(days=3)
    route_index = [int(s.key.route_id[1:]) for s in series]
    ds = feature_dataset(series, 4, "train", anchor=anchor, route_index=route_index)
    rows = [row for s, r in zip(series, route_index) for row in label_rows(
        extract_rows(s, dummies=tuple(int(i == r) for i in range(4)), anchor=anchor), s)]
    assert np.array_equal(ds.X, to_matrix(rows))
    assert ds.label_class.tolist() == [r.label_class for r in rows]
    assert ds.label_reg.tolist() == [r.label_reg for r in rows]
    assert [ds.keys[i] for i in ds.series] == [r.key for r in rows]
    assert [len(part) for part in ds.split(ds.label_reg)] == [len(s) for s in series]


def test_standardizer_centers_continuous_block():
    rng = np.random.default_rng(0)
    X = np.hstack([np.tile([1, 0, 0, 0, 0, 0, 0, 0], (40, 1)), rng.normal(5, 3, (40, 5))])
    X_before = X.copy()
    std = Standardizer.fit(X)
    Z = std.transform(X)
    assert np.array_equal(X, X_before)  # transform works on its own copy
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
    saved = to_jsonable(std)
    assert saved["keep"] == [1] * X.shape[1]  # written as integers, as in v1 documents
    clone = from_jsonable(Standardizer, saved)
    assert np.array_equal(std.transform(X), clone.transform(X))


def test_dump_features_csv(tmp_path):
    series = [series_of([50, 40, 45]), series_of([70, 65], route_id="R2",
                                                 departure=date(2016, 1, 20))]
    anchor = corpus_anchor(series)
    ds = feature_dataset(series, 8, "test", anchor=anchor, route_index=[0, 5])
    out = tmp_path / "features.csv"
    dump_features(ds, out)
    with open(out, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    assert len(lines) == 6
    header = lines[0]
    assert "min_price_so_far" in header
    assert "label_class" in header
    rows = [row for s, r in zip(series, [0, 5]) for row in label_rows(
        extract_rows(s, dummies=tuple(int(i == r) for i in range(8)), anchor=anchor), s)]
    assert lines[1:] == [
        [r.key.route_id, r.key.departure_date.isoformat(), r.query_date.isoformat(),
         format_price(r.min_price_so_far), format_price(r.max_price_so_far),
         str(r.query_to_departure), str(r.days_to_departure), format_price(r.current_price)]
        + [str(v) for v in r.flight_dummies]
        + [str(r.label_class), format_price(r.label_reg)]
        for r in rows]


ROUTE_ORDER_SCRIPT = """
from farecast.pipeline import route_order
from conftest import series_of
print(",".join(route_order([series_of([1.0], route_id=r) for r in ("R1", "R01", "R2", "R001")])))
"""


def test_route_order_is_total_under_every_hash_seed():
    # R1, R01 and R001 natural-sort alike; their order is the dummy index of
    # every model, so it must not follow the set's iteration order.
    src = str(Path(farecast.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).parent)])
    for hash_seed in ("1", "2", "3", "4"):
        proc = subprocess.run([sys.executable, "-c", ROUTE_ORDER_SCRIPT],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": path,
                                   "PYTHONHASHSEED": hash_seed})
        assert proc.stdout.split() == ["R001,R01,R1,R2"], hash_seed


def test_a_series_of_an_unknown_route_is_rejected():
    s = series_of([100.0, 90.0], route_id="R2")
    with pytest.raises(FarecastError, match="belongs to no known route"):
        build_dataset([s], ["R1"], s.first_query_date, role="test")
