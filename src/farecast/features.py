"""Feature extraction from price series, labels, and the design-matrix layout.

Each quote yields six quantities: the flight-number dummies, the minimum and
maximum price so far, query-to-departure, days-to-departure, and the current
price. (The source text announces five features and then lists these six; all
six are kept.) Two label definitions: the classification label marks every
row whose price equals the whole-series minimum, and the regression label is
that minimum itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import Dataset, EmptySeries, FarecastError, PriceSeries, format_price
from .util import write_csv

logger = logging.getLogger(__name__)

# Design-matrix layout: one dummy per route, then the continuous block.
CONTINUOUS_NAMES = (
    "min_price_so_far",
    "max_price_so_far",
    "query_to_departure",
    "days_to_departure",
    "current_price",
)
CONTINUOUS = slice(-len(CONTINUOUS_NAMES), None)


class FeatureMismatch(FarecastError):
    pass


def dummy_width(n_columns: int) -> int:
    """The number of route dummy columns of a design matrix of ``n_columns``."""
    return n_columns - len(CONTINUOUS_NAMES)


def corpus_anchor(series: Sequence[PriceSeries]) -> date:
    """Corpus-wide first query date, the fixed origin for query_to_departure."""
    if not series:
        raise EmptySeries("cannot anchor an empty corpus")
    return min(s.first_query_date for s in series)


def feature_dataset(
    series: Sequence[PriceSeries],
    width: int,
    role: str,
    anchor: Optional[date] = None,
    route_index: Optional[Sequence[int]] = None,
) -> Dataset:
    """Labeled features of every quote, one row per quote, in one pass.

    Rows follow ``series`` and, within a series, the query dates. ``width``
    is the number of route dummies; ``route_index`` gives each series' route,
    or None leaves the dummy block zero for rows whose route is assigned
    later (``set_route_dummies``). ``anchor``, the origin of
    query_to_departure, defaults to the first query date of ``series``.
    """
    if anchor is None:
        anchor = corpus_anchor(series)
    lengths = np.array([len(s) for s in series], dtype=np.intp)
    ends = np.cumsum(lengths)
    row_series = np.repeat(np.arange(len(series)), lengths)
    position = np.arange(len(row_series)) - np.repeat(ends - lengths, lengths)
    # The leading empty columns give an empty block for an empty corpus.
    prices = np.concatenate([np.empty(0), *(s.prices for s in series)])
    query = np.concatenate([np.empty(0, "datetime64[D]"), *(s.query_dates for s in series)])
    departure = np.array([s.key.departure_date for s in series], dtype="datetime64[D]")

    # Series side by side, padded at the end: a running extremum reads only
    # its own series' earlier quotes.
    padded = np.zeros((len(series), lengths.max(initial=0)))
    padded[row_series, position] = prices
    running_min = np.minimum.accumulate(padded, axis=1)[row_series, position]
    running_max = np.maximum.accumulate(padded, axis=1)[row_series, position]
    series_min = running_min[ends - 1][row_series]

    X = np.zeros((len(prices), width + len(CONTINUOUS_NAMES)))
    X[:, width:] = np.column_stack([
        running_min,
        running_max,
        (departure - np.datetime64(anchor, "D")).astype(np.int64)[row_series],
        (departure[row_series] - query).astype(np.int64),
        prices,
    ])
    if route_index is not None:
        set_route_dummies(X, np.repeat(np.asarray(route_index, dtype=np.intp), lengths))
    return Dataset(X=X, label_class=(prices == series_min).astype(int), label_reg=series_min,
                   series=row_series, keys=tuple(s.key for s in series), role=role)


def set_route_dummies(X: np.ndarray, route_index) -> None:
    """Write the route dummy block of ``X`` in place: row i gets a 1 in column
    ``route_index[i]`` and 0 elsewhere; a single int tags every row."""
    width = dummy_width(X.shape[1])
    route_index = np.broadcast_to(route_index, len(X))
    if len(X) and not 0 <= route_index.min() <= route_index.max() < width:
        raise FarecastError(f"route index outside 0..{width - 1}")
    X[:, :width] = 0.0
    X[np.arange(len(X)), route_index] = 1.0


@dataclass
class Standardizer:
    """Zero-mean/unit-variance scaling of the continuous block, fit on training data.

    Dummy columns pass through untouched. Continuous columns with zero
    training variance carry no information at this scale and are dropped
    (with a warning), which also keeps downstream solvers well posed.
    """

    mean: np.ndarray
    scale: np.ndarray
    keep: np.ndarray  # 1 per column kept, 0 per column dropped, over the full column set

    def __post_init__(self):
        if not np.isin(self.keep, (0, 1)).all():
            raise FarecastError("Standardizer.keep must hold 0 or 1 per column")
        if not (self.scale > 0.0).all():
            raise FarecastError("Standardizer.scale must hold positive numbers")
        self.keep = self.keep.astype(int)  # an index mask, saved as integers

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        mean = X[:, CONTINUOUS].mean(axis=0)
        std = X[:, CONTINUOUS].std(axis=0)
        keep = np.ones(X.shape[1], dtype=int)
        degenerate = std == 0.0
        if degenerate.any():
            dropped = [CONTINUOUS_NAMES[i] for i in np.flatnonzero(degenerate)]
            logger.warning("dropping zero-variance feature(s): %s", ", ".join(dropped))
            keep[CONTINUOUS] = ~degenerate
        return cls(mean=mean, scale=np.where(degenerate, 1.0, std), keep=keep)

    def transform(self, X: np.ndarray) -> np.ndarray:
        # Column-major whether or not a column is dropped: the last bits of
        # the cores' BLAS products depend on their operands' layout.
        out = X.astype(float, order="F")
        out[:, CONTINUOUS] -= self.mean
        out[:, CONTINUOUS] /= self.scale
        return out if self.keep.all() else out[:, self.keep == 1]


def dump_features(ds: Dataset, path: str | Path) -> None:
    """Write the rows of ``ds`` as CSV, one line per quote, for inspection."""
    width = dummy_width(ds.n_features)
    header = ["route_id", "departure_date", "query_date", *CONTINUOUS_NAMES,
              *(f"f{i}" for i in range(width)), "label_class", "label_reg"]

    def rows():
        for row, series, label_class, label_reg in zip(
                ds.X.tolist(), ds.series.tolist(), ds.label_class.tolist(),
                ds.label_reg.tolist()):
            key = ds.keys[series]
            low, high, query_to_departure, days_to_departure, price = row[width:]
            days_to_departure = int(days_to_departure)
            query_date = key.departure_date - timedelta(days=days_to_departure)
            yield ([key.route_id, key.departure_date.isoformat(), query_date.isoformat(),
                    format_price(low), format_price(high), int(query_to_departure),
                    days_to_departure, format_price(price)]
                   + [int(v) for v in row[:width]]
                   + [label_class, format_price(label_reg)])

    write_csv(path, header, rows())
