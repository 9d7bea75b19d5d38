"""Shared domain vocabulary: price series and feature datasets."""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date
from typing import Optional

import numpy as np

BUY = 1
WAIT = 0


class FarecastError(Exception):
    """Base class for all domain errors."""


class NonPositivePrice(FarecastError):
    pass


class QueryAfterDeparture(FarecastError):
    pass


class EmptySeries(FarecastError):
    pass


@dataclass(frozen=True)
class SeriesKey:
    """Identifies one price series: an origin-destination route and a departure date."""

    route_id: str
    departure_date: date


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """The quotes of one series key as two read-only columns.

    ``query_dates`` is ``datetime64[D]`` and strictly increasing; ``prices``
    is float64, one per query date. Construction copies both columns and
    checks that they are non-empty, of equal length and sorted; price and
    date rules are checked where quotes are read (``ingest.load_quotes``).
    """

    key: SeriesKey
    query_dates: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        query_dates = np.array(self.query_dates, dtype="datetime64[D]")
        prices = np.array(self.prices, dtype=float)
        if len(prices) == 0:
            raise EmptySeries(f"no quotes for {self.key}")
        if len(query_dates) != len(prices):
            raise FarecastError(
                f"{len(query_dates)} query dates for {len(prices)} prices in series {self.key}")
        if not (query_dates[1:] > query_dates[:-1]).all():
            raise FarecastError(f"query dates of series {self.key} are not strictly increasing")
        for name, column in (("query_dates", query_dates), ("prices", prices)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def first_query_date(self) -> date:
        return self.query_dates[0].item()

    @property
    def days_to_departure(self) -> np.ndarray:
        return (np.datetime64(self.key.departure_date, "D") - self.query_dates).astype(np.int64)

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class FeatureRow:
    """Feature vector and labels for one (series, query day), as one object.

    Nothing in the package builds one any more: features live as columns of
    ``Dataset.X``. The class and ``with_dummies`` remain because the
    benchmark's trace hooks (``bench/tracing.py``) wrap
    ``FeatureRow.with_dummies`` by name, and the tests use the row form as
    the oracle of the columnar extraction.
    """

    key: SeriesKey
    query_date: date
    min_price_so_far: float
    max_price_so_far: float
    query_to_departure: int
    days_to_departure: int
    current_price: float
    flight_dummies: Optional[tuple[int, ...]] = None
    label_class: Optional[int] = None
    label_reg: Optional[float] = None

    def with_dummies(self, route_index: int, width: int) -> "FeatureRow":
        return replace(self, flight_dummies=tuple(int(i == route_index) for i in range(width)))


class Dataset:
    """The feature block of a set of series, with its pipeline role.

    ``X`` is the (n, width + 5) design matrix: one route dummy column per
    route, then the continuous block named by ``features.CONTINUOUS_NAMES``.
    Row i belongs to series ``keys[series[i]]``; ``label_class`` marks the
    rows at their series' minimum price and ``label_reg`` is that minimum.

    A set built from its arrays holds each of their rows once, in order.
    Every subset is held by index into those arrays: ``take`` composes
    ``index``, which lists in order the rows the set holds, so one row can
    be held many times and none is copied. Each read of ``X``,
    ``label_class``, ``label_reg`` or ``series`` of a set held by index
    gathers its rows into a new array, so a reader reads a column once;
    ``len`` counts every row it holds, and ``counted`` hands its rows over
    once each with their counts.
    """

    __slots__ = ("_X", "_label_class", "_label_reg", "_series", "keys", "role", "index")

    def __init__(self, X: np.ndarray, label_class: np.ndarray, label_reg: np.ndarray,
                 series: np.ndarray, keys: tuple[SeriesKey, ...], role: str,
                 index: Optional[np.ndarray] = None):
        if role not in ("train", "test", "generalized"):
            raise FarecastError(f"unknown dataset role {role!r}")
        self._X, self._label_class, self._label_reg, self._series = (
            X, label_class, label_reg, series)
        self.keys, self.role, self.index = keys, role, index

    def _rows(self, column: np.ndarray) -> np.ndarray:
        return column if self.index is None else column[self.index]

    @property
    def X(self) -> np.ndarray:
        return self._rows(self._X)

    @property
    def label_class(self) -> np.ndarray:
        return self._rows(self._label_class)

    @property
    def label_reg(self) -> np.ndarray:
        return self._rows(self._label_reg)

    @property
    def series(self) -> np.ndarray:
        return self._rows(self._series)

    @property
    def n_features(self) -> int:
        """The number of columns of ``X``."""
        return self._X.shape[1]

    def __len__(self) -> int:
        return len(self._X) if self.index is None else len(self.index)

    def take(self, rows: np.ndarray) -> "Dataset":
        """The rows selected by an index array or a boolean mask, in that
        order, held by index into the arrays this set holds or refers to."""
        index = np.arange(len(self)) if self.index is None else self.index
        return Dataset(self._X, self._label_class, self._label_reg, self._series,
                       self.keys, self.role, index[rows])

    def counted(self) -> tuple["Dataset", np.ndarray]:
        """(rows, counts): each row the set holds, once, in the order the set
        first holds it, held by index, and how many times the set holds it.
        Where that is every row of its arrays, in their order, the rows are
        those arrays as they are."""
        if self.index is None:
            return self, np.ones(len(self), dtype=np.intp)
        held, first, counts = np.unique(self.index, return_index=True, return_counts=True)
        order = np.argsort(first)
        held = held[order]
        if np.array_equal(held, np.arange(len(self._X))):
            held = None
        return Dataset(self._X, self._label_class, self._label_reg, self._series,
                       self.keys, self.role, held), counts[order]

    def map_rows(self, fn) -> np.ndarray:
        """``fn(X)`` for an ``fn`` that maps each row of X on its own: a set
        held by index maps each row it refers to once and reads the result
        through its index, so X is never gathered."""
        return self._rows(fn(self._X))

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """One value per row, cut into the runs of consecutive rows of one series."""
        return np.split(values, np.flatnonzero(np.diff(self.series)) + 1)


def format_price(price: float) -> str:
    """Canonical 3-decimal price rendering used in all file I/O."""
    return f"{price:.3f}"
