"""Shared domain vocabulary: quotes, price series, feature rows, datasets."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from typing import Iterable, Optional

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
class Quote:
    """One observed fare for a (route, departure date) on a given query day."""

    route_id: str
    departure_date: date
    query_date: date
    price: float


@dataclass(frozen=True)
class SeriesKey:
    """Identifies one price series: an origin-destination route and a departure date."""

    route_id: str
    departure_date: date


def validate_quote(q: Quote) -> Quote:
    """Return ``q`` unchanged if its invariants hold, else raise.

    Raises:
        NonPositivePrice: price is zero, negative or not finite.
        QueryAfterDeparture: the quote was queried after its departure date.
    """
    if not (q.price > 0 and math.isfinite(q.price)):
        raise NonPositivePrice(
            f"price must be finite and > 0, got {q.price!r} for {q.route_id}")
    if q.query_date > q.departure_date:
        raise QueryAfterDeparture(
            f"query {q.query_date} is after departure {q.departure_date} for {q.route_id}"
        )
    return q


@dataclass(frozen=True)
class PriceSeries:
    """All quotes for one series key, ordered by query date ascending."""

    key: SeriesKey
    quotes: tuple[Quote, ...]

    @property
    def first_query_date(self) -> date:
        return self.quotes[0].query_date

    @property
    def prices(self) -> tuple[float, ...]:
        return tuple(q.price for q in self.quotes)

    def __len__(self) -> int:
        return len(self.quotes)


def make_series(key: SeriesKey, quotes: Iterable[Quote]) -> PriceSeries:
    """Build a PriceSeries from an unordered quote collection (sorted by query date)."""
    ordered = tuple(sorted(quotes, key=lambda q: q.query_date))
    if not ordered:
        raise EmptySeries(f"no quotes for {key}")
    for q in ordered:
        validate_quote(q)
        if q.route_id != key.route_id or q.departure_date != key.departure_date:
            raise FarecastError(f"quote {q} does not belong to series {key}")
    for a, b in zip(ordered, ordered[1:]):
        if a.query_date == b.query_date:
            raise FarecastError(
                f"two quotes share query date {a.query_date} in series {key}"
            )
    return PriceSeries(key=key, quotes=ordered)


@dataclass(frozen=True)
class FeatureRow:
    """Feature vector and labels for one (series, query day).

    ``flight_dummies`` is None for generalized-route rows until a route
    pattern has been assigned; everywhere else it is a one-hot over the routes.
    ``label_reg`` is the minimum price over the entire series (future-aware;
    training targets and evaluation only).
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
        return replace(self, flight_dummies=one_hot(route_index, width))


def one_hot(route_index: int, width: int) -> tuple[int, ...]:
    """Dummy vector of ``width`` routes with a 1 at ``route_index``."""
    if not 0 <= route_index < width:
        raise FarecastError(f"route index {route_index} outside 0..{width - 1}")
    return tuple(1 if i == route_index else 0 for i in range(width))


@dataclass(frozen=True)
class Dataset:
    """A bag of feature rows with its pipeline role."""

    rows: tuple[FeatureRow, ...]
    role: str  # train | test | generalized

    def __post_init__(self):
        if self.role not in ("train", "test", "generalized"):
            raise FarecastError(f"unknown dataset role {self.role!r}")

    def __len__(self) -> int:
        return len(self.rows)

    def class_counts(self) -> tuple[int, int]:
        """(wait, buy) counts over labeled rows."""
        buy = sum(1 for r in self.rows if r.label_class == BUY)
        wait = sum(1 for r in self.rows if r.label_class == WAIT)
        return wait, buy


def format_price(price: float) -> str:
    """Canonical 3-decimal price rendering used in all file I/O."""
    return f"{price:.3f}"


def quote_to_csv_row(q: Quote) -> tuple[str, str, str, str]:
    return (
        q.route_id,
        q.departure_date.isoformat(),
        q.query_date.isoformat(),
        format_price(q.price),
    )


def quote_from_csv_row(route_id: str, departure: str, query: str, price: str) -> Quote:
    return validate_quote(
        Quote(
            route_id=route_id,
            departure_date=date.fromisoformat(departure),
            query_date=date.fromisoformat(query),
            price=float(price),
        )
    )
