"""Feature extraction from price series, labels, and the design-matrix layout.

Each quote yields six quantities: the flight-number dummies, the minimum and
maximum price so far, query-to-departure, days-to-departure, and the current
price. (The source text announces five features and then lists these six; all
six are kept.) Two label definitions: the classification label marks every
row whose price equals the whole-series minimum, and the regression label is
that minimum itself.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import (
    BUY,
    WAIT,
    EmptySeries,
    FarecastError,
    FeatureRow,
    PriceSeries,
    format_price,
)

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


def corpus_anchor(series: Sequence[PriceSeries]) -> date:
    """Corpus-wide first query date, the fixed origin for query_to_departure."""
    if not series:
        raise EmptySeries("cannot anchor an empty corpus")
    return min(s.first_query_date for s in series)


def extract_rows(
    s: PriceSeries,
    dummies: Optional[tuple[int, ...]] = None,
    anchor: Optional[date] = None,
) -> list[FeatureRow]:
    """One unlabeled FeatureRow per quote.

    ``dummies`` is the route's one-hot for specific routes; pass None for
    generalized routes (a pattern is assigned later). ``anchor`` is the
    corpus-wide first query date; it defaults to the series' own first query
    date, which only coincides with the corpus anchor for single-series use.
    """
    if len(s) == 0:
        raise EmptySeries(f"series {s.key} is empty")
    if anchor is None:
        anchor = s.first_query_date
    query_to_departure = (s.key.departure_date - anchor).days

    rows = []
    running_min = float("inf")
    running_max = float("-inf")
    for q in s.quotes:
        running_min = min(running_min, q.price)
        running_max = max(running_max, q.price)
        rows.append(
            FeatureRow(
                key=s.key,
                query_date=q.query_date,
                min_price_so_far=running_min,
                max_price_so_far=running_max,
                query_to_departure=query_to_departure,
                days_to_departure=(s.key.departure_date - q.query_date).days,
                current_price=q.price,
                flight_dummies=dummies,
            )
        )
    return rows


def label_rows(rows: Sequence[FeatureRow], s: PriceSeries) -> list[FeatureRow]:
    """Attach both labels: every row at the whole-series minimum is a buy."""
    if len(rows) != len(s):
        raise FeatureMismatch(f"{len(rows)} rows for a series of {len(s)} quotes")
    series_min = min(s.prices)
    labeled = []
    for row, q in zip(rows, s.quotes):
        if row.query_date != q.query_date:
            raise FeatureMismatch("rows are not aligned with the series")
        labeled.append(
            replace(
                row,
                label_class=BUY if q.price == series_min else WAIT,
                label_reg=series_min,
            )
        )
    return labeled


def to_matrix(rows: Sequence[FeatureRow]) -> np.ndarray:
    """Design matrix (n, width + 5): the rows' one-hot dummies, then the continuous block."""
    width = len(rows[0].flight_dummies or ()) if rows else 0
    out = np.empty((len(rows), width + len(CONTINUOUS_NAMES)))
    for i, r in enumerate(rows):
        if r.flight_dummies is None:
            raise FeatureMismatch(f"row {r.key}/{r.query_date} has no flight dummies")
        out[i, :width] = r.flight_dummies
        out[i, width:] = (
            r.min_price_so_far,
            r.max_price_so_far,
            r.query_to_departure,
            r.days_to_departure,
            r.current_price,
        )
    return out


def labels_class(rows: Sequence[FeatureRow]) -> np.ndarray:
    y = [r.label_class for r in rows]
    if any(v is None for v in y):
        raise FeatureMismatch("unlabeled rows")
    return np.asarray(y, dtype=int)


def labels_reg(rows: Sequence[FeatureRow]) -> np.ndarray:
    y = [r.label_reg for r in rows]
    if any(v is None for v in y):
        raise FeatureMismatch("unlabeled rows")
    return np.asarray(y, dtype=float)


@dataclass
class Standardizer:
    """Zero-mean/unit-variance scaling of the continuous block, fit on training data.

    Dummy columns pass through untouched. Continuous columns with zero
    training variance carry no information at this scale and are dropped
    (with a warning), which also keeps downstream solvers well posed.
    """

    mean: np.ndarray
    scale: np.ndarray
    keep: np.ndarray  # boolean mask over the full column set

    @classmethod
    def fit(cls, X: np.ndarray) -> "Standardizer":
        mean = X[:, CONTINUOUS].mean(axis=0)
        std = X[:, CONTINUOUS].std(axis=0)
        keep = np.ones(X.shape[1], dtype=bool)
        degenerate = std == 0.0
        if degenerate.any():
            dropped = [CONTINUOUS_NAMES[i] for i in np.flatnonzero(degenerate)]
            logger.warning("dropping zero-variance feature(s): %s", ", ".join(dropped))
            keep[CONTINUOUS] = ~degenerate
        return cls(mean=mean, scale=np.where(degenerate, 1.0, std), keep=keep)

    def transform(self, X: np.ndarray) -> np.ndarray:
        out = X.astype(float).copy()
        out[:, CONTINUOUS] = (out[:, CONTINUOUS] - self.mean) / self.scale
        return out[:, self.keep]

    def to_dict(self) -> dict:
        return {
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
            "keep": self.keep.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Standardizer":
        return cls(
            mean=np.asarray(raw["mean"], dtype=float),
            scale=np.asarray(raw["scale"], dtype=float),
            keep=np.asarray(raw["keep"], dtype=bool),
        )


def dump_features(rows: Sequence[FeatureRow], path: str | Path) -> None:
    """Write rows as CSV in FeatureRow field order, for inspection."""
    width = next((len(r.flight_dummies) for r in rows if r.flight_dummies is not None), 0)
    header = (
        ["route_id", "departure_date", "query_date", "min_price_so_far",
         "max_price_so_far", "query_to_departure", "days_to_departure",
         "current_price"]
        + [f"f{i}" for i in range(width)]
        + ["label_class", "label_reg"]
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in rows:
            dummies = r.flight_dummies if r.flight_dummies is not None else [""] * width
            writer.writerow(
                [r.key.route_id, r.key.departure_date.isoformat(),
                 r.query_date.isoformat(), format_price(r.min_price_so_far),
                 format_price(r.max_price_so_far), r.query_to_departure,
                 r.days_to_departure, format_price(r.current_price)]
                + list(dummies)
                + [r.label_class if r.label_class is not None else "",
                   format_price(r.label_reg) if r.label_reg is not None else ""]
            )
