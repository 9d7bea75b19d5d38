"""Quote CSV ingestion and departure-date train/test splitting."""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Sequence

from .core import FarecastError, PriceSeries, SeriesKey, make_series, quote_from_csv_row
from .util import natural_key

logger = logging.getLogger(__name__)

CSV_HEADER = ("route_id", "departure_date", "query_date", "price")


class ParseError(FarecastError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateQuote(FarecastError):
    def __init__(self, key: SeriesKey, query_date: date):
        super().__init__(f"duplicate quote for {key.route_id}/{key.departure_date} on {query_date}")
        self.key = key
        self.query_date = query_date


@dataclass(frozen=True)
class SplitConfig:
    """Departure-date windows for the train and test datasets."""

    train_start: date
    train_end: date
    test_start: date
    test_end: date

    def __post_init__(self):
        if self.train_start > self.train_end or self.test_start > self.test_end:
            raise FarecastError("split windows must be non-empty")
        if not self.train_end < self.test_start:
            raise FarecastError("training window must end before the test window starts")

    @classmethod
    def default(cls) -> "SplitConfig":
        # Departure-date windows of the original 103-day crawl.
        return cls(
            train_start=date(2015, 11, 9),
            train_end=date(2016, 1, 15),
            test_start=date(2016, 1, 16),
            test_end=date(2016, 2, 20),
        )

    @classmethod
    def from_dict(cls, raw: dict) -> "SplitConfig":
        """The four ISO dates of ``raw``; a missing key or bad date is a FarecastError."""
        try:
            return cls(**{k: date.fromisoformat(raw[k]) for k in
                          ("train_start", "train_end", "test_start", "test_end")})
        except (KeyError, TypeError, ValueError) as exc:
            raise FarecastError(f"split config needs four ISO dates: {exc!r}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "SplitConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "train_start": self.train_start.isoformat(),
            "train_end": self.train_end.isoformat(),
            "test_start": self.test_start.isoformat(),
            "test_end": self.test_end.isoformat(),
        }


def load_quotes(path: str | Path) -> list[PriceSeries]:
    """Parse a quote CSV into one PriceSeries per (route, departure date).

    The file must be UTF-8 with the header
    ``route_id,departure_date,query_date,price``, ISO dates, and a decimal
    price. Duplicate (route, departure, query) triples are an error.
    """
    grouped: dict[SeriesKey, dict] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty file (header required)")
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise ParseError(1, f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(line_no, f"expected 4 fields, got {len(row)}")
            try:
                quote = quote_from_csv_row(*row)
            except (ValueError, FarecastError) as exc:
                raise ParseError(line_no, str(exc)) from exc
            key = SeriesKey(quote.route_id, quote.departure_date)
            by_day = grouped.setdefault(key, {})
            if quote.query_date in by_day:
                raise DuplicateQuote(key, quote.query_date)
            by_day[quote.query_date] = quote

    series = [make_series(key, by_day.values())
              for key, by_day in sorted(grouped.items(), key=_key_order)]
    logger.info("loaded %d quotes in %d series from %s",
                sum(len(s) for s in series), len(series), path)
    return series


def _key_order(item):
    key = item[0]
    return (natural_key(key.route_id), key.departure_date)


def split(series: Sequence[PriceSeries], cfg: SplitConfig) -> tuple[list[PriceSeries], list[PriceSeries]]:
    """Partition series into (train, test) by departure date; out-of-window series are dropped."""
    train, test, dropped = [], [], 0
    for s in series:
        dep = s.key.departure_date
        if cfg.train_start <= dep <= cfg.train_end:
            train.append(s)
        elif cfg.test_start <= dep <= cfg.test_end:
            test.append(s)
        else:
            dropped += 1
    if dropped:
        logger.warning("dropped %d series outside both split windows", dropped)
    return train, test
