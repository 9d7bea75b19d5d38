"""Quote CSV ingestion and departure-date train/test splitting."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import (FarecastError, NonPositivePrice, PriceSeries, QueryAfterDeparture,
                   SeriesKey)
from .util import natural_key, read_json

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
        return read_json(path, "split config", cls.from_dict)


def load_quotes(path: str | Path) -> list[PriceSeries]:
    """Parse a quote CSV into one PriceSeries per (route, departure date).

    The file must be UTF-8 with the header
    ``route_id,departure_date,query_date,price``, ISO dates, and a decimal
    price; rows may come in any order and blank lines are skipped. Series
    come sorted by route in natural order (``util.natural_key``), then
    departure date, so the result does not depend on the order of the rows.

    The earliest bad record raises, and a ParseError names its first
    physical line. Within a record the checks run in this order: the field
    count, parsing, a finite positive price, a query not after departure. A
    repeated (route, departure, query) triple raises DuplicateQuote at its
    later record. Bytes that are not UTF-8, or a field longer than the csv
    module's limit, raise FarecastError.
    """
    try:
        routes, departures, queries, price_texts, lines, bad_shape = _read_columns(path)
    except (UnicodeDecodeError, csv.Error) as exc:
        # Decoding runs a buffer ahead of the records, so no line is named.
        raise FarecastError(f"{path} is not a readable UTF-8 CSV: {exc}") from exc

    # Each distinct date string is parsed once; NaT marks one that fails.
    distinct = {text: i for i, text in enumerate(dict.fromkeys(departures + queries))}
    dates, date_errors = _parse_each(distinct, date.fromisoformat)
    day = np.array(dates, dtype="datetime64[D]")
    dep_code = np.fromiter(map(distinct.__getitem__, departures), np.intp, len(lines))
    query_code = np.fromiter(map(distinct.__getitem__, queries), np.intp, len(lines))
    departure, query = day[dep_code], day[query_code]
    values, price_errors = _parse_each(price_texts, float)
    price = np.array(values, dtype=float)

    # Every rule over every row at once; a value that failed to parse fails too.
    priced = (price > 0) & np.isfinite(price)
    bad = np.isnat(departure) | np.isnat(query) | ~priced | (query > departure)
    n_ok = int(np.argmax(bad)) if bad.any() else len(lines)

    # The rows before the first bad one, sorted by series, one integer (route
    # rank in natural order x date codes + departure day code), then query
    # date. The sort is stable, so a repeated triple follows its first copy.
    rank = {name: i for i, name in enumerate(sorted(set(routes[:n_ok]), key=natural_key))}
    route_rank = np.fromiter(map(rank.__getitem__, routes[:n_ok]), np.intp, n_ok)
    same_day = np.unique(day, return_inverse=True)[1]  # one code per date, however written
    series_key = route_rank * len(day) + same_day[dep_code[:n_ok]]
    order = np.lexsort((query[:n_ok], series_key))
    key_of, query_of = series_key[order], query[order]
    repeats = order[1:][(key_of[1:] == key_of[:-1]) & (query_of[1:] == query_of[:-1])]
    if len(repeats):
        i = int(repeats.min())
        raise DuplicateQuote(SeriesKey(routes[i], dates[dep_code[i]]), dates[query_code[i]])
    if n_ok < len(lines):
        i = n_ok
        cause = (date_errors.get(dep_code[i]) or date_errors.get(query_code[i])
                 or price_errors.get(i))
        if cause is None and not priced[i]:
            cause = NonPositivePrice(
                f"price must be finite and > 0, got {values[i]!r} for {routes[i]}")
        elif cause is None:
            cause = QueryAfterDeparture(f"query {dates[query_code[i]]} is after departure "
                                        f"{dates[dep_code[i]]} for {routes[i]}")
        raise ParseError(lines[i], str(cause)) from cause
    if bad_shape is not None:
        raise bad_shape

    prices = price[order]
    starts = np.flatnonzero(np.diff(key_of, prepend=-1)).tolist()
    series = [PriceSeries(SeriesKey(routes[i], dates[dep_code[i]]), query_of[a:b], prices[a:b])
              for i, a, b in zip(order[starts].tolist(), starts, starts[1:] + [n_ok])]
    logger.info("loaded %d quotes in %d series from %s", n_ok, len(series), path)
    return series


def _read_columns(path) -> tuple[list[str], list[str], list[str], list[str], list[int],
                                 Optional[ParseError]]:
    """The four fields of each 4-field record, as columns, up to the first
    record of another length; each record's first physical line; and the
    error for that other record. Repeated route ids and dates share one
    string, so a column holds little more than its prices."""
    routes, departures, queries, prices, lines = [], [], [], [], []
    seen: dict[str, str] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "empty file (header required)")
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise ParseError(1, f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}")
        line_no = reader.line_num + 1
        for row in reader:
            if len(row) == 4:
                route, departure, query, price = row
                routes.append(seen.setdefault(route, route))
                departures.append(seen.setdefault(departure, departure))
                queries.append(seen.setdefault(query, query))
                prices.append(price)
                lines.append(line_no)
            elif row:
                shape = ParseError(line_no, f"expected 4 fields, got {len(row)}")
                return routes, departures, queries, prices, lines, shape
            line_no = reader.line_num + 1
    return routes, departures, queries, prices, lines, None


def _parse_each(texts, parse) -> tuple[list, dict[int, ValueError]]:
    """``parse`` of each text (None where it fails) and the errors by position."""
    try:
        return list(map(parse, texts)), {}
    except ValueError:
        pass
    values, errors = [], {}
    for i, text in enumerate(texts):
        try:
            values.append(parse(text))
        except ValueError as exc:
            values.append(None)
            errors[i] = exc
    return values, errors


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
