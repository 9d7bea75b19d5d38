"""Seeded synthetic quote corpora with known ground truth.

Stands in for the original crawl, which is not distributed. The price process
is deliberately simple: a per-route base level, a late surge toward
departure, occasional one-day drop events, and bounded multiplicative noise.
It makes no claim to model real airline pricing; it exists so the pipeline can
be exercised against controllable ground truth. ``GeneratorConfig`` sets the
corpus size, the route numbering and the drop and noise ranges; the module
constants below fix the rest of the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from itertools import chain, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import FarecastError, PriceSeries, SeriesKey, format_price
from .ingest import CSV_HEADER, SplitConfig
from .util import derive_seed, write_csv

# The earliest quote of a corpus falls on the first day of the original crawl.
FIRST_QUERY_DATE = date(2015, 11, 9)
DEPARTURE_STEP_DAYS = 1
# Every price is clipped to [PRICE_FLOOR, PRICE_CAP] EUR.
PRICE_FLOOR = 1.0
PRICE_CAP = 400.0
ROUTE_PREFIX = "R"
# Ranges the per-route base level, surge and surge decay length are drawn
# from, and the range of a drop event's relative depth.
BASE_RANGE = (40.0, 260.0)
SURGE_RANGE = (0.4, 0.9)
TAU_RANGE = (6.0, 18.0)
DROP_DEPTH_RANGE = (0.25, 0.5)


class InvalidConfig(FarecastError):
    pass


@dataclass(frozen=True)
class RouteParams:
    """Price-process parameters for one route."""

    base: float          # EUR level far from departure
    surge: float         # relative price lift right before departure
    tau: float           # surge decay length in days
    drop_prob: float     # per-day probability of a one-day drop event
    noise: float         # multiplicative noise amplitude


@dataclass(frozen=True)
class GeneratorConfig:
    n_routes: int = 8
    departures_per_route: int = 50
    horizon_days: int = 90
    first_route_number: int = 1
    # Ranges the per-route drop probability and noise amplitude are drawn from.
    drop_prob_range: tuple[float, float] = (0.04, 0.09)
    noise_range: tuple[float, float] = (0.015, 0.04)
    # Relative jitter applied when a route mimics a template route (generalized corpora).
    template_jitter: float = 0.0
    template_of: tuple[int, ...] = field(default=())  # template index per route, empty = fresh params

    def __post_init__(self):
        if self.horizon_days < 8:
            raise InvalidConfig("horizon must be at least 8 days so the 7-day fallback is exercisable")
        if self.n_routes < 1 or self.departures_per_route < 1:
            raise InvalidConfig("need at least one route and one departure")
        if self.template_of and len(self.template_of) != self.n_routes:
            raise InvalidConfig("template_of must name one template per route")

    @property
    def first_departure(self) -> date:
        # Every series gets the full horizon of quotes, the last on departure
        # day itself, so the earliest series starts exactly at FIRST_QUERY_DATE.
        return FIRST_QUERY_DATE + timedelta(days=self.horizon_days - 1)

    def route_ids(self) -> list[str]:
        return [f"{ROUTE_PREFIX}{self.first_route_number + i}" for i in range(self.n_routes)]


def generalized_config(
    n_routes: int = 12,
    departures_per_route: int = 13,
    template_jitter: float = 0.05,
    **overrides,
) -> GeneratorConfig:
    """Config for a generalized corpus whose routes mimic the 8 specific templates."""
    return GeneratorConfig(
        n_routes=n_routes,
        departures_per_route=departures_per_route,
        first_route_number=9,
        template_jitter=template_jitter,
        template_of=tuple(i % 8 for i in range(n_routes)),
        **overrides,
    )


def _draw(rng: np.random.Generator, lo_hi: tuple[float, float]) -> float:
    return float(rng.uniform(*lo_hi))


def _fresh_params(cfg: GeneratorConfig, route_number: int, seed: int) -> RouteParams:
    rng = np.random.default_rng(derive_seed(seed, "route", route_number))
    return RouteParams(
        base=_draw(rng, BASE_RANGE),
        surge=_draw(rng, SURGE_RANGE),
        tau=_draw(rng, TAU_RANGE),
        drop_prob=_draw(rng, cfg.drop_prob_range),
        noise=_draw(rng, cfg.noise_range),
    )


def route_params(cfg: GeneratorConfig, route_index: int, seed: int) -> RouteParams:
    """Deterministic per-route process parameters.

    With ``template_of`` set, the route reuses its template's parameters
    (drawn as route R<1+template> of a default-range specific corpus with the
    same master seed) plus a small multiplicative jitter, so its pattern
    stays recognizably close to one of the specific routes. All seed streams
    are keyed by the global route number, so specific and generalized corpora
    generated from one master seed never share noise draws.
    """
    route_number = cfg.first_route_number + route_index
    if cfg.template_of:
        template = _fresh_params(GeneratorConfig(), 1 + cfg.template_of[route_index], seed)
        rng = np.random.default_rng(derive_seed(seed, "template-jitter", route_number))

        def jitter(v: float) -> float:
            return v * (1.0 + cfg.template_jitter * float(rng.uniform(-1.0, 1.0)))

        return RouteParams(
            base=jitter(template.base), surge=jitter(template.surge), tau=jitter(template.tau),
            drop_prob=jitter(template.drop_prob), noise=jitter(template.noise),
        )
    return _fresh_params(cfg, route_number, seed)


def trend_price(params: RouteParams, days_to_departure: int) -> float:
    """Deterministic trend component: base level plus the late surge."""
    return params.base * (1.0 + params.surge * math.exp(-days_to_departure / params.tau))


def generate_corpus(cfg: GeneratorConfig, seed: int) -> list[PriceSeries]:
    """Every series of a synthetic corpus, sorted by route, then departure."""
    series = []
    for i, route_id in enumerate(cfg.route_ids()):
        params = route_params(cfg, i, seed)
        route_number = cfg.first_route_number + i
        for j in range(cfg.departures_per_route):
            departure = cfg.first_departure + timedelta(days=j * DEPARTURE_STEP_DAYS)
            rng = np.random.default_rng(derive_seed(seed, "series", route_number, j))
            prices = []
            for dtd in range(cfg.horizon_days - 1, -1, -1):
                price = trend_price(params, dtd)
                if params.drop_prob > 0 and rng.random() < params.drop_prob:
                    price *= 1.0 - rng.uniform(*DROP_DEPTH_RANGE)
                if params.noise > 0:
                    price *= 1.0 + rng.uniform(-params.noise, params.noise)
                prices.append(round(min(max(price, PRICE_FLOOR), PRICE_CAP), 3))
            query_dates = np.arange(cfg.horizon_days) + np.datetime64(
                departure - timedelta(days=cfg.horizon_days - 1), "D")
            series.append(PriceSeries(SeriesKey(route_id, departure), query_dates, prices))
    return series


def default_split_for(cfg: GeneratorConfig) -> SplitConfig:
    """Departure-date split matching a generated corpus, about 60/40."""
    n_train = max(1, min(cfg.departures_per_route - 1,
                         math.ceil(cfg.departures_per_route * 0.6)))
    step = timedelta(days=DEPARTURE_STEP_DAYS)
    last = cfg.first_departure + (cfg.departures_per_route - 1) * step
    train_end = cfg.first_departure + (n_train - 1) * step
    return SplitConfig(
        train_start=cfg.first_departure,
        train_end=train_end,
        test_start=train_end + timedelta(days=1),
        test_end=last,
    )


def write_corpus_csv(series: Sequence[PriceSeries], path: str | Path) -> None:
    """Write every quote in the ingest CSV schema, series by series in query
    order. Byte-identical for a fixed input."""
    # A series' route and departure are looked up once, not once per quote.
    write_csv(path, CSV_HEADER, chain.from_iterable(
        zip(repeat(s.key.route_id), repeat(s.key.departure_date.isoformat()),
            np.datetime_as_string(s.query_dates).tolist(), map(format_price, s.prices.tolist()))
        for s in series))

