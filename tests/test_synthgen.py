"""Synthetic corpus generator and its independent evaluation oracle."""

import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from farecast.ingest import load_quotes, split
from farecast.metrics import optimal_price, random_purchase_price
from farecast.synthgen import (
    BASE_RANGE,
    FIRST_QUERY_DATE,
    PRICE_CAP,
    PRICE_FLOOR,
    SURGE_RANGE,
    TAU_RANGE,
    GeneratorConfig,
    InvalidConfig,
    default_split_for,
    generalized_config,
    generate_corpus,
    route_params,
    trend_price,
    write_corpus_csv,
)

from conftest import oracle_evaluate, quote_by_quote_corpus, series_of


def quotes_of(series):
    """Every quote as a (route, departure, query date, price) tuple."""
    return [(s.key.route_id, s.key.departure_date, query, price) for s in series
            for query, price in zip(s.query_dates.tolist(), s.prices.tolist())]


def small_cfg(**overrides):
    defaults = dict(n_routes=3, departures_per_route=4, horizon_days=10)
    defaults.update(overrides)
    return GeneratorConfig(**defaults)


# -- corpus shape -------------------------------------------------------------


def test_default_corpus_size(default_corpus):
    _, series = default_corpus
    total = sum(len(s) for s in series)
    assert total == 8 * 50 * 90
    assert abs(total - 36_575) / 36_575 < 0.05
    assert len(series) == 8 * 50
    assert len({s.key.route_id for s in series}) == 8


def test_every_series_spans_the_horizon(default_corpus):
    cfg, series = default_corpus
    for s in series[:20]:
        assert len(s) == cfg.horizon_days
        assert s.query_dates[-1].item() == s.key.departure_date
        assert (s.key.departure_date - s.first_query_date).days == cfg.horizon_days - 1


def test_first_series_starts_at_the_anchor(default_corpus):
    cfg, series = default_corpus
    assert FIRST_QUERY_DATE == date(2015, 11, 9)
    assert cfg.first_departure == date(2015, 11, 9) + timedelta(days=89)
    assert min(s.first_query_date for s in series) == FIRST_QUERY_DATE


def test_prices_respect_floor_and_cap(default_corpus):
    _, series = default_corpus
    prices = [p for s in series for p in s.prices]
    assert min(prices) >= PRICE_FLOOR
    assert max(prices) <= PRICE_CAP
    assert min(prices) > 0


def test_buy_labels_stay_under_one_fifth(default_corpus):
    _, series = default_corpus
    buys = sum(sum(1 for p in s.prices if p == min(s.prices)) for s in series)
    rows = sum(len(s) for s in series)
    assert buys / rows < 0.20


# -- determinism --------------------------------------------------------------


def test_same_seed_same_quotes():
    cfg = small_cfg()
    assert quotes_of(generate_corpus(cfg, seed=5)) == quotes_of(generate_corpus(cfg, seed=5))
    assert quotes_of(generate_corpus(cfg, seed=5)) != quotes_of(generate_corpus(cfg, seed=6))


def test_same_seed_byte_identical_csv(tmp_path):
    cfg = small_cfg()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_corpus_csv(generate_corpus(cfg, seed=5), p1)
    write_corpus_csv(generate_corpus(cfg, seed=5), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_round_trips_through_ingest(tmp_path):
    cfg = small_cfg()
    corpus = generate_corpus(cfg, seed=8)
    path = tmp_path / "corpus.csv"
    write_corpus_csv(corpus, path)
    series = load_quotes(path)
    assert sum(len(s) for s in series) == len(quotes_of(corpus))
    assert sorted(quotes_of(series)) == sorted(quotes_of(corpus))


# -- the price process --------------------------------------------------------


def test_noiseless_corpus_is_its_trend():
    cfg = small_cfg(noise_range=(0.0, 0.0), drop_prob_range=(0.0, 0.0))
    quotes = quotes_of(generate_corpus(cfg, seed=3))
    for i, route_id in enumerate(cfg.route_ids()):
        params = route_params(cfg, i, seed=3)
        assert params.noise == 0.0
        assert params.drop_prob == 0.0
        for departure, query, price in ((d, q, p) for r, d, q, p in quotes if r == route_id):
            dtd = (departure - query).days
            expected = min(max(trend_price(params, dtd), PRICE_FLOOR), PRICE_CAP)
            assert price == round(expected, 3)


def test_noiseless_optimum_is_the_first_day():
    # the surge decays with days-to-departure, so the trend is cheapest at
    # the longest horizon: the very first quote of every series
    cfg = small_cfg(noise_range=(0.0, 0.0), drop_prob_range=(0.0, 0.0))
    series = generate_corpus(cfg, seed=4)
    for s in series:
        assert s.prices[0] == min(s.prices)
        assert tuple(s.prices) == tuple(sorted(s.prices))  # monotone rise to departure


def test_trend_price_formula():
    from farecast.synthgen import RouteParams

    params = RouteParams(base=100.0, surge=0.5, tau=10.0, drop_prob=0.0, noise=0.0)
    assert abs(trend_price(params, 0) - 150.0) < 1e-12
    expected = 100.0 * (1.0 + 0.5 * math.exp(-1.0))
    assert abs(trend_price(params, 10) - expected) < 1e-12
    assert trend_price(params, 200) == pytest.approx(100.0, abs=1e-3)


def test_route_params_deterministic_and_distinct():
    cfg = GeneratorConfig()
    a = route_params(cfg, 0, seed=9)
    b = route_params(cfg, 0, seed=9)
    assert a == b
    others = [route_params(cfg, i, seed=9) for i in range(1, 8)]
    assert all(o != a for o in others)
    for p in [a] + others:
        assert BASE_RANGE[0] <= p.base <= BASE_RANGE[1]
        assert SURGE_RANGE[0] <= p.surge <= SURGE_RANGE[1]
        assert TAU_RANGE[0] <= p.tau <= TAU_RANGE[1]
        assert cfg.drop_prob_range[0] <= p.drop_prob <= cfg.drop_prob_range[1]
        assert cfg.noise_range[0] <= p.noise <= cfg.noise_range[1]


# -- generalized corpora ------------------------------------------------------


def test_generalized_config_defaults():
    cfg = generalized_config()
    assert cfg.n_routes == 12
    assert cfg.departures_per_route == 13
    assert cfg.route_ids() == [f"R{n}" for n in range(9, 21)]
    assert cfg.template_of == (0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3)
    assert cfg.template_jitter == 0.05


def test_template_routes_mimic_their_specific_template():
    gen_cfg = generalized_config()
    specific_cfg = GeneratorConfig()
    for route_index in (0, 5, 9):
        template_idx = gen_cfg.template_of[route_index]
        got = route_params(gen_cfg, route_index, seed=23)
        ref = route_params(specific_cfg, template_idx, seed=23)
        for name in ("base", "surge", "tau", "drop_prob", "noise"):
            g, r = getattr(got, name), getattr(ref, name)
            assert abs(g - r) <= gen_cfg.template_jitter * abs(r) + 1e-12


def test_generalized_routes_do_not_share_specific_noise():
    spec_quotes = generate_corpus(GeneratorConfig(departures_per_route=2, horizon_days=10), seed=23)
    gen_quotes = generate_corpus(
        generalized_config(departures_per_route=2, horizon_days=10, template_jitter=0.0),
        seed=23,
    )
    spec_r1 = [p for r, _, _, p in quotes_of(spec_quotes) if r == "R1"]
    gen_r9 = [p for r, _, _, p in quotes_of(gen_quotes) if r == "R9"]  # template 0 = R1
    assert spec_r1 != gen_r9  # same process parameters, different draws


def test_config_validation():
    with pytest.raises(InvalidConfig):
        GeneratorConfig(horizon_days=7)
    last_day = (date.max - FIRST_QUERY_DATE).days
    assert GeneratorConfig(horizon_days=8, departures_per_route=last_day - 6)
    with pytest.raises(InvalidConfig, match="past 9999-12-31"):
        GeneratorConfig(horizon_days=8, departures_per_route=last_day - 5)
    with pytest.raises(InvalidConfig, match="past 9999-12-31"):
        GeneratorConfig(horizon_days=last_day + 2, departures_per_route=1)
    with pytest.raises(InvalidConfig):
        GeneratorConfig(n_routes=0)
    with pytest.raises(InvalidConfig):
        GeneratorConfig(n_routes=3, template_of=(0, 1))


# -- splits -------------------------------------------------------------------


def test_default_split_is_sixty_forty():
    cfg = GeneratorConfig()
    split_cfg = default_split_for(cfg)
    assert split_cfg.train_start == cfg.first_departure
    assert split_cfg.train_end == cfg.first_departure + timedelta(days=29)
    assert split_cfg.test_start == cfg.first_departure + timedelta(days=30)
    assert split_cfg.test_end == cfg.first_departure + timedelta(days=49)


def test_default_split_partitions_small_corpus():
    cfg = small_cfg(departures_per_route=5)
    series = generate_corpus(cfg, seed=6)
    train, test = split(series, default_split_for(cfg))
    assert len(train) == 3 * 3  # ceil(5 * 0.6) = 3 departures per route
    assert len(test) == 3 * 2
    assert len(train) + len(test) == len(series)


def test_split_keeps_at_least_one_departure_each_side():
    cfg = small_cfg(departures_per_route=2)
    split_cfg = default_split_for(cfg)
    series = generate_corpus(cfg, seed=7)
    train, test = split(series, split_cfg)
    assert len(train) == 3 and len(test) == 3


# -- the oracle ---------------------------------------------------------------


def test_oracle_four_quote_example():
    s = series_of([50.0, 40.0, 40.0, 60.0])
    assert oracle_evaluate([s]) == {"R1": (47.5, 40.0)}


def test_oracle_constant_series():
    s = series_of([33.3, 33.3, 33.3])
    random_mean, optimal = oracle_evaluate([s])["R1"]
    assert random_mean == 33.3
    assert optimal == 33.3


def test_oracle_averages_within_route():
    a = series_of([10.0, 20.0], departure=date(2016, 1, 10))
    b = series_of([30.0, 50.0], departure=date(2016, 1, 20))
    random_mean, optimal = oracle_evaluate([a, b])["R1"]
    assert random_mean == ((15.0) + (40.0)) / 2
    assert optimal == (10.0 + 30.0) / 2


def test_oracle_matches_metrics_module_exactly():
    # independent implementations must agree decimal-for-decimal
    cfg = small_cfg(n_routes=4, departures_per_route=6, horizon_days=20)
    series = generate_corpus(cfg, seed=12)
    oracle = oracle_evaluate(series)
    per_route: dict[str, list] = {}
    for s in series:
        per_route.setdefault(s.key.route_id, []).append(s)
    assert set(oracle) == set(per_route)
    for route_id, members in per_route.items():
        randoms = math.fsum(random_purchase_price(s) for s in members) / len(members)
        optima = math.fsum(optimal_price(s) for s in members) / len(members)
        assert oracle[route_id][0] == randoms
        assert oracle[route_id][1] == optima


# -- the generator against its quote-by-quote oracle ---------------------------

# Drop and noise ranges; (0.0, 0.0) draws nothing for that step.
RANGES = st.one_of(st.just((0.0, 0.0)),
                   st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted).map(tuple))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(8, 120), n_routes=st.integers(1, 9),
       departures=st.integers(1, 3), drop=RANGES, noise=RANGES, generalized=st.booleans(),
       jitter=st.floats(0.0, 0.2))
@example(seed=0, horizon=8, n_routes=1, departures=1, drop=(0.0, 0.0), noise=(0.0, 0.0),
         generalized=False, jitter=0.0)
@example(seed=1, horizon=30, n_routes=2, departures=2, drop=(1.0, 1.0), noise=(0.0, 0.0),
         generalized=False, jitter=0.0)
@example(seed=2, horizon=30, n_routes=2, departures=2, drop=(0.5, 0.9), noise=(0.0, 0.0),
         generalized=False, jitter=0.0)
def test_generate_corpus_equals_the_quote_by_quote_oracle(
        seed, horizon, n_routes, departures, drop, noise, generalized, jitter):
    sizes = dict(n_routes=n_routes, departures_per_route=departures, horizon_days=horizon,
                 drop_prob_range=drop, noise_range=noise)
    cfg = (generalized_config(template_jitter=jitter, **sizes) if generalized
           else GeneratorConfig(**sizes))
    got, want = generate_corpus(cfg, seed), quote_by_quote_corpus(cfg, seed)
    assert [s.key for s in got] == [s.key for s in want]
    for g, w in zip(got, want):
        assert g.query_dates.tobytes() == w.query_dates.tobytes()
        assert g.prices.tobytes() == w.prices.tobytes()
