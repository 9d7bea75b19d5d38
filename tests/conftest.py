"""Shared builders and reference computations for the test suite.

Most tests need a PriceSeries with hand-picked prices; ``series_of`` builds
one with consecutive daily quotes ending a configurable number of days
before departure. ``dataset_of`` builds a Dataset from hand-written rows,
and ``copying_take`` copies some of a Dataset's rows. It also holds the
small computations only tests need (oracle prices, the row-by-row forward pass and a single sequence's log-likelihood, the
template-by-template scoring pass, the level-by-level tree walk, a saved core
read back and checked against its input width, one-template
HMM fits and draws, class and coefficient read-outs, the row-major k-means
and EM fits, the quote-by-quote corpus generator), which the package does
not carry. An autouse fixture fails any test that leaves a child process
running.

Hypothesis runs derandomized: every ``@given`` test draws the same examples
on every run, with no example database, so a run fails or passes as the last
one did. ``HYPOTHESIS_PROFILE=random`` draws new examples instead.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from datetime import date, timedelta
from typing import Sequence

import numpy as np
import pytest
from hypothesis import settings

from farecast.core import BUY, WAIT, Dataset, EmptySeries, PriceSeries, SeriesKey
from farecast.features import CONTINUOUS_NAMES, set_route_dummies
from farecast.hmm import (BaumWelchResult, HmmModel, _em, _em_start, _fit_routes, _forward,
                          _scaled_emission)
from farecast.preprocess import COV_REG, GmmFit, KMeansFit
from farecast.synthgen import (DEPARTURE_STEP_DAYS, DROP_DEPTH_RANGE, PRICE_CAP, PRICE_FLOOR,
                               GeneratorConfig, route_params, trend_price)
from farecast.util import derive_seed, from_jsonable

settings.register_profile("derandomized", derandomize=True, database=None)
settings.register_profile("random", derandomize=False, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))


def series_of(
    prices,
    route_id: str = "R1",
    departure: date = date(2016, 1, 13),
    last_days_to_departure: int = 0,
) -> PriceSeries:
    """One quote per consecutive day, the last one `last_days_to_departure`
    days before departure."""
    last = np.datetime64(departure, "D") - last_days_to_departure
    return PriceSeries(SeriesKey(route_id, departure),
                       last - np.arange(len(prices))[::-1], np.asarray(prices, dtype=float))


def dataset_of(rows, width: int = 8, role: str = "train") -> Dataset:
    """A Dataset from ``(key, route_index, continuous, label_class, label_reg)``
    tuples, the continuous values in CONTINUOUS_NAMES order and a None label
    stored as 0. Series indices number the keys in order of first appearance."""
    keys = tuple(dict.fromkeys(r[0] for r in rows))
    index = {k: i for i, k in enumerate(keys)}
    X = np.zeros((len(rows), width + len(CONTINUOUS_NAMES)))
    X[:, width:] = np.reshape([r[2] for r in rows], (len(rows), len(CONTINUOUS_NAMES)))
    set_route_dummies(X, np.array([r[1] for r in rows], dtype=int))
    return Dataset(
        X=X,
        label_class=np.array([r[3] or 0 for r in rows], dtype=int),
        label_reg=np.array([r[4] or 0.0 for r in rows], dtype=float),
        series=np.array([index[r[0]] for r in rows], dtype=int),
        keys=keys,
        role=role,
    )


def copying_take(ds: Dataset, rows) -> Dataset:
    """The rows of ``ds`` selected by an index array or a boolean mask, in that
    order, copied into arrays of their own: the oracle of a set that holds
    its rows by index, as ``Dataset.take`` built every set before."""
    return Dataset(X=ds.X[rows], label_class=ds.label_class[rows],
                   label_reg=ds.label_reg[rows], series=ds.series[rows],
                   keys=ds.keys, role=ds.role)


def class_counts(ds: Dataset) -> tuple[int, int]:
    """(wait, buy) row counts."""
    return int((ds.label_class == WAIT).sum()), int((ds.label_class == BUY).sum())


def coef_original(model) -> tuple[float, np.ndarray]:
    """A fitted LeastSquares' (intercept, slopes) in the unstandardized input units."""
    slopes = model.coef[1:] / model.scale
    intercept = float(model.coef[0] - (model.coef[1:] * model.mean / model.scale).sum())
    return intercept, slopes


def _forward_rows(model: HmmModel, obs: np.ndarray, lengths) -> np.ndarray:
    """Scaled forward log-likelihood (Rabiner 1989) of every row of ``obs`` (N, T).

    Row i is the sequence ``obs[i, :lengths[i]]``; ``lengths`` ascend, so the
    rows still running at step t are the suffix from
    ``searchsorted(lengths, t, side="right")``, and later columns of a row
    are never read. An unreachable observation (total 0) leaves -inf and a
    zero alpha, so no nan reaches a later step or an argmax. The scoring
    oracle of ``hmm.classify``, which runs every row to the last step.
    """
    shift, b = _scaled_emission(model.means, model.variances, obs)
    loglik = np.zeros(len(obs))
    alpha = np.tile(model.initial, (len(obs), 1))
    live = np.searchsorted(lengths, np.arange(obs.shape[1]), side="right")
    with np.errstate(divide="ignore"):
        for t, lo in enumerate(live.tolist()):
            weighted = alpha[lo:] * b[lo:, t]
            total = weighted.sum(axis=1)
            loglik[lo:] += np.log(total) + shift[lo:, t]
            total[total == 0.0] = 1.0
            alpha[lo:] = (weighted / total[:, None]) @ model.transition
    return loglik


def forward_loglik(model, observations) -> float:
    """Log-likelihood of one non-empty sequence under an HMM template."""
    obs = np.asarray(observations, dtype=float)
    return float(_forward_rows(model, obs[None], [len(obs)])[0])


def per_template_logliks(bank: Sequence[HmmModel], obs: np.ndarray, lengths) -> np.ndarray:
    """``hmm._row_logliks`` with one forward pass per template: the exact
    oracle of the pass that scores every template of a state count at once."""
    lengths = np.asarray(lengths, dtype=np.intp)
    rows = np.arange(len(lengths))
    logliks = np.empty((len(bank), len(lengths)))
    with np.errstate(divide="ignore"):
        for model, out in zip(bank, logliks):
            *_, c, shift = _forward([model], obs[None])
            out[:] = np.cumsum(np.log(c) + shift, axis=0)[lengths - 1, 0, rows]
    return logliks


def read_core(cls, raw: dict, n_inputs: int):
    """The model core ``cls`` read from its saved dict, as a model document
    reads it: built by ``from_jsonable``, then checked against ``n_inputs``."""
    core = from_jsonable(cls, raw)
    core.check_inputs(n_inputs)
    return core


def level_walk_scores(tree, X: np.ndarray) -> np.ndarray:
    """``Cart.predict_scores`` with every row moved down one level per step,
    all rows at once: the exact oracle of the descent by row partition."""
    X = np.asarray(X, dtype=float)
    feature = np.asarray(tree.feature)
    threshold = np.asarray(tree.threshold)
    left = np.asarray(tree.left)
    right = np.asarray(tree.right)
    value = np.asarray(tree.value)

    node = np.zeros(len(X), dtype=int)
    active = feature[node] >= 0
    while active.any():
        rows = np.flatnonzero(active)
        cur = node[rows]
        go_left = X[rows, feature[cur]] <= threshold[cur]
        node[rows] = np.where(go_left, left[cur], right[cur])
        active = feature[node] >= 0
    return value[node]


def sample(model: HmmModel, length: int, seed: int) -> np.ndarray:
    """Draw one observation sequence from the model."""
    rng = np.random.default_rng(seed)
    obs = np.empty(length)
    state = rng.choice(model.n_states, p=model.initial)
    for t in range(length):
        obs[t] = rng.normal(model.means[state], np.sqrt(model.variances[state]))
        if t + 1 < length:
            state = rng.choice(model.n_states, p=model.transition[state])
    return obs


def baum_welch(sequences, n_states: int, max_iter: int = 100, tol: float = 1e-6,
               seed: int = 0, route_index: int = -1, norm_mean: float = 1.0) -> BaumWelchResult:
    """EM over multiple observation sequences: the bank's EM loop with the one
    template that ``_em_start`` initializes from them."""
    start = _em_start(sequences, n_states, seed, route_index, norm_mean)
    return _em([start], max_iter, tol)[0]


def hmm_fit(route_series: Sequence[PriceSeries], n_states: int = 4, max_iter: int = 100,
            tol: float = 1e-6, seed: int = 0, route_index: int = -1) -> HmmModel:
    """One route's template, fit from its training series as ``fit_bank`` fits it."""
    if not route_series:
        raise EmptySeries("hmm_fit needs at least one series")
    return _fit_routes([(route_series, seed, route_index)], n_states, max_iter, tol)[0]


def quote_by_quote_corpus(cfg: GeneratorConfig, seed: int) -> list[PriceSeries]:
    """``synthgen.generate_corpus`` one scalar draw at a time: per day a drop
    check, a drop depth when it fires, then a noise term. The bit-exact
    oracle of the generator, which replays these draws from one block."""
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


def oracle_evaluate(corpus: Sequence[PriceSeries]) -> dict[str, tuple[float, float]]:
    """Per-route (random purchase price, optimal price) from each series' raw prices.

    Intentionally independent of the metrics module: benchmark values are
    re-derived from raw quotes alone so the two code paths can be compared.
    """
    per_route: dict[str, list[tuple[float, float]]] = {}
    for s in corpus:
        prices = s.prices.tolist()
        per_route.setdefault(s.key.route_id, []).append(
            (math.fsum(prices) / len(prices), min(prices)))

    out = {}
    for route_id, values in sorted(per_route.items()):
        randoms = math.fsum(v[0] for v in values) / len(values)
        optima = math.fsum(v[1] for v in values) / len(values)
        out[route_id] = (randoms, optima)
    return out


def row_major_kmeans2(X, init, max_iter=100, tol=1e-8) -> KMeansFit:
    """``preprocess.kmeans2`` as it was written over the rows of X: the oracle
    the column-layout fit must match bit for bit."""
    centers = init.centers.astype(float).copy()
    history: list[float] = []
    prev = None
    converged = False
    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(len(X)), assign].sum()))
        if prev is not None and np.array_equal(assign, prev):
            converged = True
            break
        shift = 0.0
        for k in (0, 1):
            mask = assign == k
            if mask.any():
                new_center = X[mask].mean(axis=0)
                shift = max(shift, float(np.abs(new_center - centers[k]).max()))
                centers[k] = new_center
        prev = assign
        if shift < tol:
            converged = True
            break
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return KMeansFit(centers=centers, assignments=np.argmin(d2, axis=1),
                     objective_history=history, converged=converged)


def _row_major_log_gaussian(X, mean, cov):
    d = X.shape[1]
    L = np.linalg.cholesky(cov)
    z = (X - mean) @ np.linalg.inv(L).T
    maha = (z * z).sum(axis=1)
    logdet = 2.0 * np.log(np.diag(L)).sum()
    return -0.5 * (d * math.log(2.0 * math.pi) + logdet + maha)


def row_major_gmm_em2(X, init, y, max_iter=100, tol=1e-8) -> GmmFit:
    """``preprocess.gmm_em2`` as it was written over the rows of X: the oracle
    the column-layout fit must match bit for bit."""
    n, d = X.shape
    means = init.centers.astype(float).copy()
    weights = init.counts / init.counts.sum()
    covs = np.stack([np.cov(X[y == k].T, bias=True).reshape(d, d) + COV_REG * np.eye(d)
                     for k in (0, 1)])
    history: list[float] = []
    converged = False
    resp = np.full((n, 2), 0.5)
    for _ in range(max_iter):
        log_joint = np.stack(
            [np.log(weights[k]) + _row_major_log_gaussian(X, means[k], covs[k])
             for k in (0, 1)], axis=1)
        shift = log_joint.max(axis=1, keepdims=True)
        log_norm = shift[:, 0] + np.log(np.exp(log_joint - shift).sum(axis=1))
        ll = float(log_norm.sum())
        resp = np.exp(log_joint - log_norm[:, None])
        if history and abs(ll - history[-1]) <= tol * abs(ll):
            history.append(ll)
            converged = True
            break
        history.append(ll)
        nk = resp.sum(axis=0).clip(min=1e-12)
        weights = nk / n
        means = (resp.T @ X) / nk[:, None]
        for k in (0, 1):
            diff = X - means[k]
            covs[k] = (diff * resp[:, k, None]).T @ diff / nk[k] + COV_REG * np.eye(d)
    return GmmFit(means=means, covariances=covs, weights=weights,
                  responsibilities=resp, loglik_history=history, converged=converged)


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a live child process, such as a forked fold worker."""
    yield
    alive = multiprocessing.active_children()
    assert not alive, f"child processes still running: {alive}"


@pytest.fixture(scope="session")
def default_corpus():
    """The default 8-route synthetic corpus, shared by the slower tests."""
    from farecast import synthgen

    cfg = synthgen.GeneratorConfig()
    return cfg, synthgen.generate_corpus(cfg, seed=11)


# ---------------------------------------------------------------------------
# Acceptance reporting: one explicit pass/fail line per criterion.

_CRITERIA: dict[str, str] = {}


def register_criterion(nodeid_part: str, label: str) -> None:
    _CRITERIA[nodeid_part] = label


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    lines = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            for part, label in _CRITERIA.items():
                if part in rep.nodeid:
                    verdict = "PASS" if status == "passed" else "FAIL"
                    lines.append((part, f"{verdict}  {label}"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
