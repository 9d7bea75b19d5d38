"""Gaussian-emission HMM templates: scoring, training, classification."""

import itertools
import json
import logging
import math
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farecast import hmm
from farecast.core import EmptySeries, FarecastError
from farecast.features import feature_dataset
from farecast.hmm import (
    VAR_FLOOR,
    HmmModel,
    classify,
    fit_bank,
    generalized_predict,
    load_model,
    save_model,
)
from farecast.hmm import (
    _backward,
    _forward,
    _kmeans_1d,
    _prefix_observations,
    _row_logliks,
    _series_observations,
)
from farecast.learners import predict
from farecast.policy import decide_classification
from farecast.util import derive_seed, to_jsonable

from conftest import _forward_rows, baum_welch, forward_loglik, hmm_fit, sample, series_of


def unit_model(mean=0.0, var=1.0):
    return HmmModel(
        route_index=0,
        n_states=1,
        initial=np.array([1.0]),
        transition=np.array([[1.0]]),
        means=np.array([mean]),
        variances=np.array([var]),
    )


def random_model(seed, k=3):
    rng = np.random.default_rng(seed)
    initial = rng.random(k) + 0.1
    initial /= initial.sum()
    transition = rng.random((k, k)) + 0.1
    transition /= transition.sum(axis=1, keepdims=True)
    return HmmModel(
        route_index=0,
        n_states=k,
        initial=initial,
        transition=transition,
        means=rng.uniform(-2, 2, k),
        variances=rng.uniform(0.1, 2.0, k),
    )


def brute_force_loglik(model, obs):
    """Sum over every hidden path; tractable only for tiny models."""
    terms = []
    for path in itertools.product(range(model.n_states), repeat=len(obs)):
        p = model.initial[path[0]]
        for a, b in zip(path, path[1:]):
            p *= model.transition[a, b]
        for o, st in zip(obs, path):
            var = model.variances[st]
            p *= math.exp(-0.5 * (o - model.means[st]) ** 2 / var) / math.sqrt(
                2 * math.pi * var
            )
        terms.append(p)
    return math.log(math.fsum(terms))


def oracle_log_emission(model, obs):
    """(T, K) log N(o_t; mu_k, var_k)."""
    var = model.variances
    diff = obs[:, None] - model.means[None, :]
    return -0.5 * (np.log(2.0 * np.pi * var)[None, :] + diff * diff / var[None, :])


def scalar_forward_loglik(model, observations):
    """The per-sequence scaled forward pass, one observation at a time."""
    obs = np.asarray(observations, dtype=float)
    logb = oracle_log_emission(model, obs)
    loglik = 0.0
    alpha = model.initial
    for t in range(len(obs)):
        shift = logb[t].max()
        weighted = alpha * np.exp(logb[t] - shift)
        total = weighted.sum()
        if total == 0.0:  # unreachable observation under this model
            return float("-inf")
        loglik += math.log(total) + shift
        alpha = (weighted / total) @ model.transition
    return float(loglik)


def reference_e_step(model, stacks):
    """Per-sequence, per-t Baum-Welch E-step over the rows of every stack."""
    k = model.n_states
    total_ll = 0.0
    init_acc = np.zeros(k)
    trans_acc = np.zeros((k, k))
    gamma_acc = np.zeros(k)
    mean_acc = np.zeros(k)
    sq_acc = np.zeros(k)
    for obs in (row for stack in stacks for row in stack):
        T = len(obs)
        logb = oracle_log_emission(model, obs)
        shift = logb.max(axis=1)
        b = np.exp(logb - shift[:, None])

        alpha = np.empty((T, k))
        c = np.empty(T)
        a = model.initial * b[0]
        c[0] = a.sum()
        alpha[0] = a / c[0]
        for t in range(1, T):
            a = (alpha[t - 1] @ model.transition) * b[t]
            c[t] = a.sum()
            alpha[t] = a / c[t]
        total_ll += float(np.log(c).sum() + shift.sum())

        beta = np.empty((T, k))
        beta[T - 1] = 1.0
        for t in range(T - 2, -1, -1):
            beta[t] = (model.transition @ (b[t + 1] * beta[t + 1])) / c[t + 1]

        gamma = alpha * beta
        gamma /= gamma.sum(axis=1, keepdims=True)
        init_acc += gamma[0]
        gamma_acc += gamma.sum(axis=0)
        mean_acc += gamma.T @ obs
        sq_acc += gamma.T @ (obs * obs)
        for t in range(T - 1):
            xi = (alpha[t][:, None] * model.transition
                  * (b[t + 1] * beta[t + 1])[None, :]) / c[t + 1]
            trans_acc += xi / xi.sum()
    return total_ll, init_acc, trans_acc, gamma_acc, mean_acc, sq_acc


def assert_close(got, want, rel=1e-12):
    """Equal to ``rel`` relative (absolute below magnitude 1).

    -inf and nan match only themselves.
    """
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isneginf(got), np.isneginf(want))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite])
                  <= rel * np.maximum(np.abs(want[finite]), 1.0))


# -- forward scoring ----------------------------------------------------------


def test_standard_normal_single_observation():
    loglik = forward_loglik(unit_model(), [0.0])
    assert abs(loglik - (-0.5 * math.log(2 * math.pi))) < 1e-9
    assert abs(loglik - (-0.918938533204672)) < 1e-12


def test_forward_matches_path_enumeration():
    rng = np.random.default_rng(50)
    for trial in range(25):
        model = random_model(seed=1000 + trial, k=int(rng.integers(1, 4)))
        length = int(rng.integers(1, 6))
        obs = rng.uniform(-3, 3, length)
        assert abs(forward_loglik(model, obs) - brute_force_loglik(model, obs)) < 1e-9


def test_forward_long_sequence_does_not_underflow():
    model = random_model(seed=51)
    rng = np.random.default_rng(52)
    obs = rng.uniform(-2, 2, 5000)
    loglik = forward_loglik(model, obs)
    assert math.isfinite(loglik)


def test_forward_unreachable_observation_is_minus_inf():
    model = HmmModel(
        route_index=0,
        n_states=2,
        initial=np.array([1.0, 0.0]),
        transition=np.array([[1.0, 0.0], [0.0, 1.0]]),
        means=np.array([0.0, 1000.0]),
        variances=np.array([VAR_FLOOR, VAR_FLOOR]),
    )
    # the only reachable state cannot emit anything near 1000
    assert forward_loglik(model, [0.0, 1000.0]) == float("-inf")


def sparse_random_model(seed, k):
    """Random model whose initial and transition rows may hold zeros."""
    rng = np.random.default_rng(seed)

    def stochastic_rows(n):
        rows = rng.random((n, k)) * (rng.random((n, k)) > 0.3)
        rows[np.arange(n), rng.integers(0, k, n)] += 0.1
        return rows / rows.sum(axis=1, keepdims=True)

    return HmmModel(
        route_index=0,
        n_states=k,
        initial=stochastic_rows(1)[0],
        transition=stochastic_rows(k),
        means=rng.uniform(0.5, 1.5, k),
        variances=np.exp(rng.uniform(math.log(VAR_FLOOR), 0.0, k)),
    )


def degenerate_model():
    """What the bank fit returns for a constant route."""
    return HmmModel(route_index=0, n_states=1, initial=np.array([1.0]),
                    transition=np.array([[1.0]]), means=np.array([1.0]),
                    variances=np.array([VAR_FLOOR]), degenerate=True)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4),
       prices=st.lists(st.floats(50.0, 500.0), min_size=1, max_size=40))
def test_batched_prefixes_match_scalar_forward(seed, k, prices):
    s = series_of(prices)
    obs = _prefix_observations(s)
    for p in range(len(s)):  # row p is the prefix through p over its own mean
        mean = math.fsum(prices[: p + 1]) / (p + 1)
        assert obs[p, : p + 1].tolist() == [price / mean for price in prices[: p + 1]]
    lengths = np.arange(1, len(s) + 1)
    for model in (sparse_random_model(seed, k), degenerate_model()):
        want = [scalar_forward_loglik(model, obs[p, : p + 1]) for p in range(len(s))]
        assert_close(_row_logliks([model], obs, lengths)[0], want)
        assert_close(_forward_rows(model, obs, lengths), want)
        assert_close(forward_loglik(model, obs[-1]), want[-1])


def fragile_model():
    """Reaches only a floor-variance state at 1.0: any other value is unreachable."""
    return HmmModel(route_index=0, n_states=2, initial=np.array([1.0, 0.0]),
                    transition=np.eye(2), means=np.array([1.0, 1.0]),
                    variances=np.array([VAR_FLOOR, 100.0]))


def broad_model():
    return HmmModel(route_index=1, n_states=1, initial=np.array([1.0]),
                    transition=np.array([[1.0]]), means=np.array([1.0]),
                    variances=np.array([0.05]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ks=st.lists(st.integers(2, 5), max_size=3),
       rows=st.lists(st.lists(st.floats(0.5, 1.5), min_size=1, max_size=12),
                     min_size=1, max_size=6),
       spike_at=st.integers(0, 11), pad=st.sampled_from([0.0, 1.0, 1.3]))
def test_classify_ragged_stacks_match_scalar_forward(seed, ks, rows, spike_at, pad):
    # Row 0 holds 1.3, which the fragile template 0 cannot emit. A bank mixes
    # a 1-state degenerate template with K = 2-5 ones whose transitions hold
    # zeros, and the rows come ragged, in any order, with finite padding.
    rows[0][spike_at % len(rows[0])] = 1.3
    bank = [fragile_model(), degenerate_model(),
            *(sparse_random_model(seed + i, k) for i, k in enumerate(ks)), broad_model()]
    lengths = np.array([len(r) for r in rows])
    obs = np.full((len(rows), 12), pad)
    for i, r in enumerate(rows):
        obs[i, : len(r)] = r
    order = np.argsort(lengths, kind="stable")
    want = np.empty((len(bank), len(rows)))
    for j, m in enumerate(bank):
        want[j, order] = _forward_rows(m, obs[order], lengths[order])
    assert want[0, 0] == -np.inf
    assert_close(want, [[scalar_forward_loglik(m, r) for r in rows] for m in bank])

    assert_close(_row_logliks(bank, obs, lengths), want)
    got = classify(bank, obs, lengths)
    assert got.tolist() == np.argmax(want, axis=0).tolist()
    assert np.isfinite(want[got, np.arange(len(rows))]).all()  # -inf never wins


def test_sample_shape_and_determinism():
    model = random_model(seed=53)
    a = sample(model, 25, seed=3)
    b = sample(model, 25, seed=3)
    assert isinstance(a, np.ndarray)
    assert a.shape == (25,)
    assert np.array_equal(a, b)
    tight = unit_model(mean=4.0, var=1e-4)
    draws = sample(tight, 100, seed=4)
    assert np.all(np.abs(draws - 4.0) < 0.1)


# -- model validation and serialization ---------------------------------------


def test_model_validation():
    with pytest.raises(FarecastError):
        HmmModel(0, 1, np.array([0.9]), np.array([[1.0]]), np.array([0.0]),
                 np.array([1.0]))
    with pytest.raises(FarecastError):
        HmmModel(0, 2, np.array([0.5, 0.5]),
                 np.array([[0.7, 0.2], [0.5, 0.5]]),
                 np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(FarecastError):
        unit_model(var=VAR_FLOOR / 10)
    with pytest.raises(FarecastError):
        unit_model(mean=float("nan"))
    with pytest.raises(FarecastError):
        HmmModel(0, 2, np.array([0.5, 0.5]),
                 np.array([[np.nan, np.nan], [0.5, 0.5]]),
                 np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(FarecastError):  # 3 initial entries for 4 states
        HmmModel(0, 4, np.array([0.5, 0.25, 0.25]), np.full((4, 4), 0.25),
                 np.zeros(4), np.ones(4))
    with pytest.raises(FarecastError):  # sums to 1 with a negative entry
        HmmModel(0, 2, np.array([1.5, -0.5]), np.full((2, 2), 0.5), np.zeros(2), np.ones(2))
    with pytest.raises(FarecastError):
        HmmModel(0, 2, np.full(2, 0.5), np.array([[1.5, -0.5], [0.5, 0.5]]), np.zeros(2),
                 np.ones(2))
    with pytest.raises(FarecastError):  # n_states disagrees with the arrays
        HmmModel(0, 2, np.array([1.0]), np.array([[1.0]]), np.array([0.0]),
                 np.array([1.0]))


def test_model_round_trip(tmp_path):
    model = random_model(seed=54)
    path = tmp_path / "hmm.json"
    save_model(model, path)
    clone = load_model(path)
    assert np.array_equal(clone.initial, model.initial)
    assert np.array_equal(clone.transition, model.transition)
    assert np.array_equal(clone.means, model.means)
    assert np.array_equal(clone.variances, model.variances)
    assert clone.norm_mean == model.norm_mean
    assert clone.degenerate == model.degenerate


# -- Baum-Welch ---------------------------------------------------------------


@pytest.fixture(scope="module")
def two_state_data():
    true = HmmModel(
        route_index=0,
        n_states=2,
        initial=np.array([0.5, 0.5]),
        transition=np.array([[0.95, 0.05], [0.05, 0.95]]),
        means=np.array([0.0, 10.0]),
        variances=np.array([0.01, 0.01]),
    )
    return [sample(true, 40, seed=100 + i) for i in range(30)]


def test_baum_welch_recovers_well_separated_means(two_state_data):
    result = baum_welch(two_state_data, n_states=2, max_iter=200, seed=1)
    got = np.sort(result.model.means)
    assert abs(got[0] - 0.0) < 0.5
    assert abs(got[1] - 10.0) < 0.5
    # near-deterministic dynamics show up in the transition diagonal
    assert result.model.transition[0, 0] > 0.8
    assert result.model.transition[1, 1] > 0.8


def test_baum_welch_loglik_monotone(two_state_data):
    result = baum_welch(two_state_data, n_states=2, max_iter=200, seed=1)
    hist = result.loglik_history
    assert len(hist) >= 2
    for a, b in zip(hist, hist[1:]):
        assert b >= a - 1e-8
    assert result.converged


def test_baum_welch_first_entry_scores_the_initial_model(two_state_data):
    result = baum_welch(two_state_data, n_states=2, max_iter=5, seed=7)
    pooled = np.concatenate([np.asarray(s) for s in two_state_data])
    centers = _kmeans_1d(pooled, 2, seed=7)
    init = HmmModel(
        route_index=-1,
        n_states=2,
        initial=np.full(2, 0.5),
        transition=np.full((2, 2), 0.5),
        means=centers,
        variances=np.full(2, max(float(pooled.var()), VAR_FLOOR)),
    )
    expected = sum(forward_loglik(init, s) for s in two_state_data)
    assert abs(result.loglik_history[0] - expected) < 1e-6


def test_baum_welch_deterministic(two_state_data):
    a = baum_welch(two_state_data, n_states=3, max_iter=30, seed=9)
    b = baum_welch(two_state_data, n_states=3, max_iter=30, seed=9)
    assert np.array_equal(a.model.means, b.model.means)
    assert np.array_equal(a.model.transition, b.model.transition)
    assert a.loglik_history == b.loglik_history


def test_baum_welch_variance_floor():
    # all observations identical within two clusters: ML variance is zero
    seqs = [[0.0, 0.0, 5.0, 5.0, 0.0]] * 4
    result = baum_welch(seqs, n_states=2, max_iter=50, seed=0)
    assert (result.model.variances >= VAR_FLOOR).all()


def test_baum_welch_state_without_outgoing_mass_keeps_its_row():
    # State 0 ends up holding only the last step of each sequence, so from
    # the sixth E-step on it has no outgoing transition mass.
    truth = random_model(0, k=2)
    seqs = [sample(truth, 1, seed=0), sample(truth, 2, seed=1)]
    result = baum_welch(seqs, n_states=2, seed=0)
    assert np.isfinite(result.loglik_history).all()
    assert np.isfinite(result.model.transition).all()
    assert np.allclose(result.model.transition.sum(axis=1), 1.0)
    assert all(b >= a - 1e-9 for a, b in zip(result.loglik_history,
                                              result.loglik_history[1:]))
    # every sequence of length 1: no transition is ever observed
    single = baum_welch([sample(truth, 1, seed=s) for s in range(4)], n_states=2, seed=0)
    assert np.array_equal(single.model.transition, np.full((2, 2), 0.5))


def test_baum_welch_rejects_empty():
    with pytest.raises(EmptySeries):
        baum_welch([], n_states=2)
    with pytest.raises(EmptySeries):
        baum_welch([[], []], n_states=2)


def reference_forward(models, obs):
    """A pass for ``_em`` by ``reference_e_step``, one stack each: its scalers
    are 1 and its shifts each stack's log-likelihood, and it carries the
    accumulators where ``_forward`` puts the emissions."""
    parts = [reference_e_step(m, [o]) for m, o in zip(models, obs)]
    logliks = np.array([p[0] for p in parts])
    return None, obs, parts, None, np.ones((1, len(parts), 1)), logliks[None, :, None]


def reference_backward(fwd, keep):
    return [fwd[2][i][1:] for i in keep]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4),
       lengths=st.lists(st.integers(1, 25), min_size=0, max_size=7))
def test_batched_e_step_matches_per_sequence_reference(seed, k, lengths):
    lengths = [1, *lengths]  # a length-1 sequence has no transitions
    truth = random_model(seed, k=k)
    seqs = [sample(truth, n, seed=seed + i) for i, n in enumerate(lengths)]
    visited = []

    def recording_forward(models, obs):
        visited.append((models, obs))
        return _forward(models, obs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hmm, "_forward", recording_forward)
        batched = baum_welch(seqs, n_states=k, max_iter=20, seed=seed)
        mp.setattr(hmm, "_forward", reference_forward)
        mp.setattr(hmm, "_backward", reference_backward)
        looped = baum_welch(seqs, n_states=k, max_iter=20, seed=seed)
    assert len(batched.loglik_history) == len(looped.loglik_history)
    assert batched.converged == looped.converged
    # Two runs drift apart as the M-step amplifies rounding (up to 2e-10
    # relative on a few short sequences), so each iteration's log-likelihood
    # and each stack's accumulators are checked against the reference under
    # the same parameters, step by step: one pass per stack shape.
    n_stacks = len(set(lengths))
    assert len(visited) == n_stacks * len(batched.loglik_history)
    for i, loglik in enumerate(batched.loglik_history):
        passes = visited[i * n_stacks: (i + 1) * n_stacks]
        want = [reference_e_step(model, obs) for (model,), obs in passes]
        assert_close(loglik, sum(w[0] for w in want))
        for ((model,), obs), w in zip(passes, want):
            (got,) = _backward(_forward([model], obs), [0])
            for got_acc, want_acc in zip(got, w[1:]):
                assert_close(got_acc, want_acc)


# -- route fitting ------------------------------------------------------------


def test_hmm_fit_normalizes_by_route_mean():
    a = series_of([100.0, 120.0, 80.0, 90.0, 110.0], route_id="R1")
    b = series_of([300.0, 360.0, 240.0, 270.0, 330.0], route_id="R2")
    ma = hmm_fit([a], n_states=2, seed=3, route_index=0)
    mb = hmm_fit([b], n_states=2, seed=3, route_index=1)
    # same shape, 3x the scale: identical normalized models
    assert np.allclose(ma.means, mb.means, atol=1e-12)
    assert abs(ma.norm_mean - 100.0) < 1e-9
    assert abs(mb.norm_mean - 300.0) < 1e-9
    assert np.allclose(mb.means * mb.norm_mean, 3 * ma.means * ma.norm_mean)


def test_hmm_fit_constant_route_degenerates(caplog):
    s = series_of([75.0] * 10)
    with caplog.at_level(logging.WARNING, logger="farecast.hmm"):
        model = hmm_fit([s], n_states=4, seed=0, route_index=2)
    assert model.degenerate
    assert model.n_states == 1
    assert np.allclose(model.means, [1.0])  # the constant, mean-normalized
    assert np.allclose(model.means * model.norm_mean, [75.0])
    assert model.variances[0] == VAR_FLOOR
    assert any("degenerate" in r.message for r in caplog.records)


def test_hmm_fit_rejects_empty():
    with pytest.raises(EmptySeries):
        hmm_fit([])


# -- the bank and classification ----------------------------------------------


def shaped_series(pattern, route_id, departure=date(2016, 1, 13), scale=100.0):
    return series_of([scale * p for p in pattern], route_id=route_id,
                     departure=departure)


@pytest.fixture(scope="module")
def route_bank():
    """8 templates with distinct shapes (flat, rising, falling, ...)."""
    rng = np.random.default_rng(60)
    patterns = [
        1.0 + 0.02 * np.sin(np.linspace(0, 2 * np.pi * (r + 1) / 3, 12)) + 0.3 * (r % 4) * np.linspace(0, 1, 12)
        for r in range(8)
    ]
    series = []
    routes = [f"R{r + 1}" for r in range(8)]
    for r, pat in enumerate(patterns):
        for rep in range(3):
            noisy = pat * (1 + rng.normal(0, 0.01, len(pat)))
            series.append(
                shaped_series(noisy, routes[r], departure=date(2016, 1, 13 + rep))
            )
    bank = fit_bank(series, routes, n_states=3, max_iter=60, seed=0)
    return bank, series, routes


def test_fit_bank_shape_and_indices(route_bank):
    bank, _, _ = route_bank
    assert len(bank) == 8
    assert [m.route_index for m in bank] == list(range(8))


def test_fit_bank_deterministic(route_bank):
    bank, series, routes = route_bank
    again = fit_bank(series, routes, n_states=3, max_iter=60, seed=0)
    for a, b in zip(bank, again):
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.transition, b.transition)


def test_fit_bank_per_route_seeds_are_derived(route_bank):
    bank, series, routes = route_bank
    solo = hmm_fit([s for s in series if s.key.route_id == "R3"], n_states=3,
                   max_iter=60, seed=derive_seed(0, "hmm", 2), route_index=2)
    assert np.array_equal(bank[2].means, solo.means)


RECORDED_BANKS = Path(__file__).parent / "data" / "bank"
# Series lengths per route: the stacks (3, 12), (1, 7) and (1, 5) are shared
# by two or three templates, the others are one template's own, R5 holds a
# one-step series, and R6's prices are constant.
RAGGED = {"R1": [12, 12, 12, 7], "R2": [7, 12, 7, 12, 12], "R3": [12, 12, 12], "R4": [5],
          "R5": [9, 7, 5, 9, 1], "R6": [6, 6], "R7": [20, 20]}


def ragged_series():
    truth = HmmModel(0, 3, np.array([0.5, 0.3, 0.2]),
                     np.array([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]]),
                     np.array([-1.0, 0.0, 1.5]), np.array([0.2, 0.1, 0.3]))
    series = []
    for r, (route, lengths) in enumerate(RAGGED.items()):
        for i, n in enumerate(lengths):
            prices = (np.full(n, 80.0) if route == "R6"
                      else 100.0 * (1.0 + 0.05 * sample(truth, n, seed=10 * r + i)))
            series.append(series_of(prices, route_id=route, departure=date(2016, 1, 13 + i)))
    return series


def test_fit_bank_of_a_ragged_corpus_fits_each_route_as_alone(monkeypatch):
    series = ragged_series()
    runs, real_em = [], hmm._em

    def recording_em(starts, max_iter, tol):
        runs.append(real_em(starts, max_iter, tol))
        return runs[-1]

    monkeypatch.setattr(hmm, "_em", recording_em)
    bank = fit_bank(series, list(RAGGED), n_states=3, max_iter=26, seed=0)
    # One loop for the six templates that iterate; each stops at its own
    # iteration, and R7's runs out at max_iter.
    (batch,) = runs
    stops = [(len(r.loglik_history), r.converged) for r in batch]
    assert stops == [(25, True), (21, True), (17, True), (8, True), (24, True), (26, False)]
    assert [m.degenerate for m in bank] == [False] * 5 + [True, False]
    # The bank the per-route loop fit, whose sums added each route's stacks
    # in order of first appearance.
    recorded = json.loads((RECORDED_BANKS / "ragged.json").read_text(encoding="utf-8"))
    for idx, route in enumerate(RAGGED):
        alone = hmm_fit([s for s in series if s.key.route_id == route], n_states=3,
                        max_iter=26, seed=derive_seed(0, "hmm", idx), route_index=idx)
        assert to_jsonable(bank[idx]) == to_jsonable(alone) == recorded[idx], route


def test_fit_bank_logs_each_template_that_hits_max_iter_by_route_index(caplog):
    # At max_iter 26 only R7 (route index 6) is still iterating; at 8 the
    # templates of routes 0, 1, 2 and 4 are too, and route 3 stops there.
    for max_iter, unconverged in ((26, [6]), (8, [0, 1, 2, 4, 6])):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="farecast.hmm"):
            fit_bank(ragged_series(), list(RAGGED), n_states=3, max_iter=max_iter, seed=0)
        hits = [r.getMessage() for r in caplog.records if "max_iter" in r.getMessage()]
        assert hits == [f"Baum-Welch hit max_iter={max_iter} for route {r}"
                        for r in unconverged]


def test_fit_bank_missing_route_raises(route_bank):
    _, series, routes = route_bank
    partial = [s for s in series if s.key.route_id != "R5"]
    with pytest.raises(EmptySeries):
        fit_bank(partial, routes, n_states=3, seed=0)


def test_classify_own_route(route_bank):
    bank, series, routes = route_bank
    winners = classify(bank, *_series_observations(series))
    hits = sum(routes[w] == s.key.route_id for w, s in zip(winners, series))
    assert hits >= len(series) * 0.75


def test_identical_bank_ties_to_index_zero(route_bank):
    bank, series, _ = route_bank
    clones = [bank[0]] * 8
    assert classify(clones, *_series_observations(series)).tolist() == [0] * len(series)


def test_classify_wrong_bank_size(route_bank):
    bank, series, _ = route_bank
    with pytest.raises(FarecastError):
        generalized_predict(bank[:5], frozen_classifier(), series[:1])


def test_classify_rejects_an_empty_row():
    with pytest.raises(EmptySeries):
        classify([unit_model()], np.zeros((2, 3)), [3, 0])


# -- observation rows ---------------------------------------------------------


def test_prefix_observations_use_the_prefix_mean():
    obs = _prefix_observations(series_of([100.0, 50.0]))
    assert obs[0, :1].tolist() == [1.0]
    assert obs[1].tolist() == [4 / 3, 2 / 3]


def test_series_observations_use_the_full_mean():
    obs, lengths = _series_observations([series_of([100.0, 50.0]), series_of([30.0])])
    assert lengths.tolist() == [2, 1]
    assert obs.tolist() == [[4 / 3, 2 / 3], [1.0, 0.0]]


# -- generalized prediction ---------------------------------------------------


def frozen_classifier():
    """A CART trained on two tiny specific-route series."""
    from farecast.learners import LearnerSpec, fit
    from farecast.pipeline import build_dataset, route_order

    train = [
        series_of([50.0, 40.0, 40.0, 60.0], route_id="R1"),
        series_of([80.0, 70.0, 90.0, 100.0], route_id="R2",
                  departure=date(2016, 1, 20)),
    ]
    routes = [f"R{r + 1}" for r in range(8)]
    ds = build_dataset(train, routes, anchor=train[0].first_query_date, role="train")
    return fit(LearnerSpec("cart", "classification", {"max_depth": 3}), ds, seed=0)


def near_constant_bank():
    """Template 1 explains roughly-flat normalized prefixes; others cannot."""
    bank = []
    for r in range(8):
        mean = 1.0 if r == 1 else 5.0 + r
        bank.append(
            HmmModel(
                route_index=r,
                n_states=1,
                initial=np.array([1.0]),
                transition=np.array([[1.0]]),
                means=np.array([mean]),
                variances=np.array([0.05]),
            )
        )
    return bank


def test_generalized_rows_tagged_with_winning_template():
    bank = near_constant_bank()
    model = frozen_classifier()
    gen = [series_of([55.0, 52.0, 56.0, 54.0], route_id="G1",
                     departure=date(2016, 2, 10))]
    result = generalized_predict(bank, model, gen,
                                 anchor=gen[0].first_query_date)
    key = gen[0].key
    assert result.assignments[key] == (1, 1, 1, 1)
    # the decision is the frozen model's on rows carrying route 1's dummy
    tagged = feature_dataset(gen, 8, "generalized", route_index=[1])
    assert tagged.X[:, :8].tolist() == [[0, 1, 0, 0, 0, 0, 0, 0]] * 4
    [decision] = result.decisions
    assert decision == decide_classification(gen[0], predict(model, tagged.X))
    assert decision.paid_price in gen[0].prices


def test_generalized_per_series_classifies_once():
    bank = near_constant_bank()
    model = frozen_classifier()
    gen = [series_of([55.0, 52.0, 56.0, 54.0], route_id="G1",
                     departure=date(2016, 2, 10))]
    result = generalized_predict(bank, model, gen,
                                 anchor=gen[0].first_query_date, per_series=True)
    key = gen[0].key
    obs = gen[0].prices / (math.fsum(gen[0].prices) / 4)
    expected = int(np.argmax([scalar_forward_loglik(m, obs) for m in bank]))
    assert result.assignments[key] == (expected,) * 4


def test_generalized_per_series_runs_one_pass_per_template(monkeypatch):
    calls, forward = [], hmm._forward

    def counting(models, obs):
        calls.append((len(models), obs.shape))
        return forward(models, obs)

    monkeypatch.setattr(hmm, "_forward", counting)
    gen = [series_of([55.0, 52.0, 56.0, 54.0], route_id=f"G{i}", departure=date(2016, 2, 10))
           for i in range(3)]
    generalized_predict(near_constant_bank(), frozen_classifier(), gen,
                        anchor=gen[0].first_query_date, per_series=True)
    assert calls == [(1, (1, 3, 4))] * 8


def test_generalized_assignments_are_causal():
    # extending a series must not change earlier per-row assignments
    bank = near_constant_bank()
    model = frozen_classifier()
    short = series_of([55.0, 52.0, 56.0], route_id="G1", departure=date(2016, 2, 10),
                      last_days_to_departure=1)
    long = series_of([55.0, 52.0, 56.0, 200.0], route_id="G1",
                     departure=date(2016, 2, 10))
    r_short = generalized_predict(bank, model, [short], anchor=short.first_query_date)
    r_long = generalized_predict(bank, model, [long], anchor=long.first_query_date)
    a_short = r_short.assignments[short.key]
    a_long = r_long.assignments[long.key]
    assert a_long[: len(a_short)] == a_short


def test_generalized_rejects_regression_model():
    from farecast.learners import LearnerSpec, fit
    from farecast.pipeline import build_dataset

    train = [series_of([50.0, 40.0, 40.0, 60.0], route_id="R1")]
    routes = [f"R{r + 1}" for r in range(8)]
    ds = build_dataset(train, routes, anchor=train[0].first_query_date, role="train")
    reg = fit(LearnerSpec("cart", "regression", {"max_depth": 2}), ds, seed=0)
    bank = near_constant_bank()
    with pytest.raises(FarecastError):
        generalized_predict(bank, reg, train, anchor=train[0].first_query_date)


def test_unreachable_prefix_stays_minus_inf_and_never_wins():
    # Template 0 explains only prices exactly at the prefix mean: its one
    # reachable state has the floor variance, its broad state is never entered.
    fragile, broad = fragile_model(), broad_model()
    bank = [fragile, broad, replace(broad, route_index=2), *near_constant_bank()[3:]]
    s = series_of([100.0, 100.0, 100.0, 130.0, 100.0, 100.0], route_id="G1",
                  departure=date(2016, 2, 10))
    obs, lengths = _prefix_observations(s), np.arange(1, len(s) + 1)
    (logliks,) = _row_logliks([fragile], obs, lengths)
    assert np.isfinite(logliks[:3]).all()
    assert (logliks[3:] == -np.inf).all()  # 130 is unreachable, and stays so

    prices = s.prices.tolist()
    oracle = tuple(
        int(np.argmax([scalar_forward_loglik(m, np.array(prices[: t + 1])
                                             / (math.fsum(prices[: t + 1]) / (t + 1)))
                       for m in bank]))
        for t in range(len(s))
    )
    result = generalized_predict(bank, frozen_classifier(), [s],
                                 anchor=s.first_query_date)
    # the identical templates 1 and 2 tie: the lower index wins
    assert result.assignments[s.key] == oracle == (0, 0, 0, 1, 1, 1)
    assert tuple(classify(bank, obs, lengths)) == oracle
