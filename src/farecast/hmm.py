"""Gaussian-emission hidden Markov models as per-route stochastic templates.

One model is trained per specific route on that route's training series,
with prices normalized by the route's training-mean price. A route with no
history gets its flight dummies assigned by maximum-likelihood
classification against the bank, one template per specific route, and a
frozen specific-route classifier makes the buy/wait call on the resulting
feature rows.

Scoring has one path: ``classify`` takes a stack of observation rows of any
lengths and runs the scaled forward recursion (``_forward_rows``) once per
template over all of them. Per row, the stack is one series' prefixes, each
normalized by its own mean, so no future information leaks into the
assignment; per series, it is every series whole, each normalized by its
full mean.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import EmptySeries, FarecastError, PriceSeries, SeriesKey
from .features import feature_dataset, set_route_dummies
from .learners import TrainedModel, dummy_width, predict
from .policy import PurchaseDecision, decide_classification
from .util import (as_float_arrays, check_types, derive_seed, from_jsonable, read_json,
                   to_jsonable, write_json)

logger = logging.getLogger(__name__)

VAR_FLOOR = 1e-6


@dataclass
class HmmModel:
    route_index: int
    n_states: int
    initial: np.ndarray     # (K,)
    transition: np.ndarray  # (K, K), row-stochastic
    means: np.ndarray       # (K,) emission means over normalized prices
    variances: np.ndarray   # (K,) floored at VAR_FLOOR
    norm_mean: float = 1.0  # route training-mean price used for normalization
    degenerate: bool = False

    def __post_init__(self):
        check_types(self, route_index=int, n_states=int, norm_mean=float, degenerate=bool)
        self.norm_mean = float(self.norm_mean)
        as_float_arrays(self, "initial", "transition", "means", "variances")
        k = self.n_states
        if (self.transition.shape != (k, k)
                or not self.initial.shape == self.means.shape == self.variances.shape == (k,)):
            raise FarecastError(f"HMM parameters must have shapes ({k},) and ({k}, {k})")
        if not all(np.isfinite(a).all() for a in (self.initial, self.transition,
                                                  self.means, self.variances)):
            raise FarecastError("HMM parameters must be finite")
        if abs(self.initial.sum() - 1.0) > 1e-9:
            raise FarecastError("initial distribution does not sum to 1")
        if np.abs(self.transition.sum(axis=1) - 1.0).max() > 1e-9:
            raise FarecastError("transition rows do not sum to 1")
        if (self.variances < VAR_FLOOR - 1e-15).any():
            raise FarecastError("variance below floor")


def save_model(model: HmmModel, path: str | Path) -> None:
    write_json(to_jsonable(model), path)


def load_model(path: str | Path) -> HmmModel:
    return read_json(path, "HMM template", lambda raw: from_jsonable(HmmModel, raw))


# -- forward algorithm -------------------------------------------------------


def _scaled_emission(model: HmmModel, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Emissions N(o; mu_k, var_k) for observations of any shape (...).

    Returns the log shift (...), the largest log density over the states,
    and the densities divided by exp(shift) (..., K), whose max is 1.
    """
    var = model.variances
    diff = obs[..., None] - model.means
    logb = -0.5 * (np.log(2.0 * np.pi * var) + diff * diff / var)
    shift = logb.max(axis=-1)
    return shift, np.exp(logb - shift[..., None])


def _forward_rows(model: HmmModel, obs: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Scaled forward log-likelihood (Rabiner 1989) of every row of ``obs`` (N, T).

    Row i is the sequence ``obs[i, :lengths[i]]``; ``lengths`` ascend, so the
    rows still running at step t are the suffix from
    ``searchsorted(lengths, t, side="right")``, and later columns of a row
    are never read. An unreachable observation (total 0) leaves -inf and a
    zero alpha, so no nan reaches a later step or an argmax.
    """
    shift, b = _scaled_emission(model, obs)
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


def classify(bank: Sequence[HmmModel], obs: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Maximum-likelihood template index of each row ``obs[i, :lengths[i]]``.

    Rows may come in any order and ragged; ties go to the lowest index, and
    a row a template cannot emit scores -inf under it.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if (lengths < 1).any():
        raise EmptySeries("cannot score an empty sequence")
    order = np.argsort(lengths, kind="stable")
    rows, row_lengths = obs[order], lengths[order]
    logliks = np.empty((len(bank), len(lengths)))
    logliks[:, order] = [_forward_rows(m, rows, row_lengths) for m in bank]
    return np.argmax(logliks, axis=0)


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


# -- Baum-Welch ---------------------------------------------------------------


def _kmeans_1d(values: np.ndarray, k: int, seed: int, iters: int = 50) -> np.ndarray:
    """Seeded Lloyd's in one dimension; returns sorted cluster means."""
    rng = np.random.default_rng(seed)
    uniq = np.unique(values)
    if len(uniq) >= k:
        centers = np.sort(rng.choice(uniq, size=k, replace=False))
    else:
        centers = np.sort(rng.choice(values, size=k, replace=True))
    for _ in range(iters):
        assign = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = values[assign == j]
            if len(members):
                new_centers[j] = members.mean()
        if np.allclose(new_centers, centers):
            break
        centers = new_centers
    return np.sort(centers)


def _e_step(model: HmmModel, stacks: Sequence[np.ndarray]) -> tuple:
    """Scaled forward-backward (Rabiner 1989) over stacks (S, T) of equal-length sequences.

    Returns the total log-likelihood and the M-step's accumulators (initial,
    transition, occupancy, mean, square), each summed over every sequence.
    """
    trans = model.transition
    parts = []
    for obs in stacks:
        shift, b = _scaled_emission(model, obs)  # (S, T), (S, T, K)
        alpha = np.empty_like(b)
        c = np.empty_like(shift)
        a = model.initial * b[:, 0]
        for t in range(obs.shape[1]):
            if t:
                a = (alpha[:, t - 1] @ trans) * b[:, t]
            c[:, t] = a.sum(axis=1)
            alpha[:, t] = a / c[:, t, None]

        # Scaled backward under the same shifts and scalers.
        beta = np.ones_like(b)
        for t in range(obs.shape[1] - 2, -1, -1):
            beta[:, t] = ((b[:, t + 1] * beta[:, t + 1]) @ trans.T) / c[:, t + 1, None]

        gamma = alpha * beta
        gamma /= gamma.sum(axis=2, keepdims=True)
        xi = (alpha[:, :-1, :, None] * trans
              * (b[:, 1:] * beta[:, 1:])[:, :, None, :]) / c[:, 1:, None, None]
        parts.append((
            float((np.log(c).sum(axis=1) + shift.sum(axis=1)).sum()),
            gamma[:, 0].sum(axis=0),
            (xi / xi.sum(axis=(2, 3), keepdims=True)).sum(axis=(0, 1)),
            gamma.sum(axis=(0, 1)),
            np.einsum("stk,st->k", gamma, obs),
            np.einsum("stk,st->k", gamma, obs * obs),
        ))
    return tuple(sum(acc) for acc in zip(*parts))


@dataclass
class BaumWelchResult:
    model: HmmModel
    loglik_history: list[float] = field(default_factory=list)
    converged: bool = False


def baum_welch(
    sequences: Sequence[Sequence[float]],
    n_states: int,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
    route_index: int = -1,
    norm_mean: float = 1.0,
) -> BaumWelchResult:
    """EM over multiple observation sequences.

    Initialization: emission means from seeded 1-D K-Means over the pooled
    observations (sorted, so state identity is stable per seed), pooled
    variance, uniform initial and transition probabilities. The recorded
    history entry i is the total log-likelihood under the parameters of
    iteration i, before that iteration's update.
    """
    seqs = [np.asarray(s, dtype=float) for s in sequences if len(s)]
    if not seqs:
        raise EmptySeries("Baum-Welch needs at least one non-empty sequence")
    pooled = np.concatenate(seqs)
    k = n_states
    centers = _kmeans_1d(pooled, k, seed=seed)
    pooled_var = max(float(pooled.var()), VAR_FLOOR)
    model = HmmModel(
        route_index=route_index,
        n_states=k,
        initial=np.full(k, 1.0 / k),
        transition=np.full((k, k), 1.0 / k),
        means=centers,
        variances=np.full(k, pooled_var),
        norm_mean=norm_mean,
    )

    stacks = [np.stack([obs for obs in seqs if len(obs) == n])
              for n in dict.fromkeys(map(len, seqs))]

    history: list[float] = []
    converged = False
    for _ in range(max_iter):
        total_ll, init_acc, trans_acc, gamma_acc, mean_acc, sq_acc = _e_step(model, stacks)

        if history and total_ll - history[-1] < tol and total_ll >= history[-1] - 1e-12:
            history.append(total_ll)
            converged = True
            break
        history.append(total_ll)

        # M-step.
        new_means = mean_acc / gamma_acc
        new_vars = np.maximum(sq_acc / gamma_acc - new_means**2, VAR_FLOOR)
        # A state with no outgoing transition mass keeps its row instead of 0/0.
        out_mass = trans_acc.sum(axis=1, keepdims=True)
        new_trans = (np.where(out_mass > 0, trans_acc, model.transition)
                     / np.where(out_mass > 0, out_mass, 1.0))
        model = HmmModel(
            route_index=route_index,
            n_states=k,
            initial=init_acc / init_acc.sum(),
            transition=new_trans,
            means=new_means,
            variances=new_vars,
            norm_mean=norm_mean,
        )
    else:
        logger.info("Baum-Welch hit max_iter=%d", max_iter)
    return BaumWelchResult(model=model, loglik_history=history, converged=converged)


def hmm_fit(
    route_series: Sequence[PriceSeries],
    n_states: int = 4,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
    route_index: int = -1,
) -> HmmModel:
    """Train one route's template on its training series.

    Observations are all the route's prices divided by their overall mean.
    If every price is identical the model degenerates to a single state
    (with a warning) rather than failing: such a route is trivially
    predictable and must not break bank training.
    """
    if not route_series:
        raise EmptySeries("hmm_fit needs at least one series")
    if n_states < 1 or max_iter < 1:
        raise FarecastError(f"an HMM fit needs n_states and max_iter of at least 1, "
                            f"got {n_states} and {max_iter}")
    prices = np.concatenate([s.prices for s in route_series])
    norm_mean = math.fsum(prices) / len(prices)
    sequences = [s.prices / norm_mean for s in route_series]
    pooled = prices / norm_mean
    if np.all(pooled == pooled[0]):
        logger.warning(
            "route %d: all prices identical, returning a degenerate single-state model",
            route_index,
        )
        return HmmModel(
            route_index=route_index,
            n_states=1,
            initial=np.array([1.0]),
            transition=np.array([[1.0]]),
            means=np.array([float(pooled[0])]),
            variances=np.array([VAR_FLOOR]),
            norm_mean=norm_mean,
            degenerate=True,
        )
    result = baum_welch(sequences, n_states=n_states, max_iter=max_iter, tol=tol,
                        seed=seed, route_index=route_index, norm_mean=norm_mean)
    return result.model


def fit_bank(
    train_series: Sequence[PriceSeries],
    route_order: Sequence[str],
    n_states: int = 4,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
) -> list[HmmModel]:
    """One template per route, in the given route order; template i has route index i."""
    bank = []
    for idx, route_id in enumerate(route_order):
        route_series = [s for s in train_series if s.key.route_id == route_id]
        if not route_series:
            raise EmptySeries(f"route {route_id} has no training series")
        bank.append(hmm_fit(route_series, n_states=n_states, max_iter=max_iter,
                            tol=tol, seed=derive_seed(seed, "hmm", idx), route_index=idx))
    return bank


def _prefix_observations(s: PriceSeries) -> np.ndarray:
    """(T, T): row p is the prefix through p over its own mean; later columns are never read."""
    prices = s.prices.tolist()
    denoms = [math.fsum(prices[: p + 1]) / (p + 1) for p in range(len(prices))]
    return s.prices[None, :] / np.asarray(denoms)[:, None]


def _series_observations(series: Sequence[PriceSeries]) -> tuple[np.ndarray, np.ndarray]:
    """Each whole series over its own mean, one row each padded with zeros, and the lengths."""
    lengths = np.array([len(s) for s in series], dtype=np.intp)
    obs = np.zeros((len(series), lengths.max(initial=0)))
    for row, s in zip(obs, series):
        row[: len(s)] = s.prices / (math.fsum(s.prices) / len(s))
    return obs, lengths


# -- generalized problem ------------------------------------------------------


@dataclass
class GeneralizedResult:
    decisions: dict[SeriesKey, PurchaseDecision]
    assignments: dict[SeriesKey, tuple[int, ...]]  # template index per row


def generalized_predict(
    bank: Sequence[HmmModel],
    frozen_model: TrainedModel,
    gen_series: Sequence[PriceSeries],
    anchor: Optional[date] = None,
    per_series: bool = False,
) -> GeneralizedResult:
    """Decide buy/wait for routes without history.

    Row t of a series is tagged with the dummies of the template that best
    explains the price prefix through t (normalized by the prefix mean, so
    the assignment at t uses nothing later than t). ``per_series`` instead
    classifies every series once, in one stack, from its full observation
    sequence normalized by its full mean. The frozen classifier then
    predicts on the tagged rows and the standard decision rule runs per
    series. The bank holds one template per route dummy of the frozen
    model, template i for route index i.
    """
    if frozen_model.spec.task != "classification":
        raise FarecastError("the frozen model must be a classification model")
    width = dummy_width(frozen_model)
    indices = [m.route_index for m in bank]
    if indices != list(range(width)):
        raise FarecastError(f"bank holds templates for route indices {indices}, "
                            f"the frozen model needs 0..{width - 1} in order")
    if per_series:
        winners = classify(bank, *_series_observations(gen_series)).tolist()
        per_row = [[w] * len(s) for w, s in zip(winners, gen_series)]
    else:
        per_row = [classify(bank, _prefix_observations(s), np.arange(1, len(s) + 1)).tolist()
                   for s in gen_series]
    block = feature_dataset(gen_series, width, "generalized", anchor)
    set_route_dummies(block.X, np.array([i for row in per_row for i in row], dtype=np.intp))
    predicted = block.split(predict(frozen_model, block.X))
    return GeneralizedResult(
        decisions={s.key: decide_classification(s, p) for s, p in zip(gen_series, predicted)},
        assignments={s.key: tuple(row) for s, row in zip(gen_series, per_row)})
