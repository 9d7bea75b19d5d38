"""Gaussian-emission hidden Markov models as per-route stochastic templates.

One model is trained per specific route on that route's training series,
with prices normalized by the route's training-mean price. A route with no
history gets its flight dummies assigned by maximum-likelihood
classification against the bank, one template per specific route, and a
frozen specific-route classifier makes the buy/wait call on the resulting
feature rows.

One scaled forward recursion (``_forward``, Rabiner 1989) serves scoring and
training. It runs time first over a stack of equal-length rows per template,
(T, R, S, K) arrays with an (R, S, K) @ (R, K, K) product per step.

Scoring: ``classify`` runs one pass over a stack of rows of any lengths for
all the templates of the bank at once, one pass per state count (a
degenerate template has 1 state), and reads each row's log-likelihood at its
own last step; steps past a row's end are computed and never read. Every
template reads the one (1, S, T) stack, and its (S, K) @ (K, K) product per
step has the S rows a pass over it alone has, so its scores are that pass's
bit for bit. Per row, the stack is one series' prefixes, each normalized by
its own mean, so no future information leaks into the assignment; per
series, it is every series whole, each normalized by its full mean. On the
benchmark's per-row step (8 four-state templates, 12 series of 90 days) this
is 12 passes instead of 96, and took 94-95 ms against 135-162 ms (2-vCPU
Xeon, best of 5).

Training: ``_em`` runs one Baum-Welch loop for a whole bank. A route's
sequences are stacked by length into (S, T) arrays. In each iteration,
templates that hold stacks of the same shape run their forward pass
together; templates whose log-likelihood has converged leave before the
backward pass. Shapes are never padded and each template's sums add its own
stacks in its own order, so every template is bit for bit the one a fit of
that route alone gives.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import EmptySeries, FarecastError, PriceSeries, SeriesKey
from .features import dummy_width, feature_dataset, set_route_dummies
from .learners import TrainedModel, predict
from .policy import PurchaseDecision, decide_classification
from .util import derive_seed, from_jsonable, read_json, to_jsonable, write_json

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
        k = self.n_states
        if (self.transition.shape != (k, k)
                or not self.initial.shape == self.means.shape == self.variances.shape == (k,)):
            raise FarecastError(f"HMM parameters must have shapes ({k},) and ({k}, {k})")
        # Baum-Welch output as well as a loaded template passes here.
        if not all(np.isfinite(a).all() for a in (self.initial, self.transition, self.means,
                                                  self.variances)):
            raise FarecastError("HMM parameters must be finite")
        if (self.initial < 0).any() or (self.transition < 0).any():
            raise FarecastError("HMM probabilities must not be negative")
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


def _scaled_emission(means: np.ndarray, var: np.ndarray,
                     obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Emissions N(o; mu_k, var_k) for observations of any shape (...).

    ``means`` and ``var`` (..., K) broadcast against ``obs[..., None]``.
    Returns the log shift (...), the largest log density over the states,
    and the densities divided by exp(shift) (..., K), whose max is 1.
    """
    # -0.5 * (log(2 pi var) + diff * diff / var), in place in one array.
    logb = obs[..., None] - means
    logb *= logb
    logb /= var
    logb += np.log(2.0 * np.pi * var)
    logb *= -0.5
    # The max over the states, taken state by state: the values of
    # logb.max(axis=-1) without its reduction loop of K entries per
    # observation. It starts from a copy, as logb changes below.
    states = np.moveaxis(logb, -1, 0)
    shift = functools.reduce(np.maximum, states[1:], states[0].copy())
    logb -= shift[..., None]
    return shift, np.exp(logb, out=logb)


def _forward(models: Sequence[HmmModel], obs: np.ndarray) -> tuple:
    """Scaled forward pass (Rabiner 1989) of R templates over stacks of one shape.

    ``obs`` (R, S, T) holds template r's S sequences of length T; a stack of
    one, (1, S, T), is read by every template. The pass runs time first, so
    each step reads and writes one contiguous (R, S, K) block, and template
    r's (S, K) @ (K, K) product is the one a pass over its stack alone
    takes. Returns the pass ``(trans, obs, b, alpha, c, shift)``: the scaler
    c and the emission shift (T, R, S) give log P(o_t | o_<t) = log c + shift.
    A scaler of 0 (an observation no reachable state emits) divides as 1, so
    its log is -inf and the alphas after it are 0, never nan.
    """
    trans = np.stack([m.transition for m in models])
    shift, b = _scaled_emission(np.stack([m.means for m in models])[:, None],
                                np.stack([m.variances for m in models])[:, None],
                                np.ascontiguousarray(obs.transpose(2, 0, 1)))  # (T, R, S, K)
    alpha = np.empty_like(b)
    c = np.empty_like(shift)
    np.multiply(np.stack([m.initial for m in models])[:, None], b[0], out=alpha[0])
    states = np.moveaxis(alpha, -1, 0)  # (K, T, R, S)
    divisor = np.empty_like(c[0])
    for t, (a, ct) in enumerate(zip(alpha, c)):
        if t:
            np.matmul(alpha[t - 1], trans, out=a)
            a *= b[t]
        # Below 8 states, a.sum(axis=-1) adds a row's states one after
        # another; adding them state by state gives those bits in K calls,
        # without a reduction loop of K entries per row.
        if len(states) < 8:
            np.copyto(ct, states[0, t])
            for state in states[1:, t]:
                ct += state
        else:
            a.sum(axis=-1, out=ct)
        # A zero scaler's row holds only zeros, so it divides by 1.
        np.copyto(divisor, ct)
        divisor[ct == 0.0] = 1.0
        a /= divisor[..., None]
    return trans, obs, b, alpha, c, shift


def classify(bank: Sequence[HmmModel], obs: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """Maximum-likelihood template index of each row ``obs[i, :lengths[i]]``.

    Rows may come in any order and ragged; ties go to the lowest index, and
    a row a template cannot emit scores -inf under it.
    """
    return np.argmax(_row_logliks(bank, obs, lengths), axis=0)


def _row_logliks(bank: Sequence[HmmModel], obs: np.ndarray,
                 lengths: Sequence[int]) -> np.ndarray:
    """(templates, rows): the log-likelihood of ``obs[i, :lengths[i]]`` under each template.

    One forward pass per state count runs every template with that many
    states over every row and step; row i reads the running sum of log
    scaler plus shift at its last step, added step by step. Later columns
    must be finite and are never read.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if (lengths < 1).any():
        raise EmptySeries("cannot score an empty sequence")
    rows = np.arange(len(lengths))
    groups: dict[int, list[int]] = {}
    for r, model in enumerate(bank):
        groups.setdefault(model.n_states, []).append(r)
    logliks = np.empty((len(bank), len(lengths)))
    with np.errstate(divide="ignore"):
        for members in groups.values():
            *_, c, shift = _forward([bank[r] for r in members], obs[None])
            logliks[members] = np.cumsum(np.log(c) + shift, axis=0)[lengths - 1, :, rows].T
    return logliks


# -- Baum-Welch ---------------------------------------------------------------


def _kmeans_1d(values: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded Lloyd's in one dimension, at most 50 iterations; returns sorted cluster means."""
    rng = np.random.default_rng(seed)
    uniq = np.unique(values)
    if len(uniq) >= k:
        centers = np.sort(rng.choice(uniq, size=k, replace=False))
    else:
        centers = np.sort(rng.choice(values, size=k, replace=True))
    for _ in range(50):
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


def _backward(fwd: tuple, keep: Sequence[int]) -> list[tuple]:
    """Finish the forward pass ``fwd`` for the templates at positions ``keep``.

    Runs the scaled backward pass under the same shifts and scalers (over
    every template of the pass, since a step costs the same either way),
    then returns each kept template's M-step accumulators (initial,
    transition, occupancy, mean, square), summed over its stack.
    """
    trans, obs, b, alpha, c, _ = fwd
    beta = np.empty_like(b)
    beta[-1] = 1.0
    trans_t = trans.transpose(0, 2, 1)
    emitted = np.empty_like(b[0])
    for t in range(len(b) - 2, -1, -1):
        np.multiply(b[t + 1], beta[t + 1], out=emitted)
        np.matmul(emitted, trans_t, out=beta[t])
        beta[t] /= c[t + 1, ..., None]

    parts = []
    for r in keep:
        # The template's sums run over its own (S, T, K) copy, laid out as
        # in a pass over its stack alone, so they add in the same order.
        al, be, bo = (x[:, r].transpose(1, 0, 2).copy() for x in (alpha, beta, b))
        co = c[:, r].T.copy()
        gamma = al * be
        gamma /= gamma.sum(axis=2, keepdims=True)
        xi = (al[:, :-1, :, None] * trans[r]
              * (bo[:, 1:] * be[:, 1:])[:, :, None, :]) / co[:, 1:, None, None]
        parts.append((
            gamma[:, 0].sum(axis=0),
            (xi / xi.sum(axis=(2, 3), keepdims=True)).sum(axis=(0, 1)),
            gamma.sum(axis=(0, 1)),
            np.einsum("stk,st->k", gamma, obs[r]),
            np.einsum("stk,st->k", gamma, obs[r] * obs[r]),
        ))
    return parts


def _m_step(model: HmmModel, init_acc, trans_acc, gamma_acc, mean_acc, sq_acc) -> HmmModel:
    """The parameters that maximize the expected log-likelihood of ``_backward``'s sums."""
    new_means = mean_acc / gamma_acc
    new_vars = np.maximum(sq_acc / gamma_acc - new_means**2, VAR_FLOOR)
    # A state with no outgoing transition mass keeps its row instead of 0/0.
    out_mass = trans_acc.sum(axis=1, keepdims=True)
    new_trans = (np.where(out_mass > 0, trans_acc, model.transition)
                 / np.where(out_mass > 0, out_mass, 1.0))
    return HmmModel(
        route_index=model.route_index,
        n_states=model.n_states,
        initial=init_acc / init_acc.sum(),
        transition=new_trans,
        means=new_means,
        variances=new_vars,
        norm_mean=model.norm_mean,
    )


@dataclass
class BaumWelchResult:
    model: HmmModel
    loglik_history: list[float] = field(default_factory=list)
    converged: bool = False


def _em_start(sequences: Sequence[Sequence[float]], n_states: int, seed: int,
              route_index: int, norm_mean: float) -> tuple[HmmModel, list[np.ndarray]]:
    """The initial model and the stacks (S, T) of equal-length sequences.

    Emission means come from seeded 1-D K-Means over the pooled observations
    (sorted, so state identity is stable per seed), with the pooled
    variance and uniform initial and transition probabilities.
    """
    seqs = [np.asarray(s, dtype=float) for s in sequences if len(s)]
    if not seqs:
        raise EmptySeries("Baum-Welch needs at least one non-empty sequence")
    pooled = np.concatenate(seqs)
    k = n_states
    model = HmmModel(
        route_index=route_index,
        n_states=k,
        initial=np.full(k, 1.0 / k),
        transition=np.full((k, k), 1.0 / k),
        means=_kmeans_1d(pooled, k, seed=seed),
        variances=np.full(k, max(float(pooled.var()), VAR_FLOOR)),
        norm_mean=norm_mean,
    )
    return model, [np.stack([obs for obs in seqs if len(obs) == n])
                   for n in dict.fromkeys(map(len, seqs))]


def _em(starts: Sequence[tuple[HmmModel, list[np.ndarray]]], max_iter: int,
        tol: float) -> list[BaumWelchResult]:
    """One EM loop for every template of ``starts`` (initial model, stacks).

    Each iteration runs one forward pass per stack shape (S, T) over every
    template still iterating that holds a stack of that shape. A template
    whose log-likelihood gains less than ``tol`` stops there; the others
    finish their passes backward and take their M-step. Every template's
    sums add its stacks in its own order, so it ends exactly as it would
    alone. The recorded history entry i is a template's total
    log-likelihood under the parameters of iteration i, before that
    iteration's update.
    """
    results = [BaumWelchResult(model) for model, _ in starts]
    running = list(range(len(starts)))
    for _ in range(max_iter):
        groups: dict[tuple, list[tuple[int, int]]] = {}
        for r in running:
            for j, obs in enumerate(starts[r][1]):
                groups.setdefault(obs.shape, []).append((r, j))
        logliks = {r: [0.0] * len(starts[r][1]) for r in running}
        passes = []
        for members in groups.values():
            fwd = _forward([results[r].model for r, _ in members],
                           np.stack([starts[r][1][j] for r, j in members]))
            c, shift = fwd[4:]
            # Sums over time run along contiguous rows, as over one stack alone.
            lls = (np.log(c.transpose(1, 2, 0).copy()).sum(axis=2)
                   + shift.transpose(1, 2, 0).copy().sum(axis=2)).sum(axis=1)
            for (r, j), ll in zip(members, lls.tolist()):
                logliks[r][j] = ll
            passes.append((members, fwd))

        still = []
        for r in running:
            total_ll, history = sum(logliks[r]), results[r].loglik_history
            if history and total_ll - history[-1] < tol and total_ll >= history[-1] - 1e-12:
                results[r].converged = True
            else:
                still.append(r)
            history.append(total_ll)
        running = still
        if not running:
            break

        accs = {r: [()] * len(starts[r][1]) for r in running}
        for members, fwd in passes:
            keep = [i for i, (r, _) in enumerate(members) if r in accs]
            if keep:
                for i, part in zip(keep, _backward(fwd, keep)):
                    r, j = members[i]
                    accs[r][j] = part
        for r in running:
            results[r].model = _m_step(results[r].model, *(sum(a) for a in zip(*accs[r])))
    for r in running:
        logger.info("Baum-Welch hit max_iter=%d for route %d", max_iter,
                    results[r].model.route_index)
    return results


def _fit_routes(routes: Sequence[tuple[Sequence[PriceSeries], int, int]], n_states: int,
                max_iter: int, tol: float) -> list[HmmModel]:
    """One template per (series, seed, route index) of ``routes``, fit in one EM loop.

    Observations are all the route's prices divided by their overall mean.
    If every price is identical the model degenerates to a single state
    (with a warning) rather than failing: such a route is trivially
    predictable and must not break bank training.
    """
    if n_states < 1 or max_iter < 1:
        raise FarecastError(f"an HMM fit needs n_states and max_iter of at least 1, "
                            f"got {n_states} and {max_iter}")
    bank: list[Optional[HmmModel]] = []  # None where EM fits the template
    starts = []
    for route_series, seed, route_index in routes:
        prices = np.concatenate([s.prices for s in route_series])
        norm_mean = math.fsum(prices) / len(prices)
        pooled = prices / norm_mean
        if np.all(pooled == pooled[0]):
            logger.warning(
                "route %d: all prices identical, returning a degenerate single-state model",
                route_index,
            )
            bank.append(HmmModel(
                route_index=route_index,
                n_states=1,
                initial=np.array([1.0]),
                transition=np.array([[1.0]]),
                means=np.array([float(pooled[0])]),
                variances=np.array([VAR_FLOOR]),
                norm_mean=norm_mean,
                degenerate=True,
            ))
            continue
        bank.append(None)
        starts.append(_em_start([s.prices / norm_mean for s in route_series], n_states,
                                seed, route_index, norm_mean))
    fits = iter([result.model for result in _em(starts, max_iter, tol)])
    return [model if model is not None else next(fits) for model in bank]


def fit_bank(
    train_series: Sequence[PriceSeries],
    route_order: Sequence[str],
    n_states: int = 4,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
) -> list[HmmModel]:
    """One template per route, in the given route order; template i has route index i.

    Every route's template is fit in one EM loop, each exactly as a fit of
    that route alone.
    """
    routes = []
    for idx, route_id in enumerate(route_order):
        route_series = [s for s in train_series if s.key.route_id == route_id]
        if not route_series:
            raise EmptySeries(f"route {route_id} has no training series")
        routes.append((route_series, derive_seed(seed, "hmm", idx), idx))
    return _fit_routes(routes, n_states, max_iter, tol)


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
    decisions: list[PurchaseDecision]  # decisions[i] is the purchase on series i
    # Keyed by series: the hmm.generalized_predict hook of bench/tracing.py reads .values().
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
    width = dummy_width(frozen_model.n_features)
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
        decisions=[decide_classification(s, p) for s, p in zip(gen_series, predicted)],
        assignments={s.key: tuple(row) for s, row in zip(gen_series, per_row)})
