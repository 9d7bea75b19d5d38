"""Tabular Q-learning over days-to-departure states.

State is the quote's days_to_departure (no price bins). Buying at state s
costs that day's price, normalized by the route's training-mean price so
routes share one value scale; waiting moves to the series' next observed
state. Waiting is impossible at state 0 and past a series' last quote, so
those transitions are never trained or consulted. Training sweeps each
series in reverse day order, which makes a single pass with gamma=1,
alpha=1 coincide with exact backward induction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import EmptySeries, FarecastError, PriceSeries
from .policy import PurchaseDecision, buy_at
from .util import derive_seed, from_jsonable, read_json, to_jsonable, write_json


@dataclass
class QTable:
    d_max: int
    buy: np.ndarray   # value of buying at state s
    wait: np.ndarray  # value of waiting at state s; index 0 is never consulted
    gamma: float
    alpha: float
    route_means: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        _check_rates(self.gamma, self.alpha)
        if not all(v > 0.0 for v in self.route_means.values()):
            raise FarecastError("Q-table route_means must be positive")
        for name, values in (("buy", self.buy), ("wait", self.wait)):
            if values.shape != (self.d_max + 1,):
                raise FarecastError(f"Q-table {name} must hold d_max + 1 = {self.d_max + 1} "
                                    f"values, got shape {values.shape}")


def save_qtable(table: QTable, path: str | Path) -> None:
    write_json(to_jsonable(table), path)


def load_qtable(path: str | Path) -> QTable:
    return read_json(path, "Q-table", lambda raw: from_jsonable(QTable, raw))


def _check_rates(gamma: float, alpha: float) -> None:
    if not 0.0 < gamma <= 1.0 or not 0.0 < alpha <= 1.0:
        raise FarecastError("gamma and alpha must lie in (0, 1]")


def _route_means(train_series: Sequence[PriceSeries]) -> dict[str, float]:
    parts: dict[str, list[np.ndarray]] = {}
    for s in train_series:
        parts.setdefault(s.key.route_id, []).append(s.prices)
    return {route: math.fsum(np.concatenate(p)) / sum(map(len, p)) for route, p in parts.items()}


def q_train(
    train_series: Sequence[PriceSeries],
    episodes: int = 200,
    gamma: float = 1.0,
    alpha: float = 0.1,
    seed: int = 0,
) -> QTable:
    """Sweep the training series ``episodes`` times in seeded shuffled order.

    Within a series, days are visited from last to first: the buy value of
    the current state is pulled toward the (negative) normalized price, and
    the wait value toward the discounted best action at the next observed
    state. The last quote of a series gets no wait update.
    """
    if not train_series:
        raise EmptySeries("Q-learning needs at least one training series")
    if episodes < 1:
        raise FarecastError(f"Q-learning needs at least 1 episode, got {episodes}")
    _check_rates(gamma, alpha)
    means = _route_means(train_series)
    # One (state, alpha * -price, next state) step per quote, in visiting
    # order. The updates run on Python floats: the same IEEE arithmetic as on
    # numpy scalars, at a fraction of the cost per operation.
    prepared = []
    for s in train_series:
        states = s.days_to_departure.tolist()
        pulls = (alpha * -(s.prices / means[s.key.route_id])).tolist()
        prepared.append(list(zip(states, pulls, states[1:] + [None]))[::-1])
    d_max = max(steps[-1][0] for steps in prepared)  # the longest first state

    keep = 1.0 - alpha
    discount = alpha * gamma
    buy = [0.0] * (d_max + 1)
    wait = [0.0] * (d_max + 1)
    rng = np.random.default_rng(derive_seed(seed, "qlearn"))
    for _ in range(episodes):
        for series_idx in rng.permutation(len(prepared)).tolist():
            for s_t, pull, s_next in prepared[series_idx]:
                buy[s_t] = keep * buy[s_t] + pull
                if s_next is not None:
                    best_next = buy[s_next]
                    # Waiting at departure (state 0) is not an option; ties keep buy.
                    if s_next and wait[s_next] > best_next:
                        best_next = wait[s_next]
                    wait[s_t] = keep * wait[s_t] + discount * best_next
    return QTable(d_max=d_max, buy=np.array(buy), wait=np.array(wait), gamma=gamma,
                  alpha=alpha, route_means=means)


def q_policy(table: QTable, s: PriceSeries) -> PurchaseDecision:
    """Buy at the first day before departure whose buy value is at least its
    wait value.

    States the table never saw score 0 for both actions, so the tie rule
    (ties favor buying) buys there. If no day triggers, the final quote is
    a forced buy.
    """
    states = s.days_to_departure
    at = np.minimum(states, table.d_max + 1)  # past d_max: the 0 appended below
    buy, wait = (np.append(values, 0.0)[at] for values in (table.buy, table.wait))
    rows = np.flatnonzero((states > 0) & (buy >= wait))
    return buy_at(s, rows[0], False) if len(rows) else buy_at(s, len(s) - 1, True)
