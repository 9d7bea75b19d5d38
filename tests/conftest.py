"""Shared builders and reference computations for the test suite.

Most tests need a PriceSeries with hand-picked prices; ``series_of`` builds
one with consecutive daily quotes ending a configurable number of days
before departure. ``dataset_of`` builds a Dataset from hand-written rows.
It also holds the small computations only tests need (oracle prices, a
single sequence's log-likelihood, class and coefficient read-outs), which the
package does not carry.
"""

from __future__ import annotations

import math
from datetime import date
from typing import Sequence

import numpy as np
import pytest

from farecast.core import BUY, WAIT, Dataset, PriceSeries, SeriesKey
from farecast.features import CONTINUOUS_NAMES, set_route_dummies
from farecast.hmm import _forward_rows


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


def class_counts(ds: Dataset) -> tuple[int, int]:
    """(wait, buy) row counts."""
    return int((ds.label_class == WAIT).sum()), int((ds.label_class == BUY).sum())


def coef_original(model) -> tuple[float, np.ndarray]:
    """A fitted LeastSquares' (intercept, slopes) in the unstandardized input units."""
    slopes = model.coef[1:] / model.scale
    intercept = float(model.coef[0] - (model.coef[1:] * model.mean / model.scale).sum())
    return intercept, slopes


def forward_loglik(model, observations) -> float:
    """Log-likelihood of one non-empty sequence under an HMM template."""
    obs = np.asarray(observations, dtype=float)
    return float(_forward_rows(model, obs[None], [len(obs)])[0])


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
