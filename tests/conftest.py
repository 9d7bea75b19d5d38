"""Shared builders for the test suite.

Most tests need a PriceSeries with hand-picked prices; ``series_of`` builds
one with consecutive daily quotes ending a configurable number of days
before departure. ``dataset_of`` builds a Dataset from hand-written rows.
"""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest

from farecast.core import Dataset, PriceSeries, SeriesKey
from farecast.features import CONTINUOUS_NAMES, set_route_dummies


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
