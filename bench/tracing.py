"""Spans around the public functions of the farecast package.

The benchmark's traced run installs these wrappers, calls
``farecast.cli.main(argv)`` in-process for each command and then turns the
recorded spans into per-layer metrics. Nothing in ``src/`` is changed: each
public module-level function of every ``farecast`` module is replaced, in
every module namespace that imported it, by a wrapper that records a span.
Two methods named by the metrics are wrapped as well:
``FeatureRow.with_dummies`` and ``Cart.fit``.

A span holds its name, start, end, parent span and command id. Spans stay in
memory until the run ends. A span opened in a worker thread that has no open
span of its own takes the innermost open span of the main thread as its
parent, so grid-search cells hang under ``tuning.grid_search``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
from collections import defaultdict

import numpy as np

ROOT = "command"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "command", "counts")

    def __init__(self, span_id, name, start, parent, command):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.command = command
        self.counts = None


class Recorder:
    """In-memory span collector shared by every wrapper of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(next(self._ids), name, time.perf_counter(), parent, self.command)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def run_command(self, label: str, fn, *args):
        """Time one CLI command under a root span; returns ``fn(*args)``."""
        self.command += 1
        span = self.open(f"{ROOT}.{label}")
        try:
            return fn(*args)
        finally:
            self.close(span)


# -- counts read from arguments and return values -----------------------------


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _fit_counts(args, kwargs, result):
    counts = {"rows": len(_arg(args, kwargs, 1, "train"))}
    summary = result.train_summary
    if result.spec.kind == "adaboost_cart":
        counts["rounds_used"] = summary["rounds_used"]
        counts["stopped_early"] = int(bool(summary["stopped_early"]))
    return counts


def _switches(result):
    return sum(sum(1 for a, b in zip(seq, seq[1:]) if a != b)
               for seq in result.assignments.values())


def _cells_counts(args, kwargs, result):
    _, table = result
    return {"cells": len(table), "failed": sum(1 for c in table if c.failed),
            "jobs": kwargs.get("jobs", 1)}


HOOKS = {
    "ingest.load_quotes": lambda a, k, r: {"quotes": sum(len(s) for s in r)},
    "features.extract_rows": lambda a, k, r: {"rows": len(r)},
    "features.to_matrix": lambda a, k, r: {"rows": len(_arg(a, k, 0, "rows"))},
    "preprocess.remove_outliers": lambda a, k, r: {
        "rows_in": len(_arg(a, k, 0, "train")), "removed": len(r[1])},
    "preprocess.gmm_em2": lambda a, k, r: {
        "iterations": len(r.loglik_history), "converged": int(r.converged)},
    "preprocess.oversample": lambda a, k, r: {
        "rows_added": len(r) - len(_arg(a, k, 0, "train"))},
    "learners.fit": _fit_counts,
    "learners.predict": lambda a, k, r: {"rows": len(_arg(a, k, 1, "rows"))},
    "tuning.grid_search": _cells_counts,
    "policy.decide_classification": lambda a, k, r: {"forced": int(r.forced)},
    "policy.decide_regression": lambda a, k, r: {"forced": int(r.forced)},
    "qlearn.q_train": lambda a, k, r: {"episodes": k.get("episodes", 200)},
    "hmm.baum_welch": lambda a, k, r: {
        "iterations": len(r.loglik_history), "converged": int(r.converged)},
    "hmm.forward_loglik": lambda a, k, r: {"steps": len(_arg(a, k, 1, "observations"))},
    "hmm.generalized_predict": lambda a, k, r: {"switches": _switches(r)},
}


def _fit_name(args, kwargs):
    return f"learners.fit.{_arg(args, kwargs, 0, 'spec').kind}"


NAMERS = {"learners.fit": _fit_name}


def _wrap(recorder: Recorder, name: str, fn):
    hook = HOOKS.get(name)
    namer = NAMERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(namer(args, kwargs) if namer else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if hook is not None:
            span.counts = hook(args, kwargs, result)
        return result

    return wrapper


def _modules(package: str):
    pkg = importlib.import_module(package)
    mods = [pkg]
    for info in pkgutil.walk_packages(pkg.__path__, package + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def install(recorder: Recorder, package: str = "farecast"):
    """Wrap every public function; returns a callable that restores them."""
    mods = _modules(package)
    wrapped = {}
    for mod in mods:
        layer = mod.__name__.split(".", 1)[1] if "." in mod.__name__ else mod.__name__
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = _wrap(recorder, f"{layer}.{attr}", obj)
    restore = []
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                restore.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])

    core = importlib.import_module(f"{package}.core")
    tree = importlib.import_module(f"{package}.learners.tree")
    for cls, attr, name in ((core.FeatureRow, "with_dummies", "core.FeatureRow.with_dummies"),
                            (tree.Cart, "fit", "learners.cart_fit")):
        original = cls.__dict__[attr]
        restore.append((cls, attr, original))
        setattr(cls, attr, _wrap(recorder, name, original))

    def undo():
        for owner, attr, original in restore:
            setattr(owner, attr, original)

    return undo


# -- analysis ------------------------------------------------------------------


def self_times(spans: list[Span]) -> np.ndarray:
    """Self seconds per span id.

    A span's self time is its duration minus the part its child spans cover.
    Where exclusive intervals of spans in different threads overlap, each
    instant is split evenly between them, so the self times of a command sum
    to at most its wall time.
    """
    n = len(spans)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent.id].append(s)
    starts, ends, owners = [], [], []
    for s in spans:
        cur = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if lo > cur:
                starts.append(cur)
                ends.append(lo)
                owners.append(s.id)
            cur = max(cur, hi)
        if s.end > cur:
            starts.append(cur)
            ends.append(s.end)
            owners.append(s.id)
    if not starts:
        return np.zeros(n)
    starts, ends = np.asarray(starts), np.asarray(ends)
    bounds = np.unique(np.concatenate([starts, ends]))
    lo = np.searchsorted(bounds, starts)
    hi = np.searchsorted(bounds, ends)
    delta = np.zeros(len(bounds))
    np.add.at(delta, lo, 1.0)
    np.add.at(delta, hi, -1.0)
    active = np.cumsum(delta)[:-1]
    width = np.diff(bounds)
    share = np.where(active > 0, width / np.maximum(active, 1.0), 0.0)
    prefix = np.concatenate([[0.0], np.cumsum(share)])
    return np.bincount(np.asarray(owners), weights=prefix[hi] - prefix[lo], minlength=n)


def summarize(spans: list[Span]) -> dict:
    """Per command and per span name: calls, self and total seconds, counts."""
    self_s = self_times(spans)
    commands = {}
    for s in spans:
        if s.parent is None and s.name.startswith(ROOT + "."):
            commands[s.command] = {"label": s.name[len(ROOT) + 1:], "wall_s": s.end - s.start,
                                   "spans": {}}
    for s in spans:
        entry = commands[s.command]["spans"].setdefault(
            s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += float(self_s[s.id])
        entry["total_s"] += s.end - s.start
        if s.counts:
            for key, value in s.counts.items():
                entry[key] = entry.get(key, 0) + value
    _add_cell_time(spans, commands)
    return commands


def _add_cell_time(spans, commands):
    """Summed fit and predict time of grid-search cells, for the busy ratio."""
    for s in spans:
        parent = s.parent
        if (parent is not None and parent.name == "tuning.grid_search"
                and (s.name.startswith("learners.fit.") or s.name == "learners.predict")):
            entry = commands[s.command]["spans"]["tuning.grid_search"]
            entry["cell_s"] = entry.get("cell_s", 0.0) + (s.end - s.start)


def totals(commands: dict) -> dict:
    """Span table summed over every command of the traced run."""
    out: dict = {}
    for cmd in commands.values():
        for name, entry in cmd["spans"].items():
            agg = out.setdefault(name, {})
            for key, value in entry.items():
                agg[key] = agg.get(key, 0) + value
    return out
