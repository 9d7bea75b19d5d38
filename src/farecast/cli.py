"""Command-line front end.

Subcommands: gen-data, tune, train, backtest, qlearn, generalize. Every
report embeds the resolved configuration and master seed, carries no
timestamps, sorts its keys, and prints floats at 6 significant digits, so a
rerun with the same inputs is byte-identical. Failures, a bad command line
included, exit 2 with a one-line JSON error record on stderr. FARECAST_LOG
sets the log level.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from datetime import date
from pathlib import Path
from typing import Optional, Sequence

from . import hmm, qlearn, synthgen
from .core import FarecastError, PriceSeries
from .features import corpus_anchor, dump_features
from .ingest import SplitConfig, load_quotes, split
from .learners import KINDS, LearnerSpec, load_model, save_model
from .metrics import simulated_random_purchase_price
from .pipeline import (
    PreprocessConfig,
    build_dataset,
    preprocess_for,
    route_order,
    run_policy,
    run_uniform_generalized,
    score_decisions,
    train_specific,
)
from .tuning import default_grid, grid_search
from .util import derive_seed, natural_key, round_sig

import numpy as np

logger = logging.getLogger(__name__)


def _setup_logging() -> None:
    level = os.environ.get("FARECAST_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _json_object(text: str, what: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FarecastError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise FarecastError(f"{what} must be a JSON object")
    return raw


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    return _json_object(Path(path).read_text(encoding="utf-8"), f"config {path}")


def _section(config: dict, name: str) -> dict:
    """The object ``config[name]``, or {} when the key is absent."""
    value = config.get(name, {})
    if not isinstance(value, dict):
        raise FarecastError(f"config {name!r} must be a JSON object, got {value!r}")
    return value


_SETTING_TYPES = {"boolean": (bool,), "integer": (int,), "number": (int, float)}


def _setting(section: dict, name: str, default, kind: str):
    """``section[name]`` (or ``default``), which must be a JSON ``kind``;
    true and false are booleans only, never numbers."""
    value = section.get(name, default)
    if not isinstance(value, _SETTING_TYPES[kind]) or (
            kind != "boolean" and isinstance(value, bool)):
        raise FarecastError(f"config {name!r} must be a JSON {kind}, got {value!r}")
    return value


def _split_config(args, config: dict) -> SplitConfig:
    if getattr(args, "split_config", None):
        return SplitConfig.from_dict(_load_config(args.split_config))
    if "split" in config:
        return SplitConfig.from_dict(config["split"])
    return SplitConfig.default()


def _prep_config(args, config: dict) -> PreprocessConfig:
    oversample = _setting(config, "oversample", True, "boolean")
    outlier = config.get("outlier_removal", "none")
    if getattr(args, "oversample", None) is not None:
        oversample = args.oversample == "on"
    if getattr(args, "outlier_removal", None) is not None:
        outlier = args.outlier_removal
    return PreprocessConfig(oversample=oversample, outlier_removal=outlier)


def _emit_report(report: dict, out: Optional[str]) -> None:
    text = json.dumps(round_sig(report), sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _metrics_csv(per_route, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["route_id", "random_purchase_price", "optimal_price",
                         "predicted_price", "performance_pct",
                         "optimal_performance_pct", "normalized_performance_pct",
                         "normalized_defined"])
        for m in per_route:
            writer.writerow([m.route_id, f"{m.random_purchase_price:.6f}",
                             f"{m.optimal_price:.6f}", f"{m.predicted_price:.6f}",
                             f"{m.performance_pct:.6f}",
                             f"{m.optimal_performance_pct:.6f}",
                             f"{m.normalized_performance_pct:.6f}",
                             int(m.normalized_defined)])


def _decisions_csv(decisions, series: Sequence[PriceSeries], path: str) -> None:
    by_key = {s.key: s for s in series}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["route_id", "departure_date", "buy_query_date",
                         "paid_price", "optimal_price", "mean_price", "forced"])
        for key in sorted(decisions, key=lambda k: (natural_key(k.route_id),
                                                    k.departure_date)):
            d = decisions[key]
            s = by_key[key]
            prices = s.prices
            writer.writerow([key.route_id, key.departure_date.isoformat(),
                             d.buy_query_date.isoformat(), f"{d.paid_price:.3f}",
                             f"{min(prices):.3f}",
                             f"{sum(prices) / len(prices):.6f}", int(d.forced)])


def _aggregate_dict(per_route, mean: float, var: float) -> dict:
    return {
        "per_route": [m.to_dict() for m in per_route],
        "mean_normalized_pct": mean,
        "var_normalized_pct": var,
        "n_routes": len(per_route),
    }


# -- subcommands -------------------------------------------------------------


def cmd_gen_data(args) -> int:
    overrides = {}
    if args.routes is not None:
        overrides["n_routes"] = args.routes
    if args.departures is not None:
        overrides["departures_per_route"] = args.departures
    if args.horizon is not None:
        overrides["horizon_days"] = args.horizon
    if args.generalized:
        cfg = synthgen.generalized_config(**overrides)
    else:
        cfg = synthgen.GeneratorConfig(**overrides)
    quotes = synthgen.generate_corpus(cfg, seed=args.seed)
    synthgen.write_corpus_csv(quotes, args.out)
    if args.split_out:
        split_cfg = synthgen.default_split_for(cfg)
        Path(args.split_out).write_text(
            json.dumps(split_cfg.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
    print(f"wrote {len(quotes)} quotes to {args.out}")
    return 0


def _load_split_series(args, config):
    series = load_quotes(args.quotes)
    split_cfg = _split_config(args, config)
    train_series, test_series = split(series, split_cfg)
    if not train_series or not test_series:
        raise FarecastError("the split left train or test empty; check the windows")
    anchor = corpus_anchor(series)
    routes = route_order(series)
    return series, train_series, test_series, split_cfg, anchor, routes


def cmd_tune(args) -> int:
    config = _load_config(args.config)
    _, train_series, _, split_cfg, anchor, routes = _load_split_series(args, config)
    prep = _prep_config(args, config)

    grids_cfg = _section(config, "grids")
    if args.model in grids_cfg:
        entries = grids_cfg[args.model]
        if not isinstance(entries, list) or not all(isinstance(hp, dict) for hp in entries):
            raise FarecastError(f"config grids.{args.model} must be a list of JSON objects")
        grid = [LearnerSpec(kind=args.model, task=args.task, hyperparams=dict(hp))
                for hp in entries]
    else:
        grid = default_grid(args.model, args.task)

    train_ds = build_dataset(train_series, routes, anchor, role="train")

    # every spec in the grid has the task of --task
    best, table = grid_search(
        grid, train_ds, seed=derive_seed(args.seed, "tune"), k=args.folds, jobs=args.jobs,
        preprocess=lambda ds, fold_seed: preprocess_for(grid[0], ds, prep, fold_seed))
    report = {
        "command": "tune",
        "seed": args.seed,
        "config": {
            "quotes": args.quotes,
            "split": split_cfg.to_dict(),
            "task": args.task,
            "model": args.model,
            "folds": args.folds,
            "preprocessing": prep.to_dict(),
            "grid": [spec.to_dict() for spec in grid],
        },
        "best_spec": best.to_dict(),
        "cv_table": [cell.to_dict() for cell in table],
    }
    _emit_report(report, args.out)
    if args.report_csv:
        with open(args.report_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "task", "hyperparams", "mean_loss", "var_loss",
                             "failed"])
            for cell in table:
                writer.writerow([
                    cell.spec.kind, cell.spec.task,
                    json.dumps(cell.spec.hyperparams, sort_keys=True),
                    "" if cell.mean_loss is None else f"{cell.mean_loss:.6f}",
                    "" if cell.var_loss is None else f"{cell.var_loss:.6f}",
                    int(cell.failed),
                ])
    return 0


def _spec_from_args(args) -> LearnerSpec:
    hyper = _json_object(args.hyperparams, "--hyperparams") if args.hyperparams else {}
    return LearnerSpec(kind=args.model, task=args.task, hyperparams=hyper)


def cmd_train(args) -> int:
    config = _load_config(args.config)
    _, train_series, _, split_cfg, anchor, routes = _load_split_series(args, config)
    prep = _prep_config(args, config)
    spec = _spec_from_args(args)
    model = train_specific(spec, train_series, routes, anchor, prep, seed=args.seed)
    if args.save_model:
        save_model(model, args.save_model)
    report = {
        "command": "train",
        "seed": args.seed,
        "config": {
            "quotes": args.quotes,
            "split": split_cfg.to_dict(),
            "spec": spec.to_dict(),
            "preprocessing": prep.to_dict(),
            "routes": routes,
        },
        "train_summary": model.train_summary,
        "model_path": args.save_model,
    }
    _emit_report(report, args.out)
    return 0


def cmd_backtest(args) -> int:
    config = _load_config(args.config)
    _, train_series, test_series, split_cfg, anchor, routes = _load_split_series(args, config)
    prep = _prep_config(args, config)

    if args.load_model:
        model = load_model(args.load_model)
        spec = model.spec
    else:
        if not args.model or not args.task:
            raise FarecastError("backtest needs --load-model or --model with --task")
        spec = _spec_from_args(args)
        model = train_specific(spec, train_series, routes, anchor, prep, seed=args.seed)

    decisions = run_policy(model, test_series, routes, anchor)
    per_route, mean, var = score_decisions(decisions, test_series)

    report = {
        "command": "backtest",
        "seed": args.seed,
        "config": {
            "quotes": args.quotes,
            "split": split_cfg.to_dict(),
            "spec": spec.to_dict(),
            "preprocessing": prep.to_dict(),
            "loaded_model": args.load_model,
            "routes": routes,
            "simulate_random": args.simulate_random,
        },
        "backtest": _aggregate_dict(per_route, mean, var),
    }
    if args.simulate_random:
        rng = np.random.default_rng(derive_seed(args.seed, "simulate-random"))
        sums: dict[str, list[float]] = {}
        for s in test_series:
            sums.setdefault(s.key.route_id, []).append(
                simulated_random_purchase_price(s, args.simulate_random, rng))
        report["simulated_random"] = {
            route: sum(vals) / len(vals) for route, vals in sorted(sums.items())
        }
    _emit_report(report, args.out)
    if args.report_csv:
        _metrics_csv(per_route, args.report_csv)
    if args.plot_data:
        _decisions_csv(decisions, test_series, args.plot_data)
    if args.dump_features:
        dump_features(build_dataset(test_series, routes, anchor, role="test"),
                      args.dump_features)
    if args.save_model and not args.load_model:
        save_model(model, args.save_model)
    return 0


def cmd_qlearn(args) -> int:
    config = _load_config(args.config)
    _, train_series, test_series, split_cfg, _, _ = _load_split_series(args, config)
    q_cfg = _section(config, "qlearn")
    episodes = args.episodes if args.episodes is not None else _setting(
        q_cfg, "episodes", 200, "integer")
    gamma = args.gamma if args.gamma is not None else _setting(q_cfg, "gamma", 1.0, "number")
    alpha = args.alpha if args.alpha is not None else _setting(q_cfg, "alpha", 0.1, "number")

    if args.load_table:
        table = qlearn.load_qtable(args.load_table)
    else:
        table = qlearn.q_train(train_series, episodes=episodes, gamma=gamma,
                               alpha=alpha, seed=args.seed)
    if args.save_table:
        qlearn.save_qtable(table, args.save_table)

    decisions = {s.key: qlearn.q_policy(table, s) for s in test_series}
    per_route, mean, var = score_decisions(decisions, test_series)
    report = {
        "command": "qlearn",
        "seed": args.seed,
        "config": {
            "quotes": args.quotes,
            "split": split_cfg.to_dict(),
            "episodes": episodes,
            "gamma": gamma,
            "alpha": alpha,
            "loaded_table": args.load_table,
        },
        "d_max": table.d_max,
        "backtest": _aggregate_dict(per_route, mean, var),
    }
    _emit_report(report, args.out)
    if args.report_csv:
        _metrics_csv(per_route, args.report_csv)
    return 0


def _load_bank(bank_dir: str) -> list[hmm.HmmModel]:
    """Every ``hmm_*.json`` in ``bank_dir``, which must be hmm_0.json .. hmm_<n-1>.json."""
    names = sorted(p.name for p in Path(bank_dir).glob("hmm_*.json"))
    expected = [f"hmm_{i}.json" for i in range(len(names))]
    if not names or names != sorted(expected):
        raise FarecastError(f"bank {bank_dir} must hold hmm_0.json .. hmm_<n-1>.json, "
                            f"found {names}")
    return [hmm.load_model(Path(bank_dir) / name) for name in expected]


def cmd_generalize(args) -> int:
    config = _load_config(args.config)
    hmm_cfg = _section(config, "hmm")
    n_states = args.n_states if args.n_states is not None else _setting(
        hmm_cfg, "n_states", 4, "integer")
    max_iter = _setting(hmm_cfg, "max_iter", 100, "integer")
    tol = _setting(hmm_cfg, "tol", 1e-6, "number")

    gen_series = load_quotes(args.gen_quotes)
    if args.anchor:
        try:
            anchor = date.fromisoformat(args.anchor)
        except ValueError as exc:
            raise FarecastError(f"--anchor {args.anchor!r} is not an ISO date") from exc
    else:
        anchor = corpus_anchor(gen_series)

    if args.bank:
        bank = _load_bank(args.bank)
    else:
        if not args.quotes:
            raise FarecastError("generalize needs --bank or --quotes to fit one")
        _, train_series, _, _, _, routes = _load_split_series(args, config)
        bank = hmm.fit_bank(train_series, routes, n_states=n_states,
                            max_iter=max_iter, tol=tol,
                            seed=derive_seed(args.seed, "bank"))
    if args.bank_out:
        out = Path(args.bank_out)
        out.mkdir(parents=True, exist_ok=True)
        names = [f"hmm_{i}.json" for i in range(len(bank))]
        for name, model in zip(names, bank):
            hmm.save_model(model, out / name)
        # --bank reads every hmm_*.json, so templates of an earlier bank must go.
        for stale in out.glob("hmm_*.json"):
            if stale.name not in names:
                stale.unlink()

    frozen = load_model(args.frozen_model)
    result = hmm.generalized_predict(bank, frozen, gen_series, anchor=anchor,
                                     per_series=args.per_series)
    per_route, mean, var = score_decisions(result.decisions, gen_series)

    template_counts: dict[str, dict[str, int]] = {}
    for key, assigned in result.assignments.items():
        counts = template_counts.setdefault(key.route_id, {})
        for idx in assigned:
            counts[str(idx)] = counts.get(str(idx), 0) + 1

    report = {
        "command": "generalize",
        "seed": args.seed,
        "config": {
            "gen_quotes": args.gen_quotes,
            "quotes": args.quotes,
            "bank": args.bank,
            "frozen_model": args.frozen_model,
            "blend_model": args.blend_model,
            "n_states": n_states,
            "max_iter": max_iter,
            "tol": tol,
            "per_series": args.per_series,
            "anchor": anchor.isoformat(),
        },
        "hmm": _aggregate_dict(per_route, mean, var),
        "template_counts": template_counts,
    }
    if args.blend_model:
        blend = load_model(args.blend_model)
        uniform_decisions = run_uniform_generalized(blend, gen_series, anchor=anchor)
        u_route, u_mean, u_var = score_decisions(uniform_decisions, gen_series)
        report["uniform"] = _aggregate_dict(u_route, u_mean, u_var)
    _emit_report(report, args.out)
    if args.report_csv:
        _metrics_csv(per_route, args.report_csv)
    return 0


# -- argument parsing --------------------------------------------------------


class UsageError(FarecastError):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as UsageError instead of printing usage;
    subcommand parsers are built from the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--config", help="JSON config file")


def _add_split(p: argparse.ArgumentParser) -> None:
    p.add_argument("--split-config", help="JSON file with the four split dates")


def _add_prep(p: argparse.ArgumentParser) -> None:
    p.add_argument("--oversample", choices=("on", "off"), default=None,
                   help="balance classes by duplicating minority rows")
    p.add_argument("--outlier-removal", choices=("none", "kmeans", "em"), default=None,
                   help="cluster-disagreement outlier filter")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="farecast",
        description="Buy-or-wait decisions for airline tickets on historical quotes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a seeded synthetic quote corpus")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--routes", type=int, default=None)
    p.add_argument("--departures", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--generalized", action="store_true",
                   help="no-history corpus mimicking the specific routes")
    p.add_argument("--split-out", help="also write the matching split dates JSON")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("tune", help="grid search a learner by series-grouped CV")
    _add_common(p)
    _add_split(p)
    _add_prep(p)
    p.add_argument("--quotes", required=True)
    p.add_argument("--task", required=True, choices=("classification", "regression"))
    p.add_argument("--model", required=True, choices=KINDS)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1, help="worker threads for the grid cells")
    p.add_argument("--out")
    p.add_argument("--report-csv")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("train", help="fit one model on the training window")
    _add_common(p)
    _add_split(p)
    _add_prep(p)
    p.add_argument("--quotes", required=True)
    p.add_argument("--task", required=True, choices=("classification", "regression"))
    p.add_argument("--model", required=True, choices=KINDS)
    p.add_argument("--hyperparams", help="inline JSON hyperparameter map")
    p.add_argument("--save-model")
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("backtest", help="train (or load) a model and score the test window")
    _add_common(p)
    _add_split(p)
    _add_prep(p)
    p.add_argument("--quotes", required=True)
    p.add_argument("--task", choices=("classification", "regression"))
    p.add_argument("--model", choices=KINDS)
    p.add_argument("--hyperparams", help="inline JSON hyperparameter map")
    p.add_argument("--load-model")
    p.add_argument("--save-model")
    p.add_argument("--out")
    p.add_argument("--report-csv")
    p.add_argument("--plot-data", help="per-series decision CSV")
    p.add_argument("--dump-features", help="write labeled test feature rows as CSV")
    p.add_argument("--simulate-random", type=int, default=None,
                   help="extra random-purchase estimate from N uniform draws per series")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("qlearn", help="tabular Q-learning baseline")
    _add_common(p)
    _add_split(p)
    p.add_argument("--quotes", required=True)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--save-table")
    p.add_argument("--load-table")
    p.add_argument("--out")
    p.add_argument("--report-csv")
    p.set_defaults(func=cmd_qlearn)

    p = sub.add_parser("generalize", help="HMM template assignment for no-history routes")
    _add_common(p)
    _add_split(p)
    p.add_argument("--gen-quotes", required=True)
    p.add_argument("--frozen-model", required=True)
    p.add_argument("--quotes", help="specific corpus, used when fitting the bank")
    p.add_argument("--bank", help="directory with hmm_0.json .. hmm_<n-1>.json, "
                                  "one per specific route")
    p.add_argument("--bank-out", help="directory to save the fitted bank; other "
                                      "hmm_*.json files there are removed")
    p.add_argument("--blend-model", help="uniform_blend model for the voting variant")
    p.add_argument("--n-states", type=int, default=None)
    p.add_argument("--per-series", action="store_true",
                   help="classify once per series instead of per row")
    p.add_argument("--anchor", help="ISO date anchoring query_to_departure")
    p.add_argument("--out")
    p.add_argument("--report-csv")
    p.set_defaults(func=cmd_generalize)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (FarecastError, FileNotFoundError) as exc:
        name = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        sys.stderr.write(json.dumps({"error": name, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
