"""Command-line front end.

Subcommands: gen-data, tune, train, backtest, qlearn, generalize. Every
report embeds the resolved configuration and master seed, carries no
timestamps, sorts its keys, and prints floats at 6 significant digits, so a
rerun with the same inputs is byte-identical. Failures, a bad command line
included, exit 2 with a one-line JSON error record on stderr. FARECAST_LOG
sets the log level. Each subcommand imports the modules it runs when it is
called, so ``gen-data`` loads no model code: only cli, core, ingest, synthgen
and util. Because those imports run at call time, they pick up any wrapper
installed on a module's functions, as ``bench/tracing.py`` installs.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from datetime import date
from pathlib import Path
from typing import Optional, Sequence

from .core import FarecastError, PriceSeries, format_price
from .ingest import SplitConfig, load_quotes, split
from .util import (JSON_TYPES, check_json_type, derive_seed, finite, read_json, round_sig,
                   to_jsonable, write_csv, write_json)

import numpy as np

logger = logging.getLogger(__name__)


def _setup_logging() -> None:
    level = os.environ.get("FARECAST_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    return read_json(path, "config", lambda raw: check_json_type("it", raw, (dict,)))


def _setting(args, config: dict, section: Optional[str], name: str, default):
    """The flag ``--name`` when given, else ``config[section][name]`` (a null
    ``section`` is the top level), else ``default``. The section must be an
    object even when the flag is given; a config value must have the
    default's JSON type."""
    if section is not None:
        config = check_json_type(f"config {section!r}", config.get(section, {}), (dict,))
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name not in config:
        return default
    return check_json_type(f"config {name!r}", config[name], JSON_TYPES[type(default)])


def _split_config(args, config: dict) -> SplitConfig:
    if getattr(args, "split_config", None):
        return SplitConfig.from_json(args.split_config)
    if "split" in config:
        return SplitConfig.from_dict(config["split"])
    return SplitConfig.default()


def _prep_config(args, config: dict):
    from .pipeline import PreprocessConfig

    return PreprocessConfig(
        oversample=_setting(args, config, None, "oversample", True),
        outlier_removal=_setting(args, config, None, "outlier_removal", "none"))


def _metrics_csv(per_route, path: str) -> None:
    from .metrics import BacktestMetrics

    write_csv(path, [f.name for f in fields(BacktestMetrics)], (
        [int(v) if isinstance(v, bool) else f"{v:.6f}" if isinstance(v, float) else v
         for v in to_jsonable(m).values()] for m in per_route))


def _decisions_csv(decisions, series: Sequence[PriceSeries], path: str) -> None:
    """One row per series, in series order; ``decisions[i]`` is the purchase on ``series[i]``."""
    from .metrics import optimal_price, random_purchase_price

    write_csv(path, ["route_id", "departure_date", "buy_query_date", "paid_price",
                     "optimal_price", "mean_price", "forced"], (
        [s.key.route_id, s.key.departure_date.isoformat(), d.buy_query_date.isoformat(),
         format_price(d.paid_price), format_price(optimal_price(s)),
         f"{random_purchase_price(s):.6f}", int(d.forced)]
        for d, s in zip(decisions, series, strict=True)))


def _aggregate_dict(per_route, mean: float, var: float) -> dict:
    return {
        "per_route": per_route,
        "mean_normalized_pct": mean,
        "var_normalized_pct": var,
        "n_routes": len(per_route),
    }


# -- subcommands -------------------------------------------------------------


def cmd_gen_data(args) -> None:
    from . import synthgen

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
    split_cfg = synthgen.default_split_for(cfg) if args.split_out else None  # before any write
    series = synthgen.generate_corpus(cfg, seed=args.seed)
    synthgen.write_corpus_csv(series, args.out)
    if args.split_out:
        write_json(to_jsonable(split_cfg), args.split_out, indent=2)
    print(f"wrote {sum(len(s) for s in series)} quotes to {args.out}")


def _load_split_series(args, config):
    from .features import corpus_anchor
    from .pipeline import route_order

    series = load_quotes(args.quotes)
    split_cfg = _split_config(args, config)
    train_series, test_series = split(series, split_cfg)
    if not train_series or not test_series:
        raise FarecastError("the split left train or test empty; check the windows")
    anchor = corpus_anchor(series)
    routes = route_order(series)
    return series, train_series, test_series, split_cfg, anchor, routes


def cmd_tune(args) -> dict:
    from .learners import LearnerSpec
    from .pipeline import build_dataset, preprocess_for, preprocessing_of
    from .tuning import default_grid, grid_search

    config = _load_config(args.config)
    _, train_series, _, split_cfg, anchor, routes = _load_split_series(args, config)
    prep = _prep_config(args, config)

    grids = check_json_type("config 'grids'", config.get("grids", {}), (dict,))
    if args.model in grids:
        entries = grids[args.model]
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
    if args.report_csv:
        write_csv(args.report_csv, ["kind", "task", "hyperparams", "mean_loss", "var_loss",
                                    "failed"], (
            [cell.spec.kind, cell.spec.task, json.dumps(cell.spec.hyperparams, sort_keys=True),
             "" if cell.mean_loss is None else f"{cell.mean_loss:.6f}",
             "" if cell.var_loss is None else f"{cell.var_loss:.6f}", int(cell.failed)]
            for cell in table))
    return {
        "config": {
            "quotes": args.quotes,
            "split": split_cfg,
            "task": args.task,
            "model": args.model,
            "folds": args.folds,
            "preprocessing": preprocessing_of(grid[0], prep),
            "grid": grid,
        },
        "best_spec": best,
        "cv_table": table,
    }


def _spec_from_args(args):
    from .learners import LearnerSpec

    try:
        hyper = json.loads(args.hyperparams or "{}", parse_constant=finite, parse_float=finite)
    except (ValueError, RecursionError) as exc:
        raise FarecastError(f"--hyperparams is not valid JSON: {exc}") from exc
    return LearnerSpec(kind=args.model, task=args.task, hyperparams=hyper)


def cmd_train(args) -> dict:
    from .learners import save_model
    from .pipeline import preprocessing_of, train_specific

    config = _load_config(args.config)
    _, train_series, _, split_cfg, anchor, routes = _load_split_series(args, config)
    prep = _prep_config(args, config)
    spec = _spec_from_args(args)
    model = train_specific(spec, train_series, routes, anchor, prep, seed=args.seed)
    if args.save_model:
        save_model(model, args.save_model)
    return {
        "config": {
            "quotes": args.quotes,
            "split": split_cfg,
            "spec": spec,
            "preprocessing": preprocessing_of(spec, prep),
            "routes": routes,
        },
        "train_summary": model.train_summary,
        "model_path": args.save_model,
    }


def cmd_backtest(args) -> dict:
    from .features import dump_features
    from .learners import load_model, save_model
    from .metrics import simulated_random_purchase_price
    from .pipeline import (build_dataset, preprocessing_of, run_policy, score_decisions,
                           train_specific)

    config = _load_config(args.config)
    _, train_series, test_series, split_cfg, anchor, routes = _load_split_series(args, config)
    prep = _prep_config(args, config)

    if args.load_model:
        model = load_model(args.load_model)
        spec, prep = model.spec, None
    else:
        if not args.model or not args.task:
            raise FarecastError("backtest needs --load-model or --model with --task")
        spec = _spec_from_args(args)
        model = train_specific(spec, train_series, routes, anchor, prep, seed=args.seed)
        prep = preprocessing_of(spec, prep)

    decisions = run_policy(model, test_series, routes, anchor)
    per_route, mean, var = score_decisions(decisions, test_series)

    report = {
        "config": {
            "quotes": args.quotes,
            "split": split_cfg,
            "spec": spec,
            "preprocessing": prep,
            "loaded_model": args.load_model,
            "routes": routes,
            "simulate_random": args.simulate_random,
        },
        "backtest": _aggregate_dict(per_route, mean, var),
    }
    if args.simulate_random is not None:
        rng = np.random.default_rng(derive_seed(args.seed, "simulate-random"))
        sums: dict[str, list[float]] = {}
        for s in test_series:
            sums.setdefault(s.key.route_id, []).append(
                simulated_random_purchase_price(s, args.simulate_random, rng))
        report["simulated_random"] = {
            route: sum(vals) / len(vals) for route, vals in sorted(sums.items())
        }
    if args.report_csv:
        _metrics_csv(per_route, args.report_csv)
    if args.plot_data:
        _decisions_csv(decisions, test_series, args.plot_data)
    if args.dump_features:
        dump_features(build_dataset(test_series, routes, anchor, role="test"),
                      args.dump_features)
    if args.save_model and not args.load_model:
        save_model(model, args.save_model)
    return report


def cmd_qlearn(args) -> dict:
    from . import qlearn
    from .pipeline import score_decisions

    config = _load_config(args.config)
    _, train_series, test_series, split_cfg, _, _ = _load_split_series(args, config)
    episodes = _setting(args, config, "qlearn", "episodes", 200)
    gamma = _setting(args, config, "qlearn", "gamma", 1.0)
    alpha = _setting(args, config, "qlearn", "alpha", 0.1)

    if args.load_table:
        table = qlearn.load_qtable(args.load_table)
        episodes = None  # a report records only the settings that ran
    else:
        table = qlearn.q_train(train_series, episodes=episodes, gamma=gamma,
                               alpha=alpha, seed=args.seed)
    if args.save_table:
        qlearn.save_qtable(table, args.save_table)

    decisions = [qlearn.q_policy(table, s) for s in test_series]
    per_route, mean, var = score_decisions(decisions, test_series)
    if args.report_csv:
        _metrics_csv(per_route, args.report_csv)
    return {
        "config": {
            "quotes": args.quotes,
            "split": split_cfg,
            "episodes": episodes,
            "gamma": table.gamma,
            "alpha": table.alpha,
            "loaded_table": args.load_table,
        },
        "d_max": table.d_max,
        "backtest": _aggregate_dict(per_route, mean, var),
    }


def _load_bank(bank_dir: str) -> list:
    """Every ``hmm_*.json`` in ``bank_dir``, which must be hmm_0.json .. hmm_<n-1>.json,
    as HMM templates."""
    from . import hmm

    names = sorted(p.name for p in Path(bank_dir).glob("hmm_*.json"))
    expected = [f"hmm_{i}.json" for i in range(len(names))]
    if not names or names != sorted(expected):
        raise FarecastError(f"bank {bank_dir} must hold hmm_0.json .. hmm_<n-1>.json, "
                            f"found {names}")
    return [hmm.load_model(Path(bank_dir) / name) for name in expected]


def cmd_generalize(args) -> dict:
    from . import hmm
    from .features import corpus_anchor
    from .learners import load_model
    from .pipeline import run_uniform_generalized, score_decisions

    config = _load_config(args.config)
    n_states = _setting(args, config, "hmm", "n_states", 4)
    max_iter = _setting(args, config, "hmm", "max_iter", 100)
    tol = _setting(args, config, "hmm", "tol", 1e-6)

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
        n_states = max_iter = tol = None  # a report records only the settings that ran
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
    if args.report_csv:
        _metrics_csv(per_route, args.report_csv)
    return report


# -- argument parsing --------------------------------------------------------


class UsageError(FarecastError):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as UsageError instead of printing usage;
    subcommand parsers are built from the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


class _OnOff(argparse.Action):
    """Stores an ``on``/``off`` choice as true/false."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values == "on")


class _LearnerKinds:
    """The choices of ``--model``: ``learners.KINDS``, imported only when a
    command line is checked or help is printed. argparse lists the choices of
    an argument that has no metavar as soon as the argument is added."""

    def __contains__(self, kind) -> bool:
        return kind in self._kinds()

    def __iter__(self):
        return iter(self._kinds())

    @staticmethod
    def _kinds() -> tuple:
        from .learners import KINDS

        return KINDS


def _add_model(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--model", required=required, choices=_LearnerKinds(), metavar="KIND",
                   help="learner kind: %(choices)s")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed")


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--split-config", help="JSON file with the four split dates")


def _add_prep(p: argparse.ArgumentParser) -> None:
    p.add_argument("--oversample", choices=("on", "off"), action=_OnOff,
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
    _add_seed(p)
    p.add_argument("--out", required=True)
    p.add_argument("--routes", type=int, default=None)
    p.add_argument("--departures", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--generalized", action="store_true",
                   help="no-history corpus mimicking the specific routes")
    p.add_argument("--split-out", help="also write the matching split dates JSON")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("tune", help="grid search a learner by series-grouped CV")
    _add_seed(p)
    _add_config(p)
    _add_prep(p)
    p.add_argument("--quotes", required=True)
    p.add_argument("--task", required=True, choices=("classification", "regression"))
    _add_model(p, required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1,
                   help="workers that cross-validate whole folds: this process and forked ones")
    p.add_argument("--out")
    p.add_argument("--report-csv")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("train", help="fit one model on the training window")
    _add_seed(p)
    _add_config(p)
    _add_prep(p)
    p.add_argument("--quotes", required=True)
    p.add_argument("--task", required=True, choices=("classification", "regression"))
    _add_model(p, required=True)
    p.add_argument("--hyperparams", help="inline JSON hyperparameter map")
    p.add_argument("--save-model")
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("backtest", help="train (or load) a model and score the test window")
    _add_seed(p)
    _add_config(p)
    _add_prep(p)
    p.add_argument("--quotes", required=True)
    p.add_argument("--task", choices=("classification", "regression"))
    _add_model(p, required=False)
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
    _add_seed(p)
    _add_config(p)
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
    _add_seed(p)
    _add_config(p)
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
                   help="classify once per series instead of per row; this reads each "
                        "series' later prices, so its decisions are not an online backtest")
    p.add_argument("--anchor", help="ISO date anchoring query_to_departure")
    p.add_argument("--out")
    p.add_argument("--report-csv")
    p.set_defaults(func=cmd_generalize)

    return parser


# The options that name a file or a directory.
_PATH_OPTIONS = frozenset({
    "config", "split_config", "quotes", "gen_quotes", "load_model", "frozen_model",
    "blend_model", "bank", "load_table", "save_model", "save_table", "bank_out", "out",
    "split_out", "report_csv", "plot_data", "dump_features"})


def _with_paths(args: argparse.Namespace, message: str) -> str:
    """``message`` after the subcommand and the path options it was given."""
    paths = [f"--{name.replace('_', '-')} {value}" for name, value in vars(args).items()
             if name in _PATH_OPTIONS and value is not None]
    return f"{' '.join([args.command, *paths])}: {message}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand and write its report, with the command and seed, to
    ``--out`` or stdout. A FarecastError, an OSError or a floating-point
    overflow (numpy's, raised here rather than warned of) exits 2 with a
    one-line JSON error; an OSError is named by its class less ``Error``,
    and an overflow, raised where a value is used rather than where it was
    read, is told with the subcommand and the paths it was given."""
    _setup_logging()
    try:
        with np.errstate(over="raise"):
            args = build_parser().parse_args(argv)
            report = args.func(args)
        if report is not None:
            report.update(command=args.command, seed=args.seed)
            write_json(round_sig(to_jsonable(report)), args.out, indent=2)
        return 0
    except (FarecastError, OSError, FloatingPointError) as exc:
        name, message = type(exc).__name__, str(exc)
        if isinstance(exc, OSError):
            name = name.removesuffix("Error")
        elif isinstance(exc, FloatingPointError):
            message = _with_paths(args, message)
        sys.stderr.write(json.dumps({"error": name, "message": message}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
