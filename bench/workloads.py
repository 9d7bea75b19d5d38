"""The three CLI sessions the benchmark runs, and the checks on their reports.

Each workload is a closed loop from one client: its commands run one after
another, each waiting for the previous one, as in the README walkthrough.
Set-up commands run in ``setup-<i>/``; a session runs in its own directory
and reads the set-up files through ``../setup-0/`` so that the paths its
reports embed are the same in every session.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("specific", "tune", "generalize")

# gen-data arguments per corpus. Standard: the specific corpus is 8 routes x
# 50 departures x 90 days; the generalized corpus is 12 routes x 1 departure x
# 90 days (the full corpus has 13 departures, and its 73 s session does not
# fit the run budget). The generalize workload trains on a specific corpus of
# 20 departures per route: with 50, a run took 40-60 s, and its ten runs
# spread by 23-30%, as the machine's speed drifted over the longer window.
# The c12 scale mirrors the acceptance suite's small corpora (8x3x10 and
# 12x2x10) for the smoke test.
SCALES = {
    "standard": {"specific": [], "specific_for_generalize": ["--departures", "20"],
                 "generalized": ["--departures", "1"]},
    "c12": {"specific": ["--departures", "3", "--horizon", "10"],
            "specific_for_generalize": ["--departures", "3", "--horizon", "10"],
            "generalized": ["--departures", "2", "--horizon", "10"]},
}

ADABOOST = json.dumps({"n_rounds": 100, "weak_depth": 3})
SETUP = "../setup-0"


@dataclass
class Step:
    label: str
    argv: list  # farecast CLI arguments
    report: Optional[str]  # JSON report the command writes, if any


@dataclass
class Plan:
    workload: str
    seed: int
    specific_seed: int
    generalized_seed: int
    scale: str

    @property
    def seeds(self) -> dict:
        """Command seeds: the README walkthrough's 5, 8 and 1, offset by --seed."""
        return {"fit": 5 + self.seed, "qlearn": 8 + self.seed, "bank": 1 + self.seed}

    def _adaboost(self, base: str) -> list:
        return [*_corpus(base), "--task", "classification", "--model", "adaboost_cart",
                "--hyperparams", ADABOOST, "--seed", str(self.seeds["fit"]),
                "--save-model", "m.json"]

    def setup_steps(self) -> list[Step]:
        corpus = "specific_for_generalize" if self.workload == "generalize" else "specific"
        steps = [Step("gen_data", ["gen-data", "--seed", str(self.specific_seed),
                                   *SCALES[self.scale][corpus], "--out", "quotes.csv",
                                   "--split-out", "split.json"], None)]
        if self.workload == "generalize":
            steps += [
                Step("gen_data_generalized", [
                    "gen-data", "--generalized", "--seed", str(self.generalized_seed),
                    *SCALES[self.scale]["generalized"], "--out", "gen.csv"], None),
                # The frozen model: the specific session's step 1, as `train`.
                Step("train_frozen", ["train", *self._adaboost("."),
                                      "--out", "frozen_train.json"], "frozen_train.json"),
                Step("train_blend", [
                    "train", *_corpus("."), "--task", "classification",
                    "--model", "uniform_blend", "--seed", str(self.seeds["fit"]),
                    "--save-model", "blend.json", "--out", "blend_train.json"],
                    "blend_train.json"),
            ]
        return steps

    def session_steps(self) -> list[Step]:
        s = self.seeds
        if self.workload == "specific":
            return [
                Step("backtest", ["backtest", *self._adaboost(SETUP), "--out", "backtest.json"],
                     "backtest.json"),
                Step("rescore", ["backtest", *_corpus(SETUP), "--load-model", "m.json",
                                 "--out", "rescore.json"], "rescore.json"),
                Step("qlearn", ["qlearn", *_corpus(SETUP), "--episodes", "200",
                                "--alpha", "0.1", "--seed", str(s["qlearn"]),
                                "--out", "qlearn.json"], "qlearn.json"),
            ]
        if self.workload == "tune":
            return [
                Step("tune", ["tune", *_corpus(SETUP), "--task", "classification",
                              "--model", "cart", "--outlier-removal", "em", "--folds", "5",
                              "--jobs", "2", "--seed", str(s["fit"]), "--out", "tune.json"],
                     "tune.json"),
            ]
        gen = [f"--gen-quotes={SETUP}/gen.csv", f"--frozen-model={SETUP}/m.json"]
        return [
            Step("generalize_fit", [
                "generalize", *_corpus(SETUP), *gen, f"--blend-model={SETUP}/blend.json",
                "--bank-out", "bank", "--per-series", "--seed", str(s["bank"]),
                "--out", "generalize_fit.json"], "generalize_fit.json"),
            Step("generalize_per_row", [
                "generalize", "--bank", "bank", *gen, "--seed", str(s["bank"]),
                "--out", "generalize_per_row.json"], "generalize_per_row.json"),
        ]


def _corpus(base: str) -> list:
    return [f"--quotes={base}/quotes.csv", f"--split-config={base}/split.json"]


# The session command that fits the workload's models, reported as fit_s.
FIT_COMMAND = {"specific": "backtest", "tune": "tune", "generalize": "generalize_fit"}

# Sessions per run at least, whatever --seconds says. The host's speed
# moves within a command, between the reference runs that bracket it; the
# mean over two sessions halves the variance that leaves in a run's figure.
MIN_SESSIONS = 2

# Reference runs side by side around each command: as many as the cores the
# session's commands keep busy. tune runs its grid on two threads, and a
# single reference run tracked its speed worse than no scaling at all.
REFERENCE_COPIES = {"specific": 1, "tune": 2, "generalize": 1}

# Wall time of each command under its metric name in bench/README.md.
NAMED_TIMES = {
    "backtest": "backtest_s",
    "rescore": "rescore_s",
    "qlearn": "qlearn_s",
    "tune": "tune_s",
    "generalize_fit": "generalize_fit_s",
    "generalize_per_row": "generalize_per_row_s",
}


def quality(reports: dict) -> dict:
    """Decision-quality figures read from one session's reports."""
    out = {}
    if "backtest" in reports:
        out["backtest_normalized_pct"] = reports["backtest"]["backtest"]["mean_normalized_pct"]
    if "qlearn" in reports:
        out["qlearn_normalized_pct"] = reports["qlearn"]["backtest"]["mean_normalized_pct"]
    if "tune" in reports:
        losses = [c["mean_loss"] for c in reports["tune"]["cv_table"] if not c["failed"]]
        out["best_cv_error"] = min(losses)
    if "generalize_per_row" in reports:
        out["transfer_normalized_pct"] = (
            reports["generalize_per_row"]["hmm"]["mean_normalized_pct"])
    if "generalize_fit" in reports:
        out["uniform_normalized_pct"] = reports["generalize_fit"]["uniform"]["mean_normalized_pct"]
    return out


def _normalized_values(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("normalized_performance_pct", "mean_normalized_pct"):
                yield value
            else:
                yield from _normalized_values(value)
    elif isinstance(node, list):
        for value in node:
            yield from _normalized_values(value)


def check_report(label: str, report: dict, gen_quotes: int) -> list[str]:
    """Output checks that need only one report; returns failure messages."""
    failures = []
    over = [v for v in _normalized_values(report) if v is not None and v > 100]
    if over:
        failures.append(f"{label}: normalized performance above 100: {over[:3]}")
    if "template_counts" in report:
        assigned = sum(sum(c.values()) for c in report["template_counts"].values())
        if assigned != gen_quotes:
            failures.append(f"{label}: template_counts sum to {assigned}, "
                            f"not the {gen_quotes} generalized quotes")
    if "cv_table" in report:
        failed = [c["spec"]["hyperparams"] for c in report["cv_table"] if c["failed"]]
        if failed:
            failures.append(f"{label}: failed grid cells {failed}")
    return failures


def check_session(reports: dict) -> list[tuple[str, str]]:
    """Checks across the reports of one session: (label, message) pairs."""
    failures = []
    if "rescore" in reports and "backtest" in reports:
        if reports["rescore"]["backtest"] != reports["backtest"]["backtest"]:
            failures.append(("rescore", "rescore backtest section differs from backtest's"))
    return failures
