"""End-to-end CLI flows on small seeded corpora."""

import contextlib
import copy
import csv
import hashlib
import importlib
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tomllib
import warnings
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import farecast
from farecast.cli import main
from farecast.ingest import load_quotes
from farecast.learners import IncompatibleSpec, model_from_dict
from farecast.tuning import cv_folds
from farecast.util import derive_seed, round_sig


def run_cli(argv, capsys=None):
    code = main(argv)
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small specific corpus (8 routes) plus its split file."""
    root = tmp_path_factory.mktemp("cli")
    quotes = root / "quotes.csv"
    split_json = root / "split.json"
    code = main([
        "gen-data", "--seed", "3", "--out", str(quotes),
        "--routes", "8", "--departures", "5", "--horizon", "12",
        "--split-out", str(split_json),
    ])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def gen_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_gen")
    gen_quotes = root / "gen.csv"
    code = main([
        "gen-data", "--generalized", "--seed", "7", "--out", str(gen_quotes),
        "--routes", "12", "--departures", "2", "--horizon", "10",
    ])
    assert code == 0
    return gen_quotes


def base_args(workdir, extra):
    return [
        "--quotes", str(workdir / "quotes.csv"),
        "--split-config", str(workdir / "split.json"),
    ] + extra


# -- gen-data -----------------------------------------------------------------


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_data_writes_corpus_and_split(workdir, capsys):
    quotes = workdir / "quotes.csv"
    with open(quotes, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["route_id", "departure_date", "query_date", "price"]
    assert len(rows) - 1 == 8 * 5 * 12
    assert rows[1] == ["R1", "2015-11-20", "2015-11-09", "86.843"]
    assert sha256(quotes) == "71ded6f9e3ebd523a6298d5409fdb6f983489dd6bb5868397d5bf492b70d463d"
    split_cfg = json.loads((workdir / "split.json").read_text())
    assert set(split_cfg) == {"train_start", "train_end", "test_start", "test_end"}


def test_gen_data_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["gen-data", "--seed", "9", "--out", str(out),
                     "--routes", "2", "--departures", "2", "--horizon", "9"]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["--routes", "2", "--departures", "1", "--horizon", "8"],
     "a split needs at least 2 departures per route, one per window"),
    (["--routes", "1", "--departures", "1", "--horizon", "3000000"],
     "the last departure would fall 2999999 days after 2015-11-09, past 9999-12-31"),
    (["--routes", "1", "--departures", "3000000"],
     "the last departure would fall 3000088 days after 2015-11-09, past 9999-12-31"),
], ids=["split-of-one-departure", "horizon-past-9999", "departures-past-9999"])
def test_gen_data_bad_config_exits_two_before_writing(tmp_path, capsys, argv, message):
    quotes, split_json = tmp_path / "q.csv", tmp_path / "split.json"
    capsys.readouterr()
    assert main(["gen-data", "--seed", "1", "--out", str(quotes), *argv,
                 "--split-out", str(split_json)]) == 2
    assert one_line_error(capsys.readouterr().err) == {"error": "InvalidConfig",
                                                       "message": message}
    assert not quotes.exists() and not split_json.exists()


# sha256 of each file gen-data writes for the benchmark's standard corpora.
BENCH_CORPORA = {
    "specific": (["--seed", "11"], {
        "q.csv": "f5351a7666499ed8adcc3682d302241dac59ad4b9ae83a1f2269339517b7fb98",
        "split.json": "b6134037815821f298a8e9e468bb44d8e7bed004137aa8cccc2f4420df964700"}),
    "specific-for-generalize": (["--seed", "11", "--departures", "20"], {
        "q.csv": "a73aa86cf484f14b9b974ade0888be8b7eea374c0c3fec06016ee6e614754d61",
        "split.json": "aabc74738a24ae4d56e8c55891e1a32e3683489f87728b9f10bfc1b2dccf0bbb"}),
    "generalized": (["--generalized", "--seed", "23", "--departures", "1"], {
        "q.csv": "8c3f5b6179196b5cacd51030f66a4ed0862efef11884816a5c22addcb87dcd96"}),
}


@pytest.mark.parametrize("corpus", list(BENCH_CORPORA))
def test_gen_data_writes_the_bench_corpora_byte_for_byte(tmp_path, corpus):
    argv, digests = BENCH_CORPORA[corpus]
    split_out = ["--split-out", str(tmp_path / "split.json")] if "split.json" in digests else []
    assert main(["gen-data", *argv, "--out", str(tmp_path / "q.csv"), *split_out]) == 0
    assert {name: sha256(tmp_path / name) for name in digests} == digests


def test_gen_data_generalized_routes(gen_corpus):
    with open(gen_corpus, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    routes = {r[0] for r in rows}
    assert routes == {f"R{n}" for n in range(9, 21)}


# -- backtest -----------------------------------------------------------------


def read_report(path):
    return json.loads(path.read_text())


def test_backtest_report_structure(workdir):
    out = workdir / "backtest.json"
    code = main(["backtest"] + base_args(workdir, [
        "--task", "classification", "--model", "cart",
        "--hyperparams", '{"max_depth": 3}',
        "--seed", "5", "--out", str(out),
    ]))
    assert code == 0
    report = read_report(out)
    assert report["command"] == "backtest"
    assert report["seed"] == 5
    bt = report["backtest"]
    assert bt["n_routes"] == 8
    assert len(bt["per_route"]) == 8
    assert [m["route_id"] for m in bt["per_route"]] == [f"R{i}" for i in range(1, 9)]
    for m in bt["per_route"]:
        assert set(m) >= {"random_purchase_price", "optimal_price", "predicted_price",
                          "performance_pct", "normalized_performance_pct"}
    assert isinstance(bt["mean_normalized_pct"], float)
    assert "split" in report["config"]
    assert report["config"]["spec"]["kind"] == "cart"


def test_backtest_is_regenerable_byte_identical(workdir):
    outs = []
    for name in ("r1.json", "r2.json"):
        out = workdir / name
        code = main(["backtest"] + base_args(workdir, [
            "--task", "classification", "--model", "knn",
            "--hyperparams", '{"k": 3}', "--seed", "4", "--out", str(out),
        ]))
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_train_then_load_matches_fresh_train(workdir):
    model_path = workdir / "model.json"
    train_out = workdir / "train.json"
    code = main(["train"] + base_args(workdir, [
        "--task", "classification", "--model", "adaboost_cart",
        "--hyperparams", '{"n_rounds": 10, "weak_depth": 1}',
        "--seed", "6", "--save-model", str(model_path), "--out", str(train_out),
    ]))
    assert code == 0
    assert model_path.exists()
    train_report = read_report(train_out)
    assert train_report["command"] == "train"
    assert "train_summary" in train_report

    fresh_out = workdir / "fresh.json"
    loaded_out = workdir / "loaded.json"
    code = main(["backtest"] + base_args(workdir, [
        "--task", "classification", "--model", "adaboost_cart",
        "--hyperparams", '{"n_rounds": 10, "weak_depth": 1}',
        "--seed", "6", "--out", str(fresh_out),
    ]))
    assert code == 0
    code = main(["backtest"] + base_args(workdir, [
        "--load-model", str(model_path), "--seed", "6", "--out", str(loaded_out),
    ]))
    assert code == 0
    assert read_report(fresh_out)["backtest"] == read_report(loaded_out)["backtest"]


def test_backtest_saves_the_model_train_saves_and_a_reload_scores_the_same(workdir, tmp_path):
    fit = ["--task", "classification", "--model", "adaboost_cart",
           "--hyperparams", '{"n_rounds": 10, "weak_depth": 2}', "--seed", "6"]
    trained, backtested = tmp_path / "trained.json", tmp_path / "backtested.json"
    saving_out, loaded_out = tmp_path / "saving.json", tmp_path / "loaded.json"
    assert main(["train", *base_args(workdir, [*fit, "--save-model", str(trained)])]) == 0
    assert main(["backtest", *base_args(workdir, [
        *fit, "--save-model", str(backtested), "--out", str(saving_out)])]) == 0
    assert backtested.read_bytes() == trained.read_bytes()
    assert main(["backtest", *base_args(workdir, [
        "--load-model", str(backtested), "--out", str(loaded_out)])]) == 0
    assert read_report(loaded_out)["backtest"] == read_report(saving_out)["backtest"]


def test_oversample_off_flag_is_the_config_setting(workdir, tmp_path):
    fit = ["--task", "classification", "--model", "cart", "--hyperparams", '{"max_depth": 3}',
           "--seed", "5"]
    config = write(tmp_path / "c.json", json.dumps({"oversample": False}))
    backtests = {}
    for name, extra in (("on", ["--oversample", "on"]), ("off", ["--oversample", "off"]),
                        ("config", ["--config", str(config)])):
        out = tmp_path / f"{name}.json"
        assert main(["backtest", *base_args(workdir, [*fit, *extra, "--out", str(out)])]) == 0
        backtests[name] = read_report(out)["backtest"]
    assert backtests["off"] == backtests["config"] != backtests["on"]


def test_input_that_leaves_nothing_to_fit_exits_two(workdir, gen_corpus, frozen_and_blend,
                                                    tmp_path, capsys):
    fit = ["--task", "classification", "--model", "cart"]
    # The default split windows hold none of the synthetic corpus's departures.
    assert main(["backtest", "--quotes", str(workdir / "quotes.csv"), *fit]) == 2
    assert one_line_error(capsys.readouterr().err) == {
        "error": "FarecastError",
        "message": "the split left train or test empty; check the windows"}
    empty = write(tmp_path / "empty.csv", "")
    assert main(["backtest", *base_args(workdir, fit), "--quotes", str(empty)]) == 2
    assert one_line_error(capsys.readouterr().err) == {
        "error": "ParseError", "message": "line 1: empty file (header required)"}
    header = write(tmp_path / "header.csv", "route_id,departure_date,query_date,price\n")
    assert main(["generalize", *base_args(workdir, []), "--gen-quotes", str(header),
                 "--frozen-model", str(frozen_and_blend[0])]) == 2
    assert one_line_error(capsys.readouterr().err)["error"] == "EmptySeries"


def test_backtest_side_outputs(workdir):
    out = workdir / "side.json"
    report_csv = workdir / "metrics.csv"
    plot_csv = workdir / "decisions.csv"
    feats_csv = workdir / "features.csv"
    code = main(["backtest"] + base_args(workdir, [
        "--task", "classification", "--model", "cart",
        "--hyperparams", '{"max_depth": 2}', "--seed", "5",
        "--out", str(out), "--report-csv", str(report_csv),
        "--plot-data", str(plot_csv), "--dump-features", str(feats_csv),
        "--simulate-random", "50",
    ]))
    assert code == 0
    # The csv module's default dialect: CRLF line ends, quotes only where needed.
    assert report_csv.read_bytes() == (
        b"route_id,random_purchase_price,optimal_price,predicted_price,performance_pct,"
        b"optimal_performance_pct,normalized_performance_pct,normalized_defined\r\n"
        b"R1,94.025167,72.793500,87.553000,6.883441,22.580834,30.483554,1\r\n"
        b"R2,100.853542,60.645000,62.283500,38.243616,39.868250,95.924995,1\r\n"
        b"R3,341.304083,259.724500,312.830000,8.342732,23.902317,34.903443,1\r\n"
        b"R4,74.502250,59.532500,69.358000,6.904825,20.093017,34.364301,1\r\n"
        b"R5,79.424292,55.107000,67.493500,15.021590,30.616945,49.062995,1\r\n"
        b"R6,134.145500,95.274000,121.535000,9.400614,28.977118,32.441506,1\r\n"
        b"R7,170.344000,124.156000,161.313000,5.301625,27.114545,19.552698,1\r\n"
        b"R8,164.134583,113.728000,154.283000,6.002137,30.710520,19.544239,1\r\n")
    # One decision per test series.
    assert plot_csv.read_bytes() == (
        b"route_id,departure_date,buy_query_date,paid_price,optimal_price,mean_price,forced\r\n"
        b"R1,2015-11-23,2015-11-12,87.537,58.581,92.977583,0\r\n"
        b"R1,2015-11-24,2015-11-13,87.569,87.006,95.072750,0\r\n"
        b"R2,2015-11-23,2015-11-12,60.761,60.761,102.210167,0\r\n"
        b"R2,2015-11-24,2015-11-13,63.806,60.529,99.496917,0\r\n"
        b"R3,2015-11-23,2015-11-12,310.468,204.257,329.908500,0\r\n"
        b"R3,2015-11-24,2015-11-13,315.192,315.192,352.699667,0\r\n"
        b"R4,2015-11-23,2015-11-12,67.981,67.981,75.565667,0\r\n"
        b"R4,2015-11-24,2015-11-13,70.735,51.084,73.438833,0\r\n"
        b"R5,2015-11-23,2015-11-12,66.228,52.370,78.985167,0\r\n"
        b"R5,2015-11-24,2015-11-13,68.759,57.844,79.863417,0\r\n"
        b"R6,2015-11-23,2015-11-12,120.765,120.765,138.538833,0\r\n"
        b"R6,2015-11-24,2015-11-13,122.305,69.783,129.752167,0\r\n"
        b"R7,2015-11-23,2015-11-12,159.625,159.625,177.212333,0\r\n"
        b"R7,2015-11-24,2015-11-13,163.001,88.687,163.475667,0\r\n"
        b"R8,2015-11-23,2015-11-12,152.675,121.256,164.402583,0\r\n"
        b"R8,2015-11-24,2015-11-13,155.891,106.200,163.866583,0\r\n")
    with open(feats_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == 8 * 2 * 12  # every test quote becomes a row
    assert sha256(feats_csv) == "73096f02e1b031ea1db0f82f357c040b6f828f03ca740cffe57df07dee4ac0a6"
    report = read_report(out)
    assert set(report["simulated_random"]) == {f"R{i}" for i in range(1, 9)}


def test_backtest_without_model_or_load_fails(workdir, capsys):
    code = main(["backtest"] + base_args(workdir, ["--seed", "1"]))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FarecastError"
    assert "--load-model" in err["message"] or "--model" in err["message"]


def test_missing_quotes_file_exits_two(workdir, capsys, tmp_path):
    code = main(["backtest", "--quotes", str(tmp_path / "nope.csv"),
                 "--task", "classification", "--model", "cart"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] in ("FileNotFound", "ParseError")


def test_readme_library_use_block_runs_and_matches_backtest(tmp_path, monkeypatch):
    """README's "Library use" block runs as written, one decision per test series,
    and scores what `backtest` with the same spec and seed reports."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    assert main(["gen-data", "--seed", "3", "--out", "quotes.csv", "--routes", "8",
                 "--departures", "5", "--horizon", "12", "--split-out", "split.json"]) == 0
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert len(names["decisions"]) == len(names["test"]) > 0
    assert main(["backtest", "--quotes", "quotes.csv", "--split-config", "split.json",
                 "--model", "adaboost_cart", "--task", "classification", "--hyperparams",
                 json.dumps(names["spec"].hyperparams), "--seed", "5", "--out", "bt.json"]) == 0
    report = read_report(tmp_path / "bt.json")["backtest"]
    assert report["mean_normalized_pct"] == round_sig(names["mean_normalized"])
    assert report["n_routes"] == len(names["per_route"]) == 8


# -- tune ---------------------------------------------------------------------


def test_tune_with_config_grid(workdir):
    cfg_path = workdir / "tune_cfg.json"
    cfg_path.write_text(json.dumps({
        "grids": {"cart": [{"max_depth": 2}, {"max_depth": 4}]},
    }))
    out = workdir / "tune.json"
    table_csv = workdir / "tune.csv"
    code = main(["tune"] + base_args(workdir, [
        "--task", "classification", "--model", "cart",
        "--config", str(cfg_path), "--seed", "2",
        "--out", str(out), "--report-csv", str(table_csv),
    ]))
    assert code == 0
    report = read_report(out)
    assert report["command"] == "tune"
    assert len(report["cv_table"]) == 2
    assert report["best_spec"]["kind"] == "cart"
    best_depth = report["best_spec"]["hyperparams"]["max_depth"]
    assert best_depth in (2, 4)
    best_cell = min((c for c in report["cv_table"] if not c["failed"]),
                    key=lambda c: c["mean_loss"])
    assert best_cell["spec"]["hyperparams"]["max_depth"] == best_depth
    assert table_csv.read_bytes() == (
        b"kind,task,hyperparams,mean_loss,var_loss,failed\r\n"
        b'cart,classification,"{""max_depth"": 2}",0.249167,0.051614,0\r\n'
        b'cart,classification,"{""max_depth"": 4}",0.107500,0.000503,0\r\n')


GOLDEN = Path(__file__).parent / "data" / "tune"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("model, task", [
    ("cart", "classification"), ("cart", "regression"),
    ("adaboost_cart", "classification"), ("adaboost_cart", "regression"),
])
def test_tune_stock_grid_matches_the_per_cell_search(workdir, tmp_path, model, task, jobs):
    out = tmp_path / "tune.json"
    assert main(["tune", *base_args(workdir, [
        "--task", task, "--model", model, "--jobs", jobs, "--out", str(out)])]) == 0
    report = read_report(out)
    golden = json.loads((GOLDEN / f"tune_{model}_{task}.json").read_text(encoding="utf-8"))
    assert {key: report[key] for key in ("best_spec", "cv_table")} == golden


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("method", ["em", "kmeans"])
def test_tune_with_outlier_removal_matches_the_recorded_table(workdir, tmp_path, method, jobs):
    out = tmp_path / "tune.json"
    assert main(["tune", *base_args(workdir, [
        "--task", "classification", "--model", "cart", "--outlier-removal", method,
        "--jobs", jobs, "--out", str(out)])]) == 0
    report = read_report(out)
    golden = json.loads((GOLDEN / f"tune_cart_classification_{method}.json").read_text(
        encoding="utf-8"))
    assert {key: report[key] for key in ("best_spec", "cv_table")} == golden


def test_tune_exits_two_on_a_forked_fold_error_as_on_one_job(tmp_path, capsys):
    # Ten one-route training series at one constant price, all rows BUY, but
    # for fold 1's two, whose prices vary: only fold 1's training rows are
    # one class, so only its oversampling fails. With --jobs 2 fold 1 runs
    # in the forked worker.
    seed = 4
    varying = cv_folds(10, k=5, seed=derive_seed(seed, "tune"))[1]
    write_corpus(tmp_path / "q.csv", [
        ("R1", date(2016, 2, 1) + timedelta(days=i),
         [(d, 100.0 + (d if i in varying else 0)) for d in (9, 6, 3)]) for i in range(12)])
    write(tmp_path / "split.json", json.dumps({
        "train_start": "2016-02-01", "train_end": "2016-02-10",
        "test_start": "2016-02-11", "test_end": "2016-02-12"}))
    errors = []
    for jobs in ("1", "2"):
        capsys.readouterr()
        assert main(["tune", "--quotes", str(tmp_path / "q.csv"),
                     "--split-config", str(tmp_path / "split.json"), "--task", "classification",
                     "--model", "cart", "--seed", str(seed), "--jobs", jobs]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert one_line_error(errors[1]) == {"error": "SingleClassDataset",
                                         "message": "oversampling needs both classes"}


def test_tune_logs_the_same_lines_in_fold_order_on_any_job_count(workdir, caplog):
    logs = []
    for jobs in ("1", "2"):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="farecast"):
            assert main(["tune", *base_args(workdir, [
                "--task", "classification", "--model", "cart", "--outlier-removal", "em",
                "--jobs", jobs, "--out", os.devnull])]) == 0
        logs.append([(r.name, r.levelname, r.getMessage()) for r in caplog.records])
    assert logs[0] == logs[1]
    assert sum(m.startswith("outlier removal dropped") for _, _, m in logs[0]) == 5


@pytest.mark.parametrize("folds", ["1", "0", "-1"])
def test_tune_needs_two_folds(workdir, tmp_path, capsys, folds):
    capsys.readouterr()
    out = tmp_path / "tune.json"
    assert main(["tune", *base_args(workdir, [
        "--task", "classification", "--model", "cart", "--folds", folds,
        "--out", str(out)])]) == 2
    assert "at least 2 folds" in one_line_error(capsys.readouterr().err)["message"]
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_tune_needs_one_job(workdir, tmp_path, capsys, jobs):
    capsys.readouterr()
    out = tmp_path / "tune.json"
    assert main(["tune", *base_args(workdir, [
        "--task", "classification", "--model", "cart", "--jobs", jobs,
        "--out", str(out)])]) == 2
    assert "at least 1 job" in one_line_error(capsys.readouterr().err)["message"]
    assert not out.exists()


# -- qlearn ---------------------------------------------------------------------


def test_qlearn_round_trip(workdir):
    table_path = workdir / "qtable.json"
    out1 = workdir / "q1.json"
    code = main(["qlearn"] + base_args(workdir, [
        "--episodes", "20", "--alpha", "0.5", "--seed", "8",
        "--save-table", str(table_path), "--out", str(out1),
    ]))
    assert code == 0
    report = read_report(out1)
    assert report["command"] == "qlearn"
    assert report["d_max"] == 11
    assert report["backtest"]["n_routes"] == 8
    assert report["config"]["episodes"] == 20

    out2 = workdir / "q2.json"
    code = main(["qlearn"] + base_args(workdir, [
        "--load-table", str(table_path), "--seed", "8", "--out", str(out2),
    ]))
    assert code == 0
    assert read_report(out1)["backtest"] == read_report(out2)["backtest"]


# -- generalize ------------------------------------------------------------------


@pytest.fixture(scope="module")
def frozen_and_blend(workdir):
    frozen = workdir / "frozen.json"
    code = main(["train"] + base_args(workdir, [
        "--task", "classification", "--model", "cart",
        "--hyperparams", '{"max_depth": 3}', "--seed", "5",
        "--save-model", str(frozen),
    ]))
    assert code == 0
    blend = workdir / "blend.json"
    code = main(["train"] + base_args(workdir, [
        "--task", "classification", "--model", "uniform_blend",
        "--hyperparams", '{"member_kind": "cart", "member_params": {"max_depth": 2}}',
        "--seed", "5", "--save-model", str(blend),
    ]))
    assert code == 0
    return frozen, blend


def test_generalize_fit_bank_and_reuse(workdir, gen_corpus, frozen_and_blend):
    frozen, blend = frozen_and_blend
    cfg_path = workdir / "gen_cfg.json"
    cfg_path.write_text(json.dumps({"hmm": {"max_iter": 15}}))
    bank_dir = workdir / "bank"
    out1 = workdir / "gen1.json"
    code = main(["generalize"] + base_args(workdir, [
        "--gen-quotes", str(gen_corpus), "--frozen-model", str(frozen),
        "--config", str(cfg_path), "--n-states", "2", "--seed", "1",
        "--bank-out", str(bank_dir), "--blend-model", str(blend),
        "--out", str(out1),
    ]))
    assert code == 0
    for i in range(8):
        assert (bank_dir / f"hmm_{i}.json").exists()
    report = read_report(out1)
    assert report["command"] == "generalize"
    assert report["hmm"]["n_routes"] == 12
    assert report["uniform"]["n_routes"] == 12
    assert set(report["template_counts"]) == {f"R{n}" for n in range(9, 21)}
    for counts in report["template_counts"].values():
        assert sum(counts.values()) == 2 * 10  # 2 series x 10 rows per route

    # a saved bank must reproduce the identical report
    out2 = workdir / "gen2.json"
    code = main(["generalize"] + base_args(workdir, [
        "--gen-quotes", str(gen_corpus), "--frozen-model", str(frozen),
        "--config", str(cfg_path), "--n-states", "2", "--seed", "1",
        "--bank", str(bank_dir), "--blend-model", str(blend),
        "--out", str(out2),
    ]))
    assert code == 0
    r1, r2 = read_report(out1), read_report(out2)
    assert r1["hmm"] == r2["hmm"]
    assert r1["uniform"] == r2["uniform"]
    assert r1["template_counts"] == r2["template_counts"]


GOLDEN_BANK = Path(__file__).parent / "data" / "bank"


def test_generalize_bank_out_matches_the_recorded_bank(workdir, gen_corpus, frozen_and_blend,
                                                       tmp_path):
    bank = tmp_path / "bank"
    assert main(["generalize", *base_args(workdir, [
        "--gen-quotes", str(gen_corpus), "--frozen-model", str(frozen_and_blend[0]),
        "--seed", "1", "--bank-out", str(bank), "--out", str(tmp_path / "gen.json")])]) == 0
    names = sorted(p.name for p in GOLDEN_BANK.glob("hmm_*.json"))
    assert names == [f"hmm_{i}.json" for i in range(8)]
    assert sorted(p.name for p in bank.iterdir()) == names
    for name in names:
        assert (bank / name).read_bytes() == (GOLDEN_BANK / name).read_bytes(), name


@pytest.mark.parametrize("flags, name", [([], "generalize_per_row.json"),
                                         (["--per-series"], "generalize_per_series.json")])
def test_generalize_with_the_recorded_bank_matches_the_recorded_report(
        workdir, gen_corpus, frozen_and_blend, tmp_path, monkeypatch, flags, name):
    # Relative paths, as the README's commands give them, so the report's
    # config matches too.
    shutil.copy(gen_corpus, tmp_path / "gen.csv")
    shutil.copy(frozen_and_blend[0], tmp_path / "frozen.json")
    (tmp_path / "bank").mkdir()
    for template in GOLDEN_BANK.glob("hmm_*.json"):
        shutil.copy(template, tmp_path / "bank")
    monkeypatch.chdir(tmp_path)
    assert main(["generalize", "--gen-quotes", "gen.csv", "--frozen-model", "frozen.json",
                 "--bank", "bank", *flags, "--out", name]) == 0
    assert (tmp_path / name).read_bytes() == (GOLDEN_BANK / name).read_bytes()


def test_generalize_per_series_flag(workdir, gen_corpus, frozen_and_blend):
    frozen, _ = frozen_and_blend
    cfg_path = workdir / "gen_cfg.json"
    out = workdir / "gen_ps.json"
    code = main(["generalize"] + base_args(workdir, [
        "--gen-quotes", str(gen_corpus), "--frozen-model", str(frozen),
        "--config", str(cfg_path), "--n-states", "2", "--seed", "1",
        "--bank", str(workdir / "bank"), "--per-series", "--out", str(out),
    ]))
    assert code == 0
    report = read_report(out)
    assert report["config"]["per_series"] is True
    # one classification per series: each series contributes one template
    for counts in report["template_counts"].values():
        for n in counts.values():
            assert n % 10 == 0  # whole series of 10 rows share one template


def test_generalize_requires_bank_or_quotes(gen_corpus, workdir, frozen_and_blend, capsys):
    frozen, _ = frozen_and_blend
    code = main([
        "generalize", "--gen-quotes", str(gen_corpus),
        "--frozen-model", str(frozen), "--seed", "1",
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "bank" in err["message"]


def one_line_error(stderr: str) -> dict:
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


# -- route counts other than 8 ---------------------------------------------------


@pytest.mark.parametrize("n_routes", [4, 9])
def test_route_count_follows_the_corpus(tmp_path, gen_corpus, frozen_and_blend, capsys,
                                        n_routes):
    quotes, split_json = tmp_path / "quotes.csv", tmp_path / "split.json"
    assert main(["gen-data", "--seed", "3", "--out", str(quotes), "--routes", str(n_routes),
                 "--departures", "4", "--horizon", "10", "--split-out", str(split_json)]) == 0
    data = ["--quotes", str(quotes), "--split-config", str(split_json)]
    frozen, blend = tmp_path / "frozen.json", tmp_path / "blend.json"
    assert main(["train", *data, "--task", "classification", "--model", "cart",
                 "--seed", "5", "--save-model", str(frozen)]) == 0
    out = tmp_path / "backtest.json"
    assert main(["backtest", *data, "--load-model", str(frozen), "--out", str(out)]) == 0
    assert read_report(out)["backtest"]["n_routes"] == n_routes
    assert main(["train", *data, "--task", "classification", "--model", "uniform_blend",
                 "--hyperparams", '{"member_kind": "cart"}', "--seed", "5",
                 "--save-model", str(blend)]) == 0

    bank = tmp_path / "bank"
    generalize = ["generalize", *data, "--gen-quotes", str(gen_corpus),
                  "--n-states", "2", "--seed", "1"]
    fit_out, reuse_out = tmp_path / "fit.json", tmp_path / "reuse.json"
    assert main([*generalize, "--frozen-model", str(frozen), "--blend-model", str(blend),
                 "--bank-out", str(bank), "--out", str(fit_out)]) == 0
    assert sorted(p.name for p in bank.iterdir()) == sorted(
        f"hmm_{i}.json" for i in range(n_routes))
    assert main([*generalize, "--frozen-model", str(frozen), "--blend-model", str(blend),
                 "--bank", str(bank), "--out", str(reuse_out)]) == 0
    fitted, reused = read_report(fit_out), read_report(reuse_out)
    assert fitted["hmm"] == reused["hmm"] and fitted["uniform"] == reused["uniform"]
    assert {int(i) for counts in fitted["template_counts"].values()
            for i in counts} <= set(range(n_routes))

    capsys.readouterr()
    # the 8-route frozen model can score neither these rows nor this bank
    eight_route_frozen, _ = frozen_and_blend
    assert main(["backtest", *data, "--load-model", str(eight_route_frozen)]) == 2
    assert one_line_error(capsys.readouterr().err) == {
        "error": "FeatureMismatch",
        "message": f"model expects 13 features, rows have {n_routes + 5}"}
    assert main([*generalize, "--frozen-model", str(eight_route_frozen),
                 "--bank", str(bank)]) == 2
    assert "the frozen model needs 0..7" in one_line_error(capsys.readouterr().err)["message"]

    # a gap in the template files is not a bank
    (bank / "hmm_1.json").unlink()
    assert main([*generalize, "--frozen-model", str(frozen), "--bank", str(bank)]) == 2
    assert "hmm_0.json" in one_line_error(capsys.readouterr().err)["message"]


def run_captured(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def report_or_error(argv, out=None) -> bool:
    """True for a valid report (exit 0); otherwise exit 2 with one line of JSON."""
    code, err = run_captured(argv + (["--out", str(out)] if out else []))
    if code == 0:
        if out:
            assert json.loads(out.read_text())["command"] == argv[0]
        return True
    assert code == 2
    assert "error" in one_line_error(err)
    return False


@settings(max_examples=15, deadline=None)
@given(n_routes=st.integers(1, 12), departures=st.integers(1, 2),
       horizon=st.integers(8, 12), seed=st.integers(0, 50))
@example(n_routes=4, departures=2, horizon=8, seed=0)
@example(n_routes=9, departures=2, horizon=8, seed=0)
def test_any_route_count_ends_in_report_or_exit_two(n_routes, departures, horizon, seed):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        quotes, split_json, gen = d / "q.csv", d / "split.json", d / "gen.csv"
        if not report_or_error(["gen-data", "--seed", str(seed), "--out", str(quotes),
                                "--routes", str(n_routes), "--departures", str(departures),
                                "--horizon", str(horizon), "--split-out", str(split_json)]):
            assert departures == 1  # one departure cannot fill both split windows
            return
        assert report_or_error(["gen-data", "--generalized", "--seed", str(seed),
                                "--out", str(gen), "--routes", "3", "--departures", "1",
                                "--horizon", str(horizon)])
        data = ["--quotes", str(quotes), "--split-config", str(split_json)]
        frozen, blend = d / "frozen.json", d / "blend.json"
        trained = report_or_error(["train", *data, "--task", "classification", "--seed", "1",
                                   "--model", "cart", "--save-model", str(frozen)], d / "t.json")
        blended = report_or_error(["train", *data, "--task", "classification", "--seed", "1",
                                   "--model", "uniform_blend", "--save-model", str(blend),
                                   "--hyperparams", '{"member_kind": "cart"}'], d / "b.json")
        generalized = trained and report_or_error(
            ["generalize", *data, "--gen-quotes", str(gen), "--frozen-model", str(frozen),
             "--n-states", "2", "--seed", "1",
             *(["--blend-model", str(blend)] if blended else [])], d / "g.json")
        if n_routes in (4, 9):
            assert trained and blended and generalized


# -- hand-built corpora: gaps, short series, constant prices --------------------------


@st.composite
def hand_corpus(draw, prefix):
    """(route, departure, [(days before departure, price)]) series: gapped
    query days, as few as one quote, and some routes at one constant price."""
    series = []
    for r in range(draw(st.integers(1, 4))):
        constant = draw(st.booleans())
        for j in range(draw(st.integers(3, 4))):
            days = sorted(draw(st.sets(st.integers(0, 20), min_size=1, max_size=10)),
                          reverse=True)
            prices = [100.0 if constant else draw(st.integers(50_000, 300_000)) / 1000
                      for _ in days]
            series.append((f"{prefix}{r + 1}", date(2016, 2, 1) + timedelta(days=3 * j),
                           list(zip(days, prices))))
    return series


def write_corpus(path, series):
    lines = ["route_id,departure_date,query_date,price"]
    for route, departure, quotes in series:
        lines += [f"{route},{departure.isoformat()},"
                  f"{(departure - timedelta(days=d)).isoformat()},{p:.3f}" for d, p in quotes]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


SMALL_CASE = [("R1", date(2016, 2, 1), [(20, 90.0), (12, 80.0), (3, 85.0)]),
              ("R1", date(2016, 2, 4), [(9, 70.0)]),
              ("R1", date(2016, 2, 7), [(11, 75.0), (10, 72.0), (4, 79.0)]),
              ("R2", date(2016, 2, 1), [(15, 100.0), (14, 100.0), (2, 100.0)]),
              ("R2", date(2016, 2, 4), [(6, 100.0), (1, 100.0)]),
              ("R2", date(2016, 2, 7), [(8, 100.0)])]


@settings(max_examples=25, deadline=None)
@given(specific=hand_corpus("R"), generalized=hand_corpus("G"))
@example(specific=SMALL_CASE, generalized=[("G1", date(2016, 2, 1), [(10, 60.0), (4, 55.0)])])
def test_hand_built_corpora_end_in_report_or_exit_two(specific, generalized):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_corpus(d / "q.csv", specific)
        write_corpus(d / "gen.csv", generalized)
        write(d / "split.json", json.dumps({
            "train_start": "2016-02-01", "train_end": "2016-02-05",
            "test_start": "2016-02-06", "test_end": "2016-02-12"}))
        data = ["--quotes", str(d / "q.csv"), "--split-config", str(d / "split.json")]
        frozen = d / "frozen.json"
        trained = report_or_error(["train", *data, "--task", "classification", "--seed", "1",
                                   "--model", "cart", "--save-model", str(frozen)], d / "t.json")
        for model in ("cart", "knn", "logistic", "uniform_blend"):
            hp = {"knn": '{"k": 1}', "uniform_blend": '{"member_kind": "cart"}'}.get(model, "{}")
            report_or_error(["backtest", *data, "--task", "classification", "--seed", "1",
                             "--model", model, "--hyperparams", hp], d / "b.json")
        if trained:
            for per_series in ([], ["--per-series"]):
                report_or_error(["generalize", *data, "--gen-quotes", str(d / "gen.csv"),
                                 "--frozen-model", str(frozen), "--n-states", "2",
                                 "--seed", "1", *per_series], d / "g.json")
        if specific == SMALL_CASE:
            assert trained


# -- usage errors ---------------------------------------------------------------------


@pytest.mark.parametrize("argv, expected", [
    (["backtest", "--bogus"], "unrecognized arguments: --bogus"),
    (["gen-data", "--out", "x.csv", "--routes", "abc"], "invalid int value: 'abc'"),
    (["train", "--model", "svm", "--task", "classification"], "invalid choice: 'svm'"),
    (["train", "--model", "cart", "--task", "classification"], "required: --quotes"),
    (["backtest", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
    (["gen-data", "--out", "x.csv", "--config", "x"], "unrecognized arguments: --config x"),
], ids=["unknown-flag", "bad-int", "bad-choice", "missing-required", "jobs-outside-tune",
        "config-in-gen-data"])
def test_usage_errors_exit_two_with_one_json_line(workdir, capsys, argv, expected):
    if argv[0] == "backtest":
        argv = [argv[0], *base_args(workdir, argv[1:])]
    elif argv[0] == "train" and "--model" in argv and "svm" in argv:
        argv = [argv[0], *base_args(workdir, argv[1:])]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = one_line_error(captured.err)
    assert err["error"] == "UsageError"
    assert expected in err["message"]
    assert captured.out == ""


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "-h"])
    assert exc.value.code == 0
    assert "--jobs" in capsys.readouterr().out


# -- configuration errors ----------------------------------------------------------


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("bad_input", [
    lambda d: ["--config", str(write(d / "c.json", json.dumps(
        {"split": {"train_start": "2016-01-01", "train_end": "2016-01-05",
                   "test_start": "2016-01-06"}})))],
    lambda d: ["--split-config", str(write(d / "s.json", json.dumps(
        {"train_start": "2016-01-01", "train_end": "2016-13-05",
         "test_start": "2016-01-06", "test_end": "2016-01-09"})))],
    lambda d: ["--config", str(write(d / "c.json", "{not json"))],
    lambda d: ["--hyperparams", "{max_depth: 3}"],
    # 200 KB of brackets ended in a RecursionError traceback, exit 1.
    lambda d: ["--config", str(write(d / "c.json", "[" * 100_000 + "]" * 100_000))],
    lambda d: ["--split-config", str(write(d / "s.json", "[" * 100_000 + "]" * 100_000))],
    lambda d: ["--hyperparams", "[" * 100_000 + "]" * 100_000],
], ids=["config-split-missing-key", "split-config-bad-date", "config-bad-json",
        "hyperparams-bad-json", "config-nested-too-deep", "split-config-nested-too-deep",
        "hyperparams-nested-too-deep"])
def test_config_errors_exit_two(workdir, tmp_path, capsys, bad_input):
    argv = ["train", "--quotes", str(workdir / "quotes.csv"), "--task", "classification",
            "--model", "cart", *bad_input(tmp_path)]
    if "--config" not in argv and "--split-config" not in argv:
        argv += ["--split-config", str(workdir / "split.json")]
    capsys.readouterr()
    assert main(argv) == 2
    assert one_line_error(capsys.readouterr().err)["error"] == "FarecastError"


@pytest.mark.parametrize("command, config, extra", [
    ("generalize", {"hmm": []}, []),
    ("generalize", {"hmm": {"n_states": "4"}}, []),
    ("generalize", {}, ["--anchor", "2016-13-01"]),
    ("tune", {"grids": {"cart": 3}}, []),
    ("tune", {"grids": {"cart": [3]}}, []),
    ("qlearn", {"qlearn": 5}, []),
    ("qlearn", {"qlearn": {"episodes": True}}, []),
    ("backtest", {"oversample": "yes"}, []),
    ("backtest", {"outlier_removal": "foo"}, []),
    ("generalize", {"hmm": {"max_iter": 0}}, []),
    ("generalize", {"hmm": {"n_states": 0}}, []),
    ("generalize", {}, ["--n-states", "0"]),
    ("generalize", {}, ["--n-states", "-1"]),
    ("qlearn", {}, ["--episodes", "0"]),
    ("qlearn", {"qlearn": {"episodes": -2}}, []),
    ("backtest", {}, ["--simulate-random", "0"]),
    ("backtest", {}, ["--simulate-random", "-1"]),
    ("backtest", {}, ["--seed", "-1"]),
    ("qlearn", {"qlearn": 5}, ["--episodes", "2", "--gamma", "1", "--alpha", "0.1"]),
], ids=["hmm-list", "hmm-string-states", "anchor-bad-date", "grid-number",
        "grid-entry-number", "qlearn-number", "qlearn-bool-episodes", "oversample-string",
        "outlier-removal-unknown",
        "hmm-iterations-0", "hmm-states-0", "n-states-0", "n-states-negative", "episodes-0",
        "episodes-negative", "simulate-random-0", "simulate-random-negative",
        "seed-negative", "qlearn-number-all-flags"])
def test_command_config_errors_exit_two(workdir, gen_corpus, frozen_and_blend, tmp_path,
                                        capsys, command, config, extra):
    data = base_args(workdir, ["--config", str(write(tmp_path / "c.json", json.dumps(config)))])
    argv = {
        "generalize": ["generalize", *data, "--gen-quotes", str(gen_corpus),
                       "--frozen-model", str(frozen_and_blend[0])],
        "tune": ["tune", *data, "--task", "classification", "--model", "cart"],
        "qlearn": ["qlearn", *data],
        "backtest": ["backtest", *data, "--task", "classification", "--model", "cart"],
    }[command]
    capsys.readouterr()
    assert main(argv + extra) == 2
    assert one_line_error(capsys.readouterr().err)["error"] == "FarecastError"


NOT_UTF8 = b'{"hmm": {"n_states": "\xff"}}'


def os_error_case(case, d, workdir, gen_corpus, frozen):
    """(argv, expected error) of one case: a directory or a file where the
    other is due, or a JSON file that is not UTF-8."""
    data = base_args(workdir, [])
    cart = ["--task", "classification", "--model", "cart"]
    (d / "dir").mkdir()
    (d / "bad.json").write_bytes(NOT_UTF8)
    (d / "file").write_text("x", encoding="utf-8")
    generalize = ["generalize", *data, "--gen-quotes", str(gen_corpus),
                  "--frozen-model", str(frozen), "--n-states", "2"]
    return {
        "config-directory": (["train", *data, *cart, "--config", str(d / "dir")],
                             "IsADirectory"),
        "quotes-directory": (["train", "--quotes", str(d / "dir"), *cart], "IsADirectory"),
        "load-model-directory": (["backtest", *data, "--load-model", str(d / "dir")],
                                 "IsADirectory"),
        "out-directory": (["train", *data, *cart, "--out", str(d / "dir")], "IsADirectory"),
        "config-not-utf8": (["train", *data, *cart, "--config", str(d / "bad.json")],
                            "FarecastError"),
        "split-config-not-utf8": (["train", "--quotes", str(workdir / "quotes.csv"), *cart,
                                   "--split-config", str(d / "bad.json")], "FarecastError"),
        "bank-out-existing-file": ([*generalize, "--bank-out", str(d / "file")], "FileExists"),
    }[case]


@pytest.mark.parametrize("case", ["config-directory", "quotes-directory",
                                  "load-model-directory", "out-directory", "config-not-utf8",
                                  "split-config-not-utf8", "bank-out-existing-file"])
def test_os_errors_and_undecodable_files_exit_two(workdir, gen_corpus, frozen_and_blend,
                                                  tmp_path, capsys, case):
    argv, expected = os_error_case(case, tmp_path, workdir, gen_corpus, frozen_and_blend[0])
    capsys.readouterr()
    assert main(argv) == 2
    error = one_line_error(capsys.readouterr().err)
    assert error["error"] == expected
    assert str(tmp_path) in error["message"]


def test_report_is_written_after_the_side_files(workdir, tmp_path, capsys):
    """A directory as ``--out`` exits 2 once the command has written its
    other files: the report comes last."""
    metrics = tmp_path / "metrics.csv"
    (tmp_path / "dir").mkdir()
    argv = ["backtest", *base_args(workdir, []), "--task", "classification", "--model",
            "cart", "--report-csv", str(metrics), "--out", str(tmp_path / "dir")]
    capsys.readouterr()
    assert main(argv) == 2
    assert one_line_error(capsys.readouterr().err)["error"] == "IsADirectory"
    assert metrics.read_text(encoding="utf-8").startswith("route_id,")


# -- malformed saved files ----------------------------------------------------------


def hmm_template(route_index):
    return {"route_index": route_index, "n_states": 4, "initial": [0.25] * 4,
            "transition": [[0.25] * 4] * 4, "means": [1.0] * 4, "variances": [0.1] * 4,
            "norm_mean": 1.0, "degenerate": False}


def qtable(**fields):
    return json.dumps({"d_max": 2, "buy": [0.0] * 3, "wait": [0.0] * 3, "gamma": 1.0,
                       "alpha": 0.1, "route_means": {}, **fields})


@pytest.fixture(scope="module")
def saved_models(workdir, frozen_and_blend):
    """Model documents by name: the frozen cart, one of each scaled kind and
    a regression blend."""
    models = {"cart": frozen_and_blend[0]}
    for kind, task, hp in [("least_squares", "regression", {}),
                           ("logistic", "classification", {}),
                           ("mlp3", "classification", {"hidden": 4, "epochs": 3}),
                           ("knn", "classification", {"k": 3}),
                           ("uniform_blend", "regression", {"member_params": {"max_depth": 2}})]:
        models[kind] = workdir / f"saved_{kind}.json"
        assert main(["train", *base_args(workdir, [
            "--task", task, "--model", kind, "--hyperparams", json.dumps(hp),
            "--seed", "5", "--save-model", str(models[kind]), "--out", os.devnull])]) == 0
    return models


def cut_to_3(part, key):
    return lambda doc: doc[part].update({key: doc[part][key][:3]})


def first_member_classification(doc):
    """A loadable classification CART in place of a regression one."""
    member = doc["core"]["members"][0]
    member["spec"]["task"] = member["core"]["task"] = "classification"


MALFORMED_FILES = {
    "bank-initial-shape": ("--bank", json.dumps({**hmm_template(0),
                                                 "initial": [0.5, 0.25, 0.25]})),
    "bank-no-means": ("--bank", json.dumps({k: v for k, v in hmm_template(0).items()
                                            if k != "means"})),
    "bank-no-norm-mean": ("--bank", json.dumps({k: v for k, v in hmm_template(0).items()
                                                if k != "norm_mean"})),
    "bank-extra-key": ("--bank", json.dumps({**hmm_template(0), "extra": 1})),
    "bank-list": ("--bank", "[1, 2]"),
    "bank-bad-json": ("--bank", "{"),
    "bank-fractional-route-index": ("--bank", json.dumps({**hmm_template(0),
                                                        "route_index": 0.7})),
    "bank-degenerate-string": ("--bank", json.dumps({**hmm_template(0), "degenerate": "no"})),
    "bank-initial-string": ("--bank", json.dumps({**hmm_template(0),
                                                  "initial": ["0.25", 0.25, 0.25, 0.25]})),
    "bank-initial-bool": ("--bank", json.dumps({**hmm_template(0),
                                                "initial": [True, 0, 0, 0]})),
    # Each sums to 1, so these loaded, and a nan log-likelihood won every row.
    "bank-initial-negative": ("--bank", json.dumps({**hmm_template(0),
                                                    "initial": [1.5, -0.5, 0, 0]})),
    "bank-transition-negative": ("--bank", json.dumps({**hmm_template(0), "transition": [
        [1.5, -0.5, 0, 0], *hmm_template(0)["transition"][1:]]})),
    "frozen-model-list": ("--frozen-model", "[1, 2]"),
    # A (model, edit) pair edits that saved model's document in place.
    "model-no-spec": ("--load-model", ("cart", lambda doc: doc.pop("spec"))),
    "model-extra-key": ("--load-model", ("cart", lambda doc: doc.update(extra=1))),
    "model-core-no-mtry": ("--load-model", ("cart", lambda doc: doc["core"].pop("mtry"))),
    "model-core-extra-key": ("--load-model", ("cart", lambda doc: doc["core"].update(
        extra=1))),
    "cart-feature-cut": ("--load-model", ("cart", lambda doc: doc["core"].update(
        feature=doc["core"]["feature"][:1]))),
    "cart-feature-out-of-range": ("--load-model", ("cart", lambda doc: doc["core"].update(
        feature=[99 if f >= 0 else f for f in doc["core"]["feature"]]))),
    "cart-child-loops-to-root": ("--load-model", ("cart", lambda doc: doc["core"].update(
        left=[0] * len(doc["core"]["left"])))),
    "least-squares-coef-cut": ("--load-model", ("least_squares", cut_to_3("core", "coef"))),
    "logistic-coef-cut": ("--load-model", ("logistic", cut_to_3("core", "coef"))),
    "mlp3-w2-cut": ("--load-model", ("mlp3", cut_to_3("core", "w2"))),
    "knn-y-cut": ("--load-model", ("knn", cut_to_3("core", "y"))),
    "knn-keep-cut": ("--load-model", ("knn", cut_to_3("standardizer", "keep"))),
    "knn-y-strings": ("--load-model", ("knn", lambda doc: doc["core"].update(
        y=[str(v) for v in doc["core"]["y"]]))),
    "standardizer-mean-strings": ("--load-model", ("logistic", lambda doc: doc[
        "standardizer"].update(mean=[str(v) for v in doc["standardizer"]["mean"]]))),
    "standardizer-keep-seven": ("--load-model", ("logistic", lambda doc: doc[
        "standardizer"].update(keep=[7, *doc["standardizer"]["keep"][1:]]))),
    # Each of these three loaded and reported a wrong mean_normalized_pct with exit 0.
    "standardizer-scale-zero": ("--load-model", ("logistic", lambda doc: doc[
        "standardizer"]["scale"].__setitem__(0, 0.0))),
    "standardizer-scale-negative-huge": ("--load-model", ("logistic", lambda doc: doc[
        "standardizer"]["scale"].__setitem__(0, -1e300))),
    "standardizer-mean-nan": ("--load-model", ("logistic", lambda doc: doc[
        "standardizer"]["mean"].__setitem__(0, float("nan")))),
    "cart-core-task-regression": ("--load-model", ("cart", lambda doc: doc["core"].update(
        task="regression"))),
    # A regression blend of 3 members loaded and reported a wrong mean with exit 0;
    # one of none ended in a traceback.
    "blend-members-cut": ("--load-model", ("uniform_blend", cut_to_3("core", "members"))),
    "blend-no-members": ("--load-model", ("uniform_blend", lambda doc: doc["core"].update(
        members=[]))),
    "blend-member-of-the-other-task": ("--load-model", ("uniform_blend",
                                                        first_member_classification)),
    "blend-member-of-another-width": ("--load-model", ("uniform_blend", lambda doc: doc[
        "core"]["members"][0].update(n_features=doc["n_features"] + 1))),
    "blend-standardizer": ("--load-model", ("uniform_blend", lambda doc: doc.update(
        standardizer={"mean": [0.0] * 5, "scale": [1.0] * 5, "keep": [1] * doc["n_features"]}))),
    "qtable-no-buy": ("--load-table", json.dumps(
        {"d_max": 2, "wait": [0.0, 0.0, 0.0], "gamma": 1.0, "alpha": 0.1, "route_means": {}})),
    "qtable-no-route-means": ("--load-table", json.dumps(
        {"d_max": 2, "buy": [0.0] * 3, "wait": [0.0] * 3, "gamma": 1.0, "alpha": 0.1})),
    "qtable-extra-key": ("--load-table", qtable(extra=1)),
    "qtable-short-for-the-corpus": ("--load-table", qtable(d_max=95, buy=[0.0], wait=[0.0])),
    "qtable-short-for-its-d-max": ("--load-table", qtable(d_max=5, buy=[0.0], wait=[0.0])),
    "qtable-not-finite": ("--load-table", qtable(d_max=1, buy=[0.0, 1e400], wait=[0.0, 0.0])),
    "qtable-fractional-d-max": ("--load-table", qtable(d_max=2.9)),
    "qtable-buy-strings": ("--load-table", qtable(buy=["0", "0", "0"])),
    "qtable-route-mean-string": ("--load-table", qtable(route_means={"R1": "100"})),
}


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_malformed_saved_files_exit_two(workdir, gen_corpus, frozen_and_blend, saved_models,
                                        tmp_path, capsys, case):
    flag, text = MALFORMED_FILES[case]
    frozen = frozen_and_blend[0]
    if isinstance(text, tuple):
        name, edit = text
        doc = json.loads(saved_models[name].read_text(encoding="utf-8"))
        edit(doc)
        text = json.dumps(doc)
    bank = tmp_path / "bank"
    bank.mkdir()
    for i in range(8):
        write(bank / f"hmm_{i}.json", json.dumps(hmm_template(i)))
    bad = write((bank / "hmm_0.json") if flag == "--bank" else (tmp_path / "bad.json"), text)
    generalize = ["generalize", "--gen-quotes", str(gen_corpus), "--bank", str(bank)]
    argv = {
        "--bank": [*generalize, "--frozen-model", str(frozen)],
        "--frozen-model": [*generalize, "--frozen-model", str(bad)],
        "--load-model": ["backtest", *base_args(workdir, ["--load-model", str(bad)])],
        "--load-table": ["qlearn", *base_args(workdir, ["--load-table", str(bad)])],
    }[flag]
    capsys.readouterr()
    assert main(argv) == 2
    assert one_line_error(capsys.readouterr().err)["error"] == "FarecastError"


def test_malformed_bank_template_error_names_its_file(workdir, gen_corpus, frozen_and_blend,
                                                      tmp_path, capsys):
    bank = tmp_path / "bank"
    bank.mkdir()
    for i in range(8):
        template = hmm_template(i)
        if i == 3:
            del template["norm_mean"]
        write(bank / f"hmm_{i}.json", json.dumps(template))
    capsys.readouterr()
    assert main(["generalize", "--gen-quotes", str(gen_corpus), "--bank", str(bank),
                 "--frozen-model", str(frozen_and_blend[0])]) == 2
    message = one_line_error(capsys.readouterr().err)["message"]
    assert str(bank / "hmm_3.json") in message
    assert "norm_mean" in message


def test_well_formed_saved_files_load(workdir, gen_corpus, saved_models, tmp_path):
    """The untouched documents the malformed cases start from are accepted."""
    bank = tmp_path / "bank"
    bank.mkdir()
    for i in range(8):
        write(bank / f"hmm_{i}.json", json.dumps(hmm_template(i)))
    assert main(["generalize", "--gen-quotes", str(gen_corpus), "--bank", str(bank),
                 "--frozen-model", str(saved_models["cart"]), "--out", os.devnull]) == 0
    for path in saved_models.values():
        assert main(["backtest", *base_args(workdir, ["--load-model", str(path),
                                                      "--out", os.devnull])]) == 0
    table = write(tmp_path / "q.json", qtable(d_max=11, buy=[0.0] * 12, wait=[0.0] * 12))
    assert main(["qlearn", *base_args(workdir, ["--load-table", str(table),
                                                "--out", os.devnull])]) == 0


def test_blend_of_blends_document_exits_two(workdir, frozen_and_blend, tmp_path, capsys):
    """Fitting a blend whose members are blends exits 2, so loading one does too."""
    blend = json.loads(frozen_and_blend[1].read_text(encoding="utf-8"))
    nested = copy.deepcopy(blend)
    nested["spec"]["hyperparams"]["member_kind"] = "uniform_blend"
    nested["core"]["members"] = [copy.deepcopy(blend) for _ in blend["core"]["members"]]
    path = write(tmp_path / "nested.json", json.dumps(nested))
    capsys.readouterr()
    assert main(["backtest", *base_args(workdir, ["--load-model", str(path),
                                                  "--out", os.devnull])]) == 2
    # The loader names the file, as for every malformed model document.
    error = one_line_error(capsys.readouterr().err)
    assert error["error"] == "FarecastError"
    assert str(path) in error["message"] and "IncompatibleSpec" in error["message"]
    with pytest.raises(IncompatibleSpec, match="member"):
        model_from_dict(nested)


SPEC_ERRORS = ("FarecastError", "IncompatibleSpec")


@pytest.mark.parametrize("model, hyperparams, errors", [
    ("cart", {"max_depth": "x"}, SPEC_ERRORS),
    ("adaboost_cart", {"n_rounds": "abc"}, SPEC_ERRORS),
    ("adaboost_cart", {"weak_depth": True}, SPEC_ERRORS),
    ("knn", {"k": 0}, SPEC_ERRORS),
    ("knn", {"k": 100000}, ("TooFewRows",)),
    ("mlp3", {"hidden": 0}, SPEC_ERRORS),
    ("mlp3", {"epochs": 0}, SPEC_ERRORS),
    ("mlp3", {"batch_size": 0}, SPEC_ERRORS),
    ("random_forest", {"bootstrap": "x"}, SPEC_ERRORS),
    ("random_forest", {"subsample": "false"}, SPEC_ERRORS),
    ("random_forest", {"n_trees": 0}, SPEC_ERRORS),
    ("logistic", {"max_iter": 0}, SPEC_ERRORS),
    ("logistic", {"max_iter": -3}, SPEC_ERRORS),
    ("adaboost_cart", {"n_rounds": 0}, SPEC_ERRORS),
    ("adaboost_cart", {"n_rounds": -2}, SPEC_ERRORS),
    ("adaboost_cart", {"weak_depth": 0}, SPEC_ERRORS),
    ("cart", {"max_depth": -1}, SPEC_ERRORS),
    ("uniform_blend", {"member_params": {"max_dept": 2}}, SPEC_ERRORS),
    ("mlp3", {"lr": 0}, SPEC_ERRORS),
    ("mlp3", {"lr": -1}, SPEC_ERRORS),
    ("mlp3", {"lr": float("inf")}, SPEC_ERRORS),
    # Trained for max_iter rounds, and saved a model the reader rejects.
    ("logistic", {"grad_tol": float("nan")}, SPEC_ERRORS),
], ids=["cart-depth-string", "adaboost-rounds-string", "adaboost-depth-bool", "knn-k-0",
        "knn-k-above-the-training-rows", "mlp3-hidden-0", "mlp3-epochs-0", "mlp3-batch-0",
        "forest-bootstrap-x", "forest-subsample-string", "forest-trees-0",
        "logistic-iterations-0", "logistic-iterations-negative", "adaboost-rounds-0",
        "adaboost-rounds-negative", "adaboost-depth-0", "cart-depth-negative",
        "blend-member-unknown-name", "mlp3-lr-0", "mlp3-lr-negative", "mlp3-lr-infinite",
        "logistic-tolerance-nan"])
def test_bad_hyperparameters_exit_two(workdir, capsys, model, hyperparams, errors):
    capsys.readouterr()
    assert main(["train", *base_args(workdir, [
        "--task", "classification", "--model", model,
        "--hyperparams", json.dumps(hyperparams)])]) == 2
    assert one_line_error(capsys.readouterr().err)["error"] in errors


@pytest.mark.parametrize("model, hyperparams, key", [
    ("cart", {"max_dept": 2}, "max_dept"), ("adaboost_cart", {"T": 5, "n_rounds": 5}, "n_rounds"),
], ids=["unknown", "repeated"])
def test_unknown_or_repeated_hyperparameter_error_names_the_key(workdir, capsys, model,
                                                                hyperparams, key):
    capsys.readouterr()
    assert main(["train", *base_args(workdir, [
        "--task", "classification", "--model", model,
        "--hyperparams", json.dumps(hyperparams)])]) == 2
    error = one_line_error(capsys.readouterr().err)
    assert error["error"] == "IncompatibleSpec"
    assert repr(key) in error["message"]


def test_tune_typo_cell_fails_alone(workdir, tmp_path, capsys):
    config = write(tmp_path / "c.json", json.dumps(
        {"grids": {"cart": [{"max_dept": 2}, {"max_depth": 2}]}}))
    out = tmp_path / "tune.json"
    assert main(["tune", *base_args(workdir, [
        "--config", str(config), "--task", "classification", "--model", "cart",
        "--out", str(out)])]) == 0
    report = read_report(out)
    assert [c["failed"] for c in report["cv_table"]] == [True, False]
    assert "max_dept" in report["cv_table"][0]["error"]
    assert report["best_spec"]["hyperparams"] == {"max_depth": 2}


def test_tune_grid_of_only_bad_cells_exits_two(workdir, tmp_path, capsys):
    config = write(tmp_path / "c.json", json.dumps(
        {"grids": {"cart": [{"max_depth": "x"}, {"min_leaf": 1.5}]}}))
    capsys.readouterr()
    assert main(["tune", *base_args(workdir, ["--config", str(config), "--task",
                                              "classification", "--model", "cart"])]) == 2
    error = one_line_error(capsys.readouterr().err)
    assert error["error"] == "AllCellsFailed"
    assert "max_depth" in error["message"]


DIVERGING_MLP3 = ["--task", "regression", "--model", "mlp3",
                  "--hyperparams", '{"lr": 100.0, "epochs": 50}']


def test_a_diverging_mlp3_fit_exits_two_and_saves_no_model(workdir, tmp_path, capsys):
    model = tmp_path / "m.json"
    capsys.readouterr()
    assert main(["train", *base_args(workdir, [*DIVERGING_MLP3, "--save-model", str(model),
                                               "--out", str(tmp_path / "train.json")])]) == 2
    error = one_line_error(capsys.readouterr().err)
    assert error["error"] == "FarecastError"
    assert re.search(r"after epoch \d+ of 50", error["message"]), error["message"]
    assert not model.exists()


def test_a_diverging_mlp3_backtest_exits_two(workdir, tmp_path, capsys):
    capsys.readouterr()
    assert main(["backtest", *base_args(workdir, [*DIVERGING_MLP3,
                                                  "--out", str(tmp_path / "bt.json")])]) == 2
    assert "mlp3 diverged" in one_line_error(capsys.readouterr().err)["message"]


def test_tune_fails_a_diverging_mlp3_cell_and_picks_the_other(workdir, tmp_path):
    config = write(tmp_path / "c.json", json.dumps(
        {"grids": {"mlp3": [{"lr": 1000.0, "epochs": 50}, {"lr": 0.01, "epochs": 20}]}}))
    out, table_csv = tmp_path / "tune.json", tmp_path / "tune.csv"
    assert main(["tune", *base_args(workdir, [
        "--config", str(config), "--task", "regression", "--model", "mlp3", "--folds", "2",
        "--out", str(out), "--report-csv", str(table_csv)])]) == 0
    report = read_report(out)
    assert [c["failed"] for c in report["cv_table"]] == [True, False]
    assert "mlp3 diverged" in report["cv_table"][0]["error"]
    assert report["best_spec"]["hyperparams"] == {"lr": 0.01, "epochs": 20}
    # A failed cell has no losses.
    assert table_csv.read_bytes().splitlines()[1].endswith(b",,,1")


def test_bank_out_removes_templates_of_an_earlier_bank(tmp_path, gen_corpus):
    bank = tmp_path / "bank"
    for n_routes in (9, 4):
        quotes, split_json = tmp_path / "quotes.csv", tmp_path / "split.json"
        assert main(["gen-data", "--seed", "3", "--out", str(quotes), "--routes",
                     str(n_routes), "--departures", "4", "--horizon", "10",
                     "--split-out", str(split_json)]) == 0
        data = ["--quotes", str(quotes), "--split-config", str(split_json)]
        frozen = tmp_path / "frozen.json"
        assert main(["train", *data, "--task", "classification", "--model", "cart",
                     "--hyperparams", '{"max_depth": 2}', "--seed", "5",
                     "--save-model", str(frozen)]) == 0
        assert main(["generalize", *data, "--gen-quotes", str(gen_corpus),
                     "--frozen-model", str(frozen), "--n-states", "2", "--seed", "1",
                     "--config", str(write(tmp_path / "c.json", '{"hmm": {"max_iter": 5}}')),
                     "--per-series", "--bank-out", str(bank),
                     "--out", str(tmp_path / "fit.json")]) == 0
    assert sorted(p.name for p in bank.iterdir()) == [f"hmm_{i}.json" for i in range(4)]
    reuse = tmp_path / "reuse.json"
    assert main(["generalize", "--gen-quotes", str(gen_corpus), "--frozen-model", str(frozen),
                 "--bank", str(bank), "--per-series", "--out", str(reuse)]) == 0
    counts = read_report(reuse)["template_counts"]
    assert {int(i) for c in counts.values() for i in c} <= set(range(4))


# -- reports record what ran ---------------------------------------------------------


def test_backtest_of_a_loaded_model_reports_no_preprocessing(workdir, frozen_and_blend,
                                                             tmp_path, capsys):
    out = tmp_path / "r.json"
    loaded = ["--load-model", str(frozen_and_blend[0]), "--outlier-removal", "em"]
    assert main(["backtest", *base_args(workdir, [*loaded, "--out", str(out)])]) == 0
    assert read_report(out)["config"]["preprocessing"] is None
    # the unused settings are still checked
    config = write(tmp_path / "c.json", json.dumps({"oversample": "yes"}))
    capsys.readouterr()
    assert main(["backtest", *base_args(workdir, [*loaded, "--config", str(config)])]) == 2
    assert "oversample" in one_line_error(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("command", ["tune", "train", "backtest"])
def test_reports_record_preprocessing_only_where_it_ran(workdir, tmp_path, command, task):
    # Regression fits skip outlier removal and oversampling.
    out = tmp_path / "r.json"
    assert main([command, *base_args(workdir, [
        "--task", task, "--model", "cart", "--outlier-removal", "em",
        "--out", str(out)])]) == 0
    want = {"oversample": True, "outlier_removal": "em"} if task == "classification" else None
    assert read_report(out)["config"]["preprocessing"] == want


def test_qlearn_of_a_loaded_table_reports_the_tables_rates(workdir, tmp_path):
    table, out = tmp_path / "q.json", tmp_path / "r.json"
    assert main(["qlearn", *base_args(workdir, ["--episodes", "3", "--alpha", "0.5",
                                                "--save-table", str(table),
                                                "--out", os.devnull])]) == 0
    assert main(["qlearn", *base_args(workdir, ["--load-table", str(table), "--gamma", "0.5",
                                                "--alpha", "0.9", "--episodes", "7",
                                                "--out", str(out)])]) == 0
    config = read_report(out)["config"]
    assert (config["gamma"], config["alpha"], config["episodes"]) == (1.0, 0.5, None)


def test_generalize_with_a_loaded_bank_reports_no_bank_settings(workdir, gen_corpus,
                                                                 frozen_and_blend, tmp_path):
    bank, out = tmp_path / "bank", tmp_path / "r.json"
    bank.mkdir()
    for i in range(8):
        write(bank / f"hmm_{i}.json", json.dumps(hmm_template(i)))
    assert main(["generalize", "--gen-quotes", str(gen_corpus), "--bank", str(bank),
                 "--frozen-model", str(frozen_and_blend[0]), "--n-states", "7",
                 "--out", str(out)]) == 0
    config = read_report(out)["config"]
    assert [config[k] for k in ("n_states", "max_iter", "tol")] == [None, None, None]


# -- the order of a corpus's rows --------------------------------------------------------


def load_and_backtest(header, rows, quotes, split_json):
    """The series of the corpus ``rows`` written in their order to ``quotes``,
    as plain values, and the bytes of a backtest report on it."""
    quotes.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    series = [(s.key, s.query_dates.tolist(), s.prices.tolist()) for s in load_quotes(quotes)]
    out = quotes.with_suffix(".json")
    assert main(["backtest", "--quotes", str(quotes), "--split-config", str(split_json),
                 "--task", "classification", "--model", "adaboost_cart", "--hyperparams",
                 '{"n_rounds": 20, "weak_depth": 2}', "--seed", "5", "--out", str(out)]) == 0
    return series, out.read_bytes()


@pytest.fixture(scope="module")
def tied_routes(tmp_path_factory):
    """A 3-route corpus whose second route is renamed R01, which reads as R1
    by number: its header, its rows, the path a test writes them to, its
    split file, and the series and report of its rows in file order."""
    d = tmp_path_factory.mktemp("tied")
    generated, split_json = d / "generated.csv", d / "split.json"
    assert main(["gen-data", "--seed", "11", "--routes", "3", "--departures", "6",
                 "--horizon", "12", "--out", str(generated),
                 "--split-out", str(split_json)]) == 0
    header, *rows = generated.read_text(encoding="utf-8").splitlines()
    rows = [("R01" + row[2:]) if row.startswith("R2,") else row for row in rows]
    quotes = d / "quotes.csv"
    return header, rows, quotes, split_json, load_and_backtest(header, rows, quotes, split_json)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_row_order_changes_neither_the_series_nor_the_report(tied_routes, data):
    header, rows, quotes, split_json, (series, report) = tied_routes
    permuted = data.draw(st.permutations(rows))
    assert load_and_backtest(header, permuted, quotes, split_json) == (series, report)
    # ids that read alike as numbers sort as text, each route's series together
    assert [key.route_id for key, _, _ in series[::6]] == ["R01", "R1", "R3"]


# -- boundary fuzzing: every path and number a subcommand reads ----------------------

PATH_KINDS = ("missing", "directory", "not-utf8", "bad-json", "wrong-shape", "valid")


@pytest.fixture(scope="module")
def boundary_inputs(tmp_path_factory):
    """A valid file for each input flag, on corpora small enough for many runs."""
    d = tmp_path_factory.mktemp("boundary")
    quotes, split_json, gen = d / "quotes.csv", d / "split.json", d / "gen.csv"
    assert main(["gen-data", "--seed", "3", "--out", str(quotes), "--routes", "2",
                 "--departures", "3", "--horizon", "8", "--split-out", str(split_json)]) == 0
    assert main(["gen-data", "--generalized", "--seed", "4", "--out", str(gen), "--routes",
                 "2", "--departures", "1", "--horizon", "8"]) == 0
    config = write(d / "config.json", json.dumps({
        "hmm": {"max_iter": 3}, "qlearn": {"episodes": 2},
        "split": json.loads(split_json.read_text(encoding="utf-8"))}))
    data = ["--quotes", str(quotes), "--split-config", str(split_json), "--config", str(config)]
    model, table, bank = d / "model.json", d / "table.json", d / "bank"
    assert main(["train", *data, "--task", "classification", "--model", "cart",
                 "--hyperparams", '{"max_depth": 2}', "--save-model", str(model),
                 "--out", os.devnull]) == 0
    assert main(["qlearn", *data, "--save-table", str(table), "--out", os.devnull]) == 0
    assert main(["generalize", *data, "--gen-quotes", str(gen), "--frozen-model", str(model),
                 "--n-states", "2", "--per-series", "--bank-out", str(bank),
                 "--out", os.devnull]) == 0
    return {"--quotes": quotes, "--split-config": split_json, "--config": config,
            "--gen-quotes": gen, "--load-model": model, "--frozen-model": model,
            "--blend-model": model, "--load-table": table, "--bank": bank}


# Per subcommand: (fixed arguments, required path flags, optional path flags,
# numeric flags with a negative, a zero and a positive value). A path flag the
# fixture has no file for is an output.
CORPUS = ["--quotes", "--split-config"]
SUBCOMMANDS = {
    "gen-data": ([], ["--out"], ["--split-out"],
                 {"--routes": (-1, 0, 2), "--departures": (-1, 0, 3), "--horizon": (-1, 0, 8)}),
    "tune": (["--task", "classification", "--model", "cart"], CORPUS,
             ["--config", "--out", "--report-csv"],
             {"--folds": (-1, 0, 2), "--jobs": (-1, 0, 2)}),
    "train": (["--task", "classification", "--model", "cart"], CORPUS,
              ["--config", "--save-model", "--out"], {}),
    "backtest": (["--task", "classification", "--model", "cart"], CORPUS,
                 ["--config", "--load-model", "--save-model", "--out",
                  "--report-csv", "--plot-data", "--dump-features"],
                 {"--simulate-random": (-1, 0, 5)}),
    "qlearn": ([], CORPUS, ["--config", "--load-table", "--save-table", "--out",
                            "--report-csv"],
               {"--episodes": (-1, 0, 2), "--gamma": (-0.5, 0.0, 0.9),
                "--alpha": (-0.5, 0.0, 0.5)}),
    "generalize": (["--per-series"], ["--gen-quotes", "--frozen-model", *CORPUS],
                   ["--config", "--bank", "--bank-out", "--blend-model", "--out", "--report-csv"],
                   {"--n-states": (-1, 0, 2)}),
}


def mostly(usual, others) -> st.SearchStrategy:
    """``usual`` four times in five draws or so, else one of ``others``: most
    runs then get past their first check, and some reach a report."""
    return st.sampled_from((usual,) * 4 * len(others) + tuple(others))


def boundary_path(d: Path, flag: str, kind: str, valid) -> Path:
    """A path of ``kind`` for ``flag`` under ``d``; a valid input is a copy of
    ``valid``, a valid output a fresh path."""
    path = d / flag.strip("-")
    if kind == "missing":
        return d / "absent" / path.name
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(NOT_UTF8)
    elif kind in ("bad-json", "wrong-shape"):
        write(path, "{" if kind == "bad-json" else "[1, 2]")
    elif valid is not None and valid.is_dir():
        shutil.copytree(valid, path)
    elif valid is not None:
        shutil.copy(valid, path)
    return path


@pytest.mark.parametrize("command", list(SUBCOMMANDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_any_path_or_number_ends_in_report_or_exit_two(boundary_inputs, command, data):
    fixed, required, optional, numbers = SUBCOMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        argv = [command, *fixed, "--seed", str(data.draw(mostly(3, (-1, 0)), label="--seed"))]
        paths = {flag: data.draw(mostly("valid", PATH_KINDS), label=flag) for flag in required}
        paths.update((flag, kind) for flag in optional
                     if (kind := data.draw(mostly(None, PATH_KINDS), label=flag)) is not None)
        for flag, kind in paths.items():
            argv += [flag, str(boundary_path(d, flag, kind, boundary_inputs.get(flag)))]
        for flag, values in numbers.items():
            argv += [flag, str(data.draw(mostly(values[-1], values), label=flag))]

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 2:
            assert "error" in one_line_error(err.getvalue())
            return
        assert code == 0
        if command == "gen-data":
            assert out.getvalue().startswith("wrote ")
            return
        report = out.getvalue() if "--out" not in paths else (d / "out").read_text()
        assert json.loads(report)["command"] == command


# -- one mutation of any saved document or input file -----------------------------

V1 = Path(__file__).parent / "data" / "v1"
V1_DATA = ["--quotes", str(V1 / "quotes.csv"), "--split-config", str(V1 / "split.json")]
V1_CART = str(V1 / "model_cart_classification.json")
# Each document kind: its file in tests/data/v1 (none for the config).
DOCUMENTS = {**{p.stem: p.name for p in sorted(V1.glob("model_*.json"))},
             "hmm": "hmm_0.json", "qtable": "qtable.json", "split": "split.json",
             "config": None}
CONFIG = {"oversample": False, "outlier_removal": "kmeans",
          "split": json.loads((V1 / "split.json").read_text(encoding="utf-8"))}
OTHER_VALUES = [None, True, "text", [], {}, 0, -1, 0.5, float("nan"), 1e308, -1e308]


def command_reading(kind: str, path: Path, gen: Path) -> list:
    """The command that reads the document of ``kind`` from ``path``; an HMM
    template is hmm_0.json of a bank."""
    if kind == "hmm":
        return ["generalize", "--gen-quotes", str(gen), "--frozen-model", V1_CART,
                "--bank", str(path.parent)]
    if kind == "qtable":
        return ["qlearn", *V1_DATA, "--load-table", str(path)]
    if kind == "split":
        return ["backtest", *V1_DATA[:2], "--split-config", str(path), "--load-model", V1_CART]
    if kind == "config":
        return ["backtest", *V1_DATA[:2], "--task", "classification", "--model", "cart",
                "--hyperparams", '{"max_depth": 2}', "--config", str(path)]
    return ["backtest", *V1_DATA, "--load-model", str(path)]


def mutated(data, doc):
    """``doc`` after one mutation of a value found by walking down up to six
    levels: a swap for another JSON value, NaN or a fractional number, a key
    deleted or added, or a list truncated or extended."""
    root = holder = {"doc": doc}
    key = "doc"
    for _ in range(data.draw(st.integers(0, 6), label="depth")):
        if not (isinstance(holder[key], (dict, list)) and holder[key]):
            break
        holder = holder[key]
        key = data.draw(st.sampled_from(sorted(holder) if isinstance(holder, dict)
                                        else range(len(holder))), label="key")
    value = holder[key]
    options = ["swap"]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        options.append("fraction")
    if isinstance(value, dict):
        options += ["delete key", "add key"] if value else ["add key"]
    if isinstance(value, list):
        options += ["truncate", "extend"] if value else ["extend"]
    mutation = data.draw(st.sampled_from(options), label="mutation")
    if mutation == "swap":
        holder[key] = data.draw(st.sampled_from(OTHER_VALUES), label="value")
    elif mutation == "fraction":
        holder[key] = value + 0.5
    elif mutation == "delete key":
        del value[data.draw(st.sampled_from(sorted(value)), label="deleted")]
    elif mutation == "add key":
        value["extra"] = data.draw(st.sampled_from(OTHER_VALUES), label="value")
    elif mutation == "truncate":
        del value[data.draw(st.integers(0, len(value) - 1), label="length"):]
    else:
        value.append(copy.deepcopy(value[-1]) if value else 0)
    return root["doc"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_mutation_of_any_document_ends_in_report_or_exit_two(gen_corpus, data):
    """The 13 v1 models, the HMM template, the Q-table, the split and a config."""
    kind = data.draw(st.sampled_from(sorted(DOCUMENTS)), label="document")
    name = DOCUMENTS[kind]
    doc = CONFIG if name is None else json.loads((V1 / name).read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        bank = v1_bank(Path(tmp))
        path = bank / "hmm_0.json" if kind == "hmm" else Path(tmp) / "document.json"
        write(path, json.dumps(mutated(data, copy.deepcopy(doc))))
        report_or_error(command_reading(kind, path, gen_corpus), Path(tmp) / "out.json")


def v1_bank(root: Path) -> Path:
    """A bank directory under ``root`` whose 8 templates are the v1 template
    under each route index, less ``hmm_0.json``, which the caller writes."""
    bank = root / "bank"
    bank.mkdir()
    template = json.loads((V1 / "hmm_0.json").read_text(encoding="utf-8"))
    for i in range(1, 8):
        write(bank / f"hmm_{i}.json", json.dumps({**template, "route_index": i}))
    return bank


@pytest.mark.parametrize("kind", ["model_knn_classification", "hmm"])
def test_a_saved_value_whose_arithmetic_overflows_exits_two(kind, gen_corpus, tmp_path):
    # Both ended in "RuntimeWarning: overflow encountered in multiply", exit 0
    # and a report built on infinite scores.
    doc = json.loads((V1 / DOCUMENTS[kind]).read_text(encoding="utf-8"))
    if kind == "hmm":
        doc["means"][0] = 1e308
        path = v1_bank(tmp_path) / "hmm_0.json"
    else:
        doc["core"]["X"][0][0] = 1e308
        path = tmp_path / "document.json"
    write(path, json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_captured(command_reading(kind, path, gen_corpus))
    assert code == 2
    assert one_line_error(err)["error"] == "FloatingPointError"


@pytest.mark.parametrize("kind", ["model_knn_classification", "hmm"])
def test_an_overflow_names_the_command_and_the_paths_it_was_given(kind, gen_corpus, tmp_path):
    # It printed only numpy's "overflow encountered in multiply".
    doc = json.loads((V1 / DOCUMENTS[kind]).read_text(encoding="utf-8"))
    if kind == "hmm":
        doc["means"][0] = 1e308
        path = v1_bank(tmp_path) / "hmm_0.json"
    else:
        doc["core"]["X"][0][0] = 1e308
        path = tmp_path / "document.json"
    write(path, json.dumps(doc))
    argv = command_reading(kind, path, gen_corpus)
    code, err = run_captured(argv)
    error = one_line_error(err)
    assert code == 2 and error["error"] == "FloatingPointError"
    head, _, numpy_message = error["message"].partition(": ")
    assert numpy_message == "overflow encountered in multiply"
    words = head.split(" ")
    assert words[0] == argv[0]
    # Both command lines are path options only: each is named with its value.
    assert dict(zip(words[1::2], words[2::2])) == dict(zip(argv[1::2], argv[2::2]))


# -- process-level entry --------------------------------------------------------


def test_console_script_is_cli_main():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, name = scripts["farecast"].partition(":")
    assert getattr(importlib.import_module(module), name) is main


def test_module_entry_point(tmp_path):
    out = tmp_path / "x.csv"
    # the child imports the package the tests import, however pytest found it
    src = str(Path(farecast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "farecast.cli", "gen-data", "--seed", "1",
         "--out", str(out), "--routes", "1", "--departures", "1", "--horizon", "8"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "wrote 8 quotes" in proc.stdout
    assert out.exists()
