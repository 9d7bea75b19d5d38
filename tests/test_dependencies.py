"""What the package imports: numpy as its only third-party runtime
dependency, csv in its one reader and one writer, and of its own modules only
those a command runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import farecast
from farecast.cli import main

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "farecast"}


def absolute_imports(path: Path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_the_standard_library_and_numpy():
    sources = sorted(Path(farecast.__file__).parent.rglob("*.py"))
    assert len(sources) > 10
    foreign = [f"{path.name}:{line}: {module}" for path in sources
               for line, module in absolute_imports(path) if module not in ALLOWED]
    assert foreign == []


def test_only_ingest_and_util_import_csv():
    # ingest.load_quotes is the one CSV reader and util.write_csv the one writer.
    sources = sorted(Path(farecast.__file__).parent.rglob("*.py"))
    importers = {path.stem for path in sources
                 for _, module in absolute_imports(path) if module == "csv"}
    assert importers == {"ingest", "util"}


# Each loads in the one subcommand that runs it.
LAZY = {"farecast.hmm", "farecast.qlearn", "farecast.synthgen", "farecast.tuning"}


def fresh_modules(code: str) -> set[str]:
    """The farecast modules a fresh interpreter holds after running ``code``."""
    src = str(Path(farecast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = f"{code}\nimport sys\nprint(*(m for m in sys.modules if m.startswith('farecast')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Paths to a 2-route corpus, its split, a no-history corpus and a cart model."""
    d = tmp_path_factory.mktemp("tiny")
    paths = {name: str(d / name) for name in ("q.csv", "split.json", "gen.csv", "m.json")}
    corpus = ["--quotes", paths["q.csv"], "--split-config", paths["split.json"]]
    assert main(["gen-data", "--seed", "3", "--out", paths["q.csv"], "--routes", "2",
                 "--departures", "4", "--horizon", "8", "--split-out", paths["split.json"]]) == 0
    assert main(["gen-data", "--generalized", "--seed", "7", "--out", paths["gen.csv"],
                 "--routes", "2", "--departures", "1", "--horizon", "8"]) == 0
    assert main(["train", *corpus, "--task", "classification", "--model", "cart",
                 "--save-model", paths["m.json"], "--out", os.devnull]) == 0
    return d, corpus, paths


def test_importing_the_cli_loads_no_subcommand_module():
    assert fresh_modules("import farecast.cli") & LAZY == set()


def test_synthgen_loads_no_learners():
    assert "farecast.learners" not in fresh_modules("import farecast.synthgen")


@pytest.mark.parametrize("generalized", [False, True])
def test_gen_data_loads_no_model_code(tmp_path, generalized):
    argv = ["gen-data", "--out", str(tmp_path / "q.csv"), "--routes", "2", "--departures", "2",
            "--horizon", "8",
            *(["--generalized"] if generalized else ["--split-out", str(tmp_path / "s.json")])]
    code = f"from farecast.cli import main\nassert main({argv!r}) == 0"
    assert fresh_modules(code) == {"farecast", *(f"farecast.{name}" for name in (
        "cli", "core", "ingest", "synthgen", "util"))}


@pytest.mark.parametrize("command, own", [
    ("gen-data", "synthgen"), ("tune", "tuning"), ("qlearn", "qlearn"),
    ("generalize", "hmm"), ("backtest", None),
])
def test_each_subcommand_loads_only_its_own_module(tiny, command, own):
    d, corpus, paths = tiny
    argv = {
        "gen-data": ["--out", str(d / "again.csv"), "--routes", "1", "--departures", "1",
                     "--horizon", "8"],
        "tune": [*corpus, "--task", "classification", "--model", "cart", "--folds", "2"],
        "qlearn": [*corpus, "--episodes", "2"],
        "generalize": [*corpus, "--gen-quotes", paths["gen.csv"], "--frozen-model",
                       paths["m.json"], "--n-states", "2", "--per-series"],
        "backtest": [*corpus, "--load-model", paths["m.json"]],
    }[command]
    if command != "gen-data":
        argv += ["--out", os.devnull]
    code = f"from farecast.cli import main\nassert main({[command, *argv]!r}) == 0"
    assert fresh_modules(code) & LAZY == ({f"farecast.{own}"} if own else set())
