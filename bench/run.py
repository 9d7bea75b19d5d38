#!/usr/bin/env python3
"""Benchmark of the farecast CLI: three closed-loop sessions, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload specific --seed 0 --seconds 10 --trace 0

Each command runs in a fresh ``python -m farecast.cli`` process against the
sources in ``src/``. The benchmark sets up its corpora and models (timed as
``setup_s``), then repeats the workload's session until ``--seconds`` of
session time have passed, at least twice. Every command is bracketed by runs
of ``bench/reference.py``, and the end-to-end times are scaled by them to a
host of steady speed. ``--trace 0`` prints the end-to-end
metrics. ``--trace 1`` sets up in-process with spans around every public
farecast function, runs the untraced sessions, then one session in-process
under spans, and prints the per-layer metrics. The last line of standard
output is one JSON object; a fuller
result file with provenance, per-command samples and report hashes goes to
``.bench_out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import layers  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import workloads  # noqa: E402
from workloads import Plan  # noqa: E402

COMMAND_TIMEOUT_S = 170
STARTUP_SAMPLES = 3
REFERENCE = HERE / "reference.py"
# Wall time of bench/reference.py on the reference machine at its median
# speed. A command's scaled time is its wall time times REFERENCE_S over the
# mean of the reference runs just before and just after it: the time it
# would take on a host where the reference takes REFERENCE_S.
REFERENCE_S = 0.78
# Set-up of generalize is four commands (~8 s, two model fits), so it runs
# once per run. The others are one gen-data call of ~0.6 s, mostly interpreter
# start-up; they run five times.
SETUP_REPEATS = {"specific": 5, "tune": 5, "generalize": 1}


class CommandFailed(Exception):
    """A command exited nonzero; later commands of the run depend on it."""


class Terminated(BaseException):
    """SIGTERM arrived; the running command is killed and no result is printed."""


def _terminate(signum, frame):
    raise Terminated(signum)


@dataclass
class Attempt:
    label: str
    wall_s: float
    rss_mb: float
    returncode: int
    ref_s: float | None = None  # mean reference wall time around the command
    sha256: str | None = None
    report: dict | None = None
    failures: list = field(default_factory=list)

    @property
    def scaled_s(self) -> float:
        """Wall time scaled to the host speed of the reference machine."""
        return self.wall_s * REFERENCE_S / self.ref_s


class Runner:
    """Runs CLI commands and keeps every attempt.

    Untraced commands run in fresh processes. With a recorder, ``traced=True``
    commands run in-process through ``farecast.cli.main`` under spans.
    """

    def __init__(self, recorder=None, reference_copies: int = 1):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.attempts: list[Attempt] = []
        self.recorder = recorder
        self.reference_copies = reference_copies
        self.last_ref: float | None = None
        self.references: list[float] = []  # every reference wall time, in run order

    def run(self, step, cwd: Path, reports: dict, gen_quotes: int | None,
            traced: bool = False) -> Attempt:
        """Run one step in ``cwd``; its parsed report goes into ``reports``."""
        run = self._in_process if traced else self._subprocess
        attempt = run(step.label, step.argv, cwd)
        self.attempts.append(attempt)
        if attempt.returncode != 0:
            tail = (cwd / f"{step.label}.stderr").read_text(errors="replace").strip()[-300:] \
                if not traced else "see standard error"
            attempt.failures.append(f"exit code {attempt.returncode}: {tail}")
            raise CommandFailed(step.label)
        if step.report:
            _read_report(attempt, cwd / step.report, gen_quotes)
            reports[step.label] = attempt.report
        return attempt

    @contextlib.contextmanager
    def bracketed(self, on: bool = True):
        """Run the reference before and after the block.

        Each attempt made in the block gets the mean of the two as its
        ``ref_s``. The run after one block is the run before the next.
        """
        if not on:
            yield
            return
        before = self.last_ref if self.last_ref is not None else self._reference()
        first = len(self.attempts)
        yield
        self.last_ref = self._reference()
        for attempt in self.attempts[first:]:
            attempt.ref_s = (before + self.last_ref) / 2

    def _reference(self) -> float:
        """Mean wall time of ``reference_copies`` reference runs side by side."""
        def one(_):
            return _timed([sys.executable, str(REFERENCE)], HERE, self.env,
                          subprocess.DEVNULL, None)
        with ThreadPoolExecutor(self.reference_copies) as pool:
            runs = list(pool.map(one, range(self.reference_copies)))
        if any(os.waitstatus_to_exitcode(status) != 0 for _, status, _ in runs):
            raise RuntimeError(f"{REFERENCE.name} failed")
        wall = statistics.fmean(w for w, _, _ in runs)
        self.references.append(wall)
        return wall

    def _subprocess(self, label: str, argv: list, cwd: Path) -> Attempt:
        with open(cwd / f"{label}.stdout", "wb") as out, \
                open(cwd / f"{label}.stderr", "wb") as err:
            wall, status, usage = _timed([sys.executable, "-m", "farecast.cli", *argv],
                                         cwd, self.env, out, err)
        return Attempt(label, wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status))

    def _in_process(self, label: str, argv: list, cwd: Path) -> Attempt:
        self.last_ref = None
        cli = importlib.import_module("farecast.cli")
        start = time.perf_counter()
        with contextlib.chdir(cwd), contextlib.redirect_stdout(io.StringIO()):
            code = self.recorder.run_command(label, _call_main, cli, argv)
        return Attempt(label, time.perf_counter() - start, 0.0, code)


def _timed(cmd: list, cwd: Path, env: dict, stdout, stderr):
    """Run ``cmd`` to its end; returns its wall time, wait status and rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, status, usage


def _call_main(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a crash is reported as a failed command
        traceback.print_exc()
        return 1


def _read_report(attempt: Attempt, path: Path, gen_quotes: int | None) -> None:
    raw = path.read_bytes()
    attempt.sha256 = hashlib.sha256(raw).hexdigest()
    try:
        attempt.report = json.loads(raw)
    except ValueError as exc:
        attempt.failures.append(f"report does not parse: {exc}")
        raise CommandFailed(attempt.label) from exc
    attempt.failures += workloads.check_report(attempt.label, attempt.report, gen_quotes)


def _file_hashes(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file() and p.suffix != ".stderr"}


def run_setup(runner: Runner, plan: Plan, work: Path, repeats: int,
              traced: bool = False) -> list[list[Attempt]]:
    """Set up ``repeats`` times in setup-<i>/; returns each set-up's attempts.

    One pair of reference runs brackets all the set-ups: a gen-data call
    takes about as long as the reference itself.
    """
    setups, first = [], None
    with runner.bracketed(not traced):
        for i in range(repeats):
            directory = work / f"setup-{i}"
            directory.mkdir()
            reports: dict = {}
            setups.append([runner.run(step, directory, reports, None, traced)
                           for step in plan.setup_steps()])
            hashes = _file_hashes(directory)
            if first is None:
                first = hashes
            elif hashes != first:
                runner.attempts[-1].failures.append(
                    f"set-up {i} wrote files that differ from set-up 0: "
                    f"{sorted(k for k in hashes if hashes[k] != first.get(k))}")
    return setups


def gen_quote_count(work: Path) -> int | None:
    path = work / "setup-0" / "gen.csv"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def run_session(runner: Runner, plan: Plan, directory: Path, gen_quotes: int | None,
                first: list | None, traced: bool = False) -> list[Attempt]:
    """One session in ``directory``; returns its attempts in run order.

    Every report must be byte-identical to the one of the same command in
    ``first``, the run's first session, when given.
    """
    directory.mkdir()
    reports: dict = {}
    attempts = []
    for step in plan.session_steps():
        with runner.bracketed(not traced):
            attempts.append(runner.run(step, directory, reports, gen_quotes, traced))
    by_label = {a.label: a for a in attempts}
    for earlier in first or ():
        if by_label[earlier.label].sha256 != earlier.sha256:
            by_label[earlier.label].failures.append("report differs from the first session's")
    for label, message in workloads.check_session(reports):
        by_label[label].failures.append(message)
    return attempts


def startup_seconds(runner: Runner) -> float:
    """Median wall time of a fresh process importing farecast.cli."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import farecast.cli"], env=runner.env,
                       check=True, timeout=COMMAND_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _median(values):
    return statistics.median(values) if values else None


# -- provenance ---------------------------------------------------------------


def _corpus_size(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        keys = [tuple(line.split(",", 2)[:2]) for line in fh]
    return {"quotes": len(keys), "series": len(set(keys))}


def _training_rows(setup: Path, seed: int) -> dict:
    from farecast.features import corpus_anchor
    from farecast.ingest import SplitConfig, load_quotes, split
    from farecast.pipeline import PreprocessConfig, apply_preprocessing, build_dataset, \
        route_order

    series = load_quotes(setup / "quotes.csv")
    train, _ = split(series, SplitConfig.from_json(setup / "split.json"))
    dataset = build_dataset(train, route_order(series), corpus_anchor(series), role="train")
    balanced = apply_preprocessing(dataset, PreprocessConfig(), seed)
    return {"training_rows": len(dataset), "training_rows_oversampled": len(balanced)}


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_fingerprint() -> tuple[str, int]:
    """sha256 over src/**/*.py and their total line count."""
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def provenance(plan: Plan, work: Path) -> dict:
    import numpy

    fingerprint, lines = source_fingerprint()
    setup = work / "setup-0"
    corpora = {"specific": {**_corpus_size(setup / "quotes.csv"),
                            **_training_rows(setup, plan.seeds["fit"])}}
    if (setup / "gen.csv").exists():
        corpora["generalized"] = _corpus_size(setup / "gen.csv")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": fingerprint,
        "src_lines": lines,
        "seeds": {"seed": plan.seed, "specific_corpus": plan.specific_seed,
                  "generalized_corpus": plan.generalized_seed, "commands": plan.seeds},
        "scale": plan.scale,
        "corpora": corpora,
    }


def compare_with_earlier(result_key: dict, hashes: dict) -> list:
    """Report hashes must match earlier results of the same sources and inputs."""
    failures = []
    for path in sorted(OUT.glob("*.json")):
        try:
            earlier = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if earlier.get("key") != result_key:
            continue
        for label, digest in earlier.get("report_sha256", {}).items():
            if label in hashes and hashes[label] != digest:
                failures.append((label, f"report differs from the one in {path.name}"))
    return failures


# -- main ---------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="offset added to the commands' seeds 5, 8 and 1 (>= 0)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="repeat sessions until this much session time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--specific-seed", type=int, default=11, help="specific corpus seed")
    p.add_argument("--generalized-seed", type=int, default=23,
                   help="generalized corpus seed")
    p.add_argument("--scale", choices=tuple(workloads.SCALES), default="standard")
    p.add_argument("--out", help="result file (default .bench_out/<run>.json)")
    args = p.parse_args(argv)
    if min(args.seed, args.specific_seed, args.generalized_seed) < 0:
        p.error("seeds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "farecast" / "cli.py").is_file():
        print(f"error: no farecast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    plan = Plan(args.workload, args.seed, args.specific_seed, args.generalized_seed,
                args.scale)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return _measure(args, plan, work)
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, plan: Plan, work: Path) -> int:
    """Set up, run sessions for ``args.seconds``, trace if asked, report."""
    recorder = undo = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        undo = tracing.install(recorder)
    runner = Runner(recorder, workloads.REFERENCE_COPIES[plan.workload])
    setups, sessions, commands = [], [], None
    try:
        # A traced run sets up once, in-process, and times no set-up.
        setups = run_setup(runner, plan, work, 1 if args.trace else
                           SETUP_REPEATS[plan.workload], traced=bool(args.trace))
        gen_quotes = gen_quote_count(work)
        elapsed = 0.0
        while len(sessions) < workloads.MIN_SESSIONS or elapsed < args.seconds:
            session = run_session(runner, plan, work / f"session-{len(sessions)}",
                                  gen_quotes, sessions[0] if sessions else None)
            sessions.append(session)
            elapsed += sum(a.wall_s for a in session)
        if args.trace:
            run_session(runner, plan, work / "traced-session", gen_quotes, sessions[0],
                        traced=True)
    except CommandFailed:
        pass
    finally:
        if undo:
            undo()
    if recorder:
        commands = tracing.summarize(recorder.spans)

    hashes = {a.label: a.sha256 for a in runner.attempts if a.sha256}
    complete = bool(sessions) and not any(a.returncode for a in runner.attempts)
    key = prov = None
    if complete:
        prov = provenance(plan, work)
        key = {k: prov[k] for k in ("source_sha256", "seeds", "scale")}
        key["workload"] = plan.workload
        by_label = {a.label: a for a in reversed(runner.attempts)}
        for label, message in compare_with_earlier(key, hashes):
            by_label[label].failures.append(message)

    metrics = {}
    if complete:
        metrics = _layer_metrics(plan, runner, sessions, commands) if args.trace \
            else _end_to_end(plan, setups, sessions)
    attempted = len(runner.attempts)
    failed = sum(1 for a in runner.attempts if a.failures)
    line = {"correct": complete and failed == 0, "attempted": max(attempted, 1),
            "failed": max(failed, 0 if complete else 1), "metrics": metrics}
    _write_result(args, plan, runner, line, key, prov, setups, sessions, hashes, commands)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _end_to_end(plan: Plan, setups, sessions) -> dict:
    # Times are scaled (see REFERENCE_S) and are means over the run's
    # sessions, which is the median for one or two.
    fit = workloads.FIT_COMMAND[plan.workload]
    values = {
        "session_s": statistics.fmean([sum(a.scaled_s for a in s) for s in sessions]),
        "setup_s": _median([sum(a.scaled_s for a in s) for s in setups]),
        "peak_rss_mb": _median([max(a.rss_mb for a in s) for s in sessions]),
        "fit_s": statistics.fmean([a.scaled_s for s in sessions for a in s if a.label == fit]),
    }
    units = {"peak_rss_mb": "MB"}
    return {k: {"value": v, "unit": units.get(k, "s")} for k, v in values.items()}


def _layer_metrics(plan: Plan, runner: Runner, sessions, commands: dict) -> dict:
    import tracing

    startup = startup_seconds(runner)
    session_labels = {step.label for step in plan.session_steps()}
    traced = [c for c in commands.values() if c["label"] in session_labels]
    traced_wall = sum(c["wall_s"] for c in traced)
    untraced = statistics.fmean([sum(a.wall_s for a in s) for s in sessions])
    overhead = 100.0 * (traced_wall + len(traced) * startup - untraced) / untraced
    walls = sum(c["wall_s"] for c in commands.values())
    # cli.main and cli.cmd_* own every instant no layer span covers, so they
    # are left out: the ratio is the share of wall time the layers explain.
    covered = sum(entry["self_s"] for c in commands.values()
                  for name, entry in c["spans"].items()
                  if not name.startswith((tracing.ROOT + ".", "cli.")))
    extras = {"cli.startup_s": startup, "trace.overhead_pct": overhead,
              "trace.coverage_ratio": covered / walls}
    return layers.per_layer(tracing.totals(commands), extras)


def _setup_times(setups) -> dict:
    walls = [sum(a.wall_s for a in s) for s in setups]
    out = {"wall_s": walls, "median_wall_s": _median(walls)}
    if all(a.ref_s for s in setups for a in s):  # a traced set-up runs in-process
        scaled = [sum(a.scaled_s for a in s) for s in setups]
        out.update(scaled_s=scaled, median_scaled_s=_median(scaled))
    return out


def _write_result(args, plan, runner, line, key, prov, setups, sessions, hashes,
                  commands):
    per_command = {}
    for attempt in (a for s in sessions for a in s):
        entry = per_command.setdefault(attempt.label,
                                       {"wall_s": [], "ref_s": [], "scaled_s": [], "rss_mb": []})
        entry["wall_s"].append(attempt.wall_s)
        entry["ref_s"].append(attempt.ref_s)
        entry["scaled_s"].append(attempt.scaled_s)
        # A child's ru_maxrss includes its parent's RSS at fork, and a traced
        # run's parent holds the in-process set-up: RSS is kept untraced only.
        if not args.trace:
            entry["rss_mb"].append(attempt.rss_mb)
    for label, entry in per_command.items():
        entry["median_s"] = _median(entry["wall_s"])
        entry["median_scaled_s"] = _median(entry["scaled_s"])
        entry["n"] = len(entry["wall_s"])
        entry["metric"] = workloads.NAMED_TIMES.get(label)
    quality = workloads.quality({a.label: a.report for a in sessions[0]}) if sessions else {}
    result = {
        "workload": plan.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "key": key,
        "provenance": prov,
        "result": line,
        "error_rate": line["failed"] / line["attempted"],
        "failures": [{"label": a.label, "messages": a.failures}
                     for a in runner.attempts if a.failures],
        "setup_s": _setup_times(setups),
        "reference_s": runner.references,
        "commands": per_command,
        "quality": quality,
        "report_sha256": hashes,
        "spans_by_command": commands,
    }
    path = Path(args.out) if args.out else \
        OUT / f"{plan.workload}-{plan.scale}-seed{plan.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
