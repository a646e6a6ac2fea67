"""Workloads and the closed-loop study: setup, run, summarize, guidelines, report.

Every step calls the public entry point ``woesim.cli.main`` in-process with
generated arguments, and starts only after the previous one has finished.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

RATES = (0.01, 0.05, 0.10)
#: Rows woesim writes per cell (8 metric/split pairs) and per guideline rate
#: (the AIV grid 0.5, 1.0, ..., 7.0); the checks hold the program to them.
SUMMARY_ROWS_PER_CELL = 8
GUIDELINE_ROWS_PER_RATE = 14

SYNTH_CONFIG = "synth.json"
RESULTS = "results.csv"
SUMMARY = "summary.csv"
#: one guideline table per scorecard metric the study reports
GUIDELINE_METRICS = ("f1", "p4")
GUIDELINES = {m: f"guideline_{m}.csv" for m in GUIDELINE_METRICS}
CHART = "chart.svg"
SERIAL_RESULTS = "results_serial.csv"


@dataclass(frozen=True)
class Workload:
    """One study slice, as the arguments a user would pass to ``woesim``."""

    name: str
    why: str
    configs: tuple[str, ...]
    sizes: tuple[int, ...]
    iterations: int
    workers: int
    guideline_n: int
    rates: tuple[float, ...] = RATES
    #: ``woesim synth`` arguments; the synthesized config joins ``configs``
    synth: tuple[str, ...] = ()
    run_args: tuple[str, ...] = ()

    @property
    def n_configs(self) -> int:
        return len(self.configs) + (1 if self.synth else 0)

    @property
    def cells(self) -> int:
        return self.n_configs * len(self.sizes) * len(self.rates)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small_n",
            "n <= 250 < K=192 cells per config: per-iteration fixed costs (streams, "
            "Newton steps in Python, records) dominate and row-volume savings are bypassed",
            configs=("A", "B", "C", "D"),
            sizes=(50, 100, 150, 200, 250),
            iterations=16,
            workers=1,
            # at n=250 the 1% curve fit takes a fast or a 10x slower path
            # depending on the data set, which makes post_s bimodal; at
            # n=150 it takes the slow path on every data set tried
            guideline_n=150,
        ),
        Workload(
            "large_n",
            "n >= 1000 >> K=192: per-row work (draws, WoE transform, cutoff sort, "
            "Gini unique, fit matrix products) dominates; where a cell engine would show",
            configs=("A", "B", "C", "D"),
            sizes=(1000, 1500, 2000, 2500),
            iterations=8,
            workers=1,
            guideline_n=2500,
        ),
        Workload(
            "study_pool2",
            "the ROADMAP study slice at --workers 2 plus a synthesized d=6 config "
            "(K=15625 >> n): process pool, pickled results, config synthesis, most io",
            configs=("A", "B", "C", "D"),
            sizes=(100, 500, 2500),
            iterations=20,
            workers=2,
            guideline_n=2500,
            synth=("--d", "6", "--bins", "5,5,5,5,5,5", "--aiv", "3.0"),
        ),
    )
}


def sub_seed(seed: int, k: int) -> int:
    """Master seed of study ``k`` in a benchmark run seeded with ``seed``."""
    return (seed * 1000 + k) % 2**63


@dataclass
class Step:
    """One ``woesim`` command: its exit code, wall time and captured output."""

    name: str
    code: int
    seconds: float
    output: str

    @property
    def message(self) -> str:
        lines = self.output.strip().splitlines()
        return lines[-1] if lines else ""


def call(cli, name: str, argv: list[str]) -> Step:
    """Run ``woesim.cli.main(argv)`` in-process; a raise counts as exit code 1."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse refusing the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command is a failed step, never a crashed benchmark
        code = 1
        out.write(traceback.format_exc())
    return Step(name, code, time.perf_counter() - start, out.getvalue())


def setup_commands(wl: Workload, seed: int, work: Path) -> list[tuple[str, list[str]]]:
    if not wl.synth:
        return []
    path = str(work / SYNTH_CONFIG)
    return [
        ("synth", ["synth", *wl.synth, "--seed", str(seed), "--out", path]),
        ("validate", ["validate", path]),
    ]


def fresh_import():
    """Import woesim from scratch (numpy stays loaded); returns ``woesim.cli``."""
    for name in [m for m in sys.modules if m == "woesim" or m.startswith("woesim.")]:
        del sys.modules[name]
    return importlib.import_module("woesim.cli")


def setup(wl: Workload, seed: int, work: Path):
    """Import woesim, synthesize and validate configs; returns (seconds, cli, steps)."""
    start = time.perf_counter()
    cli = fresh_import()
    steps = [call(cli, name, argv) for name, argv in setup_commands(wl, seed, work)]
    return time.perf_counter() - start, cli, steps


def run_args(wl: Workload, seed: int, work: Path, iterations: int, workers: int, out: str) -> list[str]:
    args = ["run"]
    for config in wl.configs:
        args += ["--config", config]
    if wl.synth:
        args += ["--config", str(work / SYNTH_CONFIG)]
    return args + [
        "--sizes", ",".join(str(n) for n in wl.sizes),
        "--rates", ",".join(str(r) for r in wl.rates),
        "--iters", str(iterations),
        "--seed", str(seed),
        "--workers", str(workers),
        "--out", str(work / out),
        *wl.run_args,
    ]


def study_commands(wl: Workload, seed: int, work: Path, iterations: int):
    summary = str(work / SUMMARY)
    return [
        ("run", run_args(wl, seed, work, iterations, wl.workers, RESULTS)),
        ("summarize", ["summarize", "--in", str(work / RESULTS), "--out", summary]),
        *((f"guideline_{m}", ["guideline", "--in", summary, "--n", str(wl.guideline_n),
                              "--metric", m, "--out", str(work / out)])
          for m, out in GUIDELINES.items()),
        ("report", ["report", "--in", summary, "--cell", "B:f1:test", "--out", str(work / CHART)]),
    ]


@dataclass
class Study:
    """One pass of the closed loop and what its checks found."""

    steps: dict[str, Step]
    study_s: float
    iterations: int
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        step = self.steps.get("run")
        return step.seconds if step else 0.0

    @property
    def post_s(self) -> float:
        return sum(step.seconds for name, step in self.steps.items() if name != "run")

    @property
    def iters_per_s(self) -> float:
        return self.attempted / self.run_s if self.run_s else 0.0


def run_study(cli, wl: Workload, seed: int, work: Path, iterations: int) -> Study:
    """run -> summarize -> guideline per metric -> report; stops at the first failing step."""
    for name in (RESULTS, SUMMARY, *GUIDELINES.values(), CHART):
        (work / name).unlink(missing_ok=True)
    steps: dict[str, Step] = {}
    start = time.perf_counter()
    for name, argv in study_commands(wl, seed, work, iterations):
        steps[name] = step = call(cli, name, argv)
        if step.code != 0:
            break
    return Study(steps, time.perf_counter() - start, iterations)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def check_study(study: Study, wl: Workload, work: Path) -> Study:
    """Exit codes, row counts, CSV load-back and output hashes of one study.

    Iterations count as failed when they come back degenerate (NaN) or when
    ``run`` did not finish, so they were lost.
    """
    expected = wl.cells * study.iterations
    study.attempted = expected
    problems = study.problems
    for name, step in study.steps.items():
        if step.code != 0:
            problems.append(f"{name} exited {step.code}: {step.message}")
    if study.steps["run"].code != 0:
        study.failed = expected
        return study
    woesim_io = importlib.import_module("woesim.io")
    try:
        records = woesim_io.load_results_csv(work / RESULTS)
    except Exception as exc:  # noqa: BLE001 - any load failure is a finding
        problems.append(f"results CSV does not load back: {exc!r}")
        study.failed = expected
        return study
    if len(records) != expected:
        problems.append(f"{len(records)} records, expected {wl.cells} cells x {study.iterations}")
    degenerate = sum(1 for r in records if not r.valid)
    study.failed = degenerate + max(0, expected - len(records))
    if len(study.steps) == 3 + len(GUIDELINES) and all(s.code == 0 for s in study.steps.values()):
        summary = woesim_io.load_summary_csv(work / SUMMARY)
        if len(summary) != SUMMARY_ROWS_PER_CELL * wl.cells:
            problems.append(f"{len(summary)} summary rows, expected {SUMMARY_ROWS_PER_CELL} x {wl.cells}")
        for out in GUIDELINES.values():
            with open(work / out, newline="", encoding="utf-8") as fh:
                rows = sum(1 for _ in csv.reader(fh)) - 1
            if rows != GUIDELINE_ROWS_PER_RATE * len(wl.rates):
                problems.append(f"{out}: {rows} rows, expected {GUIDELINE_ROWS_PER_RATE} x {len(wl.rates)}")
        chart = work / CHART
        if not chart.exists() or "<svg" not in chart.read_text(encoding="utf-8"):
            problems.append("report wrote no SVG chart")
    outputs = {"results": RESULTS, "summary": SUMMARY,
               **{f"guideline_{m}": out for m, out in GUIDELINES.items()}}
    study.hashes = {name: sha256(work / out) for name, out in outputs.items()}
    return study


def serial_pass(cli, wl: Workload, seed: int, work: Path, iterations: int) -> Step:
    """The same ``run`` at ``--workers 1``, written beside the pool's results."""
    return call(cli, "run", run_args(wl, seed, work, iterations, 1, SERIAL_RESULTS))
