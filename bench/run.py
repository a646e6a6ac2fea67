#!/usr/bin/env python3
"""woesim study benchmark.

    python3 bench/run.py --workload small_n --seed 1 --seconds 20 --trace 0

Runs one workload (see ``study.WORKLOADS``) as a closed loop of studies in
this process: ``synth``/``validate`` at set-up where the workload needs them,
then ``run``, ``summarize``, ``guideline`` (F1 and P4) and ``report`` through
``woesim.cli.main``, again and again until ``--seconds`` have passed.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced studies and reports the
per-layer metrics.  The last line of output is one JSON object.

woesim is imported from ``src/`` of the checkout this file sits in; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import spans
import study

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
SETUP_REPS = 11
MIN_STUDIES = 3
#: calibration kernel time, seconds, at the reference machine speed that
#: every end-to-end timing is scaled to (see ``calibrate``)
CAL_REF_S = 0.045


def pin_blas() -> None:
    # one BLAS thread per process, so --workers 2 never runs more threads
    # than the machine's two cores; must happen before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_woesim():
    """Import woesim from this checkout's ``src/``; None if it is not there."""
    if not (SRC / "woesim" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import woesim

    if Path(woesim.__file__).resolve().parent != SRC / "woesim":
        return None
    return woesim


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "woesim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def header(workload: str, seed: int) -> list[str]:
    import platform

    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return [
        f"# cpu_count={os.cpu_count()} cpu_model={_cpu_model()}",
        f"# python={platform.python_version()} numpy={numpy.__version__} "
        f"blas={blas.get('name', '?')} {blas.get('version', '?')} blas_threads={BLAS_THREADS}",
        f"# commit={_commit()} woesim_source_sha256={_source_digest()}",
        f"# workload={workload} seed={seed}",
    ]


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of its largest finished child, MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q25, _, q75 = statistics.quantiles(values, n=4)
    return f"q25 {q25:.6g} q75 {q75:.6g} n={len(values)}"


class Bench:
    """One benchmark run: its workload, work directory and findings.

    Study ``k`` of a run draws its data from ``sub_seed(k)``, so one run
    measures many data sets and the study time does not hang on how hard
    one data set happens to be; set-up and the synthesized config use the
    run's seed itself.
    """

    def __init__(self, wl, seed: int, seconds: float, iterations: int, work: Path, units: dict[str, str]):
        self.wl, self.seed, self.seconds, self.iterations, self.work = wl, seed, seconds, iterations, work
        self.units = units
        self.problems: list[str] = []
        self.studies = []
        self.lines: list[str] = []

    def sub_seed(self, k: int) -> int:
        return study.sub_seed(self.seed, k)

    def setups(self, reps: int):
        times = []
        for _ in range(reps):
            seconds, cli, steps = study.setup(self.wl, self.seed, self.work)
            times.append(seconds)
            self.problems += [f"setup {s.name} exited {s.code}: {s.message}" for s in steps if s.code]
        return times, cli

    def run_checked(self, cli, k: int, iterations=None, timed=True):
        """One untraced study on ``sub_seed(k)``, checked; timed ones count."""
        wrapped = layers.wrapped_targets()
        if wrapped:
            self.problems.append(f"untraced study runs wrapped functions: {wrapped}")
        s = study.run_study(cli, self.wl, self.sub_seed(k), self.work, iterations or self.iterations)
        return self.check(s, timed)

    def check(self, s, timed=True):
        study.check_study(s, self.wl, self.work)
        self.problems += s.problems
        if timed:
            self.studies.append(s)
        return s

    def check_repeat(self, first, again) -> None:
        if again.hashes != first.hashes:
            self.problems.append("output hashes differ between repeats of the same study")

    def check_first(self, cli) -> float:
        """Stored hashes of study 0; on a pool workload, its serial pass.

        Returns the serial pass's iterations per second (0 without a pool).
        """
        first = self.studies[0].hashes
        self.lines.append("# hashes of study 0 " + " ".join(f"{k}={v}" for k, v in first.items()))
        self._compare_stored(first)
        if self.wl.workers == 1:
            return 0.0
        step = study.serial_pass(cli, self.wl, self.sub_seed(0), self.work, self.iterations)
        if step.code:
            self.problems.append(f"serial pass exited {step.code}: {step.message}")
        elif study.sha256(self.work / study.SERIAL_RESULTS) != first["results"]:
            self.problems.append("pool results differ from the serial pass (schedule invariance)")
        return self.wl.cells * self.iterations / step.seconds

    def _compare_stored(self, hashes) -> None:
        key = f"{self.wl.name}/seed={self.seed}/iters={self.iterations}"
        stored = json.loads((BENCH_DIR / "hashes.json").read_text(encoding="utf-8")).get(key)
        if stored is None:
            self.lines.append(f"# result check: no stored hashes for {key}")
        elif stored == hashes:
            self.lines.append(f"# result check: outputs match the stored hashes for {key}")
        else:
            for name in hashes:
                if hashes[name] != stored.get(name):
                    self.lines.append(f"# BEHAVIOUR CHANGE: {name} sha256 {hashes[name]} differs "
                                      f"from stored {stored.get(name)} ({key})")

    def deadline_loop(self, body) -> None:
        """Call ``body(k)`` for k = 0, 1, ... until ``seconds`` pass, at least MIN_STUDIES times."""
        deadline = time.perf_counter() + self.seconds
        k = 0
        while k < MIN_STUDIES or time.perf_counter() < deadline:
            body(k)
            k += 1

    @property
    def attempted(self) -> int:
        return sum(s.attempted for s in self.studies)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.studies)


def calibrate() -> float:
    """Seconds one fixed kernel takes: small numpy calls and interpreter work.

    The kernel does not touch woesim, so it only moves with the machine's
    speed, which on a shared host drifts by 20% over minutes.
    """
    import numpy as np

    x = np.random.default_rng(12345).random(1000)
    start = time.perf_counter()
    for i in range(600):
        y = np.sort(x)
        float(y @ x)
        np.unique(np.round(x, 2), return_inverse=True)
        table = {}
        for j in range(150):
            table[j] = j * 1.5 + i
    return time.perf_counter() - start


def measure(bench: Bench) -> dict[str, float]:
    """Untraced runs: the end-to-end metrics.

    Every timing is scaled by CAL_REF_S over the mean of the calibration
    runs just before and after it: seconds at the machine speed where the
    calibration kernel takes CAL_REF_S.
    """
    cal = calibrate()
    setup_times, cli = bench.setups(SETUP_REPS)
    after = calibrate()
    setup_scale = 2 * CAL_REF_S / (cal + after)
    # warm-up, so first-call costs stay out; timed study 0 repeats it
    warm = bench.run_checked(cli, 0, timed=False)
    cal = calibrate()
    scales = []

    def timed_study(k):
        nonlocal cal
        bench.run_checked(cli, k)
        after = calibrate()
        scales.append(2 * CAL_REF_S / (cal + after))
        cal = after

    bench.deadline_loop(timed_study)
    bench.check_repeat(warm, bench.studies[0])
    bench.check_first(cli)
    studies = bench.studies
    samples = {
        "study_s": [s.study_s * f for s, f in zip(studies, scales)],
        "iters_per_s": [s.iters_per_s / f for s, f in zip(studies, scales)],
        "post_s": [s.post_s * f for s, f in zip(studies, scales)],
        "setup_s": [t * setup_scale for t in setup_times],
    }
    raw = {
        "study_s": [s.study_s for s in studies],
        "iters_per_s": [s.iters_per_s for s in studies],
        "post_s": [s.post_s for s in studies],
        "setup_s": setup_times,
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    bench.lines.append(f"# machine speed: calibration at {statistics.median(CAL_REF_S / f for f in scales):.4g} s "
                       f"(reference {CAL_REF_S} s)")
    for name, value in metrics.items():
        line = f"{name} {value:.6g} {bench.units[name]}  {_spread(samples.get(name, [value]))}"
        if name in raw:
            line += f"  unscaled {statistics.median(raw[name]):.6g}"
        bench.lines.append(line)
    frac = bench.failed / bench.attempted if bench.attempted else 0.0
    # failed_frac is 0 on a healthy run, so it travels as the result's
    # "failed" / "attempted" counts rather than as a bounded metric
    bench.lines.append(f"failed_frac {frac:.6g} ratio  ({bench.failed} of {bench.attempted} iterations)")
    return metrics


def measure_traced(bench: Bench) -> dict[str, float]:
    """Pairs of an untraced and a traced study on the same data: per-layer metrics."""
    _, cli = bench.setups(1)
    run = layers.TraceRun(driver_pid=os.getpid(), workers=bench.wl.workers)
    tracer = spans.Tracer(bench.work)

    def traced(action):
        layers.install(tracer)
        try:
            result = action()
        finally:
            collected = tracer.take()
            tracer.uninstall()
        return result, collected

    steps, run.setup_spans = traced(lambda: [study.call(cli, n, a) for n, a in
                                             study.setup_commands(bench.wl, bench.seed, bench.work)])
    bench.problems += [f"traced setup {s.name} exited {s.code}: {s.message}" for s in steps if s.code]
    bench.run_checked(cli, 0, iterations=1, timed=False)

    def pair(k):
        plain = bench.run_checked(cli, k)
        s, collected = traced(lambda: study.run_study(cli, bench.wl, bench.sub_seed(k), bench.work, bench.iterations))
        bench.check(s)
        bench.check_repeat(plain, s)
        run.untraced_study_s.append(plain.study_s)
        run.untraced_iters_per_s.append(plain.iters_per_s)
        run.studies.append(collected)
        run.traced_study_s.append(s.study_s)

    bench.deadline_loop(pair)
    results = bench.work / study.RESULTS
    run.results_bytes = results.stat().st_size if results.exists() else 0
    run.serial_iters_per_s = bench.check_first(cli)
    if tracer.missing:
        bench.lines.append(f"# not traced (absent in this woesim): {sorted(set(tracer.missing))}")
    metrics = layers.per_layer_metrics(run)
    for name, value in metrics.items():
        bench.lines.append(f"{name} {value:.6g} {bench.units[name]}")
    return metrics


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iters", type=int, default=None,
                        help="iterations per grid cell (default: the workload's); for smoke tests")
    args = parser.parse_args(argv)

    pin_blas()
    if import_woesim() is None:
        print(f"error: no woesim package under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in study.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = study.WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    bench = Bench(wl, args.seed, args.seconds, args.iters or wl.iterations, work, units)
    try:
        metrics = (measure_traced if args.trace else measure)(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        bench.problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    print("\n".join(header(wl.name, args.seed) + bench.lines))
    for problem in dict.fromkeys(bench.problems):
        print(f"# CHECK FAILED: {problem}")
    result = {
        "correct": not bench.problems,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items() if name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
