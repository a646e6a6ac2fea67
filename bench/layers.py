"""Which woesim functions the traced run wraps, and the per-layer metrics.

Each target is wrapped where its caller looks it up, so the wrapper sees
exactly the calls the study makes.  Span names are ``<layer>.<function>``
and layers are named after woesim's modules.
"""

from __future__ import annotations

import importlib
import pickle
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby

from spans import Span, Tracer, is_traced, self_times

LAYERS = ("configs", "rng", "sampling", "scorecard", "metrics", "engine", "curve", "io", "charts", "cli")


def _fit_facts(model):
    return (getattr(model, "iterations", None), getattr(model, "converged", None))


def _record_valid(record):
    return getattr(record, "valid", None)


def _variates(sample):
    return sample.X.size


def _keep(records):
    # the records themselves; their pickled size is computed after the study
    return records


# (module, class or None, attribute, span name, fact taken from the result)
TARGETS = (
    ("woesim.cli", None, "main", "cli.main", None),
    ("woesim.cli", None, "synthesize_config", "configs.synthesize_config", None),
    ("woesim.cli", None, "aggregate_iv", "configs.aggregate_iv", None),
    ("woesim.configs", None, "aggregate_iv", "configs.aggregate_iv", None),
    ("woesim.engine", None, "aggregate_iv", "configs.aggregate_iv", None),
    ("woesim.rng", "RngStream", "generator", "rng.generator", None),
    ("woesim.engine", None, "make_plan", "sampling.make_plan", None),
    ("woesim.engine", None, "generate_sample", "sampling.generate_sample", _variates),
    ("woesim.engine", None, "estimate_woe", "scorecard.estimate_woe", None),
    ("woesim.engine", None, "transform", "scorecard.transform", None),
    ("woesim.engine", None, "fit_logistic", "scorecard.fit_logistic", _fit_facts),
    ("woesim.engine", None, "predict_proba", "scorecard.predict_proba", None),
    ("woesim.engine", None, "default_cutoff_grid", "metrics.default_cutoff_grid", None),
    ("woesim.engine", None, "optimize_cutoff", "metrics.optimize_cutoff", None),
    ("woesim.engine", None, "confusion", "metrics.confusion", None),
    ("woesim.engine", None, "gini", "metrics.gini", None),
    ("woesim.cli", None, "run_grid", "engine.run_grid", _keep),
    ("woesim.engine", None, "_run_cell", "engine.run_cell", None),
    ("woesim.engine", None, "run_iteration", "engine.run_iteration", _record_valid),
    ("woesim.cli", None, "summarize", "engine.summarize", None),
    ("woesim.io", None, "resolve_config", "io.resolve_config", None),
    ("woesim.io", None, "load_config", "io.load_config", None),
    ("woesim.io", None, "save_config", "io.save_config", None),
    ("woesim.io", None, "save_results_csv", "io.save_results_csv", None),
    ("woesim.io", None, "load_results_csv", "io.load_results_csv", None),
    ("woesim.io", None, "save_summary_csv", "io.save_summary_csv", None),
    ("woesim.io", None, "load_summary_csv", "io.load_summary_csv", None),
    ("woesim.io", None, "save_guideline_csv", "io.save_guideline_csv", None),
    ("woesim.cli", None, "fit_logistic_curve", "curve.fit_logistic_curve", None),
    ("woesim.cli", None, "guideline_table", "curve.guideline_table", None),
    ("woesim.cli", None, "emit_chart", "charts.emit_chart", None),
)


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def install(tracer: Tracer) -> None:
    """Wrap every target on the currently imported woesim modules."""
    for module, cls, attr, name, fact in TARGETS:
        tracer.wrap(_owner(module, cls), attr, name, fact)


def wrapped_targets() -> list[str]:
    """Targets that currently carry a tracing wrapper (empty when untraced)."""
    found = []
    for module, cls, attr, _, _ in TARGETS:
        owner = _owner(module, cls)
        func = owner.__dict__.get(attr) if cls else getattr(owner, attr, None)
        if func is not None and is_traced(func):
            found.append(f"{module}.{cls + '.' if cls else ''}{attr}")
    return found


def _pct(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default); 0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    k = (len(s) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def ipc_bytes(records) -> int:
    """Pickled size of the records, one pickle per grid cell as a pool returns them."""
    key = lambda r: (r.config_id, r.n, r.event_rate)  # noqa: E731
    return sum(
        len(pickle.dumps(list(cell), protocol=pickle.HIGHEST_PROTOCOL))
        for _, cell in groupby(records, key=key)
    )


@dataclass
class TraceRun:
    """What one ``--trace 1`` run measured, traced and untraced."""

    driver_pid: int
    workers: int
    setup_spans: list[Span] = field(default_factory=list)
    studies: list[list[Span]] = field(default_factory=list)
    #: study_s of each traced study and of the untraced study on the same data
    traced_study_s: list[float] = field(default_factory=list)
    untraced_study_s: list[float] = field(default_factory=list)
    untraced_iters_per_s: list[float] = field(default_factory=list)
    serial_iters_per_s: float = 0.0
    results_bytes: int = 0


def per_layer_metrics(run: TraceRun) -> dict[str, float]:
    """Every per-layer metric of the benchmark from one trace run."""
    n_studies = max(len(run.studies), 1)
    spans = [s for study in run.studies for s in study]
    durations: dict[str, list[float]] = defaultdict(list)
    facts: dict[str, list] = defaultdict(list)
    for s in spans:
        durations[s.name].append(s.duration)
        facts[s.name].append(s.info)

    layer_self = defaultdict(float)
    accounted = []
    for study, study_s in zip(run.studies, run.traced_study_s):
        selfs = self_times(study)
        driver = 0.0
        for s in study:
            layer_self[s.layer] += selfs[s.sid]
            if s.pid == run.driver_pid:
                driver += selfs[s.sid]
        accounted.append(driver / study_s)

    def per_study(name):
        return len(durations[name]) / n_studies

    def p50(name, scale):
        return _median(durations[name]) * scale

    def per_study_total(name):
        return _median([sum(s.duration for s in study if s.name == name) for study in run.studies])

    fits = [f for f in facts["scorecard.fit_logistic"] if f and f[0] is not None]
    newton = [f[0] for f in fits]
    valid = [v for v in facts["engine.run_iteration"] if v is not None]
    grids = [f for f in facts["engine.run_grid"] if f is not None]
    cell_max = [
        max((s.duration for s in study if s.name == "engine.run_cell"), default=0.0)
        for study in run.studies
    ]
    setup_selfs = self_times(run.setup_spans)
    untraced_ips = _median(run.untraced_iters_per_s)
    serial_ips = run.serial_iters_per_s or untraced_ips
    us, ms = 1e6, 1e3

    metrics = {
        "rng.generator_us_p50": p50("rng.generator", us),
        "rng.calls": per_study("rng.generator"),
        "sampling.generate_sample_us_p50": p50("sampling.generate_sample", us),
        "sampling.generate_sample_calls": per_study("sampling.generate_sample"),
        "sampling.variates": sum(v for v in facts["sampling.generate_sample"] if v) / n_studies,
        "scorecard.fit_logistic_us_p50": p50("scorecard.fit_logistic", us),
        "scorecard.fit_logistic_us_p99": _pct(durations["scorecard.fit_logistic"], 0.99) * us,
        "scorecard.fit_logistic_calls": per_study("scorecard.fit_logistic"),
        "scorecard.newton_iters_mean": statistics.fmean(newton) if newton else 0.0,
        "scorecard.newton_iters_p99": _pct(newton, 0.99),
        "scorecard.nonconverged_frac": sum(1 for f in fits if not f[1]) / len(fits) if fits else 0.0,
        "scorecard.estimate_woe_us_p50": p50("scorecard.estimate_woe", us),
        "scorecard.estimate_woe_calls": per_study("scorecard.estimate_woe"),
        "scorecard.transform_us_p50": p50("scorecard.transform", us),
        "scorecard.transform_calls": per_study("scorecard.transform"),
        "scorecard.predict_proba_us_p50": p50("scorecard.predict_proba", us),
        "scorecard.predict_proba_calls": per_study("scorecard.predict_proba"),
        "metrics.optimize_cutoff_us_p50": p50("metrics.optimize_cutoff", us),
        "metrics.optimize_cutoff_calls": per_study("metrics.optimize_cutoff"),
        "metrics.gini_us_p50": p50("metrics.gini", us),
        "metrics.gini_calls": per_study("metrics.gini"),
        "metrics.confusion_us_p50": p50("metrics.confusion", us),
        "metrics.confusion_calls": per_study("metrics.confusion"),
        "engine.run_iteration_us_p50": p50("engine.run_iteration", us),
        "engine.run_iteration_us_p99": _pct(durations["engine.run_iteration"], 0.99) * us,
        "engine.run_iteration_calls": per_study("engine.run_iteration"),
        "engine.degenerate_frac": sum(1 for v in valid if not v) / len(valid) if valid else 0.0,
        "engine.cell_s_max": _median(cell_max),
        "engine.serial_iters_per_s": serial_ips,
        "engine.pool_efficiency": untraced_ips / (run.workers * serial_ips) if serial_ips else 0.0,
        "engine.ipc_bytes": ipc_bytes(grids[-1]) if grids else 0,
        "engine.summarize_s": per_study_total("engine.summarize"),
        "io.save_results_s": per_study_total("io.save_results_csv"),
        "io.load_results_s": per_study_total("io.load_results_csv"),
        "io.save_summary_s": per_study_total("io.save_summary_csv"),
        "io.load_summary_s": per_study_total("io.load_summary_csv"),
        "io.results_bytes": run.results_bytes,
        "curve.fit_logistic_curve_ms_p50": p50("curve.fit_logistic_curve", ms),
        "curve.fit_logistic_curve_calls": per_study("curve.fit_logistic_curve"),
        "charts.emit_chart_ms": p50("charts.emit_chart", ms),
        "configs.synthesize_config_ms": _median(
            [s.duration for s in run.setup_spans if s.name == "configs.synthesize_config"]
        ) * ms,
        "configs.aggregate_iv_us": _median(
            durations["configs.aggregate_iv"]
            + [s.duration for s in run.setup_spans if s.name == "configs.aggregate_iv"]
        ) * us,
        "configs.aggregate_iv_calls": per_study("configs.aggregate_iv"),
        "cli.setup_self_s": sum((setup_selfs[s.sid] for s in run.setup_spans if s.layer == "cli"), 0.0),
        "trace_overhead_frac": _median(
            [t / u for t, u in zip(run.traced_study_s, run.untraced_study_s)]
        ) - 1.0 if run.traced_study_s else 0.0,
        "trace_accounted_frac": statistics.fmean(accounted) if accounted else 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / n_studies
    return metrics
