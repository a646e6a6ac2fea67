"""Monte Carlo orchestration: the per-iteration train/validate/test pipeline,
the (config x size x rate) grid sweep, and quantile summaries.

Every iteration derives its three sample streams solely from
(master_seed, iteration, role), so any execution schedule - serial, process
pool, any worker count - produces identical records; the merged output is
sorted by cell key to make that visible byte for byte.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable

import numpy as np

from .configs import ConfigSpec, EventRate, aggregate_iv
from .errors import DegenerateDesign, EmptyCell, NoEvents, NoNonevents
from .metrics import METRIC_F1, METRIC_P4, confusions, f1, gini, optimize_cutoffs, p4

# bench/layers.py traces these under this module, so they stay importable
# here though each split is counted through the batched forms above
from .metrics import confusion, default_cutoff_grid, optimize_cutoff  # noqa: F401
from .rng import RngStream, check_master_seed
from .sampling import SamplingPlan, compress, generate_sample, make_plan
from .scorecard import check_theta_adj, estimate_woe, fit_logistic, predict_proba, transform

#: Sample sizes the default grid sweeps.
STUDY_SIZES = (50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 750, 1000, 1500, 2000, 2500)
#: Event rates the default grid sweeps.
DEFAULT_RATES = (0.01, 0.05, 0.10)

#: (metric, split) pairs summarized per cell; theta cutoffs are picked on
#: the validation split, so that is the split they are reported under.
SUMMARY_FIELDS = (
    ("f1", "val"),
    ("f1", "test"),
    ("p4", "val"),
    ("p4", "test"),
    ("gini", "val"),
    ("gini", "test"),
    ("theta_f1", "val"),
    ("theta_p4", "val"),
)


@dataclass(frozen=True)
class RunSpec:
    """Full description of one study run."""

    configs: tuple[ConfigSpec, ...]
    sizes: tuple[int, ...] = STUDY_SIZES
    rates: tuple[float, ...] = DEFAULT_RATES
    iterations: int = 500
    master_seed: int = 0
    theta_adj: float = 0.5
    clamp: bool = True
    fixed_events: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "configs", tuple(self.configs))
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if not self.configs:
            raise ValueError("RunSpec needs at least one config")
        if not self.sizes:
            raise ValueError("RunSpec needs at least one sample size")
        if not self.rates:
            raise ValueError("RunSpec needs at least one event rate")
        if any(not 0.0 < r < 1.0 for r in self.rates):
            raise ValueError("event rates must lie in (0, 1)")
        # a repeated config id, size or rate would run its cells twice and
        # pool them; configs sharing an id would also share one AIV
        ids = tuple(config.id for config in self.configs)
        if len(set(ids)) != len(ids):
            raise ValueError(f"config ids must be distinct, got {ids}")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError(f"sample sizes must be distinct, got {self.sizes}")
        if len(set(self.rates)) != len(self.rates):
            raise ValueError(f"event rates must be distinct, got {self.rates}")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.fixed_events is not None and self.fixed_events < 1:
            raise ValueError("fixed_events must be at least 1 when given")
        check_master_seed(self.master_seed)
        check_theta_adj(self.theta_adj)


@dataclass(frozen=True)
class IterationRecord:
    """Metric bundle produced by one Monte Carlo iteration.

    A degenerate iteration (an estimator refused its input) is kept as a
    record with NaN metric fields so that summaries can exclude it and
    still account for it.
    """

    config_id: str
    aiv: float
    n: int
    event_rate: float
    iteration: int
    clamped: bool
    converged: bool
    theta_f1: float
    theta_p4: float
    f1_val: float
    f1_test: float
    p4_val: float
    p4_test: float
    gini_val: float
    gini_test: float

    @property
    def valid(self) -> bool:
        return not math.isnan(self.f1_val)

    def sort_key(self):
        return (self.config_id, self.n, self.event_rate, self.iteration)


@dataclass(frozen=True)
class SummaryRecord:
    """Quantile summary of one metric/split within one grid cell."""

    config_id: str
    aiv: float
    n: int
    event_rate: float
    metric: str
    split: str
    median: float
    q25: float
    q75: float
    p05: float
    p95: float
    n_iter: int
    n_nonconverged: int

    def sort_key(self):
        return (self.config_id, self.n, self.event_rate, self.metric, self.split)


def run_iteration(
    config: ConfigSpec,
    plan: SamplingPlan,
    master_seed: int,
    iteration: int,
    *,
    theta_adj: float = 0.5,
    aiv: float | None = None,
) -> IterationRecord:
    """One full train/validate/test pass at a fixed sampling plan.

    The training split alone fixes the WoE table and the coefficients; the
    validation split alone picks the F1 and P4 cutoffs, from one count of
    its scores; the test split is only ever scored, counted once at both
    cutoffs and ranked once threshold-free for concordance.  Every split
    is handled as weighted joint cells (see ``compress``), from the WoE
    estimate on, which leaves every count the estimators see unchanged.
    """
    if aiv is None:
        aiv = aggregate_iv(config).aiv
    base = dict(
        config_id=config.id,
        aiv=aiv,
        n=plan.n,
        event_rate=plan.pi1,
        iteration=iteration,
        clamped=plan.clamped,
    )
    try:
        train = generate_sample(config, plan, RngStream(master_seed, iteration, "train"))
        val = generate_sample(config, plan, RngStream(master_seed, iteration, "val"))
        test = generate_sample(config, plan, RngStream(master_seed, iteration, "test"))

        train, train_w = compress(train, config.bin_counts)
        table = estimate_woe(train, config.bin_counts, theta_adj, train_w)
        model = fit_logistic(transform(train, table), train.Y, train_w)

        val, val_w = compress(val, config.bin_counts)
        probs_val = predict_proba(model, transform(val, table))
        cut_f1, cut_p4 = optimize_cutoffs(probs_val, val.Y, (METRIC_F1, METRIC_P4), weights=val_w)

        test, test_w = compress(test, config.bin_counts)
        probs_test = predict_proba(model, transform(test, table))
        cm_f1, cm_p4 = confusions(probs_test, test.Y, (cut_f1.theta, cut_p4.theta), test_w)
        return IterationRecord(
            converged=model.converged,
            theta_f1=cut_f1.theta,
            theta_p4=cut_p4.theta,
            f1_val=cut_f1.score,
            f1_test=f1(cm_f1),
            p4_val=cut_p4.score,
            p4_test=p4(cm_p4),
            gini_val=gini(probs_val, val.Y, val_w),
            gini_test=gini(probs_test, test.Y, test_w),
            **base,
        )
    except (NoEvents, NoNonevents, DegenerateDesign):
        base["converged"] = False
        metrics = {f.name: math.nan for f in fields(IterationRecord) if f.name not in base}
        return IterationRecord(**base, **metrics)


def _plans_for(spec: RunSpec) -> list[tuple[ConfigSpec, SamplingPlan]]:
    cells = []
    for config in spec.configs:
        for n in spec.sizes:
            if spec.fixed_events is not None:
                # fixed event count: the rate list is irrelevant, the
                # effective rate n1/n is what gets recorded
                plan = SamplingPlan(
                    n=n, n1=spec.fixed_events, pi1=spec.fixed_events / n
                )
                cells.append((config, plan))
            else:
                for rate in spec.rates:
                    plan = make_plan(n, EventRate(rate), clamp=spec.clamp)
                    cells.append((config, plan))
    return cells


def _run_cell(args) -> list[IterationRecord]:
    spec, config, plan, aiv = args
    return [
        run_iteration(config, plan, spec.master_seed, iteration, theta_adj=spec.theta_adj, aiv=aiv)
        for iteration in range(spec.iterations)
    ]


def run_grid(spec: RunSpec, workers: int = 1) -> list[IterationRecord]:
    """Execute the whole grid; output order is by cell key, never by schedule.

    ``workers`` > 1 fans the cells out to a process pool of at most one
    worker per cell.  Results are identical to the serial run because every
    iteration's randomness is an addressable function of (master_seed,
    iteration, role).
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cells = _plans_for(spec)
    aivs = {config.id: aggregate_iv(config).aiv for config in spec.configs}
    tasks = [(spec, config, plan, aivs[config.id]) for config, plan in cells]
    # a process pool may start every worker at its first submit, so never
    # ask for more workers than there are cells; one cell runs serially
    workers = min(workers, len(tasks))
    records: list[IterationRecord] = []
    if workers == 1:
        for task in tasks:
            records.extend(_run_cell(task))
    else:
        # heaviest cells first, so no large cell starts last and leaves
        # the other workers idle; the stable sort keeps ties in grid order
        queued = sorted(tasks, key=lambda task: task[2].n, reverse=True)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_run_cell, queued):
                records.extend(chunk)
    records.sort(key=IterationRecord.sort_key)
    return records


#: The record attribute behind each ``SUMMARY_FIELDS`` row.
_SUMMARY_VALUES = attrgetter(
    *(metric if metric.startswith("theta") else f"{metric}_{split}" for metric, split in SUMMARY_FIELDS)
)


def summarize(records: Iterable[IterationRecord]) -> list[SummaryRecord]:
    """Per-cell, per-metric/split quantile summaries.

    Quantiles use linear interpolation between order statistics (the
    numpy default).  Degenerate records are excluded; ``n_iter`` counts
    what remains, ``n_nonconverged`` the flagged fits among them.
    """
    by_cell: dict[tuple, list[IterationRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.config_id, rec.n, rec.event_rate), []).append(rec)

    out: list[SummaryRecord] = []
    for (config_id, n, rate), cell in sorted(by_cell.items()):
        valid = [r for r in cell if r.valid]
        if not valid:
            raise EmptyCell(
                f"cell ({config_id!r}, n={n}, rate={rate}) has no valid records"
            )
        n_nonconverged = sum(1 for r in valid if not r.converged)
        # one (8, n_valid) array, one quantile call: each row is reduced on
        # its own, exactly as a call per field would
        values = np.array([_SUMMARY_VALUES(r) for r in valid], dtype=float).T
        quantiles = np.quantile(values, (0.05, 0.25, 0.50, 0.75, 0.95), axis=1).T.tolist()
        for (metric, split), (p05, q25, median, q75, p95) in zip(SUMMARY_FIELDS, quantiles):
            out.append(
                SummaryRecord(
                    config_id=config_id,
                    aiv=valid[0].aiv,
                    n=n,
                    event_rate=rate,
                    metric=metric,
                    split=split,
                    median=median,
                    q25=q25,
                    q75=q75,
                    p05=p05,
                    p95=p95,
                    n_iter=len(valid),
                    n_nonconverged=n_nonconverged,
                )
            )
    out.sort(key=SummaryRecord.sort_key)
    return out
