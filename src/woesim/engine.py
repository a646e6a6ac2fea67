"""Monte Carlo orchestration: the per-iteration train/validate/test pipeline,
the (config x size x rate) grid sweep, and quantile summaries.

Every iteration derives its three sample streams solely from
(master_seed, iteration, role), so any execution schedule - serial, process
pool, any worker count - produces identical records; the merged output is
sorted by cell key to make that visible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple

import numpy as np

from .configs import ConfigSpec, EventRate, aggregate_iv
from .errors import DegenerateDesign, EmptyCell, SpecError, _integer
from .metrics import _rank

# bench/layers.py traces these under this module, so they stay importable
# here though run_iteration reads every split metric from one _rank call
from .metrics import confusion, default_cutoff_grid, gini, optimize_cutoff  # noqa: F401
from .rng import RngStream, check_master_seed
from .sampling import SamplingPlan, generate_cells, generate_sample, make_plan
from .scorecard import (
    DEFAULT_THETA_ADJ, check_theta_adj, estimate_woe, fit_logistic, predict_proba, transform,
)

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
    theta_adj: float = DEFAULT_THETA_ADJ
    fixed_events: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "configs", tuple(self.configs))
        object.__setattr__(self, "sizes", tuple(_integer("sizes", n) for n in self.sizes))
        object.__setattr__(self, "iterations", _integer("iterations", self.iterations))
        if self.fixed_events is not None:
            object.__setattr__(self, "fixed_events", _integer("fixed_events", self.fixed_events))
        # EventRate refuses a rate outside (0, 1)
        object.__setattr__(self, "rates", tuple(EventRate(r).pi1 for r in self.rates))
        if not self.configs:
            raise SpecError("RunSpec needs at least one config")
        if not self.sizes:
            raise SpecError("RunSpec needs at least one sample size")
        if not self.rates:
            raise SpecError("RunSpec needs at least one event rate")
        # a repeated config id, size or rate would run its cells twice and
        # pool them; configs sharing an id would be summarized under one AIV
        ids = tuple(config.id for config in self.configs)
        if len(set(ids)) != len(ids):
            raise SpecError(f"config ids must be distinct, got {ids}")
        if len(set(self.sizes)) != len(self.sizes):
            raise SpecError(f"sample sizes must be distinct, got {self.sizes}")
        if len(set(self.rates)) != len(self.rates):
            raise SpecError(f"event rates must be distinct, got {self.rates}")
        if self.iterations < 1:
            raise SpecError("iterations must be at least 1")
        if self.fixed_events is not None and self.fixed_events < 1:
            raise SpecError("fixed_events must be at least 1 when given")
        check_master_seed(self.master_seed)
        check_theta_adj(self.theta_adj)


class IterationRecord(NamedTuple):
    """Metric bundle produced by one Monte Carlo iteration.

    A degenerate iteration (an estimator refused its input) is kept as a
    record with NaN metric fields so that summaries can exclude it and
    still account for it.  A record is the tuple of its results-CSV row.
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


class SummaryRecord(NamedTuple):
    """Quantile summary of one metric/split within one grid cell, as the
    tuple of its summary-CSV row."""

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
    theta_adj: float = DEFAULT_THETA_ADJ,
) -> IterationRecord:
    """One full train/validate/test pass at a fixed sampling plan.

    The training split alone fixes the WoE table and the coefficients.  The
    validation and test splits are only ever scored, and each is ranked
    once: the validation ranking gives the F1 and P4 cutoffs and its Gini,
    the test ranking F1 and P4 at those cutoffs and its Gini.  A split
    with at least as many rows as joint cells is drawn straight into its
    weighted cells (``generate_cells``, the cell counts of the rows
    ``generate_sample`` draws from the same stream), which leaves every
    count the estimators see unchanged; a smaller split keeps its rows.
    A record is a function of its arguments alone: its three streams are
    addressed by (master_seed, iteration, role), and its AIV is the
    config's.
    """
    base = dict(
        config_id=config.id,
        aiv=aggregate_iv(config).aiv,
        n=plan.n,
        event_rate=plan.pi1,
        iteration=iteration,
        clamped=plan.clamped,
    )
    draw = generate_cells if plan.n >= math.prod(config.bin_counts) else generate_sample
    try:
        train = draw(config, plan, RngStream(master_seed, iteration, "train"))
        val = draw(config, plan, RngStream(master_seed, iteration, "val"))
        test = draw(config, plan, RngStream(master_seed, iteration, "test"))

        table = estimate_woe(train, theta_adj)
        model = fit_logistic(transform(train, table), train.Y, train.w)

        ranked_val = _rank(predict_proba(model, transform(val, table)), val.Y, val.w)
        cut_f1, cut_p4 = ranked_val.best_cutoffs()

        ranked_test = _rank(predict_proba(model, transform(test, table)), test.Y, test.w)
        f1_test, p4_test = ranked_test.scores_at((cut_f1.theta, cut_p4.theta))
        return IterationRecord(
            converged=model.converged,
            theta_f1=cut_f1.theta,
            theta_p4=cut_p4.theta,
            f1_val=cut_f1.score,
            f1_test=float(f1_test[0]),
            p4_val=cut_p4.score,
            p4_test=float(p4_test[1]),
            gini_val=ranked_val.gini(),
            gini_test=ranked_test.gini(),
            **base,
        )
    except DegenerateDesign:
        base["converged"] = False
        metrics = {name: math.nan for name in IterationRecord._fields if name not in base}
        return IterationRecord(**base, **metrics)


def _plans_for(spec: RunSpec) -> list[tuple[ConfigSpec, SamplingPlan]]:
    cells = []
    for config in spec.configs:
        for n in spec.sizes:
            if spec.fixed_events is not None:
                # fixed event count: the rate list is irrelevant, the
                # effective rate n1/n is what gets recorded
                plan = SamplingPlan(n=n, n1=spec.fixed_events, pi1=spec.fixed_events / n)
                cells.append((config, plan))
            else:
                cells.extend((config, make_plan(n, EventRate(rate))) for rate in spec.rates)
    return cells


def _run_cell(args) -> list[IterationRecord]:
    spec, config, plan = args
    return [
        run_iteration(config, plan, spec.master_seed, iteration, theta_adj=spec.theta_adj)
        for iteration in range(spec.iterations)
    ]


def run_grid(spec: RunSpec, workers: int = 1) -> list[IterationRecord]:
    """Execute the whole grid; output order is by cell key, never by schedule.

    ``workers`` > 1 fans the cells out to a process pool of at most one
    worker per cell.  Results are identical to the serial run because every
    iteration's randomness is an addressable function of (master_seed,
    iteration, role).
    """
    if _integer("workers", workers) < 1:
        raise SpecError(f"workers must be at least 1, got {workers}")
    tasks = [(spec, config, plan) for config, plan in _plans_for(spec)]
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
        # imported here, not with the module: the pool pulls in
        # multiprocessing, logging, socket and queue (~1.5 MiB resident),
        # which serial runs and the post-run commands never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_run_cell, queued):
                records.extend(chunk)
    records.sort(key=IterationRecord.sort_key)
    return records


#: The record items behind the ``SUMMARY_FIELDS`` rows, in their order.
_SUMMARY_VALUES = itemgetter(*(
    IterationRecord._fields.index(metric if metric.startswith("theta") else f"{metric}_{split}")
    for metric, split in SUMMARY_FIELDS
))
_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.95)


def summarize(records: Iterable[IterationRecord]) -> list[SummaryRecord]:
    """Per-cell, per-metric/split quantile summaries.

    Quantiles use linear interpolation between order statistics (the
    numpy default).  Degenerate records are excluded; ``n_iter`` counts
    what remains, ``n_nonconverged`` the flagged fits among them.
    """
    by_cell: dict[tuple, list[IterationRecord]] = {}
    for rec in records:
        by_cell.setdefault((rec.config_id, rec.n, rec.event_rate), []).append(rec)

    # cells with the same number of valid records share one (cells,
    # n_valid, 8) stack and one quantile call; each field of each cell is
    # reduced on its own, so every cell gets the bits a call of its own
    # would give
    by_count: dict[int, list[tuple[tuple, list[IterationRecord]]]] = {}
    for (config_id, n, rate), cell in by_cell.items():
        valid = [r for r in cell if r.valid]
        if not valid:
            raise EmptyCell(
                f"cell ({config_id!r}, n={n}, rate={rate}) has no valid records"
            )
        by_count.setdefault(len(valid), []).append(((config_id, n, rate), valid))

    out: list[SummaryRecord] = []
    for n_valid, cells in by_count.items():
        values = np.array([list(map(_SUMMARY_VALUES, valid)) for _, valid in cells], dtype=float)
        quantiles = np.quantile(values, _QUANTILES, axis=1).transpose(1, 2, 0).tolist()
        for ((config_id, n, rate), valid), cell_quantiles in zip(cells, quantiles):
            aiv = valid[0].aiv
            n_nonconverged = sum(1 for r in valid if not r.converged)
            for (metric, split), (p05, q25, median, q75, p95) in zip(SUMMARY_FIELDS, cell_quantiles):
                out.append(SummaryRecord(
                    config_id, aiv, n, rate, metric, split,
                    median, q25, q75, p05, p95, n_valid, n_nonconverged,
                ))
    out.sort(key=SummaryRecord.sort_key)
    return out
