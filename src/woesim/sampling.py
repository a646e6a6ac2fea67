"""Seedable sample generation with an exact event count per sample."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .configs import ConfigSpec, EventRate
from .errors import DegeneratePlan, InsufficientEvents
from .metrics import _check_labels, _class_counts
from .rng import RngStream


@dataclass(frozen=True)
class SamplingPlan:
    """Sample size, exact event count, and the nominal rate behind them.

    ``clamped`` records that the floored event count was lifted from zero
    to one, so downstream records can flag the affected cells.
    """

    n: int
    n1: int
    pi1: float
    clamped: bool = False

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DegeneratePlan(f"need n >= 2, got n={self.n}")
        if self.n1 < 1:
            raise InsufficientEvents(f"plan has no events (n1={self.n1})")
        if self.n1 >= self.n:
            raise DegeneratePlan(f"plan has no nonevents (n1={self.n1}, n={self.n})")


def make_plan(n: int, rate: EventRate, clamp: bool = True) -> SamplingPlan:
    """Plan n observations holding floor(pi1 * n) events.

    When the floor lands on zero, ``clamp`` lifts the count to a single
    event and records the fact; with ``clamp`` unset the plan is refused,
    because a sample without events breaks every event-conditional
    estimate downstream.
    """
    if n < 2:
        raise DegeneratePlan(f"need n >= 2, got n={n}")
    # the epsilon guards against products like 0.29 * 100 rounding to
    # 28.999999999999996 and flooring one short of the intended count
    n1 = int(math.floor(rate.pi1 * n + 1e-9))
    if n1 == 0:
        if not clamp:
            raise InsufficientEvents(
                f"floor({rate.pi1} * {n}) = 0 events; pass clamp=True to force one"
            )
        return SamplingPlan(n=n, n1=1, pi1=rate.pi1, clamped=True)
    return SamplingPlan(n=n, n1=n1, pi1=rate.pi1)


@dataclass(frozen=True)
class Sample:
    """Bin-index design matrix (1-based entries) plus its 0/1 response vector;
    labels other than 0 and 1 are refused.

    Event rows come first by construction; every downstream estimator is
    invariant under row permutation, so the fixed order is purely for
    reproducibility.
    """

    X: np.ndarray = field(repr=False)
    Y: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        X = np.ascontiguousarray(self.X, dtype=np.int64)
        Y = np.asarray(self.Y)
        if X.ndim != 2 or Y.ndim != 1 or X.shape[0] != Y.shape[0]:
            raise ValueError(
                f"X must be (n, d) and Y length n; got {X.shape} and {Y.shape}"
            )
        _check_labels(Y)
        Y = np.ascontiguousarray(Y, dtype=np.int64)
        X.flags.writeable = False
        Y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.Y.sum())


def generate_sample(
    config: ConfigSpec,
    plan: SamplingPlan,
    rng: RngStream | np.random.Generator,
) -> Sample:
    """Draw a sample: n1 event rows from p_event, the rest from p_nonevent.

    Stream layout is fixed column-major: predictor j consumes its n1 event
    variates, then its n - n1 nonevent variates, before predictor j+1
    touches the stream.  Identical (config, plan, stream) inputs therefore
    reproduce bit-identical samples.

    Each variate u in [0, 1) becomes a 1-based bin index by inverting the
    class's cumulative bin probabilities: the bins partition [0, 1) into
    right-open intervals in bin order, so a variate equal to an interior
    boundary falls in the bin to the boundary's right.  ``rng`` may be any
    object with a numpy-style ``random(shape)`` method.
    """
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    n, n1 = plan.n, plan.n1
    # row j of one draw is predictor j's n1 event variates, then its n - n1
    # nonevent variates: the stream order above, in a single call
    u = gen.random((config.n_predictors, n))
    X = np.empty((n, config.n_predictors), dtype=np.int64)
    for j, (cum_event, cum_nonevent) in enumerate(config.bin_cdfs):
        X[:n1, j] = cum_event.searchsorted(u[j, :n1], side="right")
        X[n1:, j] = cum_nonevent.searchsorted(u[j, n1:], side="right")
    X += 1
    Y = np.zeros(n, dtype=bool)  # 0/1 by type, so ``Sample`` need not scan it
    Y[:n1] = True
    return Sample(X=X, Y=Y)


def compress(sample: Sample, bin_counts: Sequence[int]) -> tuple[Sample, np.ndarray]:
    """Reduce a sample to one weighted row per observed (joint cell, class).

    Rows with the same bins and class are interchangeable to every
    estimator downstream, so a sample of n rows over K = prod(bin_counts)
    joint cells carries the same information as per-cell event and
    nonevent counts.  When K <= n the result holds one row per observed
    (cell, class) pair, event rows first, each class in ascending cell
    order, with its row count as int64 weight; bin indices outside
    1..bin_counts[j] raise ``IndexError`` before any cell is encoded.  When
    K > n reducing cannot pay, and the sample comes back as it is with
    unit weights.
    """
    if len(bin_counts) != sample.d:
        raise ValueError(
            f"sample has {sample.d} predictors but {len(bin_counts)} bin counts given"
        )
    n_cells = math.prod(bin_counts)
    if n_cells > sample.n:
        return sample, np.ones(sample.n, dtype=np.int64)
    try:
        # K <= n keeps the mixed-radix code far inside int64
        code = np.ravel_multi_index(tuple(sample.X.T - 1), bin_counts)
    except ValueError:
        raise IndexError(f"bin index outside 1..{tuple(bin_counts)}") from None
    # slot = cell for events, K + cell for nonevents
    counts = _class_counts(code, n_cells, sample.Y, None).ravel()
    slots = np.flatnonzero(counts)
    X = np.column_stack(np.unravel_index(slots % n_cells, bin_counts)) + 1
    return Sample(X=X, Y=slots < n_cells), counts[slots]
