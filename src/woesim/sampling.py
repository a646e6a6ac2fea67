"""Seedable sample generation with an exact event count per sample."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .configs import ConfigSpec, EventRate
from .errors import DegeneratePlan, _integer
from .metrics import _check_labels, _check_weights, _integer_typed
from .rng import RngStream


@dataclass(frozen=True)
class SamplingPlan:
    """Sample size, exact event count, and the nominal rate behind them.

    ``clamped`` records that the floored event count was lifted from zero
    to one, so downstream records can flag the affected cells.  A count
    that is not an integer is refused with ``SpecError``, and a rate
    outside (0, 1) with ``EventRate``'s ``ConfigError``.
    """

    n: int
    n1: int
    pi1: float
    clamped: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer("n", self.n))
        object.__setattr__(self, "n1", _integer("n1", self.n1))
        if self.n < 2:
            raise DegeneratePlan(f"need n >= 2, got n={self.n}")
        if self.n1 < 1:
            raise DegeneratePlan(f"plan has no events (n1={self.n1})")
        if self.n1 >= self.n:
            raise DegeneratePlan(f"plan has no nonevents (n1={self.n1}, n={self.n})")
        # the record copies pi1 into its event_rate
        object.__setattr__(self, "pi1", EventRate(self.pi1).pi1)


def make_plan(n: int, rate: EventRate) -> SamplingPlan:
    """Plan n observations holding floor(pi1 * n) events.

    When the floor lands on zero the count is lifted to a single event and
    the plan is flagged ``clamped``, because a sample without events breaks
    every event-conditional estimate downstream.  ``SamplingPlan`` refuses
    a plan without room for both classes.
    """
    # the epsilon guards against products like 0.29 * 100 rounding to
    # 28.999999999999996 and flooring one short of the intended count
    n1 = int(math.floor(rate.pi1 * n + 1e-9))
    return SamplingPlan(n=n, n1=max(n1, 1), pi1=rate.pi1, clamped=n1 == 0)


@dataclass(frozen=True, eq=False)
class Sample:
    """Bin-index design matrix (1-based entries), its 0/1 response vector,
    the bin space the entries index and one frequency weight per row.

    ``bin_counts[j]`` is predictor j's number of bins, and every entry of
    column j must lie in 1..bin_counts[j].  ``w`` (default: one per row) are
    nonnegative integer frequency weights: a row of weight w counts as w
    identical rows, so a sample drawn into weighted cells (see
    ``generate_cells``) stands for the rows behind it.  Everything is
    checked here, once: bin indices and weights of any dtype but an
    integer one, bin indices outside their range (``IndexError`` naming
    the predictor) and labels other than 0 and 1 are refused.  The samples
    ``generate_sample`` and ``generate_cells`` draw are valid by
    construction and skip the checks.

    Event rows come first by construction; every downstream estimator is
    invariant under row permutation, so the fixed order is purely for
    reproducibility.
    """

    X: np.ndarray = field(repr=False)
    Y: np.ndarray = field(repr=False)
    bin_counts: tuple[int, ...]
    w: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        X = np.asarray(self.X)
        Y = np.asarray(self.Y)
        if X.ndim != 2 or Y.ndim != 1 or X.shape[0] != Y.shape[0]:
            raise ValueError(
                f"X must be (n, d) and Y length n; got {X.shape} and {Y.shape}"
            )
        if not _integer_typed(X):
            raise ValueError(f"bin indices must be integers, got dtype {X.dtype}")
        bin_counts = tuple(map(operator.index, self.bin_counts))
        if len(bin_counts) != X.shape[1]:
            raise ValueError(
                f"sample has {X.shape[1]} predictors but {len(bin_counts)} bin counts given"
            )
        X = np.ascontiguousarray(X, dtype=np.int64)
        bad = (X < 1) | (X > np.array(bin_counts))
        if bad.any():
            j = int(bad.any(axis=0).argmax())
            raise IndexError(f"predictor {j + 1}: bin index outside 1..{bin_counts[j]}")
        _check_labels(Y)
        Y = np.ascontiguousarray(Y, dtype=np.int64)
        w = np.ascontiguousarray(_check_weights(self.w, Y.size), dtype=np.int64)
        self._set(X, Y, bin_counts, w)

    @classmethod
    def _built_valid(cls, X, Y, bin_counts, w) -> Sample:
        """A sample of arrays this module built valid (int64 bins in range,
        int64 0/1 labels, nonnegative int64 weights), without the checks:
        on every drawn split they cost ~8% of the large-n bench's
        iterations per second."""
        sample = object.__new__(cls)
        sample._set(X, Y, bin_counts, w)
        return sample

    def _set(self, X, Y, bin_counts, w) -> None:
        X.flags.writeable = Y.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "bin_counts", bin_counts)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def generate_sample(config: ConfigSpec, plan: SamplingPlan, rng: RngStream) -> Sample:
    """Draw a sample: n1 event rows from p_event, the rest from p_nonevent.

    The variates come from the start of the stream ``rng`` addresses, in a
    fixed column-major layout: predictor j consumes its n1 event variates,
    then its n - n1 nonevent variates, before predictor j+1 touches the
    stream.  Identical (config, plan, stream address) inputs therefore
    reproduce bit-identical samples.

    Each variate u in [0, 1) becomes a 1-based bin index by inverting the
    class's cumulative bin probabilities: the bins partition [0, 1) into
    right-open intervals in bin order, so a variate equal to an interior
    boundary falls in the bin to the boundary's right.  The config's
    ``guide_table`` inverts the whole draw in one lookup.
    """
    n, n1 = plan.n, plan.n1
    # row j of one draw is predictor j's n1 event variates, then its n - n1
    # nonevent variates: the stream order above, in a single call
    u = rng.generator().random((config.n_predictors, n))
    X = np.ascontiguousarray(config.guide_table.lookup(u, n1).T, dtype=np.int64)
    Y = np.zeros(n, dtype=np.int64)
    Y[:n1] = 1
    # a Generator's variates lie in [0, 1) and the table's bins in
    # 1..bin_counts[j], so the sample is valid as built
    return Sample._built_valid(X, Y, config.bin_counts, np.ones(n, dtype=np.int64))


def generate_cells(config: ConfigSpec, plan: SamplingPlan, rng: RngStream) -> Sample:
    """Draw a sample straight into its weighted joint cells, without the
    rows: one row per (joint cell, class) that ``generate_sample``'s rows
    from the same stream visit, weighing their count, event rows first and
    each class in ascending C-order cell.

    It makes ``generate_sample``'s one draw and guide-table lookup, codes
    each variate's bins as its joint cell and counts each class's cells,
    the events being the first n1 columns.  It needs at least as many
    rows as cells, K = prod(bin_counts) <= n; a smaller sample is every
    row its own cell, which ``generate_sample`` draws.
    """
    n, n1 = plan.n, plan.n1
    n_cells = math.prod(config.bin_counts)
    if n_cells > n:
        raise ValueError(f"cells need n >= K = {n_cells} rows, got n={n}")
    radix, offset, cells = _cell_space(config.bin_counts)
    u = rng.generator().random((config.n_predictors, n))
    code = radix @ config.guide_table.lookup(u, n1) - offset
    # slot c holds joint cell c's event count and slot K + c its nonevent
    # count; one row per positive slot, in slot order
    counts = np.concatenate([
        np.bincount(code[:n1], minlength=n_cells),
        np.bincount(code[n1:], minlength=n_cells),
    ])
    slots = np.flatnonzero(counts)
    X = cells.take(slots % n_cells, axis=0)
    # a valid sample's observed cells, their classes and positive counts
    Y = (slots < n_cells).astype(np.int64)
    return Sample._built_valid(X, Y, config.bin_counts, counts[slots])


@lru_cache(maxsize=16)
def _cell_space(bin_counts: tuple[int, ...]) -> tuple[np.ndarray, int, np.ndarray]:
    """A bin space's place values ``radix``, their sum ``offset`` and its
    (K, d) table ``cells`` of every joint cell's 1-based bins, in code
    order: a row of bins x lies in the C-order joint cell ``radix @ x -
    offset``."""
    # asked for only by a sample of K <= n rows, which pays for the table
    # and keeps every code far inside int64
    radix = np.cumprod((1,) + bin_counts[:0:-1])[::-1]
    cells = np.indices(bin_counts).reshape(len(bin_counts), -1).T + 1
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    radix.flags.writeable = cells.flags.writeable = False
    return radix, int(radix.sum()), cells
