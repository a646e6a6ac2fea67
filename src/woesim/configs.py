"""Data-generating configurations and their population-level quantities.

A configuration describes, for each categorical predictor, the bin
distribution conditional on the event class and on the nonevent class.
Everything computed here is a population quantity (weight of evidence,
information value, Bayes posterior); no sampling is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError, EnumerationLimitError, TargetUnreachable
from .rng import RngStream

#: Minimum admissible bin probability in any configuration.
PROB_FLOOR = 1e-6
#: Larger floor applied to synthesized distributions, keeping their WoE
#: magnitudes bounded and downstream fits stable.
SYNTH_PROB_FLOOR = 1e-4
#: Cap on the cell count a joint enumeration is allowed to touch.
JOINT_ENUMERATION_LIMIT = 10**6

_SUM_TOL = 1e-9
_SYNTH_MAX_REDRAWS = 200


def bin_cdf(dist) -> np.ndarray:
    """Read-only cumulative bin probabilities, the top edge pinned to exactly 1."""
    cum = np.cumsum(np.asarray(dist, dtype=float))
    cum[-1] = 1.0  # guard the top edge against accumulated rounding
    cum.flags.writeable = False
    return cum


#: A ``GuideTable`` row splits [0, 1) into 2**_GUIDE_SHIFT equal buckets.
_GUIDE_SHIFT = 12
_GUIDE_BUCKETS = 1 << _GUIDE_SHIFT


class GuideTable:
    """Guide-table ("indexed search") inversion of every class-conditional
    ``bin_cdf`` of the given predictors (Chen & Asau 1974; Devroye 1986,
    sec. III.2.4).

    Row j holds predictor j's event cdf and row d + j its nonevent cdf.
    Each row splits [0, 1) into M = 2**12 equal buckets, and ``bins``
    holds the 1-based bin of each bucket that no interior cdf edge cuts,
    0 for a cut one.  A variate u lies in bucket floor(u * M), exact
    because M is a power of two.  The few variates in cut buckets are
    resolved by one search of ``edges``, every interior edge e of row r as
    the complex number r + 1j * e: numpy orders complex numbers by real
    part first, so a variate's insertion point counts the edges of the
    rows before its own plus the edges of its row at or below it.
    ``row_base`` holds each row's first index in ``edges``, minus one.
    """

    def __init__(self, predictors: Sequence[PredictorSpec]) -> None:
        cdfs = [bin_cdf(p.p_event) for p in predictors] + [
            bin_cdf(p.p_nonevent) for p in predictors
        ]
        lower = np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS
        upper = np.arange(1, _GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
        # uint8 up to 255 bins: the table stays a few kilobytes per predictor
        dtype = np.min_scalar_type(max(cdf.size for cdf in cdfs))
        bins, edges = [], []
        for row, cdf in enumerate(cdfs):
            below = cdf.searchsorted(lower, side="right")
            cut = below != cdf.searchsorted(upper, side="left")
            bins.append(np.where(cut, 0, below + 1).astype(dtype))
            key = np.empty(cdf.size - 1, dtype=complex)
            key.real = row
            key.imag = cdf[:-1]
            edges.append(key)
        # each row's first bucket in ``bins``, as a column per predictor
        rows = np.arange(len(cdfs))[:, None] * _GUIDE_BUCKETS
        self.bins = np.concatenate(bins)
        self.edges = np.concatenate(edges)
        self.row_base = np.cumsum([0] + [key.size for key in edges[:-1]]) - 1
        self.event_rows, self.nonevent_rows = np.split(rows, 2)
        for table in vars(self).values():
            table.flags.writeable = False

    def invert(self, u: np.ndarray, n1: int) -> np.ndarray:
        """The (n, d) int64 bins of the (d, n) variates ``u`` in [0, 1):
        the first n1 of each predictor through its event cdf, the rest
        through its nonevent cdf.  Bit for bit ``cdf.searchsorted(u,
        side="right") + 1``, variates on cdf edges included."""
        # the cast truncates u * M, which is exact, so it is floor(u * M)
        at = np.multiply(u, _GUIDE_BUCKETS, out=np.empty(u.shape, np.int64), casting="unsafe")
        at[:, :n1] += self.event_rows
        at[:, n1:] += self.nonevent_rows
        bins = self.bins.take(at)
        cut = np.flatnonzero(bins.reshape(-1) == 0)
        if cut.size:
            rows = at.reshape(-1)[cut] >> _GUIDE_SHIFT
            key = np.empty(cut.size, dtype=complex)
            key.real = rows
            key.imag = u.reshape(-1)[cut]
            bins.reshape(-1)[cut] = self.edges.searchsorted(key, side="right") - self.row_base[rows]
        # the index buffer, read as (n, d), takes the result
        X = at.reshape(at.shape[::-1])
        X[...] = bins.T
        return X


@dataclass(frozen=True)
class PredictorSpec:
    """One categorical predictor: its bin distribution under each class.

    ``p_event[k]`` is the probability of bin ``k+1`` among events and
    ``p_nonevent[k]`` the same among nonevents.  Strict positivity of every
    entry keeps all population weights of evidence finite.
    """

    name: str
    p_event: tuple[float, ...]
    p_nonevent: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_event", tuple(float(p) for p in self.p_event))
        object.__setattr__(self, "p_nonevent", tuple(float(p) for p in self.p_nonevent))
        if not self.name:
            raise ConfigError("predictor name must be nonempty")
        if len(self.p_event) < 2:
            raise ConfigError(f"predictor {self.name!r}: needs at least 2 bins")
        if len(self.p_event) != len(self.p_nonevent):
            raise ConfigError(
                f"predictor {self.name!r}: p_event has {len(self.p_event)} bins "
                f"but p_nonevent has {len(self.p_nonevent)}"
            )
        for field, vec in (("p_event", self.p_event), ("p_nonevent", self.p_nonevent)):
            if any(not math.isfinite(p) or p < PROB_FLOOR for p in vec):
                raise ConfigError(
                    f"predictor {self.name!r}: every {field} entry must be "
                    f"finite and >= {PROB_FLOOR}"
                )
            total = math.fsum(vec)
            if abs(total - 1.0) > _SUM_TOL:
                raise ConfigError(
                    f"predictor {self.name!r}: {field} sums to {total!r}, not 1"
                )

    @property
    def n_bins(self) -> int:
        return len(self.p_event)

    def woe(self) -> np.ndarray:
        """Population weight of evidence per bin, ln(p_nonevent / p_event)."""
        return np.log(np.asarray(self.p_nonevent) / np.asarray(self.p_event))


@dataclass(frozen=True)
class ConfigSpec:
    """A full data-generating mechanism: an ordered set of predictors.

    Predictors are conditionally independent given the response class by
    construction (the sampler draws each one separately), so the aggregate
    information value decomposes into the per-predictor sum.
    """

    id: str
    predictors: tuple[PredictorSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if not self.id:
            raise ConfigError("config id must be nonempty")
        if len(self.predictors) < 1:
            raise ConfigError(f"config {self.id!r}: needs at least one predictor")
        names = [p.name for p in self.predictors]
        if len(set(names)) != len(names):
            raise ConfigError(f"config {self.id!r}: duplicate predictor names")

    @property
    def n_predictors(self) -> int:
        return len(self.predictors)

    @property
    def bin_counts(self) -> tuple[int, ...]:
        return tuple(p.n_bins for p in self.predictors)

    @property
    def guide_table(self) -> GuideTable:
        """The ``GuideTable`` the sampler inverts with: built on first use
        and shared by equal configs within a process, such as the copy a
        process pool unpickles with each task, so it is never pickled."""
        return _guide_table(self.predictors)


@lru_cache(maxsize=16)
def _guide_table(predictors: tuple[PredictorSpec, ...]) -> GuideTable:
    return GuideTable(predictors)


@dataclass(frozen=True)
class EventRate:
    """Marginal probability of the event class."""

    pi1: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi1", float(self.pi1))
        if not 0.0 < self.pi1 < 1.0:
            raise ConfigError(f"event rate must lie in (0, 1), got {self.pi1!r}")

    @property
    def pi0(self) -> float:
        return 1.0 - self.pi1

    def logit(self) -> float:
        return math.log(self.pi1 / (1.0 - self.pi1))


@dataclass(frozen=True)
class IvReport:
    """Per-predictor information values (nats) and their aggregate."""

    ivs: tuple[float, ...]
    aiv: float


def _predictor(config: ConfigSpec, j: int) -> PredictorSpec:
    if not 1 <= j <= config.n_predictors:
        raise IndexError(
            f"predictor index {j} out of range 1..{config.n_predictors} "
            f"for config {config.id!r}"
        )
    return config.predictors[j - 1]


def population_woe(config: ConfigSpec, j: int, k: int) -> float:
    """Population weight of evidence of bin k of predictor j (1-based).

    Defined as ln(p_nonevent / p_event); positive entries keep it finite.
    """
    pred = _predictor(config, j)
    if not 1 <= k <= pred.n_bins:
        raise IndexError(
            f"bin index {k} out of range 1..{pred.n_bins} for predictor {pred.name!r}"
        )
    return float(pred.woe()[k - 1])


def iv_between(p_event: Sequence[float], p_nonevent: Sequence[float]) -> float:
    """Information value between two bin distributions.

    Symmetrised Kullback-Leibler style divergence: sum over bins of
    (p_nonevent - p_event) * ln(p_nonevent / p_event).  Nonnegative, zero
    exactly when the distributions coincide.
    """
    return math.fsum(
        (p0 - p1) * math.log(p0 / p1) for p0, p1 in zip(p_nonevent, p_event)
    )


def information_value(config: ConfigSpec, j: int) -> float:
    """Information value of predictor j (1-based), in nats."""
    pred = _predictor(config, j)
    return iv_between(pred.p_event, pred.p_nonevent)


def aggregate_iv(config: ConfigSpec) -> IvReport:
    """Per-predictor IVs plus their sum, the aggregate information value.

    The sum form is exact here because predictors are conditionally
    independent given the class by construction.
    """
    ivs = tuple(
        information_value(config, j) for j in range(1, config.n_predictors + 1)
    )
    return IvReport(ivs=ivs, aiv=math.fsum(ivs))


def aiv_joint(config: ConfigSpec) -> float:
    """Aggregate information value by brute-force joint-cell enumeration.

    Walks every cell of the predictor product space with product-form
    conditionals.  Serves as the independent cross-check of the
    sum-of-IVs decomposition used by :func:`aggregate_iv`.
    """
    cells = 1
    for pred in config.predictors:
        cells *= pred.n_bins
        if cells > JOINT_ENUMERATION_LIMIT:
            raise EnumerationLimitError(
                f"config {config.id!r}: joint enumeration needs more than "
                f"{JOINT_ENUMERATION_LIMIT} cells"
            )
    q1 = np.ones(1)
    q0 = np.ones(1)
    for pred in config.predictors:
        q1 = np.multiply.outer(q1, np.asarray(pred.p_event)).ravel()
        q0 = np.multiply.outer(q0, np.asarray(pred.p_nonevent)).ravel()
    return float(np.sum((q0 - q1) * np.log(q0 / q1)))


def bayes_posterior(
    config: ConfigSpec, rate: EventRate, x: Sequence[int]
) -> float:
    """Exact event posterior P(Y=1 | X=x) for a cell of bin indices (1-based).

    Evaluated in rational arithmetic and rounded once at the end, so the
    result is the correctly rounded product-form Bayes ratio
    pi1 * prod(p_event) / (pi1 * prod(p_event) + pi0 * prod(p_nonevent)).
    """
    xs = tuple(x)
    if len(xs) != config.n_predictors:
        raise IndexError(
            f"cell has {len(xs)} components, config {config.id!r} has "
            f"{config.n_predictors} predictors"
        )
    like1 = Fraction(rate.pi1)
    like0 = Fraction(rate.pi0)
    for pred, k in zip(config.predictors, xs):
        if not 1 <= k <= pred.n_bins:
            raise IndexError(
                f"bin index {k} out of range 1..{pred.n_bins} "
                f"for predictor {pred.name!r}"
            )
        like1 *= Fraction(pred.p_event[k - 1])
        like0 *= Fraction(pred.p_nonevent[k - 1])
    return float(like1 / (like1 + like0))


def _floored(raw: np.ndarray, floor: float) -> np.ndarray:
    """Clip below at `floor` and renormalize to a proper distribution."""
    vec = np.maximum(np.asarray(raw, dtype=float), floor)
    # renormalizing may nudge a floored entry a hair under `floor` again;
    # that still clears the global PROB_FLOOR by two orders of magnitude
    return vec / vec.sum()


def _mixture_event(p0: np.ndarray, p1: np.ndarray, lam: float) -> np.ndarray:
    return (1.0 - lam) * p0 + lam * p1


def _draw_baseline(gen: np.random.Generator, bins: int) -> np.ndarray:
    return _floored(gen.dirichlet(np.full(bins, 2.0)), SYNTH_PROB_FLOOR)


def _draw_contrast(
    gen: np.random.Generator, bins: int, attempt: int
) -> np.ndarray:
    # attempt 0 is a moderate Dirichlet draw; later redraws concentrate the
    # mass harder so the lambda=1 endpoint can clear large per-predictor
    # targets
    alpha = 1.0 / (1.0 + 0.25 * attempt)
    return _floored(gen.dirichlet(np.full(bins, alpha)), SYNTH_PROB_FLOOR)


def synthesize_config(
    d: int,
    bins: Sequence[int],
    target_aiv: float,
    tol: float,
    rng: RngStream,
    config_id: str | None = None,
) -> ConfigSpec:
    """Build a configuration whose aggregate information value hits a target.

    The target is split equally across the d predictors.  For each one, a
    baseline distribution p0 (shared by both classes at lambda=0) and a
    contrast p1 are drawn; the event conditional is the mixture
    (1-lambda)*p0 + lambda*p1 while the nonevent conditional stays p0.  The
    IV along lambda is 0 at 0 and nondecreasing (convexity of f-divergences
    along the segment), so bisection pins the per-predictor target.  When
    even lambda=1 falls short, the contrast is redrawn with progressively
    more extreme mass concentration.
    """
    if d < 1:
        raise ConfigError("d must be at least 1")
    bins = tuple(int(b) for b in bins)
    if len(bins) != d:
        raise ConfigError(f"expected {d} bin counts, got {len(bins)}")
    if any(b < 2 for b in bins):
        raise ConfigError("every predictor needs at least 2 bins")
    # written so that a NaN, which compares false both ways, fails each test
    if not 0.0 < target_aiv < math.inf:
        raise ConfigError(f"target_aiv must be finite and positive, got {target_aiv}")
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"tol must be finite and positive, got {tol}")

    gen = rng.generator()
    per_target = target_aiv / d
    per_tol = tol / (2.0 * d)
    predictors = []
    for i, n_bins in enumerate(bins):
        p0 = _draw_baseline(gen, n_bins)
        p1 = None
        for attempt in range(_SYNTH_MAX_REDRAWS):
            candidate = _draw_contrast(gen, n_bins, attempt)
            if iv_between(candidate, p0) >= per_target:
                p1 = candidate
                break
        if p1 is None:
            raise TargetUnreachable(
                f"predictor {i + 1}: could not reach IV {per_target:.4f} with "
                f"{n_bins} bins after {_SYNTH_MAX_REDRAWS} contrast redraws"
            )
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            gap = iv_between(_mixture_event(p0, p1, mid), p0) - per_target
            if abs(gap) <= per_tol or (hi - lo) < 1e-15:
                lo = hi = mid
                break
            if gap < 0.0:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
        predictors.append(
            PredictorSpec(
                name=f"X{i + 1}",
                p_event=tuple(_mixture_event(p0, p1, lam)),
                p_nonevent=tuple(p0),
            )
        )

    cid = config_id or f"synth-d{d}-aiv{target_aiv:g}"
    config = ConfigSpec(id=cid, predictors=tuple(predictors))
    achieved = aggregate_iv(config).aiv
    if abs(achieved - target_aiv) > tol:
        raise TargetUnreachable(
            f"synthesized AIV {achieved:.4f} misses target {target_aiv:.4f} "
            f"by more than tol {tol:g}"
        )
    return config


def _builtin(cid: str, rows: Sequence[tuple[str, Sequence[float], Sequence[float]]]) -> ConfigSpec:
    return ConfigSpec(
        id=cid,
        predictors=tuple(
            PredictorSpec(name=name, p_event=tuple(pe), p_nonevent=tuple(pn))
            for name, pe, pn in rows
        ),
    )


CONFIG_A = _builtin(
    "A",
    [
        ("X1", (0.40, 0.35, 0.25), (0.30, 0.33, 0.37)),
        ("X2", (0.20, 0.35, 0.32, 0.13), (0.10, 0.33, 0.34, 0.23)),
        ("X3", (0.10, 0.50, 0.25, 0.15), (0.15, 0.60, 0.20, 0.05)),
        ("X4", (0.50, 0.30, 0.15, 0.05), (0.55, 0.28, 0.13, 0.04)),
    ],
)

CONFIG_B = _builtin(
    "B",
    [
        ("X1", (0.38, 0.51, 0.11), (0.08, 0.70, 0.22)),
        ("X2", (0.18, 0.34, 0.29, 0.19), (0.05, 0.33, 0.32, 0.30)),
        ("X3", (0.08, 0.47, 0.28, 0.17), (0.12, 0.62, 0.20, 0.06)),
        ("X4", (0.32, 0.60, 0.06, 0.02), (0.10, 0.40, 0.20, 0.30)),
    ],
)

CONFIG_C = _builtin(
    "C",
    [
        ("X1", (0.75, 0.15, 0.10), (0.15, 0.10, 0.75)),
        ("X2", (0.05, 0.10, 0.15, 0.70), (0.55, 0.15, 0.10, 0.20)),
        ("X3", (0.05, 0.25, 0.60, 0.10), (0.20, 0.50, 0.27, 0.03)),
        ("X4", (0.09, 0.10, 0.15, 0.66), (0.30, 0.20, 0.10, 0.40)),
    ],
)

CONFIG_D = _builtin(
    "D",
    [
        ("X1", (0.80, 0.15, 0.05), (0.05, 0.20, 0.75)),
        ("X2", (0.80, 0.10, 0.07, 0.03), (0.07, 0.08, 0.15, 0.70)),
        ("X3", (0.10, 0.05, 0.15, 0.70), (0.80, 0.10, 0.07, 0.03)),
        ("X4", (0.03, 0.05, 0.07, 0.85), (0.75, 0.15, 0.06, 0.04)),
    ],
)

BUILTIN_CONFIGS = {c.id: c for c in (CONFIG_A, CONFIG_B, CONFIG_C, CONFIG_D)}
