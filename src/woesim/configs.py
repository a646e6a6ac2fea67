"""Data-generating configurations and their population-level quantities.

A configuration describes, for each categorical predictor, the bin
distribution conditional on the event class and on the nonevent class.
Everything computed here is a population quantity (weight of evidence,
information value, Bayes posterior); no sampling is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConfigError, EnumerationLimitError, TargetUnreachable, _integer
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
    information value decomposes into the per-predictor sum.  A config
    computes that report once, when it is built, since every iteration
    records its AIV; see :func:`aggregate_iv`.
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
        ivs = tuple(iv_between(p.p_event, p.p_nonevent) for p in self.predictors)
        object.__setattr__(self, "_iv_report", IvReport(ivs=ivs, aiv=math.fsum(ivs)))

    @property
    def n_predictors(self) -> int:
        return len(self.predictors)

    @property
    def bin_counts(self) -> tuple[int, ...]:
        return tuple(p.n_bins for p in self.predictors)


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


@dataclass(frozen=True)
class IvReport:
    """Per-predictor information values (nats) and their aggregate."""

    ivs: tuple[float, ...]
    aiv: float


def iv_between(p_event: Sequence[float], p_nonevent: Sequence[float]) -> float:
    """Information value between two bin distributions.

    Symmetrised Kullback-Leibler style divergence: sum over bins of
    (p_nonevent - p_event) * ln(p_nonevent / p_event).  Nonnegative, zero
    exactly when the distributions coincide.
    """
    return math.fsum(
        (p0 - p1) * math.log(p0 / p1) for p0, p1 in zip(p_nonevent, p_event)
    )


def aggregate_iv(config: ConfigSpec) -> IvReport:
    """Per-predictor IVs plus their sum, the aggregate information value.

    The sum form is exact here because predictors are conditionally
    independent given the class by construction.  The config computed the
    report when it was built; this returns it.
    """
    return config._iv_report


def aiv_joint(config: ConfigSpec) -> float:
    """Aggregate information value by brute-force joint-cell enumeration.

    Walks every cell of the predictor product space with product-form
    conditionals.  Serves as the independent cross-check of the
    sum-of-IVs decomposition used by :func:`aggregate_iv`.
    """
    if math.prod(config.bin_counts) > JOINT_ENUMERATION_LIMIT:
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


def _draw_dirichlet(gen: np.random.Generator, bins: int, alpha: float) -> np.ndarray:
    """A symmetric Dirichlet(``alpha``) draw over ``bins`` bins, floored."""
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
    d = _integer("d", d, ConfigError)
    if d < 1:
        raise ConfigError("d must be at least 1")
    bins = tuple(_integer("bins", b, ConfigError) for b in bins)
    if len(bins) != d:
        raise ConfigError(f"expected {d} bin counts, got {len(bins)}")
    if any(b < 2 for b in bins):
        raise ConfigError("every predictor needs at least 2 bins")
    # written so that a NaN, which compares false both ways, fails each test
    if not 0.0 < target_aiv < math.inf:
        raise ConfigError(f"target_aiv must be finite and positive, got {target_aiv}")
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"tol must be finite and positive, got {tol}")
    if config_id is None:
        config_id = f"synth-d{d}-aiv{target_aiv:g}"
    elif not config_id:
        raise ConfigError("config id must be nonempty")

    gen = rng.generator()
    per_target = target_aiv / d
    per_tol = tol / (2.0 * d)
    predictors = []
    for i, n_bins in enumerate(bins):
        p0 = _draw_dirichlet(gen, n_bins, 2.0)
        p1 = None
        for attempt in range(_SYNTH_MAX_REDRAWS):
            # attempt 0 is a moderate Dirichlet draw; later redraws concentrate
            # the mass harder so the lambda=1 endpoint can clear large
            # per-predictor targets
            candidate = _draw_dirichlet(gen, n_bins, 1.0 / (1.0 + 0.25 * attempt))
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

    config = ConfigSpec(id=config_id, predictors=tuple(predictors))
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
