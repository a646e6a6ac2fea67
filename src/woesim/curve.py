"""Least-squares logistic curve for attainable-score guidelines.

The working model is f(a) = L / (1 + exp(-k * (a - x0))) with the ceiling
constrained to L <= 1 (the scores it summarizes are bounded by 1) and
k > 0, so every fitted curve is strictly increasing in the association
strength a.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .errors import CurveFitError, InsufficientPoints
from .scorecard import _newton_step

#: Tabulation grid of every guideline table: 0.5, 1.0, ..., 7.0.
DEFAULT_AIV_GRID = tuple(0.5 * i for i in range(1, 15))

_L_STARTS = (0.5, 0.75, 1.0)
_K_STARTS = (0.2, 0.5, 1.0)
_MAX_ITER = 200
_REL_TOL = 1e-10
_L_MIN = 1e-8
_K_MIN = 1e-8


@dataclass(frozen=True)
class CurveFit:
    """Fitted ceiling L, slope k, midpoint x0, and the residual sum of squares."""

    L: float
    k: float
    x0: float
    rss: float

    # far below a steep curve's midpoint exp overflows to inf and the value
    # is L / inf = 0.0, as intended
    @np.errstate(over="ignore")
    def predict(self, aiv):
        """Curve value(s) at the given association strength(s)."""
        a = np.asarray(aiv, dtype=float)
        out = self.L / (1.0 + np.exp(-self.k * (a - self.x0)))
        return float(out) if out.ndim == 0 else out


#: Feasible box of (L, k, x0): 0 < L <= 1, k > 0, x0 free.
_LOWER = np.array([_L_MIN, _K_MIN, -np.inf])
_UPPER = np.array([1.0, np.inf, np.inf])


def _project(theta: np.ndarray) -> np.ndarray:
    """Clamp each row of an (S, 3) parameter array into the feasible box."""
    return np.minimum(np.maximum(theta, _LOWER), _UPPER)


def _sigmoid(theta: np.ndarray, a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-theta[:, 1:2] * (a - theta[:, 2:3])))


def _sum_squares(r: np.ndarray) -> np.ndarray:
    # stacked matmul runs the same dot kernel per row as the 1-D ``r @ r``;
    # einsum and ``(r * r).sum(1)`` round differently
    return np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]


def _jacobian(theta: np.ndarray, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(S, m, 3) model derivatives by L, k and x0, from the sigmoid values ``s``."""
    L, k, x0 = theta[:, 0:1], theta[:, 1:2], theta[:, 2:3]
    ds = s * (1.0 - s)
    J = np.empty(s.shape + (3,))
    J[:, :, 0] = s
    J[:, :, 1] = L * ds * (a - x0)
    J[:, :, 2] = -L * ds * k
    return J


# A steep candidate saturates the sigmoid: exp overflows to inf and the
# curve value goes to 0 as intended, so the overflow is not reported.
@np.errstate(over="ignore")
def _damped_gauss_newton(
    a: np.ndarray, y: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run one damped Gauss-Newton per row of ``starts`` (S, 3), all in lock step.

    Every start keeps its own damping and stops on its own, when no damped
    step lowers its RSS or when its improvement falls to ``_REL_TOL * rss``;
    each row's arithmetic is that of a lone run.  Returns the final (S, 3)
    parameters and (S,) RSS values.
    """
    theta = _project(np.asarray(starts, dtype=float))
    s = _sigmoid(theta, a)
    r = y - theta[:, 0:1] * s
    rss = _sum_squares(r)
    damping = np.full(len(theta), 1e-3)
    eye = np.eye(3)
    # every try runs on the whole stack; only the masked rows take its result,
    # so a stopped or already accepted start's state is never written again
    running = np.ones(len(theta), dtype=bool)
    for _ in range(_MAX_ITER):
        J = _jacobian(theta, s, a)
        JT = J.transpose(0, 2, 1)
        g = (JT @ r[:, :, None])[:, :, 0]
        A = JT @ J
        pending = running.copy()
        keep = np.zeros(len(theta), dtype=bool)
        for _ in range(40):
            cand = _project(theta + _newton_step(A + damping[:, None, None] * eye, g))
            cand_s = _sigmoid(cand, a)
            cand_r = y - cand[:, 0:1] * cand_s
            new_rss = _sum_squares(cand_r)
            won = pending & np.isfinite(new_rss) & (new_rss <= rss)
            improvement = rss - new_rss
            np.copyto(theta, cand, where=won[:, None])
            np.copyto(s, cand_s, where=won[:, None])
            np.copyto(r, cand_r, where=won[:, None])
            np.copyto(rss, new_rss, where=won)
            np.copyto(damping, np.maximum(damping / 3.0, 1e-12), where=won)
            np.copyto(keep, improvement > _REL_TOL * np.maximum(rss, 1e-300), where=won)
            pending &= ~won
            if not pending.any():
                break
            np.multiply(damping, 10.0, out=damping, where=pending)
        running &= keep
        if not running.any():
            break
    return theta, rss


def _lattice_starts(a: np.ndarray) -> np.ndarray:
    """Ceiling and slope presets crossed with the data quartiles as midpoints."""
    x0_starts = np.quantile(a, (0.25, 0.50, 0.75))
    return np.array(list(product(_L_STARTS, _K_STARTS, x0_starts)))


def fit_logistic_curve(points: Sequence[tuple[float, float]]) -> CurveFit:
    """Fit the bounded logistic curve to (strength, score) points.

    Damped Gauss-Newton from a small multi-start lattice (ceiling and slope
    presets crossed with the data quartiles as midpoints), all starts run
    as one batch.  The start with the lowest finite RSS wins, ties going
    to the first in lattice order; a start that stopped at the iteration
    cap competes like any other, since convergence is not checked.
    """
    pts = [(float(a), float(v)) for a, v in points]
    if len(pts) < 4:
        raise InsufficientPoints(f"curve fit needs at least 4 points, got {len(pts)}")
    a = np.asarray([p[0] for p in pts])
    y = np.asarray([p[1] for p in pts])
    if np.unique(a).size != a.size:
        raise InsufficientPoints("curve fit needs distinct strength values")

    theta, rss = _damped_gauss_newton(a, y, _lattice_starts(a))
    finite = np.all(np.isfinite(theta), axis=1) & np.isfinite(rss)
    if not finite.any():
        raise CurveFitError("all curve-fit starts diverged")
    best = np.argmin(np.where(finite, rss, np.inf))
    L, k, x0 = theta[best]
    return CurveFit(L=float(L), k=float(k), x0=float(x0), rss=float(rss[best]))


@dataclass(frozen=True)
class GuidelineTable:
    """Predicted attainable scores on a (rate x strength) grid."""

    rates: tuple[float, ...]
    aiv_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]

    def rows(self):
        """Flat (rate, strength, prediction) rows in table order."""
        for rate, row in zip(self.rates, self.values):
            for aiv, value in zip(self.aiv_grid, row):
                yield rate, aiv, value

    def render(self) -> str:
        """Fixed-width text table with predictions rounded to 2 decimals."""
        header = "rate    " + "  ".join(f"{a:5.2f}" for a in self.aiv_grid)
        lines = [header]
        for rate, row in zip(self.rates, self.values):
            cells = "  ".join(f"{v:5.2f}" for v in row)
            lines.append(f"{rate:<7.2%} {cells}")
        return "\n".join(lines)


def guideline_table(fits: Mapping[float, CurveFit]) -> GuidelineTable:
    """Tabulate every rate's fitted curve, rates ascending, over ``DEFAULT_AIV_GRID``."""
    rates = tuple(sorted(fits))
    values = tuple(
        tuple(float(fits[r].predict(a)) for a in DEFAULT_AIV_GRID) for r in rates
    )
    return GuidelineTable(rates=rates, aiv_grid=DEFAULT_AIV_GRID, values=values)
