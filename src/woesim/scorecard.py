"""Weight-of-evidence estimation and the logistic scorecard fit."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegenerateDesign, NoEvents, NoNonevents
from .metrics import _check_labels, _check_weights, _class_counts
from .sampling import Sample

#: Linear predictors are clamped to this magnitude inside every probability
#: evaluation, which keeps log-likelihoods finite under separation.
LINEAR_PREDICTOR_CLAMP = 30.0

_GRAD_TOL = 1e-8
_LOGLIK_TOL = 1e-10
_MAX_ITER = 50
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class WoeTable:
    """Estimated weights of evidence with the counts behind them.

    One row of ``woe`` per predictor, one entry per bin known from the
    configuration shape; bins absent from the training sample keep zero
    counts and still get a finite estimate through the adjustment.
    """

    woe: tuple[tuple[float, ...], ...]
    event_counts: tuple[tuple[int, ...], ...]
    nonevent_counts: tuple[tuple[int, ...], ...]
    n_event: int
    n_nonevent: int
    theta_adj: float

    @cached_property
    def _lookup(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every predictor's WoE in one flat array, with the bin counts and
        the ``_bin_layout`` offsets that index it; built on first use and
        kept with the table (equality and repr still see the fields alone)."""
        n_bins = np.array([len(row) for row in self.woe])
        flat = np.fromiter(chain.from_iterable(self.woe), dtype=float)
        return flat, n_bins, _bin_layout(n_bins)[1]


@dataclass(frozen=True)
class FittedModel:
    """Maximum-likelihood coefficients: intercept first, one slope per WoE feature."""

    beta: tuple[float, ...]
    converged: bool
    iterations: int
    loglik: float


def _bin_layout(n_bins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lay every predictor's bins end to end, predictor j's after those of
    the predictors before it.  Returns each predictor's end position in the
    flat layout and the offsets for which ``X + offsets`` is each 1-based
    bin index's 0-based position."""
    ends = n_bins.cumsum()
    return ends, ends - n_bins - 1


def _split_rows(flat: list, ends: list) -> tuple[tuple, ...]:
    """Cut a flat per-bin list back into one tuple per predictor."""
    return tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends))


def _check_bins(X: np.ndarray, n_bins: np.ndarray) -> None:
    bad = (X < 1) | (X > n_bins)
    if bad.any():
        j = int(bad.any(axis=0).argmax())
        raise IndexError(f"predictor {j + 1}: bin index outside 1..{n_bins[j]}")


def adjusted_woe(n0jk, n1jk, n0: int, n1: int, theta_adj: float):
    """Adjusted WoE of a bin: ln[((n0jk + t)/n0) / ((n1jk + t)/n1)].

    The bin counts may be scalars or arrays (one entry per bin); the result
    is a numpy float or an array of the same shape.
    """
    return np.log((n0jk + theta_adj) / n0) - np.log((n1jk + theta_adj) / n1)


def check_theta_adj(theta_adj: float) -> None:
    """Refuse a WoE adjustment that is not finite and nonnegative."""
    # written so that a NaN, which compares false both ways, fails the test
    if not 0.0 <= theta_adj < np.inf:
        raise ValueError(f"theta_adj must be finite and nonnegative, got {theta_adj}")


def estimate_woe(
    sample: Sample, bin_counts: Sequence[int], theta_adj: float = 0.5, weights=None
) -> WoeTable:
    """Estimate per-bin weights of evidence from a training sample.

    The adjustment ``theta_adj`` (default 0.5, the common software default)
    is added to every bin count before normalizing, keeping estimates
    finite for bins one class never visited.  The table covers all bins in
    ``bin_counts``, including those absent from the sample.

    ``weights`` (default: one per row) are nonnegative integer frequency
    weights: a row of weight w counts as w identical rows, so a sample
    reduced to weighted cells (see ``compress``) gives the table of the rows
    behind it.
    """
    check_theta_adj(theta_adj)
    if len(bin_counts) != sample.d:
        raise ValueError(
            f"sample has {sample.d} predictors but {len(bin_counts)} bin counts given"
        )
    w = _check_weights(weights, sample.n)
    n1 = int(w @ sample.Y)
    n0 = int(w.sum()) - n1
    if n1 == 0:
        raise NoEvents("training sample contains no events")
    if n0 == 0:
        raise NoNonevents("training sample contains no nonevents")

    n_bins = np.asarray(bin_counts, dtype=np.int64)
    _check_bins(sample.X, n_bins)
    # one count slot per (predictor, bin); every entry of a row carries its class and weight
    ends, offsets = _bin_layout(n_bins)
    c1, c0 = _class_counts(
        (sample.X + offsets).ravel(),
        int(n_bins.sum()),
        np.repeat(sample.Y, sample.d),
        np.repeat(w, sample.d),
    )
    with np.errstate(divide="ignore"):
        woe = adjusted_woe(c0, c1, n0, n1, theta_adj)
    bounds = ends.tolist()
    table = WoeTable(
        woe=_split_rows(woe.tolist(), bounds),
        event_counts=_split_rows(c1.tolist(), bounds),
        nonevent_counts=_split_rows(c0.tolist(), bounds),
        n_event=n1,
        n_nonevent=n0,
        theta_adj=float(theta_adj),
    )
    # the flat WoE array is the lookup ``transform`` would rebuild from the tuples
    object.__setattr__(table, "_lookup", (woe, n_bins, offsets))
    return table


def transform(sample: Sample, table: WoeTable) -> np.ndarray:
    """Map a sample's bin indices to the training-estimated WoE features."""
    if sample.d != len(table.woe):
        raise ValueError(
            f"sample has {sample.d} predictors, table has {len(table.woe)}"
        )
    flat, n_bins, starts = table._lookup
    _check_bins(sample.X, n_bins)
    return flat[sample.X + starts]


def _clamped_probs(eta: np.ndarray) -> np.ndarray:
    """Clamp the linear predictors and map them through the sigmoid, in place:
    ``eta`` is overwritten with the probabilities and returned."""
    # minimum/maximum equal np.clip here and skip its Python-level dispatch
    np.maximum(eta, -LINEAR_PREDICTOR_CLAMP, out=eta)
    np.minimum(eta, LINEAR_PREDICTOR_CLAMP, out=eta)
    np.negative(eta, out=eta)
    np.exp(eta, out=eta)
    eta += 1.0
    return np.divide(1.0, eta, out=eta)


def _loglik(event_w: np.ndarray, nonevent_w: np.ndarray, p: np.ndarray, a=None, b=None) -> float:
    """Log-likelihood of rows weighing ``event_w`` as events and ``nonevent_w``
    as nonevents, ``event_w * log(p) + nonevent_w * log1p(-p)`` summed.  The
    two terms are formed in ``a`` and ``b`` when given, buffers shaped like
    ``p``, and in new arrays otherwise."""
    a = np.log(p, out=a)
    a *= event_w
    b = np.negative(p, out=b)
    np.log1p(b, out=b)
    b *= nonevent_w
    a += b
    return float(a.sum())


def _raise_singular(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("Singular matrix")


# The LAPACK gufunc behind ``numpy.linalg.solve``, run under the error state that
# wrapper sets, so LAPACK's singular-matrix flag raises ``LinAlgError``; the
# wrapper's array checks cost more than the 5x5 solve itself.
_solve = np.errstate(
    call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"
)(_umath_linalg.solve1)


def _newton_step(hessian: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve ``hessian @ step = grad`` as ``numpy.linalg.solve`` does, for one
    system or, in one call, for a stack of them.  A singular system (e.g. from
    constant feature columns) gives the minimum-norm least-squares step
    instead; the other systems of its stack keep the solve's bytes."""
    try:
        return _solve(hessian, grad)
    except np.linalg.LinAlgError:
        if hessian.ndim == 2:
            return np.linalg.lstsq(hessian, grad, rcond=None)[0]
        return np.stack([_newton_step(m, v) for m, v in zip(hessian, grad)])


def fit_logistic(features: np.ndarray, responses: np.ndarray, weights=None) -> FittedModel:
    """Fit the Bernoulli MLE by Newton iterations with step halving.

    ``responses`` are 0/1 labels.  ``weights`` (default: one per row) are
    nonnegative integer frequency weights: a row of weight w counts as w
    identical rows, so a sample reduced to weighted cells fits the same
    model as the rows behind it.

    Starts at beta = 0 and declares convergence when the score vector's
    max-norm drops under 1e-8 or the log-likelihood moves by less than
    1e-10; a hard cap of 50 iterations keeps separated fits finite (they
    come back flagged, never infinite, thanks to the linear-predictor
    clamp).
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"features must be 2-dimensional, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    y = np.asarray(responses, dtype=float)
    if y.shape != (X.shape[0],):
        raise ValueError("responses length must match feature rows")
    _check_labels(y)
    w = _check_weights(weights, X.shape[0]).astype(float)
    event_w, nonevent_w = w * y, w * (1.0 - y)
    event_weight = float(event_w.sum())
    if event_weight == 0.0 or event_weight == float(w.sum()):
        raise DegenerateDesign("responses are all one class; MLE is unbounded")

    design = np.column_stack([np.ones(X.shape[0]), X])
    # per-fit buffers, refilled by every Newton step
    resid = np.empty_like(y)
    curvature = np.empty_like(y)
    scaled = np.empty_like(design)
    terms = np.empty_like(y), np.empty_like(y)
    beta = np.zeros(design.shape[1])
    p = _clamped_probs(design @ beta)
    ll = _loglik(event_w, nonevent_w, p, *terms)
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        np.subtract(y, p, out=resid)
        resid *= w
        grad = design.T @ resid
        # max-norm under the tolerance; a NaN entry fails it, as in numpy
        if all(abs(g) < _GRAD_TOL for g in grad.tolist()):
            converged = True
            break
        np.subtract(1.0, p, out=resid)  # the residual is spent: reuse it for 1 - p
        np.multiply(w, p, out=curvature)
        curvature *= resid
        np.multiply(design, curvature[:, None], out=scaled)
        step = _newton_step(scaled.T @ design, grad)
        # trial 0 takes the full step, each later trial half the one before;
        # the first trial whose log-likelihood is not below ll (NaN included) is kept
        for _ in range(_MAX_HALVINGS + 1):
            new_beta = beta + step
            new_p = _clamped_probs(design @ new_beta)
            new_ll = _loglik(event_w, nonevent_w, new_p, *terms)
            if not new_ll < ll:
                break
            step = 0.5 * step
        moved = abs(new_ll - ll)
        beta, p, ll = new_beta, new_p, new_ll
        if moved < _LOGLIK_TOL:
            converged = True
            break
    return FittedModel(
        beta=tuple(beta.tolist()),
        converged=converged,
        iterations=iterations,
        loglik=ll,
    )


def predict_proba(model: FittedModel, features) -> np.ndarray:
    """Event probability of each row of an (n, d) feature matrix, from the
    clamped linear predictor; always in (0, 1)."""
    arr = np.asarray(features, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"features must be an (n, d) matrix, got shape {arr.shape}")
    beta = np.asarray(model.beta)
    return _clamped_probs(beta[0] + arr @ beta[1:])
