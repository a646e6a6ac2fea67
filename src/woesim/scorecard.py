"""Weight-of-evidence estimation and the logistic scorecard fit."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DegenerateDesign, NoEvents, NoNonevents
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
    if theta_adj < 0.0:
        raise ValueError(f"theta_adj must be nonnegative, got {theta_adj}")
    if len(bin_counts) != sample.d:
        raise ValueError(
            f"sample has {sample.d} predictors but {len(bin_counts)} bin counts given"
        )
    if weights is None:
        w = np.ones(sample.n, dtype=np.int64)
    else:
        w = np.asarray(weights)
        if w.shape != (sample.n,):
            raise ValueError("weights length must match sample rows")
        if w.dtype.kind not in "iu" or (w < 0).any():
            raise ValueError("weights must be nonnegative integers")
    n1 = int(w @ sample.Y)
    n0 = int(w.sum()) - n1
    if n1 == 0:
        raise NoEvents("training sample contains no events")
    if n0 == 0:
        raise NoNonevents("training sample contains no nonevents")

    n_bins = np.asarray(bin_counts, dtype=np.int64)
    _check_bins(sample.X, n_bins)
    # one count slot per (class, predictor, bin), events first
    ends, offsets = _bin_layout(n_bins)
    total = int(n_bins.sum())
    slots = sample.X + (offsets + total * (sample.Y != 1)[:, None])
    counts = np.bincount(
        slots.ravel(), np.repeat(w, sample.d), minlength=2 * total
    ).astype(np.int64)
    c1, c0 = counts[:total], counts[total:]
    with np.errstate(divide="ignore"):
        woe = adjusted_woe(c0, c1, n0, n1, theta_adj).tolist()
    bounds = ends.tolist()
    return WoeTable(
        woe=_split_rows(woe, bounds),
        event_counts=_split_rows(c1.tolist(), bounds),
        nonevent_counts=_split_rows(c0.tolist(), bounds),
        n_event=n1,
        n_nonevent=n0,
        theta_adj=float(theta_adj),
    )


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


def _loglik(event_w: np.ndarray, nonevent_w: np.ndarray, p: np.ndarray) -> float:
    """Log-likelihood of rows weighing ``event_w`` as events and ``nonevent_w`` as nonevents."""
    return float((event_w * np.log(p) + nonevent_w * np.log1p(-p)).sum())


def fit_logistic(features: np.ndarray, responses: np.ndarray, weights=None) -> FittedModel:
    """Fit the Bernoulli MLE by Newton iterations with step halving.

    ``weights`` (default: one per row) are nonnegative frequency weights:
    a row of weight w counts as w identical rows, so a sample reduced to
    weighted cells fits the same model as the rows behind it.

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
    if weights is None:
        w = np.ones(X.shape[0])
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != y.shape:
            raise ValueError("weights length must match feature rows")
        if not (np.isfinite(w) & (w >= 0.0)).all():
            raise ValueError("weights must be finite and nonnegative")
    event_w, nonevent_w = w * y, w * (1.0 - y)
    event_weight = float(event_w.sum())
    if event_weight == 0.0 or event_weight == float(w.sum()):
        raise DegenerateDesign("responses are all one class; MLE is unbounded")

    design = np.column_stack([np.ones(X.shape[0]), X])
    beta = np.zeros(design.shape[1])
    p = _clamped_probs(design @ beta)
    ll = _loglik(event_w, nonevent_w, p)
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        grad = design.T @ (w * (y - p))
        if np.abs(grad).max() < _GRAD_TOL:
            converged = True
            break
        curvature = w * p * (1.0 - p)
        hessian = (design * curvature[:, None]).T @ design
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            # singular curvature (e.g. constant feature columns): take the
            # minimum-norm ascent step instead
            step, *_ = np.linalg.lstsq(hessian, grad, rcond=None)
        new_beta = beta + step
        new_p = _clamped_probs(design @ new_beta)
        new_ll = _loglik(event_w, nonevent_w, new_p)
        halvings = 0
        while new_ll < ll and halvings < _MAX_HALVINGS:
            step = 0.5 * step
            new_beta = beta + step
            new_p = _clamped_probs(design @ new_beta)
            new_ll = _loglik(event_w, nonevent_w, new_p)
            halvings += 1
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


def predict_proba(model: FittedModel, features) -> float | np.ndarray:
    """Event probability from the clamped linear predictor; always in (0, 1).

    Accepts a single feature row or an (n, d) matrix.
    """
    arr = np.asarray(features, dtype=float)
    beta = np.asarray(model.beta)
    # a single row gives a numpy scalar, which has no buffer to write into
    p = _clamped_probs(np.atleast_1d(beta[0] + arr @ beta[1:]))
    return float(p[0]) if arr.ndim == 1 else p
