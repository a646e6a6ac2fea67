"""Weight-of-evidence estimation and the logistic scorecard fit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegenerateDesign, SpecError
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
    """Estimated weights of evidence.

    One row of ``woe`` per predictor, one entry per bin known from the
    configuration shape; bins absent from the training sample still get a
    finite estimate through the adjustment.
    """

    woe: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        # ``transform``'s lookup: every predictor's WoE in one flat array, with
        # the bin counts (a tuple, as ``Sample.bin_counts`` holds them) and the
        # ``_bin_layout`` offsets that index it; kept off the fields, so
        # equality and repr see the rows alone
        bin_counts = tuple(len(row) for row in self.woe)
        flat = np.fromiter(chain.from_iterable(self.woe), dtype=float)
        offsets = _bin_layout(np.array(bin_counts))[1]
        object.__setattr__(self, "_lookup", (flat, bin_counts, offsets))


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


def adjusted_woe(n0jk, n1jk, n0: int, n1: int, theta_adj: float):
    """Adjusted WoE of a bin: ln[((n0jk + t)/n0) / ((n1jk + t)/n1)].

    The bin counts may be scalars or arrays (one entry per bin); the result
    is a numpy float or an array of the same shape.
    """
    return np.log((n0jk + theta_adj) / n0) - np.log((n1jk + theta_adj) / n1)


#: The WoE adjustment added to every bin count unless another is given,
#: the common software default.
DEFAULT_THETA_ADJ = 0.5


def check_theta_adj(theta_adj: float) -> None:
    """Refuse a WoE adjustment that is not finite and nonnegative."""
    # written so that a NaN, which compares false both ways, fails the test
    if not 0.0 <= theta_adj < np.inf:
        raise SpecError(f"theta_adj must be finite and nonnegative, got {theta_adj}")


def estimate_woe(sample: Sample, theta_adj: float = DEFAULT_THETA_ADJ) -> WoeTable:
    """Estimate per-bin weights of evidence from a training sample.

    The adjustment ``theta_adj`` (default ``DEFAULT_THETA_ADJ``, 0.5) is
    added to every bin count before normalizing, keeping estimates finite
    for bins one class never visited.  The table covers every bin of
    the sample's ``bin_counts``, including those absent from the sample.

    Rows count with their frequency weights, so a sample drawn into
    weighted cells (see ``generate_cells``) gives the table of the rows
    behind it.
    """
    check_theta_adj(theta_adj)
    w = sample.w
    n1 = int(w @ sample.Y)
    n0 = int(w.sum()) - n1
    if n1 == 0:
        raise DegenerateDesign("training sample contains no events")
    if n0 == 0:
        raise DegenerateDesign("training sample contains no nonevents")

    n_bins = np.array(sample.bin_counts, dtype=np.int64)
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
    return WoeTable(woe=_split_rows(woe.tolist(), ends.tolist()))


def transform(sample: Sample, table: WoeTable) -> np.ndarray:
    """Map a sample's bin indices to the training-estimated WoE features.

    The table must cover the sample's bin space; a sample's bins are in
    range by construction, so that is the one check."""
    flat, bin_counts, starts = table._lookup
    if sample.bin_counts != bin_counts:
        raise ValueError(
            f"sample has bin counts {sample.bin_counts}, table has {bin_counts}"
        )
    return flat[sample.X + starts]


def _clamped_probs(eta: np.ndarray) -> np.ndarray:
    """Clamp the linear predictors and map them through the sigmoid."""
    # minimum/maximum equal np.clip here and skip its Python-level dispatch
    clamped = np.minimum(np.maximum(eta, -LINEAR_PREDICTOR_CLAMP), LINEAR_PREDICTOR_CLAMP)
    return 1.0 / (1.0 + np.exp(-clamped))


def _loglik(event_w: np.ndarray, nonevent_w: np.ndarray, p: np.ndarray) -> float:
    """Log-likelihood of rows weighing ``event_w`` as events and ``nonevent_w``
    as nonevents, ``event_w * log(p) + nonevent_w * log1p(-p)`` summed."""
    return float((np.log(p) * event_w + np.log1p(-p) * nonevent_w).sum())


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


def _halve_step(design, event_w, nonevent_w, beta, step, ll):
    """The first step-halving trial from ``beta`` whose log-likelihood is not
    below ``ll`` (NaN included), as ``(beta, p, ll)``, or None when every
    trial's is.  Trial 0 takes the full ``step``, each later trial half the
    one before, up to ``_MAX_HALVINGS`` halvings."""
    for _ in range(_MAX_HALVINGS + 1):
        new_beta = beta + step
        new_p = _clamped_probs(design @ new_beta)
        new_ll = _loglik(event_w, nonevent_w, new_p)
        if not new_ll < ll:
            return new_beta, new_p, new_ll
        step = 0.5 * step
    return None


def fit_logistic(features: np.ndarray, responses: np.ndarray, weights=None) -> FittedModel:
    """Fit the Bernoulli MLE by Newton iterations with step halving.

    ``responses`` are 0/1 labels.  ``weights`` (default: one per row) are
    nonnegative integer frequency weights: a row of weight w counts as w
    identical rows, so a sample reduced to weighted cells fits the same
    model as the rows behind it.

    Starts at the WoE model's Bayes point: the intercept at the sample's
    weighted log-odds, log(event weight / nonevent weight), and every slope
    at -1, the coefficients of the population log-odds
    ``logit(pi) - sum_j WoE_j`` of a product-form config; a feature column
    with no spread starts at 0.  Where that point is less likely than
    beta = 0, as it can be on features that are not WoE, the fit starts at
    beta = 0 instead.  Declares convergence when the score vector's
    max-norm drops under 1e-8 or the log-likelihood moves by less than
    1e-10; a hard cap of 50 iterations keeps separated fits finite (they
    come back flagged, never infinite, thanks to the linear-predictor
    clamp).  A step none of whose halvings is as likely as the current beta
    is not taken: the fit stops there, not converged.
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
    nonevent_weight = float(w.sum()) - event_weight
    if event_weight == 0.0 or nonevent_weight == 0.0:
        raise DegenerateDesign("responses are all one class; MLE is unbounded")

    design = np.column_stack([np.ones(X.shape[0]), X])
    # a least-squares step never moves along a singular direction, so a
    # constant column keeps its start: 0, not -1
    slopes = np.where(np.ptp(X, axis=0) > 0, -1.0, 0.0)
    beta = np.concatenate([[math.log(event_weight / nonevent_weight)], slopes])
    p = _clamped_probs(design @ beta)
    ll = _loglik(event_w, nonevent_w, p)
    # the Bayes point suits WoE features; on others it can lie far out, where
    # the clamp flattens the likelihood and Newton can stall on a plateau, so
    # a start less likely than beta = 0 (every probability 1/2) gives way to 0
    if ll < math.log(0.5) * (event_weight + nonevent_weight):
        beta = np.zeros(design.shape[1])
        p = _clamped_probs(design @ beta)
        ll = _loglik(event_w, nonevent_w, p)
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITER + 1):
        grad = design.T @ ((y - p) * w)
        # max-norm under the tolerance; a NaN entry fails it, as in numpy
        if all(abs(g) < _GRAD_TOL for g in grad.tolist()):
            converged = True
            break
        curvature = w * p * (1.0 - p)
        step = _newton_step((design * curvature[:, None]).T @ design, grad)
        trial = _halve_step(design, event_w, nonevent_w, beta, step, ll)
        if trial is None:
            # no trial is as likely as the current beta: keep it, not converged
            break
        moved = abs(trial[2] - ll)
        beta, p, ll = trial
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
