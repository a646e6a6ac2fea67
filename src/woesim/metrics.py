"""Classification metrics (confusion counts, F1, P4), rank concordance, and
grid-search cutoff optimization.

Conventions fixed here because results at tiny sample sizes depend on them:
an observation is classified positive when its score is >= the cutoff, and
every 0/0 metric value collapses to 0 rather than propagating NaN into
quantile summaries.  Every count comes from one integer kernel over scores
with optional integer row weights, a row of weight w counting exactly as w
identical rows.  Labels other than 0 and 1 are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesign

METRIC_F1 = "f1"
METRIC_P4 = "p4"


def default_cutoff_grid() -> np.ndarray:
    """The fixed cutoff grid 0.001, 0.002, ..., 0.999."""
    return np.arange(1, 1000) / 1000.0


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts: actual class versus predicted class."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class CutoffResult:
    """A cutoff chosen on the grid and the metric value it attains."""

    theta: float
    score: float


def _check_weights(weights, n: int) -> np.ndarray:
    """Frequency weights of n rows (None: one each), refused unless they are
    n nonnegative integers; a row of weight w counts as w identical rows."""
    if weights is None:
        return np.ones(n, dtype=np.int64)
    w = np.asarray(weights)
    if w.shape != (n,):
        raise ValueError(f"weights must have one entry per row ({n}), got shape {w.shape}")
    if w.dtype.kind not in "iu" or np.count_nonzero(w < 0):
        raise ValueError("weights must be nonnegative integers")
    return w


def _check_labels(y: np.ndarray) -> None:
    """Refuse labels other than 0 and 1, NaN included: every nonzero must be a 1."""
    if y.dtype.kind != "b" and np.count_nonzero(y) != np.count_nonzero(y == 1):
        raise ValueError("labels must be 0 or 1")


def _check_scores(probs, labels, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p = np.asarray(probs, dtype=float)
    y = np.asarray(labels)
    if p.ndim != 1 or y.ndim != 1 or p.shape != y.shape:
        raise ValueError(f"probs and labels must be equal-length vectors, got {p.shape} and {y.shape}")
    if p.size == 0:
        raise ValueError("need at least one observation")
    _check_labels(y)
    return p, y, _check_weights(weights, p.size)


def _class_counts(slot: np.ndarray, n_slots: int, y: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Counts per slot, events in row 0 and nonevents in row 1: the one
    count kernel of the package (``compress``, ``estimate_woe`` and every
    metric count through it).

    ``w`` holds nonnegative integer row weights (None: one per row); a row
    of weight w counts exactly as w identical rows.  Integer weights sum
    exactly in bincount's float64 far beyond any sample size.
    """
    tally = np.bincount(slot + n_slots * (y != 1), w, minlength=2 * n_slots)
    return tally.astype(np.int64, copy=False).reshape(2, n_slots)


def _counts_at(probs, labels, weights, cutoffs: np.ndarray):
    """tp/fp/fn/tn at each of the ascending cutoffs (positive when prob >= cutoff).

    A row's slot is the number of cutoffs at or below its score, so it is
    negative exactly at the cutoffs from its slot on.
    """
    p, y, w = _check_scores(probs, labels, weights)
    slot = np.searchsorted(cutoffs, p, side="right")
    below = _class_counts(slot, cutoffs.size + 1, y, w).cumsum(axis=1)
    negative = below[:, :-1]
    tp, fp = below[:, -1:] - negative
    fn, tn = negative
    return tp, fp, fn, tn


def _f1_on_counts(tp, fp, fn) -> np.ndarray:
    den = np.asarray(2 * tp + fp + fn)
    out = np.zeros(den.shape, dtype=float)
    np.divide(2 * tp, den, out=out, where=den > 0)
    return out


def _p4_on_counts(tp, fp, fn, tn) -> np.ndarray:
    num = 4 * tp * tn
    den = np.asarray(num + (tp + tn) * (fp + fn))
    out = np.zeros(den.shape, dtype=float)
    np.divide(num, den, out=out, where=den > 0)
    return out


#: Each metric's score per cutoff, from the (tp, fp, fn, tn) count vectors.
_SCORES_ON_COUNTS = {
    METRIC_F1: lambda tp, fp, fn, tn: _f1_on_counts(tp, fp, fn),
    METRIC_P4: _p4_on_counts,
}


def confusions(probs, labels, thetas, weights=None) -> tuple[ConfusionMatrix, ...]:
    """The confusion matrix at each cutoff (positive when prob >= theta),
    in the order given, from one count over the sorted cutoffs; equal
    cutoffs share a value, as the count gives a repeat an empty slot.  A NaN
    cutoff is refused: no score is at or above it, nor below it."""
    theta = np.asarray(thetas, dtype=float)
    if np.isnan(theta).any():
        raise ValueError("cutoffs must not be NaN")
    order = theta.argsort()
    tp, fp, fn, tn = (c.tolist() for c in _counts_at(probs, labels, weights, theta[order]))
    return tuple(
        ConfusionMatrix(tp=tp[k], fp=fp[k], fn=fn[k], tn=tn[k]) for k in order.argsort().tolist()
    )


def confusion(probs, labels, theta: float, weights=None) -> ConfusionMatrix:
    """Tally the confusion matrix at one cutoff (positive when prob >= theta)."""
    return confusions(probs, labels, (theta,), weights)[0]


def f1(cm: ConfusionMatrix) -> float:
    """Harmonic mean of recall and precision; 0 when nothing is positive."""
    return float(_f1_on_counts(cm.tp, cm.fp, cm.fn))


def p4(cm: ConfusionMatrix) -> float:
    """Symmetric four-way extension of F1; 0 whenever its denominator vanishes."""
    return float(_p4_on_counts(cm.tp, cm.fp, cm.fn, cm.tn))


def gini(probs, labels, weights=None) -> float:
    """Somers' D of scores against the binary response.

    (concordant - discordant) mixed-class pairs over all mixed-class pairs;
    a pair is concordant when the event observation has the strictly larger
    score, and score ties land in the denominator only.  Pairs are
    aggregated over groups of identical score values after one sort, so the
    result equals full O(n^2) pair enumeration exactly.  NaN scores rank
    above every number and tie with each other.
    """
    p, y, w = _check_scores(probs, labels, weights)
    order = p.argsort()
    ranked = p[order]
    # group k holds the k-th smallest distinct score
    starts = np.empty(ranked.size, dtype=bool)
    starts[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    if ranked[-1] != ranked[-1]:
        # NaNs sort last and never equal each other: join them in one group
        starts[np.isnan(ranked).argmax() + 1:] = False
    group = starts.cumsum() - 1
    e, g = _class_counts(group, int(group[-1]) + 1, y[order], w[order])
    n1, n0 = int(e.sum()), int(g.sum())
    if n1 == 0 or n0 == 0:
        raise DegenerateDesign("gini needs at least one event and one nonevent")
    g_cum = g.cumsum()
    # nonevents strictly below each event group, and strictly above it
    concordant = int(e @ (g_cum - g))
    discordant = int(e @ (n0 - g_cum))
    return (concordant - discordant) / (n1 * n0)


def optimize_cutoffs(probs, labels, metric_ids, *, weights=None) -> tuple[CutoffResult, ...]:
    """Search ``default_cutoff_grid()`` for the cutoff maximizing each of
    ``metric_ids`` (F1 or P4, in the order given) from one count over the grid.

    Ties resolve deterministically to the smallest maximizing grid point.
    """
    for metric_id in metric_ids:
        if metric_id not in _SCORES_ON_COUNTS:
            raise ValueError(f"unknown metric_id {metric_id!r} (expected 'f1' or 'p4')")
    g = default_cutoff_grid()
    counts = _counts_at(probs, labels, weights, g)
    results = []
    for metric_id in metric_ids:
        scores = _SCORES_ON_COUNTS[metric_id](*counts)
        best = int(np.argmax(scores))  # first maximum = smallest cutoff
        results.append(CutoffResult(theta=float(g[best]), score=float(scores[best])))
    return tuple(results)


def optimize_cutoff(probs, labels, metric_id: str, *, weights=None) -> CutoffResult:
    """Search ``default_cutoff_grid()`` for the cutoff maximizing F1 or P4.

    Ties resolve deterministically to the smallest maximizing grid point.
    """
    return optimize_cutoffs(probs, labels, (metric_id,), weights=weights)[0]
