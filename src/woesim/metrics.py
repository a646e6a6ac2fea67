"""Classification metrics (confusion counts, F1, P4), rank concordance, and
grid-search cutoff optimization.

Conventions fixed here because results at tiny sample sizes depend on them:
an observation is classified positive when its score is >= the cutoff, and
every 0/0 metric value collapses to 0 rather than propagating NaN into
quantile summaries.  Every metric of a split is read from one sort of its
scores (``_rank``), counted with optional integer row weights, a row of
weight w counting exactly as w identical rows.  Labels other than 0 and 1
are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDesign

METRIC_F1 = "f1"
METRIC_P4 = "p4"


def default_cutoff_grid() -> np.ndarray:
    """The fixed cutoff grid 0.001, 0.002, ..., 0.999."""
    return np.arange(1, 1000) / 1000.0


#: The grid every cutoff search reads, built once and read-only.
_GRID = default_cutoff_grid()
_GRID.flags.writeable = False


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


def _integer_typed(a: np.ndarray) -> bool:
    """The rule for integer data: an integer dtype, so bool and whole floats fail."""
    return a.dtype.kind in "iu"


def _check_weights(weights, n: int) -> np.ndarray:
    """Frequency weights of n rows (None: one each), refused unless they are
    n nonnegative integers; a row of weight w counts as w identical rows."""
    if weights is None:
        return np.ones(n, dtype=np.int64)
    w = np.asarray(weights)
    if w.shape != (n,):
        raise ValueError(f"weights must have one entry per row ({n}), got shape {w.shape}")
    if not _integer_typed(w) or np.count_nonzero(w < 0):
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


def _class_counts(slot: np.ndarray, n_slots: int, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Counts per slot, events in row 0 and nonevents in row 1: the one
    count kernel of the package (``estimate_woe`` and every metric count
    through it).

    ``w`` holds nonnegative integer row weights; a row of weight w counts
    exactly as w identical rows.  Integer weights sum exactly in bincount's
    float64 far beyond any sample size.
    """
    tally = np.bincount(slot + n_slots * (y != 1), w, minlength=2 * n_slots)
    return tally.astype(np.int64, copy=False).reshape(2, n_slots)


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


class _Ranking(NamedTuple):
    """A split's distinct scores, ascending, and the event (row 0) and
    nonevent (row 1) weight below each, the class totals last."""

    scores: np.ndarray
    below: np.ndarray

    def counts_at(self, cutoffs) -> np.ndarray:
        """Rows tp, fp, fn and tn at each cutoff: the weight from its first
        distinct score at or above it on is positive, the rest negative."""
        negative = self.below.take(np.searchsorted(self.scores, cutoffs, side="left"), axis=1)
        return np.concatenate((self.below[:, -1:] - negative, negative))

    def gini(self) -> float:
        e_below, g_below = self.below
        n1, n0 = int(e_below[-1]), int(g_below[-1])
        if n1 == 0 or n0 == 0:
            raise DegenerateDesign("gini needs at least one event and one nonevent")
        e = np.diff(e_below)
        # nonevents strictly below each event group, and strictly above it
        concordant, discordant = int(e @ g_below[:-1]), int(e @ (n0 - g_below[1:]))
        return (concordant - discordant) / (n1 * n0)

    def scores_at(self, cutoffs) -> tuple[np.ndarray, np.ndarray]:
        """F1 and P4 at each cutoff."""
        tp, fp, fn, tn = self.counts_at(cutoffs)
        return _f1_on_counts(tp, fp, fn), _p4_on_counts(tp, fp, fn, tn)

    def best_cutoffs(self) -> tuple[CutoffResult, CutoffResult]:
        """The F1 and the P4 cutoff, each the first grid point (the
        smallest cutoff) where its metric peaks."""
        scores = self.scores_at(_GRID)
        best = [int(np.argmax(s)) for s in scores]
        return tuple(CutoffResult(theta=float(_GRID[k]), score=float(s[k])) for s, k in zip(scores, best))


def _rank(probs, labels, weights) -> _Ranking:
    """Sort a split's scores once, for every metric to read.  NaN scores
    sort last in one group: they tie with each other and rank above every
    number, so they count as positive at every cutoff."""
    p, y, w = _check_scores(probs, labels, weights)
    order = p.argsort()
    ranked = p[order]
    starts = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    if ranked[-1] != ranked[-1]:
        # NaNs never equal each other: join them in one group
        starts[np.isnan(ranked).argmax() + 1:] = False
    # slot k + 1 holds the k-th smallest distinct score and slot 0 stays
    # empty, so the running count at slot k is the weight below score k
    slot = starts.cumsum()
    below = _class_counts(slot, int(slot[-1]) + 1, y[order], w[order]).cumsum(axis=1)
    return _Ranking(ranked[starts], below)


def confusion(probs, labels, theta: float, weights=None) -> ConfusionMatrix:
    """Tally the confusion matrix at one cutoff (positive when prob >= theta).
    A NaN cutoff is refused: no score is at or above it, nor below it."""
    if theta != theta:
        raise ValueError("cutoff must not be NaN")
    return ConfusionMatrix(*_rank(probs, labels, weights).counts_at((theta,))[:, 0].tolist())


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
    return _rank(probs, labels, weights).gini()


def optimize_cutoff(probs, labels, metric_id: str, *, weights=None) -> CutoffResult:
    """Search ``default_cutoff_grid()`` for the cutoff maximizing F1 or P4.

    Ties resolve deterministically to the smallest maximizing grid point.
    """
    if metric_id not in (METRIC_F1, METRIC_P4):
        raise ValueError(f"unknown metric_id {metric_id!r} (expected 'f1' or 'p4')")
    return _rank(probs, labels, weights).best_cutoffs()[(METRIC_F1, METRIC_P4).index(metric_id)]
