"""Confusion counts, F1/P4, Somers' D concordance, and cutoff search."""

import numpy as np
import pytest

import woesim as ws


def gini_oracle(probs, labels):
    """O(n^2) pair enumeration, the independent reference for gini."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    nc = nd = nu = 0
    for i in range(len(probs)):
        for j in range(len(probs)):
            if labels[i] == 1 and labels[j] == 0:
                nu += 1
                if probs[i] > probs[j]:
                    nc += 1
                elif probs[i] < probs[j]:
                    nd += 1
    return (nc - nd) / nu


class TestConfusion:
    def test_hand_tally(self):
        cm = ws.confusion((0.9, 0.2, 0.8), (1, 0, 0), 0.5)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 1, 0, 1)

    def test_threshold_above_everything(self):
        cm = ws.confusion((0.2, 0.3, 0.1), (1, 0, 0), 0.9)
        assert (cm.tp, cm.fp) == (0, 0)
        assert cm.fn == 1 and cm.tn == 2

    def test_tie_with_threshold_counts_positive(self):
        cm = ws.confusion((0.5, 0.4), (1, 0), 0.5)
        assert cm.tp == 1 and cm.fn == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ws.confusion((0.5, 0.4), (1, 0, 0), 0.5)
        with pytest.raises(ValueError):
            ws.confusion((), (), 0.5)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ws.ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)

    def test_nan_cutoff_refused(self):
        # no score is at or above a NaN cutoff, so every row used to count as
        # negative: confusion((0.2, 0.9), (0, 1), nan) gave tp=0 fp=0 fn=1 tn=1
        with pytest.raises(ValueError, match="NaN"):
            ws.confusion((0.2, 0.9), (0, 1), np.nan)
        with pytest.raises(ValueError, match="NaN"):
            ws.metrics.confusions((0.2, 0.9), (0, 1), (0.5, np.nan))


class TestF1:
    def test_direct_formula(self):
        assert ws.f1(ws.ConfusionMatrix(2, 1, 1, 0)) == pytest.approx(2 / 3, abs=1e-12)

    def test_perfect_positive_classification(self):
        assert ws.f1(ws.ConfusionMatrix(tp=5, fp=0, fn=0, tn=3)) == 1.0

    def test_degenerate_zero(self):
        assert ws.f1(ws.ConfusionMatrix(tp=0, fp=0, fn=0, tn=7)) == 0.0


class TestP4:
    def test_direct_formula(self):
        assert ws.p4(ws.ConfusionMatrix(tp=2, fp=1, fn=1, tn=96)) == pytest.approx(768 / 964, abs=1e-12)

    def test_perfect_classification(self):
        assert ws.p4(ws.ConfusionMatrix(tp=4, fp=0, fn=0, tn=4)) == 1.0

    def test_zero_numerator(self):
        assert ws.p4(ws.ConfusionMatrix(tp=0, fp=0, fn=3, tn=9)) == 0.0

    def test_all_zero(self):
        assert ws.p4(ws.ConfusionMatrix(tp=0, fp=0, fn=0, tn=0)) == 0.0

    def test_class_swap_symmetry(self):
        gen = np.random.default_rng(1)
        for _ in range(50):
            tp, fp, fn, tn = (int(v) for v in gen.integers(0, 40, size=4))
            direct = ws.p4(ws.ConfusionMatrix(tp, fp, fn, tn))
            swapped = ws.p4(ws.ConfusionMatrix(tn, fn, fp, tp))
            assert direct == swapped  # exact

    def test_f1_lacks_that_symmetry(self):
        cm = ws.ConfusionMatrix(tp=2, fp=1, fn=1, tn=96)
        swapped = ws.ConfusionMatrix(tp=96, fp=1, fn=1, tn=2)
        assert ws.f1(cm) != ws.f1(swapped)

    def test_duplication_invariance(self):
        probs = np.array([0.9, 0.6, 0.4, 0.2, 0.7])
        labels = np.array([1, 0, 1, 0, 0])
        doubled_p = np.concatenate([probs, probs])
        doubled_y = np.concatenate([labels, labels])
        for theta in (0.3, 0.5, 0.65):
            cm1 = ws.confusion(probs, labels, theta)
            cm2 = ws.confusion(doubled_p, doubled_y, theta)
            assert ws.f1(cm1) == ws.f1(cm2)
            assert ws.p4(cm1) == ws.p4(cm2)


class TestGini:
    def test_perfect_concordance(self):
        assert ws.gini((0.9, 0.8, 0.1, 0.2), (1, 1, 0, 0)) == 1.0

    def test_perfect_discordance(self):
        assert ws.gini((0.1, 0.2, 0.9, 0.8), (1, 1, 0, 0)) == -1.0

    def test_all_tied_scores(self):
        assert ws.gini((0.5, 0.5, 0.5), (1, 0, 0)) == 0.0

    def test_mixed_example(self):
        assert ws.gini((0.5, 0.2, 0.8), (1, 0, 0)) == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(ws.DegenerateDesign):
            ws.gini((0.1, 0.2), (1, 1))

    def test_matches_pair_enumeration_with_ties(self):
        gen = np.random.default_rng(3)
        for _ in range(40):
            n = int(gen.integers(2, 120))
            labels = np.zeros(n, dtype=int)
            labels[: max(1, int(gen.integers(1, n)))] = 1
            gen.shuffle(labels)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            # coarse score grid injects plenty of ties
            probs = gen.integers(0, 8, size=n) / 8.0
            assert ws.gini(probs, labels) == gini_oracle(probs, labels)

    def test_tied_weighted_scores_match_pair_enumeration_of_replicated_rows(self):
        gen = np.random.default_rng(8)
        for _ in range(40):
            n = int(gen.integers(2, 40))
            labels = gen.integers(0, 2, size=n)
            labels[0], labels[1] = 1, 0
            # weight 0 drops a row; the first two keep both classes present
            weights = gen.integers(0, 5, size=n)
            weights[:2] += 1
            probs = gen.integers(0, 6, size=n) / 6.0
            rows = np.repeat(probs, weights), np.repeat(labels, weights)
            assert ws.gini(probs, labels, weights) == gini_oracle(*rows)

    def test_nan_scores_tie_with_each_other_above_every_number(self):
        # all NaN scores form one group ranked above every number, as
        # np.unique groups them; pair enumeration would tie NaN with all
        probs = [np.nan, 0.2, np.nan, 0.7, np.nan, 0.1]
        labels = [1, 0, 1, 1, 0, 0]
        # events NaN, NaN, 0.7 against nonevents 0.2, NaN, 0.1: 6 concordant
        # pairs, 1 discordant (0.7 below NaN), 2 tied (NaN with NaN)
        assert ws.gini(probs, labels) == 5 / 9
        assert ws.gini(probs, labels, np.ones(6, dtype=int)) == 5 / 9

    def test_invariant_under_strictly_increasing_transform(self):
        gen = np.random.default_rng(4)
        eta = gen.normal(size=60)
        labels = (gen.random(60) < 0.3).astype(int)
        labels[0], labels[1] = 1, 0
        probs = 1.0 / (1.0 + np.exp(-eta))
        assert ws.gini(eta, labels) == ws.gini(probs, labels)  # exact

    def test_negating_scores_negates_d(self):
        gen = np.random.default_rng(5)
        probs = gen.random(40)
        labels = (gen.random(40) < 0.4).astype(int)
        labels[0], labels[1] = 1, 0
        assert ws.gini(-probs, labels) == -ws.gini(probs, labels)


class TestOptimizeCutoff:
    def test_separated_scores_pick_smallest_perfect_cutoff(self):
        probs = np.array([0.9, 0.9, 0.1, 0.1, 0.1])
        labels = np.array([1, 1, 0, 0, 0])
        result = ws.optimize_cutoff(probs, labels, "f1")
        assert result.theta == 0.101
        assert result.score == 1.0

    def test_constant_scores_tie_break_to_smallest(self):
        probs = np.full(6, 0.5)
        labels = np.array([1, 0, 0, 0, 0, 0])
        result = ws.optimize_cutoff(probs, labels, "f1")
        assert result.theta == 0.001
        cm = ws.confusion(probs, labels, 0.001)
        assert result.score == ws.f1(cm)

    def test_single_event_below_all_nonevents(self):
        probs = np.array([0.1, 0.5, 0.6, 0.7])
        labels = np.array([1, 0, 0, 0])
        result = ws.optimize_cutoff(probs, labels, "f1")
        assert result.theta == 0.001
        assert result.score == pytest.approx(2 * 1 / (2 * 1 + 3 + 0), abs=1e-12)

    @pytest.mark.parametrize("metric", ["f1", "p4"])
    def test_matches_exhaustive_grid_evaluation(self, metric):
        gen = np.random.default_rng(6)
        grid = ws.default_cutoff_grid()
        scorer = ws.f1 if metric == "f1" else ws.p4
        for _ in range(25):
            n = int(gen.integers(2, 200))
            labels = (gen.random(n) < 0.3).astype(int)
            labels[0], labels[1] = 1, 0
            probs = np.round(gen.random(n), 2)
            result = ws.optimize_cutoff(probs, labels, metric)
            scores = [scorer(cm) for cm in ws.metrics.confusions(probs, labels, grid)]
            best = 0
            for k, score in enumerate(scores):
                if score > scores[best]:  # strictly larger: the first maximum stays
                    best = k
            assert result.score == scores[best]
            assert result.theta == grid[best]

    def test_grid_validation(self):
        # the search always runs on the fixed grid: a grid passed where it
        # used to go is refused, never read as row weights
        probs, labels = np.array([0.5, 0.6]), np.array([1, 0])
        with pytest.raises(TypeError):
            ws.optimize_cutoff(probs, labels, "f1", [0.1, 0.5])
        with pytest.raises(TypeError):
            ws.metrics.optimize_cutoffs(probs, labels, ("f1",), [0.1, 0.5])
        with pytest.raises(TypeError):
            ws.optimize_cutoff(probs, labels, "f1", grid=[0.1, 0.5])
        with pytest.raises(ValueError):
            ws.optimize_cutoff(probs, labels, "bogus")

    def test_default_grid_shape(self):
        grid = ws.default_cutoff_grid()
        assert len(grid) == 999
        assert grid[0] == 0.001 and grid[-1] == 0.999


# each metric once, on three rows whose last label is replaced
LABELLED_METRICS = {
    "confusion": lambda probs, labels: ws.confusion(probs, labels, 0.5),
    "gini": ws.gini,
    "optimize_cutoff": lambda probs, labels: ws.optimize_cutoff(probs, labels, ws.METRIC_F1),
}


@pytest.mark.parametrize("bad", [2, np.nan], ids=["two", "nan"])
@pytest.mark.parametrize("metric", sorted(LABELLED_METRICS))
def test_labels_other_than_0_and_1_refused(metric, bad):
    # such a label used to count as a nonevent: confusion((0.9, 0.2), (2, 0), 0.5)
    # gave tp=0, fp=1, fn=0, tn=1, while Sample and fit_logistic refused it
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        LABELLED_METRICS[metric]((0.9, 0.2, 0.5), (1, 0, bad))
