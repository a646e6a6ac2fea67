"""WoE estimation, the WoE transform, and the logistic MLE."""

import math

import numpy as np
import pytest

import woesim as ws
from woesim.scorecard import _clamped_probs, _loglik


def build_sample(bins_by_row, labels):
    X = np.asarray(bins_by_row, dtype=np.int64)
    if X.ndim == 1:
        X = X[:, None]
    return ws.Sample(X=X, Y=np.asarray(labels, dtype=np.int64))


class TestAdjustedWoe:
    def test_empty_event_bin_with_adjustment(self):
        value = ws.adjusted_woe(45, 0, 90, 10, 0.5)
        assert value == pytest.approx(math.log((45.5 / 90) / (0.5 / 10)), abs=1e-12)
        assert value == pytest.approx(2.31363, abs=5e-6)

    def test_equal_frequencies_no_adjustment(self):
        assert ws.adjusted_woe(45, 5, 90, 10, 0.0) == 0.0

    def test_adjustment_shifts_smallsample_estimate(self):
        value = ws.adjusted_woe(45, 5, 90, 10, 0.5)
        assert value == pytest.approx(math.log((45.5 / 90) / (5.5 / 10)), abs=1e-12)
        assert value == pytest.approx(-0.08426, abs=5e-6)


class TestEstimateWoe:
    def test_counts_and_tables_cover_all_bins(self):
        sample = build_sample([1, 1, 2, 2, 2, 1, 1, 1, 1, 1], [1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        table = ws.estimate_woe(sample, bin_counts=(3,), theta_adj=0.5)
        assert table.n_event == 2 and table.n_nonevent == 8
        assert table.event_counts[0] == (2, 0, 0)
        assert table.nonevent_counts[0] == (5, 3, 0)
        assert len(table.woe[0]) == 3
        # bin 3 was never observed but still has a finite estimate
        assert math.isfinite(table.woe[0][2])
        assert table.woe[0][2] == pytest.approx(ws.adjusted_woe(0, 0, 8, 2, 0.5), abs=1e-12)

    def test_count_marginals_match_totals(self):
        plan = ws.make_plan(500, ws.EventRate(0.1))
        sample = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(2, 0, "train"))
        table = ws.estimate_woe(sample, ws.CONFIG_B.bin_counts)
        for j in range(sample.d):
            assert sum(table.event_counts[j]) == table.n_event
            assert sum(table.nonevent_counts[j]) == table.n_nonevent

    def test_single_class_rejected(self):
        with pytest.raises(ws.NoEvents):
            ws.estimate_woe(build_sample([1, 2, 1], [0, 0, 0]), (2,))
        with pytest.raises(ws.NoNonevents):
            ws.estimate_woe(build_sample([1, 2, 1], [1, 1, 1]), (2,))

    def test_antisymmetric_under_class_swap(self):
        plan = ws.make_plan(300, ws.EventRate(0.2))
        sample = ws.generate_sample(ws.CONFIG_A, plan, ws.RngStream(4, 0, "train"))
        swapped = ws.Sample(X=sample.X.copy(), Y=1 - sample.Y)
        t1 = ws.estimate_woe(sample, ws.CONFIG_A.bin_counts, 0.5)
        t2 = ws.estimate_woe(swapped, ws.CONFIG_A.bin_counts, 0.5)
        for j in range(sample.d):
            for k in range(len(t1.woe[j])):
                assert t2.woe[j][k] == -t1.woe[j][k]  # exact negation

    def test_permutation_invariant(self):
        plan = ws.make_plan(200, ws.EventRate(0.1))
        sample = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(6, 0, "train"))
        perm = np.random.default_rng(0).permutation(sample.n)
        shuffled = ws.Sample(X=sample.X[perm], Y=sample.Y[perm])
        assert ws.estimate_woe(sample, ws.CONFIG_B.bin_counts) == ws.estimate_woe(
            shuffled, ws.CONFIG_B.bin_counts
        )

    def test_consistency_against_population_woe(self):
        # balanced classes maximize per-bin counts; pinned stream
        plan = ws.SamplingPlan(n=200000, n1=100000, pi1=0.5)
        sample = ws.generate_sample(ws.CONFIG_A, plan, ws.RngStream(1, 0, "train"))
        table = ws.estimate_woe(sample, ws.CONFIG_A.bin_counts, 0.5)
        for j, pred in enumerate(ws.CONFIG_A.predictors):
            for k in range(pred.n_bins):
                if pred.p_event[k] >= 0.05 and pred.p_nonevent[k] >= 0.05:
                    assert table.woe[j][k] == pytest.approx(
                        ws.population_woe(ws.CONFIG_A, j + 1, k + 1), abs=0.02
                    )


class TestTransform:
    def test_lookup(self):
        table = ws.WoeTable(
            woe=((0.2, -0.1),),
            event_counts=((1, 1),),
            nonevent_counts=((1, 1),),
            n_event=2,
            n_nonevent=2,
            theta_adj=0.5,
        )
        out = ws.transform(build_sample([1, 2, 1], [1, 0, 0]), table)
        assert out.tolist() == [[0.2], [-0.1], [0.2]]

    def test_zero_table_gives_zero_matrix(self):
        table = ws.WoeTable(
            woe=((0.0, 0.0), (0.0, 0.0, 0.0)),
            event_counts=((0, 0), (0, 0, 0)),
            nonevent_counts=((0, 0), (0, 0, 0)),
            n_event=1,
            n_nonevent=1,
            theta_adj=0.5,
        )
        sample = build_sample([[1, 3], [2, 1]], [1, 0])
        assert np.all(ws.transform(sample, table) == 0.0)

    def test_unknown_bin_rejected(self):
        table = ws.WoeTable(
            woe=((0.2, -0.1),),
            event_counts=((1, 1),),
            nonevent_counts=((1, 1),),
            n_event=2,
            n_nonevent=2,
            theta_adj=0.5,
        )
        with pytest.raises(IndexError):
            ws.transform(build_sample([1, 3], [1, 0]), table)

    def test_recomputing_counts_reproduces_table(self):
        plan = ws.make_plan(400, ws.EventRate(0.1))
        train = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(9, 0, "train"))
        table = ws.estimate_woe(train, ws.CONFIG_B.bin_counts)
        feats = ws.transform(train, table)
        # every transformed cell equals its bin's table entry, and counting
        # rows per woe value recovers the stored counts
        for j in range(train.d):
            woe_row = np.asarray(table.woe[j])
            assert np.array_equal(feats[:, j], woe_row[train.X[:, j] - 1])
            for k, w in enumerate(table.woe[j]):
                hits = train.X[:, j] == k + 1
                assert int(np.count_nonzero(hits & (train.Y == 1))) == table.event_counts[j][k]
                assert int(np.count_nonzero(hits & (train.Y == 0))) == table.nonevent_counts[j][k]
        assert ws.estimate_woe(train, ws.CONFIG_B.bin_counts) == table


class TestFitLogistic:
    def test_intercept_only(self):
        F = np.zeros((100, 2))
        y = np.zeros(100)
        y[:20] = 1
        model = ws.fit_logistic(F, y)
        assert model.converged
        assert model.beta[0] == pytest.approx(math.log(0.2 / 0.8), abs=1e-8)
        assert model.beta[1] == 0.0 and model.beta[2] == 0.0

    def test_separation_stays_finite_and_bounded(self):
        x = np.concatenate([np.full(10, 1.0), np.full(10, -1.0)])
        y = (x > 0).astype(float)
        model = ws.fit_logistic(x[:, None], y)
        assert model.iterations <= 50
        assert all(math.isfinite(b) for b in model.beta)
        probs = ws.predict_proba(model, x[:, None])
        assert np.all((probs > 0.0) & (probs < 1.0))
        # once every linear predictor saturates the clamp the likelihood is
        # flat, so the |delta loglik| stopping rule fires: separated fits
        # terminate "converged" at the plateau rather than at the cap
        assert model.converged

    def test_single_class_rejected(self):
        with pytest.raises(ws.DegenerateDesign):
            ws.fit_logistic(np.zeros((5, 1)), np.ones(5))

    def test_nonfinite_features_rejected(self):
        F = np.zeros((4, 1))
        F[0] = np.inf
        with pytest.raises(ValueError):
            ws.fit_logistic(F, np.array([1, 0, 1, 0]))

    def test_coefficient_recovery_under_population_woe_features(self):
        plan = ws.SamplingPlan(n=100000, n1=10000, pi1=0.10)
        sample = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(20260809, 0, "train"))
        F = np.column_stack([
            pred.woe()[sample.X[:, j] - 1]
            for j, pred in enumerate(ws.CONFIG_B.predictors)
        ])
        model = ws.fit_logistic(F, sample.Y)
        assert model.converged
        assert model.beta[0] == pytest.approx(math.log(0.1 / 0.9), abs=0.1)
        for slope in model.beta[1:]:
            assert slope == pytest.approx(-1.0, abs=0.1)

    def test_stationarity_at_convergence(self):
        gen = np.random.default_rng(12)
        for _ in range(5):
            n = 400
            F = gen.normal(size=(n, 3))
            eta = -1.0 + F @ np.array([0.8, -0.5, 0.2])
            y = (gen.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
            model = ws.fit_logistic(F, y)
            assert model.converged
            design = np.column_stack([np.ones(n), F])
            p = ws.predict_proba(model, F)
            score = design.T @ (y - p)
            assert np.max(np.abs(score)) < 1e-6

    def test_gradient_matches_finite_differences(self):
        gen = np.random.default_rng(77)
        n = 120
        F = gen.normal(size=(n, 2))
        y = (gen.random(n) < 0.3).astype(float)
        design = np.column_stack([np.ones(n), F])

        def loglik(beta):
            return _loglik(y, 1.0 - y, _clamped_probs(design @ beta))

        h = 1e-6
        for _ in range(10):
            beta = gen.normal(scale=0.8, size=3)
            analytic = design.T @ (y - _clamped_probs(design @ beta))
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                numeric = (loglik(beta + e) - loglik(beta - e)) / (2 * h)
                assert abs(numeric - analytic[i]) <= 1e-4 * max(1.0, abs(analytic[i]))

    def test_fit_invariant_under_row_permutation(self):
        gen = np.random.default_rng(5)
        F = gen.normal(size=(300, 3))
        y = (gen.random(300) < 0.25).astype(float)
        perm = gen.permutation(300)
        a = ws.fit_logistic(F, y)
        b = ws.fit_logistic(F[perm], y[perm])
        assert np.allclose(a.beta, b.beta, atol=1e-8)

    def test_loglik_nonpositive(self):
        gen = np.random.default_rng(2)
        F = gen.normal(size=(50, 1))
        y = (gen.random(50) < 0.4).astype(float)
        assert ws.fit_logistic(F, y).loglik <= 0.0


class TestPredictProba:
    def test_zero_coefficients_give_half(self):
        model = ws.FittedModel(beta=(0.0, 0.0), converged=True, iterations=1, loglik=-1.0)
        assert ws.predict_proba(model, [3.0]) == 0.5
        assert ws.predict_proba(model, [-42.0]) == 0.5

    def test_clamp_boundary_stays_inside_unit_interval(self):
        model = ws.FittedModel(beta=(0.0, 1.0), converged=True, iterations=1, loglik=-1.0)
        p = ws.predict_proba(model, [1000.0])  # eta clamps to +30
        assert p < 1.0
        assert 1.0 - p == pytest.approx(math.exp(-30) / (1 + math.exp(-30)), rel=1e-10)

    def test_monotone_in_feature_with_negative_coefficient(self):
        model = ws.FittedModel(beta=(0.3, -1.2), converged=True, iterations=1, loglik=-1.0)
        values = [ws.predict_proba(model, [x]) for x in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
