"""WoE estimation, the WoE transform, and the logistic MLE."""

import dataclasses
import itertools
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


#: Each weighted entry point called on three rows, with the weights to check.
WEIGHTED_ENTRY_POINTS = {
    "estimate_woe": lambda w: ws.estimate_woe(build_sample([1, 2, 1], [1, 0, 0]), (2,), weights=w),
    "fit_logistic": lambda w: ws.fit_logistic(np.array([[0.5], [-0.5], [0.5]]), np.array([1.0, 0.0, 0.0]), w),
    "confusion": lambda w: ws.confusion((0.9, 0.2, 0.8), (1, 0, 0), 0.5, w),
    "optimize_cutoff": lambda w: ws.optimize_cutoff((0.9, 0.2, 0.8), (1, 0, 0), "f1", weights=w),
    "gini": lambda w: ws.gini((0.9, 0.2, 0.8), (1, 0, 0), w),
}

#: Weights that break the frequency-weight rule: one nonnegative integer per row.
BAD_WEIGHTS = {
    "wrong length": np.array([1, 2]),
    "negative": np.array([1, -1, 2]),
    "fractional": np.array([1.0, 2.0, 1.0]),
}


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

    @pytest.mark.parametrize("theta_adj", [math.nan, math.inf, -1.0])
    def test_bad_theta_adj_rejected(self, theta_adj):
        # inf used to give NaN estimates and nan a table of NaN
        sample = build_sample([1, 2, 1, 2], [1, 0, 0, 1])
        with pytest.raises(ValueError, match="theta_adj must be finite and nonnegative"):
            ws.estimate_woe(sample, (2,), theta_adj)

    def test_bad_weights_rejected(self):
        # one weight rule for every weighted entry point, WoE estimate included
        accepted = []
        for (entry, call), (case, weights) in itertools.product(
            WEIGHTED_ENTRY_POINTS.items(), BAD_WEIGHTS.items()
        ):
            try:
                call(weights)
            except ValueError as exc:
                assert "weights" in str(exc), (entry, case, exc)
            else:
                accepted.append((entry, case))
        assert accepted == []
        for call in WEIGHTED_ENTRY_POINTS.values():
            call(np.array([1, 2, 1]))

    def test_out_of_range_bin_names_predictor(self):
        sample = build_sample([[1, 2], [2, 3], [1, 1]], [1, 0, 0])
        with pytest.raises(IndexError, match=r"predictor 2: bin index outside 1\.\.2"):
            ws.estimate_woe(sample, (2, 2))

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
        pair = ((1, 1), (1, 1))
        two = dataclasses.replace(
            table, woe=((0.2, -0.1), (0.5, 0.4)), event_counts=pair, nonevent_counts=pair
        )
        with pytest.raises(IndexError, match="predictor 2"):
            ws.transform(build_sample([[1, 2], [2, 0]], [1, 0]), two)

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

    @pytest.mark.parametrize("label", [2.0, np.nan])
    def test_responses_outside_0_1_rejected(self, label):
        F = np.linspace(-1.0, 1.0, 6)[:, None]
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            ws.fit_logistic(F, np.array([1.0, 0.0, 1.0, 0.0, 0.0, label]))

    def test_nonfinite_features_are_reported_before_labels(self):
        F = np.zeros((4, 1))
        F[0] = np.nan
        with pytest.raises(ValueError, match="features must be finite"):
            ws.fit_logistic(F, np.array([1.0, 0.0, 2.0, 0.0]))

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
        assert ws.predict_proba(model, [[3.0], [-42.0]]).tolist() == [0.5, 0.5]

    def test_clamp_boundary_stays_inside_unit_interval(self):
        model = ws.FittedModel(beta=(0.0, 1.0), converged=True, iterations=1, loglik=-1.0)
        (p,) = ws.predict_proba(model, [[1000.0]])  # eta clamps to +30
        assert p < 1.0
        assert 1.0 - p == pytest.approx(math.exp(-30) / (1 + math.exp(-30)), rel=1e-10)

    def test_monotone_in_feature_with_negative_coefficient(self):
        model = ws.FittedModel(beta=(0.3, -1.2), converged=True, iterations=1, loglik=-1.0)
        values = ws.predict_proba(model, [[-2.0], [-1.0], [0.0], [1.0], [2.0]]).tolist()
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("features", [[0.5, 1.0], [[[0.5, 1.0]]]], ids=["1-D", "3-D"])
    def test_features_other_than_a_matrix_refused(self, features):
        # a single row used to come back as a float, and a 3-D stack as a matrix
        model = ws.FittedModel(beta=(0.0, 1.0, -1.0), converged=True, iterations=1, loglik=-1.0)
        with pytest.raises(ValueError, match=r"\(n, d\) matrix"):
            ws.predict_proba(model, features)


def small_n_design(config_id, n, rate, iteration):
    """The training design ``run_iteration`` fits: WoE features of the
    training sample's weighted cells, their responses and their weights."""
    config = ws.BUILTIN_CONFIGS[config_id]
    plan = ws.make_plan(n, ws.EventRate(rate))
    train = ws.generate_sample(config, plan, ws.RngStream(20260101, iteration, "train"))
    table = ws.estimate_woe(train, config.bin_counts)
    cells, weights = ws.compress(train, config.bin_counts)
    return ws.transform(cells, table), cells.Y, weights


# exact reprs of the fits, so a reordered reduction or a changed step shows
# as a changed last digit
SMALL_N_FITS = {
    ("A", 50, 0.01, 0): "FittedModel(beta=(-108.65729058531159, -31.2834578205591, -3.860304081387943, -17.372975679564842, -12.481818541547641), converged=True, iterations=24, loglik=-1.0374013750901729e-08)",
    ("A", 100, 0.05, 1): "FittedModel(beta=(-5.28563727526267, -2.1359155127422604, -1.7017901196747156, -1.501371746017343, -2.056018585460329), converged=True, iterations=8, loglik=-15.102847590557529)",
    ("A", 150, 0.1, 2): "FittedModel(beta=(-3.042036159034055, -1.2691101309922894, -1.1606002146181418, -3.279800549346363, -1.355807389759871), converged=True, iterations=7, loglik=-42.97017637180927)",
    ("A", 200, 0.01, 3): "FittedModel(beta=(-695.6403571107546, -21.927424573593317, -55.09177637736895, -361.1090087536281, -152.05086623500398), converged=True, iterations=29, loglik=-1.3862943742932723)",
    ("A", 250, 0.05, 4): "FittedModel(beta=(-3.7364717208981593, -1.6312214747567133, -1.2654643629853664, -1.1181245603022203, -1.0202490955477317), converged=True, iterations=8, loglik=-35.23666788607657)",
    ("B", 50, 0.01, 5): "FittedModel(beta=(-27.71942446876944, -0.6812306300238505, -9.556694555832202, 0.9155666053668243, -0.3812377826047757), converged=True, iterations=23, loglik=-4.986279512557537e-09)",
    ("B", 100, 0.05, 6): "FittedModel(beta=(-5.782770003203808, -1.4601325860146996, -2.240006252278593, -1.4245025466245596, -1.7749241775908282), converged=True, iterations=9, loglik=-11.415443926359016)",
    ("B", 150, 0.1, 7): "FittedModel(beta=(-2.983172899939029, -1.1916994209419831, -0.9465652337483269, -1.3127603727799235, -1.8923970641368304), converged=True, iterations=8, loglik=-30.568941072936923)",
    ("B", 200, 0.01, 8): "FittedModel(beta=(-130.60434006320185, -27.594724406870228, 20.399876484192735, -32.5748933813425, -17.541804440023398), converged=True, iterations=26, loglik=-2.0618330303616858e-08)",
    ("B", 250, 0.05, 9): "FittedModel(beta=(-4.154601298099074, -1.108981109193073, -1.3669926069116785, -1.0031783685696651, -1.6024355616117996), converged=True, iterations=9, loglik=-28.19262614151603)",
    ("C", 50, 0.01, 10): "FittedModel(beta=(-347.35939127760065, -36.06574861764049, -45.38334945449401, 74.0466918924458, -227.1438354213693), converged=True, iterations=25, loglik=-1.5113088530592525e-08)",
    ("C", 100, 0.05, 11): "FittedModel(beta=(-6.174012572518297, -1.2349282942872417, -2.9564208472364566, -0.3830057256061911, -2.113048370517673), converged=True, iterations=10, loglik=-9.878717081717197)",
    ("C", 150, 0.1, 12): "FittedModel(beta=(-3.9096861460946624, -1.2463614171628135, -0.7333086407341226, -1.3541291526624533, -3.2143945991489398), converged=True, iterations=10, loglik=-17.794158935808625)",
    ("C", 200, 0.01, 13): "FittedModel(beta=(-69.9421439983068, -18.2730255756534, -2.378219190974227, -17.935760089938803, -2.5803834970509194), converged=True, iterations=27, loglik=-3.1184542385664553)",
    ("C", 250, 0.05, 14): "FittedModel(beta=(-5.348058144087577, -1.1579563380353863, -1.5019562561950899, -1.0703993982317312, -3.1689971861484416), converged=True, iterations=11, loglik=-10.647229070631107)",
    ("D", 50, 0.01, 15): "FittedModel(beta=(-34.57010885419625, -1.0262867195848637, -2.8331164602463392, -5.5391618022775075, -4.6638003344350345), converged=True, iterations=23, loglik=-9.736263143202427e-09)",
    ("D", 100, 0.05, 16): "FittedModel(beta=(-53.831335273694805, -2.1583284497322928, -9.429602888711424, -15.279309548779619, -16.241012258663112), converged=True, iterations=25, loglik=-1.3057185125016716e-08)",
    ("D", 150, 0.1, 17): "FittedModel(beta=(-27.43289873777288, -11.08633745153031, -9.855826581201104, -3.924180824409026, -11.635836373689415), converged=True, iterations=26, loglik=-6.960815497791403e-09)",
    ("D", 200, 0.01, 18): "FittedModel(beta=(-76.65299758357759, -6.121756588769512, -10.51615835834136, -19.394201579193485, -12.575943994892084), converged=True, iterations=25, loglik=-2.3039297956973755e-08)",
    ("D", 250, 0.05, 19): "FittedModel(beta=(-40.38181175001962, -11.744202042777774, -13.049761963574547, -13.623462395371781, -21.899699633418034), converged=True, iterations=25, loglik=-3.9403952569188556e-08)",
}


class TestGoldenFits:
    def test_one_event_separated_design(self):
        x = np.concatenate([[2.0], np.linspace(-1.0, 1.0, 29)])
        y = np.zeros(30)
        y[0] = 1
        assert repr(ws.fit_logistic(x[:, None], y)) == (
            "FittedModel(beta=(-56.338274727743084, 37.81265259432321), converged=True, "
            "iterations=23, loglik=-1.3858912976096139e-08)"
        )

    def test_constant_column_takes_lstsq_fallback(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def spy(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", spy)
        gen = np.random.default_rng(3)
        # the constant column duplicates the intercept: every Hessian is singular
        F = np.column_stack([np.ones(40), gen.normal(size=40)])
        y = (gen.random(40) < 0.3).astype(float)
        model = ws.fit_logistic(F, y)
        assert len(calls) == model.iterations
        assert repr(model) == (
            "FittedModel(beta=(-0.3742198090661224, -0.37421980906612246, "
            "-0.19982439311031502), converged=True, iterations=4, loglik=-24.99453209511013)"
        )

    def test_weighted_compressed_design(self):
        F, y, w = small_n_design("B", 1000, 0.05, 0)
        assert len(y) < 1000
        assert repr(ws.fit_logistic(F, y, w)) == (
            "FittedModel(beta=(-3.214867124768384, -1.0323090406827005, -1.0235970554027707, "
            "-1.064665251985866, -1.2309603011355084), converged=True, iterations=9, "
            "loglik=-148.54487126231427)"
        )

    @pytest.mark.parametrize("design", sorted(SMALL_N_FITS))
    def test_small_n_slice_designs(self, design):
        F, y, w = small_n_design(*design)
        assert repr(ws.fit_logistic(F, y, w)) == SMALL_N_FITS[design]
