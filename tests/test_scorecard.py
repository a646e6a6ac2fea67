"""WoE estimation, the WoE transform, and the logistic MLE."""

import itertools
import math

import numpy as np
import pytest

import woesim as ws
from woesim.scorecard import _clamped_probs, _loglik


def build_sample(bins_by_row, labels, bin_counts, w=None):
    X = np.asarray(bins_by_row, dtype=np.int64)
    if X.ndim == 1:
        X = X[:, None]
    return ws.Sample(X=X, Y=np.asarray(labels, dtype=np.int64), bin_counts=bin_counts, w=w)


#: Each weighted entry point called on three rows, with the weights to check.
WEIGHTED_ENTRY_POINTS = {
    "estimate_woe": lambda w: ws.estimate_woe(build_sample([1, 2, 1], [1, 0, 0], (2,), w)),
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


#: The default adjustment and a small one, under which each count weighs more.
THETAS = (0.5, 1e-3)


def assert_entries_count_the_sample(sample, theta_adj):
    """Every entry of the sample's table is ``adjusted_woe`` of the weighted
    class counts of its bin and of the sample, counted here with masks; each
    predictor's bin counts add up to the class totals."""
    table = ws.estimate_woe(sample, theta_adj)
    w, events = sample.w, sample.Y == 1
    n1 = int(w[events].sum())
    n0 = int(w[~events].sum())
    assert [len(row) for row in table.woe] == list(sample.bin_counts)
    for j, row in enumerate(table.woe):
        margins = [0, 0]
        for k, value in enumerate(row):
            hits = sample.X[:, j] == k + 1
            c1 = int(w[hits & events].sum())
            c0 = int(w[hits & ~events].sum())
            assert value == ws.adjusted_woe(c0, c1, n0, n1, theta_adj), (j, k)
            margins[0] += c0
            margins[1] += c1
        assert margins == [n0, n1], j


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
        sample = build_sample([1, 1, 2, 2, 2, 1, 1, 1, 1, 1], [1, 1, 0, 0, 0, 0, 0, 0, 0, 0], (3,))
        for theta_adj in THETAS:
            assert_entries_count_the_sample(sample, theta_adj)
        table = ws.estimate_woe(sample, theta_adj=0.5)
        # bin 1 holds 2 events and 5 nonevents, bin 2 three nonevents, bin 3 nothing
        counts = [(5, 2), (3, 0), (0, 0)]
        assert table.woe[0] == tuple(ws.adjusted_woe(c0, c1, 8, 2, 0.5) for c0, c1 in counts)
        # bin 3 was never observed but still has a finite estimate
        assert math.isfinite(table.woe[0][2])
        assert table.woe[0][2] == pytest.approx(ws.adjusted_woe(0, 0, 8, 2, 0.5), abs=1e-12)

    def test_count_marginals_match_totals(self):
        plan = ws.make_plan(500, ws.EventRate(0.1))
        rows = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(2, 0, "train"))
        # the same draw as weighted joint cells counts each row with its weight
        cells = ws.generate_cells(ws.CONFIG_B, plan, ws.RngStream(2, 0, "train"))
        for sample, theta_adj in itertools.product((rows, cells), THETAS):
            assert_entries_count_the_sample(sample, theta_adj)

    def test_single_class_rejected(self):
        with pytest.raises(ws.DegenerateDesign, match="training sample contains no events"):
            ws.estimate_woe(build_sample([1, 2, 1], [0, 0, 0], (2,)))
        with pytest.raises(ws.DegenerateDesign, match="training sample contains no nonevents"):
            ws.estimate_woe(build_sample([1, 2, 1], [1, 1, 1], (2,)))

    @pytest.mark.parametrize("theta_adj", [math.nan, math.inf, -1.0])
    def test_bad_theta_adj_rejected(self, theta_adj):
        # inf used to give NaN estimates and nan a table of NaN
        sample = build_sample([1, 2, 1, 2], [1, 0, 0, 1], (2,))
        with pytest.raises(ValueError, match="theta_adj must be finite and nonnegative"):
            ws.estimate_woe(sample, theta_adj)

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

    def test_antisymmetric_under_class_swap(self):
        plan = ws.make_plan(300, ws.EventRate(0.2))
        sample = ws.generate_sample(ws.CONFIG_A, plan, ws.RngStream(4, 0, "train"))
        swapped = ws.Sample(X=sample.X.copy(), Y=1 - sample.Y, bin_counts=sample.bin_counts)
        t1 = ws.estimate_woe(sample, 0.5)
        t2 = ws.estimate_woe(swapped, 0.5)
        for j in range(sample.d):
            for k in range(len(t1.woe[j])):
                assert t2.woe[j][k] == -t1.woe[j][k]  # exact negation

    def test_permutation_invariant(self):
        plan = ws.make_plan(200, ws.EventRate(0.1))
        sample = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(6, 0, "train"))
        perm = np.random.default_rng(0).permutation(sample.n)
        shuffled = ws.Sample(X=sample.X[perm], Y=sample.Y[perm], bin_counts=sample.bin_counts)
        assert ws.estimate_woe(sample) == ws.estimate_woe(shuffled)

    def test_consistency_against_population_woe(self):
        # balanced classes maximize per-bin counts; pinned stream
        plan = ws.SamplingPlan(n=200000, n1=100000, pi1=0.5)
        sample = ws.generate_sample(ws.CONFIG_A, plan, ws.RngStream(1, 0, "train"))
        table = ws.estimate_woe(sample, 0.5)
        for j, pred in enumerate(ws.CONFIG_A.predictors):
            for k in range(pred.n_bins):
                if pred.p_event[k] >= 0.05 and pred.p_nonevent[k] >= 0.05:
                    assert table.woe[j][k] == pytest.approx(
                        pred.woe()[k], abs=0.02
                    )


class TestTransform:
    def test_lookup(self):
        table = ws.WoeTable(woe=((0.2, -0.1),))
        out = ws.transform(build_sample([1, 2, 1], [1, 0, 0], (2,)), table)
        assert out.tolist() == [[0.2], [-0.1], [0.2]]
        # a later predictor reads its own row
        two = ws.WoeTable(woe=((0.2, -0.1), (0.5, 0.4, 0.3)))
        out = ws.transform(build_sample([[1, 3], [2, 1]], [1, 0], (2, 3)), two)
        assert out.tolist() == [[0.2, 0.3], [-0.1, 0.5]]

    def test_zero_table_gives_zero_matrix(self):
        table = ws.WoeTable(woe=((0.0, 0.0), (0.0, 0.0, 0.0)))
        sample = build_sample([[1, 3], [2, 1]], [1, 0], (2, 3))
        assert np.all(ws.transform(sample, table) == 0.0)

    def test_unknown_bin_rejected(self):
        table = ws.WoeTable(woe=((0.2, -0.1),))
        # a bin the table does not know can only come from a larger bin space
        with pytest.raises(ValueError, match=r"bin counts \(3,\), table has \(2,\)"):
            ws.transform(build_sample([1, 3], [1, 0], (3,)), table)
        two = ws.WoeTable(woe=((0.2, -0.1), (0.5, 0.4)))
        with pytest.raises(ValueError, match=r"bin counts \(2, 3\), table has \(2, 2\)"):
            ws.transform(build_sample([[1, 2], [2, 3]], [1, 0], (2, 3)), two)

    def test_table_of_another_bin_space_refused(self):
        # bins that fit both spaces used to be scored with the wrong predictor's bins
        X = [[1, 1], [2, 2], [3, 3], [1, 2]]
        table = ws.estimate_woe(build_sample(X, [1, 0, 0, 1], (4, 3)))
        with pytest.raises(ValueError, match=r"bin counts \(3, 4\), table has \(4, 3\)"):
            ws.transform(build_sample(X, [1, 0, 0, 1], (3, 4)), table)

    def test_recomputing_counts_reproduces_table(self):
        plan = ws.make_plan(400, ws.EventRate(0.1))
        train = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(9, 0, "train"))
        table = ws.estimate_woe(train)
        feats = ws.transform(train, table)
        # every transformed cell equals its bin's table entry, and every
        # entry is the formula on the rows counted per bin
        for j in range(train.d):
            woe_row = np.asarray(table.woe[j])
            assert np.array_equal(feats[:, j], woe_row[train.X[:, j] - 1])
        for theta_adj in THETAS:
            assert_entries_count_the_sample(train, theta_adj)
        assert ws.estimate_woe(train) == table


class TestFitLogistic:
    def test_intercept_only(self):
        F = np.zeros((100, 2))
        y = np.zeros(100)
        y[:20] = 1
        model = ws.fit_logistic(F, y)
        assert model.converged
        assert model.beta[0] == pytest.approx(math.log(0.2 / 0.8), abs=1e-8)
        assert model.beta[1] == 0.0 and model.beta[2] == 0.0

    def test_saturated_woe_model_starts_at_its_mle(self):
        # one predictor, no adjustment and both classes in every bin: the WoE
        # model is saturated (each bin's fitted rate is its observed rate), so
        # its MLE is the Bayes point (log(n1 / n0), -1) the fit starts at
        sample = build_sample([1, 1, 2, 2, 3, 3], [1, 0, 1, 0, 1, 0], (3,), w=[2, 10, 5, 5, 8, 3])
        F = ws.transform(sample, ws.estimate_woe(sample, theta_adj=0.0))
        model = ws.fit_logistic(F, sample.Y, sample.w)
        assert model.beta == (math.log(15 / 18), -1.0)
        assert model.converged and model.iterations == 1

    def test_start_less_likely_than_zero_gives_way_to_zero(self):
        # features far from WoE coding put the Bayes point (log(5/7), -1, -1)
        # at loglik -40.1, below beta = 0's -8.3; Newton from there stalled on
        # the clamp's plateau at beta ~ 1e12 and loglik -35.3, reported converged
        F = np.repeat([[-2.0, -3.0], [3.0, 3.0], [2.0, 1.0], [3.0, 2.0]], 2, axis=0)
        y = np.tile([1.0, 0.0], 4)
        model = ws.fit_logistic(F, y, [1, 4, 2, 1, 1, 1, 1, 1])
        assert model.converged
        assert model.loglik == pytest.approx(-7.195675196256914, abs=1e-9)

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

    @pytest.mark.parametrize(
        ("features", "responses", "message"),
        [(np.zeros(4), np.array([1, 0, 1, 0]), "features must be 2-dimensional"),
         (np.zeros((4, 1)), np.array([1, 0, 1]), "responses length must match feature rows"),
         (np.zeros((4, 1)), np.array([[1, 0, 1, 0]]), "responses length must match feature rows")],
        ids=["1-D features", "short responses", "2-D responses"],
    )
    def test_misshapen_inputs_rejected(self, features, responses, message):
        with pytest.raises(ValueError, match=message):
            ws.fit_logistic(features, responses)

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
            p = _clamped_probs(design @ beta)
            return _loglik(y, 1.0 - y, p, np.empty_like(p), np.empty_like(p))

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
    training sample, drawn into weighted cells when it has at least as
    many rows as joint cells, its responses and its weights."""
    config = ws.BUILTIN_CONFIGS[config_id]
    plan = ws.make_plan(n, ws.EventRate(rate))
    draw = ws.generate_cells if n >= math.prod(config.bin_counts) else ws.generate_sample
    train = draw(config, plan, ws.RngStream(20260101, iteration, "train"))
    return ws.transform(train, ws.estimate_woe(train)), train.Y, train.w


# exact reprs of the fits, so a reordered reduction or a changed step shows
# as a changed last digit
SMALL_N_FITS = {
    ("A", 50, 0.01, 0): "FittedModel(beta=(-108.55784443534256, -31.39136217525826, -3.585505853175914, -17.074922185674414, -12.789632899901914), converged=True, iterations=24, loglik=-1.0182876728341079e-08)",
    ("A", 100, 0.05, 1): "FittedModel(beta=(-5.285637275262656, -2.135915512742252, -1.70179011967471, -1.5013717460173392, -2.056018585460319), converged=True, iterations=6, loglik=-15.102847590557529)",
    ("A", 150, 0.1, 2): "FittedModel(beta=(-3.0420361565804317, -1.2691101310581765, -1.1606002144800953, -3.279800535913632, -1.355807389477052), converged=True, iterations=6, loglik=-42.97017637180927)",
    ("A", 200, 0.01, 3): "FittedModel(beta=(-697.0467468156669, -21.97357346594212, -55.18998431486015, -361.8542433758025, -152.35632897738807), converged=True, iterations=27, loglik=-1.3862943738042317)",
    ("A", 250, 0.05, 4): "FittedModel(beta=(-3.7364717213252785, -1.6312214752422254, -1.2654643632571705, -1.1181245604171057, -1.0202490956565502), converged=True, iterations=5, loglik=-35.23666788607657)",
    ("B", 50, 0.01, 5): "FittedModel(beta=(-28.485179722206958, -1.0560862886494171, -9.133761018930858, 0.40625075897402285, -1.107671968859689), converged=True, iterations=22, loglik=-7.311136576147664e-09)",
    ("B", 100, 0.05, 6): "FittedModel(beta=(-5.7827699837512645, -1.4601325804424767, -2.2400062372178953, -1.4245025440780208, -1.7749241734790022), converged=True, iterations=7, loglik=-11.415443926359018)",
    ("B", 150, 0.1, 7): "FittedModel(beta=(-2.9831728999413403, -1.1916994209419278, -0.9465652337486593, -1.3127603727798947, -1.8923970641408707), converged=True, iterations=6, loglik=-30.568941072936923)",
    ("B", 200, 0.01, 8): "FittedModel(beta=(-128.6296860035089, -27.007685884012204, 19.356466701533346, -31.909619018881894, -17.27608580071348), converged=True, iterations=23, loglik=-2.9212177232932016e-08)",
    ("B", 250, 0.05, 9): "FittedModel(beta=(-4.15460129151643, -1.1089811088560078, -1.3669926051757562, -1.0031783688622404, -1.602435556319272), converged=True, iterations=6, loglik=-28.19262614151603)",
    ("C", 50, 0.01, 10): "FittedModel(beta=(-345.6780748583415, -35.89604615811443, -45.194144974679055, 74.17647987574102, -226.40829647170253), converged=True, iterations=24, loglik=-1.649158867794101e-08)",
    ("C", 100, 0.05, 11): "FittedModel(beta=(-6.174012572515043, -1.2349282942869817, -2.9564208472342557, -0.38300572560636265, -2.1130483705157523), converged=True, iterations=7, loglik=-9.878717081717193)",
    ("C", 150, 0.1, 12): "FittedModel(beta=(-3.909686145775162, -1.2463614170898076, -0.7333086407323092, -1.354129152541409, -3.214394598699996), converged=True, iterations=7, loglik=-17.794158935808625)",
    ("C", 200, 0.01, 13): "FittedModel(beta=(-69.41953722556194, -18.04795447727905, -2.378219190972299, -17.89971560919218, -2.580383497049479), converged=True, iterations=24, loglik=-3.118454239153447)",
    ("C", 250, 0.05, 14): "FittedModel(beta=(-5.348058144088805, -1.1579563380354267, -1.501956256195285, -1.0703993982319469, -3.1689971861498694), converged=True, iterations=7, loglik=-10.647229070631107)",
    ("D", 50, 0.01, 15): "FittedModel(beta=(-35.76403548680519, -2.147759525606662, -3.8590655676814083, -4.852097262167814, -4.373005613691609), converged=True, iterations=21, loglik=-9.936000932237554e-09)",
    ("D", 100, 0.05, 16): "FittedModel(beta=(-52.7409233990707, -2.165701160097324, -9.447204980850252, -17.534793652484037, -16.325784725173744), converged=True, iterations=22, loglik=-1.275221664779564e-08)",
    ("D", 150, 0.1, 17): "FittedModel(beta=(-26.849386056000014, -11.402956060866053, -10.139460717077498, -5.069197368694819, -11.922898158842102), converged=True, iterations=21, loglik=-6.047629129669433e-09)",
    ("D", 200, 0.01, 18): "FittedModel(beta=(-78.91932263060986, -6.391583314901353, -10.825423555086873, -20.55713939556398, -12.938123792726566), converged=True, iterations=22, loglik=-1.385735834064136e-08)",
    ("D", 250, 0.05, 19): "FittedModel(beta=(-42.16807729975337, -12.341749769704503, -13.604967762859214, -14.05938843002046, -22.677583015947995), converged=True, iterations=21, loglik=-1.8703339260020385e-08)",
}


class TestGoldenFits:
    def test_one_event_separated_design(self):
        x = np.concatenate([[2.0], np.linspace(-1.0, 1.0, 29)])
        y = np.zeros(30)
        y[0] = 1
        assert repr(ws.fit_logistic(x[:, None], y)) == (
            "FittedModel(beta=(-55.0085486294851, 36.95331757317684), converged=True, "
            "iterations=22, loglik=-2.1725774379042542e-08)"
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
            "FittedModel(beta=(-3.214867125504757, -1.0323090408340705, -1.0235970553760956, "
            "-1.0646652522035398, -1.2309603019212525), converged=True, iterations=5, "
            "loglik=-148.54487126231427)"
        )

    @pytest.mark.parametrize("design", sorted(SMALL_N_FITS))
    def test_small_n_slice_designs(self, design):
        F, y, w = small_n_design(*design)
        assert repr(ws.fit_logistic(F, y, w)) == SMALL_N_FITS[design]
