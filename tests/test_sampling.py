"""Stream derivation, sampling plans, and exact-count sample generation."""

import pickle

import numpy as np
import pytest

import woesim as ws
from woesim import sampling
from woesim.rng import ROLE_TAGS, splitmix64, substream_seed


class TestStreams:
    def test_splitmix_is_deterministic_and_avalanches(self):
        assert splitmix64(0) == splitmix64(0)
        assert splitmix64(0) != splitmix64(1)
        # one-bit input flips should change many output bits
        diff = splitmix64(12345) ^ splitmix64(12345 ^ 1)
        assert bin(diff).count("1") > 16

    def test_substream_seeds_distinct_across_roles_and_iterations(self):
        seeds = {
            substream_seed(99, it, role)
            for it in range(200)
            for role in ROLE_TAGS
        }
        assert len(seeds) == 200 * len(ROLE_TAGS)

    def test_identical_inputs_identical_streams(self):
        a = ws.RngStream(7, 3, "train").generator().random(16)
        b = ws.RngStream(7, 3, "train").generator().random(16)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7"])
    def test_master_seed_outside_u64_rejected(self, seed):
        with pytest.raises(ValueError, match="master seed"):
            ws.RngStream(seed, 0, "synth")

    @pytest.mark.parametrize(
        ("iteration", "message"),
        [(1.5, "iteration must be an integer"), ("3", "iteration must be an integer"),
         (-1, "iteration must be a nonnegative integer")],
    )
    def test_bad_iteration_rejected(self, iteration, message):
        with pytest.raises(ValueError, match=message):
            ws.RngStream(1, iteration, "train")

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            ws.RngStream(1, 0, "bootstrap")
        with pytest.raises(ValueError):
            substream_seed(1, 0, "bootstrap")


class TestMakePlan:
    def test_floor_arithmetic(self):
        assert ws.make_plan(100, ws.EventRate(0.05)).n1 == 5
        assert ws.make_plan(2500, ws.EventRate(0.01)).n1 == 25

    def test_floor_robust_to_float_representation(self):
        # 0.29 * 100 evaluates to 28.999999999999996 in doubles
        assert ws.make_plan(100, ws.EventRate(0.29)).n1 == 29

    def test_zero_floor_with_clamp_records_flag(self):
        plan = ws.make_plan(50, ws.EventRate(0.01))
        assert plan.n1 == 1
        assert plan.clamped
        assert plan.pi1 == 0.01

    def test_unclamped_plans_are_not_flagged(self):
        assert not ws.make_plan(100, ws.EventRate(0.05)).clamped

    def test_degenerate_plans_refused(self):
        for n in (1, 0, -3):
            with pytest.raises(ws.DegeneratePlan, match=f"need n >= 2, got n={n}"):
                ws.make_plan(n, ws.EventRate(0.5))
        with pytest.raises(ws.DegeneratePlan):
            ws.SamplingPlan(n=10, n1=10, pi1=0.5)
        with pytest.raises(ws.DegeneratePlan):
            ws.SamplingPlan(n=10, n1=0, pi1=0.01)

    @pytest.mark.parametrize("pi1", [float("nan"), 7.0, 0.0])
    def test_rate_outside_unit_interval_refused(self, pi1):
        # every record of the plan would carry it as its event_rate
        with pytest.raises(ws.ConfigError, match=r"^event rate must lie in \(0, 1\), got "):
            ws.SamplingPlan(n=100, n1=5, pi1=pi1)

    def test_rate_stored_as_float(self):
        plan = ws.SamplingPlan(n=100, n1=5, pi1=np.float32(0.5))
        assert type(plan.pi1) is float and plan.pi1 == 0.5

    @pytest.mark.parametrize("field, make", [
        ("n1", lambda: ws.SamplingPlan(n=100, n1=5.5, pi1=0.05)),
        ("n", lambda: ws.SamplingPlan(n=200.0, n1=5, pi1=0.05)),
        ("n", lambda: ws.make_plan(60.5, ws.EventRate(0.05))),
        (None, lambda: ws.SamplingPlan(n=np.int64(100), n1=np.int32(5), pi1=0.05)),
    ], ids=["float n1", "float n", "make_plan float n", "numpy ints"])
    def test_non_integer_counts_refused(self, field, make):
        # used to be accepted, and the draw then raised a bare TypeError
        if field is not None:
            with pytest.raises(ws.SpecError, match=f"^{field} must be an integer"):
                make()
            return
        plan = make()
        assert (plan.n, plan.n1) == (100, 5) and type(plan.n) is type(plan.n1) is int
        assert ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(1, 0, "train")).n == 100


def one_predictor(p_event, p_nonevent=None):
    pred = ws.PredictorSpec("X1", p_event, p_event if p_nonevent is None else p_nonevent)
    return ws.ConfigSpec(id="one", predictors=(pred,))


class TestInvertCdf:
    """The guide table of a config's predictors, which ``generate_sample``
    inverts its draw with, maps each variate in [0, 1) to a 1-based bin through the class's
    cumulative bin probabilities."""

    def test_right_open_boundary_convention(self):
        u = np.array([[0.4999, 0.5001, 0.5, 0.0, 0.7]])
        X = sampling.guide_table(one_predictor((0.5, 0.5)).predictors).lookup(u, 4).T
        # the bins partition [0, 1) into right-open intervals, so a variate
        # on an interior boundary falls in the bin to its right
        assert X[:4, 0].tolist() == [1, 2, 2, 1]

    def test_vectorized(self):
        # one event variate, then five nonevent variates inverted together
        u = np.array([[0.9, 0.0, 0.25, 0.499, 0.5, 0.999]])
        config = one_predictor((0.2, 0.3, 0.5), (0.25, 0.25, 0.5))
        assert sampling.guide_table(config.predictors).lookup(u, 1).T[:, 0].tolist() == [3, 1, 2, 2, 3, 3]


class TestGuideTable:
    def test_table_is_compact_and_stays_out_of_pickles(self):
        config = one_predictor((0.5, 0.25, 0.25), (0.1, 0.2, 0.7))
        before = pickle.dumps(config)
        plan = ws.make_plan(10, ws.EventRate(0.3))
        for draw in (ws.generate_sample, ws.generate_cells):
            draw(config, plan, ws.RngStream(1, 0, "train"))
        table = sampling.guide_table(config.predictors)
        assert table.bins.dtype == np.uint8 and table.bins.size == 2 * 4096
        assert pickle.dumps(config) == before
        # a process pool's copy of the config finds the same table again
        assert sampling.guide_table(pickle.loads(before).predictors) is table

    def test_two_edges_in_one_bucket_resolve_like_searchsorted(self):
        # both interior edges, 0.3 and 0.30002, cut bucket 1228 of 4096
        p = (0.3, 2e-5, 0.7 - 2e-5)
        cdf = sampling.bin_cdf(p)
        edges = cdf[:2]
        assert (edges * 4096).astype(int).tolist() == [1228, 1228]
        u = np.concatenate([
            edges, np.nextafter(edges, 0), [1228 / 4096, np.nextafter(1.0, 0.0)]
        ])
        expected = np.searchsorted(cdf, u, side="right") + 1
        assert expected.tolist() == [2, 3, 1, 2, 1, 3]
        table = sampling.guide_table(one_predictor(p).predictors)
        # the same variates through the event row, then the nonevent row
        bins = table.lookup(np.concatenate([u, u])[None, :], u.size)[0]
        assert bins.tolist() == expected.tolist() * 2


class TestDrawCategorical:
    """Draw frequencies of ``generate_sample`` over a million event rows."""

    @staticmethod
    def event_draws(dist, stream, size=10**6):
        plan = ws.SamplingPlan(n=size + 1, n1=size, pi1=size / (size + 1))
        return ws.generate_sample(one_predictor(dist), plan, stream).X[:size, 0]

    def test_near_point_mass(self):
        dist = (1e-6, 1.0 - 2e-6, 1e-6)
        draws = self.event_draws(dist, ws.RngStream(5, 0, "synth"))
        assert np.mean(draws == 2) >= 0.999996

    def test_empirical_frequencies_config_b_x4(self):
        dist = ws.CONFIG_B.predictors[3].p_event  # (0.32, 0.60, 0.06, 0.02)
        draws = self.event_draws(dist, ws.RngStream(1234, 0, "synth"))
        freqs = np.bincount(draws - 1, minlength=4) / 1e6
        assert np.max(np.abs(freqs - np.asarray(dist))) <= 0.002


class TestSample:
    @pytest.mark.parametrize("label", [2, np.nan])
    def test_labels_outside_0_1_rejected(self, label):
        # a 2 would count as an event in n_event but a nonevent in the bin counts
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            ws.Sample(X=np.ones((4, 1), dtype=np.int64), Y=np.array([label, 0, 0, 1]), bin_counts=(1,))

    def test_bool_labels_become_int64(self):
        sample = ws.Sample(X=np.ones((3, 1), dtype=np.int64), Y=np.array([True, False, True]), bin_counts=(1,))
        assert sample.Y.dtype == np.int64 and sample.Y.tolist() == [1, 0, 1]

    def test_weights_default_to_one_int64_per_row(self):
        sample = ws.Sample(X=[[1], [2], [1]], Y=[1, 0, 0], bin_counts=(2,))
        assert sample.w.dtype == np.int64 and sample.w.tolist() == [1, 1, 1]
        assert not sample.w.flags.writeable

    @pytest.mark.parametrize(
        "X",
        [np.array([[1.7], [2.2], [1.0]]), np.array([[1.0], [np.nan], [2.0]]), np.array([[True]] * 3)],
        ids=["fractional", "nan", "bool"],
    )
    def test_non_integer_bins_refused(self, X):
        # these used to be cast to bins 1, 2, 1 / -2**63 / 1 without an error
        with pytest.raises(ValueError, match="bin indices must be integers"):
            ws.Sample(X=X, Y=np.array([1, 0, 0]), bin_counts=(2,))

    def test_equality_is_identity(self):
        # value equality would compare the arrays as one tuple and raise
        a = ws.Sample(X=[[1], [2]], Y=[1, 0], bin_counts=(2,))
        b = ws.Sample(X=[[1], [2]], Y=[1, 0], bin_counts=(2,))
        assert a == a and a != b
        assert a in {a} and b not in {a} and len({a, b}) == 2

    def test_out_of_range_bin_names_predictor(self):
        for bad in (0, -1, 4):
            X = np.array([[1, 2], [2, bad], [1, 1]])
            with pytest.raises(IndexError, match=r"predictor 2: bin index outside 1\.\.3"):
                ws.Sample(X=X, Y=np.array([1, 0, 0]), bin_counts=(2, 3))

    @pytest.mark.parametrize("bin_counts", [(2.5,), ("2",)], ids=["float", "str"])
    def test_non_integer_bin_counts_refused_naming_the_field(self, bin_counts):
        # a float used to raise a bare TypeError that named no field
        with pytest.raises(ValueError, match="bin_counts must be an integer"):
            ws.Sample(X=[[1], [2]], Y=[1, 0], bin_counts=bin_counts)

    @pytest.mark.parametrize(
        ("X", "Y"),
        [(np.ones((3, 1), dtype=np.int64), [1, 0]), (np.ones(3, dtype=np.int64), [1, 0, 0]),
         (np.ones((3, 1), dtype=np.int64), [[1, 0, 0]])],
        ids=["rows", "1-D X", "2-D Y"],
    )
    def test_shape_mismatch_refused(self, X, Y):
        with pytest.raises(ValueError, match=r"X must be \(n, d\) and Y length n"):
            ws.Sample(X=X, Y=Y, bin_counts=(1,))

    def test_bin_counts_of_another_length_refused(self):
        with pytest.raises(ValueError, match="2 predictors but 3 bin counts"):
            ws.Sample(X=np.ones((3, 2), dtype=np.int64), Y=np.array([1, 0, 0]), bin_counts=(2, 2, 2))

    @pytest.mark.parametrize(
        "w",
        [np.array([1, 2]), np.array([[1, 2, 1]]), np.array([1, -1, 2]), np.array([1.0, 2.0, 1.0]),
         np.array([True, False, True])],
        ids=["wrong length", "2-D", "negative", "fractional", "bool"],
    )
    def test_bad_weights_refused(self, w):
        with pytest.raises(ValueError, match="weights"):
            ws.Sample(X=np.ones((3, 1), dtype=np.int64), Y=np.array([1, 0, 0]), bin_counts=(1,), w=w)


class TestGenerateSample:
    def test_response_layout(self):
        plan = ws.SamplingPlan(n=10, n1=3, pi1=0.3)
        sample = ws.generate_sample(ws.CONFIG_A, plan, ws.RngStream(1, 0, "train"))
        assert sample.Y.tolist() == [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        assert sample.n == 10 and sample.d == 4

    def test_event_count_always_exact(self):
        for seed in range(5):
            plan = ws.make_plan(137, ws.EventRate(0.07))
            sample = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(seed, 0, "train"))
            assert int(sample.Y.sum()) == plan.n1

    def test_bin_indices_in_range(self):
        plan = ws.make_plan(500, ws.EventRate(0.1))
        sample = ws.generate_sample(ws.CONFIG_C, plan, ws.RngStream(3, 0, "train"))
        for j, k in enumerate(ws.CONFIG_C.bin_counts):
            assert sample.X[:, j].min() >= 1
            assert sample.X[:, j].max() <= k

    def test_reproducible_bit_identical(self):
        plan = ws.make_plan(200, ws.EventRate(0.05))
        a = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(42, 9, "train"))
        b = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(42, 9, "train"))
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_role_streams_disjoint_and_order_free(self):
        plan = ws.make_plan(200, ws.EventRate(0.05))
        train1 = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(42, 0, "train"))
        val1 = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(42, 0, "val"))
        # reversed generation order must not change anything
        val2 = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(42, 0, "val"))
        train2 = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(42, 0, "train"))
        assert np.array_equal(train1.X, train2.X)
        assert np.array_equal(val1.X, val2.X)
        assert not np.array_equal(train1.X, val1.X)

    def test_near_degenerate_config_gives_constant_profiles(self):
        eps = 1e-6
        pred = ws.PredictorSpec(
            name="X1",
            p_event=(1.0 - eps, eps),
            p_nonevent=(eps, 1.0 - eps),
        )
        cfg = ws.ConfigSpec(id="point", predictors=(pred,))
        plan = ws.SamplingPlan(n=1000, n1=200, pi1=0.2)
        sample = ws.generate_sample(cfg, plan, ws.RngStream(8, 0, "train"))
        assert np.all(sample.X[:200, 0] == 1)
        assert np.all(sample.X[200:, 0] == 2)

    def test_empirical_conditionals_match_config_a(self):
        plan = ws.SamplingPlan(n=200000, n1=20000, pi1=0.1)
        sample = ws.generate_sample(ws.CONFIG_A, plan, ws.RngStream(777, 0, "train"))
        for j, pred in enumerate(ws.CONFIG_A.predictors):
            fe = np.bincount(sample.X[:20000, j] - 1, minlength=pred.n_bins) / 20000
            fn = np.bincount(sample.X[20000:, j] - 1, minlength=pred.n_bins) / 180000
            assert np.max(np.abs(fe - np.asarray(pred.p_event))) <= 0.01
            assert np.max(np.abs(fn - np.asarray(pred.p_nonevent))) <= 0.01

    def test_sample_arrays_immutable(self):
        plan = ws.SamplingPlan(n=10, n1=2, pi1=0.2)
        sample = ws.generate_sample(ws.CONFIG_A, plan, ws.RngStream(1, 0, "train"))
        with pytest.raises(ValueError):
            sample.X[0, 0] = 2


class TestGenerateCells:
    def test_needs_a_row_per_cell(self):
        # config B has K = 192 joint cells; a smaller split is its rows
        plan = ws.make_plan(191, ws.EventRate(0.1))
        with pytest.raises(ValueError, match="n >= K = 192"):
            ws.generate_cells(ws.CONFIG_B, plan, ws.RngStream(1, 0, "train"))

    def test_no_cell_table_below_one_row_per_cell(self):
        # the (K, d) cell table is built only once a split has a row per
        # cell, never for a large space such as a d=6 config's
        sampling.guide_table.cache_clear()
        ws.run_iteration(ws.CONFIG_B, ws.make_plan(150, ws.EventRate(0.1)), 1, 0)
        table = sampling.guide_table(ws.CONFIG_B.predictors)
        assert "cells" not in vars(table)
        ws.generate_cells(ws.CONFIG_B, ws.make_plan(192, ws.EventRate(0.1)), ws.RngStream(1, 0, "train"))
        assert table.cells.shape == (192, 4) and "cells" in vars(table)
