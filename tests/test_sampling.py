"""Stream derivation, sampling plans, and exact-count sample generation."""

import pickle

import numpy as np
import pytest

import woesim as ws
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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_outside_u64_rejected(self, seed):
        with pytest.raises(ValueError, match="master seed"):
            ws.RngStream(seed, 0, "synth")

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

    def test_zero_floor_without_clamp_refused(self):
        with pytest.raises(ws.InsufficientEvents):
            ws.make_plan(50, ws.EventRate(0.01), clamp=False)

    def test_zero_floor_with_clamp_records_flag(self):
        plan = ws.make_plan(50, ws.EventRate(0.01), clamp=True)
        assert plan.n1 == 1
        assert plan.clamped
        assert plan.pi1 == 0.01

    def test_unclamped_plans_are_not_flagged(self):
        assert not ws.make_plan(100, ws.EventRate(0.05)).clamped

    def test_degenerate_plans_refused(self):
        with pytest.raises(ws.DegeneratePlan):
            ws.make_plan(1, ws.EventRate(0.5))
        with pytest.raises(ws.DegeneratePlan):
            ws.SamplingPlan(n=10, n1=10, pi1=0.5)
        with pytest.raises(ws.InsufficientEvents):
            ws.SamplingPlan(n=10, n1=0, pi1=0.01)


class ExactVariates:
    """A stand-in generator whose ``random(shape)`` hands out given variates."""

    def __init__(self, variates):
        self.variates = np.asarray(variates, dtype=float)

    def random(self, shape):
        return self.variates.reshape(shape)


def one_predictor(p_event, p_nonevent=None):
    pred = ws.PredictorSpec("X1", p_event, p_event if p_nonevent is None else p_nonevent)
    return ws.ConfigSpec(id="one", predictors=(pred,))


class TestInvertCdf:
    """``generate_sample`` maps each variate in [0, 1) to a 1-based bin through
    the class's cumulative bin probabilities."""

    def test_right_open_boundary_convention(self):
        plan = ws.SamplingPlan(n=5, n1=4, pi1=0.8)
        gen = ExactVariates([0.4999, 0.5001, 0.5, 0.0, 0.7])
        sample = ws.generate_sample(one_predictor((0.5, 0.5)), plan, gen)
        # the bins partition [0, 1) into right-open intervals, so a variate
        # on an interior boundary falls in the bin to its right
        assert sample.X[:4, 0].tolist() == [1, 2, 2, 1]

    def test_vectorized(self):
        # one event variate, then five nonevent variates inverted together
        plan = ws.SamplingPlan(n=6, n1=1, pi1=1 / 6)
        gen = ExactVariates([0.9, 0.0, 0.25, 0.499, 0.5, 0.999])
        config = one_predictor((0.2, 0.3, 0.5), (0.25, 0.25, 0.5))
        sample = ws.generate_sample(config, plan, gen)
        assert sample.X[:, 0].tolist() == [3, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("bad", [1.0, np.nan, -0.5, np.inf])
    def test_variates_outside_unit_interval_refused(self, bad):
        # 1.0 and NaN used to become bin 3 of a 2-bin predictor, -0.5 bin 1
        plan = ws.SamplingPlan(n=3, n1=1, pi1=1 / 3)
        gen = ExactVariates([0.2, bad, 0.7])
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            ws.generate_sample(one_predictor((0.5, 0.5)), plan, gen)


class TestGuideTable:
    def test_table_is_compact_and_stays_out_of_pickles(self):
        config = one_predictor((0.5, 0.25, 0.25), (0.1, 0.2, 0.7))
        before = pickle.dumps(config)
        table = config.guide_table
        assert table.bins.dtype == np.uint8 and table.bins.size == 2 * 4096
        assert pickle.dumps(config) == before
        # a process pool's copy of the config finds the same table again
        assert pickle.loads(before).guide_table is table


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
            ws.Sample(X=np.ones((4, 1), dtype=np.int64), Y=np.array([label, 0, 0, 1]))

    def test_bool_labels_become_int64(self):
        sample = ws.Sample(X=np.ones((3, 1), dtype=np.int64), Y=np.array([True, False, True]))
        assert sample.Y.dtype == np.int64 and sample.Y.tolist() == [1, 0, 1]


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
