"""Population-level quantities: WoE, IV, AIV, Bayes posterior, synthesis."""

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

import woesim as ws
from woesim.configs import SYNTH_PROB_FLOOR, _draw_dirichlet, _mixture_event


def make_predictor(p_event, p_nonevent, name="X1"):
    return ws.PredictorSpec(name=name, p_event=p_event, p_nonevent=p_nonevent)


class TestValidation:
    def test_vectors_must_sum_to_one(self):
        with pytest.raises(ws.ConfigError, match="sums to"):
            make_predictor((0.5, 0.49), (0.5, 0.5))

    def test_vectors_must_match_length(self):
        with pytest.raises(ws.ConfigError, match="bins"):
            make_predictor((0.5, 0.5), (0.2, 0.3, 0.5))

    def test_single_bin_rejected(self):
        with pytest.raises(ws.ConfigError):
            make_predictor((1.0,), (1.0,))

    def test_entries_below_floor_rejected(self):
        with pytest.raises(ws.ConfigError, match="finite and >="):
            make_predictor((1e-9, 1.0 - 1e-9), (0.5, 0.5))

    def test_duplicate_predictor_names_rejected(self):
        p = make_predictor((0.5, 0.5), (0.4, 0.6))
        with pytest.raises(ws.ConfigError, match="duplicate"):
            ws.ConfigSpec(id="dup", predictors=(p, p))

    def test_empty_config_rejected(self):
        with pytest.raises(ws.ConfigError):
            ws.ConfigSpec(id="empty", predictors=())

    def test_empty_names_rejected(self):
        with pytest.raises(ws.ConfigError, match="predictor name must be nonempty"):
            make_predictor((0.5, 0.5), (0.4, 0.6), name="")
        with pytest.raises(ws.ConfigError, match="config id must be nonempty"):
            ws.ConfigSpec(id="", predictors=(make_predictor((0.5, 0.5), (0.4, 0.6)),))

    def test_event_rate_bounds(self):
        with pytest.raises(ws.ConfigError):
            ws.EventRate(0.0)
        with pytest.raises(ws.ConfigError):
            ws.EventRate(1.0)
        assert ws.EventRate(0.05).pi0 == 0.95


class TestPopulationWoe:
    def test_config_a_x1_bin1(self):
        # p_event 0.40 vs p_nonevent 0.30
        woe = ws.CONFIG_A.predictors[0].woe()[0]
        assert woe == pytest.approx(math.log(0.75), abs=1e-12)
        assert woe == pytest.approx(-0.28768, abs=5e-6)

    def test_equal_conditionals_give_zero(self):
        assert make_predictor((0.3, 0.7), (0.3, 0.7)).woe().tolist() == [0.0, 0.0]

    def test_config_c_x1_bin3(self):
        woe = ws.CONFIG_C.predictors[0].woe()[2]
        assert woe == pytest.approx(math.log(7.5), abs=1e-12)
        assert woe == pytest.approx(2.01490, abs=5e-6)


class TestInformationValue:
    def test_config_a_values(self):
        x1, x2 = ws.CONFIG_A.predictors[:2]
        assert ws.iv_between(x1.p_event, x1.p_nonevent) == pytest.approx(0.0770, abs=5e-4)
        assert ws.iv_between(x2.p_event, x2.p_nonevent) == pytest.approx(0.1288, abs=5e-4)

    def test_independent_predictor_has_zero_iv(self):
        assert ws.iv_between((0.3, 0.7), (0.3, 0.7)) == 0.0

    def test_nonnegative_with_equality_iff_identical(self):
        for cfg in ws.BUILTIN_CONFIGS.values():
            for pred in cfg.predictors:
                iv = ws.iv_between(pred.p_event, pred.p_nonevent)
                if pred.p_event == pred.p_nonevent:
                    assert iv == 0.0
                else:
                    assert iv > 0.0


class TestAggregateIv:
    def test_config_a_total(self):
        assert ws.aggregate_iv(ws.CONFIG_A).aiv == pytest.approx(0.3765, abs=1e-3)

    def test_config_d_total(self):
        assert ws.aggregate_iv(ws.CONFIG_D).aiv == pytest.approx(16.5100, abs=1e-2)

    def test_single_predictor_aiv_equals_iv(self):
        cfg = ws.ConfigSpec(id="one", predictors=(make_predictor((0.2, 0.8), (0.6, 0.4)),))
        report = ws.aggregate_iv(cfg)
        (p,) = cfg.predictors
        assert report.aiv == ws.iv_between(p.p_event, p.p_nonevent)
        assert report.ivs == (report.aiv,)

    def test_aiv_is_sum_of_ivs(self):
        for cfg in ws.BUILTIN_CONFIGS.values():
            report = ws.aggregate_iv(cfg)
            assert report.aiv == pytest.approx(math.fsum(report.ivs), abs=1e-12)

    def test_report_is_built_once_per_config_from_its_predictors(self):
        for cfg in ws.BUILTIN_CONFIGS.values():
            report = ws.aggregate_iv(cfg)
            assert ws.aggregate_iv(cfg) is report
            ivs = tuple(ws.iv_between(p.p_event, p.p_nonevent) for p in cfg.predictors)
            assert report.ivs == ivs and report.aiv == math.fsum(ivs)
            assert ws.aggregate_iv(pickle.loads(pickle.dumps(cfg))) == report
        two = dataclasses.replace(ws.CONFIG_A, predictors=ws.CONFIG_A.predictors[:2])
        assert ws.aggregate_iv(two).ivs == ws.aggregate_iv(ws.CONFIG_A).ivs[:2]


def brute_force_aiv(cfg):
    """Independent oracle: pure-python walk over every joint cell."""
    total = 0.0
    ranges = [range(1, p.n_bins + 1) for p in cfg.predictors]
    for cell in itertools.product(*ranges):
        q1 = q0 = 1.0
        for pred, k in zip(cfg.predictors, cell):
            q1 *= pred.p_event[k - 1]
            q0 *= pred.p_nonevent[k - 1]
        total += (q0 - q1) * math.log(q0 / q1)
    return total


class TestAivJoint:
    def test_config_a_enumerates_192_cells(self):
        assert math.prod(ws.CONFIG_A.bin_counts) == 192
        assert ws.aiv_joint(ws.CONFIG_A) == pytest.approx(0.3765, abs=1e-3)

    def test_matches_brute_force_oracle(self):
        for cfg in (ws.CONFIG_A, ws.CONFIG_D):
            assert ws.aiv_joint(cfg) == pytest.approx(brute_force_aiv(cfg), abs=1e-10)

    def test_single_predictor_matches_iv(self):
        cfg = ws.ConfigSpec(id="one", predictors=(make_predictor((0.2, 0.8), (0.6, 0.4)),))
        (p,) = cfg.predictors
        assert ws.aiv_joint(cfg) == pytest.approx(ws.iv_between(p.p_event, p.p_nonevent), abs=1e-15)

    def test_equals_sum_decomposition(self):
        for cfg in ws.BUILTIN_CONFIGS.values():
            assert abs(ws.aiv_joint(cfg) - ws.aggregate_iv(cfg).aiv) < 1e-9

    def test_enumeration_bound(self):
        preds = tuple(
            make_predictor((0.5, 0.5), (0.4, 0.6), name=f"X{i}") for i in range(21)
        )
        big = ws.ConfigSpec(id="big", predictors=preds)  # 2^21 cells
        with pytest.raises(ws.EnumerationLimitError):
            ws.aiv_joint(big)


class TestBayesPosterior:
    def test_uninformative_config_returns_prior(self):
        cfg = ws.ConfigSpec(
            id="flat",
            predictors=(
                make_predictor((0.3, 0.7), (0.3, 0.7), "X1"),
                make_predictor((0.25, 0.25, 0.5), (0.25, 0.25, 0.5), "X2"),
            ),
        )
        for pi1 in (0.01, 0.2, 0.9):
            for cell in itertools.product((1, 2), (1, 2, 3)):
                assert ws.bayes_posterior(cfg, ws.EventRate(pi1), cell) == pytest.approx(pi1, abs=1e-15)

    def test_single_predictor_arithmetic(self):
        cfg = ws.ConfigSpec(id="one", predictors=(make_predictor((0.8, 0.2), (0.2, 0.8)),))
        post = ws.bayes_posterior(cfg, ws.EventRate(0.1), (1,))
        assert post == pytest.approx(0.08 / 0.26, abs=1e-15)
        assert post == pytest.approx(0.30769, abs=5e-6)

    def test_log_odds_identity_on_config_a(self):
        rate = ws.EventRate(0.05)
        ranges = [range(1, p.n_bins + 1) for p in ws.CONFIG_A.predictors]
        for cell in itertools.product(*ranges):
            post = ws.bayes_posterior(ws.CONFIG_A, rate, cell)
            lhs = math.log(post / (1.0 - post))
            rhs = math.log(rate.pi1 / rate.pi0) - sum(
                pred.woe()[k - 1] for pred, k in zip(ws.CONFIG_A.predictors, cell)
            )
            assert abs(lhs - rhs) < 1e-12

    def test_cell_shape_checked(self):
        with pytest.raises(IndexError):
            ws.bayes_posterior(ws.CONFIG_A, ws.EventRate(0.1), (1, 1))
        with pytest.raises(IndexError):
            ws.bayes_posterior(ws.CONFIG_A, ws.EventRate(0.1), (1, 1, 1, 9))


class NoDraws:
    """A stream that fails the test when drawn from."""

    def generator(self):
        pytest.fail("drew variates for a refused argument")


class TestSynthesizeConfig:
    def test_hits_table4_style_target(self):
        cfg = ws.synthesize_config(2, (4, 4), 5.51, 0.05, ws.RngStream(7, 0, "synth"))
        aiv = ws.aggregate_iv(cfg).aiv
        assert 5.46 <= aiv <= 5.56
        assert cfg.bin_counts == (4, 4)

    def test_output_respects_predictor_invariants(self):
        cfg = ws.synthesize_config(3, (3, 4, 5), 2.0, 0.02, ws.RngStream(11, 0, "synth"))
        for pred in cfg.predictors:
            # construction already validated the PredictorSpec invariants;
            # check the tighter synthesis floor on the baseline side
            assert min(pred.p_nonevent) >= SYNTH_PROB_FLOOR * 0.99
            assert math.fsum(pred.p_event) == pytest.approx(1.0, abs=1e-9)
        assert abs(ws.aggregate_iv(cfg).aiv - 2.0) <= 0.02

    def test_iv_nondecreasing_along_mixture_path(self):
        gen = np.random.default_rng(3)
        for _ in range(100):
            bins = int(gen.integers(2, 7))
            p0 = _draw_dirichlet(gen, bins, 2.0)
            p1 = _draw_dirichlet(gen, bins, 1.0 / (1.0 + 0.25 * int(gen.integers(0, 10))))
            ivs = [
                ws.iv_between(_mixture_event(p0, p1, lam), p0)
                for lam in np.linspace(0.0, 1.0, 11)
            ]
            assert ivs[0] == 0.0
            assert all(b >= a - 1e-12 for a, b in zip(ivs, ivs[1:]))

    def test_unreachable_target(self):
        with pytest.raises(ws.TargetUnreachable):
            ws.synthesize_config(1, (2,), 50.0, 0.05, ws.RngStream(7, 0, "synth"))

    def test_argument_validation(self):
        stream = ws.RngStream(1, 0, "synth")
        with pytest.raises(ws.ConfigError):
            ws.synthesize_config(0, (), 1.0, 0.05, stream)
        with pytest.raises(ws.ConfigError):
            ws.synthesize_config(2, (4,), 1.0, 0.05, stream)
        with pytest.raises(ws.ConfigError):
            ws.synthesize_config(1, (4,), -1.0, 0.05, stream)
        with pytest.raises(ws.ConfigError):
            ws.synthesize_config(1, (4,), 1.0, 0.0, stream)

    def test_infinite_target_refused(self):
        # used to make 200 contrast redraws, then raise TargetUnreachable
        with pytest.raises(ws.ConfigError, match="target_aiv"):
            ws.synthesize_config(2, (4, 4), math.inf, 0.05, ws.RngStream(1, 0, "synth"))

    def test_infinite_tol_refused(self):
        # used to accept any AIV, 0.34 for a target of 1
        with pytest.raises(ws.ConfigError, match="tol"):
            ws.synthesize_config(2, (4, 4), 1.0, math.inf, ws.RngStream(1, 0, "synth"))

    def test_empty_id_refused_before_drawing(self):
        # used to fall back to the default id, as if none had been given
        with pytest.raises(ws.ConfigError, match="id must be nonempty"):
            ws.synthesize_config(2, (4, 4), 1.0, 0.05, NoDraws(), config_id="")
        cfg = ws.synthesize_config(2, (4, 4), 1.0, 0.05, ws.RngStream(3, 0, "synth"))
        assert cfg.id == "synth-d2-aiv1"

    @pytest.mark.parametrize("d, bins, field", [(2, (2.7, 3.9), "bins"), (2.0, (2, 3), "d")])
    def test_non_integer_shape_refused_before_drawing(self, d, bins, field):
        # bins (2.7, 3.9) used to be truncated to (2, 3), and d=2.0 named the
        # config synth-d2.0-aiv1
        with pytest.raises(ws.ConfigError, match=f"^{field} must be an integer"):
            ws.synthesize_config(d, bins, 1.0, 0.05, NoDraws())
        cfg = ws.synthesize_config(np.int64(2), (np.int64(2), 3), 1.0, 0.05, ws.RngStream(1))
        assert cfg.id == "synth-d2-aiv1" and cfg.bin_counts == (2, 3)

    def test_reproducible(self):
        a = ws.synthesize_config(2, (4, 4), 3.0, 0.05, ws.RngStream(5, 0, "synth"))
        b = ws.synthesize_config(2, (4, 4), 3.0, 0.05, ws.RngStream(5, 0, "synth"))
        assert a == b
