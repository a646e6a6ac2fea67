"""Monte Carlo engine: iteration pipeline, grid sweep, summaries."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import woesim as ws
from woesim import engine

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_iteration.json"


def small_spec(**overrides):
    base = dict(
        configs=(ws.CONFIG_B,),
        sizes=(60,),
        rates=(0.10,),
        iterations=4,
        master_seed=11,
    )
    base.update(overrides)
    return ws.RunSpec(**base)


class TestRunSpec:
    def test_defaults_follow_default_grid(self):
        spec = ws.RunSpec(configs=(ws.CONFIG_A,))
        assert spec.sizes == ws.STUDY_SIZES
        assert spec.rates == (0.01, 0.05, 0.10)
        assert spec.iterations == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            ws.RunSpec(configs=())
        with pytest.raises(ValueError):
            small_spec(rates=(1.5,))
        with pytest.raises(ValueError):
            small_spec(iterations=0)
        with pytest.raises(ValueError):
            small_spec(fixed_events=0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(configs=()), dict(sizes=()), dict(rates=()), dict(sizes=(60, 60)),
            dict(iterations=0), dict(fixed_events=0), dict(master_seed=-1), dict(theta_adj=-1.0),
        ],
        ids=repr,
    )
    def test_refusals_are_spec_errors(self, bad):
        # a package error that is also a ValueError, so the CLI still exits 2
        with pytest.raises(ws.SpecError):
            small_spec(**bad)
        assert issubclass(ws.SpecError, ws.WoesimError) and issubclass(ws.SpecError, ValueError)

    def test_duplicate_sizes_refused(self):
        # (60, 60) used to run the n=60 cells twice and summarise n_iter=2x
        with pytest.raises(ValueError, match="sizes must be distinct"):
            small_spec(sizes=(60, 60))

    def test_duplicate_rates_refused(self):
        with pytest.raises(ValueError, match="rates must be distinct"):
            small_spec(rates=(0.05, 0.1, 0.05))

    def test_duplicate_config_ids_refused(self):
        # (B, B) used to run every cell twice; two configs sharing an id
        # were both recorded with the second one's AIV
        with pytest.raises(ValueError, match="config ids must be distinct"):
            small_spec(configs=(ws.CONFIG_B, ws.CONFIG_B))
        renamed_a = ws.ConfigSpec(id="B", predictors=ws.CONFIG_A.predictors)
        with pytest.raises(ValueError, match="config ids must be distinct"):
            small_spec(configs=(ws.CONFIG_B, renamed_a))

    @pytest.mark.parametrize("theta_adj", [math.nan, math.inf, -1.0])
    def test_bad_theta_adj_refused(self, theta_adj):
        # nan and -1 used to abort the grid at the first iteration, inf gave NaN WoE
        with pytest.raises(ValueError, match="theta_adj"):
            small_spec(theta_adj=theta_adj)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_master_seed_outside_u64_refused(self, seed):
        # masked to 64 bits, such a seed used to alias another one's stream
        with pytest.raises(ValueError, match="master seed"):
            small_spec(master_seed=seed)

    @pytest.mark.parametrize(
        "start, field",
        [
            (lambda: small_spec(iterations=2.5), "iterations"),
            (lambda: small_spec(master_seed=1.5), "master seed"),
            (lambda: small_spec(fixed_events=2.5), "fixed_events"),
            (lambda: small_spec(sizes=(60.7,)), "sizes"),
            (lambda: ws.run_grid(small_spec(sizes=(60, 80, 100)), workers=2.5), "workers"),
            (lambda: ws.RngStream(1, 1.5, "train"), "iteration"),
        ],
        ids=["iterations", "master_seed", "fixed_events", "sizes", "workers", "rng_iteration"],
    )
    def test_non_integer_refused_before_any_cell_runs(self, monkeypatch, start, field):
        # each used to be accepted, then end the run in a TypeError, or for
        # a float size, run and record the truncated n=60
        monkeypatch.setattr(engine, "_run_cell", lambda task: pytest.fail("a cell ran"))
        error = ValueError if field == "iteration" else ws.SpecError
        with pytest.raises(error, match=f"{field} must be .*integer"):
            start()

    def test_numpy_integers_accepted(self):
        spec = small_spec(
            sizes=(np.int64(60),), iterations=np.int32(2), master_seed=np.uint64(11),
            fixed_events=np.int64(6),
        )
        assert (spec.sizes, spec.iterations, spec.fixed_events) == ((60,), 2, 6)
        assert type(spec.iterations) is int and type(spec.sizes[0]) is int
        plain = small_spec(iterations=2, fixed_events=6)
        assert ws.run_grid(spec, workers=np.int64(1)) == ws.run_grid(plain)
        assert ws.RngStream(np.uint64(5), np.int32(2), "train").seed == ws.RngStream(5, 2, "train").seed


class TestRunIteration:
    def test_golden_record_is_stable(self):
        doc = json.loads(GOLDEN_PATH.read_text())
        plan = ws.make_plan(doc["n"], ws.EventRate(doc["rate"]))
        record = ws.run_iteration(
            ws.BUILTIN_CONFIGS[doc["config_id"]], plan, doc["master_seed"], doc["iteration"]
        )
        for key, expected in doc["record"].items():
            assert getattr(record, key) == expected, key

    def test_record_fields_in_codomains(self):
        plan = ws.make_plan(150, ws.EventRate(0.1))
        record = ws.run_iteration(ws.CONFIG_C, plan, 5, 0)
        assert record.valid
        for field in ("f1_val", "f1_test", "p4_val", "p4_test"):
            assert 0.0 <= getattr(record, field) <= 1.0
        for field in ("gini_val", "gini_test"):
            assert -1.0 <= getattr(record, field) <= 1.0
        grid = ws.default_cutoff_grid()
        assert record.theta_f1 in grid and record.theta_p4 in grid

    def test_zero_association_config_has_no_concordance(self):
        pred = ws.PredictorSpec("X1", (0.4, 0.6), (0.4, 0.6))
        pred2 = ws.PredictorSpec("X2", (0.3, 0.3, 0.4), (0.3, 0.3, 0.4))
        cfg = ws.ConfigSpec(id="null", predictors=(pred, pred2))
        plan = ws.make_plan(2500, ws.EventRate(0.05))
        ginis = [
            ws.run_iteration(cfg, plan, 31, it).gini_test for it in range(500)
        ]
        assert abs(float(np.median(ginis))) < 0.05

    def test_record_aiv_is_the_configs_own(self):
        plan = ws.make_plan(60, ws.EventRate(0.1))
        assert ws.run_iteration(ws.CONFIG_B, plan, 1, 0).aiv == ws.aggregate_iv(ws.CONFIG_B).aiv
        with pytest.raises(TypeError):
            ws.run_iteration(ws.CONFIG_B, plan, 1, 0, aiv=1.0)

    @pytest.mark.parametrize("n", [191, 192])
    def test_rows_are_drawn_only_below_one_row_per_cell(self, monkeypatch, n):
        # config B has K = 192 joint cells: from n = K on, each split is
        # drawn straight into its weighted cells and no rows are built
        drawn = []

        def rows(*args):
            drawn.append(args)
            return ws.generate_sample(*args)

        monkeypatch.setattr(engine, "generate_sample", rows)
        assert ws.run_iteration(ws.CONFIG_B, ws.make_plan(n, ws.EventRate(0.1)), 3, 0).valid
        assert len(drawn) == (3 if n < 192 else 0)

    def test_estimator_failure_becomes_flagged_record(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ws.DegenerateDesign("forced")

        monkeypatch.setattr(engine, "estimate_woe", boom)
        plan = ws.make_plan(60, ws.EventRate(0.1))
        record = ws.run_iteration(ws.CONFIG_A, plan, 1, 0)
        assert not record.valid
        assert math.isnan(record.f1_test) and math.isnan(record.theta_f1)
        assert not record.converged

    def test_test_split_cannot_influence_fit_or_cutoffs(self):
        # rebuild the pipeline with two different test samples: everything
        # fitted upstream must be identical because only train/val enter it
        plan = ws.make_plan(200, ws.EventRate(0.1))
        train = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(17, 3, "train"))
        val = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(17, 3, "val"))

        outputs = []
        for test_seed in (0, 1):
            _ = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(test_seed, 99, "test"))
            table = ws.estimate_woe(train)
            model = ws.fit_logistic(ws.transform(train, table), train.Y)
            probs_val = ws.predict_proba(model, ws.transform(val, table))
            cut = ws.optimize_cutoff(probs_val, val.Y, "f1")
            outputs.append((table, model, cut))
        assert outputs[0] == outputs[1]


class TestRunGrid:
    def test_cardinality_and_iteration_indices(self):
        records = ws.run_grid(small_spec(iterations=3))
        assert len(records) == 3
        assert [r.iteration for r in records] == [0, 1, 2]

    def test_output_sorted_regardless_of_spec_order(self):
        spec = small_spec(sizes=(120, 60), rates=(0.10, 0.05), iterations=2)
        records = ws.run_grid(spec)
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)

    def test_serial_equals_parallel(self):
        spec = small_spec(sizes=(60, 100), rates=(0.05, 0.10), iterations=5)
        assert ws.run_grid(spec, workers=1) == ws.run_grid(spec, workers=3)

    def test_zero_workers_is_a_spec_error(self):
        with pytest.raises(ws.SpecError, match="workers must be at least 1"):
            ws.run_grid(small_spec(), workers=0)

    def test_workers_capped_at_cell_count(self, monkeypatch):
        # a pool may start all its workers at the first submit, so --workers 5000
        # used to start 5000 processes even for a grid of two cells
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # run_grid imports the pool class when it starts one, so patch it
        # where that import finds it
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        spec = small_spec(sizes=(60, 100))
        assert ws.run_grid(spec, workers=10**6) == ws.run_grid(spec)
        assert started == [2]
        started.clear()
        one_cell = small_spec()
        assert ws.run_grid(one_cell, workers=3) == ws.run_grid(one_cell)
        assert started == []

    def test_fixed_events_records_effective_rates(self):
        spec = ws.RunSpec(
            configs=(ws.CONFIG_B,),
            sizes=(500, 2500),
            rates=(0.01, 0.05, 0.10),  # ignored under fixed_events
            iterations=2,
            master_seed=4,
            fixed_events=25,
        )
        records = ws.run_grid(spec)
        assert len(records) == 4
        assert sorted({r.event_rate for r in records}) == [0.01, 0.05]
        assert all(not r.clamped for r in records)

    def test_clamped_cell_flagged(self):
        spec = small_spec(sizes=(50,), rates=(0.01,), iterations=2)
        records = ws.run_grid(spec)
        assert all(r.clamped for r in records)


class TestSummarize:
    def test_odd_length_exact_order_statistics(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        p05, q25, med, q75, p95 = np.quantile(values, (0.05, 0.25, 0.5, 0.75, 0.95))
        assert (med, q25, q75) == (3.0, 2.0, 4.0)
        assert p05 == pytest.approx(1.2, abs=1e-12)

    def test_summary_of_constant_cell(self):
        spec = small_spec(iterations=1)
        summary = ws.summarize(ws.run_grid(spec))
        for row in summary:
            assert row.median == row.q25 == row.q75 == row.p05 == row.p95
            assert row.n_iter == 1

    def test_quantile_ordering_invariant(self):
        records = ws.run_grid(small_spec(iterations=40, sizes=(60, 100)))
        for row in ws.summarize(records):
            assert row.p05 <= row.q25 <= row.median <= row.q75 <= row.p95

    def test_expected_metric_split_rows(self):
        summary = ws.summarize(ws.run_grid(small_spec()))
        pairs = {(r.metric, r.split) for r in summary}
        assert pairs == set(engine.SUMMARY_FIELDS)

    def test_invalid_records_excluded_and_counted(self):
        records = ws.run_grid(small_spec(iterations=3))
        nan = float("nan")
        broken = ws.IterationRecord(
            config_id="B", aiv=records[0].aiv, n=60, event_rate=0.10, iteration=3,
            clamped=False, converged=False, theta_f1=nan, theta_p4=nan,
            f1_val=nan, f1_test=nan, p4_val=nan, p4_test=nan,
            gini_val=nan, gini_test=nan,
        )
        summary = ws.summarize(records + [broken])
        assert all(r.n_iter == 3 for r in summary)

    def test_empty_cell_raises(self):
        nan = float("nan")
        broken = ws.IterationRecord(
            config_id="B", aiv=1.0, n=60, event_rate=0.10, iteration=0,
            clamped=False, converged=False, theta_f1=nan, theta_p4=nan,
            f1_val=nan, f1_test=nan, p4_val=nan, p4_test=nan,
            gini_val=nan, gini_test=nan,
        )
        with pytest.raises(ws.EmptyCell):
            ws.summarize([broken])

    def test_nonconverged_counted(self):
        records = ws.run_grid(small_spec(iterations=2))
        flipped = [r._replace(converged=False) for r in records]
        summary = ws.summarize(flipped)
        assert all(r.n_nonconverged == 2 for r in summary)
