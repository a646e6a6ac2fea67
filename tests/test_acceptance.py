"""Acceptance gate: every release criterion, one printed verdict per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The two Monte Carlo fixtures are session-scoped and shared by the
criteria that read them; all randomness is pinned.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import woesim as ws
from woesim import io

ACCEPTANCE_SEED = 20260809
GOLDEN_PATH = Path(__file__).parent / "data" / "golden_iteration.json"

# reference per-predictor IVs and AIVs for the built-in configurations
REFERENCE_IVS = {
    "A": ((0.0770, 0.1288, 0.1595, 0.0112), 0.3765),
    "B": ((0.6039, 0.2200, 0.1992, 1.2638), 2.2869),
    "C": ((2.2956, 1.8659, 0.7290, 0.4726), 5.3631),
    "D": ((3.9895, 3.9542, 3.6617, 4.9046), 16.5100),
}

# reference guideline row for the 1% event rate over AIV 0.5 .. 7.0
GUIDELINE_GRID = tuple(0.5 * i for i in range(1, 15))
GUIDELINE_ROW_1PCT = (0.06, 0.07, 0.09, 0.11, 0.13, 0.16, 0.19, 0.23,
                      0.27, 0.32, 0.37, 0.42, 0.47, 0.52)
# reference 5% row values bracketing config B's strength, used to
# interpolate the expected median F1 at its exact AIV
GUIDELINE_5PCT_AT_2 = 0.32
GUIDELINE_5PCT_AT_2_5 = 0.36


def verdict(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="session")
def run_b_2500():
    spec = ws.RunSpec(
        configs=(ws.CONFIG_B,), sizes=(2500,), rates=(0.01, 0.05, 0.10),
        iterations=500, master_seed=ACCEPTANCE_SEED,
    )
    return ws.summarize(ws.run_grid(spec, workers=4))


@pytest.fixture(scope="session")
def run_b_fixed_events():
    spec = ws.RunSpec(
        configs=(ws.CONFIG_B,), sizes=(500, 2500), iterations=500,
        master_seed=ACCEPTANCE_SEED, fixed_events=25,
    )
    return ws.summarize(ws.run_grid(spec, workers=4))


def median_of(summary, metric, split, rate=None, n=None):
    rows = [
        r for r in summary
        if r.metric == metric and r.split == split
        and (rate is None or abs(r.event_rate - rate) < 1e-12)
        and (n is None or r.n == n)
    ]
    assert len(rows) == 1
    return rows[0].median


def test_criterion_01_table_2_reconstruction():
    ok = True
    for cid, (ivs, aiv) in REFERENCE_IVS.items():
        report = ws.aggregate_iv(ws.BUILTIN_CONFIGS[cid])
        ok &= all(
            abs(got - want) <= 5e-4 for got, want in zip(report.ivs, ivs)
        )
        ok &= abs(report.aiv - aiv) <= 1e-3
    verdict(1, "all 16 IVs within 5e-4 and four AIVs within 1e-3 of reference values", ok)


def test_criterion_02_log_odds_identity():
    worst = 0.0
    for cid in "ABCD":
        config = ws.BUILTIN_CONFIGS[cid]
        ranges = [range(1, p.n_bins + 1) for p in config.predictors]
        for pi1 in (0.01, 0.05, 0.10):
            rate = ws.EventRate(pi1)
            for cell in itertools.product(*ranges):
                post = ws.bayes_posterior(config, rate, cell)
                lhs = math.log(post / (1.0 - post))
                rhs = rate.logit() - sum(
                    ws.population_woe(config, j + 1, k) for j, k in enumerate(cell)
                )
                worst = max(worst, abs(lhs - rhs))
    verdict(2, f"posterior log-odds identity residual {worst:.2e} < 1e-12 on every cell", worst < 1e-12)


def test_criterion_03_joint_enumeration_matches_sum():
    worst = max(
        abs(ws.aiv_joint(ws.BUILTIN_CONFIGS[cid]) - ws.aggregate_iv(ws.BUILTIN_CONFIGS[cid]).aiv)
        for cid in "ABCD"
    )
    verdict(3, f"joint-enumeration AIV equals sum of IVs within 1e-9 (worst {worst:.2e})", worst < 1e-9)


def test_criterion_04_coefficient_recovery():
    plan = ws.SamplingPlan(n=100000, n1=10000, pi1=0.10)
    sample = ws.generate_sample(ws.CONFIG_B, plan, ws.RngStream(ACCEPTANCE_SEED, 0, "train"))
    features = np.column_stack([
        pred.woe()[sample.X[:, j] - 1]
        for j, pred in enumerate(ws.CONFIG_B.predictors)
    ])
    model = ws.fit_logistic(features, sample.Y)
    ok = (
        model.converged
        and abs(model.beta[0] - math.log(0.10 / 0.90)) <= 0.1
        and all(abs(b + 1.0) <= 0.1 for b in model.beta[1:])
    )
    verdict(4, "population-WoE fit recovers intercept logit(0.1) and slopes -1 within 0.1", ok)


def test_criterion_05_gini_fast_equals_enumeration():
    gen = np.random.default_rng(ACCEPTANCE_SEED)
    ok = True
    for _ in range(200):
        n = int(gen.integers(2, 301))
        labels = np.zeros(n, dtype=int)
        labels[: int(gen.integers(1, n))] = 1
        gen.shuffle(labels)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        # quantized scores guarantee ties
        probs = np.round(gen.random(n), int(gen.integers(1, 3)))
        events = probs[labels == 1][:, None]
        nonevents = probs[labels == 0][None, :]
        n_c = int(np.count_nonzero(events > nonevents))
        n_d = int(np.count_nonzero(events < nonevents))
        oracle = (n_c - n_d) / (events.size * nonevents.size)
        ok &= ws.gini(probs, labels) == oracle
    verdict(5, "sort-based Somers' D equals pair enumeration exactly on 200 tie-heavy inputs", ok)


def test_criterion_06_metric_spot_checks():
    checks = [
        abs(ws.f1(ws.ConfusionMatrix(2, 1, 1, 0)) - 4 / 6) < 1e-9,
        abs(ws.p4(ws.ConfusionMatrix(2, 1, 1, 96)) - 768 / 964) < 1e-9,
        ws.f1(ws.ConfusionMatrix(tp=3, fp=0, fn=0, tn=5)) == 1.0,
        ws.f1(ws.ConfusionMatrix(tp=0, fp=0, fn=0, tn=5)) == 0.0,
        ws.p4(ws.ConfusionMatrix(tp=2, fp=0, fn=0, tn=2)) == 1.0,
        ws.p4(ws.ConfusionMatrix(tp=0, fp=0, fn=2, tn=5)) == 0.0,
        ws.p4(ws.ConfusionMatrix(tp=0, fp=0, fn=0, tn=0)) == 0.0,
    ]
    verdict(6, "F1 and P4 closed forms within 1e-9 plus degenerate conventions", all(checks))


def test_criterion_07_gini_converges_across_rates(run_b_2500):
    g_low = median_of(run_b_2500, "gini", "test", rate=0.01)
    g_high = median_of(run_b_2500, "gini", "test", rate=0.10)
    gap = abs(g_low - g_high)
    verdict(7, f"median test Gini gap between 1% and 10% rates is {gap:.4f} <= 0.05", gap <= 0.05)


def test_criterion_08_f1_ordering_and_guideline_band(run_b_2500):
    medians = {
        rate: median_of(run_b_2500, "f1", "test", rate=rate)
        for rate in (0.01, 0.05, 0.10)
    }
    ordered = medians[0.01] < medians[0.05] < medians[0.10]
    aiv_b = ws.aggregate_iv(ws.CONFIG_B).aiv
    expected = GUIDELINE_5PCT_AT_2 + (aiv_b - 2.0) / 0.5 * (
        GUIDELINE_5PCT_AT_2_5 - GUIDELINE_5PCT_AT_2
    )
    gap = abs(medians[0.05] - expected)
    verdict(
        8,
        f"median test F1 ordered over rates and 5% value within 0.08 of "
        f"guideline {expected:.4f} (gap {gap:.4f})",
        ordered and gap <= 0.08,
    )


def test_criterion_09_cutoff_agreement(run_b_2500):
    gaps = []
    for rate in (0.01, 0.05, 0.10):
        t_f1 = median_of(run_b_2500, "theta_f1", "val", rate=rate)
        t_p4 = median_of(run_b_2500, "theta_p4", "val", rate=rate)
        gaps.append(abs(t_f1 - t_p4))
    verdict(
        9,
        f"median F1 and P4 cutoffs agree within 0.05 per rate (gaps {[round(g, 4) for g in gaps]})",
        all(g <= 0.05 for g in gaps),
    )


def test_criterion_10_nonevent_dilution(run_b_fixed_events):
    at_500 = median_of(run_b_fixed_events, "f1", "test", n=500)
    at_2500 = median_of(run_b_fixed_events, "f1", "test", n=2500)
    verdict(
        10,
        f"with 25 fixed events, median test F1 drops from {at_500:.4f} (n=500) "
        f"to {at_2500:.4f} (n=2500)",
        at_2500 < at_500,
    )


def test_criterion_11_curve_round_trips():
    fit = ws.fit_logistic_curve(list(zip(GUIDELINE_GRID, GUIDELINE_ROW_1PCT)))
    row_ok = all(
        abs(fit.predict(a) - want) <= 0.01
        for a, want in zip(GUIDELINE_GRID, GUIDELINE_ROW_1PCT)
    )
    truth = ws.CurveFit(L=0.8, k=0.5, x0=4.0, rss=0.0)
    refit = ws.fit_logistic_curve([(a, truth.predict(a)) for a in np.arange(0.5, 8.01, 0.5)])
    synth_ok = (
        abs(refit.L - 0.8) <= 1e-6
        and abs(refit.k - 0.5) <= 1e-6
        and abs(refit.x0 - 4.0) <= 1e-6
        and refit.rss < 1e-12
    )
    verdict(11, "reference 1% row refits within 0.01 pointwise; noiseless recovery within 1e-6", row_ok and synth_ok)


def test_criterion_12_determinism(tmp_path):
    spec = ws.RunSpec(
        configs=(ws.CONFIG_A, ws.CONFIG_B), sizes=(60, 100), rates=(0.05, 0.10),
        iterations=5, master_seed=ACCEPTANCE_SEED,
    )
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    io.save_results_csv(ws.run_grid(spec, workers=1), serial)
    io.save_results_csv(ws.run_grid(spec, workers=3), parallel)
    bytes_ok = serial.read_bytes() == parallel.read_bytes()

    doc = json.loads(GOLDEN_PATH.read_text())
    plan = ws.make_plan(doc["n"], ws.EventRate(doc["rate"]))
    record = ws.run_iteration(
        ws.BUILTIN_CONFIGS[doc["config_id"]], plan, doc["master_seed"], doc["iteration"]
    )
    golden_ok = all(
        getattr(record, key) == expected for key, expected in doc["record"].items()
    )
    verdict(12, "serial and parallel runs byte-identical; pinned golden record stable", bytes_ok and golden_ok)


def test_criterion_13_scope_note():
    # the gate intentionally claims identities, oracles, and trend bands
    # (criteria 1-12) rather than exact reproduction of any external run,
    # whose RNG and grid conventions are unknown
    verdict(13, "figure-level exactness not claimed; identities and trend bands carry the gate", True)
