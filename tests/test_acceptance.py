"""Acceptance gate: every release criterion, one printed verdict per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The two Monte Carlo fixtures are session-scoped and shared by the
criteria that read them; all randomness is pinned.
"""

import bisect
import itertools
import json
import math
from fractions import Fraction
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

# how far config B's n=2500 medians may fall short of (criteria 14, 15, 17)
# or stray from (criteria 16, 18) the exact population limits; each is the
# worst gap at ACCEPTANCE_SEED (0.0366, 0.0399, 0.0100, 0.0598, 0.0105) plus
# a margin of 0.01, rounded up to a hundredth
POPULATION_GINI_SHORTFALL = 0.05
POPULATION_F1_SHORTFALL = 0.05
POPULATION_CUTOFF_DISTANCE = 0.02
POPULATION_P4_SHORTFALL = 0.07
POPULATION_P4_CUTOFF_DISTANCE = 0.03

# the same bounds for configs A and C (criteria 19, 20), per config: how far
# the n=2500 median test Gini, F1 and P4 may fall short of their population
# limits, and how far the median validation F1 and P4 cutoffs may stray from
# the population-optimal ones; each is the config's worst gap over the three
# rates at ACCEPTANCE_SEED plus 0.01, rounded up to a hundredth
# (A: 0.1029, 0.0232, 0.0418, 0.0090, 0.0100; C: 0.0137, 0.0407, 0.0429,
# 0.0130, 0.0165).  Criterion 19 also asks each shortfall to shrink from
# rate 0.01 to 0.05 to 0.10, as criteria 15 and 17 do for B.  D is left
# out: its Gini sits at the ceiling.
POPULATION_SHORTFALL_AC = {
    "A": {"gini": 0.12, "f1": 0.04, "p4": 0.06},
    "C": {"gini": 0.03, "f1": 0.06, "p4": 0.06},
}
POPULATION_CUTOFF_DISTANCE_AC = {
    "A": {"f1": 0.02, "p4": 0.02},
    "C": {"f1": 0.03, "p4": 0.03},
}


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


@pytest.fixture(scope="session")
def run_ac_2500():
    spec = ws.RunSpec(
        configs=(ws.CONFIG_A, ws.CONFIG_C), sizes=(2500,), rates=(0.01, 0.05, 0.10),
        iterations=500, master_seed=ACCEPTANCE_SEED,
    )
    return ws.summarize(ws.run_grid(spec, workers=2))


def joint_cells(config, rate):
    """Every joint cell with its exact event and nonevent population mass,
    pi1 * prod(p_event) and pi0 * prod(p_nonevent), as ``bayes_posterior``
    forms them: the oracle shares no float kernel with the engine."""
    for cell in itertools.product(*(range(1, p.n_bins + 1) for p in config.predictors)):
        events, nonevents = Fraction(rate.pi1), Fraction(rate.pi0)
        for pred, k in zip(config.predictors, cell):
            events *= Fraction(pred.p_event[k - 1])
            nonevents *= Fraction(pred.p_nonevent[k - 1])
        yield cell, events, nonevents


def population_gini(config, rate):
    """Somers' D of the Bayes scorer over the population: cells ranked by
    exact posterior, a tied pair counted in the denominator only."""
    groups = {}
    for _, events, nonevents in joint_cells(config, rate):
        group = groups.setdefault(events / (events + nonevents), [0, 0])
        group[0] += events
        group[1] += nonevents
    total_events = sum(events for events, _ in groups.values())
    total_nonevents = sum(nonevents for _, nonevents in groups.values())
    lead, below = Fraction(0), Fraction(0)
    for posterior in sorted(groups):
        events, nonevents = groups[posterior]
        # events here outrank the nonevents below and trail those above
        lead += events * (below - (total_nonevents - below - nonevents))
        below += nonevents
    return lead / (total_events * total_nonevents)


def f1_of_counts(tp, fp, fn, tn):
    return 2 * tp / (2 * tp + fp + fn)


def p4_of_counts(tp, fp, fn, tn):
    # P4 = 4 / (1/precision + 1/recall + 1/specificity + 1/NPV)
    return 4 * tp * tn / (4 * tp * tn + (tp + tn) * (fp + fn))


def population_best(config, rate, score):
    """The Bayes scorer's best population ``score`` of the exact counts (tp,
    fp, fn, tn) over ``default_cutoff_grid()`` and the first grid cutoff
    reaching it.  A cell is positive when its float ``bayes_posterior`` is
    >= the cutoff, the engine's rule."""
    posteriors, events, nonevents = zip(*sorted(
        (ws.bayes_posterior(config, rate, cell), events, nonevents)
        for cell, events, nonevents in joint_cells(config, rate)
    ))
    # the event and nonevent mass of the cells from index i up
    tp = list(itertools.accumulate(reversed(events), initial=0))[::-1]
    fp = list(itertools.accumulate(reversed(nonevents), initial=0))[::-1]
    best = (Fraction(-1), None)
    for cutoff in ws.default_cutoff_grid():
        at = bisect.bisect_left(posteriors, cutoff)
        value = score(tp[at], fp[at], tp[0] - tp[at], fp[0] - fp[at])
        if value > best[0]:
            best = (value, float(cutoff))
    return best


@pytest.fixture(scope="session")
def population_b():
    """Config B's exact Gini and best grid F1 and P4 with their cutoffs, per rate."""
    rates = {pi1: ws.EventRate(pi1) for pi1 in (0.01, 0.05, 0.10)}
    return (
        {pi1: population_gini(ws.CONFIG_B, rate) for pi1, rate in rates.items()},
        {pi1: population_best(ws.CONFIG_B, rate, f1_of_counts) for pi1, rate in rates.items()},
        {pi1: population_best(ws.CONFIG_B, rate, p4_of_counts) for pi1, rate in rates.items()},
    )


@pytest.fixture(scope="session")
def population_ac():
    """Configs A's and C's exact Gini, best grid F1 and P4, and the cutoffs
    reaching those, per (config id, rate): a (limits, cutoffs) pair of dicts
    keyed by metric."""
    population = {}
    for config in (ws.CONFIG_A, ws.CONFIG_C):
        for pi1 in (0.01, 0.05, 0.10):
            rate = ws.EventRate(pi1)
            (f1, f1_cutoff), (p4, p4_cutoff) = (
                population_best(config, rate, score) for score in (f1_of_counts, p4_of_counts)
            )
            population[config.id, pi1] = (
                {"gini": population_gini(config, rate), "f1": f1, "p4": p4},
                {"f1": f1_cutoff, "p4": p4_cutoff},
            )
    return population


def median_of(summary, metric, split, rate=None, n=None, config_id=None):
    rows = [
        r for r in summary
        if r.metric == metric and r.split == split
        and (config_id is None or r.config_id == config_id)
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
                rhs = math.log(rate.pi1 / rate.pi0) - sum(
                    config.predictors[j].woe()[k - 1] for j, k in enumerate(cell)
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
    # (criteria 1-12, 14-20) rather than exact reproduction of any
    # external run, whose RNG and grid conventions are unknown
    verdict(13, "figure-level exactness not claimed; identities and trend bands carry the gate", True)


def test_criterion_14_gini_below_population_limit(run_b_2500, population_b):
    ginis, _, _ = population_b
    limit = ginis[0.01]
    gaps = [float(limit) - median_of(run_b_2500, "gini", "test", rate=rate) for rate in ginis]
    verdict(
        14,
        f"population Gini {float(limit):.5f} is one Fraction at every rate; median test Gini "
        f"falls short of it by 0..{POPULATION_GINI_SHORTFALL} per rate "
        f"(gaps {[round(g, 4) for g in gaps]})",
        all(gini == limit for gini in ginis.values())
        and all(0.0 < g <= POPULATION_GINI_SHORTFALL for g in gaps),
    )


def test_criterion_15_f1_shortfall_shrinks_with_rate(run_b_2500, population_b):
    _, best, _ = population_b
    gaps = [
        float(f1) - median_of(run_b_2500, "f1", "test", rate=rate)
        for rate, (f1, _) in best.items()
    ]
    verdict(
        15,
        f"median test F1 falls short of population F1 "
        f"{[round(float(f1), 5) for f1, _ in best.values()]} by 0..{POPULATION_F1_SHORTFALL}, "
        f"less at each higher rate (gaps {[round(g, 4) for g in gaps]})",
        all(0.0 < g <= POPULATION_F1_SHORTFALL for g in gaps) and gaps[0] > gaps[1] > gaps[2],
    )


def test_criterion_16_cutoff_near_population_optimum(run_b_2500, population_b):
    _, best, _ = population_b
    gaps = [
        abs(median_of(run_b_2500, "theta_f1", "val", rate=rate) - cutoff)
        for rate, (_, cutoff) in best.items()
    ]
    verdict(
        16,
        f"median validation F1 cutoff within {POPULATION_CUTOFF_DISTANCE} of population "
        f"cutoff {[cutoff for _, cutoff in best.values()]} (gaps {[round(g, 4) for g in gaps]})",
        all(g <= POPULATION_CUTOFF_DISTANCE for g in gaps),
    )


def test_criterion_17_p4_shortfall_shrinks_with_rate(run_b_2500, population_b):
    _, _, best = population_b
    gaps = [
        float(p4) - median_of(run_b_2500, "p4", "test", rate=rate)
        for rate, (p4, _) in best.items()
    ]
    verdict(
        17,
        f"median test P4 falls short of population P4 "
        f"{[round(float(p4), 5) for p4, _ in best.values()]} by 0..{POPULATION_P4_SHORTFALL}, "
        f"less at each higher rate (gaps {[round(g, 4) for g in gaps]})",
        all(0.0 < g <= POPULATION_P4_SHORTFALL for g in gaps) and gaps[0] > gaps[1] > gaps[2],
    )


def test_criterion_18_p4_cutoff_near_population_optimum(run_b_2500, population_b):
    _, _, best = population_b
    gaps = [
        abs(median_of(run_b_2500, "theta_p4", "val", rate=rate) - cutoff)
        for rate, (_, cutoff) in best.items()
    ]
    verdict(
        18,
        f"median validation P4 cutoff within {POPULATION_P4_CUTOFF_DISTANCE} of population "
        f"cutoff {[cutoff for _, cutoff in best.values()]} (gaps {[round(g, 4) for g in gaps]})",
        all(g <= POPULATION_P4_CUTOFF_DISTANCE for g in gaps),
    )


@pytest.mark.parametrize("config_id", sorted(POPULATION_SHORTFALL_AC))
def test_criterion_19_medians_below_population_limits(run_ac_2500, population_ac, config_id):
    bounds = POPULATION_SHORTFALL_AC[config_id]
    gaps = {
        (metric, pi1): float(limits[metric])
        - median_of(run_ac_2500, metric, "test", rate=pi1, config_id=config_id)
        for (cid, pi1), (limits, _) in population_ac.items() if cid == config_id
        for metric in bounds
    }
    # each metric's gaps at rates 0.01, 0.05 and 0.10, in that order
    trends = [[gaps[metric, pi1] for pi1 in (0.01, 0.05, 0.10)] for metric in bounds]
    verdict(
        19,
        f"config {config_id}: median test Gini, F1 and P4 fall short of their population "
        f"limits by 0..{bounds} per rate, less at each higher rate "
        f"(gaps {[round(g, 4) for g in gaps.values()]})",
        all(0.0 <= gap <= bounds[metric] for (metric, _), gap in gaps.items())
        and all(low > mid > high for low, mid, high in trends),
    )


@pytest.mark.parametrize("config_id", sorted(POPULATION_CUTOFF_DISTANCE_AC))
def test_criterion_20_cutoffs_near_population_optima(run_ac_2500, population_ac, config_id):
    bounds = POPULATION_CUTOFF_DISTANCE_AC[config_id]
    gaps = {
        (metric, pi1): abs(
            median_of(run_ac_2500, f"theta_{metric}", "val", rate=pi1, config_id=config_id)
            - cutoffs[metric]
        )
        for (cid, pi1), (_, cutoffs) in population_ac.items() if cid == config_id
        for metric in bounds
    }
    verdict(
        20,
        f"config {config_id}: median validation F1 and P4 cutoffs within {bounds} of the "
        f"population-optimal cutoffs (gaps {[round(g, 4) for g in gaps.values()]})",
        all(gap <= bounds[metric] for (metric, _), gap in gaps.items()),
    )
