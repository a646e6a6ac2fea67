"""Property tests.

A weighted row counts exactly as that many replicated rows: the engine
reduces every split to weighted joint cells (``compress``) and hands the
weights to the WoE estimate, the fit and the metrics, so each of them must
agree with the unweighted call on the rows the weights stand for.  The fit's
Newton step solves as ``np.linalg.solve`` does and falls back to least
squares exactly where that raises.  The results and
summary CSVs round-trip any record, the config synthesiser either hits
its target or says it cannot, the sampler consumes its stream in the
documented order, the grid's records do not depend on the schedule, and
each summary quantile is the one ``np.quantile`` gives on its field alone.
The sampler's guide-table lookup gives the bins a per-(predictor, class)
``searchsorted`` gives, on cdf and bucket edges too, and the batched
cutoff search and confusion count give what one call per metric or
cutoff gives.
"""

import dataclasses
import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import woesim as ws
from woesim import engine, io, scorecard
from woesim.configs import _GUIDE_BUCKETS, PROB_FLOOR, GuideTable, bin_cdf
from woesim.metrics import confusions, optimize_cutoffs

GRID = ws.default_cutoff_grid()


@st.composite
def weighted_scores(draw):
    """1-25 scores on a coarse grid (many ties), 0/1 labels and weights 1..6."""
    n = draw(st.integers(1, 25))
    ints = st.lists(st.integers(0, 12), min_size=n, max_size=n)
    probs = np.asarray(draw(ints), dtype=float) / 12.0
    labels = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    weights = np.asarray(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)))
    return probs, labels, weights


def replicate(weights, *arrays):
    return tuple(np.repeat(a, weights, axis=0) for a in arrays)


@given(weighted_scores(), st.sampled_from(GRID))
def test_weighted_confusion_equals_replicated_rows(data, theta):
    probs, labels, weights = data
    rows = replicate(weights, probs, labels)
    assert ws.confusion(probs, labels, theta, weights) == ws.confusion(*rows, theta)


@given(weighted_scores(), st.sampled_from([ws.METRIC_F1, ws.METRIC_P4]))
def test_weighted_optimize_cutoff_equals_replicated_rows(data, metric):
    probs, labels, weights = data
    rows = replicate(weights, probs, labels)
    assert ws.optimize_cutoff(probs, labels, metric, weights=weights) == ws.optimize_cutoff(
        *rows, metric
    )


@given(weighted_scores())
def test_weighted_gini_equals_replicated_rows(data):
    probs, labels, weights = data
    rows = replicate(weights, probs, labels)
    if labels.min() == labels.max():
        for args in ((probs, labels, weights), rows):
            with pytest.raises(ws.DegenerateDesign):
                ws.gini(*args)
    else:
        assert ws.gini(probs, labels, weights) == ws.gini(*rows)


@given(weighted_scores(), st.sampled_from(GRID))
def test_weighted_confusion_equals_masked_weight_sums(data, theta):
    probs, labels, weights = data
    pos, events = probs >= theta, labels == 1
    expected = [int(weights[mask].sum()) for mask in
                (pos & events, pos & ~events, ~pos & events, ~pos & ~events)]
    cm = ws.confusion(probs, labels, theta, weights)
    assert [cm.tp, cm.fp, cm.fn, cm.tn] == expected


@st.composite
def scores_with_nans(draw):
    """``weighted_scores``, some scores NaN, the weights sometimes left out."""
    probs, labels, weights = draw(weighted_scores())
    nans = draw(st.lists(st.booleans(), min_size=probs.size, max_size=probs.size))
    probs[np.asarray(nans)] = np.nan
    return probs, labels, weights if draw(st.booleans()) else None


@st.composite
def cutoff_lists(draw):
    """1-5 cutoffs, grid points or any in [0, 1], some repeated, some descending."""
    thetas = draw(st.lists(st.sampled_from(GRID) | st.floats(0.0, 1.0), min_size=1, max_size=3))
    thetas += draw(st.lists(st.sampled_from(thetas), max_size=2))
    if draw(st.booleans()):
        thetas.sort(reverse=True)
    return thetas


@given(scores_with_nans(), st.lists(st.sampled_from([ws.METRIC_F1, ws.METRIC_P4]), min_size=1, max_size=3))
def test_optimize_cutoffs_equals_one_search_per_metric(data, metric_ids):
    probs, labels, weights = data
    assert optimize_cutoffs(probs, labels, metric_ids, weights=weights) == tuple(
        ws.optimize_cutoff(probs, labels, metric, weights=weights) for metric in metric_ids
    )


@given(scores_with_nans(), cutoff_lists())
def test_confusions_equals_one_count_per_cutoff(data, thetas):
    probs, labels, weights = data
    assert confusions(probs, labels, thetas, weights) == tuple(
        ws.confusion(probs, labels, theta, weights) for theta in thetas
    )


@st.composite
def binned_samples(draw, max_rows=80):
    """A sample over 1-3 predictors of 2-4 bins, holding both classes."""
    bin_counts = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    n = draw(st.integers(2, max_rows))
    X = np.column_stack([
        draw(st.lists(st.integers(1, k), min_size=n, max_size=n)) for k in bin_counts
    ])
    Y = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    Y[0], Y[1] = 1, 0
    return ws.Sample(X=X, Y=Y), bin_counts


@given(binned_samples())
def test_compress_preserves_per_class_bin_counts(data):
    sample, bin_counts = data
    cells, weights = ws.compress(sample, bin_counts)
    assert weights.dtype == np.int64 and weights.min() >= 1 and weights.sum() == sample.n
    if math.prod(bin_counts) > sample.n:
        assert cells is sample and np.all(weights == 1)
    else:
        keys = [(tuple(x), y) for x, y in zip(cells.X.tolist(), cells.Y.tolist())]
        assert len(set(keys)) == len(keys)
    replicated = ws.Sample(*replicate(weights, cells.X, cells.Y))
    assert ws.estimate_woe(replicated, bin_counts) == ws.estimate_woe(sample, bin_counts)


@pytest.mark.parametrize("reduced", [True, False], ids=["K<=n", "K>n"])
@given(data=binned_samples(), draw=st.data())
def test_weighted_woe_equals_replicated_rows(reduced, data, draw):
    sample, bin_counts = data
    assume((math.prod(bin_counts) <= sample.n) == reduced)
    expected = ws.estimate_woe(sample, bin_counts)
    cells, weights = ws.compress(sample, bin_counts)
    assert ws.estimate_woe(cells, bin_counts, weights=weights) == expected
    weights = np.asarray(draw.draw(st.lists(st.integers(1, 5), min_size=sample.n, max_size=sample.n)))
    replicated = ws.Sample(*replicate(weights, sample.X, sample.Y))
    assert ws.estimate_woe(sample, bin_counts, weights=weights) == ws.estimate_woe(
        replicated, bin_counts
    )


@given(binned_samples(), st.data())
def test_compress_refuses_out_of_range_bins(data, draw):
    sample, bin_counts = data
    assume(math.prod(bin_counts) <= sample.n)
    j = draw.draw(st.integers(0, sample.d - 1))
    bad = draw.draw(st.sampled_from([0, -1, bin_counts[j] + 1]))
    X = sample.X.copy()
    X[draw.draw(st.integers(0, sample.n - 1)), j] = bad
    with pytest.raises(IndexError):
        ws.compress(ws.Sample(X=X, Y=sample.Y), bin_counts)


@st.composite
def weighted_designs(draw):
    """Distinct integer design points, each observed in both classes.

    Every point carrying both classes rules out separation, so the MLE is
    finite and the fit converges to it.
    """
    d = draw(st.integers(1, 2))
    n_points = draw(st.integers(d + 2, 7 if d == 1 else 8))
    points = draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * d), min_size=n_points, max_size=n_points, unique=True
    ))
    F = np.repeat(np.asarray(points, dtype=float), 2, axis=0)
    y = np.tile([1.0, 0.0], n_points)
    weights = np.asarray(draw(st.lists(st.integers(1, 30), min_size=2 * n_points, max_size=2 * n_points)))
    return F, y, weights


def _distance_to_mle(F, y, weights, beta) -> float:
    """Newton's estimate of how far ``beta`` lies from the MLE: |H^-1 score|."""
    design = np.column_stack([np.ones(len(F)), F])
    p = 1.0 / (1.0 + np.exp(-(design @ np.asarray(beta))))
    score = design.T @ (weights * (y - p))
    hessian = (design * (weights * p * (1.0 - p))[:, None]).T @ design
    return float(np.max(np.abs(np.linalg.solve(hessian, score))))


@given(weighted_designs())
def test_weighted_fit_matches_replicated_rows(data):
    F, y, weights = data
    weighted = ws.fit_logistic(F, y, weights)
    replicated = ws.fit_logistic(*replicate(weights, F, y))
    assert weighted.converged and replicated.converged
    # Each fit stops a little short of the MLE: once its score is under
    # 1e-8, or once rounding in the log-likelihood hides further ascent
    # (sooner over replicated rows, whose sum has more terms).  Beyond that
    # residual distance, measured at both final points, the two fits agree
    # to 1e-9.
    slack = _distance_to_mle(F, y, weights, weighted.beta) + _distance_to_mle(
        F, y, weights, replicated.beta
    )
    np.testing.assert_allclose(weighted.beta, replicated.beta, rtol=0, atol=1e-9 + slack)
    assert weighted.loglik == pytest.approx(replicated.loglik, rel=1e-12)


@st.composite
def square_systems(draw):
    """A k x k system, k = 1..6, that is often singular: small-integer or
    real entries, sometimes a column copied, scaled or zeroed, and a scale
    from 1e-3 to 1e5."""
    k = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-2, 2), st.floats(-4.0, 4.0))
    A = np.asarray(draw(st.lists(entry, min_size=k * k, max_size=k * k)), dtype=float)
    A = A.reshape(k, k)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        A[:, i] = draw(st.sampled_from([0.0, 1.0, -2.5])) * A[:, j]
    grad = np.asarray(draw(st.lists(entry, min_size=k, max_size=k)), dtype=float)
    return draw(st.sampled_from([1e-3, 1.0, 1e5])) * A, grad


@given(square_systems())
def test_newton_step_is_numpy_solve_or_lstsq_where_solve_raises(system):
    hessian, grad = system
    try:
        expected = np.linalg.solve(hessian, grad)
    except np.linalg.LinAlgError:
        expected = np.linalg.lstsq(hessian, grad, rcond=None)[0]
    step = scorecard._newton_step(hessian, grad)
    assert step.dtype == expected.dtype and step.shape == expected.shape
    assert step.tobytes() == expected.tobytes()


# Text that CSV must quote or that is not ASCII, mixed into arbitrary text.
_AWKWARD_TEXT = st.one_of(
    st.text(),
    st.sampled_from(["", "a,b", 'say "hi"', "cr\rlf\nboth\r\n", "naïve ✓ 模型", " lead"]),
)
# Floats with NaN, +-inf, -0.0 and subnormals.
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308]),
)
_STRATEGY_BY_TYPE = {
    "str": _AWKWARD_TEXT,
    "int": st.integers(-(2**63), 2**63),
    "float": _ANY_FLOAT,
    "bool": st.booleans(),
}


def _records_of(cls):
    fields = {f.name: _STRATEGY_BY_TYPE[f.type] for f in dataclasses.fields(cls)}
    return st.lists(st.builds(cls, **fields), max_size=5)


def _field_reprs(records):
    return [[repr(getattr(r, f.name)) for f in dataclasses.fields(r)] for r in records]


@pytest.mark.parametrize(
    "cls, save, load",
    [
        (ws.IterationRecord, io.save_results_csv, io.load_results_csv),
        (ws.SummaryRecord, io.save_summary_csv, io.load_summary_csv),
    ],
    ids=["results", "summary"],
)
@given(data=st.data())
def test_csv_save_load_save_round_trips_any_record(cls, save, load, data):
    records = data.draw(_records_of(cls))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
        save(records, first)
        loaded = load(first)
        save(loaded, second)
        # NaN != NaN, so the records are compared through their field reprs
        assert _field_reprs(loaded) == _field_reprs(records)
        assert second.read_bytes() == first.read_bytes()


@given(
    bins=st.lists(st.integers(2, 5), min_size=1, max_size=3),
    # up to 30, so that few bins sometimes cannot reach the target
    target=st.floats(0.01, 30.0),
    tol=st.floats(0.005, 0.5),
    seed=st.integers(0, 2**32),
)
def test_synthesize_config_hits_target_or_raises(bins, target, tol, seed):
    stream = ws.RngStream(seed, 0, "synth")
    try:
        config = ws.synthesize_config(len(bins), bins, target, tol, stream)
    except ws.TargetUnreachable:
        return
    assert config.bin_counts == tuple(bins)
    assert abs(ws.aggregate_iv(config).aiv - target) <= tol


@st.composite
def sampling_inputs(draw):
    """A config of 1-4 predictors with 2-6 bins, a plan and a seed."""
    predictors = []
    for j in range(draw(st.integers(1, 4))):
        n_bins = draw(st.integers(2, 6))
        dists = []
        for _ in range(2):
            mass = np.asarray(draw(st.lists(st.integers(1, 20), min_size=n_bins, max_size=n_bins)))
            dists.append(mass / mass.sum())
        predictors.append(ws.PredictorSpec(f"X{j + 1}", *dists))
    n = draw(st.integers(2, 60))
    n1 = draw(st.integers(1, n - 1))
    plan = ws.SamplingPlan(n=n, n1=n1, pi1=n1 / n)
    return ws.ConfigSpec("P", tuple(predictors)), plan, draw(st.integers(0, 2**32))


def reference_sample(config, plan, gen):
    """The documented stream layout, one predictor at a time: its n1 event
    variates, then its n - n1 nonevent variates."""
    columns = []
    for p in config.predictors:
        events = np.searchsorted(bin_cdf(p.p_event), gen.random(plan.n1), side="right")
        nonevents = np.searchsorted(
            bin_cdf(p.p_nonevent), gen.random(plan.n - plan.n1), side="right"
        )
        columns.append(np.concatenate([events, nonevents]) + 1)
    return np.column_stack(columns)


@given(sampling_inputs())
def test_generate_sample_follows_documented_stream_layout(data):
    config, plan, seed = data
    gen = np.random.default_rng(seed)
    sample = ws.generate_sample(config, plan, gen)
    expected_gen = np.random.default_rng(seed)
    assert np.array_equal(sample.X, reference_sample(config, plan, expected_gen))
    assert sample.Y.tolist() == [1] * plan.n1 + [0] * (plan.n - plan.n1)
    # the sample consumed exactly d * n variates: both streams continue alike
    assert gen.random() == expected_gen.random()


@st.composite
def bin_dist(draw, n_bins):
    """n_bins probabilities, each PROB_FLOOR to a few times it or ordinary,
    summing to 1."""
    tiny = st.sampled_from([PROB_FLOOR, 2 * PROB_FLOOR, 3 * PROB_FLOOR])
    raw = draw(st.lists(tiny | st.floats(0.01, 1.0), min_size=n_bins, max_size=n_bins))
    raw[draw(st.integers(0, n_bins - 1))] = 0.5  # room for the tiny bins
    big = [p for p in raw if p >= 0.01]
    rest = 1.0 - math.fsum(p for p in raw if p < 0.01)
    return tuple(p if p < 0.01 else p / math.fsum(big) * rest for p in raw)


@st.composite
def guide_inputs(draw, min_bins=1):
    """1-4 predictors of min_bins-8 bins, and (d, n) variates that hit cdf
    edges, the doubles just below them, the bucket edges k/M, the inside
    of the buckets edges cut, and anywhere else in [0, 1)."""
    predictors = []
    for _ in range(draw(st.integers(1, 4))):
        n_bins = draw(st.integers(min_bins, 8))
        predictors.append(SimpleNamespace(p_event=draw(bin_dist(n_bins)), p_nonevent=draw(bin_dist(n_bins))))
    edges = sorted({
        float(e) for p in predictors for dist in (p.p_event, p.p_nonevent) for e in bin_cdf(dist)[:-1]
    }) or [0.5]
    M = _GUIDE_BUCKETS
    below_one = float(np.nextafter(1.0, 0.0))
    variate = st.one_of(
        st.sampled_from(edges),
        st.sampled_from(edges).map(lambda e: float(np.nextafter(e, 0.0))),
        st.integers(0, M - 1).map(lambda k: k / M),
        st.tuples(st.sampled_from(edges), st.floats(0.0, 1.0, exclude_max=True)).map(
            lambda t: min((math.floor(t[0] * M) + t[1]) / M, below_one)
        ),
        st.floats(0.0, 1.0, exclude_max=True),
        st.just(below_one),
    )
    n = draw(st.integers(2, 40))
    n1 = draw(st.integers(1, n - 1))
    u = np.asarray(draw(st.lists(variate, min_size=len(predictors) * n, max_size=len(predictors) * n)))
    return predictors, u.reshape(len(predictors), n), n1


def reference_bins(predictors, u, n1):
    """The reference inversion: one ``searchsorted`` per (predictor, class)."""
    X = np.empty(u.shape[::-1], dtype=np.int64)
    for j, p in enumerate(predictors):
        X[:n1, j] = np.searchsorted(bin_cdf(p.p_event), u[j, :n1], side="right") + 1
        X[n1:, j] = np.searchsorted(bin_cdf(p.p_nonevent), u[j, n1:], side="right") + 1
    return X


@settings(max_examples=300)
@given(guide_inputs())
def test_guide_table_equals_searchsorted_per_predictor_and_class(data):
    predictors, u, n1 = data
    assert np.array_equal(GuideTable(predictors).invert(u, n1), reference_bins(predictors, u, n1))


@given(guide_inputs(min_bins=2))
def test_generate_sample_inverts_any_variates_as_searchsorted(data):
    predictors, u, n1 = data
    config = ws.ConfigSpec("P", tuple(
        ws.PredictorSpec(f"X{j + 1}", p.p_event, p.p_nonevent) for j, p in enumerate(predictors)
    ))
    plan = ws.SamplingPlan(n=u.shape[1], n1=n1, pi1=n1 / u.shape[1])
    gen = SimpleNamespace(random=lambda shape: u.reshape(shape))
    assert np.array_equal(ws.generate_sample(config, plan, gen).X, reference_bins(predictors, u, n1))


@settings(max_examples=5)
@given(
    configs=st.lists(st.sampled_from("ABCD"), min_size=1, max_size=2, unique=True),
    sizes=st.lists(st.integers(20, 120), min_size=1, max_size=2, unique=True),
    rates=st.lists(st.sampled_from([0.05, 0.1, 0.2, 0.3]), min_size=1, max_size=2, unique=True),
    iterations=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)
def test_run_grid_records_do_not_depend_on_the_schedule(configs, sizes, rates, iterations, seed):
    spec = ws.RunSpec(
        configs=tuple(ws.BUILTIN_CONFIGS[c] for c in configs), sizes=tuple(sizes),
        rates=tuple(rates), iterations=iterations, master_seed=seed,
    )
    # degenerate records hold NaN, which never equals itself, so compare reprs
    assert repr(ws.run_grid(spec, workers=2)) == repr(ws.run_grid(spec))


# ties, signed zeros and NaN; inf is left out, as np.quantile warns on it
_SUMMARY_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 1.0, math.nan]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
_METRIC_FIELDS = [f.name for f in dataclasses.fields(ws.IterationRecord)][7:]


@st.composite
def summary_cells(draw):
    """Records of one or two cells, degenerate (all-NaN) records mixed in."""
    records = []
    for n in draw(st.sets(st.sampled_from([50, 100, 250]), min_size=1, max_size=2)):
        size = draw(st.integers(1, 40))
        degenerate = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        degenerate[draw(st.integers(0, size - 1))] = False  # one valid record at least
        for i, flagged in enumerate(degenerate):
            row = {name: math.nan if flagged else draw(_SUMMARY_VALUE) for name in _METRIC_FIELDS}
            if not flagged:
                row["f1_val"] = draw(_SUMMARY_VALUE.filter(lambda v: not math.isnan(v)))
            records.append(ws.IterationRecord(
                config_id="B", aiv=1.5, n=n, event_rate=0.05, iteration=i,
                clamped=False, converged=not flagged and draw(st.booleans()), **row,
            ))
    return draw(st.permutations(records))


@settings(max_examples=60)
@given(summary_cells())
def test_summary_quantiles_equal_one_quantile_call_per_field(records):
    expected = []
    for n in sorted({r.n for r in records}):
        valid = [r for r in records if r.n == n and r.valid]
        for metric, split in engine.SUMMARY_FIELDS:
            field = metric if metric.startswith("theta") else f"{metric}_{split}"
            values = np.asarray([getattr(r, field) for r in valid])
            p05, q25, median, q75, p95 = np.quantile(values, (0.05, 0.25, 0.50, 0.75, 0.95))
            expected.append([
                n, metric, split, repr(float(median)), repr(float(q25)), repr(float(q75)),
                repr(float(p05)), repr(float(p95)), len(valid), sum(not r.converged for r in valid),
            ])
    expected.sort(key=lambda row: row[:3])  # summaries come in (cell, metric, split) order
    summary = [
        [r.n, r.metric, r.split, repr(r.median), repr(r.q25), repr(r.q75),
         repr(r.p05), repr(r.p95), r.n_iter, r.n_nonconverged]
        for r in ws.summarize(records)
    ]
    assert summary == expected
