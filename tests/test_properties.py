"""Property tests.

A weighted row counts exactly as that many replicated rows: the engine
takes every split of at least as many rows as joint cells as a ``Sample``
of weighted cells (``generate_cells``) and hands its weights to the WoE
estimate, the fit and the metrics, so each of them must agree with the
unweighted call on the rows the weights stand for, and a WoE table
rebuilt from an estimate's rows transforms bit for bit as the estimate
does.  The fit's Newton step solves as ``np.linalg.solve`` does and
falls back to least squares exactly where that raises.  The results and summary CSVs round-trip
any record without an infinity; the savers refuse one with, naming its
column and record, and the loaders too, naming its line and column; the config synthesiser either hits its target or says it
cannot, a sampling plan holds floor(rate * n) events or one flagged
event, the sampler consumes its stream in the documented order, the
grid's records do not depend on the schedule, each of them is the one
``run_iteration`` gives at its address, and each summary quantile is
the one ``np.quantile`` gives on its field alone.
The sampler's guide-table lookup gives the bins a per-(predictor, class)
``searchsorted`` gives, on cdf and bucket edges too, a split drawn
straight into cells holds the cell counts of the rows ``generate_sample``
draws from the same stream, and the cutoff search, counts and F1/P4
scores the engine reads off a split's ranking give what one public call
per metric or cutoff gives and what masked weight sums at each cutoff,
which sort nothing, give.
"""

import csv
import math
import tempfile
import typing
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import woesim as ws
from woesim import engine, io, scorecard
from woesim.configs import PROB_FLOOR
from woesim.metrics import CutoffResult, _rank
from woesim.sampling import _GUIDE_BUCKETS, GuideTable, bin_cdf

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


@given(scores_with_nans())
def test_optimize_cutoffs_equals_one_search_per_metric(data):
    # the engine's one search gives the F1 cutoff, then the P4 cutoff
    probs, labels, weights = data
    assert _rank(probs, labels, weights).best_cutoffs() == tuple(
        ws.optimize_cutoff(probs, labels, metric, weights=weights)
        for metric in (ws.METRIC_F1, ws.METRIC_P4)
    )


@given(scores_with_nans(), cutoff_lists())
def test_confusions_equals_one_count_per_cutoff(data, thetas):
    probs, labels, weights = data
    counts = _rank(probs, labels, weights).counts_at(thetas)
    assert [ws.ConfusionMatrix(*column) for column in counts.T.tolist()] == [
        ws.confusion(probs, labels, theta, weights) for theta in thetas
    ]


@st.composite
def tallied_cutoffs(draw):
    """Cutoffs for ``scores_with_nans``: grid points, scores of the split
    itself and any in [0, 1], unsorted and some repeated."""
    probs, labels, weights = draw(scores_with_nans())
    numbers = [float(p) for p in probs if p == p]
    pick = st.sampled_from(GRID) | st.floats(0.0, 1.0)
    if numbers:
        pick |= st.sampled_from(numbers)
    thetas = draw(st.lists(pick, min_size=1, max_size=5))
    thetas += draw(st.lists(st.sampled_from(thetas), max_size=2))
    return (probs, labels, weights), draw(st.permutations(thetas))


def tally(probs, labels, weights, theta) -> list[int]:
    """tp, fp, fn and tn at ``theta`` as masked weight sums.  A NaN score
    ranks above every number, so it is never below a cutoff."""
    w = np.ones(probs.size, dtype=np.int64) if weights is None else weights
    pos, events = ~(probs < theta), labels == 1
    return [int(w[mask].sum()) for mask in
            (pos & events, pos & ~events, ~pos & events, ~pos & ~events)]


def tallied_scores(counts) -> tuple[list[float], list[float]]:
    """F1 and P4 from each (tp, fp, fn, tn) tally, 0 where 0/0."""
    f1s = [2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0 for tp, fp, fn, _ in counts]
    p4s = [
        4 * tp * tn / den if (den := 4 * tp * tn + (tp + tn) * (fp + fn)) else 0.0
        for tp, fp, fn, tn in counts
    ]
    return f1s, p4s


@given(tallied_cutoffs())
def test_confusions_equal_a_direct_tally_at_each_cutoff(data):
    (probs, labels, weights), thetas = data
    ranking = _rank(probs, labels, weights)
    counts = [tally(probs, labels, weights, theta) for theta in thetas]
    assert ranking.counts_at(thetas).T.tolist() == counts
    assert [s.tolist() for s in ranking.scores_at(thetas)] == list(tallied_scores(counts))


@given(scores_with_nans())
def test_optimize_cutoffs_equal_the_first_argmax_over_tallies_on_the_grid(data):
    probs, labels, weights = data
    expected = []
    for scores in tallied_scores([tally(probs, labels, weights, theta) for theta in GRID]):
        best = scores.index(max(scores))  # the first maximum, the smallest cutoff
        expected.append(CutoffResult(theta=float(GRID[best]), score=scores[best]))
    assert _rank(probs, labels, weights).best_cutoffs() == tuple(expected)


@st.composite
def binned_samples(draw, max_rows=80, weighted=False):
    """A sample over 1-3 predictors of 2-4 bins, holding both classes; with
    ``weighted``, its rows weigh 0-4, the first event and nonevent at least 1."""
    bin_counts = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    n = draw(st.integers(2, max_rows))
    X = np.column_stack([
        draw(st.lists(st.integers(1, k), min_size=n, max_size=n)) for k in bin_counts
    ])
    Y = np.asarray(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    Y[0], Y[1] = 1, 0
    w = None
    if weighted:
        w = np.asarray(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        w[:2] += w[:2] == 0
    return ws.Sample(X=X, Y=Y, bin_counts=bin_counts, w=w)


def expand(sample):
    """The unweighted rows a weighted sample stands for."""
    return ws.Sample(*replicate(sample.w, sample.X, sample.Y), bin_counts=sample.bin_counts)


def cell_totals(sample) -> dict:
    """Each (bins, class) pair's total weight, pairs of weight 0 left out."""
    totals = {}
    for x, y, w in zip(map(tuple, sample.X.tolist()), sample.Y.tolist(), sample.w.tolist()):
        totals[x, y] = totals.get((x, y), 0) + w
    return {key: w for key, w in totals.items() if w}


@given(binned_samples(weighted=True))
def test_weighted_woe_equals_replicated_rows(sample):
    # weighted rows give the WoE rows, fit, cutoffs, confusion counts and Gini
    # of the rows they stand for, as ``run_iteration`` computes each
    rows = expand(sample)
    table = ws.estimate_woe(sample)
    assert table == ws.estimate_woe(rows)
    F, row_F = ws.transform(sample, table), ws.transform(rows, table)
    # the fit's weighted design is the rows' design, so it fits their model
    # (``test_weighted_fit_matches_replicated_rows``); a fit on the rows
    # themselves is not compared, as under separation its longer sums stop
    # it elsewhere
    design = np.column_stack([F, sample.Y])
    row_design = np.column_stack([row_F, rows.Y])
    assert sorted(np.repeat(design, sample.w, axis=0).tolist()) == sorted(row_design.tolist())
    model = ws.fit_logistic(F, sample.Y, sample.w)
    # each row takes its weighted row's score, so the rest is exact
    probs = ws.predict_proba(model, F)
    row_probs = np.repeat(probs, sample.w)
    row_labels = np.repeat(sample.Y, sample.w)
    ranking, row_ranking = _rank(probs, sample.Y, sample.w), _rank(row_probs, row_labels, None)
    cuts = ranking.best_cutoffs()
    assert cuts == row_ranking.best_cutoffs()
    thetas = [cut.theta for cut in cuts]
    assert ranking.counts_at(thetas).tolist() == row_ranking.counts_at(thetas).tolist()
    assert ranking.gini() == row_ranking.gini()


@given(st.booleans().flatmap(lambda weighted: binned_samples(weighted=weighted)),
       st.sampled_from([0.5, 1e-3]))
def test_woe_table_rebuilt_from_its_rows_transforms_bit_for_bit(sample, theta_adj):
    # a table is its rows: one built by hand from an estimate's rows equals it
    # and builds the same lookup
    table = ws.estimate_woe(sample, theta_adj)
    rebuilt = ws.WoeTable(woe=table.woe)
    assert rebuilt == table
    assert ws.transform(sample, rebuilt).tobytes() == ws.transform(sample, table).tobytes()


@given(binned_samples(), st.data())
def test_sample_refuses_out_of_range_bins(sample, draw):
    j = draw.draw(st.integers(0, sample.d - 1))
    bad = draw.draw(st.sampled_from([0, -1, sample.bin_counts[j] + 1]))
    X = sample.X.copy()
    X[draw.draw(st.integers(0, sample.n - 1)), j] = bad
    with pytest.raises(IndexError, match=rf"predictor {j + 1}: bin index outside 1\.\.{sample.bin_counts[j]}"):
        ws.Sample(X=X, Y=sample.Y, bin_counts=sample.bin_counts)


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


@given(weighted_designs(), st.data())
def test_fit_solves_the_intercept_score_equation_in_any_row_order(design, data):
    # properties of the MLE, whatever point the fit starts from: the fitted
    # events sum to the observed ones, and the fitted probabilities do not
    # depend on the order of the rows
    F, y, weights = design
    # a design of full column rank, so the MLE is unique
    assume(np.linalg.matrix_rank(np.column_stack([np.ones(len(F)), F])) == F.shape[1] + 1)
    model = ws.fit_logistic(F, y, weights)
    assert model.converged
    probs = ws.predict_proba(model, F)
    assert abs(weights @ (y - probs)) <= 1e-6 * weights.sum()
    order = np.asarray(data.draw(st.permutations(range(len(y)))))
    shuffled = ws.fit_logistic(F[order], y[order], weights[order])
    # each fit stops a little short of the MLE (see
    # ``test_weighted_fit_matches_replicated_rows``); with |x| <= 3 and at
    # most 2 features a coefficient off by s moves a probability by at most
    # 7s / 4, so beyond that the probabilities agree to 1e-9
    slack = _distance_to_mle(F, y, weights, model.beta) + _distance_to_mle(
        F, y, weights, shuffled.beta
    )
    np.testing.assert_allclose(
        ws.predict_proba(shuffled, F), probs, rtol=0, atol=1e-9 + 2 * slack
    )


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
# Floats with NaN, -0.0 and subnormals; the loaders refuse an infinity.
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([math.nan, -0.0, 5e-324, 2.2250738585072014e-308]),
)
_STRATEGY_BY_TYPE = {
    str: _AWKWARD_TEXT,
    int: st.integers(-(2**63), 2**63),
    float: _ANY_FLOAT,
    bool: st.booleans(),
}


def _records_of(cls):
    fields = {name: _STRATEGY_BY_TYPE[kind] for name, kind in typing.get_type_hints(cls).items()}
    return st.lists(st.builds(cls, **fields), max_size=5)


def _field_reprs(records):
    return [[repr(getattr(r, name)) for name in r._fields] for r in records]


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


@pytest.mark.parametrize(
    "cls, save, load",
    [
        (ws.IterationRecord, io.save_results_csv, io.load_results_csv),
        (ws.SummaryRecord, io.save_summary_csv, io.load_summary_csv),
    ],
    ids=["results", "summary"],
)
@given(data=st.data())
def test_csv_load_refuses_an_infinity_naming_its_line_and_column(cls, save, load, data):
    records = data.draw(_records_of(cls).filter(bool))
    floats = [name for name, kind in typing.get_type_hints(cls).items() if kind is float]
    column = data.draw(st.sampled_from(floats))
    value = data.draw(st.sampled_from([math.inf, -math.inf]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "records.csv")
        # the saver refuses an infinity, so it goes into the written text
        save(records, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[1][cls._fields.index(column)] = repr(value)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        # the first record's row starts on line 2, however many lines it spans
        with pytest.raises(ws.SchemaError, match=f"line 2, column {column!r}: infinite value"):
            load(path)


@pytest.mark.parametrize(
    "cls, save",
    [(ws.IterationRecord, io.save_results_csv), (ws.SummaryRecord, io.save_summary_csv)],
    ids=["results", "summary"],
)
@given(data=st.data())
def test_csv_save_refuses_an_infinity_naming_its_column_and_record(cls, save, data):
    # a file the savers write is one the loaders read: they refuse an infinity
    records = data.draw(_records_of(cls).filter(bool))
    floats = [name for name, kind in typing.get_type_hints(cls).items() if kind is float]
    column = data.draw(st.sampled_from(floats))
    at = data.draw(st.integers(0, len(records) - 1))
    value = data.draw(st.sampled_from([math.inf, -math.inf]))
    records[at] = records[at]._replace(**{column: value})
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(ValueError) as refused:
            save(records, Path(tmp, "records.csv"))
    assert str(refused.value).endswith(f"column {column!r} is infinite in {records[at]!r}")


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
    """A config of 1-4 predictors with 2-6 bins, a plan and a stream."""
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
    stream = ws.RngStream(
        draw(st.integers(0, 2**32)), draw(st.integers(0, 10**6)), draw(st.sampled_from(["train", "val", "test"]))
    )
    return ws.ConfigSpec("P", tuple(predictors)), plan, stream


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


@given(st.integers(-5, 10**6), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_make_plan_is_the_one_event_count_rule(n, rate):
    # floor(rate * n) events, lifted to one and flagged when the floor is
    # 0; a plan without room for both classes is refused, and nothing else
    floor = math.floor(rate * n + 1e-9)
    try:
        plan = ws.make_plan(n, ws.EventRate(rate))
    except ws.DegeneratePlan:
        assert n < 2 or floor >= n
        return
    assert (plan.n, plan.pi1) == (n, rate)
    assert plan.n1 == max(1, floor) and plan.clamped == (floor == 0)
    assert 1 <= plan.n1 < n


@given(sampling_inputs())
def test_generate_sample_follows_documented_stream_layout(data):
    config, plan, stream = data
    sample = ws.generate_sample(config, plan, stream)
    assert np.array_equal(sample.X, reference_sample(config, plan, stream.generator()))
    assert sample.Y.tolist() == [1] * plan.n1 + [0] * (plan.n - plan.n1)
    # the sample passes every check of a Sample, which generate_sample skips
    assert sample.bin_counts == config.bin_counts and sample.w.tolist() == [1] * plan.n
    ws.Sample(X=sample.X, Y=sample.Y, bin_counts=sample.bin_counts, w=sample.w)
    assert all(a.dtype == np.int64 and not a.flags.writeable for a in (sample.X, sample.Y, sample.w))


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
def guide_inputs(draw):
    """1-4 predictors of 1-8 bins, and (d, n) variates that hit cdf
    edges, the doubles just below them, the bucket edges k/M, the inside
    of the buckets edges cut, and anywhere else in [0, 1)."""
    predictors = []
    for _ in range(draw(st.integers(1, 4))):
        n_bins = draw(st.integers(1, 8))
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
    assert np.array_equal(GuideTable(predictors).lookup(u, n1).T, reference_bins(predictors, u, n1))


@st.composite
def cell_draws(draw):
    """A config with K <= n joint cells, a plan of n rows at a rate or at a
    fixed event count, and a stream address.  The config is hand-built
    over 1-3 predictors of 2-5 bins (tiny bins put cdf edges inside guide
    buckets), synthesized, or a built-in one."""
    kind = draw(st.sampled_from(["hand-built", "synthesized", "built-in"]))
    if kind == "hand-built":
        predictors = tuple(
            ws.PredictorSpec(f"X{j}", draw(bin_dist(b)), draw(bin_dist(b)))
            for j, b in enumerate(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
        )
        config = ws.ConfigSpec(id="cells", predictors=predictors)
    elif kind == "synthesized":
        bins = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
        config = ws.synthesize_config(
            d=len(bins), bins=bins, target_aiv=draw(st.sampled_from([0.2, 1.0, 3.0])), tol=0.05,
            rng=ws.RngStream(draw(st.integers(0, 50))),
        )
    else:
        config = ws.BUILTIN_CONFIGS[draw(st.sampled_from("ABCD"))]
    n = math.prod(config.bin_counts) + draw(st.integers(0, 400))
    if draw(st.booleans()):
        plan = ws.make_plan(n, ws.EventRate(draw(st.floats(0.001, 0.5))))
    else:
        n1 = draw(st.integers(1, n - 1))
        plan = ws.SamplingPlan(n=n, n1=n1, pi1=n1 / n)
    stream = ws.RngStream(
        draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 2**20)),
        draw(st.sampled_from(["train", "val", "test"])),
    )
    return config, plan, stream


@settings(max_examples=150)
@given(cell_draws())
def test_generate_cells_counts_the_rows_generate_sample_draws(data):
    config, plan, stream = data
    generator = ws.RngStream.generator
    with mock.patch.object(ws.RngStream, "generator", autospec=True, side_effect=generator) as calls:
        cells = ws.generate_cells(config, plan, stream)
    assert calls.call_count == 1
    assert cells.bin_counts == config.bin_counts
    # the oracle counts rows by their bins, so it shares no cell code or
    # cell table with generate_cells
    assert cell_totals(cells) == cell_totals(ws.generate_sample(config, plan, stream))
    keys = [(tuple(x), y) for x, y in zip(cells.X.tolist(), cells.Y.tolist())]
    assert len(set(keys)) == len(keys) and cells.w.min() >= 1
    # event rows first, each class in ascending bin order (the C-order
    # cell code): the fit's sums, so every recorded bit, follow this order
    order = [(-y, x) for x, y in keys]
    assert order == sorted(order)
    for a in (cells.X, cells.Y, cells.w):
        assert a.dtype == np.int64 and a.flags.c_contiguous and not a.flags.writeable
    # the cells pass every check of a Sample, which generate_cells skips
    ws.Sample(X=cells.X, Y=cells.Y, bin_counts=cells.bin_counts, w=cells.w)


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


@settings(max_examples=10)
@given(
    configs=st.lists(st.sampled_from("ABCD"), min_size=1, max_size=2, unique=True),
    sizes=st.lists(st.integers(20, 120), min_size=1, max_size=2, unique=True),
    rates=st.lists(st.sampled_from([0.01, 0.05, 0.1, 0.3]), min_size=1, max_size=2, unique=True),
    iterations=st.integers(1, 3),
    theta_adj=st.sampled_from([0.5, 1e-3]),
    fixed_events=st.none() | st.integers(1, 19),
    seed=st.integers(0, 2**32),
)
@example(
    configs=["C"], sizes=[20, 57], rates=[0.05], iterations=2, theta_adj=1e-3, fixed_events=3, seed=11
)
def test_run_grid_records_equal_one_run_iteration_call_each(
    configs, sizes, rates, iterations, theta_adj, fixed_events, seed
):
    # the oracle a cell engine that runs a cell's iterations together must
    # keep: every record is the one its (config, plan, seed, iteration) gives
    spec = ws.RunSpec(
        configs=tuple(ws.BUILTIN_CONFIGS[c] for c in configs), sizes=tuple(sizes),
        rates=tuple(rates), iterations=iterations, master_seed=seed,
        theta_adj=theta_adj, fixed_events=fixed_events,
    )
    records = ws.run_grid(spec)
    cells = {(r.config_id, r.n, r.event_rate) for r in records}
    assert len(cells) == len(configs) * len(sizes) * (1 if fixed_events else len(rates))
    assert len(records) == len(cells) * iterations
    for record in records:
        if fixed_events:
            plan = ws.SamplingPlan(n=record.n, n1=fixed_events, pi1=fixed_events / record.n)
        else:
            plan = ws.make_plan(record.n, ws.EventRate(record.event_rate))
        expected = ws.run_iteration(
            ws.BUILTIN_CONFIGS[record.config_id], plan, seed, record.iteration, theta_adj=theta_adj
        )
        # degenerate records hold NaN, which never equals itself, so compare reprs
        assert repr(record) == repr(expected)


# ties, signed zeros and NaN; inf is left out, as np.quantile warns on it
_SUMMARY_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 1.0, math.nan]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
_METRIC_FIELDS = list(ws.IterationRecord._fields[7:])


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


# every value a metric field can hold once a CSV is loaded
_ANY_SUMMARY_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 1.0, math.nan, math.inf, -math.inf]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
_CELL_AIV = {"A": 0.4, "B": 1.5}


@st.composite
def summary_grids(draw):
    """Records of up to six cells with 1-4, 20-23 or 5-40 valid and 0-3
    degenerate records each, so cells often share a valid count and as
    often do not."""
    cell = st.tuples(st.sampled_from("AB"), st.sampled_from([50, 100]), st.sampled_from([0.01, 0.05]))
    records = []
    for config_id, n, rate in draw(st.lists(cell, min_size=1, max_size=6, unique=True)):
        n_valid = draw(st.one_of(st.integers(1, 4), st.integers(20, 23), st.integers(5, 40)))
        n_degenerate = draw(st.integers(0, 3))
        for i in range(n_valid + n_degenerate):
            flagged = i >= n_valid
            row = {name: math.nan if flagged else draw(_ANY_SUMMARY_VALUE) for name in _METRIC_FIELDS}
            if not flagged:
                row["f1_val"] = draw(_ANY_SUMMARY_VALUE.filter(lambda v: not math.isnan(v)))
            records.append(ws.IterationRecord(
                config_id=config_id, aiv=_CELL_AIV[config_id], n=n, event_rate=rate, iteration=i,
                clamped=False, converged=not flagged and draw(st.booleans()), **row,
            ))
    return draw(st.permutations(records))


@settings(max_examples=80)
@given(summary_grids())
def test_summary_equals_a_quantile_call_per_cell_and_field(records):
    # summarize stacks the cells that share a valid count into one call;
    # the reference reduces each field of each cell on its own.  inf - inf
    # between two order statistics is NaN, and numpy warns of it
    def cell_of(r):
        return (r.config_id, r.n, r.event_rate)

    expected = []
    with np.errstate(invalid="ignore"):
        for config_id, n, rate in sorted(set(map(cell_of, records))):
            valid = [r for r in records if cell_of(r) == (config_id, n, rate) and r.valid]
            for metric, split in engine.SUMMARY_FIELDS:
                field = metric if metric.startswith("theta") else f"{metric}_{split}"
                values = np.asarray([getattr(r, field) for r in valid])
                p05, q25, median, q75, p95 = np.quantile(values, (0.05, 0.25, 0.50, 0.75, 0.95)).tolist()
                expected.append(ws.SummaryRecord(
                    config_id, _CELL_AIV[config_id], n, rate, metric, split, median, q25, q75, p05, p95,
                    len(valid), sum(not r.converged for r in valid),
                ))
        summary = ws.summarize(records)
    expected.sort(key=ws.SummaryRecord.sort_key)
    # NaN never equals itself and -0.0 equals 0.0, so compare reprs
    assert list(map(repr, summary)) == list(map(repr, expected))
