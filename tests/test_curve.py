"""Logistic curve fitting and the attainable-score guideline table."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import woesim as ws
from woesim import curve

AIV_GRID = tuple(0.5 * i for i in range(1, 15))

# reference guideline rows (median F1 by event rate over the AIV grid)
ROW_1PCT = (0.06, 0.07, 0.09, 0.11, 0.13, 0.16, 0.19, 0.23, 0.27, 0.32, 0.37, 0.42, 0.47, 0.52)
ROW_5PCT = (0.19, 0.23, 0.27, 0.32, 0.36, 0.41, 0.47, 0.52, 0.57, 0.61, 0.65, 0.69, 0.73, 0.76)
ROW_10PCT = (0.28, 0.32, 0.38, 0.43, 0.48, 0.54, 0.59, 0.64, 0.68, 0.72, 0.76, 0.79, 0.81, 0.84)

# test-F1 medians at 1% and small n: a step on which every start runs to the 200-step cap
STEP_POINTS = [
    (0.37651121044153874, 0.0), (2.286914132726315, 0.0),
    (5.3631390202657725, 0.0), (16.509983110484303, 1.0),
]
NOISY_POINTS = [
    (1.6656, 0.2199), (1.6778, 0.2229), (3.0329, 0.3786), (3.1529, 0.378),
    (3.898, 0.4086), (5.2273, 0.5139), (6.387, 0.619), (7.2696, 0.6509),
]
CONSTANT_POINTS = [(a, 0.5) for a in (1.0, 2.0, 3.0, 4.0, 5.0)]

# exact (L, k, x0, rss) of each fit; guideline CSVs are byte-identical only while these hold
GOLDEN_FITS = [
    (STEP_POINTS, "(1.0, 3.540639850666155, 10.615269974984214, 7.118142666705218e-17)"),
    (list(zip(AIV_GRID, ROW_1PCT)),
     "(0.8934853941705236, 0.4644978569711142, 6.273066494248469, 5.265433362012919e-05)"),
    (list(zip(AIV_GRID, ROW_5PCT)),
     "(0.8993214442584738, 0.45785265378840434, 3.343798029139634, 0.0001639252186438699)"),
    (list(zip(AIV_GRID, ROW_10PCT)),
     "(0.9323437403222213, 0.46518983575505396, 2.3395779721455074, 0.00012677656668636422)"),
    (NOISY_POINTS,
     "(0.7403456884673353, 0.48945403056780085, 3.2658158623876337, 0.002369602346455295)"),
    (CONSTANT_POINTS, "(0.9999999999817709, 1e-08, 2.995809995131487, 6.250000766155205e-17)"),
]


def rss_gradient(fit, points):
    """Analytic gradient of the residual sum of squares at the fitted point."""
    a = np.asarray([p[0] for p in points])
    y = np.asarray([p[1] for p in points])
    s = 1.0 / (1.0 + np.exp(-fit.k * (a - fit.x0)))
    r = y - fit.L * s
    ds = s * (1.0 - s)
    return -2.0 * np.array([
        np.sum(r * s),
        np.sum(r * fit.L * ds * (a - fit.x0)),
        np.sum(r * (-fit.L * ds * fit.k)),
    ])


class TestFitLogisticCurve:
    def test_noiseless_recovery(self):
        truth = ws.CurveFit(L=0.8, k=0.5, x0=4.0, rss=0.0)
        points = [(a, truth.predict(a)) for a in np.arange(0.5, 8.01, 0.5)]
        fit = ws.fit_logistic_curve(points)
        assert fit.L == pytest.approx(0.8, abs=1e-6)
        assert fit.k == pytest.approx(0.5, abs=1e-6)
        assert fit.x0 == pytest.approx(4.0, abs=1e-6)
        assert fit.rss < 1e-12

    @pytest.mark.parametrize(
        "points, expected", GOLDEN_FITS, ids=["step", "1pct", "5pct", "10pct", "noisy", "constant"]
    )
    def test_golden_fit_values(self, points, expected):
        fit = ws.fit_logistic_curve(points)
        assert repr((fit.L, fit.k, fit.x0, fit.rss)) == expected

    def test_constant_data_degenerates_to_flat_curve(self):
        fit = ws.fit_logistic_curve(CONSTANT_POINTS)
        assert fit.rss <= 1e-10
        for a, _ in CONSTANT_POINTS:
            assert fit.predict(a) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("row", [ROW_1PCT, ROW_5PCT, ROW_10PCT])
    def test_reference_rows_round_trip(self, row):
        fit = ws.fit_logistic_curve(list(zip(AIV_GRID, row)))
        for a, expected in zip(AIV_GRID, row):
            assert fit.predict(a) == pytest.approx(expected, abs=0.01)

    def test_constraints_respected(self):
        gen = np.random.default_rng(8)
        for _ in range(10):
            a = np.sort(gen.uniform(0.2, 9.0, size=8))
            a += np.arange(8) * 1e-6  # keep strengths distinct
            y = np.clip(gen.random(8), 0.01, 0.99)
            fit = ws.fit_logistic_curve(list(zip(a, y)))
            assert 0.0 < fit.L <= 1.0
            assert fit.k > 0.0

    def test_interior_solution_is_stationary(self):
        points = list(zip(AIV_GRID, ROW_1PCT))
        fit = ws.fit_logistic_curve(points)
        assert np.max(np.abs(rss_gradient(fit, points))) < 1e-6

    def test_fitted_curve_strictly_increasing(self):
        fit = ws.fit_logistic_curve(list(zip(AIV_GRID, ROW_10PCT)))
        grid = np.linspace(0.0, 10.0, 50)
        values = fit.predict(grid)
        assert np.all(np.diff(values) > 0.0)

    def test_too_few_or_duplicate_points_rejected(self):
        with pytest.raises(ws.InsufficientPoints):
            ws.fit_logistic_curve([(1.0, 0.1), (2.0, 0.2), (3.0, 0.3)])
        with pytest.raises(ws.InsufficientPoints):
            ws.fit_logistic_curve([(1.0, 0.1), (1.0, 0.2), (3.0, 0.3), (4.0, 0.4)])


@st.composite
def curve_points(draw):
    """4-9 distinct strengths with scores in [0, 1], often exactly 0 or 1 (step-shaped)."""
    strengths = draw(st.lists(
        st.floats(0.1, 17.0, allow_nan=False), min_size=4, max_size=9, unique=True
    ))
    scores = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False))
    values = draw(st.lists(scores, min_size=len(strengths), max_size=len(strengths)))
    return sorted(zip(strengths, values))


def same(x, y):
    """Bitwise equality of float arrays, NaN included."""
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


class TestLockStepStarts:
    @settings(max_examples=15)
    @given(curve_points())
    def test_starts_never_couple(self, points):
        a = np.asarray([p[0] for p in points])
        y = np.asarray([p[1] for p in points])
        starts = curve._lattice_starts(a)
        theta, rss = curve._damped_gauss_newton(a, y, starts)
        best = None
        for i in range(len(starts)):
            alone_theta, alone_rss = curve._damped_gauss_newton(a, y, starts[i:i + 1])
            assert same(alone_theta[0], theta[i]) and same(alone_rss[0], rss[i])
            finite = np.all(np.isfinite(alone_theta)) and np.isfinite(alone_rss[0])
            if finite and (best is None or alone_rss[0] < best[1]):
                best = (alone_theta[0], alone_rss[0])
        fit = ws.fit_logistic_curve(points)
        assert (fit.L, fit.k, fit.x0, fit.rss) == (*best[0].tolist(), float(best[1]))

    def test_batch_mixing_first_try_and_retries_matches_each_start_alone(self, monkeypatch):
        # per outer iteration: the running start count, then the stack size of each try
        tries = []
        jacobian, solve = curve._jacobian, curve._solve

        def counting_jacobian(theta, s, a):
            tries.append([len(theta)])
            return jacobian(theta, s, a)

        def counting_solve(M, g):
            tries[-1].append(len(M))
            return solve(M, g)

        monkeypatch.setattr(curve, "_jacobian", counting_jacobian)
        monkeypatch.setattr(curve, "_solve", counting_solve)
        a = np.asarray([p[0] for p in NOISY_POINTS])
        y = np.asarray([p[1] for p in NOISY_POINTS])
        starts = curve._lattice_starts(a)
        # the tries of each start run alone, then those of the batch
        alone = []
        for i in range(len(starts)):
            curve._damped_gauss_newton(a, y, starts[i:i + 1])
            alone.append(tries.copy())
            tries.clear()
        theta, rss = curve._damped_gauss_newton(a, y, starts)
        # some outer iterations end on the first try over every running start;
        # in others some starts accept that try while the rest retry
        assert all(sizes[1] == sizes[0] for sizes in tries)
        assert any(len(sizes) == 2 for sizes in tries)
        assert any(
            len(sizes) > 2 and any(len(lone) > t and len(lone[t]) == 2 for lone in alone)
            for t, sizes in enumerate(tries)
        )
        monkeypatch.undo()
        for i in range(len(starts)):
            alone_theta, alone_rss = curve._damped_gauss_newton(a, y, starts[i:i + 1])
            assert same(alone_theta[0], theta[i]) and same(alone_rss[0], rss[i])

    @settings(max_examples=20, deadline=None)
    @given(curve_points(), st.lists(
        st.tuples(st.floats(-0.5, 1.5), st.floats(-2.0, 20.0), st.floats(-5.0, 25.0)),
        min_size=1, max_size=12,
    ))
    def test_random_starts_in_and_out_of_the_box_never_couple(self, points, starts):
        a = np.asarray([p[0] for p in points])
        y = np.asarray([p[1] for p in points])
        starts = np.asarray(starts)
        theta, rss = curve._damped_gauss_newton(a, y, starts)
        for i in range(len(starts)):
            alone_theta, alone_rss = curve._damped_gauss_newton(a, y, starts[i:i + 1])
            assert same(alone_theta[0], theta[i]) and same(alone_rss[0], rss[i])

    def test_lattice_order(self):
        starts = curve._lattice_starts(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert starts.shape == (27, 3)
        assert starts[0].tolist() == [0.5, 0.2, 2.0]
        assert starts[1].tolist() == [0.5, 0.2, 3.0]
        assert starts[3].tolist() == [0.5, 0.5, 2.0]
        assert starts[-1].tolist() == [1.0, 1.0, 4.0]

    def test_singular_matrix_alone_falls_back_to_least_squares(self):
        M = np.stack([2.0 * np.eye(3), np.zeros((3, 3)), np.diag([1.0, 4.0, 8.0])])
        g = np.array([[2.0, 4.0, 6.0], [1.0, 1.0, 1.0], [1.0, 4.0, 8.0]])
        steps = curve._solve(M, g)
        assert same(steps[0], np.linalg.solve(M[0], g[0]))
        assert same(steps[1], np.linalg.lstsq(M[1], g[1], rcond=None)[0])
        assert same(steps[2], np.linalg.solve(M[2], g[2]))

    def test_regular_matrices_beside_a_singular_one_keep_the_solve_bytes(self):
        # general matrices, whose least-squares steps differ from the solve in the last bits
        gen = np.random.default_rng(8)
        M = gen.normal(size=(6, 3, 3))
        M[3] = np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 2.0])
        g = gen.normal(size=(6, 3))
        steps = curve._solve(M, g)
        for i in range(6):
            expected = np.linalg.lstsq(M[i], g[i], rcond=None)[0] if i == 3 else np.linalg.solve(M[i], g[i])
            assert same(steps[i], expected)


@pytest.fixture(scope="module")
def fits():
    return {
        0.01: ws.fit_logistic_curve(list(zip(AIV_GRID, ROW_1PCT))),
        0.05: ws.fit_logistic_curve(list(zip(AIV_GRID, ROW_5PCT))),
        0.10: ws.fit_logistic_curve(list(zip(AIV_GRID, ROW_10PCT))),
    }


class TestGuidelineTable:
    def test_reference_anchor_values(self, fits):
        table = ws.guideline_table(fits)
        assert table.value(0.01, 2.5) == pytest.approx(0.13, abs=0.01)
        assert table.value(0.10, 7.0) == pytest.approx(0.84, abs=0.01)

    def test_monotone_in_strength(self, fits):
        table = ws.guideline_table(fits)
        for row in table.values:
            assert all(b > a for a, b in zip(row, row[1:]))

    def test_monotone_in_event_rate(self, fits):
        table = ws.guideline_table(fits)
        for j in range(len(table.aiv_grid)):
            column = [table.values[i][j] for i in range(len(table.rates))]
            assert all(b >= a for a, b in zip(column, column[1:]))

    def test_steep_fit_tabulates_zero_below_its_step_without_overflow_warning(self):
        fit = ws.fit_logistic_curve([(0.5, 0.0), (3.0, 0.0), (3.01, 0.2), (7.0, 0.2)])
        assert fit.k > 1000.0  # exp overflows at every grid strength up to 2.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = ws.guideline_table({0.01: fit}).values
        assert all(math.isfinite(v) for v in row)
        assert row[:5] == (0.0,) * 5

    def test_missing_rate_rejected(self, fits):
        with pytest.raises(ValueError, match="no curve fit"):
            ws.guideline_table(fits, rates=(0.01, 0.2))

    def test_render_rounds_to_two_decimals(self, fits):
        text = ws.guideline_table(fits).render()
        lines = text.splitlines()
        assert len(lines) == 4
        assert "0.13" in lines[1]  # 1% row at aiv 2.5
        assert lines[0].split()[-1] == "7.00"

    def test_rows_iterate_in_table_order(self, fits):
        table = ws.guideline_table(fits)
        rows = list(table.rows())
        assert len(rows) == 3 * 14
        assert rows[0][0] == 0.01 and rows[0][1] == 0.5
        assert rows[-1][0] == 0.10 and rows[-1][1] == 7.0
