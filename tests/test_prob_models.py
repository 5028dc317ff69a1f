import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtr, ndtri

from oracles import (
    JSU_BOUNDS,
    jsu_fit_lbfgsb,
    jsu_nll,
    jsu_projected_gradient,
    jsu_sample,
    pinball_sum,
    sqra_newton,
    sqra_pass,
)
from quantbess import prob_models
from quantbess.backtest_engine import BacktestConfig, run_backtest
from quantbess.errors import FitError, InsufficientDataError, QuantbessError, SolverError
from quantbess.market_data import REGIMES, synth_generate
from quantbess.prob_models import (
    MEDIAN_INDEX,
    MIN_ERROR_SAMPLE,
    QUANTILE_GRID,
    CalibrationInputs,
    ErrorSample,
    JsuParams,
    MethodContext,
    _certify,
    cp_offsets,
    default_bandwidth,
    get_calibrator,
    hs_offsets,
    jsu_fit,
    jsu_neg_loglik,
    jsu_quantile,
    qra_fit,
    qra_fit_grid,
    quantile_index,
    quantile_matrix,
    register_method,
    sqra_fit,
    sqra_fit_grid,
    sqra_gradient,
    sqra_objective,
)

residual_samples = hnp.arrays(
    dtype=float,
    shape=st.integers(MIN_ERROR_SAMPLE, 300),
    elements=st.floats(-500.0, 500.0, allow_nan=False),
)


class TestTypes:
    def test_grid(self):
        assert QUANTILE_GRID.shape == (99,)
        assert QUANTILE_GRID[0] == 0.01
        assert QUANTILE_GRID[MEDIAN_INDEX] == 0.5
        assert quantile_index(0.25) == 24
        with pytest.raises(ValueError):
            quantile_index(0.505)

    def test_quantile_forecast_validation(self):
        # quantile_matrix rearranges crossing quantiles and refuses
        # non-finite ones
        ctx = MethodContext("hs", offsets=np.linspace(1, 0, 99))
        qf = quantile_matrix(ctx, point=np.zeros(24))
        assert np.array_equal(qf, np.tile(np.linspace(1, 0, 99)[::-1], (24, 1)))
        with pytest.raises(QuantbessError):
            quantile_matrix(MethodContext("hs", offsets=np.full(99, np.inf)), point=np.zeros(24))
        with pytest.raises(QuantbessError):
            quantile_matrix(ctx, point=np.full(24, np.nan))

    def test_error_sample_minimum(self):
        with pytest.raises(InsufficientDataError):
            ErrorSample(np.zeros(MIN_ERROR_SAMPLE - 1))

    def test_jsu_params_validation(self):
        with pytest.raises(ValueError):
            JsuParams(0.0, -1.0, 0.0, 1.0)


def _quantiles(offsets, point):
    """One hour's 99 quantiles as the engine builds them from a method's
    offsets and a point forecast."""
    return quantile_matrix(MethodContext("hs", offsets=offsets), point=np.full(24, point))[0]


class TestHistoricalSimulation:
    def test_symmetric_median(self):
        errors = ErrorSample(np.tile([-1.0, 0.0, 1.0], 50))
        values = _quantiles(hs_offsets(errors), 100.0)
        assert values[MEDIAN_INDEX] == pytest.approx(100.0)

    def test_constant_residuals(self):
        errors = ErrorSample(np.full(120, 5.0))
        values = _quantiles(hs_offsets(errors), 0.0)
        assert np.all(values == 5.0)

    def test_interpolated_quantile(self):
        # 1..200 on a uniform grid: the 0.25 empirical quantile interpolates
        # order statistics 50 and 51 at weight 0.75, giving 50.75.
        errors = ErrorSample(np.arange(1.0, 201.0))
        values = _quantiles(hs_offsets(errors), 50.0)
        assert values[quantile_index(0.25)] == pytest.approx(50.0 + 50.75)
        assert values[quantile_index(0.25)] == pytest.approx(
            50.0 + np.quantile(np.arange(1.0, 201.0), 0.25)
        )

    @settings(max_examples=50, deadline=None)
    @given(residual_samples, st.floats(-100.0, 100.0))
    def test_translation_equivariance(self, residuals, shift):
        base = hs_offsets(ErrorSample(residuals))
        shifted = hs_offsets(ErrorSample(residuals + shift))
        assert np.allclose(shifted, base + shift, atol=1e-9 * (1 + abs(shift)))


class TestConformalPrediction:
    def test_center_is_point(self):
        errors = ErrorSample(np.random.default_rng(0).normal(0, 3, 200))
        for point in (-17.0, 0.0, 42.5):
            values = _quantiles(cp_offsets(errors), point)
            assert values[MEDIAN_INDEX] == pytest.approx(point)

    def test_constant_absolute_residuals(self):
        errors = ErrorSample(np.tile([-3.0, 3.0], 60))
        values = _quantiles(cp_offsets(errors), 0.0)
        assert values[quantile_index(0.01)] == pytest.approx(-3.0)
        assert values[quantile_index(0.99)] == pytest.approx(3.0)

    def test_brute_force_gamma(self):
        residuals = np.concatenate([np.arange(1.0, 101.0), -np.arange(1.0, 101.0)])
        values = _quantiles(cp_offsets(ErrorSample(residuals)), 10.0)
        gamma = np.quantile(np.abs(residuals), 0.8)
        assert values[quantile_index(0.9)] == pytest.approx(10.0 + gamma)

    @settings(max_examples=50, deadline=None)
    @given(residual_samples)
    def test_symmetry_before_rearrangement(self, residuals):
        offsets = cp_offsets(ErrorSample(residuals))
        assert np.allclose(offsets + offsets[::-1], 0.0, atol=1e-9)
        assert offsets[MEDIAN_INDEX] == 0.0


class TestJohnsonSu:
    def test_quantile_examples(self):
        params = JsuParams(0.0, 1.0, 0.0, 1.0)
        assert jsu_quantile(params, 0.5) == pytest.approx(0.0)
        assert jsu_quantile(JsuParams(0.0, 1.0, 7.0, 1.0), 0.5) == pytest.approx(7.0)
        # q = 0.8413 puts z_q at essentially 1, so the value is sinh(1).
        assert jsu_quantile(params, 0.8413) == pytest.approx(np.sinh(1.0), abs=3e-3)

    def test_quantile_strictly_increasing(self):
        params = JsuParams(-0.4, 0.8, 2.0, 1.5)
        values = jsu_quantile(params, QUANTILE_GRID)
        assert np.all(np.diff(values) > 0)

    def test_gradient_matches_finite_differences(self, rng):
        x = rng.standard_t(5, 400) * 2.0 + 1.0
        for _ in range(5):
            theta = rng.uniform([-1, -0.5, -2, -0.5], [1, 0.5, 2, 0.5])
            _, grad = jsu_neg_loglik(theta, x)
            fd = np.empty(4)
            eps = 1e-6
            for i in range(4):
                up, dn = theta.copy(), theta.copy()
                up[i] += eps
                dn[i] -= eps
                fd[i] = (jsu_neg_loglik(up, x)[0] - jsu_neg_loglik(dn, x)[0]) / (2 * eps)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-4)

    def test_hessian_matches_finite_differences(self, rng):
        x = rng.standard_t(5, 400) * 2.0 + 1.0
        for _ in range(5):
            theta = rng.uniform([-1, -0.5, -2, -0.5], [1, 0.5, 2, 0.5])
            fd = np.empty((4, 4))
            eps = 1e-6
            for i in range(4):
                up, dn = theta.copy(), theta.copy()
                up[i] += eps
                dn[i] -= eps
                fd[i] = (jsu_neg_loglik(up, x)[1] - jsu_neg_loglik(dn, x)[1]) / (2 * eps)
            assert np.allclose(prob_models._jsu_hessian(theta, x), fd, rtol=1e-5, atol=1e-4)

    def test_parameter_recovery(self):
        true = JsuParams(0.0, 1.5, 0.0, 2.0)
        draws = jsu_sample(true.gamma, true.delta, true.xi, true.lam, 50_000,
                           np.random.default_rng(42))
        fitted = jsu_fit(ErrorSample(draws))
        assert abs(fitted.delta - true.delta) <= 0.05 * true.delta
        assert abs(fitted.lam - true.lam) <= 0.05 * true.lam
        assert abs(fitted.gamma) <= 0.05
        assert abs(fitted.xi) <= 0.05

    def test_degenerate_sample(self):
        with pytest.raises(FitError):
            jsu_fit(ErrorSample(np.full(150, 3.0)))

    def test_near_normal_sample(self):
        draws = np.random.default_rng(7).standard_normal(50_000)
        fitted = jsu_fit(ErrorSample(draws))
        qs = np.arange(5, 96) / 100.0
        assert np.allclose(jsu_quantile(fitted, qs), ndtri(qs), atol=0.05)
        # the normal limit lies at delta -> infinity, so the fit ends on the cap
        assert fitted.delta == np.exp(JSU_BOUNDS[1][1])
        _assert_at_least_as_good_as_lbfgsb(fitted, draws)

    def test_small_config_samples_match_lbfgsb(self, day97_samples):
        corners = 0
        for x in day97_samples:
            fitted = jsu_fit(ErrorSample(x))
            corners += fitted.delta == np.exp(JSU_BOUNDS[1][1]) or abs(fitted.gamma) == 20.0
            _assert_at_least_as_good_as_lbfgsb(fitted, x)
        assert corners > len(day97_samples) / 2

    def test_day97_run_completes(self, day97_samples, small_config):
        # L-BFGS-B's jsu fit once raised FitError on day 97 of this run
        assert len(day97_samples) == 110 - small_config.first_forecast_day


@pytest.fixture(scope="module")
def day97_samples(small_config):
    """The residual sample of each jsu fit of the five-method small-config
    backtest on synth_generate(110, seed=0), once the backtest has run."""
    samples, fit = [], prob_models.jsu_fit

    def keeping_sample(errors):
        samples.append(errors.residuals)
        return fit(errors)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prob_models, "jsu_fit", keeping_sample)
        run_backtest(synth_generate(110, seed=0), small_config)
    return samples


def _assert_at_least_as_good_as_lbfgsb(fitted, x):
    """The fit's nll is no higher than the L-BFGS-B reference's, to
    rounding, and its projected gradient is at most 1e-9 relative."""
    theta = np.array([fitted.gamma, np.log(fitted.delta), fitted.xi, np.log(fitted.lam)])
    nll = jsu_nll(theta, x)[0]
    reference = jsu_nll(jsu_fit_lbfgsb(x), x)[0]
    assert nll <= reference + 1e-12 * abs(reference)
    assert jsu_projected_gradient(theta, x) <= 1e-9 * max(1.0, abs(nll))


class TestQra:
    def test_perfect_regressor(self, rng):
        y = rng.normal(50, 10, 40)
        beta = qra_fit(y[:, None], y, q=0.7)
        assert beta == pytest.approx([0.0, 1.0], abs=1e-8)
        X = np.column_stack([np.ones(40), y])
        assert pinball_sum(beta, X, y, 0.7) == pytest.approx(0.0, abs=1e-8)

    def test_median_constant_regressor(self):
        y = np.tile([1.0, 2.0, 9.0], 10)
        beta = qra_fit(np.empty((30, 0)), y, q=0.5)
        assert beta[0] == pytest.approx(2.0)

    def test_duplicated_columns_deterministic(self, rng):
        x = rng.normal(0, 1, 40)
        y = 2.0 * x + rng.normal(0, 0.5, 40)
        pool = np.column_stack([x, x])
        b1 = qra_fit(pool, y, q=0.3)
        b2 = qra_fit(pool, y, q=0.3)
        assert np.array_equal(b1, b2)
        X = np.column_stack([np.ones(40), pool])
        single = qra_fit(x[:, None], y, q=0.3)
        X1 = np.column_stack([np.ones(40), x])
        assert pinball_sum(b1, X, y, 0.3) == pytest.approx(
            pinball_sum(single, X1, y, 0.3), rel=1e-9
        )

    def test_history_length_precondition(self, rng):
        pool = rng.normal(0, 1, (15, 2))
        with pytest.raises(InsufficientDataError):
            qra_fit(pool, rng.normal(0, 1, 15), q=0.5)

    def test_grid_matches_single_fits(self, rng):
        pool = rng.normal(40, 8, (120, 3))
        y = pool.mean(axis=1) + rng.standard_t(4, 120) * 3.0
        qs = QUANTILE_GRID[::9]
        grid = qra_fit_grid(pool, y, qs)
        X = np.column_stack([np.ones(120), pool])
        for i, q in enumerate(qs):
            f_grid = pinball_sum(grid[i], X, y, q)
            f_single = pinball_sum(qra_fit(pool, y, q), X, y, q)
            assert f_grid == pytest.approx(f_single, rel=1e-10, abs=1e-9)

    def test_grid_rejects_mismatched_prices(self, rng):
        pool = rng.normal(40, 8, (120, 2))
        with pytest.raises(ValueError, match="prices length"):
            qra_fit_grid(pool, rng.normal(40, 8, 119))

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_grid_rejects_q_outside_open_interval(self, rng, q):
        pool = rng.normal(40, 8, (120, 2))
        with pytest.raises(ValueError, match="q must be in"):
            qra_fit_grid(pool, pool.mean(axis=1), [0.5, q])

    def test_perturbation_optimality(self, rng):
        pool = rng.normal(30, 5, (80, 2))
        y = pool @ [0.6, 0.5] + rng.normal(0, 2, 80)
        X = np.column_stack([np.ones(80), pool])
        for q in (0.1, 0.5, 0.9):
            beta = qra_fit(pool, y, q)
            f0 = pinball_sum(beta, X, y, q)
            for _ in range(100):
                delta = rng.choice([-1e-4, 1e-4], size=beta.size)
                assert pinball_sum(beta + delta, X, y, q) >= f0 - 1e-12


def _refused(X, y, q, beta) -> bool:
    """Whether the certificate refuses the vertex through the rows nearest beta."""
    basis = np.argsort(np.abs(y - X @ beta))[: X.shape[1]]
    return not _certify(X, y, np.array([q]), basis[None, :])[1][0]


class TestQraCertificate:
    """qra_fit_grid returns certified unique LP optima, or else qra_fit's fit."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
    def test_grid_rows_are_optimal(self, seed, n):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(max(60, 10 * n), 201))
        pool = rng.normal(50, 10, (m, n))
        prices = pool @ rng.uniform(0, 1, n) + rng.standard_t(3, m) * 5.0
        X = np.column_stack([np.ones(m), pool])
        for q, beta in zip(QUANTILE_GRID, qra_fit_grid(pool, prices)):
            f0 = pinball_sum(beta, X, prices, q)
            assert f0 == pytest.approx(
                pinball_sum(qra_fit(pool, prices, q), X, prices, q), rel=1e-10
            )
            # criterion 2: no perturbation of the coefficients does better
            r = prices[None, :] - (beta + rng.uniform(-1e-4, 1e-4, (1000, n + 1))) @ X.T
            losses = np.where(r >= 0, q * r, (q - 1.0) * r).sum(axis=1)
            assert (losses >= f0 - 1e-12 * (1.0 + abs(f0))).all()

    def test_duplicated_columns_fall_back(self, rng):
        """X_h is singular: the optimum is a line, not a point."""
        x = rng.normal(50, 10, 200)
        y = 0.8 * x + rng.normal(0, 5, 200)
        pool = np.column_stack([x, x])
        X = np.column_stack([np.ones(200), pool])
        qs = QUANTILE_GRID[::12]
        for q, beta in zip(qs, qra_fit_grid(pool, y, qs)):
            expected = qra_fit(pool, y, q)
            assert np.array_equal(beta, expected)
            assert _refused(X, y, q, expected)

    def test_intercept_only_integer_mq_falls_back(self, rng):
        """With m*q an integer every point between two order statistics is
        optimal; each vertex has its basis dual on a bound."""
        y = rng.normal(0, 1, 40)
        ones, empty = np.ones((40, 1)), np.empty((40, 0))
        qs = np.array([0.25, 0.5, 0.75])
        for q, beta in zip(qs, qra_fit_grid(empty, y, qs)):
            expected = qra_fit(empty, y, q)
            assert np.array_equal(beta, expected)
            assert _refused(ones, y, q, expected)

    def test_zero_residual_off_basis_falls_back(self, rng):
        """The median of 41 values is unique, but a tie puts a second row on it."""
        y = rng.normal(0, 1, 41)
        y[np.argsort(y)[21]] = np.sort(y)[20]
        ones, empty = np.ones((41, 1)), np.empty((41, 0))
        expected = qra_fit(empty, y, 0.5)
        assert expected[0] == np.sort(y)[20]
        assert np.array_equal(qra_fit_grid(empty, y, [0.5])[0], expected)
        assert _refused(ones, y, 0.5, expected)


    @pytest.mark.parametrize("warm", [False, True])
    def test_rows_are_solves_of_their_certified_bases(self, monkeypatch, warm):
        """Each row is solve(X[h], y[h]) bit for bit, h the sorted basis the
        certificate accepts, whether the band solve retired it early or not,
        and no row needs the simplex fallback."""
        pool, y = _cycle_window(4368 + 24)
        start = qra_fit_grid(pool[:-24], y[:-24]) if warm else None
        pool, y = pool[24:], y[24:]
        simplex_calls = []
        monkeypatch.setattr(prob_models, "qra_fit",
                            lambda *args, **kw: simplex_calls.append(args) or qra_fit(*args, **kw))
        betas = qra_fit_grid(pool, y, start=start)
        assert not simplex_calls
        X = np.column_stack([np.ones(y.size), pool])
        for q, beta in zip(QUANTILE_GRID, betas):
            h = np.sort(np.argsort(np.abs(y - X @ beta))[: X.shape[1]])
            assert _certify(X, y, np.array([q]), h[None, :])[1][0]
            assert np.array_equal(beta, np.linalg.solve(X[h], y[h]))


#: Short qra-only backtests whose calibration windows hold 192 and 4,368 rows.
PATH_CONFIGS = {
    192: BacktestConfig(point_window=56, prob_window=8, metric_window=1,
                        pool_window_lengths=(30, 56), alphas=(0.5,), model_registry=("qra",)),
    4368: BacktestConfig(metric_window=1, alphas=(0.5,), model_registry=("qra",)),
}


@pytest.mark.parametrize("rows", sorted(PATH_CONFIGS))
@pytest.mark.parametrize("regime", ["low", "high", "spiky"])
def test_qra_fit_does_not_depend_on_start(monkeypatch, regime, rows):
    """The engine starts each qra calibration from the previous one; a cold
    start and a bad start (zeros) give the same bits."""
    config = PATH_CONFIGS[rows]
    calls = []
    grid = prob_models.qra_fit_grid

    def recording(pool, prices, start=None):
        betas = grid(pool, prices, start=start)
        calls.append((pool, prices, start, betas))
        return betas

    monkeypatch.setattr(prob_models, "qra_fit_grid", recording)
    run_backtest(synth_generate(config.first_trading_day + 1, seed=5, regime=regime), config)
    monkeypatch.undo()
    (_, _, first_start, previous), (pool, prices, start, betas) = calls[0], calls[-1]
    assert first_start is None and start is not None
    assert pool.shape[0] == rows
    for other in (None, previous, np.zeros_like(previous)):
        assert np.array_equal(qra_fit_grid(pool, prices, start=other), betas)


class TestNormalDistribution:
    """The numpy normal CDF against scipy's, and the standard library's
    inverse against scipy's on the grid."""

    @settings(max_examples=300, deadline=None)
    @given(a=hnp.arrays(float, st.integers(1, 40), elements=st.floats(-60.0, 60.0)))
    def test_ndtr_matches_scipy(self, a):
        # np.exp may differ from libm's exp by an ulp; above a = -11 the
        # values stay within 4 ulp, below it they are under 2e-28
        out, ref = prob_models._ndtr(a), ndtr(a)
        err = np.abs(out - ref)
        assert np.all(err <= 2.0**-52)
        above = a >= -11.0
        assert np.all(err[above] <= 4 * np.spacing(ref[above]))

    def test_ndtr_edge_cases(self):
        # x = a / sqrt(2) at 0, 1 / sqrt(2), the erf/erfc switch (just
        # above 1, and 1 exactly), 8, 28.3 and inf, on both sides of 0
        r2 = np.sqrt(2.0)
        a = np.array([0.0, 1.0, r2, 1.0 / np.sqrt(0.5), 8 * r2, 40.0, np.inf])
        out = prob_models._ndtr(np.concatenate([a, -a]))
        ref = ndtr(np.concatenate([a, -a]))
        assert np.all(np.abs(out - ref) <= 4 * np.spacing(ref))
        assert list(out[[0, 5, 6, 7, 12, 13]]) == [0.5, 1.0, 1.0, 0.5, 0.0, 0.0]
        # at a = -8 sqrt(2), x = -8, scipy switches to its R/S fraction;
        # the P/Q one still holds there
        tail = prob_models._ndtr(-8 * r2)
        assert tail == pytest.approx(ndtr(-8 * r2), rel=1e-15)
        assert np.isnan(prob_models._ndtr(np.nan))
        assert np.isnan(prob_models._ndtr(np.array([0.3, np.nan, -2.0]))).tolist() == [
            False, True, False]

    def test_ndtr_chunks_in_place(self, monkeypatch, rng):
        a = rng.normal(0.0, 4.0, (5, 37))
        whole = prob_models._ndtr(a)
        monkeypatch.setattr(prob_models, "_CHUNK", 7)
        assert np.array_equal(prob_models._ndtr(a), whole)
        prob_models._ndtr(a, out=a)
        assert np.array_equal(a, whole)

    def test_ndtri_matches_scipy_on_grid(self):
        z, ref = prob_models._ndtri(QUANTILE_GRID), ndtri(QUANTILE_GRID)
        assert np.all(np.abs(z - ref) <= 4 * np.spacing(np.abs(ref)))
        assert prob_models._ndtri(0.75) == pytest.approx(ndtri(0.75), rel=1e-15)


class TestSqra:
    @pytest.mark.parametrize("window", ["cycle", "spiky"])
    def test_pass_matches_reference(self, window):
        # 33 quantiles over row blocks of _CHUNK cells; the betas at the
        # optimum (gradient near 0) and at the least-squares start
        pool, y = _cycle_window() if window == "cycle" else _hourly_window("spiky", 0, 40)
        X = np.column_stack([np.ones(y.size), pool])
        H = default_bandwidth(y - pool.mean(axis=1))
        qs = QUANTILE_GRID[::3]
        optimum = sqra_fit_grid(pool, y, H, qs=qs)
        start = np.tile(np.linalg.lstsq(X, y, rcond=None)[0], (qs.size, 1))
        g_scale = np.abs(X).sum(axis=0)          # |q - Phi| <= 1
        for betas in (optimum, start):
            f, g, w = prob_models._sqra_pass(betas, X, y, qs, H)
            f_ref, g_ref, w_ref = sqra_pass(betas, X, y, qs, H)
            assert np.all(np.abs(f - f_ref) <= 1e-12 * f_ref)
            assert np.all(np.abs(g - g_ref) <= 1e-12 * g_scale)
            assert np.all(np.abs(w - w_ref) <= 1e-12 * w_ref + np.finfo(float).tiny)

    def test_gradient_matches_finite_differences(self, rng):
        pool = rng.normal(20, 5, (60, 2))
        y = pool.mean(axis=1) + rng.normal(0, 2, 60)
        X = np.column_stack([np.ones(60), pool])
        H = 1.5
        for _ in range(10):
            beta = rng.normal(0, 1, 3)
            grad = sqra_gradient(beta, X, y, 0.3, H)
            fd = np.empty(3)
            eps = 1e-6
            for i in range(3):
                up, dn = beta.copy(), beta.copy()
                up[i] += eps
                dn[i] -= eps
                fd[i] = (
                    sqra_objective(up, X, y, 0.3, H) - sqra_objective(dn, X, y, 0.3, H)
                ) / (2 * eps)
            assert np.allclose(grad, fd, atol=1e-6 * max(1.0, np.abs(fd).max()))

    def test_bandwidth_sweep_converges_to_qra(self, rng):
        pool = rng.normal(40, 10, (100, 2))
        y = pool @ [0.7, 0.4] + rng.standard_t(5, 100) * 3.0
        X = np.column_stack([np.ones(100), pool])
        q = 0.7
        exact = pinball_sum(qra_fit(pool, y, q), X, y, q)
        scale = float(np.std(y))
        gaps = []
        for H in (1.0, 0.1, 0.01, 0.001):
            beta = sqra_fit(pool, y, q, H * scale)
            gaps.append(pinball_sum(beta, X, y, q) - exact)
        assert all(g >= -1e-9 for g in gaps)
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3 * (1.0 + abs(exact))

    def test_symmetric_center(self, rng):
        y = np.concatenate([rng.normal(0, 1, 100), -rng.normal(0, 1, 100)]) + 5.0
        beta = sqra_fit(np.empty((200, 0)), y, 0.5, bandwidth=0.5)
        # brute-force scan of the smoothed objective over candidate constants
        grid = np.linspace(3.0, 7.0, 2001)
        objs = [sqra_objective(np.array([c]), np.ones((200, 1)), y, 0.5, 0.5) for c in grid]
        assert beta[0] == pytest.approx(grid[int(np.argmin(objs))], abs=5e-3)
        assert beta[0] == pytest.approx(5.0, abs=0.2)

    def test_default_bandwidth_rule(self):
        sample = np.random.default_rng(1).normal(0, 2.0, 500)
        H = default_bandwidth(sample)
        assert H == pytest.approx(1.06 * sample.std() * 500 ** (-0.2))

    def test_invalid_bandwidth(self, rng):
        pool = rng.normal(0, 1, (30, 1))
        with pytest.raises(ValueError):
            sqra_fit(pool, rng.normal(0, 1, 30), 0.5, bandwidth=0.0)

    @pytest.mark.parametrize("bandwidth", [np.nan, np.inf])
    def test_non_finite_bandwidth(self, rng, bandwidth):
        # a nan bandwidth used to return the least-squares start as the fit
        pool = rng.normal(0, 1, (30, 1))
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            sqra_fit(pool, rng.normal(0, 1, 30), 0.5, bandwidth=bandwidth)

    def test_nan_price_is_not_a_fit(self, rng):
        # its nan gradient used to pass the L-BFGS-B finish's check
        pool = rng.normal(40, 8, (120, 2))
        prices = pool.mean(axis=1)
        prices[7] = np.nan
        with pytest.raises(SolverError):
            sqra_fit(pool, prices, 0.5, 1.0)

    @pytest.mark.parametrize("n_prices", [1, 119])
    @pytest.mark.parametrize("with_start", [False, True])
    def test_rejects_mismatched_prices(self, rng, n_prices, with_start):
        # one price with a start used to broadcast over the pool and fit
        pool = rng.normal(40, 8, (120, 2))
        prices = rng.normal(40, 8, n_prices)
        start = np.array([0.0, 0.5, 0.5]) if with_start else None
        with pytest.raises(ValueError, match="prices length must match the pool history"):
            sqra_fit(pool, prices, 0.5, 1.0, start=start)
        with pytest.raises(ValueError, match="prices length must match the pool history"):
            sqra_fit_grid(pool, prices, 1.0, qs=[0.3, 0.5],
                          starts=None if start is None else np.tile(start, (2, 1)))

    def test_start_near_optimum_does_not_stall(self, monkeypatch):
        # There a Newton step's predicted decrease is below the rounding of
        # the objective, so Armijo's test passes or fails by chance; the fit
        # once took 5,000 objective evaluations from these starts.
        pool, y = _cycle_window()
        q = 0.33
        H = default_bandwidth(y - pool.mean(axis=1))
        X = np.column_stack([np.ones(y.size), pool])
        optimum = sqra_fit(pool, y, q, H)
        passes = []
        one_pass = prob_models._sqra_pass
        monkeypatch.setattr(prob_models, "_sqra_pass",
                            lambda *args: passes.append(1) or one_pass(*args))
        for rel in (1e-9, 1e-8):
            passes.clear()
            beta = sqra_fit(pool, y, q, H, start=optimum * (1 + rel))
            assert len(passes) <= 10
            assert np.abs(sqra_gradient(beta, X, y, q, H)).max() <= _gtol(y)


def _hourly_window(regime, seed, days):
    """A (24 * days, 5) pool of lagged-price regressors and the prices."""
    p = synth_generate(days + 7, seed=seed, regime=regime).prices
    pool = np.column_stack([
        p[6:-1].ravel(), p[5:-2].ravel(), p[:-7].ravel(),
        np.repeat(p[6:-1].mean(axis=1), 24), np.repeat(p[6:-1].max(axis=1), 24),
    ])
    return pool, p[7:].ravel()


def _cycle_window(m=4368, seed=0):
    """A daily-cycle (m, 5) pool and heavy-tailed prices: 182 days of hours."""
    rng = np.random.default_rng(seed)
    base = 50 + 15 * np.sin(np.arange(m) / 24 * 2 * np.pi) + 0.05 * rng.normal(0, 5, m).cumsum()
    pool = base[:, None] + rng.normal(0, 4, (m, 5))
    return pool, base + 6 * rng.standard_t(3, m)


def _gtol(prices):
    """The smoothed fits' stopping tolerance on the gradient."""
    return 1e-9 * prices.size * max(1.0, float(np.std(prices)))


class TestSqraGrid:
    @settings(max_examples=8, deadline=None)
    @given(regime=st.sampled_from(REGIMES), seed=st.integers(0, 50), days=st.integers(14, 182))
    def test_matches_per_quantile_fits(self, regime, seed, days):
        # Tolerance: a point whose gradient meets gtol lies, to first order,
        # within sqrt(p) * gtol * ||Hess^-1||_2 of the optimum, and the
        # one-quantile Newton oracle may stop anywhere in that ball (the
        # grid ends one Newton step further on).  Measured over 27
        # regime x seed x window cases: at most 8e-4 of the radius.
        pool, y = _hourly_window(regime, seed, days)
        H = default_bandwidth(y - pool.mean(axis=1))
        qs = QUANTILE_GRID[::7]
        X = np.column_stack([np.ones(y.size), pool])
        gtol = _gtol(y)
        for q, beta in zip(qs, sqra_fit_grid(pool, y, H, qs=qs)):
            assert np.abs(sqra_gradient(beta, X, y, q, H)).max() <= gtol
            z = (y - X @ beta) / H
            hess = X.T @ ((np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi) / H)[:, None] * X)
            radius = np.sqrt(X.shape[1]) * gtol * np.linalg.norm(np.linalg.inv(hess), 2)
            assert np.linalg.norm(beta - sqra_newton(pool, y, q, H)) <= radius

    @pytest.mark.parametrize("polish", [False, True])
    def test_unfinished_quantiles_are_finished(self, monkeypatch, polish):
        # The batch reports every quantile unfinished; each then runs the
        # same Newton on its own from the batch's last iterate.  With
        # `polish`, that reports unfinished too, and L-BFGS-B finishes it.
        pool, y = _cycle_window()
        H = default_bandwidth(y - pool.mean(axis=1))
        qs = QUANTILE_GRID[::7]
        X = np.column_stack([np.ones(y.size), pool])
        expected = sqra_fit_grid(pool, y, H, qs=qs)
        newton, calls = prob_models._sqra_newton, []
        finish, polished = prob_models._sqra_polish, []

        def unfinished(*args):
            betas, done = newton(*args)
            calls.append(len(done))
            return betas, done & (len(calls) > 1 and not polish)

        monkeypatch.setattr(prob_models, "_sqra_newton", unfinished)
        monkeypatch.setattr(prob_models, "_sqra_polish",
                            lambda *args: polished.append(1) or finish(*args))
        betas = sqra_fit_grid(pool, y, H, qs=qs)
        assert calls == [qs.size] + [1] * qs.size
        assert len(polished) == (qs.size if polish else 0)
        for q, beta, fit in zip(qs, betas, expected):
            assert np.abs(sqra_gradient(beta, X, y, q, H)).max() <= _gtol(y)
            assert np.abs(beta - fit).max() <= 1e-12 * np.abs(fit).max()

    def test_start_independence(self):
        # starts from qra, from the previous calibration's sqra (the window
        # one day earlier) and from least squares
        pool, y = _cycle_window(4368 + 24)
        today = CalibrationInputs(pool=pool[24:], prices=y[24:])
        calibrate = get_calibrator("sqra")
        previous = calibrate(CalibrationInputs(pool=pool[:-24], prices=y[:-24]))
        from_lsq = calibrate(today).betas
        today.contexts["qra"] = get_calibrator("qra")(today)
        from_qra = calibrate(today).betas
        today.previous["sqra"] = previous
        from_previous = calibrate(today).betas
        scale = np.abs(from_lsq).max()
        assert np.abs(from_qra - from_lsq).max() <= 1e-12 * scale
        assert np.abs(from_previous - from_lsq).max() <= 1e-12 * scale


def _peak_bytes(fit):
    tracemalloc.start()
    try:
        fit()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_fits_peak_memory():
    """Traced peaks on a 4,368 x 5 window: both grids work in bounded blocks
    of quantiles (about 4.5 MB for qra and 6.7 MB for sqra when written)."""
    pool, y = _cycle_window()
    H = default_bandwidth(y - pool.mean(axis=1))
    assert _peak_bytes(lambda: qra_fit_grid(pool, y)) <= 6e6
    assert _peak_bytes(lambda: sqra_fit_grid(pool, y, H)) <= 9e6
    pool, y = _cycle_window(4368 + 24)
    previous = qra_fit_grid(pool[:-24], y[:-24])
    assert _peak_bytes(lambda: qra_fit_grid(pool[24:], y[24:], start=previous)) <= 6e6


class TestForecastConstruction:
    def test_hs_zero_residuals(self):
        ctx = get_calibrator("hs")(CalibrationInputs(errors=ErrorSample(np.zeros(120))))
        qf = quantile_matrix(ctx, point=np.full(24, 64.0))
        assert qf.shape == (24, 99)
        assert np.all(qf == 64.0)

    def test_monotone_output(self, rng):
        errors = ErrorSample(rng.normal(0, 5, 300))
        for tag in ("hs", "cp"):
            ctx = get_calibrator(tag)(CalibrationInputs(errors=errors))
            qf = quantile_matrix(ctx, point=rng.normal(40, 5, 24))
            assert np.all(np.diff(qf, axis=1) >= 0)

    def test_regression_method_applies_betas(self, rng):
        pool = rng.normal(40, 5, (150, 2))
        y = pool.mean(axis=1) + rng.normal(0, 2, 150)
        ctx = get_calibrator("qra")(CalibrationInputs(pool=pool, prices=y))
        pool_day = rng.normal(40, 5, (2, 24))
        qf = quantile_matrix(ctx, pool_day=pool_day)
        for hour in range(24):
            manual = np.sort(ctx.betas @ np.concatenate(([1.0], pool_day[:, hour])))
            assert np.allclose(qf[hour], manual)

    def test_missing_inputs_rejected(self):
        ctx = MethodContext("hs", offsets=np.zeros(99))
        with pytest.raises(ValueError):
            quantile_matrix(ctx, point=None)
        with pytest.raises(ValueError):
            quantile_matrix(MethodContext("qra", betas=np.zeros((99, 3))), point=np.zeros(24))
        with pytest.raises(TypeError):
            quantile_matrix("hs", point=np.ones(24))

    def test_wrong_shapes_name_the_model(self):
        with pytest.raises(QuantbessError, match="'short'.*shape \\(24, 98\\)"):
            quantile_matrix(MethodContext("short", offsets=np.zeros(98)), point=np.zeros(24))
        with pytest.raises(QuantbessError, match="'bent'.*shape \\(24, 98\\)"):
            quantile_matrix(MethodContext("bent", betas=np.zeros((98, 3))), pool_day=np.zeros((2, 24)))

    def test_sqra_context_uses_qra_start(self, rng):
        pool = rng.normal(40, 5, (150, 2))
        y = pool.mean(axis=1) + rng.normal(0, 2, 150)
        inputs = CalibrationInputs(pool=pool, prices=y)
        inputs.contexts["qra"] = get_calibrator("qra")(inputs)
        ctx = get_calibrator("sqra")(inputs)
        assert ctx.betas.shape == (99, 3)
        assert ctx.bandwidth > 0

    def test_register_custom_method(self):
        def wide(inputs):
            return MethodContext("hs_wide", offsets=4.0 * hs_offsets(inputs.errors))

        register_method("hs_wide_test", wide)
        assert get_calibrator("hs_wide_test") is wide
        with pytest.raises(KeyError):
            get_calibrator("no_such_method")
