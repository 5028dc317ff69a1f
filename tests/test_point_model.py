import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantbess.errors import CalibrationError, InsufficientDataError
from quantbess.market_data import MarketSeries, synth_generate, window
from quantbess.point_model import (
    DEFAULT_POOL_WINDOWS,
    FEATURE_NAMES,
    N_COEFFICIENTS,
    ExpertFeatures,
    ExpertModelParams,
    _design,
    build_features,
    calibrate,
    dump_coefficients,
    forecast_pool,
    predict,
    predict_day,
)


def _flat_series(n_days, price=50.0, load=100.0, start_weekday=1):
    return MarketSeries(
        prices=np.full((n_days, 24), price),
        loads=np.full((n_days, 24), load),
        start_weekday=start_weekday,
    )


def _recursive_series(n_days, beta, seed=0, start_weekday=2):
    """Series whose prices follow the expert model exactly (zero noise).

    Days 0..6 are random; from day 7 on, price(d, h) is the dot product of
    beta with the day's features, making beta the unique zero-residual fit.
    """
    rng = np.random.default_rng(seed)
    prices = np.empty((n_days, 24))
    prices[:7] = rng.uniform(20.0, 80.0, (7, 24))
    loads = rng.uniform(600.0, 1400.0, (n_days, 24))
    series_loads = loads  # exogenous, known in advance
    weekday = lambda d: (start_weekday - 1 + d) % 7
    for d in range(7, n_days):
        prev = prices[d - 1]
        for h in range(24):
            feats = np.zeros(N_COEFFICIENTS)
            feats[0] = prev[h]
            feats[1] = prices[d - 2, h]
            feats[2] = prices[d - 7, h]
            feats[3] = prev[23]
            feats[4] = prev.max()
            feats[5] = prev.min()
            feats[6] = series_loads[d, h]
            feats[7 + weekday(d)] = 1.0
            prices[d, h] = feats @ beta
    return MarketSeries(prices=prices, loads=series_loads, start_weekday=start_weekday)


# A stable coefficient vector: contraction in the lags so the recursion
# neither explodes nor collapses, small load effect, weekday offsets.
_TRUE_BETA = np.array([
    0.30, 0.15, 0.10, 0.05, 0.04, 0.03, 0.002,
    12.0, 13.0, 11.5, 12.5, 14.0, 9.0, 8.0,
])


class TestBuildFeatures:
    def test_constant_series(self):
        series = _flat_series(20)
        feats = build_features(series, d=10, h=13)
        assert feats.y_lag1 == feats.y_lag2 == feats.y_lag7 == 50.0
        assert feats.y_eod == feats.y_max_prev == feats.y_min_prev == 50.0
        assert feats.load == 100.0

    def test_week_lag_reads_day_zero(self):
        prices = np.full((10, 24), 50.0)
        prices[0, 0] = 99.0
        series = MarketSeries(prices=prices, loads=np.full((10, 24), 1.0))
        feats = build_features(series, d=7, h=1)
        assert feats.y_lag7 == 99.0

    def test_previous_day_extremes(self):
        prices = np.full((10, 24), 50.0)
        prices[7] = np.arange(10.0, 241.0, 10.0)  # 10, 20, ..., 240
        series = MarketSeries(prices=prices, loads=np.full((10, 24), 1.0))
        feats = build_features(series, d=8, h=3)
        assert feats.y_max_prev == 240.0
        assert feats.y_min_prev == 10.0
        assert feats.y_eod == 240.0

    def test_insufficient_history(self):
        series = _flat_series(20)
        with pytest.raises(InsufficientDataError):
            build_features(series, d=6, h=1)

    def test_one_hot_validation(self):
        with pytest.raises(ValueError):
            ExpertFeatures(1, 1, 1, 1, 2, 1, 5, weekday=np.ones(7))

    def test_vector_matches_design_row(self):
        series = synth_generate(30, seed=4)
        for d, h in [(8, 1), (15, 12), (25, 24)]:
            vec = build_features(series, d, h).vector()
            row = _design(series, np.array([d]), h)[0]
            assert np.array_equal(vec, row)


class TestCalibrate:
    def test_exact_recovery_zero_noise(self):
        series = _recursive_series(380, _TRUE_BETA, seed=1)
        win = window(series, end_day=371, length=364)
        for h in (1, 5, 18):
            params = calibrate(win, h)
            assert np.allclose(params.coefficients, _TRUE_BETA, atol=1e-6)

    def test_constant_series_perfect_fit(self):
        series = _flat_series(400, price=42.0)
        win = window(series, end_day=399, length=364)
        params = calibrate(win, 7)
        fitted = predict_day(series, 399, [calibrate(win, h) for h in range(1, 25)])
        assert np.allclose(fitted, 42.0, atol=1e-8)
        assert params.calibration_window_length == 364

    def test_short_window_rejected(self):
        series = _flat_series(60)
        win = window(series, end_day=30, length=25)
        with pytest.raises(InsufficientDataError):
            calibrate(win, 1)

    def test_lag_trimming_counts_usable_days(self):
        # Window touching day 0: only days >= 7 are usable.
        series = _flat_series(60)
        win = window(series, end_day=35, length=36)
        with pytest.raises(InsufficientDataError):
            calibrate(win, 1)  # 29 usable days

    def test_residual_orthogonality(self):
        series = synth_generate(420, seed=9, regime="high")
        win = window(series, end_day=400, length=364)
        days = win.days()
        days = days[days >= 7]
        for h in (3, 21):
            params = calibrate(win, h)
            X = _design(series, days, h)
            resid = series.prices[days, h - 1] - X @ params.coefficients
            scale = np.abs(series.prices[days, h - 1]).mean()
            assert np.all(np.abs(X.T @ resid) < 1e-6 * scale * days.size)


class TestPredict:
    def test_zero_coefficients(self):
        params = ExpertModelParams(hour=1, coefficients=np.zeros(14), calibration_window_length=56)
        feats = ExpertFeatures(1, 2, 3, 77, 9, 1, 100, weekday=np.eye(7)[2])
        assert predict(params, feats) == 0.0

    def test_single_eod_coefficient(self):
        coef = np.zeros(14)
        coef[3] = 1.0
        params = ExpertModelParams(hour=1, coefficients=coef, calibration_window_length=56)
        feats = ExpertFeatures(1, 2, 3, 77, 9, 1, 100, weekday=np.eye(7)[0])
        assert predict(params, feats) == 77.0

    def test_in_sample_consistency(self):
        series = synth_generate(120, seed=6)
        win = window(series, end_day=100, length=90)
        params = calibrate(win, 10)
        d = 80
        feats = build_features(series, d, 10)
        by_features = predict(params, feats)
        X = _design(series, np.array([d]), 10)
        assert by_features == pytest.approx(float(X[0] @ params.coefficients), abs=1e-9)

    def test_linearity_in_continuous_features(self):
        params = ExpertModelParams(
            hour=2, coefficients=np.arange(1.0, 15.0), calibration_window_length=56
        )
        wd = np.eye(7)[4]
        f1 = ExpertFeatures(1, 2, 3, 4, 6, 5, 7, weekday=wd)
        f2 = ExpertFeatures(2, 1, 5, 3, 8, 2, 4, weekday=wd)
        combo = ExpertFeatures(
            1 + 2, 2 + 1, 3 + 5, 4 + 3, 6 + 8, 5 + 2, 7 + 4, weekday=wd
        )
        dummy_part = params.coefficients[7:] @ wd
        assert predict(params, combo) - dummy_part == pytest.approx(
            (predict(params, f1) - dummy_part) + (predict(params, f2) - dummy_part)
        )

    def test_shifted_constant_series(self):
        for c in (42.0, 142.0):
            series = _flat_series(400, price=c)
            win = window(series, end_day=399, length=364)
            fitted = predict_day(series, 399, [calibrate(win, h) for h in range(1, 25)])
            assert np.allclose(fitted, c, atol=1e-8)


class TestForecastPool:
    def test_single_variant_shape(self):
        series = synth_generate(400, seed=5)
        pool, failures = forecast_pool(series, 380, window_lengths=[364])
        assert pool.values.shape == (1, 24)
        assert failures == {}
        assert np.array_equal(pool.variant(364), pool.values[0])

    def test_zero_noise_variants_agree(self):
        series = _recursive_series(380, _TRUE_BETA, seed=2)
        pool, _ = forecast_pool(series, 375, window_lengths=[56, 112, 364])
        assert np.allclose(pool.values[0], pool.values[1], atol=1e-6)
        assert np.allclose(pool.values[0], pool.values[2], atol=1e-6)

    def test_spiky_variants_differ(self):
        series = synth_generate(400, seed=8, regime="spiky")
        pool, _ = forecast_pool(series, 380, window_lengths=[56, 364])
        assert np.any(np.abs(pool.values[0] - pool.values[1]) > 1e-6)

    def test_insufficient_history(self):
        series = synth_generate(100, seed=0)
        with pytest.raises(InsufficientDataError):
            forecast_pool(series, 90, window_lengths=[364])

    def test_default_pool(self):
        assert DEFAULT_POOL_WINDOWS == (56, 84, 112, 182, 364)


def _per_hour_pool(series, d, window_lengths):
    """forecast_pool's reference: `calibrate` and `predict_day` per window and hour."""
    rows, kept, failures = [], [], {}
    for length in window_lengths:
        try:
            win = window(series, d - 1, length)
            params = [calibrate(win, h) for h in range(1, 25)]
        except (CalibrationError, InsufficientDataError) as exc:
            failures[length] = exc
            continue
        rows.append(predict_day(series, d, params))
        kept.append(length)
    return tuple(kept), rows, failures


def _assert_pool_matches_per_hour(series, d, window_lengths):
    kept, rows, failures = _per_hour_pool(series, d, window_lengths)
    pool, got_failures = forecast_pool(series, d, window_lengths)
    assert pool.window_lengths == kept
    assert {k: type(v) for k, v in got_failures.items()} == {
        k: type(v) for k, v in failures.items()
    }
    for got, want in zip(pool.values, rows):
        # The stacked QR and lstsq's SVD round differently; 1e-10 of the
        # day's forecast scale allows for designs with condition ~1e7.
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


class TestForecastPoolMatchesPerHourFits:
    @settings(max_examples=12, deadline=None)
    @given(
        regime=st.sampled_from(["low", "high", "spiky"]),
        seed=st.integers(0, 10_000),
        offset=st.integers(0, 35),
        window_lengths=st.sampled_from([DEFAULT_POOL_WINDOWS, (30, 56)]),
    )
    def test_synthetic_regimes(self, regime, seed, offset, window_lengths):
        series = synth_generate(400, seed=seed, regime=regime)
        _assert_pool_matches_per_hour(series, 364 + offset, window_lengths)

    def test_rank_deficient_every_hour(self):
        series = _flat_series(400, price=42.0)
        _assert_pool_matches_per_hour(series, 380, (56, 364))

    def test_zero_noise_series(self):
        series = _recursive_series(380, _TRUE_BETA, seed=3)
        _assert_pool_matches_per_hour(series, 375, (56, 112, 364))

    def test_short_window_dropped_as_in_per_hour_fits(self):
        # Window 25 has 25 usable days; window 45 starts at day 0 and keeps 38.
        series = synth_generate(60, seed=2)
        pool, failures = forecast_pool(series, 45, (45, 25))
        assert pool.window_lengths == (45,)
        assert isinstance(failures[25], InsufficientDataError)
        _assert_pool_matches_per_hour(series, 45, (45, 25))

    def test_every_window_failing_raises(self):
        # Lag trimming leaves 29 usable days in each window.
        series = synth_generate(60, seed=2)
        kept, _, failures = _per_hour_pool(series, 36, (36, 30))
        assert kept == () and set(failures) == {36, 30}
        with pytest.raises(CalibrationError, match="every pool variant failed"):
            forecast_pool(series, 36, (36, 30))


class TestPartialPool:
    @settings(max_examples=12, deadline=None)
    @given(
        regime=st.sampled_from(["low", "high", "spiky"]),
        seed=st.integers(0, 10_000),
        offset=st.integers(0, 35),
        data=st.data(),
    )
    def test_solved_variants_equal_full_pool(self, regime, seed, offset, data):
        window_lengths = data.draw(st.sampled_from([DEFAULT_POOL_WINDOWS, (30, 56)]))
        solve = data.draw(st.sets(st.sampled_from(window_lengths), min_size=1))
        series = synth_generate(400, seed=seed, regime=regime)
        d = 364 + offset
        full, _ = forecast_pool(series, d, window_lengths)
        part, failures = forecast_pool(series, d, window_lengths, solve)
        assert failures == {}
        assert part.window_lengths == tuple(w for w in window_lengths if w in solve)
        for length, values in zip(part.window_lengths, part.values):
            assert np.array_equal(values, full.variant(length)), length

    def test_primary_only(self):
        series = synth_generate(400, seed=4, regime="spiky")
        full, _ = forecast_pool(series, 380)
        part, _ = forecast_pool(series, 380, solve=(364,))
        assert part.window_lengths == (364,)
        assert np.array_equal(part.values[0], full.variant(364))

    def test_failures_cover_solved_variants(self):
        # Window 25 keeps 25 usable days and fails only when it is solved.
        series = synth_generate(60, seed=2)
        pool, failures = forecast_pool(series, 45, (45, 25), solve=(45,))
        assert pool.window_lengths == (45,) and failures == {}
        with pytest.raises(CalibrationError, match="every pool variant failed"):
            forecast_pool(series, 45, (45, 25), solve=(25,))

    @pytest.mark.parametrize("solve", [(), (84,)])
    def test_solve_outside_window_lengths(self, solve):
        with pytest.raises(ValueError, match="solve"):
            forecast_pool(synth_generate(400, seed=1), 380, (56, 364), solve)


class TestDump:
    def test_coefficient_csv(self, tmp_path):
        series = synth_generate(120, seed=1)
        win = window(series, end_day=100, length=90)
        fitted = [calibrate(win, h) for h in (1, 2)]
        path = tmp_path / "coef.csv"
        dump_coefficients(path, fitted)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",") == ["hour", "window_length", *FEATURE_NAMES]
        assert len(lines) == 3
