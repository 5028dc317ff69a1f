import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import regressors
from quantbess import point_model
from quantbess.errors import CalibrationError, InsufficientDataError
from quantbess.market_data import MarketSeries, synth_generate
from quantbess.point_model import (
    DEFAULT_POOL_WINDOWS,
    FEATURE_LAG,
    N_COEFFICIENTS,
    WEEK,
    _full_rank,
    calibrate,
    design_tensor,
    forecast_pool,
)


def _design(series, days, h):
    """The regressor rows of hour h for the given days."""
    return design_tensor(series)[h - 1, np.asarray(days) - FEATURE_LAG, :N_COEFFICIENTS]


def _days(end_day, length):
    """The `length` days that end at `end_day`."""
    return np.arange(end_day - length + 1, end_day + 1)


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
    """The regressor rows of `design_tensor`, which the pool slices."""

    def test_constant_series(self):
        series = _flat_series(20)
        row = _design(series, [10], 13)[0]
        assert (row[:6] == 50.0).all()  # the three lags, eod, max and min
        assert row[6] == 100.0

    def test_week_lag_reads_day_zero(self):
        prices = np.full((10, 24), 50.0)
        prices[0, 0] = 99.0
        series = MarketSeries(prices=prices, loads=np.full((10, 24), 1.0))
        assert _design(series, [7], 1)[0, 2] == 99.0

    def test_previous_day_extremes(self):
        prices = np.full((10, 24), 50.0)
        prices[7] = np.arange(10.0, 241.0, 10.0)  # 10, 20, ..., 240
        series = MarketSeries(prices=prices, loads=np.full((10, 24), 1.0))
        row = _design(series, [8], 3)[0]
        assert row[4] == 240.0  # y_max_prev
        assert row[5] == 10.0   # y_min_prev
        assert row[3] == 240.0  # y_eod

    def test_insufficient_history(self):
        series = _flat_series(20)
        with pytest.raises(InsufficientDataError):
            forecast_pool(design_tensor(series), 6, window_lengths=[5])
        with pytest.raises(InsufficientDataError):
            regressors(series, 6, 1)

    def test_vector_matches_design_row(self):
        series = synth_generate(30, seed=4)
        for d, h in [(8, 1), (15, 12), (25, 24)]:
            assert np.array_equal(regressors(series, d, h), _design(series, [d], h)[0])


class TestCalibrate:
    def test_exact_recovery_zero_noise(self):
        series = _recursive_series(380, _TRUE_BETA, seed=1)
        for h in (1, 5, 18):
            beta = calibrate(series, _days(371, 364), h)
            assert np.allclose(beta, _TRUE_BETA, atol=1e-6)

    def test_constant_series_perfect_fit(self):
        series = _flat_series(400, price=42.0)
        betas = [calibrate(series, _days(399, 364), h) for h in range(1, 25)]
        assert betas[6].shape == (N_COEFFICIENTS,)
        fitted = [regressors(series, 399, h) @ betas[h - 1] for h in range(1, 25)]
        assert np.allclose(fitted, 42.0, atol=1e-8)

    def test_short_window_rejected(self):
        series = _flat_series(60)
        with pytest.raises(InsufficientDataError):
            calibrate(series, _days(30, 25), 1)

    def test_lag_trimming_counts_usable_days(self):
        # Window touching day 0: only days >= 7 are usable.
        series = _flat_series(60)
        with pytest.raises(InsufficientDataError):
            calibrate(series, _days(35, 36), 1)  # 29 usable days

    def test_residual_orthogonality(self):
        series = synth_generate(420, seed=9, regime="high")
        days = _days(400, 364)
        days = days[days >= 7]
        for h in (3, 21):
            beta = calibrate(series, days, h)
            X = _design(series, days, h)
            resid = series.prices[days, h - 1] - X @ beta
            scale = np.abs(series.prices[days, h - 1]).mean()
            assert np.all(np.abs(X.T @ resid) < 1e-6 * scale * days.size)


class TestPredict:
    """Day d's forecast is its regressor row times the fitted coefficients."""

    def test_zero_coefficients(self):
        # a zero price history fits zero coefficients and forecasts zero
        loads = np.random.default_rng(0).uniform(600.0, 1400.0, (120, 24))
        series = MarketSeries(prices=np.zeros((120, 24)), loads=loads)
        pool, _ = forecast_pool(design_tensor(series), 100, window_lengths=[56])
        assert (pool.values == 0.0).all()

    def test_single_eod_coefficient(self):
        coef = np.zeros(14)
        coef[3] = 1.0
        series = synth_generate(30, seed=4)
        X = design_tensor(series)[:, 20 - FEATURE_LAG, :N_COEFFICIENTS]
        assert (X @ coef == series.prices[19, 23]).all()

    def test_in_sample_consistency(self):
        series = synth_generate(120, seed=6)
        beta = calibrate(series, _days(100, 90), 10)
        d = 80
        by_regressors = float(regressors(series, d, 10) @ beta)
        X = _design(series, [d], 10)
        assert by_regressors == pytest.approx(float(X[0] @ beta), abs=1e-9)

    def test_linearity_in_continuous_features(self):
        # day d's load enters its forecast linearly: the window ends at
        # d - 1, so the fit does not move with it
        series = synth_generate(200, seed=6)
        d = 150

        def forecast(load_shift):
            loads = series.loads.copy()
            loads[d] += load_shift
            moved = MarketSeries(prices=series.prices, loads=loads,
                                 start_weekday=series.start_weekday)
            return forecast_pool(design_tensor(moved), d, window_lengths=[56])[0].values[0]

        base = forecast(0.0)
        shift_1, shift_2 = np.linspace(10.0, 240.0, 24), np.full(24, 55.0)
        combined = forecast(shift_1 + shift_2) - base
        assert np.allclose(combined, (forecast(shift_1) - base) + (forecast(shift_2) - base),
                           rtol=1e-9, atol=1e-9)
        slope = [calibrate(series, _days(d - 1, 56), h)[6] for h in range(1, 25)]
        assert np.allclose(forecast(shift_2) - base, 55.0 * np.array(slope), rtol=1e-6, atol=1e-9)

    def test_shifted_constant_series(self):
        for c in (42.0, 142.0):
            series = _flat_series(400, price=c)
            pool, _ = forecast_pool(design_tensor(series), 399, window_lengths=[364])
            assert np.allclose(pool.values[0], c, atol=1e-8)
            fitted = [regressors(series, 399, h) @ calibrate(series, _days(398, 364), h)
                      for h in range(1, 25)]
            assert np.allclose(fitted, c, atol=1e-8)


def _nan_ridge(Xy, hours):
    return np.full((len(hours), N_COEFFICIENTS), np.nan)


def _failing_ridge(Xy, hours):
    raise CalibrationError("ridge failed")


class TestForecastPool:
    def test_single_variant_shape(self):
        series = synth_generate(400, seed=5)
        pool, failures = forecast_pool(design_tensor(series), 380, window_lengths=[364])
        assert pool.values.shape == (1, 24)
        assert failures == {} and pool.window_lengths == (364,)

    def test_zero_noise_variants_agree(self):
        series = _recursive_series(380, _TRUE_BETA, seed=2)
        pool, _ = forecast_pool(design_tensor(series), 375, window_lengths=[56, 112, 364])
        assert np.allclose(pool.values[0], pool.values[1], atol=1e-6)
        assert np.allclose(pool.values[0], pool.values[2], atol=1e-6)

    def test_spiky_variants_differ(self):
        series = synth_generate(400, seed=8, regime="spiky")
        pool, _ = forecast_pool(design_tensor(series), 380, window_lengths=[56, 364])
        assert np.any(np.abs(pool.values[0] - pool.values[1]) > 1e-6)

    def test_insufficient_history(self):
        series = synth_generate(100, seed=0)
        with pytest.raises(InsufficientDataError):
            forecast_pool(design_tensor(series), 90, window_lengths=[364])

    def test_day_past_the_series(self):
        # day 120 has no regressors in a 120-day series (days 0..119)
        tensor = design_tensor(synth_generate(120, seed=1))
        with pytest.raises(InsufficientDataError, match=r"past the series' last day \(119\)"):
            forecast_pool(tensor, 120, (30, 56))
        pool, _ = forecast_pool(tensor, 119, (30, 56))
        assert pool.day == 119

    @pytest.mark.parametrize("ridge, match", [
        (_nan_ridge, "window 30, hour 24: non-finite coefficients"),
        (_failing_ridge, "window 30: ridge failed"),
    ], ids=["non-finite", "raises"])
    def test_failed_fit_raises(self, monkeypatch, ridge, match):
        # hour 24 is always rank deficient, so every window takes the ridge
        monkeypatch.setattr(point_model, "_ridge", ridge)
        with pytest.raises(CalibrationError, match=match):
            forecast_pool(design_tensor(synth_generate(120, seed=1)), 100, (30, 56))

    def test_default_pool(self):
        assert DEFAULT_POOL_WINDOWS == (56, 84, 112, 182, 364)


def _per_hour_pool(series, d, window_lengths):
    """forecast_pool's reference: `calibrate` per window and hour, applied to
    day d's regressors; one row per window."""
    rows = []
    for length in window_lengths:
        betas = [calibrate(series, np.arange(d - length, d), h) for h in range(1, 25)]
        rows.append(np.array([regressors(series, d, h) @ betas[h - 1] for h in range(1, 25)]))
    return rows


def _assert_pool_matches_per_hour(series, d, window_lengths, solve=None):
    solve = window_lengths if solve is None else solve
    rows = _per_hour_pool(series, d, solve)
    pool, failures = forecast_pool(design_tensor(series), d, window_lengths, solve)
    assert pool.window_lengths == tuple(solve) and failures == {}
    assert len(pool.values) == len(rows)
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

    # Window 25 has 25 usable days; window 45 starts at day 0 and keeps 38.
    # At day 36 lag trimming leaves 29 usable days in windows 36 and 30.
    @pytest.mark.parametrize("d, window_lengths, solve, short", [
        (45, (45, 25), None, 25),
        (45, (45, 25), (25,), 25),
        (36, (36, 30), None, 36),
    ])
    def test_solved_short_window_raises(self, d, window_lengths, solve, short):
        series = synth_generate(60, seed=2)
        with pytest.raises(InsufficientDataError, match=f"window {short}: "):
            forecast_pool(design_tensor(series), d, window_lengths, solve)
        with pytest.raises(InsufficientDataError):
            calibrate(series, np.arange(d - short, d), 1)

    def test_unsolved_short_window_skipped(self):
        # the short window stays out of the week's QR chain: the pool is
        # bitwise the one without it
        series = synth_generate(60, seed=2)
        pool, _ = forecast_pool(design_tensor(series), 45, (45, 25), solve=(45,))
        alone, _ = forecast_pool(design_tensor(series), 45, (45,))
        assert pool.window_lengths == (45,)
        assert np.array_equal(pool.values, alone.values)
        _assert_pool_matches_per_hour(series, 45, (45, 25), solve=(45,))


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
        full, _ = forecast_pool(design_tensor(series), d, window_lengths)
        part, failures = forecast_pool(design_tensor(series), d, window_lengths, solve)
        assert failures == {}
        assert part.window_lengths == tuple(w for w in window_lengths if w in solve)
        for length, values in zip(part.window_lengths, part.values):
            assert np.array_equal(values, full.values[window_lengths.index(length)]), length

    def test_primary_only(self):
        series = synth_generate(400, seed=4, regime="spiky")
        full, _ = forecast_pool(design_tensor(series), 380)
        part, _ = forecast_pool(design_tensor(series), 380, solve=(364,))
        assert part.window_lengths == (364,)
        assert np.array_equal(part.values[0], full.values[DEFAULT_POOL_WINDOWS.index(364)])

    @pytest.mark.parametrize("solve", [(), (84,)])
    def test_solve_outside_window_lengths(self, solve):
        with pytest.raises(ValueError, match="solve"):
            forecast_pool(design_tensor(synth_generate(400, seed=1)), 380, (56, 364), solve)


def _pool_days(tensor, days, window_lengths, solve=None, cores=None):
    """forecast_pool's values on each of `days` in turn, through `cores`."""
    return [forecast_pool(tensor, d, window_lengths, solve, cores)[0].values for d in days]


class TestWeekCores:
    """A kept `cores` dict holds the week's QR cores; it moves no bit."""

    @settings(max_examples=10, deadline=None)
    @given(
        regime=st.sampled_from(["low", "high", "spiky"]),
        seed=st.integers(0, 10_000),
        offset=st.integers(0, 2 * WEEK - 1),
        data=st.data(),
    )
    def test_cores_change_no_bit(self, regime, seed, offset, data):
        window_lengths = data.draw(st.sampled_from([DEFAULT_POOL_WINDOWS, (30, 56)]))
        solve = tuple(data.draw(st.sets(st.sampled_from(window_lengths), min_size=1)))
        other = window_lengths[1:]  # another chain, alternated through one dict
        tensor = design_tensor(synth_generate(400, seed=seed, regime=regime))
        # 15 consecutive days cross two week boundaries; with an offset below
        # 7 the first days cut the longest window at the lag
        first = max(window_lengths) + offset
        days = range(first, first + 2 * WEEK + 1)
        kept, shared = {}, {}
        for d in days:
            fresh = forecast_pool(tensor, d, window_lengths, solve)[0].values
            assert np.array_equal(forecast_pool(tensor, d, window_lengths, solve, kept)[0].values,
                                  fresh), d
            assert np.array_equal(forecast_pool(tensor, d, window_lengths, solve, shared)[0].values,
                                  fresh), d
            assert np.array_equal(forecast_pool(tensor, d, other, cores=shared)[0].values,
                                  forecast_pool(tensor, d, other)[0].values), d
        assert len(kept) == 1

    @pytest.mark.parametrize("c", range(378, 378 + WEEK))
    def test_no_look_ahead_through_a_warm_dict(self, c):
        # prices move from day c on and loads after it; day c's forecasts
        # read day c's loads alone, for every position of c in its week
        series = synth_generate(400, seed=8, regime="spiky")
        prices, loads = series.prices.copy(), series.loads.copy()
        prices[c:] += np.linspace(5.0, 60.0, 24)
        loads[c + 1 :] *= 1.25
        moved = MarketSeries(prices=prices, loads=loads, start_weekday=series.start_weekday)
        days = range(c - 2 * WEEK, c + 2)
        base = _pool_days(design_tensor(series), days, DEFAULT_POOL_WINDOWS, cores={})
        other = _pool_days(design_tensor(moved), days, DEFAULT_POOL_WINDOWS, cores={})
        for d, want, got in zip(days, base, other):
            if d <= c:
                assert np.array_equal(got, want), d
            else:
                assert not np.array_equal(got, want), d


class TestScaleEquivariance:
    """Doubling prices and loads doubles every forecast exactly: the fit is
    column-scale equivariant, and scaling by two is exact in binary."""

    @pytest.mark.parametrize("regime", ["low", "spiky"])
    def test_pool_doubles(self, regime):
        series = synth_generate(400, seed=1, regime=regime)
        doubled = MarketSeries(prices=2.0 * series.prices, loads=2.0 * series.loads,
                               start_weekday=series.start_weekday)
        tensor, doubled = design_tensor(series), design_tensor(doubled)
        days = range(364, 364 + 2 * WEEK)
        want = _pool_days(tensor, days, DEFAULT_POOL_WINDOWS)
        for cores in (None, {}):
            for d, base, got in zip(days, want, _pool_days(doubled, days, DEFAULT_POOL_WINDOWS,
                                                          cores=cores)):
                assert np.array_equal(got, 2.0 * base), d


def _svd_rule(R, rows):
    """lstsq's rank rule on each of a stack of square matrices."""
    sv = np.linalg.svd(R, compute_uv=False)
    tol = np.finfo(float).eps * np.maximum(rows, R.shape[-1]) * sv[..., :1]
    return (sv > tol).all(axis=-1)


class TestRankTest:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(30, 400),
        seed=st.integers(0, 2**32 - 1),
        log_factors=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
        duplicates=st.integers(0, 4),
    )
    def test_matches_svd_rule(self, rows, seed, log_factors, duplicates):
        # Triangular factors with the smallest singular value planted at
        # 10**f times lstsq's threshold (near it for f near 0), and factors
        # of designs with one column exactly duplicated.
        rng = np.random.default_rng(seed)
        n = N_COEFFICIENTS
        stack = []
        for f in log_factors:
            s = np.sort(10.0 ** rng.uniform(-2.0, 4.0, n))[::-1]
            s[-1] = 10.0 ** f * np.finfo(float).eps * max(rows, n) * s[0]
            u = np.linalg.qr(rng.normal(size=(rows, n)))[0]
            v = np.linalg.qr(rng.normal(size=(n, n)))[0]
            stack.append((u * s) @ v.T)
        for _ in range(duplicates):
            X = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-1.0, 3.0, n)
            i, j = rng.choice(n, 2, replace=False)
            X[:, j] = X[:, i]
            stack.append(X)
        R = np.linalg.qr(np.stack(stack), mode="r")
        assert np.array_equal(_full_rank(R, rows), _svd_rule(R, rows))

    def test_pool_hour_24_is_deficient(self):
        series = synth_generate(400, seed=3, regime="spiky")
        days = np.arange(300, 364)
        X = design_tensor(series)[:, days - FEATURE_LAG, :N_COEFFICIENTS]
        R = np.linalg.qr(X, mode="r")
        full = _full_rank(R, days.size)
        assert not full[23] and full[:23].all()
        assert np.array_equal(full, _svd_rule(R, days.size))

