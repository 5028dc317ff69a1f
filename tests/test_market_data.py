import datetime

import numpy as np
import pytest

from oracles import regressors
from quantbess.errors import GapError, InsufficientDataError, ParseError
from quantbess.market_data import (
    MarketSeries,
    export_csv,
    ingest_csv,
    synth_generate,
)
from quantbess.point_model import N_COEFFICIENTS, calibrate, design_tensor, forecast_pool


def _flat_series(n_days, price=50.0, load=100.0, start_weekday=1):
    return MarketSeries(
        prices=np.full((n_days, 24), price),
        loads=np.full((n_days, 24), load),
        start_weekday=start_weekday,
    )


def _write_csv(path, rows, header="timestamp,price,load_forecast"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def _hourly_rows(start, n_hours, price_fn=lambda i: 40.0 + i % 24, load_fn=lambda i: 900.0):
    rows = []
    for i in range(n_hours):
        ts = start + datetime.timedelta(hours=i)
        rows.append(f"{ts.isoformat()},{price_fn(i)},{load_fn(i)}")
    return rows


class TestMarketSeries:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MarketSeries(prices=np.zeros((3, 23)), loads=np.zeros((3, 23)))

    def test_negative_load_rejected(self):
        loads = np.full((2, 24), 5.0)
        loads[1, 3] = -1.0
        with pytest.raises(ValueError):
            MarketSeries(prices=np.zeros((2, 24)), loads=loads)

    def test_immutable_matrices(self):
        series = _flat_series(3)
        with pytest.raises(ValueError):
            series.prices[0, 0] = 1.0

    def test_weekday_periodicity(self):
        series = _flat_series(30, start_weekday=4)
        for d in range(20):
            assert series.weekday(d) == series.weekday(d + 7)
        assert series.weekday(0) == 4

    def test_weekday_dummies_one_hot(self):
        # the seven weekday columns of the regressors
        series = _flat_series(21, start_weekday=6)
        days = np.arange(7, 21)
        dummies = design_tensor(series)[:, :, 7:N_COEFFICIENTS]
        assert (dummies.sum(axis=2) == 1.0).all()
        for i, d in enumerate(days):
            assert (dummies[:, i, series.weekday(d) - 1] == 1.0).all()


def _window_forecast(series, d, length, h):
    """Hour h of day d from `calibrate` on the days d - length .. d - 1."""
    return regressors(series, d, h) @ calibrate(series, np.arange(d - length, d), h)


class TestWindow:
    """A pool window of length L for day d holds days d - L .. d - 1."""

    def test_full_span(self):
        series = synth_generate(365, seed=3)
        pool, failures = forecast_pool(design_tensor(series), 364, window_lengths=[364])
        assert failures == {} and pool.window_lengths == (364,)
        want = _window_forecast(series, 364, 364, 5)
        assert pool.values[0, 4] == pytest.approx(want, rel=1e-10)

    def test_overlong_window_rejected(self):
        series = synth_generate(365, seed=3)
        with pytest.raises(InsufficientDataError):
            forecast_pool(design_tensor(series), 363, window_lengths=[364])

    def test_interior_window(self):
        series = synth_generate(500, seed=3)
        pool, _ = forecast_pool(design_tensor(series), 401, window_lengths=[30])
        for h in (1, 12, 24):
            want = _window_forecast(series, 401, 30, h)
            assert pool.values[0, h - 1] == pytest.approx(want, rel=1e-10)

    def test_view_slices(self):
        # prices before the window's lags, and after day d - 1, are not read
        series = synth_generate(120, seed=3)
        d, length = 100, 56
        base, _ = forecast_pool(design_tensor(series), d, window_lengths=[length])
        for day, read in ((d - length - 8, False), (d - length - 7, True),
                          (d - 1, True), (d, False), (d + 5, False)):
            prices = series.prices.copy()
            prices[day] += 40.0
            moved = MarketSeries(prices=prices, loads=series.loads,
                                 start_weekday=series.start_weekday)
            pool, _ = forecast_pool(design_tensor(moved), d, window_lengths=[length])
            assert (not np.array_equal(pool.values, base.values)) == read, day

    def test_reversed_bounds_rejected(self):
        # a window that ends before the first day with lags, so that its
        # lag-trimmed span [7, d - 1] is reversed, is no window
        series = _flat_series(60)
        with pytest.raises(InsufficientDataError):
            forecast_pool(design_tensor(series), 5, window_lengths=[3])
        with pytest.raises(InsufficientDataError):
            calibrate(series, np.arange(2, 5), 1)


class TestSynthGenerate:
    def test_deterministic(self):
        a = synth_generate(10, seed=1)
        b = synth_generate(10, seed=1)
        assert np.array_equal(a.prices, b.prices)
        assert np.array_equal(a.loads, b.loads)
        assert a.start_weekday == b.start_weekday

    def test_single_day_shape(self):
        series = synth_generate(1, seed=0)
        assert series.prices.shape == (1, 24)
        assert np.isfinite(series.prices).all()

    def test_spiky_regime_has_outliers(self):
        series = synth_generate(365, seed=0, regime="spiky")
        std = series.prices.std()
        assert np.any(np.abs(series.prices) > 3.0 * std)

    def test_regimes_differ(self):
        low = synth_generate(50, seed=5, regime="low")
        high = synth_generate(50, seed=5, regime="high")
        assert low.prices.std() < high.prices.std()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            synth_generate(0, seed=0)
        with pytest.raises(ValueError):
            synth_generate(5, seed=0, regime="wild")


class TestCsvRoundTrip:
    def test_export_ingest_identity(self, tmp_path):
        series = synth_generate(9, seed=7, regime="high")
        path = tmp_path / "series.csv"
        export_csv(series, path)
        back = ingest_csv(path)
        assert np.array_equal(back.prices, series.prices)
        assert np.array_equal(back.loads, series.loads)
        assert back.start_weekday == series.start_weekday

    def test_ingest_idempotent(self, tmp_path):
        series = synth_generate(5, seed=2)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(series, first)
        export_csv(ingest_csv(first), second)
        assert first.read_text() == second.read_text()


class TestIngest:
    def test_single_gap_filled(self, tmp_path):
        start = datetime.datetime(2021, 3, 1)
        rows = _hourly_rows(start, 48)
        removed = rows.pop(26)  # hour 2 of day 1
        path = tmp_path / "gap.csv"
        _write_csv(path, rows)
        series = ingest_csv(path)
        assert series.n_days == 2
        left, right = series.prices[1, 1], series.prices[1, 3]
        assert series.prices[1, 2] == pytest.approx(0.5 * (left + right))
        assert removed  # sanity: a row really was dropped

    def test_double_gap_rejected(self, tmp_path):
        start = datetime.datetime(2021, 3, 1)
        rows = _hourly_rows(start, 48)
        del rows[26:28]
        path = tmp_path / "gap2.csv"
        _write_csv(path, rows)
        with pytest.raises(GapError):
            ingest_csv(path)

    def test_duplicate_hour_averaged(self, tmp_path):
        start = datetime.datetime(2021, 10, 1)
        rows = _hourly_rows(start, 24, price_fn=lambda i: 10.0 + i)
        dup_ts = (start + datetime.timedelta(hours=2)).isoformat()
        rows.insert(3, f"{dup_ts},100.0,900.0")
        path = tmp_path / "dup.csv"
        _write_csv(path, rows)
        series = ingest_csv(path)
        assert series.prices[0, 2] == pytest.approx(0.5 * (12.0 + 100.0))

    def test_parse_error_carries_line_number(self, tmp_path):
        rows = _hourly_rows(datetime.datetime(2021, 1, 1), 24)
        rows[5] = "not-a-timestamp,1.0,2.0"
        path = tmp_path / "bad.csv"
        _write_csv(path, rows)
        with pytest.raises(ParseError) as err:
            ingest_csv(path)
        assert err.value.line_no == 7  # header + 1-based data offset

    def test_missing_column(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("timestamp,price\n2021-01-01T00:00:00,5\n")
        with pytest.raises(ParseError):
            ingest_csv(path)

    def test_min_days_enforced(self, tmp_path):
        series = synth_generate(10, seed=0)
        path = tmp_path / "short.csv"
        export_csv(series, path)
        with pytest.raises(InsufficientDataError):
            ingest_csv(path, min_days=11)

    def test_custom_schema_and_delimiter(self, tmp_path):
        path = tmp_path / "semi.csv"
        rows = [
            f"{(datetime.datetime(2022, 1, 3) + datetime.timedelta(hours=i)).isoformat()};{30 + i};{800}"
            for i in range(24)
        ]
        path.write_text("ts;p;l\n" + "\n".join(rows) + "\n")
        series = ingest_csv(
            path,
            schema={"timestamp": "ts", "price": "p", "load": "l"},
            delimiter=";",
        )
        assert series.n_days == 1
        assert series.prices[0, 5] == 35.0
        assert series.start_weekday == 1  # 2022-01-03 is a Monday
