import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantbess.eval_metrics import (
    DEFAULT_ALPHAS,
    METRICS,
    TradingHours,
    alpha_quantiles,
    check_scores,
    daily_scores,
    forecast_matrix,
    pi_hit,
    pinball,
    sp_coverage_all,
    sp_coverage_hours,
    sp_pinball_all,
    sp_pinball_buy,
    sp_pinball_buysell,
    sp_pinball_sell,
)
from quantbess.prob_models import QUANTILE_GRID, QuantileForecast, quantile_index

finite = st.floats(-1000.0, 1000.0, allow_nan=False)


def _random_day(rng, spread=10.0):
    """(24, 99) monotone forecast matrix plus realized prices."""
    centers = rng.normal(50.0, 8.0, 24)
    qf = np.sort(centers[:, None] + rng.normal(0.0, spread, (24, 99)), axis=1)
    prices = centers + rng.normal(0.0, spread, 24)
    return qf, prices


class TestPinball:
    def test_examples(self):
        assert pinball(0.5, 100.0, 90.0) == pytest.approx(5.0)
        assert pinball(0.9, 80.0, 100.0) == pytest.approx(2.0)
        assert pinball(0.3, 7.0, 7.0) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.01, 0.99),
        finite,
        finite,
    )
    def test_nonnegative_and_zero_at_match(self, q, price, forecast):
        loss = pinball(q, price, forecast)
        assert loss >= 0.0
        assert pinball(q, price, price) == 0.0

    def test_piecewise_slopes(self):
        q, price = 0.37, 50.0
        eps = 1e-6
        below = (pinball(q, price, 40.0 + eps) - pinball(q, price, 40.0)) / eps
        above = (pinball(q, price, 60.0 + eps) - pinball(q, price, 60.0)) / eps
        assert below == pytest.approx(-q, abs=1e-6)
        assert above == pytest.approx(1.0 - q, abs=1e-6)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            pinball(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            pinball(1.0, 1.0, 1.0)


class TestPiHit:
    def test_interior(self):
        assert pi_hit(50.0, 40.0, 60.0) == 1

    def test_closed_boundary(self):
        assert pi_hit(60.0, 40.0, 60.0) == 1
        assert pi_hit(40.0, 40.0, 60.0) == 1

    def test_outside(self):
        assert pi_hit(61.0, 40.0, 60.0) == 0

    def test_reversed_bounds(self):
        with pytest.raises(ValueError):
            pi_hit(50.0, 60.0, 40.0)


class TestAlphaGrid:
    def test_default_alphas(self):
        assert len(DEFAULT_ALPHAS) == 25
        assert DEFAULT_ALPHAS[0] == 0.50
        assert DEFAULT_ALPHAS[-1] == 0.98

    def test_quantile_pairs(self):
        for alpha in DEFAULT_ALPHAS:
            lo, up = alpha_quantiles(alpha)
            assert lo + up == pytest.approx(1.0)
            assert up - lo == pytest.approx(alpha)

    def test_off_grid_rejected(self):
        with pytest.raises(ValueError):
            alpha_quantiles(0.85)  # bounds 0.075/0.925 are off the 1% grid


class TestPinballAll:
    def test_perfect_forecast(self, rng):
        prices = rng.normal(50, 10, 24)
        qf = np.tile(prices[:, None], (1, 99))
        assert sp_pinball_all(qf, prices) == 0.0

    def test_constant_offset_average(self):
        # price 1 above a flat zero forecast: the loss at quantile q is q,
        # and the grid mean of q over 0.01..0.99 is exactly 0.5.
        qf = np.zeros((24, 99))
        prices = np.ones(24)
        assert sp_pinball_all(qf, prices) == pytest.approx(0.5, abs=1e-12)

    def test_single_cell_perturbation(self, rng):
        qf, prices = _random_day(rng)
        base = sp_pinball_all(qf, prices)
        h, qi = 5, 98  # top quantile stays monotone when raised
        bumped = qf.copy()
        bumped[h, qi] += 3.0
        delta = (
            pinball(QUANTILE_GRID[qi], prices[h], bumped[h, qi])
            - pinball(QUANTILE_GRID[qi], prices[h], qf[h, qi])
        ) / (24 * 99)
        assert sp_pinball_all(bumped, prices) - base == pytest.approx(delta, abs=1e-12)

    def test_brute_force(self, rng):
        qf, prices = _random_day(rng)
        brute = np.mean([
            pinball(QUANTILE_GRID[qi], prices[h], qf[h, qi])
            for h in range(24)
            for qi in range(99)
        ])
        assert sp_pinball_all(qf, prices) == pytest.approx(brute, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sp_pinball_all(np.zeros((23, 99)), np.zeros(24))
        with pytest.raises(ValueError):
            forecast_matrix([np.zeros(99)] * 23)


class TestTradingPinball:
    def _forecasts(self, rng):
        qf, prices = _random_day(rng)
        fc1 = QuantileForecast(day=0, hour=3, q_values=qf[2])
        fc2 = QuantileForecast(day=0, hour=19, q_values=qf[18])
        return fc1, fc2, prices[2], prices[18]

    def test_zero_when_quantiles_match_price(self):
        values = np.linspace(40, 60, 99)
        fc = QuantileForecast(day=0, hour=1, q_values=values)
        lo, up = alpha_quantiles(0.8)
        assert sp_pinball_buy(fc, fc.value(up), 0.8) == 0.0
        assert sp_pinball_sell(fc, fc.value(lo), 0.8) == 0.0

    def test_buysell_is_mean(self, rng):
        fc1, fc2, p1, p2 = self._forecasts(rng)
        for alpha in (0.5, 0.8, 0.98):
            combined = sp_pinball_buysell(fc1, fc2, p1, p2, alpha)
            expected = 0.5 * (
                sp_pinball_buy(fc1, p1, alpha) + sp_pinball_sell(fc2, p2, alpha)
            )
            assert combined == pytest.approx(expected, abs=1e-12)

    def test_alpha_08_uses_tail_quantiles(self, rng):
        fc1, fc2, p1, p2 = self._forecasts(rng)
        buy = sp_pinball_buy(fc1, p1, 0.8)
        sell = sp_pinball_sell(fc2, p2, 0.8)
        assert buy == pytest.approx(pinball(0.9, p1, fc1.q_values[quantile_index(0.9)]))
        assert sell == pytest.approx(pinball(0.1, p2, fc2.q_values[quantile_index(0.1)]))


class TestCoverage:
    def test_all_inside(self, rng):
        qf, _ = _random_day(rng)
        prices = qf[:, 49]  # the median is always inside the PI
        assert sp_coverage_all(qf, prices, 0.8) == 1.0

    def test_half_inside(self, rng):
        qf, _ = _random_day(rng)
        prices = qf[:, 49].copy()
        prices[:12] = qf[:12, 98] + 100.0  # push 12 hours far above the PI
        assert sp_coverage_all(qf, prices, 0.8) == 0.5

    def test_brute_force(self, rng):
        qf, prices = _random_day(rng, spread=3.0)
        alpha = 0.9
        lo, up = alpha_quantiles(alpha)
        brute = np.mean([
            pi_hit(prices[h], qf[h, quantile_index(lo)], qf[h, quantile_index(up)])
            for h in range(24)
        ])
        assert sp_coverage_all(qf, prices, alpha) == pytest.approx(brute)

    def test_union_weighted_mean(self, rng):
        qf1, p1 = _random_day(rng, spread=3.0)
        qf2, p2 = _random_day(rng, spread=3.0)
        c1 = sp_coverage_all(qf1, p1, 0.8)
        c2 = sp_coverage_all(qf2, p2, 0.8)
        hits = c1 * 24 + c2 * 24
        assert (c1 + c2) / 2 == pytest.approx(hits / 48)

    def test_coverage_hours_strictness(self):
        values = np.linspace(40, 60, 99)
        fc = QuantileForecast(day=0, hour=1, q_values=values)
        fc2 = QuantileForecast(day=0, hour=2, q_values=values)
        lo, up = alpha_quantiles(0.8)
        upper, lower = fc.value(up), fc2.value(lo)
        assert sp_coverage_hours(fc, fc2, upper - 1.0, lower + 1.0, 0.8) == 1
        assert sp_coverage_hours(fc, fc2, upper, lower + 1.0, 0.8) == 0  # boundary
        assert sp_coverage_hours(fc, fc2, upper - 1.0, lower, 0.8) == 0
        assert sp_coverage_hours(fc, fc2, upper + 1.0, lower - 1.0, 0.8) == 0


class TestDailyScores:
    def test_fields_and_validation(self, rng):
        qf, prices = _random_day(rng)
        hours = TradingHours(h1=4, h2=19)
        alphas = (0.5, 0.8, 0.98)
        block = daily_scores(qf, prices, hours, alphas)
        assert block.shape == (len(alphas), len(METRICS))
        fc1 = QuantileForecast(day=12, hour=hours.h1, q_values=qf[hours.h1 - 1])
        fc2 = QuantileForecast(day=12, hour=hours.h2, q_values=qf[hours.h2 - 1])
        p1, p2 = prices[hours.h1 - 1], prices[hours.h2 - 1]
        for row, alpha in zip(block, alphas):
            oracle = {
                "pinball_all": sp_pinball_all(qf, prices),
                "pinball_buysell": sp_pinball_buysell(fc1, fc2, p1, p2, alpha),
                "pinball_sell": sp_pinball_sell(fc2, p2, alpha),
                "pinball_buy": sp_pinball_buy(fc1, p1, alpha),
                "coverage_all": sp_coverage_all(qf, prices, alpha),
                "coverage_hours": float(sp_coverage_hours(fc1, fc2, p1, p2, alpha)),
            }
            assert row.tolist() == [oracle[m] for m in METRICS]
            assert 0.0 <= row[METRICS.index("coverage_all")] <= 1.0
            assert row[METRICS.index("coverage_hours")] in (0.0, 1.0)

    def test_invalid_scores_rejected(self):
        valid = [1.0, 1.0, 1.0, 1.0, 0.5, 0.0]
        check_scores(np.array([valid]))
        for column, value in ((4, 1.5), (0, -1.0), (3, -1e-9), (5, 0.5), (4, np.nan)):
            bad = np.array([valid, valid])
            bad[1, column] = value
            with pytest.raises(ValueError):
                check_scores(bad)

    def test_trading_hours_validation(self):
        with pytest.raises(ValueError):
            TradingHours(h1=5, h2=5)
        with pytest.raises(ValueError):
            TradingHours(h1=0, h2=5)
