import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    pi_hit,
    pinball,
    sp_coverage_all,
    sp_coverage_hours,
    sp_pinball_all,
    sp_pinball_buy,
    sp_pinball_buysell,
    sp_pinball_sell,
)
from quantbess.bess_trading import choose_hours
from quantbess.eval_metrics import (
    DEFAULT_ALPHAS,
    METRICS,
    alpha_quantiles,
    check_scores,
    daily_scores,
)
from quantbess.prob_models import (
    MEDIAN_INDEX,
    QUANTILE_GRID,
    MethodContext,
    quantile_index,
    quantile_matrix,
)

finite = st.floats(-1000.0, 1000.0, allow_nan=False)

#: Trading hours of the hand-built days: bid at h1, offer at h2.
HOURS = (4, 19)


def _random_day(rng, spread=10.0):
    """(24, 99) monotone forecast matrix plus realized prices."""
    centers = rng.normal(50.0, 8.0, 24)
    qf = np.sort(centers[:, None] + rng.normal(0.0, spread, (24, 99)), axis=1)
    prices = centers + rng.normal(0.0, spread, 24)
    return qf, prices


def _scores(qf, prices, alpha=0.8, hours=HOURS):
    """`daily_scores` of one alpha as a metric -> value dict."""
    return dict(zip(METRICS, daily_scores(qf, prices, hours, (alpha,))[0]))


def _pinball_via_scores(q, price, forecast):
    """The pinball `daily_scores` charges at grid level q on a day whose
    quantiles all equal `forecast` and whose prices all equal `price`: the
    bid's (alpha = 2q - 1) for q >= 0.5, else the offer's (alpha = 1 - 2q)."""
    q = round(q, 2)
    qf, prices = np.full((24, 99), float(forecast)), np.full(24, float(price))
    if q >= 0.5:
        return _scores(qf, prices, alpha=round(2.0 * q - 1.0, 2))["pinball_buy"]
    return _scores(qf, prices, alpha=round(1.0 - 2.0 * q, 2))["pinball_sell"]


#: A quantile row with the alpha = 0.8 interval [40, 60] (grid columns 9 and 89).
_ROW = 40.0 + 0.25 * (np.arange(99) - 9)


def _coverage(price, row=_ROW):
    """coverage_all of a day whose 24 hours share `row` and `price`."""
    return _scores(np.tile(row, (24, 1)), np.full(24, float(price)))["coverage_all"]


class TestPinball:
    def test_examples(self):
        assert _pinball_via_scores(0.5, 100.0, 90.0) == pytest.approx(5.0)
        assert _pinball_via_scores(0.9, 80.0, 100.0) == pytest.approx(2.0)
        assert _pinball_via_scores(0.3, 7.0, 7.0) == 0.0
        assert pinball(0.9, 80.0, 100.0) == pytest.approx(2.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 99),
        finite,
        finite,
    )
    def test_nonnegative_and_zero_at_match(self, level, price, forecast):
        q = level / 100.0
        loss = _pinball_via_scores(q, price, forecast)
        assert loss >= 0.0
        assert loss == pytest.approx(pinball(q, price, forecast), rel=1e-12, abs=1e-12)
        assert _pinball_via_scores(q, price, price) == 0.0

    def test_piecewise_slopes(self):
        q, price = 0.37, 50.0
        eps = 1e-6
        below = (_pinball_via_scores(q, price, 40.0 + eps) - _pinball_via_scores(q, price, 40.0)) / eps
        above = (_pinball_via_scores(q, price, 60.0 + eps) - _pinball_via_scores(q, price, 60.0)) / eps
        assert below == pytest.approx(-q, abs=1e-6)
        assert above == pytest.approx(1.0 - q, abs=1e-6)

    def test_invalid_q(self):
        # alpha = 1 asks for the levels 0 and 1, outside the open grid
        qf, prices = np.zeros((24, 99)), np.zeros(24)
        with pytest.raises(ValueError):
            daily_scores(qf, prices, HOURS, (1.0,))
        with pytest.raises(ValueError):
            pinball(1.0, 1.0, 1.0)


class TestPiHit:
    def test_interior(self):
        assert _coverage(50.0) == 1.0
        assert pi_hit(50.0, 40.0, 60.0) == 1

    def test_closed_boundary(self):
        assert _coverage(60.0) == 1.0
        assert _coverage(40.0) == 1.0

    def test_outside(self):
        assert _coverage(61.0) == 0.0
        assert _coverage(39.0) == 0.0

    def test_reversed_bounds(self):
        # quantile_matrix sorts each row, so no interval it hands to
        # daily_scores is reversed
        qf = quantile_matrix(MethodContext("rev", offsets=-_ROW + 50.0), point=np.zeros(24))
        assert (np.diff(qf, axis=1) >= 0).all()
        assert _scores(qf, np.full(24, 0.0))["coverage_all"] == 1.0
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
        assert _scores(qf, prices)["pinball_all"] == 0.0

    def test_constant_offset_average(self):
        # price 1 above a flat zero forecast: the loss at quantile q is q,
        # and the grid mean of q over 0.01..0.99 is exactly 0.5.
        qf = np.zeros((24, 99))
        prices = np.ones(24)
        assert _scores(qf, prices)["pinball_all"] == pytest.approx(0.5, abs=1e-12)

    def test_single_cell_perturbation(self, rng):
        qf, prices = _random_day(rng)
        base = _scores(qf, prices)["pinball_all"]
        h, qi = 5, 98  # top quantile stays monotone when raised
        bumped = qf.copy()
        bumped[h, qi] += 3.0
        delta = (
            pinball(QUANTILE_GRID[qi], prices[h], bumped[h, qi])
            - pinball(QUANTILE_GRID[qi], prices[h], qf[h, qi])
        ) / (24 * 99)
        assert _scores(bumped, prices)["pinball_all"] - base == pytest.approx(delta, abs=1e-12)

    def test_brute_force(self, rng):
        qf, prices = _random_day(rng)
        brute = np.mean([
            pinball(QUANTILE_GRID[qi], prices[h], qf[h, qi])
            for h in range(24)
            for qi in range(99)
        ])
        assert _scores(qf, prices)["pinball_all"] == pytest.approx(brute, abs=1e-12)
        assert sp_pinball_all(qf, prices) == pytest.approx(brute, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            daily_scores(np.zeros((23, 99)), np.zeros(24), HOURS, (0.8,))
        with pytest.raises(ValueError):
            daily_scores(np.zeros((24, 99)), np.zeros(23), HOURS, (0.8,))


class TestTradingPinball:
    def test_zero_when_quantiles_match_price(self):
        qf = np.tile(np.linspace(40, 60, 99), (24, 1))
        lo, up = alpha_quantiles(0.8)
        prices = np.full(24, 50.0)
        prices[HOURS[0] - 1] = qf[0, quantile_index(up)]
        prices[HOURS[1] - 1] = qf[0, quantile_index(lo)]
        scores = _scores(qf, prices)
        assert scores["pinball_buy"] == 0.0
        assert scores["pinball_sell"] == 0.0

    def test_buysell_is_mean(self, rng):
        qf, prices = _random_day(rng)
        (i1, i2) = (h - 1 for h in HOURS)
        for alpha in (0.5, 0.8, 0.98):
            scores = _scores(qf, prices, alpha)
            assert scores["pinball_buysell"] == pytest.approx(
                0.5 * (scores["pinball_buy"] + scores["pinball_sell"]), abs=1e-12
            )
            assert scores["pinball_buysell"] == pytest.approx(
                sp_pinball_buysell(qf[i1], qf[i2], prices[i1], prices[i2], alpha), abs=1e-12
            )

    def test_alpha_08_uses_tail_quantiles(self, rng):
        qf, prices = _random_day(rng)
        (i1, i2) = (h - 1 for h in HOURS)
        scores = _scores(qf, prices, 0.8)
        assert scores["pinball_buy"] == pytest.approx(pinball(0.9, prices[i1], qf[i1, 89]))
        assert scores["pinball_sell"] == pytest.approx(pinball(0.1, prices[i2], qf[i2, 9]))


class TestCoverage:
    def test_all_inside(self, rng):
        qf, _ = _random_day(rng)
        prices = qf[:, 49]  # the median is always inside the PI
        assert _scores(qf, prices)["coverage_all"] == 1.0

    def test_half_inside(self, rng):
        qf, _ = _random_day(rng)
        prices = qf[:, 49].copy()
        prices[:12] = qf[:12, 98] + 100.0  # push 12 hours far above the PI
        assert _scores(qf, prices)["coverage_all"] == 0.5

    def test_brute_force(self, rng):
        qf, prices = _random_day(rng, spread=3.0)
        alpha = 0.9
        lo, up = alpha_quantiles(alpha)
        brute = np.mean([
            pi_hit(prices[h], qf[h, quantile_index(lo)], qf[h, quantile_index(up)])
            for h in range(24)
        ])
        assert _scores(qf, prices, alpha)["coverage_all"] == pytest.approx(brute)
        assert sp_coverage_all(qf, prices, alpha) == pytest.approx(brute)

    def test_union_weighted_mean(self, rng):
        qf1, p1 = _random_day(rng, spread=3.0)
        qf2, p2 = _random_day(rng, spread=3.0)
        c1 = _scores(qf1, p1)["coverage_all"]
        c2 = _scores(qf2, p2)["coverage_all"]
        hits = sum(
            pi_hit(p[h], qf[h, 9], qf[h, 89]) for qf, p in ((qf1, p1), (qf2, p2)) for h in range(24)
        )
        assert (c1 + c2) / 2 == pytest.approx(hits / 48)

    def test_coverage_hours_strictness(self):
        qf = np.tile(np.linspace(40, 60, 99), (24, 1))
        lo, up = alpha_quantiles(0.8)
        upper, lower = qf[0, quantile_index(up)], qf[0, quantile_index(lo)]

        def hit(price_h1, price_h2):
            prices = np.full(24, 50.0)
            prices[[HOURS[0] - 1, HOURS[1] - 1]] = price_h1, price_h2
            got = _scores(qf, prices)["coverage_hours"]
            assert got == sp_coverage_hours(qf[0], qf[0], price_h1, price_h2, 0.8)
            return got

        assert hit(upper - 1.0, lower + 1.0) == 1
        assert hit(upper, lower + 1.0) == 0  # boundary
        assert hit(upper - 1.0, lower) == 0
        assert hit(upper + 1.0, lower - 1.0) == 0


class TestDailyScores:
    def test_fields_and_validation(self, rng):
        qf, prices = _random_day(rng)
        h1, h2 = 4, 19
        alphas = (0.5, 0.8, 0.98)
        block = daily_scores(qf, prices, (h1, h2), alphas)
        assert block.shape == (len(alphas), len(METRICS))
        row1, row2 = qf[h1 - 1], qf[h2 - 1]
        p1, p2 = prices[h1 - 1], prices[h2 - 1]
        for row, alpha in zip(block, alphas):
            oracle = {
                "pinball_all": sp_pinball_all(qf, prices),
                "pinball_buysell": sp_pinball_buysell(row1, row2, p1, p2, alpha),
                "pinball_sell": sp_pinball_sell(row2, p2, alpha),
                "pinball_buy": sp_pinball_buy(row1, p1, alpha),
                "coverage_all": sp_coverage_all(qf, prices, alpha),
                "coverage_hours": float(sp_coverage_hours(row1, row2, p1, p2, alpha)),
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

    def test_trading_hours_validation(self, rng):
        # the hours daily_scores reads come from choose_hours, which keeps
        # them distinct and on 1..24 even on a flat median
        qf, prices = _random_day(rng)
        qf[:, MEDIAN_INDEX] = 50.0
        h1, h2 = choose_hours(qf[:, MEDIAN_INDEX])
        assert (h1, h2) == (1, 2)
        block = daily_scores(qf, prices, (h1, h2), DEFAULT_ALPHAS)
        assert block[:, METRICS.index("pinball_buy")].tolist() == [
            sp_pinball_buy(qf[0], prices[0], alpha) for alpha in DEFAULT_ALPHAS
        ]
