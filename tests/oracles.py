"""Reference implementations that the tests check the array path against.

Plain functions over arrays and ints, written from the definitions of the
scores, the regressors and the losses rather than from the package's code.
They import from `quantbess` only constants, `MarketSeries` and the error
classes (`test_oracles.py` checks this), so none of them can agree with the
package merely because it calls the code under test.

Hours are numbered 1..24; a quantile row is the 99 values of one hour on the
grid q = 0.01, ..., 0.99.
"""
import numpy as np

from quantbess.errors import InsufficientDataError
from quantbess.market_data import MarketSeries
from quantbess.point_model import FEATURE_LAG
from quantbess.prob_models import QUANTILE_GRID


def pinball(q: float, price, forecast_q):
    """Asymmetric quantile score; zero iff forecast equals the price."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    price = np.asarray(price, dtype=float)
    forecast_q = np.asarray(forecast_q, dtype=float)
    diff = price - forecast_q
    out = np.where(diff < 0, (q - 1.0) * diff, q * diff)
    return float(out) if out.ndim == 0 else out


def pi_hit(price: float, lower: float, upper: float) -> int:
    """1 iff the price falls inside the closed interval [lower, upper]."""
    if lower > upper:
        raise ValueError(f"lower bound {lower} exceeds upper bound {upper}")
    return int(lower <= price <= upper)


def pi_levels(alpha: float) -> tuple:
    """The quantile levels (1 - alpha)/2 and (1 + alpha)/2, on the 1% grid."""
    return round((1.0 - alpha) / 2.0, 2), round((1.0 + alpha) / 2.0, 2)


def _at(row, q: float) -> float:
    """The value of a quantile row at level q."""
    return float(row[int(round(q * 100)) - 1])


def _day(qf, prices):
    qf = np.asarray(qf, dtype=float)
    prices = np.asarray(prices, dtype=float)
    if qf.shape != (24, 99) or prices.shape != (24,):
        raise ValueError("a day is a (24, 99) quantile matrix and 24 prices")
    return qf, prices


def sp_pinball_all(qf, prices) -> float:
    """Mean pinball over the full 24 x 99 grid of one day."""
    qf, prices = _day(qf, prices)
    diff = prices[:, None] - qf
    return float(np.where(diff >= 0, QUANTILE_GRID * diff, (QUANTILE_GRID - 1.0) * diff).mean())


def sp_pinball_buy(row_h1, price_h1: float, alpha: float) -> float:
    """Pinball of the bid: the upper PI level at h1."""
    _, up = pi_levels(alpha)
    return pinball(up, price_h1, _at(row_h1, up))


def sp_pinball_sell(row_h2, price_h2: float, alpha: float) -> float:
    """Pinball of the offer: the lower PI level at h2."""
    lo, _ = pi_levels(alpha)
    return pinball(lo, price_h2, _at(row_h2, lo))


def sp_pinball_buysell(row_h1, row_h2, price_h1, price_h2, alpha) -> float:
    return 0.5 * (
        sp_pinball_buy(row_h1, price_h1, alpha) + sp_pinball_sell(row_h2, price_h2, alpha)
    )


def sp_coverage_all(qf, prices, alpha: float) -> float:
    """Mean closed-interval hit rate of the day's 24 prediction intervals."""
    qf, prices = _day(qf, prices)
    lo, up = pi_levels(alpha)
    return float(np.mean([pi_hit(prices[h], _at(qf[h], lo), _at(qf[h], up)) for h in range(24)]))


def sp_coverage_hours(row_h1, row_h2, price_h1, price_h2, alpha) -> int:
    """Joint strict hit of the bid and offer quantiles (1 or 0)."""
    lo, up = pi_levels(alpha)
    return int(price_h1 < _at(row_h1, up) and price_h2 > _at(row_h2, lo))


def pinball_sum(beta, X, y, q: float) -> float:
    """Total pinball loss of the linear fit X @ beta against y."""
    r = np.asarray(y, dtype=float) - np.asarray(X, dtype=float) @ np.asarray(beta, dtype=float)
    return float(np.sum(np.where(r >= 0, q * r, (q - 1.0) * r)))


def jsu_sample(gamma, delta, xi, lam, size: int, rng) -> np.ndarray:
    """Johnson SU draws by the inverse transform of standard normals."""
    z = rng.standard_normal(size)
    return xi + lam * np.sinh((z - gamma) / delta)


def regressors(series: MarketSeries, d: int, h: int) -> np.ndarray:
    """The 14 regressors of the expert model for day d, hour h: y_lag1,
    y_lag2, y_lag7, y_eod, y_max_prev, y_min_prev, load, then seven weekday
    dummies (Mon..Sun)."""
    if d < FEATURE_LAG:
        raise InsufficientDataError(f"day {d} lacks one-week history (need d >= {FEATURE_LAG})")
    if d >= series.n_days:
        raise IndexError(f"day {d} outside series of {series.n_days} days")
    p = series.prices
    weekday = np.zeros(7)
    weekday[(series.start_weekday - 1 + d) % 7] = 1.0
    return np.array([
        p[d - 1, h - 1], p[d - 2, h - 1], p[d - 7, h - 1], p[d - 1, 23],
        max(p[d - 1]), min(p[d - 1]), series.loads[d, h - 1], *weekday,
    ])
