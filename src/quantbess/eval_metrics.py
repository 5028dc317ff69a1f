"""Pinball loss, coverage indicators and the six daily model-ranking scores.

Ranking scores per (day, model, alpha), in METRICS order:

* pinball_all      -- mean pinball over all 24 hours and 99 quantiles
* pinball_buysell  -- mean of pinball_buy and pinball_sell
* pinball_sell     -- pinball at quantile (1-alpha)/2, highest-price hour h2
* pinball_buy      -- pinball at quantile (1+alpha)/2, lowest-price hour h1
* coverage_all     -- mean interval hit rate over the 24 hours (closed bounds)
* coverage_hours   -- joint hit of the two trading quantiles, with strict
  inequalities (deliberately asymmetric with coverage_all)
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .prob_models import QUANTILE_GRID, QuantileForecast, quantile_index

METRICS = (
    "pinball_all",
    "pinball_buysell",
    "pinball_sell",
    "pinball_buy",
    "coverage_all",
    "coverage_hours",
)

#: Even alpha grid keeping (1 +/- alpha)/2 on the 1% quantile grid.
DEFAULT_ALPHAS = tuple(np.round(np.arange(50, 99, 2) / 100.0, 2))


@dataclass(frozen=True)
class TradingHours:
    """Lowest- (h1) and highest- (h2) median-forecast hours of a day."""

    h1: int
    h2: int

    def __post_init__(self):
        if not (1 <= self.h1 <= 24 and 1 <= self.h2 <= 24):
            raise ValueError("hours must be in 1..24")
        if self.h1 == self.h2:
            raise ValueError("h1 and h2 must differ")


def alpha_quantiles(alpha: float) -> tuple[float, float]:
    """The (lower, upper) PI quantiles (1-alpha)/2 and (1+alpha)/2, grid-checked."""
    lo, up = (1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0
    lo_r, up_r = round(lo, 2), round(up, 2)
    if abs(lo - lo_r) > 1e-9 or abs(up - up_r) > 1e-9:
        raise ValueError(f"alpha {alpha} puts a PI bound off the 1% quantile grid")
    quantile_index(lo_r)
    quantile_index(up_r)
    return lo_r, up_r


@lru_cache(maxsize=16)
def _pi_columns(alphas: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Grid columns of the lower and upper PI bounds of each alpha.

    Cached because the backtest asks for the same alphas every model-day
    and every trading day, and the grid checks cost more than the scoring
    itself.
    """
    pairs = [alpha_quantiles(alpha) for alpha in alphas]
    lo_i = np.array([quantile_index(lo) for lo, _ in pairs])
    up_i = np.array([quantile_index(up) for _, up in pairs])
    lo_i.flags.writeable = up_i.flags.writeable = False
    return lo_i, up_i


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


def forecast_matrix(forecasts) -> np.ndarray:
    """Stack a day's forecasts into (24, 99); accepts an array or 24 QuantileForecast."""
    if isinstance(forecasts, np.ndarray):
        if forecasts.shape != (24, 99):
            raise ValueError("forecast matrix must have shape (24, 99)")
        return forecasts
    forecasts = list(forecasts)
    if len(forecasts) != 24:
        raise ValueError(f"need all 24 hourly forecasts, got {len(forecasts)}")
    return np.vstack([
        fc.q_values if isinstance(fc, QuantileForecast) else np.asarray(fc)
        for fc in forecasts
    ])


def sp_pinball_all(forecasts, prices) -> float:
    """Mean pinball over the full 24 x 99 grid of one day."""
    qf = forecast_matrix(forecasts)
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (24,):
        raise ValueError("prices must hold all 24 hours")
    diff = prices[:, None] - qf
    losses = np.where(diff < 0, (QUANTILE_GRID - 1.0) * diff, QUANTILE_GRID * diff)
    return float(losses.mean())


def sp_pinball_buy(fc_h1: QuantileForecast, price_h1: float, alpha: float) -> float:
    _, up = alpha_quantiles(alpha)
    return pinball(up, price_h1, fc_h1.value(up))


def sp_pinball_sell(fc_h2: QuantileForecast, price_h2: float, alpha: float) -> float:
    lo, _ = alpha_quantiles(alpha)
    return pinball(lo, price_h2, fc_h2.value(lo))


def sp_pinball_buysell(fc_h1, fc_h2, price_h1, price_h2, alpha) -> float:
    return 0.5 * (
        sp_pinball_buy(fc_h1, price_h1, alpha) + sp_pinball_sell(fc_h2, price_h2, alpha)
    )


def sp_coverage_all(forecasts, prices, alpha: float) -> float:
    """Mean closed-interval hit rate of the day's 24 prediction intervals."""
    qf = forecast_matrix(forecasts)
    prices = np.asarray(prices, dtype=float)
    lo, up = alpha_quantiles(alpha)
    lower = qf[:, quantile_index(lo)]
    upper = qf[:, quantile_index(up)]
    return float(np.mean((lower <= prices) & (prices <= upper)))


def sp_coverage_hours(fc_h1, fc_h2, price_h1, price_h2, alpha) -> int:
    """Joint strict hit of the bid and offer quantiles (1 or 0)."""
    lo, up = alpha_quantiles(alpha)
    return int(price_h1 < fc_h1.value(up) and price_h2 > fc_h2.value(lo))


def check_scores(block: np.ndarray) -> None:
    """Range checks on a (n_alphas, 6) score block; raises ValueError."""
    block = np.asarray(block, dtype=float)
    pinballs, coverage_all, coverage_hours = block[:, :4], block[:, 4], block[:, 5]
    if not np.all((coverage_all >= 0.0) & (coverage_all <= 1.0)):
        raise ValueError("coverage_all must lie in [0, 1]")
    if not np.all((coverage_hours == 0.0) | (coverage_hours == 1.0)):
        raise ValueError("coverage_hours must be 0 or 1")
    bad = ~np.all(pinballs >= -1e-12, axis=0)
    if bad.any():
        raise ValueError(f"{METRICS[int(np.argmax(bad))]} must be non-negative")


def daily_scores(qf, prices, hours: TradingHours, alphas) -> np.ndarray:
    """All six scores of one model-day, one row per alpha, columns in METRICS
    order; every alpha shares the day's 24 x 99 pinball-loss matrix."""
    qf = forecast_matrix(qf)
    prices = np.asarray(prices, dtype=float)
    diff = prices[:, None] - qf
    losses = np.where(diff < 0, (QUANTILE_GRID - 1.0) * diff, QUANTILE_GRID * diff)
    lo_i, up_i = _pi_columns(tuple(alphas))
    i1, i2 = hours.h1 - 1, hours.h2 - 1
    buy = losses[i1, up_i]
    sell = losses[i2, lo_i]
    block = np.empty((lo_i.size, len(METRICS)))
    block[:, 0] = losses.mean()
    block[:, 1] = 0.5 * (buy + sell)
    block[:, 2] = sell
    block[:, 3] = buy
    lower, upper = qf[:, lo_i], qf[:, up_i]
    block[:, 4] = ((lower <= prices[:, None]) & (prices[:, None] <= upper)).mean(axis=0)
    block[:, 5] = (prices[i1] < qf[i1, up_i]) & (prices[i2] > qf[i2, lo_i])
    check_scores(block)
    return block
