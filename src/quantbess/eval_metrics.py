"""The six daily model-ranking scores of a (24, 99) quantile matrix.

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

from functools import lru_cache

import numpy as np

from .prob_models import QUANTILE_GRID, quantile_index

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


def daily_scores(qf, prices, hours, alphas) -> np.ndarray:
    """All six scores of one model-day, one row per alpha, columns in METRICS
    order; every alpha shares the day's 24 x 99 pinball-loss matrix.

    `qf` is the day's (24, 99) quantile matrix and `hours` its (h1, h2)
    trading hours, numbered 1..24.
    """
    qf = np.asarray(qf, dtype=float)
    prices = np.asarray(prices, dtype=float)
    if qf.shape != (24, 99) or prices.shape != (24,):
        raise ValueError(f"need a (24, 99) forecast matrix and 24 prices, got "
                         f"{qf.shape} and {prices.shape}")
    diff = prices[:, None] - qf
    losses = np.where(diff < 0, (QUANTILE_GRID - 1.0) * diff, QUANTILE_GRID * diff)
    lo_i, up_i = _pi_columns(tuple(alphas))
    i1, i2 = hours[0] - 1, hours[1] - 1
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
