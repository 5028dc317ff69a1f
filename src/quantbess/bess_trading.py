"""Quantile-based battery trading, the price-taker benchmark, and settlement.

The battery is a three-level block store (0 = empty, 1 = half, 2 = full).
Each trade moves one level: a buy purchases 1/0.9 MWh to charge one block, a
sell discharges one block and delivers 0.9 MWh.  Daily orders: a limit bid at
the lowest-median hour h1 priced at the upper PI bound, a limit offer at the
highest-median hour h2 priced at the lower PI bound, plus a forced unlimited
order when the day starts empty (a buy) or full (a sell), at the cheapest
(buy) or dearest (sell) median hour before h2 other than h1.

A day's K strategies are traded as columns.  `build_orders` (or
`benchmark_orders`, K = 1) returns an `Orders` record of (K,) arrays and
`settle` returns that day's `TradeLedger`, whose fields are (1, K) arrays.
A run's ledger is allocated once by `TradeLedger.empty` as (day, strategy)
arrays, and each settled day is copied into its row.  Every ledger holds the
column dtypes of LEDGER_DTYPES: hours, forced hours and levels as int8, the
fill flags as bool, the day as int32, prices, cash and volumes as float64.
Hours run 1..24, and a forced hour of 0 means no forced order.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import StateInvariantError
from .eval_metrics import _pi_columns
from .market_data import _labels_along, _write_csv
from .prob_models import MEDIAN_INDEX

SELL_FACTOR = 0.9
BUY_FACTOR = 1.0 / 0.9


@dataclass(frozen=True)
class Orders:
    """One day's orders of K strategies, a (K,) array per field."""

    h1: np.ndarray
    h2: np.ndarray
    bid_price: np.ndarray        # buy limit at h1 (+inf for the price taker)
    offer_price: np.ndarray      # sell limit at h2 (-inf for the price taker)
    bid_withdrawn: np.ndarray    # full battery, no forced sell placeable
    offer_withdrawn: np.ndarray  # empty battery, no forced buy placeable
    forced_buy_hour: np.ndarray  # 0 = none
    forced_sell_hour: np.ndarray  # 0 = none


@dataclass(frozen=True)
class TradeLedger:
    """Trade records of K strategies, a (day, strategy) array per field;
    the fields are LEDGER_COLUMNS, in the order of the CSV columns."""

    day: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    bid_price: np.ndarray
    offer_price: np.ndarray
    bid_accepted: np.ndarray
    offer_accepted: np.ndarray
    forced_buy_hour: np.ndarray
    forced_sell_hour: np.ndarray
    cash_flow: np.ndarray
    volume_bought: np.ndarray
    volume_sold: np.ndarray
    start_level: np.ndarray
    end_level: np.ndarray

    @classmethod
    def empty(cls, n_days: int, n_strategies: int) -> "TradeLedger":
        """A ledger of `n_days` rows, to be filled a day at a time."""
        return cls(*(np.empty((n_days, n_strategies), LEDGER_DTYPES[name])
                     for name in LEDGER_COLUMNS))


LEDGER_COLUMNS = tuple(f.name for f in fields(TradeLedger))

#: The dtype of each ledger column; hours (0..24) and levels (0..2) fit int8.
LEDGER_DTYPES = {
    "day": np.int32, "h1": np.int8, "h2": np.int8,
    "bid_price": np.float64, "offer_price": np.float64,
    "bid_accepted": np.bool_, "offer_accepted": np.bool_,
    "forced_buy_hour": np.int8, "forced_sell_hour": np.int8,
    "cash_flow": np.float64, "volume_bought": np.float64, "volume_sold": np.float64,
    "start_level": np.int8, "end_level": np.int8,
}


def _day_total(column) -> np.ndarray:
    """Per-strategy sum added in day order: np.sum adds pairwise, which
    changes the last digits of the totals."""
    return np.cumsum(np.vstack([np.zeros(column.shape[1]), column]), axis=0)[-1]


def profit_per_mwh(ledger: TradeLedger) -> np.ndarray:
    """Per strategy: total cash flow divided by total traded volume (bought +
    sold); nan for a strategy that never traded, whose ratio is undefined."""
    volume = _day_total(ledger.volume_bought + ledger.volume_sold)
    cash = _day_total(ledger.cash_flow)
    return np.divide(cash, volume, out=np.full_like(cash, np.nan), where=volume > 0)


def choose_hours(median_forecast) -> tuple[int, int]:
    """The trading hours (h1, h2), numbered 1..24: h1 is the earliest argmin
    and h2 the earliest argmax of the median forecast.

    On a constant forecast, where the two coincide, h1 is 1 and h2 is 2.
    """
    values = np.asarray(median_forecast, dtype=float)
    if values.shape != (24,) or not np.isfinite(values).all():
        raise ValueError("median forecast must hold 24 finite values")
    h1 = int(np.argmin(values)) + 1
    h2 = int(np.argmax(values)) + 1
    if h1 == h2:
        # the earliest argmin and argmax meet only when min == max: every
        # hour ties, h1 is 1 and the earliest other hour is 2
        h2 = 2
    return h1, h2


def _best_forced_hour(values, h1, h2, maximize) -> int:
    """Cheapest (or dearest) hour before h2 other than h1, earliest on ties;
    0 when there is none."""
    candidates = [h for h in range(1, h2) if h != h1]
    if not candidates:
        return 0
    key = (lambda h: (values[h - 1], -h)) if maximize else (lambda h: (-values[h - 1], -h))
    return max(candidates, key=key)


def build_orders(quantiles, hours, model, alphas, level) -> Orders:
    """Daily bid/offer from the PI bounds, plus forced orders at empty/full.

    `quantiles` and `hours` hold each model's (24, 99) quantile matrix and
    (h1, h2) trading hours for the day; `model`, `alphas` and `level` hold each
    strategy's model index, alpha and starting battery level.  The forced
    hours depend only on the model, so they are found once per model.
    """
    lo_i, up_i = _pi_columns(tuple(alphas))
    model = np.asarray(model, dtype=int)
    level = np.asarray(level, dtype=int)

    forced_table = []
    for qf, (h1, h2) in zip(quantiles, hours):
        values = qf[:, MEDIAN_INDEX]
        forced_table.append((
            _best_forced_hour(values, h1, h2, maximize=False),
            _best_forced_hour(values, h1, h2, maximize=True),
        ))
    h1, h2 = np.array(hours)[model].T
    forced_buy, forced_sell = np.array(forced_table)[model].T
    forced_buy = np.where(level == 0, forced_buy, 0)
    forced_sell = np.where(level == 2, forced_sell, 0)
    qf = np.asarray(quantiles)
    return Orders(
        h1=h1, h2=h2, bid_price=qf[model, h1 - 1, up_i], offer_price=qf[model, h2 - 1, lo_i],
        # Full battery, no forced discharge: no room to store the h1 purchase.
        bid_withdrawn=(level == 2) & (forced_sell == 0),
        # Empty battery, no forced charge: nothing to deliver at h2.
        offer_withdrawn=(level == 0) & (forced_buy == 0),
        forced_buy_hour=forced_buy, forced_sell_hour=forced_sell,
    )


def benchmark_orders(point_forecast) -> Orders:
    """Price-taker benchmark (K = 1): a buy limited at +inf at the cheapest
    predicted hour and a sell limited at -inf at the dearest, so both fill
    at any finite price."""
    h1, h2 = choose_hours(point_forecast)
    no, none = np.zeros(1, dtype=bool), np.zeros(1, dtype=int)
    return Orders(
        h1=np.array([h1]), h2=np.array([h2]),
        bid_price=np.array([np.inf]), offer_price=np.array([-np.inf]),
        bid_withdrawn=no, offer_withdrawn=no, forced_buy_hour=none, forced_sell_hour=none,
    )


def settle(orders: Orders, prices, level, day: int = 0) -> TradeLedger:
    """Settle one day's orders against realized prices; returns the day's ledger.

    A bid fills when the clearing price is at or below its limit; an offer
    fills at or above its limit.  Forced orders always fill (price takers).
    The cash adds forced buy, forced sell, bid and offer in that order.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (24,) or not np.isfinite(prices).all():
        raise ValueError("prices must hold 24 finite values")
    level = np.asarray(level, dtype=int)
    p_h1, p_h2 = prices[orders.h1 - 1], prices[orders.h2 - 1]
    bid_accepted = ~orders.bid_withdrawn & (p_h1 <= orders.bid_price)
    offer_accepted = ~orders.offer_withdrawn & (p_h2 >= orders.offer_price)
    forced_buy, forced_sell = orders.forced_buy_hour > 0, orders.forced_sell_hour > 0

    cash = 0.0 - np.where(forced_buy, BUY_FACTOR * prices[orders.forced_buy_hour - 1], 0.0)
    cash = cash + np.where(forced_sell, SELL_FACTOR * prices[orders.forced_sell_hour - 1], 0.0)
    cash = cash - np.where(bid_accepted, BUY_FACTOR * p_h1, 0.0)
    cash = cash + np.where(offer_accepted, SELL_FACTOR * p_h2, 0.0)
    bought = 0.0 + np.where(forced_buy, BUY_FACTOR, 0.0) + np.where(bid_accepted, BUY_FACTOR, 0.0)
    sold = 0.0 + np.where(forced_sell, SELL_FACTOR, 0.0) + np.where(offer_accepted, SELL_FACTOR, 0.0)
    end = level + forced_buy - forced_sell + bid_accepted - offer_accepted

    bad = np.flatnonzero((np.minimum(level, end) < 0) | (np.maximum(level, end) > 2))
    if bad.size:
        k = int(bad[0])
        raise StateInvariantError(
            f"day {day}, strategy {k}: battery level {end[k]} outside {{0,1,2}} "
            f"(start {level[k]}, forced buy/sell hours {orders.forced_buy_hour[k]}/"
            f"{orders.forced_sell_hour[k]})"
        )
    columns = (
        np.full(level.shape, day), orders.h1, orders.h2, orders.bid_price, orders.offer_price,
        bid_accepted, offer_accepted, orders.forced_buy_hour, orders.forced_sell_hour,
        cash, bought, sold, level, end,
    )
    return TradeLedger(*(np.asarray(column, LEDGER_DTYPES[name])[None, :]
                         for name, column in zip(LEDGER_COLUMNS, columns)))


#: A forced hour as written: 0, no forced order, is written empty.
_FORCED_HOUR_LABELS = ("", *range(1, 25))


def ledger_columns(ledger: TradeLedger) -> list:
    """The CSV columns of LEDGER_COLUMNS for `market_data._write_csv` over
    the (strategy, day) grid: one strategy after another, each in day order,
    with no forced order written empty."""
    columns = {name: getattr(ledger, name).T for name in LEDGER_COLUMNS}
    for name in ("forced_buy_hour", "forced_sell_hour"):
        columns[name] = (columns[name], _FORCED_HOUR_LABELS)
    return list(columns.values())


def export_ledger(ledger: TradeLedger, path, extra=None) -> None:
    """CSV dump of a ledger, one strategy after another; `extra` prepends
    constant columns."""
    extra = extra or {}
    _write_csv(
        path, [*extra.keys(), *LEDGER_COLUMNS], ledger.day.T.shape,
        [*(_labels_along([value], 0, 2) for value in extra.values()), *ledger_columns(ledger)],
    )
