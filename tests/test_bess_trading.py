import functools
import operator
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantbess.backtest_engine import BacktestConfig, BacktestReport
from oracles import stack_ledgers
from quantbess.bess_trading import (
    BUY_FACTOR,
    LEDGER_COLUMNS,
    LEDGER_DTYPES,
    SELL_FACTOR,
    Orders,
    TradeLedger,
    benchmark_orders,
    build_orders,
    choose_hours,
    export_ledger,
    profit_per_mwh,
    settle,
)
from quantbess.errors import StateInvariantError
from quantbess.eval_metrics import DEFAULT_ALPHAS, METRICS, alpha_quantiles
from quantbess.prob_models import MEDIAN_INDEX, quantile_index


def _matrix(curve, width=10.0):
    """(24, 99) quantile matrix spread around a median curve; `width` may
    be one value or one per hour."""
    width = np.broadcast_to(np.asarray(width, dtype=float), (24,))
    return np.asarray(curve, dtype=float)[:, None] + width[:, None] * np.linspace(-1.0, 1.0, 99)


def _median_curve(h1=4, h2=19):
    """V-shaped 24-hour median forecast with min at h1 and max at h2."""
    values = 50.0 - 8.0 * np.exp(-0.5 * ((np.arange(1, 25) - h1) / 1.5) ** 2)
    values += 9.0 * np.exp(-0.5 * ((np.arange(1, 25) - h2) / 1.5) ** 2)
    return values


def _build(qf, level, alpha=0.8):
    """One strategy's orders from one model's quantile matrix."""
    hours = choose_hours(qf[:, MEDIAN_INDEX])
    return build_orders([qf], [hours], [0], [alpha], [level])


def _orders(bid_price, offer_price, forced_buy_hour=0, forced_sell_hour=0):
    """A one-strategy limit bid at hour 4 and limit offer at hour 19."""
    no = np.zeros(1, dtype=bool)
    return Orders(
        h1=np.array([4]), h2=np.array([19]),
        bid_price=np.array([bid_price], dtype=float), offer_price=np.array([offer_price], dtype=float),
        bid_withdrawn=no, offer_withdrawn=no,
        forced_buy_hour=np.array([forced_buy_hour]), forced_sell_hour=np.array([forced_sell_hour]),
    )


def _one(value):
    """The single value of a one-strategy, one-day column."""
    return np.asarray(value).item()


# -- plain-Python reference: one strategy at a time ---------------------------

def _oracle_forced_hour(values, before_hour, exclude, maximize):
    best = 0
    for h in range(1, before_hour):
        if h in exclude:
            continue
        better = values[h - 1] > values[best - 1] if maximize else values[h - 1] < values[best - 1]
        if best == 0 or better:
            best = h
    return best


def _oracle_orders(qf, h1, h2, alpha, level):
    values = qf[:, MEDIAN_INDEX]
    lo, up = alpha_quantiles(alpha)
    orders = dict(
        h1=h1, h2=h2,
        bid_price=qf[h1 - 1][quantile_index(up)], offer_price=qf[h2 - 1][quantile_index(lo)],
        bid_withdrawn=False, offer_withdrawn=False, forced_buy_hour=0, forced_sell_hour=0,
    )
    if level == 0:
        orders["forced_buy_hour"] = _oracle_forced_hour(values, h2, {h1}, maximize=False)
        orders["offer_withdrawn"] = orders["forced_buy_hour"] == 0
    elif level == 2:
        orders["forced_sell_hour"] = _oracle_forced_hour(values, h2, {h1, h2}, maximize=True)
        orders["bid_withdrawn"] = orders["forced_sell_hour"] == 0
    return orders


def _oracle_settle(o, prices, level):
    """Settlement of one strategy-day; end level None on an invariant breach."""
    p1, p2 = prices[o["h1"] - 1], prices[o["h2"] - 1]
    bid = not o["bid_withdrawn"] and p1 <= o["bid_price"]
    offer = not o["offer_withdrawn"] and p2 >= o["offer_price"]
    cash, bought, sold, end = 0.0, 0.0, 0.0, level
    if o["forced_buy_hour"]:
        cash -= BUY_FACTOR * prices[o["forced_buy_hour"] - 1]
        bought += BUY_FACTOR
        end += 1
    if o["forced_sell_hour"]:
        cash += SELL_FACTOR * prices[o["forced_sell_hour"] - 1]
        sold += SELL_FACTOR
        end -= 1
    if bid:
        cash -= BUY_FACTOR * p1
        bought += BUY_FACTOR
        end += 1
    if offer:
        cash += SELL_FACTOR * p2
        sold += SELL_FACTOR
        end -= 1
    ok = level in (0, 1, 2) and end in (0, 1, 2)
    return dict(bid_accepted=bid, offer_accepted=offer, cash_flow=cash,
                volume_bought=bought, volume_sold=sold, end_level=end if ok else None)


def _columns(record, k):
    return {name: getattr(record, name)[..., k].item() for name in record.__dataclass_fields__}


class TestChooseHours:
    def test_v_shape(self):
        assert choose_hours(_median_curve(4, 19)) == (4, 19)

    def test_constant_curve(self):
        assert choose_hours(np.full(24, 33.0)) == (1, 2)

    def test_tied_minima_take_earliest(self):
        values = np.full(24, 50.0)
        values[[2, 4]] = 10.0  # hours 3 and 5
        values[20] = 90.0
        assert choose_hours(values) == (3, 21)

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            choose_hours(np.full(24, np.nan))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 24)), min_size=1, max_size=24))
    def test_hours_property(self, runs):
        # flat runs of few levels: ties everywhere, and a flat day when one
        # run covers all 24 hours
        values = [float(v) for v, length in runs for _ in range(length)]
        values = (values * 24)[:24]
        h1, h2 = choose_hours(np.array(values))
        assert type(h1) is int and type(h2) is int
        assert 1 <= h1 <= 24 and 1 <= h2 <= 24 and h1 != h2
        low, high = min(values), max(values)
        assert h1 == values.index(low) + 1
        if values.index(high) + 1 != h1:
            assert h2 == values.index(high) + 1
        else:
            others = [h for h in range(1, 25) if h != h1]
            best = max(values[h - 1] for h in others)
            assert h2 == min(h for h in others if values[h - 1] == best)


class TestBuildOrders:
    def test_half_full_no_forced_orders(self):
        orders = _build(_matrix(_median_curve()), 1)
        assert _one(orders.forced_buy_hour) == 0
        assert _one(orders.forced_sell_hour) == 0
        assert not orders.bid_withdrawn.any() and not orders.offer_withdrawn.any()

    def test_empty_battery_forced_buy_before_h2(self):
        orders = _build(_matrix(_median_curve(4, 10)), 0)
        forced_buy = _one(orders.forced_buy_hour)
        assert 0 < forced_buy < 10
        assert forced_buy != 4

    def test_alpha_08_quantile_bounds(self):
        qf = _matrix(_median_curve())
        orders = _build(qf, 1, alpha=0.8)
        assert _one(orders.bid_price) == qf[3, quantile_index(0.9)]
        assert _one(orders.offer_price) == qf[18, quantile_index(0.1)]

    def test_full_battery_forced_sell_before_h2(self):
        orders = _build(_matrix(_median_curve(5, 20)), 2)
        forced_sell = _one(orders.forced_sell_hour)
        assert 0 < forced_sell < 20
        assert forced_sell != 5
        assert not _one(orders.bid_withdrawn)

    def test_degenerate_empty_day_withdraws_offer(self):
        # h2 = 1: no hour precedes it, so the forced buy cannot be placed and
        # the sell offer is withdrawn to protect the state machine.
        qf = _matrix(np.linspace(60.0, 30.0, 24))  # max at hour 1, min at hour 24
        orders = _build(qf, 0)
        assert (_one(orders.h1), _one(orders.h2)) == (24, 1)
        assert _one(orders.offer_withdrawn)
        assert _one(orders.forced_buy_hour) == 0
        day = settle(orders, np.full(24, 45.0), [0])
        assert _one(day.end_level) in (0, 1, 2)
        assert not _one(day.offer_accepted)

    def test_forced_hours_found_per_model(self):
        # Strategies sharing a model share its forced hours, whatever their alpha.
        curves = [_median_curve(4, 10), _median_curve(6, 15)]
        matrices = [_matrix(c) for c in curves]
        hours = [choose_hours(c) for c in curves]
        model, alphas, level = [0, 1, 0, 1], [0.5, 0.5, 0.98, 0.98], [0, 0, 0, 1]
        orders = build_orders(matrices, hours, model, alphas, level)
        for k in range(4):
            h1, h2 = hours[model[k]]
            expect = _oracle_orders(matrices[model[k]], h1, h2, alphas[k], level[k])
            assert _columns(orders, k) == expect


class TestSettle:
    def test_both_accepted_cash(self):
        prices = np.full(24, 50.0)
        prices[3], prices[18] = 20.0, 100.0
        day = settle(_orders(bid_price=100.0, offer_price=0.0), prices, [1])
        assert _one(day.bid_accepted) and _one(day.offer_accepted)
        assert _one(day.cash_flow) == pytest.approx(0.9 * 100.0 - 20.0 / 0.9)
        assert _one(day.cash_flow) == pytest.approx(67.7778, abs=1e-4)
        assert _one(day.end_level) == 1

    def test_bid_rejected_above_limit(self):
        day = settle(_orders(bid_price=30.0, offer_price=200.0), np.full(24, 35.0), [1])
        assert not _one(day.bid_accepted)
        assert not _one(day.offer_accepted)
        assert _one(day.cash_flow) == 0.0

    def test_weak_inequality_fills(self):
        day = settle(_orders(bid_price=35.0, offer_price=35.0), np.full(24, 35.0), [1])
        assert _one(day.bid_accepted) and _one(day.offer_accepted)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_prices_refused(self, bad):
        # the price taker's +-inf limits fill only against finite prices
        prices = np.full(24, 35.0)
        prices[10] = bad
        with pytest.raises(ValueError, match="prices must hold 24 finite values"):
            settle(benchmark_orders(np.arange(24.0)), prices, [1])
        with pytest.raises(ValueError, match="prices must hold 24 finite values"):
            settle(benchmark_orders(np.arange(24.0)), np.full(23, 35.0), [1])

    def test_forced_buy_cash_and_state(self):
        orders = _orders(bid_price=-1000.0, offer_price=1000.0, forced_buy_hour=2)
        day = settle(orders, np.full(24, 50.0), [0])
        assert _one(day.cash_flow) == pytest.approx(-50.0 / 0.9)
        assert _one(day.cash_flow) == pytest.approx(-55.5556, abs=1e-4)
        assert _one(day.end_level) == 1

    def test_bid_monotone_in_price(self, rng):
        prices = rng.normal(50, 10, 24)
        for bid in np.linspace(0, 100, 21):
            lo = settle(_orders(bid_price=bid, offer_price=1e9), prices, [1])
            hi = settle(_orders(bid_price=bid + 5.0, offer_price=1e9), prices, [1])
            assert _one(hi.bid_accepted) >= _one(lo.bid_accepted)

    def test_state_invariant_trap(self):
        # A forced sell from an empty battery is a programming error; the
        # message names the day and the strategy.
        orders = _orders(bid_price=-1e9, offer_price=-1e9, forced_sell_hour=2)
        with pytest.raises(StateInvariantError, match="day 7, strategy 0"):
            settle(orders, np.full(24, 50.0), [0], day=7)
        with pytest.raises(StateInvariantError):
            settle(_orders(bid_price=-1e9, offer_price=1e9), np.full(24, 50.0), [3])

    def test_brute_force_settlement_table(self, rng):
        """Independent recomputation over random days and states, K strategies a day."""
        for _ in range(300):
            prices = rng.normal(50, 20, 24)
            levels = rng.integers(0, 3, 8)
            qf = _matrix(rng.normal(50, 10, 24))
            hours = choose_hours(qf[:, MEDIAN_INDEX])
            orders = build_orders([qf], [hours], np.zeros(8, int), (0.8,) * 8, levels)
            day = settle(orders, prices, levels)
            for k, level in enumerate(levels.tolist()):
                o = _oracle_orders(qf, *hours, 0.8, level)
                assert _columns(orders, k) == o
                expect = _oracle_settle(o, prices, level)
                assert {name: _one(getattr(day, name)[0, k]) for name in expect} == expect
                assert _one(day.start_level[0, k]) == level


def _flat_or_random_curve():
    """Median curves with many ties; some put the maximum at hour 1 (no
    forced buy placeable) or start with hours 1 and 2 as h1 and h2 (no
    forced sell placeable)."""
    values = st.lists(st.integers(0, 4), min_size=24, max_size=24)
    return st.tuples(values, st.sampled_from(["as drawn", "flat", "h2 first", "h1 h2 first"]))


def _shape(values, kind):
    curve = np.array(values, dtype=float)
    if kind == "flat":
        curve[:] = 2.0
    elif kind == "h2 first":
        curve[0] = 9.0
    elif kind == "h1 h2 first":
        curve[0], curve[1] = -9.0, 9.0
    return curve


class TestArrayStepProperty:
    """The array step equals the per-strategy reference exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        curves=st.lists(_flat_or_random_curve(), min_size=1, max_size=3),
        widths=st.lists(st.floats(0.0, 30.0), min_size=3, max_size=3),
        picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, len(DEFAULT_ALPHAS) - 1),
                                 st.integers(0, 2)), min_size=1, max_size=12),
        prices=st.lists(st.floats(-200.0, 400.0), min_size=24, max_size=24),
    )
    def test_orders_and_settlement_match_reference(self, curves, widths, picks, prices):
        matrices = [_matrix(_shape(*c), w) for c, w in zip(curves, widths)]
        hours = [choose_hours(qf[:, MEDIAN_INDEX]) for qf in matrices]
        model = [m % len(matrices) for m, _, _ in picks]
        alphas = [DEFAULT_ALPHAS[a] for _, a, _ in picks]
        levels = [level for _, _, level in picks]
        prices = np.array(prices)
        orders = build_orders(matrices, hours, model, alphas, levels)
        day = settle(orders, prices, levels, day=5)
        for k, (m, alpha, level) in enumerate(zip(model, alphas, levels)):
            o = _oracle_orders(matrices[m], *hours[m], alpha, level)
            assert _columns(orders, k) == o
            expect = _oracle_settle(o, prices, level)
            assert {name: _one(getattr(day, name)[0, k]) for name in expect} == expect
        assert day.day.tolist() == [[5] * len(picks)]

    @settings(max_examples=100, deadline=None)
    @given(
        curve=st.lists(st.floats(-50.0, 300.0), min_size=24, max_size=24),
        prices=st.lists(st.floats(-200.0, 400.0), min_size=24, max_size=24),
    )
    def test_price_taker_matches_reference(self, curve, prices):
        orders = benchmark_orders(curve)
        h1, h2 = choose_hours(curve)
        o = dict(
            h1=h1, h2=h2, bid_price=np.inf, offer_price=-np.inf, bid_withdrawn=False,
            offer_withdrawn=False, forced_buy_hour=0, forced_sell_hour=0,
        )
        assert _columns(orders, 0) == o
        day = settle(orders, np.array(prices), [1])
        expect = _oracle_settle(o, np.array(prices), 1)
        assert {name: _one(getattr(day, name)) for name in expect} == expect

    @settings(max_examples=150, deadline=None)
    @given(
        strategies=st.lists(st.tuples(
            st.integers(-1, 3), st.booleans(), st.booleans(), st.booleans(), st.booleans(),
        ), min_size=1, max_size=6),
        prices=st.lists(st.floats(-200.0, 400.0), min_size=24, max_size=24),
    )
    def test_invariant_breach_raises(self, strategies, prices):
        prices = np.array(prices)
        level, fb, fs, bid, offer = (np.array(c) for c in zip(*strategies))
        no = np.zeros(len(strategies), dtype=bool)
        orders = Orders(
            h1=np.full(len(strategies), 4), h2=np.full(len(strategies), 19),
            bid_price=np.where(bid, np.inf, -np.inf), offer_price=np.where(offer, -np.inf, np.inf),
            bid_withdrawn=no, offer_withdrawn=no, forced_buy_hour=np.where(fb, 2, 0), forced_sell_hour=np.where(fs, 3, 0),
        )
        expect = [_oracle_settle(_columns(orders, k), prices, int(level[k]))
                  for k in range(len(strategies))]
        bad = [k for k, e in enumerate(expect) if e["end_level"] is None]
        if bad:
            with pytest.raises(StateInvariantError, match=f"day 3, strategy {bad[0]}:"):
                settle(orders, prices, level, day=3)
        else:
            day = settle(orders, prices, level, day=3)
            for k, e in enumerate(expect):
                assert {name: _one(getattr(day, name)[0, k]) for name in e} == e


class TestBenchmark:
    def test_orders_at_forecast_extremes(self):
        orders = benchmark_orders(_median_curve(4, 19))
        assert (_one(orders.h1), _one(orders.h2)) == (4, 19)
        assert (_one(orders.bid_price), _one(orders.offer_price)) == (np.inf, -np.inf)
        prices = np.arange(24.0) + 10.0
        day = settle(orders, prices, [1])
        assert _one(day.bid_accepted) and _one(day.offer_accepted)
        assert _one(day.cash_flow) == pytest.approx(0.9 * prices[18] - prices[3] / 0.9)

    def test_perfect_foresight(self, rng):
        prices = rng.normal(50, 15, 24)
        day = settle(benchmark_orders(prices), prices, [1])
        assert _one(day.cash_flow) == pytest.approx(0.9 * prices.max() - prices.min() / 0.9)

    def test_constant_prices_lose_money(self):
        prices = np.full(24, 40.0)
        day = settle(benchmark_orders(prices), prices, [1])
        assert _one(day.cash_flow) == pytest.approx(40.0 * (0.9 - 1.0 / 0.9))
        assert _one(day.cash_flow) < 0


def _ledger(**columns):
    """A ledger of given columns; the others are zeros of the same shape."""
    shape = np.shape(next(iter(columns.values())))
    return TradeLedger(**{name: np.asarray(columns.get(name, np.zeros(shape)))
                          for name in LEDGER_COLUMNS})


class TestLedger:
    def _round_trip_day(self, day=0):
        prices = np.full(24, 50.0)
        prices[3], prices[18] = 20.0, 100.0
        return settle(_orders(bid_price=100.0, offer_price=0.0), prices, [1], day=day)

    def test_profit_per_mwh(self):
        ledger = stack_ledgers([self._round_trip_day()])
        cash = 0.9 * 100.0 - 20.0 / 0.9
        volume = 0.9 + 1.0 / 0.9
        assert _one(profit_per_mwh(ledger)) == pytest.approx(cash / volume)
        assert _one(profit_per_mwh(ledger)) == pytest.approx(33.70, abs=0.005)

    def test_no_volume_gives_nan(self):
        # a strategy that never traded has no ratio; the others keep theirs
        assert np.isnan(profit_per_mwh(_ledger(cash_flow=np.zeros((0, 1))))).all()
        assert np.isnan(profit_per_mwh(_ledger(cash_flow=np.ones((3, 2))))).all()
        day = self._round_trip_day()
        idle = settle(_orders(bid_price=0.0, offer_price=1000.0), np.full(24, 50.0), [1])
        both = TradeLedger(*(np.hstack([getattr(day, name), getattr(idle, name)])
                             for name in LEDGER_COLUMNS))
        got = profit_per_mwh(both)
        assert got[0] == _one(profit_per_mwh(day)) and np.isnan(got[1])

    def test_settle_columns_have_ledger_dtypes(self):
        day = self._round_trip_day(day=700)
        assert {name: getattr(day, name).dtype for name in LEDGER_COLUMNS} == {
            name: np.dtype(dtype) for name, dtype in LEDGER_DTYPES.items()
        }
        assert list(LEDGER_DTYPES) == list(LEDGER_COLUMNS)
        empty = TradeLedger.empty(3, 2)
        assert all(getattr(empty, name).dtype == LEDGER_DTYPES[name] for name in LEDGER_COLUMNS)
        assert empty.cash_flow.shape == (3, 2)

    def test_ratio_invariance(self):
        one = stack_ledgers([self._round_trip_day(0)])
        two = stack_ledgers([self._round_trip_day(0), self._round_trip_day(1)])
        assert _one(profit_per_mwh(one)) == pytest.approx(_one(profit_per_mwh(two)))
        assert two.day.tolist() == [[0], [1]]

    def test_totals_sum_in_day_order(self):
        # Values whose pairwise (np.sum) and sequential totals differ: the
        # profits keep the sequential one, as profits_by_metric.csv always had.
        rng = np.random.default_rng(17)
        n_alphas = 2
        cash = rng.normal(0.0, 1.0, (500, len(METRICS) * n_alphas)) * 10.0 ** rng.integers(-3, 4, 500)[:, None]
        bought = rng.choice([0.0, BUY_FACTOR, 2 * BUY_FACTOR], cash.shape)
        sold = rng.choice([SELL_FACTOR, 2 * SELL_FACTOR], cash.shape)
        assert any(np.sum(cash[:, k]) != functools.reduce(operator.add, cash[:, k].tolist())
                   for k in range(cash.shape[1]))
        expect = [
            functools.reduce(operator.add, cash[:, k].tolist())
            / functools.reduce(operator.add, (bought[:, k] + sold[:, k]).tolist())
            for k in range(cash.shape[1])
        ]
        ledger = _ledger(cash_flow=cash, volume_bought=bought, volume_sold=sold)
        assert profit_per_mwh(ledger).tolist() == expect
        config = replace(BacktestConfig(), alphas=DEFAULT_ALPHAS[:n_alphas])
        report = BacktestReport(config=config, n_days=0, ledger=ledger, store=None,
                                chosen=None, averages=None)
        table = dict(zip(report.strategies, profit_per_mwh(report.ledger).tolist()))
        assert list(table.values()) == expect
        assert list(table) == [(m, a) for m in METRICS for a in config.alphas]

    def test_export(self, tmp_path):
        ledger = stack_ledgers([self._round_trip_day()])
        path = tmp_path / "ledger.csv"
        export_ledger(ledger, path, extra={"model": "hs"})
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("model,day,h1,h2")
        assert len(lines) == 2
        # no forced order is written as an empty field
        cash = 0.0 - BUY_FACTOR * 20.0 + SELL_FACTOR * 100.0
        assert lines[1] == f"hs,0,4,19,100.0,0.0,1,1,,,{cash!r},{BUY_FACTOR!r},{SELL_FACTOR!r},1,1"


class TestBatteryFuzz:
    def test_invariant_over_random_days(self, rng):
        alphas = (0.5, 0.8, 0.98)
        level = np.ones(len(alphas), dtype=int)
        for day in range(2000):
            curve = rng.normal(50, 10, 24)
            qf = _matrix(curve, rng.uniform(1, 30, 24))
            orders = build_orders([qf], [choose_hours(curve)], [0, 0, 0], alphas, level)
            ledger = settle(orders, rng.normal(50, 25, 24), level, day=day)
            assert np.isin(ledger.end_level, (0, 1, 2)).all()
            level = ledger.end_level[0]
