"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and asserts the criterion at its stated tolerance.  The end-to-end test
(criterion 8) runs the full 700-day default backtest twice and is by far
the slowest; it is kept last.
"""
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from oracles import jsu_sample, pinball_sum, sqra_gradient
from recorder import recorded_forecasts
from quantbess.backtest_engine import BacktestConfig, run_backtest, write_report
from quantbess.bess_trading import (
    BUY_FACTOR,
    SELL_FACTOR,
    Orders,
    build_orders,
    choose_hours,
    settle,
)
from quantbess.errors import StateInvariantError
from quantbess.eval_metrics import DEFAULT_ALPHAS, METRICS, alpha_quantiles, daily_scores
from quantbess.market_data import synth_generate
from quantbess.prob_models import (
    ErrorSample,
    JsuParams,
    MethodContext,
    QUANTILE_GRID,
    _with_intercept,
    cp_offsets,
    hs_offsets,
    jsu_fit,
    jsu_quantile,
    qra_fit,
    register_method,
    sqra_fit,
    sqra_objective,
)


def _verdict(num, description, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {num}: {description}")
    assert not failures, f"criterion {num} ({description}): {failures[:5]}"


class TestAcceptance:
    def test_criterion_01_pinball_oracle(self):
        # 400 random days x 25 alphas: the buy and sell pinball of every
        # alpha (20,000 losses) and each day's mean over the 24 x 99 grid
        rng = np.random.default_rng(101)
        levels = [alpha_quantiles(alpha) for alpha in DEFAULT_ALPHAS]
        buy, sell, total = (
            METRICS.index(m) for m in ("pinball_buy", "pinball_sell", "pinball_all")
        )

        def rule(q, p, f):
            return q * (p - f) if p >= f else (q - 1.0) * (p - f)

        failures = []
        t0 = time.perf_counter()
        for day in range(400):
            prices = rng.normal(50, 40, 24)
            qf = np.sort(rng.normal(50, 40, (24, 99)), axis=1)
            h1, h2 = rng.choice(24, 2, replace=False) + 1
            block = daily_scores(qf, prices, (h1, h2), DEFAULT_ALPHAS)
            for row, (lo, up) in zip(block, levels):
                for got, q, h in ((row[buy], up, h1), (row[sell], lo, h2)):
                    oracle = rule(q, prices[h - 1], qf[h - 1, round(q * 100) - 1])
                    if abs(got - oracle) > 1e-12:
                        failures.append((day, q, h, got, oracle))
            diff = prices[:, None] - qf
            grid = np.where(diff >= 0, QUANTILE_GRID * diff, (QUANTILE_GRID - 1.0) * diff)
            if np.abs(block[:, total] - grid.mean()).max() > 1e-12:
                failures.append((day, "pinball_all", block[0, total], grid.mean()))
        elapsed = time.perf_counter() - t0
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.2f}s >= 1s")
        _verdict(1, "daily_scores' pinball columns match the direct scoring rule to 1e-12",
                 failures)

    def test_criterion_02_qra_exactness(self):
        rng = np.random.default_rng(202)
        failures = []
        for case in range(50):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(max(60, 10 * n), 201))
            q = float(rng.uniform(0.05, 0.95))
            pool = rng.normal(50, 10, (m, n))
            prices = pool @ rng.uniform(0, 1, n) + rng.normal(0, 5, m)
            beta = qra_fit(pool, prices, q)
            X = _with_intercept(pool)
            f0 = pinball_sum(beta, X, prices, q)
            perturbed = beta + rng.uniform(-1e-4, 1e-4, (1000, beta.size))
            r = prices[None, :] - perturbed @ X.T
            losses = np.where(r >= 0, q * r, (q - 1.0) * r).sum(axis=1)
            slack = 1e-12 * (1.0 + abs(f0))
            if not (losses >= f0 - slack).all():
                failures.append((case, q, f0, losses.min()))
        _verdict(2, "LP quantile regression beats 1000 perturbations on 50 instances",
                 failures)

    def test_criterion_03_sqra_convergence_and_gradient(self):
        rng = np.random.default_rng(303)
        m, q = 150, 0.7
        pool = rng.normal(50, 10, (m, 3))
        prices = pool @ np.array([0.5, 0.3, 0.2]) + rng.normal(0, 5, m)
        X = _with_intercept(pool)
        scale = float(np.std(prices))
        f_star = pinball_sum(qra_fit(pool, prices, q), X, prices, q)

        failures = []
        gaps = []
        beta_h = None
        for factor in (1.0, 0.1, 0.01, 0.001):
            # each bandwidth warm-starts the next, as in production use
            beta_h = sqra_fit(pool, prices, q, factor * scale, start=beta_h)
            gaps.append(pinball_sum(beta_h, X, prices, q) - f_star)
        for a, b in zip(gaps, gaps[1:]):
            if b > a + 1e-9 * scale:
                failures.append(f"gap sequence not monotone: {gaps}")
                break
        if gaps[-1] >= 1e-3 * abs(f_star):
            failures.append(f"final relative gap {gaps[-1] / abs(f_star):.2e}")

        bandwidth = 0.5 * scale
        for _ in range(10):
            beta = rng.normal(0, 1, 4)
            g = sqra_gradient(beta, X, prices, q, bandwidth)
            for i in range(4):
                e = np.zeros(4)
                e[i] = 1e-5
                fd = (
                    sqra_objective(beta + e, X, prices, q, bandwidth)
                    - sqra_objective(beta - e, X, prices, q, bandwidth)
                ) / 2e-5
                if abs(g[i] - fd) > 1e-6 * max(1.0, abs(g[i])):
                    failures.append(f"gradient mismatch at {beta}: {g[i]} vs {fd}")
        _verdict(3, "smoothed regression converges to the LP optimum; gradient exact",
                 failures)

    def test_criterion_04_jsu_recovery(self):
        rng = np.random.default_rng(404)
        true = JsuParams(gamma=0.0, delta=1.5, xi=0.0, lam=2.0)
        t0 = time.perf_counter()
        sample = jsu_sample(true.gamma, true.delta, true.xi, true.lam, 50000, rng)
        fit = jsu_fit(ErrorSample(sample))
        elapsed = time.perf_counter() - t0
        failures = []
        if abs(fit.delta - true.delta) > 0.05 * true.delta:
            failures.append(f"delta {fit.delta}")
        if abs(fit.lam - true.lam) > 0.05 * true.lam:
            failures.append(f"lambda {fit.lam}")
        # gamma and xi are zero, so a relative band degenerates; use 0.05 abs.
        if abs(fit.gamma) > 0.05:
            failures.append(f"gamma {fit.gamma}")
        if abs(fit.xi) > 0.05:
            failures.append(f"xi {fit.xi}")
        if abs(jsu_quantile(fit, 0.5) - 0.0) > 0.01:
            failures.append(f"median {jsu_quantile(fit, 0.5)}")
        if elapsed >= 30.0:
            failures.append(f"runtime {elapsed:.1f}s >= 30s")
        _verdict(4, "Johnson SU MLE recovers (0, 1.5, 0, 2) from 50k draws", failures)

    def test_criterion_05_coverage_calibration(self):
        # Forecast the exact quantiles of the price distribution; the empirical
        # interval coverage must then match the nominal level.
        rng = np.random.default_rng(505)
        qf = np.tile(ndtri(QUANTILE_GRID), (24, 1))
        prices = rng.standard_normal((1000, 24))
        failures = []
        alphas = (0.5, 0.8, 0.98)
        coverage = np.mean([
            daily_scores(qf, day_prices, (1, 2), alphas)[:, METRICS.index("coverage_all")]
            for day_prices in prices
        ], axis=0)
        for alpha, avg in zip(alphas, coverage):
            if abs(avg - alpha) > 0.03:
                failures.append(f"alpha {alpha}: coverage {avg:.4f}")
        _verdict(5, "self-consistent forecasts hit nominal coverage within 3pp",
                 failures)

    def test_criterion_06_settlement_table(self):
        rng = np.random.default_rng(606)
        failures = []
        combos = [
            (level, fb, fs, bid, offer)
            for level in (0, 1, 2)
            for fb in (False, True)
            for fs in (False, True)
            for bid in (False, True)
            for offer in (False, True)
        ]
        valid = [c for c in combos if c[0] + c[1] - c[2] + c[3] - c[4] in (0, 1, 2)]
        invalid = [c for c in combos if c not in valid]

        def orders(rows):
            level, fb, fs, bid, offer = (np.array(c) for c in zip(*rows))
            no = np.zeros(len(rows), dtype=bool)
            return level, Orders(
                h1=np.full(len(rows), 4), h2=np.full(len(rows), 19),
                bid_price=np.where(bid, 1e9, -1e9), offer_price=np.where(offer, -1e9, 1e9),
                bid_withdrawn=no, offer_withdrawn=no, forced_buy_hour=np.where(fb, 2, 0), forced_sell_hour=np.where(fs, 3, 0),
            )

        level, valid_orders = orders(valid)
        breaches = [orders([combo]) for combo in invalid]
        for day in range(1000):
            prices = rng.normal(50, 20, 24)
            for breach_level, breach in breaches:
                with pytest.raises(StateInvariantError):
                    settle(breach, prices, breach_level, day)
            ledger = settle(valid_orders, prices, level, day)
            for k, (start, fb, fs, bid, offer) in enumerate(valid):
                cash = 0.0
                if fb:
                    cash -= BUY_FACTOR * prices[1]
                if fs:
                    cash += SELL_FACTOR * prices[2]
                if bid:
                    cash -= BUY_FACTOR * prices[3]
                if offer:
                    cash += SELL_FACTOR * prices[18]
                end = start + fb - fs + bid - offer
                if ledger.cash_flow[0, k] != cash or ledger.end_level[0, k] != end:
                    failures.append((day, start, fb, fs, bid, offer))
        if len(valid) + len(invalid) != 48:
            failures.append(f"only {len(valid) + len(invalid)} combinations covered")
        # the headline both-accepted case: 0.9 * P(h2) - (1/0.9) * P(h1)
        prices = rng.normal(50, 20, 24)
        level, both = orders([(1, False, False, True, True)])
        ledger = settle(both, prices, level)
        if ledger.cash_flow[0, 0] != 0.9 * prices[18] - prices[3] / 0.9:
            failures.append("both-accepted formula mismatch")
        _verdict(6, "settlement equals the brute-force cash table exactly", failures)

    def test_criterion_07_battery_invariant_fuzz(self):
        rng = np.random.default_rng(707)
        level = np.ones(1, dtype=int)
        failures = []
        for day in range(10000):
            curve = rng.normal(50, 10, 24)
            alpha = float(rng.choice([0.5, 0.8, 0.98]))
            width = np.full(24, 1.0)
            hours = choose_hours(curve)
            width[[hours[0] - 1, hours[1] - 1]] = rng.uniform(1, 30, 2)
            qf = curve[:, None] + width[:, None] * np.linspace(-1.0, 1.0, 99)
            orders = build_orders([qf], [hours], [0], [alpha], level)
            ledger = settle(orders, rng.normal(50, 25, 24), level, day)
            if not np.isin(ledger.end_level, (0, 1, 2)).all():
                failures.append((day, ledger.end_level.tolist()))
                break
            level = ledger.end_level[0]
        _verdict(7, "battery level stays in {0,1,2} over a 10000-day fuzz", failures)

    def test_criterion_09_miscalibrated_model_dropped(self):
        register_method(
            "hs_wide",
            lambda inputs: MethodContext(
                "hs_wide", offsets=4.0 * hs_offsets(inputs.errors)
            ),
        )
        config = BacktestConfig(
            point_window=56, prob_window=8, metric_window=30,
            alphas=(0.8,), pool_window_lengths=(30, 56),
            model_registry=("hs", "hs_wide"),
        )
        series = synth_generate(config.first_trading_day + 75, seed=5)
        report = run_backtest(series, config)
        cutoff = config.first_trading_day + 60
        wide = config.model_registry.index("hs_wide")
        failures = [
            (METRICS[metric], day)
            for day, chosen in zip(report.trading_days, report.chosen)
            for metric, _ in np.argwhere(chosen == wide)
            if day >= cutoff
        ]
        _verdict(9, "every metric drops the over-dispersed model within 60 days",
                 failures)

    def test_criterion_10_cp_symmetry_hs_equivariance(self):
        rng = np.random.default_rng(1010)
        failures = []
        for case in range(1000):
            size = int(rng.integers(100, 400))
            sample = rng.normal(rng.uniform(-20, 20), rng.uniform(0.5, 30), size)
            offsets = cp_offsets(ErrorSample(sample))
            if np.abs(offsets + offsets[::-1]).max() > 1e-9:
                failures.append(("cp", case))
            if np.any(np.diff(offsets) < -1e-12):
                failures.append(("cp-monotone", case))
        for case in range(1000):
            size = int(rng.integers(100, 400))
            sample = rng.normal(0, rng.uniform(0.5, 30), size)
            shift = float(rng.uniform(-100, 100))
            base = hs_offsets(ErrorSample(sample))
            shifted = hs_offsets(ErrorSample(sample + shift))
            if np.abs(shifted - (base + shift)).max() > 1e-9 * (1.0 + abs(shift)):
                failures.append(("hs", case))
        _verdict(10, "CP offsets antisymmetric, HS offsets translation-equivariant",
                 failures)

    @pytest.mark.slow
    def test_criterion_08_end_to_end(self, tmp_path):
        failures = []
        series = synth_generate(700, seed=0)
        t0 = time.perf_counter()
        first = run_backtest(series, BacktestConfig())
        elapsed = time.perf_counter() - t0
        if elapsed >= 600.0:
            failures.append(f"runtime {elapsed:.0f}s >= 600s")
        second = run_backtest(series, BacktestConfig())
        dir1, dir2 = tmp_path / "run1", tmp_path / "run2"
        paths1 = write_report(first, dir1)
        paths2 = write_report(second, dir2)
        for p1, p2 in zip(sorted(paths1), sorted(paths2)):
            if Path(p1).read_bytes() != Path(p2).read_bytes():
                failures.append(f"bundle files differ: {p1}")

        # no look-ahead: perturbing a trading day's price after the forecasts
        # are fixed must change settlement but not that day's forecasts.
        config = BacktestConfig()
        day = config.first_trading_day
        short = type(series)(
            prices=series.prices[: day + 2].copy(),
            loads=series.loads[: day + 2],
            start_weekday=series.start_weekday,
        )
        mutated_prices = short.prices.copy()
        mutated_prices[day] += 25.0
        mutated = type(series)(
            prices=mutated_prices, loads=short.loads,
            start_weekday=short.start_weekday,
        )
        with recorded_forecasts() as f1:
            r1 = run_backtest(short, config)
        with recorded_forecasts() as f2:
            r2 = run_backtest(mutated, config)
        for tag in config.model_registry:
            if not np.array_equal(f1[day][tag], f2[day][tag]):
                failures.append(f"forecast for {tag} changed with the mutated price")
        if r1.ledger.cash_flow[0].tolist() == r2.ledger.cash_flow[0].tolist():
            failures.append("settlement unchanged by the price mutation")
        _verdict(8, "700-day run under 10 min, bit-identical, no look-ahead",
                 failures)
