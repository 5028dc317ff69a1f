"""Output checks made apart from the program.

Nothing here imports `quantbess`.  The checks read the dataset and the CSV
bundle a command wrote and recompute them with numpy and scipy from the
documented definitions: settlement of the three-level block battery, profit
per MWh, rolling score means and the selection rule, the six daily scores,
the price-taker's hours, and, for fits the tracer kept, the optimality
conditions of each probabilistic method.

Every check returns a list of problems; an empty list means it passed.
"""
from __future__ import annotations

import csv
import math
import os
import re

import numpy as np
from scipy import linalg, optimize, sparse, special

SELL = 0.9
BUY = 1.0 / 0.9
METRICS = ("pinball_all", "pinball_buysell", "pinball_sell", "pinball_buy",
           "coverage_all", "coverage_hours")
GRID = np.arange(1, 100) / 100.0
FEATURE_LAG = 7

PROFITS = "profits_by_metric.csv"
SELECTION = "selection_log.csv"
SCORES = "metric_table.csv"
LEDGERS = "ledgers.csv"
BUNDLE = (PROFITS, SELECTION, SCORES, LEDGERS)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(a) + abs(b))


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _hour(text: str):
    return int(text) if text else None


# ---------------------------------------------------------------------------
# Ledgers and profits
# ---------------------------------------------------------------------------

def check_ledger(rows, prices, days, label, file=LEDGERS) -> list:
    """Each row settles against the day's prices; levels chain from 1 in {0,1,2}.

    Orders buy 1/0.9 MWh and sell 0.9 MWh per level.  A bid fills when the
    price at h1 is at or below its limit, an offer when the price at h2 is at
    or above it.  An empty battery gets a forced buy before h2 and a full one
    a forced sell before h2; when no such hour exists the opposite limit order
    is withdrawn.
    """
    problems = []
    if [int(r["day"]) for r in rows] != list(days):
        return [f"{file} {label}: days are not the trading days {days.start}..{days.stop - 1}"]
    level = 1
    for r in rows:
        d = int(r["day"])
        where = f"{file} {label} day {d}"
        h1, h2 = int(r["h1"]), int(r["h2"])
        fb, fs = _hour(r["forced_buy_hour"]), _hour(r["forced_sell_hour"])
        start, end = int(r["start_level"]), int(r["end_level"])
        bid_ok, offer_ok = bool(int(r["bid_accepted"])), bool(int(r["offer_accepted"]))
        p = prices[d]
        if start != level:
            problems.append(f"{where}: starts at level {start}, previous day ended at {level}")
        if not (1 <= h1 <= 24 and 1 <= h2 <= 24 and h1 != h2):
            problems.append(f"{where}: hours h1={h1} h2={h2}")
            level = end
            continue
        if (fb is not None and start != 0) or (fs is not None and start != 2):
            problems.append(f"{where}: forced order at level {start}")
        if fb is not None and (fb == h1 or not 1 <= fb < h2):
            problems.append(f"{where}: forced buy hour {fb} not before h2={h2} apart from h1")
        if fs is not None and (fs in (h1, h2) or not 1 <= fs < h2):
            problems.append(f"{where}: forced sell hour {fs} not before h2={h2} apart from h1")
        bid_withdrawn = start == 2 and fs is None
        offer_withdrawn = start == 0 and fb is None
        want_bid = not bid_withdrawn and p[h1 - 1] <= float(r["bid_price"])
        want_offer = not offer_withdrawn and p[h2 - 1] >= float(r["offer_price"])
        if bid_ok != want_bid or offer_ok != want_offer:
            problems.append(f"{where}: fills bid={bid_ok} offer={offer_ok}, "
                            f"prices say bid={want_bid} offer={want_offer}")
        buys = (fb is not None) + bid_ok
        sells = (fs is not None) + offer_ok
        cash = (-BUY * (p[fb - 1] if fb else 0.0) + SELL * (p[fs - 1] if fs else 0.0)
                - BUY * p[h1 - 1] * bid_ok + SELL * p[h2 - 1] * offer_ok)
        if not _close(cash, float(r["cash_flow"])):
            problems.append(f"{where}: cash flow {r['cash_flow']}, settlement gives {float(cash)!r}")
        if not (_close(BUY * buys, float(r["volume_bought"]))
                and _close(SELL * sells, float(r["volume_sold"]))):
            problems.append(f"{where}: volumes {r['volume_bought']}/{r['volume_sold']} "
                            f"for {buys} buys and {sells} sells")
        if end != start + buys - sells or end not in (0, 1, 2):
            problems.append(f"{where}: level {start} -> {end} after {buys} buys, {sells} sells")
        level = end
        if len(problems) > 20:
            break
    return problems


def profit(rows) -> float:
    cash = math.fsum(float(r["cash_flow"]) for r in rows)
    volume = math.fsum(float(r["volume_bought"]) + float(r["volume_sold"]) for r in rows)
    return cash / volume


# ---------------------------------------------------------------------------
# Report bundle of `quantbess backtest`
# ---------------------------------------------------------------------------

def check_bundle(outdir, prices, cfg) -> list:
    """Every check on one bundle.  `cfg` holds first_forecast_day,
    first_trading_day, metric_window, alphas and models (registry order)."""
    n_days = prices.shape[0]
    days = range(cfg["first_trading_day"], n_days)
    problems = []

    ledgers = {}
    for r in _rows(os.path.join(outdir, LEDGERS)):
        ledgers.setdefault((r["metric"], float(r["alpha"])), []).append(r)
    keys = {(m, a) for m in METRICS for a in cfg["alphas"]}
    if set(ledgers) != keys:
        problems.append(f"{LEDGERS}: strategies differ from 6 metrics x {len(cfg['alphas'])} alphas")
    for key in sorted(keys & set(ledgers)):
        problems += check_ledger(ledgers[key], prices, days, f"{key[0]}/{key[1]}")

    profits = {(r["metric"], float(r["alpha"])): float(r["profit_per_mwh"])
               for r in _rows(os.path.join(outdir, PROFITS))}
    if set(profits) != keys:
        problems.append(f"{PROFITS}: rows differ from 6 metrics x {len(cfg['alphas'])} alphas")
    for key in sorted(keys & set(profits) & set(ledgers)):
        if not _close(profits[key], profit(ledgers[key])):
            problems.append(f"{PROFITS} {key}: {profits[key]!r}, ledger gives "
                            f"{profit(ledgers[key])!r}")

    scores, found = check_scores(os.path.join(outdir, SCORES), n_days, cfg)
    problems += found
    if scores is not None:
        problems += check_selection(os.path.join(outdir, SELECTION), scores, days, cfg)
    return problems


def check_scores(path, n_days, cfg):
    """(scores[model][alpha] -> (n_scored_days, 6) array, problems).

    Every (day, model, alpha) appears once; coverage_all is a multiple of
    1/24, coverage_hours is 0 or 1, pinball_buysell is the mean of buy and
    sell, pinball_all does not depend on alpha, and no pinball is negative.
    """
    first = cfg["first_forecast_day"]
    n = n_days - first
    alphas, models = cfg["alphas"], cfg["models"]
    table = {m: {a: np.full((n, 6), np.nan) for a in alphas} for m in models}
    problems = []
    for r in _rows(path):
        i = int(r["day"]) - first
        a = float(r["alpha"])
        if r["model_id"] not in table or a not in table[r["model_id"]] or not 0 <= i < n:
            problems.append(f"{SCORES}: unexpected row {r['day']}/{r['model_id']}/{r['alpha']}")
            continue
        cell = table[r["model_id"]][a]
        if not np.isnan(cell[i, 0]):
            problems.append(f"{SCORES}: duplicate row {r['day']}/{r['model_id']}/{r['alpha']}")
        cell[i] = [float(r[k]) for k in METRICS]
    if problems:
        return None, problems
    for m in models:
        for a in alphas:
            s = table[m][a]
            where = f"{SCORES} {m}/{a}"
            if np.isnan(s).any():
                problems.append(f"{where}: days missing")
                continue
            cov24 = s[:, 4] * 24
            if np.abs(cov24 - np.round(cov24)).max() > 1e-9 or not ((0 <= s[:, 4]) & (s[:, 4] <= 1)).all():
                problems.append(f"{where}: coverage_all not a multiple of 1/24 in [0, 1]")
            if not np.isin(s[:, 5], (0.0, 1.0)).all():
                problems.append(f"{where}: coverage_hours outside {{0, 1}}")
            if np.abs(s[:, 1] - 0.5 * (s[:, 2] + s[:, 3])).max() > 1e-12 * (1 + np.abs(s[:, 1]).max()):
                problems.append(f"{where}: pinball_buysell is not the mean of buy and sell")
            if (s[:, :4] < -1e-12).any():
                problems.append(f"{where}: negative pinball")
            if not np.array_equal(s[:, 0], table[m][alphas[0]][:, 0]):
                problems.append(f"{where}: pinball_all depends on alpha")
    return table, problems


def _selection_key(metric: str, alpha: float):
    """The documented ranking: lowest pinball mean; coverage_all closest to
    alpha; coverage_hours closest to ((1 + alpha) / 2) ** 2."""
    if metric.startswith("pinball"):
        return lambda avg: avg
    target = alpha if metric == "coverage_all" else ((1.0 + alpha) / 2.0) ** 2
    return lambda avg: abs(avg - target)


def check_selection(path, scores, days, cfg) -> list:
    """Each avg_* is the mean of the metric over the window ending the day
    before; the chosen model has the best key, ties going to registry order."""
    first, window, models = cfg["first_forecast_day"], cfg["metric_window"], cfg["models"]
    means = {
        (m, a): np.lib.stride_tricks.sliding_window_view(scores[m][a], window, axis=0).mean(axis=2)
        for m in models for a in cfg["alphas"]
    }
    seen = set()
    problems = []
    for r in _rows(path):
        d, metric, alpha = int(r["day"]), r["metric"], float(r["alpha"])
        where = f"{SELECTION} day {d} {metric}/{alpha}"
        if d not in days or metric not in METRICS or (models[0], alpha) not in means:
            problems.append(f"{where}: unexpected row")
            continue
        seen.add((d, metric, alpha))
        j = METRICS.index(metric)
        logged = [float(r[f"avg_{m}"]) for m in models]
        for m, avg in zip(models, logged):
            want = means[(m, alpha)][d - window - first, j]
            if not _close(avg, want, 1e-12):
                problems.append(f"{where}: avg_{m} {avg!r}, window mean {want!r}")
        key = _selection_key(metric, alpha)
        ranked = [key(v) for v in logged]
        best = models[ranked.index(min(ranked))]
        if r["chosen_model"] != best:
            problems.append(f"{where}: chose {r['chosen_model']}, the rule gives {best}")
        if len(problems) > 20:
            break
    if len(seen) != len(days) * len(METRICS) * len(cfg["alphas"]) and not problems:
        problems.append(f"{SELECTION}: {len(seen)} selections, expected one per day, metric and alpha")
    return problems


# ---------------------------------------------------------------------------
# Point forecasts: an independent least-squares refit
# ---------------------------------------------------------------------------

def features(prices, loads, start_weekday) -> np.ndarray:
    """(n_days, 24, 14) regressors of the hourly expert model: price lags 1, 2
    and 7 of the same hour, the previous day's last price, maximum and
    minimum, the load forecast and seven weekday indicators."""
    n = prices.shape[0]
    f = np.zeros((n, 24, 14))
    d = np.arange(FEATURE_LAG, n)
    f[d, :, 0] = prices[d - 1]
    f[d, :, 1] = prices[d - 2]
    f[d, :, 2] = prices[d - 7]
    f[d, :, 3] = prices[d - 1, 23][:, None]
    f[d, :, 4] = prices[d - 1].max(axis=1)[:, None]
    f[d, :, 5] = prices[d - 1].min(axis=1)[:, None]
    f[d, :, 6] = loads[d]
    f[d, :, 7 + (start_weekday - 1 + d) % 7] = 1.0
    return f


def refit_forecast(prices, feats, day: int, window: int) -> np.ndarray:
    """The 24 hourly forecasts for `day` from fits on the `window` days before.

    At hour 24 the previous day's last price is both the first lag and the
    end-of-day regressor, so that design has rank 13.  There the documented
    rule applies: a ridge of 1e-8 times each column's sum of squares.
    """
    lo = max(day - window, FEATURE_LAG)
    out = np.empty(24)
    for h in range(24):
        X, y = feats[lo:day, h], prices[lo:day, h]
        if np.linalg.matrix_rank(X) < X.shape[1]:
            gram = X.T @ X
            beta = linalg.solve(gram + 1e-8 * np.diag(np.diag(gram)), X.T @ y, assume_a="pos")
        else:
            beta = linalg.lstsq(X, y, lapack_driver="gelsy")[0]
        out[h] = feats[day, h] @ beta
    return out


def check_pricetaker(ledger_path, stdout, prices, loads, start_weekday, cfg) -> list:
    """Both unlimited orders fill every day, the level stays at 1, h1 and h2
    are the cheapest and dearest hours of a refit primary forecast, and the
    printed profit is the ledger's."""
    rows = _rows(ledger_path)
    days = range(cfg["first_trading_day"], prices.shape[0])
    problems = check_ledger(rows, prices, days, "benchmark", file="ledger")
    feats = features(prices, loads, start_weekday)
    for r in rows:
        d = int(r["day"])
        where = f"ledger day {d}"
        if (r["bid_accepted"], r["offer_accepted"], r["start_level"], r["end_level"]) != ("1", "1", "1", "1"):
            problems.append(f"{where}: orders did not both fill at level 1")
        fc = refit_forecast(prices, feats, d, cfg["point_window"])
        tol = 1e-6 * (1.0 + np.abs(fc).max())
        h1, h2 = int(r["h1"]), int(r["h2"])
        if fc[h1 - 1] > fc.min() + tol or fc[h2 - 1] < fc.max() - tol:
            problems.append(f"{where}: h1={h1} h2={h2}, refit forecast gives "
                            f"{int(fc.argmin()) + 1} and {int(fc.argmax()) + 1}")
        if len(problems) > 20:
            break
    printed = re.search(r"profit_per_mwh=(-?[0-9.]+)", stdout)
    if printed is None:
        problems.append("no profit_per_mwh in the command's output")
    elif printed.group(1) != f"{profit(rows):.4f}":
        problems.append(f"printed profit {printed.group(1)}, ledger gives {profit(rows):.4f}")
    return problems


# ---------------------------------------------------------------------------
# Fits kept by the tracer
# ---------------------------------------------------------------------------

# Box of the program's JSU optimizer in (gamma, log delta, xi, log lambda),
# and its convergence rule: projected gradient norm <= 1e-6 * max(1, |nll|).
JSU_BOUNDS = ((-20.0, 20.0), (-4.0, 3.0), (-math.inf, math.inf), (-20.0, 20.0))


def jsu_nll(theta, x) -> float:
    gamma, log_delta, xi, log_lam = theta
    delta, lam = math.exp(log_delta), math.exp(log_lam)
    z = (x - xi) / lam
    logpdf = (np.log(delta) - np.log(lam) - 0.5 * np.log(2 * np.pi)
              - 0.5 * np.log1p(z * z) - 0.5 * (gamma + delta * np.arcsinh(z)) ** 2)
    return float(-np.sum(logpdf))


def type7_quantile(sample, q) -> np.ndarray:
    """Linear interpolation between order statistics at (n - 1) q."""
    s = np.sort(sample)
    h = (s.size - 1) * np.asarray(q, dtype=float)
    lo = np.floor(h).astype(int)
    hi = np.minimum(lo + 1, s.size - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def pinball_total(beta, X, y, q) -> float:
    r = y - X @ beta
    return float(np.sum(np.maximum(q * r, (q - 1.0) * r)))


def primal_qr_optimum(X, y, q) -> float:
    """min q 1'u + (1 - q) 1'v  s.t.  X b + u - v = y,  u, v >= 0."""
    m, p = X.shape
    c = np.concatenate([np.zeros(p), np.full(m, q), np.full(m, 1.0 - q)])
    eye = sparse.identity(m, format="csc")
    res = optimize.linprog(
        c, A_eq=sparse.hstack([sparse.csc_matrix(X), eye, -eye], format="csc"), b_eq=y,
        bounds=[(None, None)] * p + [(0, None)] * (2 * m), method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"primal LP failed: {res.message}")
    return float(res.fun)


def check_fits(samples, prices, loads, start_weekday, qra_quantiles=(0.05, 0.5, 0.95)) -> tuple:
    """(problems, number of fits checked) for the samples the tracer kept."""
    problems, checked = [], 0
    feats = None
    for slot in ("first", "last"):
        def s(method, name, slot=slot):
            return samples.get(f"{method}.{slot}.{name}")

        for method in ("hs", "cp"):
            res = s(method, "residuals")
            if res is None:
                continue
            if method == "hs":
                want = type7_quantile(res, GRID)
            else:
                gam = type7_quantile(np.abs(res), np.abs(1.0 - 2.0 * GRID))
                want = np.where(GRID < 0.5, -gam, np.where(GRID > 0.5, gam, 0.0))
            if np.abs(s(method, "offsets") - want).max() > 1e-9 * (1.0 + np.abs(want).max()):
                problems.append(f"{method} ({slot}): offsets differ from type-7 quantiles")
            checked += 1
        if s("jsu", "jsu") is not None:
            problems += _check_jsu(s("jsu", "residuals"), s("jsu", "jsu"), s("jsu", "offsets"), slot)
            checked += 1
        if s("qra", "betas") is not None:
            y = s("qra", "prices")
            X = np.column_stack([np.ones(y.size), s("qra", "pool")])
            for q in qra_quantiles:
                got = pinball_total(s("qra", "betas")[int(round(q * 100)) - 1], X, y, q)
                want = primal_qr_optimum(X, y, q)
                if abs(got - want) > 1e-7 * (1.0 + abs(want)):
                    problems.append(f"qra ({slot}) q={q}: pinball {got!r}, primal LP optimum {want!r}")
                checked += 1
        if s("sqra", "betas") is not None:
            problems += _check_sqra(s("sqra", "pool"), s("sqra", "prices"), s("sqra", "betas"),
                                    float(s("sqra", "bandwidth")), slot)
            checked += 1
        if s("pool", "values") is not None:
            if feats is None:
                feats = features(prices, loads, start_weekday)
            day = int(s("pool", "day"))
            for window, got in zip(s("pool", "windows"), s("pool", "values")):
                want = refit_forecast(prices, feats, day, int(window))
                if np.abs(got - want).max() > 1e-8 * (1.0 + np.abs(want).max()):
                    problems.append(f"pool day {day} window {window}: forecast differs from "
                                    f"the refit by {np.abs(got - want).max():.3g}")
                checked += 1
    return problems, checked


def _check_jsu(x, params, offsets, slot) -> list:
    gamma, delta, xi, lam = (float(v) for v in params)
    theta = np.array([gamma, math.log(delta), xi, math.log(lam)])
    nll = jsu_nll(theta, x)
    grad = np.empty(4)
    for i in range(4):
        h = 1e-6 * max(1.0, abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (jsu_nll(up, x) - jsu_nll(down, x)) / (2 * h)
    for i, (lo, hi) in enumerate(JSU_BOUNDS):
        if (theta[i] <= lo + 1e-12 and grad[i] > 0) or (theta[i] >= hi - 1e-12 and grad[i] < 0):
            grad[i] = 0.0
    problems = []
    # Central differences carry an error of about 1e-16 |nll| / h; allow it.
    tol = 1e-6 * max(1.0, abs(nll)) + 1e-8 * abs(nll)
    if np.linalg.norm(grad) > tol:
        problems.append(f"jsu ({slot}): projected gradient {np.linalg.norm(grad):.3e} > {tol:.3e}")
    want = xi + lam * np.sinh((special.ndtri(GRID) - gamma) / delta)
    if np.abs(offsets - want).max() > 1e-9 * (1.0 + np.abs(want).max()):
        problems.append(f"jsu ({slot}): offsets are not the fitted distribution's quantiles")
    return problems


def _check_sqra(pool, y, betas, bandwidth, slot) -> list:
    """Gradient of the Gaussian-smoothed check loss, -X'(q - Phi(-r / H)),
    within the program's stopping rule at every quantile."""
    X = np.column_stack([np.ones(y.size), pool])
    m = y.size
    tol = max(1e-9 * m * max(1.0, float(np.std(y))), 1e-6 * m * max(1.0, float(np.abs(X).mean())))
    worst = 0.0
    for q, beta in zip(GRID, betas):
        r = y - X @ beta
        g = -X.T @ (q - special.ndtr(-r / bandwidth))
        worst = max(worst, float(np.abs(g).max()))
    return [] if worst <= tol else [f"sqra ({slot}): gradient {worst:.3e} > {tol:.3e}"]
