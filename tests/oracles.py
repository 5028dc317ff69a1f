"""Reference implementations that the tests check the array path against.

Plain functions over arrays and ints, written from the definitions of the
scores, the regressors and the losses rather than from the package's code,
and row-by-row CSV readers and writers built on `csv.DictReader` and
`csv.writer`.  They import from `quantbess` only constants, `MarketSeries`
and the error classes (`test_oracles.py` checks this), so none of them can
agree with the package merely because it calls the code under test.

Hours are numbered 1..24; a quantile row is the 99 values of one hour on the
grid q = 0.01, ..., 0.99.
"""
import csv
import datetime as _dt
import os

import numpy as np
from scipy.special import erfc, ndtr

from quantbess.backtest_engine import LEDGERS_FILE, METRICS_FILE, PROFITS_FILE, SELECTION_FILE
from quantbess.bess_trading import LEDGER_COLUMNS
from quantbess.errors import FitError, GapError, InsufficientDataError, ParseError
from quantbess.eval_metrics import METRICS
from quantbess.market_data import DEFAULT_SCHEMA, MarketSeries
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


def _smoothed_check_loss(beta, X, y, q: float, bandwidth: float):
    """Value, gradient and Hessian in beta of sum_i l(y_i - x_i'beta), where
    l(r) = E rho_q(r - H Z), Z standard normal, is the check loss smoothed by
    a Gaussian kernel of bandwidth H: l(r) = H phi(r/H) + r (q - Phi(-r/H)),
    l'(r) = q - Phi(-r/H) and l''(r) = phi(r/H) / H."""
    r = y - X @ beta
    z = r / bandwidth
    density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    slope = q - 0.5 * erfc(z / np.sqrt(2.0))
    loss = float(np.sum(bandwidth * density + r * slope))
    return loss, -X.T @ slope, X.T @ ((density / bandwidth)[:, None] * X)


def sqra_gradient(beta, X, y, q: float, bandwidth: float) -> np.ndarray:
    """Gradient in beta of the smoothed check loss sum_i l(y_i - x_i'beta)
    at level q: -X' (q - Phi(-r/H)), with r = y - X beta and scipy's normal
    CDF."""
    r = y - X @ beta
    return -X.T @ (q - ndtr(-r / bandwidth))


def sqra_pass(betas, X, y, qs, bandwidth: float):
    """Per row k of `betas`, at level qs[k]: the smoothed check loss sum_i
    l(r_i), its gradient in beta and the Hessian weights l''(r_i) = phi(r_i /
    H) / H, with r = y - X beta and scipy's normal CDF, one quantile at a
    time.  Returns (losses, gradients, weights) as (K,), (K, p), (K, m)."""
    losses, gradients, weights = [], [], []
    for beta, q in zip(betas, qs):
        r = y - X @ beta
        z = r / bandwidth
        density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        slope = q - ndtr(-z)
        losses.append(np.sum(bandwidth * density + r * slope))
        gradients.append(-X.T @ slope)
        weights.append(density / bandwidth)
    return np.array(losses), np.array(gradients), np.array(weights)


def sqra_newton(pool, prices, q: float, bandwidth: float) -> np.ndarray:
    """The smoothed quantile regression of `prices` on an intercept and the
    `pool` columns at level q, by damped Newton from least squares, one
    quantile at a time.

    The Hessian gets a ridge of 1e-12 * max(1, trace / p).  A step of length
    t is taken on Armijo's test, or, where the predicted decrease is below
    1e-13 of the loss (so that differences of the loss are rounding), when
    it shrinks the gradient's largest component.  The fit stops when that
    component is at most 1e-9 * m * max(1, std(prices)); a line search that
    stalls, or 200 iterations, raise ArithmeticError.
    """
    y = np.asarray(prices, dtype=float)
    X = np.column_stack([np.ones(y.size), np.asarray(pool, dtype=float)])
    m, p = X.shape
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    gtol = 1e-9 * m * max(1.0, float(np.std(y)))
    f, g, hess = _smoothed_check_loss(beta, X, y, q, bandwidth)
    for _ in range(200):
        g_inf = np.abs(g).max()
        if g_inf <= gtol:
            return beta
        ridge = 1e-12 * max(1.0, np.trace(hess) / p)
        step = np.linalg.solve(hess + ridge * np.eye(p), -g)
        decrease = -(g @ step)
        t = 1.0
        while True:
            trial = beta + t * step
            f_new, g_new, hess_new = _smoothed_check_loss(trial, X, y, q, bandwidth)
            if f_new <= f - 1e-4 * t * decrease or (
                decrease < 1e-13 * abs(f) and np.abs(g_new).max() < g_inf
            ):
                break
            t *= 0.5
            if t <= 1e-12:
                raise ArithmeticError(f"line search stalled at q={q}")
        beta, f, g, hess = trial, f_new, g_new, hess_new
    raise ArithmeticError(f"no convergence in 200 iterations at q={q}")


def jsu_sample(gamma, delta, xi, lam, size: int, rng) -> np.ndarray:
    """Johnson SU draws by the inverse transform of standard normals."""
    z = rng.standard_normal(size)
    return xi + lam * np.sinh((z - gamma) / delta)


#: The Johnson SU fit's box in theta = (gamma, log delta, xi, log lambda).
JSU_BOUNDS = ((-20.0, 20.0), (-4.0, 3.0), (None, None), (-20.0, 20.0))


def jsu_nll(theta, x):
    """Negative log-likelihood of the sample x under the Johnson SU density
    delta / (lambda sqrt(2 pi (1 + z^2))) exp(-(gamma + delta asinh z)^2 / 2),
    z = (x - xi) / lambda, and its gradient in theta."""
    gamma, log_delta, xi, log_lam = theta
    delta, lam = np.exp(log_delta), np.exp(log_lam)
    z = (np.asarray(x, dtype=float) - xi) / lam
    w = np.arcsinh(z)
    t = gamma + delta * w
    nll = float(np.sum(0.5 * np.log(2.0 * np.pi * (1.0 + z * z)) + 0.5 * t * t
                       + log_lam - log_delta))
    dnll_dz = z / (1.0 + z * z) + t * delta / np.sqrt(1.0 + z * z)
    grad = np.array([
        np.sum(t),                            # d/d gamma
        np.sum(t * delta * w - 1.0),          # d/d log delta
        -np.sum(dnll_dz) / lam,               # d/d xi, by dz/dxi = -1/lambda
        np.sum(1.0 - dnll_dz * z),            # d/d log lambda, by dz/dlog lambda = -z
    ])
    return nll, grad


def jsu_projected_gradient(theta, x) -> float:
    """Norm of the gradient of `jsu_nll` with the components that push
    against an active bound of `JSU_BOUNDS` set to 0."""
    grad = jsu_nll(theta, x)[1]
    for i, (lo, hi) in enumerate(JSU_BOUNDS):
        if (lo is not None and theta[i] <= lo + 1e-12 and grad[i] > 0) or (
            hi is not None and theta[i] >= hi - 1e-12 and grad[i] < 0
        ):
            grad[i] = 0.0
    return float(np.linalg.norm(grad))


def jsu_fit_lbfgsb(x) -> np.ndarray:
    """The Johnson SU maximum-likelihood theta by L-BFGS-B in `JSU_BOUNDS`,
    the package's fit before its profile Newton.

    From a quantile start (xi the median, lambda from the interquartile
    range), then from the moments, each followed by up to three restarts at
    tighter tolerances, until the projected gradient norm is at most
    1e-6 * max(1, |nll|); FitError otherwise.
    """
    from scipy import optimize
    from scipy.special import ndtri

    x = np.asarray(x, dtype=float)
    q25, q50, q75 = np.quantile(x, [0.25, 0.5, 0.75])
    lam0 = (q75 - q25) / (2.0 * np.sinh(ndtri(0.75)))
    if lam0 <= 0:
        lam0 = float(np.std(x))
    starts = [
        np.array([0.0, 0.0, q50, np.log(lam0)]),
        np.array([0.0, np.log(2.0), float(np.mean(x)), np.log(np.std(x))]),
    ]
    for theta in starts:
        for ftol, gtol in ((1e-15, 1e-12), (1e-18, 1e-14), (1e-18, 1e-14), (1e-18, 1e-14)):
            res = optimize.minimize(
                jsu_nll, theta, args=(x,), jac=True, method="L-BFGS-B", bounds=JSU_BOUNDS,
                options={"maxiter": 2000, "maxfun": 100000, "ftol": ftol, "gtol": gtol},
            )
            theta = res.x
            if jsu_projected_gradient(theta, x) <= 1e-6 * max(1.0, abs(res.fun)):
                return theta
    raise FitError("the L-BFGS-B Johnson SU fit did not converge")


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


# ---------------------------------------------------------------------------
# CSV, one row at a time
# ---------------------------------------------------------------------------

def ingest_csv_by_rows(path, schema=None, delimiter: str = ",", min_days: int = 0) -> MarketSeries:
    """The dataset reader through `csv.DictReader`: each row is parsed and
    checked in file order, the rows are sorted by time, and the cells are
    placed one row at a time."""
    schema = dict(DEFAULT_SCHEMA, **(schema or {}))
    rows = []  # (datetime, price, load, line_no)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None:
            raise ParseError(1, "empty file")
        for key in ("timestamp", "price", "load"):
            if schema[key] not in reader.fieldnames:
                raise ParseError(1, f"missing column {schema[key]!r}")
        for line_no, row in enumerate(reader, start=2):
            try:
                ts = _dt.datetime.fromisoformat(row[schema["timestamp"]].strip())
                price = float(row[schema["price"]])
                load = float(row[schema["load"]])
            except (ValueError, TypeError, AttributeError) as exc:
                raise ParseError(line_no, str(exc)) from exc
            if not (np.isfinite(price) and np.isfinite(load)):
                raise ParseError(line_no, "price and load must be finite")
            if load < 0:
                raise ParseError(line_no, f"negative load forecast {load}")
            rows.append((ts, price, load, line_no))
    if not rows:
        raise ParseError(1, "no data rows")

    rows.sort(key=lambda r: r[0])
    first_date = rows[0][0].date()
    last_date = rows[-1][0].date()
    n_days = (last_date - first_date).days + 1

    price_cells = np.full((n_days, 24), np.nan)
    load_cells = np.full((n_days, 24), np.nan)
    counts = np.zeros((n_days, 24), dtype=int)
    for ts, price, load, line_no in rows:
        d = (ts.date() - first_date).days
        h = ts.hour
        if counts[d, h] == 0:
            price_cells[d, h] = price
            load_cells[d, h] = load
        elif counts[d, h] == 1:
            # DST fall-back duplicate: average the two observations
            price_cells[d, h] = 0.5 * (price_cells[d, h] + price)
            load_cells[d, h] = 0.5 * (load_cells[d, h] + load)
        else:
            raise ParseError(line_no, f"hour {h} of {ts.date()} appears more than twice")
        counts[d, h] += 1

    for cells in (price_cells, load_cells):
        _fill_single_gaps(cells)

    if n_days < min_days:
        raise InsufficientDataError(
            f"dataset has {n_days} complete days; at least {min_days} required"
        )
    return MarketSeries(
        prices=price_cells,
        loads=load_cells,
        start_weekday=first_date.isoweekday(),
    )


def _fill_single_gaps(cells: np.ndarray) -> None:
    """Fill isolated missing hours in-place; raise GapError on longer gaps."""
    flat = cells.reshape(-1)
    missing = np.flatnonzero(np.isnan(flat))
    if missing.size == 0:
        return
    if missing[0] == 0 or missing[-1] == flat.size - 1:
        raise GapError("dataset starts or ends with a missing hour")
    if np.any(np.diff(missing) == 1):
        raise GapError("gap longer than 1 hour in the hourly sequence")
    flat[missing] = 0.5 * (flat[missing - 1] + flat[missing + 1])


def export_csv_by_rows(series: MarketSeries, path) -> None:
    """The dataset writer through `csv.writer`, one hour per row."""
    # 2018-01-01 is a Monday
    start_date = _dt.date(2018, 1, 1) + _dt.timedelta(days=series.start_weekday - 1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "price", "load_forecast"])
        for d in range(series.n_days):
            day = start_date + _dt.timedelta(days=d)
            for h in range(24):
                ts = _dt.datetime.combine(day, _dt.time(hour=h))
                writer.writerow([ts.isoformat(), repr(float(series.prices[d, h])),
                                 repr(float(series.loads[d, h]))])


def stack_ledgers(days):
    """One ledger of the days' ledgers, each column joined in the given day
    order; the ledger type is the days' own."""
    return type(days[0])(*(np.concatenate([getattr(d, name) for d in days])
                           for name in LEDGER_COLUMNS))


def _ledger_rows(ledger, k: int):
    """CSV rows of strategy k in day order; no forced order is written empty."""
    columns = [getattr(ledger, name)[:, k].tolist() for name in LEDGER_COLUMNS]
    for (day, h1, h2, bid, offer, bid_acc, offer_acc, forced_buy, forced_sell,
         cash, bought, sold, start, end) in zip(*columns):
        yield (
            day, h1, h2, bid, offer, int(bid_acc), int(offer_acc),
            forced_buy or "", forced_sell or "",
            repr(cash), repr(bought), repr(sold), start, end,
        )


def export_ledger_by_rows(ledger, path, extra=None) -> None:
    """The ledger writer through `csv.writer`, one strategy after another."""
    extra = extra or {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*extra.keys(), *LEDGER_COLUMNS])
        for k in range(ledger.day.shape[1]):
            for row in _ledger_rows(ledger, k):
                writer.writerow([*extra.values(), *row])


def _profits(ledger) -> list:
    """Per strategy: cash over traded volume, each summed in day order."""
    out = []
    for k in range(ledger.cash_flow.shape[1]):
        cash = volume = 0.0
        for c, b, s in zip(ledger.cash_flow[:, k].tolist(), ledger.volume_bought[:, k].tolist(),
                           ledger.volume_sold[:, k].tolist()):
            cash += c
            volume += b + s
        out.append(cash / volume if volume else float("nan"))
    return out


def write_report_by_rows(report, outdir) -> list:
    """The report bundle through `csv.writer`, one row at a time."""
    os.makedirs(outdir, exist_ok=True)
    config, store = report.config, report.store
    models, alphas = config.model_registry, config.alphas
    strategies = [(metric, alpha) for metric in METRICS for alpha in alphas]
    paths = [os.path.join(outdir, name)
             for name in (PROFITS_FILE, SELECTION_FILE, METRICS_FILE, LEDGERS_FILE)]

    with open(paths[0], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "metric", "profit_per_mwh"])
        profits = dict(zip(strategies, _profits(report.ledger)))
        for alpha in alphas:
            for metric in METRICS:
                writer.writerow([alpha, metric, repr(float(profits[(metric, alpha)]))])

    with open(paths[1], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "metric", "alpha", "chosen_model", *[f"avg_{m}" for m in models]])
        trading_days = range(config.first_trading_day, report.n_days)
        for d, chosen, averages in zip(
            trading_days, report.chosen.tolist(), report.averages.tolist()
        ):
            for i, metric in enumerate(METRICS):
                for j, alpha in enumerate(alphas):
                    writer.writerow([d, metric, alpha, models[chosen[i][j]],
                                     *map(repr, averages[i][j])])

    with open(paths[2], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "model_id", "alpha", *METRICS])
        # cube [metric, alpha, model, day] -> rows [day][model][alpha]
        for d, per_model in zip(store.days, store.cube.transpose(3, 2, 1, 0).tolist()):
            for model, per_alpha in zip(store.registry_order, per_model):
                for alpha, scores in zip(store.alphas, per_alpha):
                    writer.writerow([d, model, alpha, *map(repr, scores)])

    with open(paths[3], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "alpha", *LEDGER_COLUMNS])
        for k, (metric, alpha) in enumerate(strategies):
            for row in _ledger_rows(report.ledger, k):
                writer.writerow([metric, alpha, *row])
    return paths
