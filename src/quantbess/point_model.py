"""Per-hour autoregressive expert model for point price forecasts.

Each hour gets its own linear regression on lagged prices, previous-day
extremes, the end-of-day price, the load forecast and seven weekday dummies
(14 coefficients; the dummies span the intercept).  A pool of variants is
produced by calibrating the same model on several window lengths.

`calibrate` fits one hour on one window with `lstsq`; with `predict_day` it is
the reference for `forecast_pool`, which fits all 24 hours of every pool
window together.  All pool windows end the day before the forecast day, so
`forecast_pool` builds the (24, days, 14) design tensor of the longest window
once and each window is a suffix of its rows.  A stacked QR of [X | y] gives
each window's R and Q'y for all 24 hours at once (the QR of a window updates
the R of the next shorter one with the rows it lacks).  The singular values
of R are those of X and set the rank by lstsq's rule, s > eps * max(m, 14) *
s_max for m usable days.  Full-rank hours are solved from R; rank-deficient
ones take `calibrate`'s column-proportional ridge.  Hour 24 is always rank
deficient, since its y_lag1 and y_eod are the same price.

A caller that reads only some variants names them in `solve`.  The QR chain
still runs over every window, so each solved variant is bitwise the one the
full pool gives; only the rank test, the solve and the forecasts shrink.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, InsufficientDataError
from .market_data import MarketSeries, WindowView, window

#: Days of history needed before features exist (one-week lag).
FEATURE_LAG = 7

#: Minimum usable days in a calibration window after lag trimming.
MIN_CALIBRATION_DAYS = 30

N_COEFFICIENTS = 14

FEATURE_NAMES = (
    "y_lag1", "y_lag2", "y_lag7", "y_eod", "y_max_prev", "y_min_prev", "load",
    "wd1", "wd2", "wd3", "wd4", "wd5", "wd6", "wd7",
)

#: Window lengths for the default forecast-pool committee.
DEFAULT_POOL_WINDOWS = (56, 84, 112, 182, 364)

_RIDGE_EPS = 1e-8


@dataclass(frozen=True)
class ExpertFeatures:
    """Regressor values for one (day, hour)."""

    y_lag1: float
    y_lag2: float
    y_lag7: float
    y_eod: float
    y_max_prev: float
    y_min_prev: float
    load: float
    weekday: np.ndarray  # seven 0/1 indicators

    def __post_init__(self):
        weekday = np.asarray(self.weekday, dtype=float)
        if weekday.shape != (7,) or int(weekday.sum()) != 1 or not np.isin(weekday, (0.0, 1.0)).all():
            raise ValueError("weekday must be a one-hot vector of length 7")
        if self.y_max_prev < self.y_min_prev:
            raise ValueError("y_max_prev must be >= y_min_prev")
        object.__setattr__(self, "weekday", weekday)

    def vector(self) -> np.ndarray:
        return np.concatenate((
            [self.y_lag1, self.y_lag2, self.y_lag7, self.y_eod,
             self.y_max_prev, self.y_min_prev, self.load],
            self.weekday,
        ))


@dataclass(frozen=True)
class ExpertModelParams:
    """Fitted coefficients of the hourly expert model."""

    hour: int
    coefficients: np.ndarray  # (14,)
    calibration_window_length: int

    def __post_init__(self):
        coefficients = np.asarray(self.coefficients, dtype=float)
        if coefficients.shape != (N_COEFFICIENTS,):
            raise ValueError(f"expected {N_COEFFICIENTS} coefficients")
        if not np.isfinite(coefficients).all():
            raise ValueError("coefficients must be finite")
        if not 1 <= self.hour <= 24:
            raise ValueError("hour must be in 1..24")
        object.__setattr__(self, "coefficients", coefficients)


@dataclass(frozen=True)
class PointForecastSet:
    """Point forecasts for one day from every pool variant (n_variants x 24)."""

    day: int
    window_lengths: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.window_lengths), 24):
            raise ValueError("values must have shape (n_variants, 24)")
        if not np.isfinite(values).all():
            raise ValueError("forecasts must be finite")
        object.__setattr__(self, "values", values)

    def variant(self, window_length: int) -> np.ndarray:
        idx = self.window_lengths.index(window_length)
        return self.values[idx]


def build_features(series: MarketSeries, d: int, h: int) -> ExpertFeatures:
    """Assemble the regressors for forecasting day d, hour h."""
    if d < FEATURE_LAG:
        raise InsufficientDataError(
            f"day {d} lacks one-week history (need d >= {FEATURE_LAG})"
        )
    if d >= series.n_days:
        raise IndexError(f"day {d} outside series of {series.n_days} days")
    p = series.prices
    return ExpertFeatures(
        y_lag1=p[d - 1, h - 1],
        y_lag2=p[d - 2, h - 1],
        y_lag7=p[d - 7, h - 1],
        y_eod=p[d - 1, 23],
        y_max_prev=p[d - 1].max(),
        y_min_prev=p[d - 1].min(),
        load=series.loads[d, h - 1],
        weekday=series.weekday_dummies(d),
    )


def _design_tensor(series: MarketSeries, days: np.ndarray, with_target: bool = False) -> np.ndarray:
    """(24, days, 14) feature tensor: entry [h - 1, i] holds the regressors of
    (days[i], h).  Every day must be >= 7.  `with_target` appends the price
    being regressed, that of (days[i], h), as a 15th column."""
    p = series.prices
    prev = p[days - 1]
    X = np.zeros((24, days.size, N_COEFFICIENTS + with_target))
    X[:, :, 0] = prev.T
    X[:, :, 1] = p[days - 2].T
    X[:, :, 2] = p[days - 7].T
    X[:, :, 3] = prev[:, 23]
    X[:, :, 4] = prev.max(axis=1)
    X[:, :, 5] = prev.min(axis=1)
    X[:, :, 6] = series.loads[days].T
    X[:, np.arange(days.size), 6 + np.asarray(series.weekday(days))] = 1.0
    if with_target:
        X[:, :, N_COEFFICIENTS] = p[days].T
    return X


def _design(series: MarketSeries, days: np.ndarray, h: int) -> np.ndarray:
    """Vectorized feature matrix of hour h for an array of days (all must be >= 7)."""
    return _design_tensor(series, days)[h - 1]


def calibrate(win: WindowView, h: int) -> ExpertModelParams:
    """Least-squares fit of the 14 coefficients over the window, for hour h.

    Days without full lag history are trimmed from the window.  On a
    rank-deficient design a trace-scaled ridge term keeps the fit defined.
    """
    days = win.days()
    days = days[days >= FEATURE_LAG]
    if days.size < MIN_CALIBRATION_DAYS:
        raise InsufficientDataError(
            f"{days.size} usable days in window; need >= {MIN_CALIBRATION_DAYS}"
        )
    X = _design(win.series, days, h)
    y = win.series.prices[days, h - 1]
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < N_COEFFICIENTS:
        # Column-proportional ridge keeps the bias at ~1e-8 relative per
        # column regardless of scale differences (load vs dummies).
        gram = X.T @ X
        col_sq = np.diag(gram).copy()
        if not (col_sq > 0).any() or not np.isfinite(col_sq).all():
            raise CalibrationError(f"hour {h}: design matrix degenerate beyond repair")
        col_sq[col_sq <= 0] = col_sq[col_sq > 0].min()
        try:
            beta = np.linalg.solve(gram + _RIDGE_EPS * np.diag(col_sq), X.T @ y)
        except np.linalg.LinAlgError as exc:
            raise CalibrationError(f"hour {h}: ridge fallback failed") from exc
    if not np.isfinite(beta).all():
        raise CalibrationError(f"hour {h}: non-finite coefficients")
    return ExpertModelParams(hour=h, coefficients=beta, calibration_window_length=win.length)


def predict(params: ExpertModelParams, features: ExpertFeatures) -> float:
    return float(params.coefficients @ features.vector())


def predict_day(series: MarketSeries, d: int, params_by_hour) -> np.ndarray:
    """Forecast all 24 hours of day d given per-hour fitted parameters."""
    out = np.empty(24)
    for h in range(1, 25):
        X = _design(series, np.array([d]), h)
        out[h - 1] = X[0] @ params_by_hour[h - 1].coefficients
    return out


def forecast_pool(series: MarketSeries, d: int, window_lengths=DEFAULT_POOL_WINDOWS,
                  solve=None):
    """Point forecasts for day d from the model calibrated on each window length.

    `solve` names the window lengths to fit, a subset of `window_lengths`
    (default: all of them); the result and the failures cover those alone.
    Returns (PointForecastSet, failures) where failures maps a dropped window
    length to the error that removed it.  Each window's forecasts equal those
    of `calibrate` and `predict_day` up to rounding; see the module docstring
    for how the 24 hourly fits of all windows are solved together.
    """
    window_lengths = tuple(window_lengths)
    if not window_lengths:
        raise ValueError("window_lengths must be non-empty")
    solve = window_lengths if solve is None else tuple(solve)
    if not solve or not set(solve) <= set(window_lengths):
        raise ValueError(f"solve {solve} must name some of the window lengths {window_lengths}")
    if d < max(window_lengths):
        raise InsufficientDataError(
            f"day {d} precedes the longest calibration window ({max(window_lengths)})"
        )
    first = max(d - max(window_lengths), FEATURE_LAG)
    Xy = _design_tensor(series, np.arange(first, d), with_target=True)
    n_rows = Xy.shape[1]

    failures, starts = {}, {}
    for i, length in enumerate(window_lengths):
        start = max(window(series, d - 1, length).first_day, FEATURE_LAG) - first
        if n_rows - start >= MIN_CALIBRATION_DAYS:
            starts[i] = start
        elif length in solve:
            failures[length] = InsufficientDataError(
                f"{n_rows - start} usable days in window; need >= {MIN_CALIBRATION_DAYS}"
            )
    # the QR chain runs over every window, so a solved variant does not
    # depend on which others are solved
    factors = _r_factors(Xy, set(starts.values()))
    starts = {i: s for i, s in starts.items() if window_lengths[i] in solve}
    if not starts:
        raise CalibrationError(f"day {d}: every pool variant failed: {failures}")

    n = N_COEFFICIENTS
    R = np.stack([factors[s] for s in starts.values()])  # (variants, 24, 15, 15)
    sv = np.linalg.svd(R[..., :n, :n], compute_uv=False)
    rows = n_rows - np.fromiter(starts.values(), dtype=int)
    tol = np.finfo(float).eps * np.maximum(rows, n)[:, None] * sv[..., 0]
    full = (sv > tol[..., None]).all(axis=-1)
    beta = np.empty(R.shape[:2] + (n,))
    beta[full] = np.linalg.solve(R[full][:, :n, :n], R[full][:, :n, n:])[..., 0]

    kept, fitted = [], []
    for j, (i, start) in enumerate(starts.items()):
        try:
            deficient = np.flatnonzero(~full[j])
            if deficient.size:
                beta[j, deficient] = _ridge(Xy[deficient, start:], deficient + 1)
            finite = np.isfinite(beta[j]).all(axis=1)
            if not finite.all():
                raise CalibrationError(f"hour {np.argmin(finite) + 1}: non-finite coefficients")
        except CalibrationError as exc:
            failures[window_lengths[i]] = exc
            continue
        kept.append(window_lengths[i])
        fitted.append(j)
    if not kept:
        raise CalibrationError(f"day {d}: every pool variant failed: {failures}")
    x_day = _design_tensor(series, np.array([d]))[:, 0]
    values = np.einsum("vhk,hk->vh", beta[fitted], x_day)
    return PointForecastSet(day=d, window_lengths=tuple(kept), values=values), failures


def _r_factors(Xy: np.ndarray, starts) -> dict:
    """R factor of the stacked QR of Xy[:, s:] for each start row s.

    The row blocks are nested suffixes, so the factor for each start is the
    QR of the next shorter block's R stacked on the rows that block lacks.
    """
    factors, R, end = {}, Xy[:, :0], Xy.shape[1]
    for s in sorted(starts, reverse=True):
        R = np.linalg.qr(np.concatenate((R, Xy[:, s:end]), axis=1), mode="r")
        factors[s], end = R, s
    return factors


def _ridge(Xy: np.ndarray, hours: np.ndarray) -> np.ndarray:
    """`calibrate`'s ridge fallback for a stack of rank-deficient hours.

    Xy is (k, rows, 15): the design of each listed hour with its target as
    the last column.  Returns the (k, 14) coefficients.
    """
    n = N_COEFFICIENTS
    G = np.matmul(Xy.transpose(0, 2, 1), Xy)
    gram, rhs = G[:, :n, :n], G[:, :n, n]
    col_sq = np.diagonal(gram, axis1=1, axis2=2).copy()
    usable = (col_sq > 0).any(axis=1) & np.isfinite(col_sq).all(axis=1)
    if not usable.all():
        raise CalibrationError(
            f"hour {hours[np.argmin(usable)]}: design matrix degenerate beyond repair"
        )
    floor = np.where(col_sq > 0, col_sq, np.inf).min(axis=1, keepdims=True)
    col_sq = np.where(col_sq > 0, col_sq, floor)
    try:
        return np.linalg.solve(
            gram + _RIDGE_EPS * col_sq[:, :, None] * np.eye(n), rhs[:, :, None]
        )[..., 0]
    except np.linalg.LinAlgError as exc:
        raise CalibrationError(f"hours {hours.tolist()}: ridge fallback failed") from exc


def dump_coefficients(path, fitted, delimiter: str = ",") -> None:
    """Diagnostic CSV of fitted coefficients.

    `fitted` is an iterable of ExpertModelParams.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["hour", "window_length", *FEATURE_NAMES])
        for params in fitted:
            writer.writerow(
                [params.hour, params.calibration_window_length, *params.coefficients]
            )
