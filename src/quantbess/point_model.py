"""Per-hour autoregressive expert model for point price forecasts.

Each hour gets its own linear regression on lagged prices, previous-day
extremes, the end-of-day price, the load forecast and seven weekday dummies
(14 coefficients; the dummies span the intercept).  A pool of variants is
produced by calibrating the same model on several window lengths.

`design_tensor` builds a series' (24, days, 15) design-and-target tensor,
for every day d >= 7; it is the only feature builder.  `calibrate` fits one
hour on one window with `lstsq` and returns its 14 coefficients; it is the
reference for `forecast_pool`, which fits all 24 hours of every pool window
together.  The caller owns the tensor and passes it to each day's
`forecast_pool`: the backtest's day loop builds it once and drops it when
the loop returns.  Each day's windows and features are slices of it.  All
pool windows end the day before the forecast day, so each window is a
suffix of the longest one's rows.  A stacked QR of [X | y] gives each
window's R and Q'y for all 24 hours at once (the QR of a window updates the
R of the next shorter one with the rows it lacks).

The singular values of R are those of X and set the rank by lstsq's rule,
s_min > eps * max(m, 14) * s_max for m usable days.  Bounds decide it first:
s_max lies between ||R||_F / sqrt(14) and ||R||_F, and s_min between
1 / ||R^-1||_F and min |r_ii|.  An hour is deficient when min |r_ii| is well
below the least threshold the bounds allow, and full rank when
1 / ||R^-1||_F is well above the greatest; only the hours the bounds leave
open get an SVD.  Full-rank hours are solved from R; rank-deficient ones
take `calibrate`'s column-proportional ridge.  Hour 24 is always rank
deficient, since its y_lag1 and y_eod are the same price.

A caller that reads only some variants names them in `solve`.  The QR chain
still runs over every window, so each solved variant is bitwise the one the
full pool gives; only the rank test, the solve and the forecasts shrink.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, InsufficientDataError
from .market_data import MarketSeries

#: Days of history needed before features exist (one-week lag).
FEATURE_LAG = 7

#: Minimum usable days in a calibration window after lag trimming.
MIN_CALIBRATION_DAYS = 30

N_COEFFICIENTS = 14

#: Window lengths for the default forecast-pool committee.
DEFAULT_POOL_WINDOWS = (56, 84, 112, 182, 364)

_RIDGE_EPS = 1e-8

#: Factor by which `_full_rank`'s bounds must clear the rank threshold.
_RANK_MARGIN = 4.0


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


def design_tensor(series: MarketSeries) -> np.ndarray:
    """(24, n_days - 7, 15) design-and-target tensor: entry [h - 1, d - 7]
    holds the regressors of (d, h): y_lag1, y_lag2, y_lag7, y_eod,
    y_max_prev, y_min_prev, load, then seven weekday dummies (Mon..Sun),
    and as a 15th column the price being regressed, that of (d, h)."""
    p = series.prices
    days = np.arange(FEATURE_LAG, series.n_days)
    prev = p[days - 1]
    X = np.zeros((24, days.size, N_COEFFICIENTS + 1))
    X[:, :, 0] = prev.T
    X[:, :, 1] = p[days - 2].T
    X[:, :, 2] = p[days - 7].T
    X[:, :, 3] = prev[:, 23]
    X[:, :, 4] = prev.max(axis=1)
    X[:, :, 5] = prev.min(axis=1)
    X[:, :, 6] = series.loads[days].T
    X[:, np.arange(days.size), 6 + np.asarray(series.weekday(days))] = 1.0
    X[:, :, N_COEFFICIENTS] = p[days].T
    return X


def calibrate(series: MarketSeries, days, h: int) -> np.ndarray:
    """Least-squares fit of hour h's 14 coefficients over the window `days`.

    Days without full lag history are trimmed from the window.  On a
    rank-deficient design a trace-scaled ridge term keeps the fit defined.
    """
    days = np.asarray(days)
    days = days[days >= FEATURE_LAG]
    if days.size < MIN_CALIBRATION_DAYS:
        raise InsufficientDataError(
            f"{days.size} usable days in window; need >= {MIN_CALIBRATION_DAYS}"
        )
    Xy = design_tensor(series)[h - 1, days - FEATURE_LAG]
    X, y = Xy[:, :N_COEFFICIENTS], Xy[:, N_COEFFICIENTS]
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
    return beta


def forecast_pool(tensor: np.ndarray, d: int, window_lengths=DEFAULT_POOL_WINDOWS,
                  solve=None):
    """Point forecasts for day d from the model calibrated on each window length.

    `tensor` is the series' `design_tensor`.  `solve` names the window
    lengths to fit, a subset of `window_lengths` (default: all of them); the
    result and the failures cover those alone.  Returns (PointForecastSet,
    failures) where failures maps a dropped window length to the error that
    removed it.  A window of length L holds days d - L .. d - 1.  Each
    window's forecasts equal day d's regressors times `calibrate`'s
    coefficients up to rounding; see the module docstring for how the 24
    hourly fits of all windows are solved together.
    """
    window_lengths = tuple(window_lengths)
    if not window_lengths:
        raise ValueError("window_lengths must be non-empty")
    solve = window_lengths if solve is None else tuple(solve)
    if not solve or not set(solve) <= set(window_lengths):
        raise ValueError(f"solve {solve} must name some of the window lengths {window_lengths}")
    if d < max(*window_lengths, FEATURE_LAG):
        raise InsufficientDataError(
            f"day {d} precedes the longest calibration window ({max(window_lengths)}) "
            f"or the one-week lag ({FEATURE_LAG})"
        )
    first = max(d - max(window_lengths), FEATURE_LAG)
    Xy = tensor[:, first - FEATURE_LAG : d - FEATURE_LAG]
    n_rows = Xy.shape[1]

    failures, starts = {}, {}
    for i, length in enumerate(window_lengths):
        start = max(d - length, FEATURE_LAG) - first
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
    rows = n_rows - np.fromiter(starts.values(), dtype=int)
    full = _full_rank(R[..., :n, :n], rows[:, None])
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
    x_day = tensor[:, d - FEATURE_LAG, :n]
    values = np.einsum("vhk,hk->vh", beta[fitted], x_day)
    return PointForecastSet(day=d, window_lengths=tuple(kept), values=values), failures


def _full_rank(R: np.ndarray, rows) -> np.ndarray:
    """lstsq's rank rule, s_min > eps * max(rows, n) * s_max, for upper
    triangular R (..., n, n) with `rows` broadcast to R.shape[:-2].

    Bounds decide most matrices without an SVD: s_max lies in
    [||R||_F / sqrt(n), ||R||_F], and s_min lies in [1 / ||R^-1||_F,
    min |r_ii|] (the diagonal holds R's eigenvalues).  R is deficient when
    min |r_ii| is below the least possible threshold, and full rank when
    1 / ||R^-1||_F is above the greatest, each by `_RANK_MARGIN`.  The SVD
    decides the rest.
    """
    n = R.shape[-1]
    eps_rows = np.finfo(float).eps * np.broadcast_to(np.maximum(rows, n), R.shape[:-2])
    fro = np.linalg.norm(R, axis=(-2, -1))
    r_min = np.abs(np.diagonal(R, axis1=-2, axis2=-1)).min(axis=-1)
    deficient = r_min * _RANK_MARGIN <= eps_rows * fro / np.sqrt(n)
    rest = ~deficient
    full = np.zeros(R.shape[:-2], dtype=bool)
    inv_fro = np.linalg.norm(_triangular_inverse(R[rest]), axis=(-2, -1))
    full[rest] = _RANK_MARGIN * eps_rows[rest] * fro[rest] * inv_fro < 1.0
    undecided = rest & ~full
    if undecided.any():
        sv = np.linalg.svd(R[undecided], compute_uv=False)
        full[undecided] = (sv > (eps_rows[undecided] * sv[:, 0])[:, None]).all(axis=-1)
    return full


def _triangular_inverse(R: np.ndarray) -> np.ndarray:
    """Inverse of each upper triangular R (..., n, n) with a non-zero
    diagonal, by back substitution: row i of R^-1 is
    (e_i - R[i, i+1:] @ R^-1[i+1:]) / r_ii, from the last row up."""
    n = R.shape[-1]
    inv = np.zeros(R.shape)
    for i in range(n - 1, -1, -1):
        row = -(R[..., i : i + 1, i + 1 :] @ inv[..., i + 1 :, :])[..., 0, :]
        row[..., i] += 1.0
        inv[..., i, :] = row / R[..., i, i, None]
    return inv


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
