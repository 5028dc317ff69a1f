"""Probabilistic forecasting methods: 99-quantile forecasts from point forecasts.

Five methods are provided:

* ``hs``   -- empirical quantiles of past point-forecast errors added to the
  point forecast.
* ``cp``   -- symmetric intervals from quantiles of absolute errors.
* ``jsu``  -- Johnson SU distribution fitted to the errors by maximum
  likelihood; its quantiles are added to the point forecast.  For a given
  location and scale the two shapes have a closed-form optimum in their box,
  so ``jsu_fit`` runs a damped Newton on the profile likelihood in (xi, log
  lambda) alone.
* ``qra``  -- quantile regression on a pool of point forecasts, solved exactly
  as a linear program per quantile.  ``qra_fit_grid`` fits all 99 at once in
  four steps (Portnoy & Koenker 1997): preliminary betas (the previous
  calibration's, or a coarse interior-point grid), a band of rows near each
  preliminary hyperplane with the rest lumped into two globs, one batched
  interior-point solve of the band LPs, and an exact KKT certificate over
  all rows.  The band solve retires a quantile as soon as the vertex through
  its nearest band rows passes the band LP's own certificate, so the batch
  shrinks as it converges; every array over the full window's rows is built
  for a bounded block of quantiles at a time.  A certified fit is the LP's
  unique optimum, computed from its sorted basis rows, so it does not
  depend on the start or the solve path.
* ``sqra`` -- the same regression with the check function smoothed by a
  Gaussian kernel of bandwidth H (conquer's loss: He, Pan, Tan & Zhou 2021);
  a calibration takes H by the rule of thumb (``default_bandwidth``) from
  the window's residuals about the pool mean.
  ``sqra_fit_grid`` solves all 99 quantiles by damped Newton batched over
  the quantile axis, warm-started from the previous calibration's sqra (or
  today's qra), and ends each quantile with one free Newton step, so the
  fit does not depend on its start.  A quantile the batch leaves unfinished
  runs the same Newton again from a centred least-squares start;
  ``sqra_fit`` is the grid on one quantile.

Empirical quantiles use linear interpolation of order statistics (numpy's
default, the "type 7" rule), from one sort per sample in ``_quantiles``,
which equals ``np.quantile`` bit for bit.  Quantile crossing is resolved by
sorting the 99 values.

The methods need only numpy and the standard library: sqra's normal CDF is
a numpy port of Cephes' ``ndtr`` (``_ndtr``), and jsu's normal quantiles come
from ``statistics.NormalDist``.  scipy (``scipy.optimize`` and
``scipy.sparse``) is imported by the rare fallback alone, qra's HiGHS
simplex ``qra_fit``, on its first call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import FitError, InsufficientDataError, QuantbessError, SolverError

#: The universal quantile grid q = 0.01, ..., 0.99.
QUANTILE_GRID = np.arange(1, 100) / 100.0

MEDIAN_INDEX = 49  # position of q = 0.50 on the grid

#: Minimum residual-sample size for a meaningful 1% quantile.
MIN_ERROR_SAMPLE = 100

METHODS = ("hs", "cp", "jsu", "qra", "sqra")

#: Methods whose calibration reads only the primary forecast's residuals and
#: whose quantiles read only the primary forecast; the others need the pool.
OFFSET_METHODS = ("hs", "cp", "jsu")

_SQRT_2PI = np.sqrt(2.0 * np.pi)

_STD_NORMAL = NormalDist()


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _ndtri(q):
    """The standard normal quantile of each q in (0, 1), elementwise, by the
    standard library's NormalDist (Wichura's AS241)."""
    q = np.asarray(q, dtype=float)
    return np.reshape([_STD_NORMAL.inv_cdf(v) for v in q.flat], q.shape)


# Cephes' ndtr.c (S. L. Moshier): with x = a / sqrt(2), Phi(a) = (1 + erf(x))
# / 2 for |x| < 1, erf(x) = x T(x^2) / U(x^2), and Phi(a) = erfc(|x|) / 2
# below 0 or 1 - erfc(|x|) / 2 above for |x| >= 1, erfc(x) = exp(-x^2) P(x) /
# Q(x).  Highest power first; U and Q have a leading 1, left out as in p1evl.
# T and P are stored halved: scaling by 1/2 is exact, so the halves come out
# with Cephes' rounding.  For sqrt(1/2) <= |x| < 1 Cephes takes 1 - erf(|x|)
# first; there 1 - erf(|x|) is exact (Sterbenz), so the rule for |x| < 1
# rounds the same.
_ERF_T_HALF = tuple(0.5 * c for c in (
    9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
    7.00332514112805075473E3, 5.55923013010394962768E4))
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P_HALF = tuple(0.5 * c for c in (
    2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
    4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
    9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2))
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_SQRT1_2 = float(np.sqrt(0.5))

#: Elements per chunk of `_ndtr` and of `_sqra_pass`'s rows; each chunk's
#: temporaries stay in the core's cache.
_CHUNK = 1 << 14


def _polevl(x, coefs):
    """Cephes' polevl: the polynomial at x by Horner's rule, highest power first."""
    out = x * coefs[0]
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _p1evl(x, coefs):
    """Cephes' p1evl: `_polevl` with a leading coefficient 1 left out."""
    out = x + coefs[0]
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _ndtr(a, out=None):
    """The standard normal CDF, elementwise, by Cephes' ndtr.

    erfc runs P/Q up to |x| = 28, where exp(-x^2) is 0, instead of switching
    to R/S at 8, where the tail is below 6e-30.  Runs in chunks of `_CHUNK`
    elements; `out`, if given, is C-contiguous and may be `a`, and no
    temporary is larger than a chunk.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty_like(a) if out is None else out
    flat_a, flat_out = a.reshape(-1), out.reshape(-1)
    x = np.empty(min(_CHUNK, a.size))
    for lo in range(0, a.size, _CHUNK):
        hi = min(lo + _CHUNK, a.size)
        _ndtr_chunk(flat_a[lo:hi], flat_out[lo:hi], x[: hi - lo])
    return out


def _ndtr_chunk(a, out, x):
    np.multiply(a, _SQRT1_2, out=x)
    ax = np.abs(x)
    near = ax < 1.0
    inner = np.flatnonzero(near)
    outer = np.flatnonzero(~near)            # and NaN
    xi = x[inner]
    w = xi * xi
    y = xi * _polevl(w, _ERF_T_HALF)
    y /= _p1evl(w, _ERF_U)                   # erf(x) / 2
    y += 0.5
    out[inner] = y
    t = ax[outer]
    np.minimum(t, 28.0, out=t)
    half = t * t
    np.negative(half, out=half)
    np.exp(half, out=half)
    half *= _polevl(t, _ERFC_P_HALF)
    half /= _p1evl(t, _ERFC_Q)               # erfc(|x|) / 2
    np.greater(x[outer], 0.0, out=t)
    t -= half
    out[outer] = np.abs(t, out=t)


# ---------------------------------------------------------------------------
# Core data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErrorSample:
    """Point-forecast errors collected over the probabilistic window."""

    residuals: np.ndarray

    def __post_init__(self):
        residuals = np.asarray(self.residuals, dtype=float).ravel()
        if residuals.size < MIN_ERROR_SAMPLE:
            raise InsufficientDataError(
                f"{residuals.size} residuals; need >= {MIN_ERROR_SAMPLE}"
            )
        if not np.isfinite(residuals).all():
            raise ValueError("residuals must be finite")
        object.__setattr__(self, "residuals", residuals)


@dataclass(frozen=True)
class JsuParams:
    """Johnson SU parameters (two shapes, location, scale)."""

    gamma: float
    delta: float
    xi: float
    lam: float

    def __post_init__(self):
        if self.delta <= 0 or self.lam <= 0:
            raise ValueError("delta and lambda must be positive")


def quantile_index(q: float) -> int:
    """Index of q on the 1% grid; raises on off-grid values."""
    idx = int(round(q * 100)) - 1
    if not 0 <= idx <= 98 or abs(QUANTILE_GRID[idx] - q) > 1e-9:
        raise ValueError(f"quantile {q} not on the 0.01..0.99 grid")
    return idx


# ---------------------------------------------------------------------------
# Historical simulation and conformal prediction
# ---------------------------------------------------------------------------

def _quantiles(x: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """numpy's linear (type 7) quantiles of the finite sample x at each q in
    [0, 1], bit for bit up to the sign of a zero: one sort, then
    `np.quantile`'s own rule in its operation order.  `np.quantile` would
    partition at every index instead, and its `np.unique` imports numpy.ma."""
    xs = np.sort(x, axis=None)
    n = xs.size
    v = (n - 1) * qs
    lo = np.floor(v)
    hi = lo + 1
    last = v >= n - 1  # numpy takes x[-1] on both sides there, with gamma v + 1
    lo[last] = hi[last] = -1
    gamma = v - lo
    a, b = xs[lo.astype(np.intp)], xs[hi.astype(np.intp)]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def hs_offsets(errors: ErrorSample) -> np.ndarray:
    """numpy's linear quantiles of the residuals on the grid, bit for bit."""
    return _quantiles(errors.residuals, QUANTILE_GRID)


def cp_offsets(errors: ErrorSample) -> np.ndarray:
    """Signed offsets: -gamma below the median, +gamma above, 0 at q=0.5;
    gamma is numpy's linear quantile of |residuals| at |1 - 2q|, bit for bit."""
    gam = _quantiles(np.abs(errors.residuals), np.abs(1.0 - 2.0 * QUANTILE_GRID))
    return np.where(QUANTILE_GRID < 0.5, -gam, np.where(QUANTILE_GRID > 0.5, gam, 0.0))


# ---------------------------------------------------------------------------
# Johnson SU maximum likelihood
# ---------------------------------------------------------------------------

def jsu_neg_loglik(theta: np.ndarray, x: np.ndarray):
    """Negative log-likelihood and its gradient in (gamma, log delta, xi, log lambda)."""
    gamma, log_delta, xi, log_lam = theta
    delta, lam = np.exp(log_delta), np.exp(log_lam)
    z = (x - xi) / lam
    s = np.sqrt(1.0 + z * z)
    t = gamma + delta * np.arcsinh(z)
    m = x.size
    nll = (
        -m * np.log(delta)
        + m * np.log(lam)
        + 0.5 * m * np.log(2.0 * np.pi)
        + 0.5 * np.sum(np.log1p(z * z))
        + 0.5 * np.sum(t * t)
    )
    a = z / (1.0 + z * z) + t * delta / s  # d(-logpdf)/dz
    g_gamma = np.sum(t)
    g_delta = -m / delta + np.sum(t * np.arcsinh(z))
    g_xi = -np.sum(a) / lam
    g_lam = (m - np.sum(a * z)) / lam
    grad = np.array([g_gamma, g_delta * delta, g_xi, g_lam * lam])
    return nll, grad


def _jsu_hessian(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hessian of `jsu_neg_loglik` in (gamma, log delta, xi, log lambda).

    With f(z) = log(1 + z^2) / 2 + t^2 / 2 per observation, t = gamma +
    delta asinh(z), z = (x - xi) / lambda: f' = z / s^2 + t delta / s and
    f'' = (1 - z^2) / s^4 + delta^2 / s^2 - t delta z / s^3, s = sqrt(1 + z^2).
    """
    gamma, log_delta, xi, log_lam = theta
    delta, lam = np.exp(log_delta), np.exp(log_lam)
    z = (x - xi) / lam
    s_sq = 1.0 + z * z
    s = np.sqrt(s_sq)
    w = np.arcsinh(z)
    t = gamma + delta * w
    a = z / s_sq + t * delta / s                                            # f'
    b = (1.0 - z * z) / (s_sq * s_sq) + (delta * delta - t * delta * z / s) / s_sq  # f''
    u = (delta * w + t) / s
    h = np.empty((4, 4))
    h[0] = [x.size, delta * np.sum(w), -delta * np.sum(1.0 / s) / lam, -delta * np.sum(z / s)]
    h[1, 1:] = [delta * np.sum(w * (delta * w + t)), -delta * np.sum(u) / lam,
                -delta * np.sum(z * u)]
    h[2, 2:] = [np.sum(b) / (lam * lam), (np.sum(a) + np.sum(b * z)) / lam]
    h[3, 3] = np.sum((b * z + a) * z)
    return np.triu(h) + np.triu(h, 1).T


# Box for the fit in (gamma, log delta, xi, log lambda).  The gamma and delta
# caps pin down the flat ridges where JSU degenerates into a (shifted)
# normal: for light- or thin-tailed samples the unconstrained MLE runs off to
# infinity while the density barely changes, so a boundary fit is the
# legitimate answer there.
_JSU_BOUNDS = ((-20.0, 20.0), (-4.0, 3.0), (None, None), (-20.0, 20.0))

#: The profile Newton stops at a projected gradient norm of this times
#: max(1, |nll|); a fit that only meets 1e-6 when its line search stalls is
#: still accepted, and one that does not raises FitError.
_JSU_GTOL = 1e-10

#: Newton iterations of one `_jsu_newton` call.
_JSU_MAX_ITER = 100


def _projected_gradient_norm(grad, theta) -> float:
    """Norm of the gradient with the components that push against an active
    bound of `_JSU_BOUNDS` zeroed."""
    pgrad = np.array(grad, dtype=float)
    for i, (lo, hi) in enumerate(_JSU_BOUNDS):
        if lo is not None and theta[i] <= lo + 1e-12 and pgrad[i] > 0:
            pgrad[i] = 0.0
        if hi is not None and theta[i] >= hi - 1e-12 and pgrad[i] < 0:
            pgrad[i] = 0.0
    return float(np.linalg.norm(pgrad))


def _jsu_shapes(w: np.ndarray) -> tuple:
    """(gamma, log delta) in their box minimizing the negative log-likelihood
    for fixed (xi, lambda), w = asinh((x - xi) / lambda).

    That objective, -m log delta + sum((gamma + delta w)^2) / 2, is convex in
    (gamma, delta), and its free minimizer is delta = 1 / sd(w), gamma =
    -delta mean(w).  Outside the box the minimizer lies on an edge: the best
    of the minimizers along the four edges, each in closed form.
    """
    (g_lo, g_hi), (ld_lo, ld_hi) = _JSU_BOUNDS[:2]
    m, mean = w.size, np.mean(w)
    log_delta = -np.log(np.std(w))
    gamma = -np.exp(log_delta) * mean
    if g_lo <= gamma <= g_hi and ld_lo <= log_delta <= ld_hi:
        return gamma, log_delta
    s1, s2 = m * mean, np.dot(w, w)
    candidates = [(np.clip(-np.exp(ld) * mean, g_lo, g_hi), ld) for ld in (ld_lo, ld_hi)]
    for g in (g_lo, g_hi):
        # the positive root of s2 delta^2 + g s1 delta - m = 0, without cancellation
        b = g * s1
        root = np.sqrt(b * b + 4.0 * s2 * m)
        delta = (root - b) / (2.0 * s2) if b <= 0 else 2.0 * m / (b + root)
        candidates.append((g, np.clip(np.log(delta), ld_lo, ld_hi)))

    def objective(c):
        g, d = c[0], np.exp(c[1])
        return -m * c[1] + 0.5 * (m * g * g + 2.0 * g * d * s1 + d * d * s2)

    return min(candidates, key=objective)


def _jsu_profile(x: np.ndarray, xi: float, log_lam: float):
    """(theta, nll, gradient) at (xi, log lambda) with the shapes profiled out."""
    gamma, log_delta = _jsu_shapes(np.arcsinh((x - xi) / np.exp(log_lam)))
    theta = np.array([gamma, log_delta, xi, log_lam])
    nll, grad = jsu_neg_loglik(theta, x)
    return theta, nll, grad


def _jsu_newton(x: np.ndarray, xi: float, log_lam: float):
    """Damped Newton on the profile likelihood in (xi, log lambda).

    The shapes are profiled out exactly (`_jsu_shapes`), so the gradient of
    the profile is the likelihood's gradient in (xi, log lambda), and its
    Hessian is the Schur complement of the 4x4 Hessian over the shapes
    inside their box.  A log lambda on its bound with the gradient pushing
    out stays there.  Eigenvalues of the Hessian in (xi / lambda, log lambda)
    are taken in absolute value (a descent direction where the profile is not
    convex).  A step passes Armijo's test or, where the predicted decrease is
    below the rounding of the nll, shrinks the projected gradient.  Stops at
    `_JSU_GTOL`, on a stalled line search or after `_JSU_MAX_ITER`
    iterations; returns (theta, nll, projected gradient norm) of the last
    iterate.
    """
    lo, hi = _JSU_BOUNDS[3]
    theta, nll, grad = _jsu_profile(x, xi, log_lam)
    pg = _projected_gradient_norm(grad, theta)
    for _ in range(_JSU_MAX_ITER):
        if pg <= _JSU_GTOL * max(1.0, abs(nll)):
            break
        h = _jsu_hessian(theta, x)
        free = [i for i in (0, 1) if _JSU_BOUNDS[i][0] < theta[i] < _JSU_BOUNDS[i][1]]
        hp = h[2:, 2:]
        if free:
            hp = hp - h[2:, free] @ np.linalg.solve(h[np.ix_(free, free)], h[free, 2:])
        pinned = (theta[3] <= lo and grad[3] > 0) or (theta[3] >= hi and grad[3] < 0)
        outer = [0] if pinned else [0, 1]
        # in (xi / lambda, log lambda), where both are of the sample's scale
        scale = np.array([np.exp(theta[3]), 1.0])[outer]
        vals, vecs = np.linalg.eigh(hp[np.ix_(outer, outer)] * np.outer(scale, scale))
        vals = np.maximum(np.abs(vals), 1e-12 * np.abs(vals).max())
        step = np.zeros(2)
        step[outer] = -scale * (vecs @ ((vecs.T @ (scale * grad[2:][outer])) / vals))
        slope = float(grad[2:] @ step)
        rounding = -slope < 1e-13 * abs(nll)
        t = 1.0
        while t > 1e-12:
            trial = _jsu_profile(x, theta[2] + t * step[0], np.clip(theta[3] + t * step[1], lo, hi))
            pg_new = _projected_gradient_norm(trial[2], trial[0])
            if trial[1] <= nll + 1e-4 * t * slope or (rounding and pg_new < pg):
                break
            t *= 0.5
        else:
            break  # the line search stalled
        (theta, nll, grad), pg = trial, pg_new
    return theta, nll, pg


def jsu_fit(errors: ErrorSample) -> JsuParams:
    """Maximum-likelihood Johnson SU fit by Newton on the profile likelihood.

    The shapes (gamma, delta) have a closed-form box-constrained optimum for
    each location and scale, so `_jsu_newton` runs on (xi, log lambda)
    alone, from a quantile start: the median, and the scale that matches
    the interquartile range.  A fit is accepted when its projected gradient
    norm is at most 1e-6 relative to the attained negative log-likelihood;
    it usually ends far below, at `_JSU_GTOL`.
    """
    x = errors.residuals
    if np.std(x) == 0.0:
        raise FitError("all residuals identical; JSU fit undefined")
    q25, q50, q75 = _quantiles(x, np.array([0.25, 0.5, 0.75]))
    lam0 = (q75 - q25) / (2.0 * np.sinh(_ndtri(0.75)))
    if lam0 <= 0:
        lam0 = float(np.std(x))
    theta, nll, pg = _jsu_newton(x, q50, np.log(lam0))
    if pg <= 1e-6 * max(1.0, abs(nll)):
        gamma, log_delta, xi, log_lam = theta
        return JsuParams(gamma, float(np.exp(log_delta)), xi, float(np.exp(log_lam)))
    raise FitError(
        f"JSU fit did not converge: projected gradient norm {pg:.3e} at nll {nll:.6g} "
        f"(theta={theta})"
    )


def jsu_quantile(params: JsuParams, q):
    """Quantile function: xi + lambda * sinh((z_q - gamma) / delta)."""
    z_q = _ndtri(q)
    return params.xi + params.lam * np.sinh((z_q - params.gamma) / params.delta)


# ---------------------------------------------------------------------------
# Quantile regression averaging (exact LP)
# ---------------------------------------------------------------------------

def _with_intercept(X: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(X.shape[0]), X])


def _design(pool, prices, qs, start=None):
    """Checked inputs of a quantile regression: (X, prices, qs, start), X
    holding an intercept column and then the pool, and start a copy of the
    given start, one row per quantile, or None."""
    pool = np.atleast_2d(np.asarray(pool, dtype=float))
    prices = np.asarray(prices, dtype=float)
    qs = np.asarray(qs, dtype=float)
    bad_q = qs[~((qs > 0.0) & (qs < 1.0))]
    if bad_q.size:
        raise ValueError(f"q must be in (0, 1), got {bad_q.flat[0]}")
    m, n = pool.shape
    if prices.shape != (m,):
        raise ValueError("prices length must match the pool history")
    if m < 10 * n:
        raise InsufficientDataError(f"{m} observations for {n} regressors; need >= {10 * n}")
    X = _with_intercept(pool)
    if start is not None:
        start = np.array(start, dtype=float)
        if start.shape != (qs.size, X.shape[1]):
            raise ValueError(f"start must have shape {(qs.size, X.shape[1])}, got {start.shape}")
    return X, prices, qs, start


def qra_fit(pool: np.ndarray, prices: np.ndarray, q: float) -> np.ndarray:
    """Exact pinball-loss minimizer via the dual LP of quantile regression.

    `pool` is (m, n_variants), (m, 0) for the intercept alone; the returned
    coefficient vector has the intercept first.  Degenerate (e.g.
    duplicated) columns are resolved by the solver's deterministic pivoting.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    X, prices, _, _ = _design(pool, prices, q)
    m, p = X.shape
    # Dual: max prices'a  s.t.  X'a = 0,  q-1 <= a <= q.
    # The equality multipliers recover the primal coefficients.
    res = linprog(
        -prices,
        A_eq=sparse.csc_matrix(X.T),
        b_eq=np.zeros(p),
        bounds=np.column_stack([np.full(m, q - 1.0), np.full(m, q)]),
        method="highs-ds",
        options={"presolve": False},
    )
    if res.status != 0:
        raise SolverError(f"quantile regression LP failed (q={q}): {res.message}")
    beta = -np.asarray(res.eqlin.marginals)
    if not np.isfinite(beta).all():
        raise SolverError(f"quantile regression LP returned non-finite coefficients (q={q})")
    return beta


#: Rows of each quantile's band LP: those nearest its preliminary hyperplane.
_BAND_ROWS = 150

#: How far inside (q - 1, q) every basis dual must lie to certify a vertex.
_DUAL_MARGIN = 1e-9

#: Basis matrices with a smaller ratio of extreme singular values are refused.
_MIN_RCOND = 1e-10

#: Interior-point iteration from which each active quantile's vertex is
#: tested on every iteration, and the quantile retired once it passes.
_RETIRE_FROM = 5

#: Quantile x row cells per block of qra's (quantiles, rows) arrays: a block
#: of an m-row design holds max(1, _QRA_BLOCK_CELLS // m) quantiles.
_QRA_BLOCK_CELLS = 1 << 15

#: Interior-point iterations after which a quantile leaves with its iterate,
#: and its duality-gap tolerance, relative to m * (1 + mean|y|).
_IPM_MAX_ITER = 100
_IPM_GAP_TOL = 1e-12


def _blocks(count, rows):
    """Slices of range(count) with at most max(1, _QRA_BLOCK_CELLS // rows) each."""
    size = max(1, _QRA_BLOCK_CELLS // rows)
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def _fitted(X, beta):
    """X @ beta per quantile: X shared (m, n) or one per quantile (Q, m, n)."""
    return beta @ X.T if X.ndim == 2 else np.matmul(X, beta[:, :, None])[:, :, 0]


def _weighted_sum(w, A):
    """sum_i w[k, i] * A[.., i, :] per quantile k: (Q, m) with (m, p) or (Q, m, p)."""
    return w @ A if A.ndim == 2 else np.matmul(w[:, None, :], A)[:, 0]


def _gram(w, X):
    """X' diag(w[k]) X per quantile k: (Q, n, n) from a shared or per-quantile X."""
    return np.matmul(np.swapaxes(X, -1, -2) * w[:, None, :], X)


def _rows(X, y, rows):
    """X[rows[k]] and y[rows[k]] per quantile k, from a shared or per-quantile X."""
    if X.ndim == 2:
        return X[rows], y[rows]
    return np.take_along_axis(X, rows[:, :, None], axis=1), np.take_along_axis(y, rows, axis=1)


def _nearest_rows(X, y, beta, n):
    """Per quantile, the n rows that the iterate beta fits most closely."""
    r = np.abs(y - _fitted(X, beta))
    return np.argpartition(r, n - 1, axis=1)[:, :n]


# An infeasible band LP (b out of reach) makes its iterates diverge until they
# overflow; `finite` then retires that quantile.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _qr_ipm(X, y, qs, b=None, beta0=None):
    """Primal-dual interior-point solve of quantile-regression dual LPs,

        max y'a   s.t.   X'a = b,   q - 1 <= a <= q,

    one per quantile, with the Newton systems batched over quantiles.  X is
    one shared design (m, n) with y (m,), or one design per quantile
    (Q, m, n) with y (Q, m).  b (Q, n) defaults to 0, where the start a = 0
    is feasible; otherwise each step shrinks the residual b - X'a.  The
    equality multipliers are the coefficients; iterates start from beta0
    (least squares by default).

    The quantiles run in blocks of `_blocks(Q, m)`, each one compacted batch
    that shrinks only when quantiles leave it.  From iteration
    `_RETIRE_FROM` on, every iteration tests the vertex through each active
    quantile's n nearest rows against this LP's own KKT conditions
    (`_certify` with this b over these m rows); a quantile that passes
    leaves with that vertex.  The others leave when they converge, when
    their iterates diverge (NaN betas) or after `_IPM_MAX_ITER` iterations,
    with their last iterate.  Returns (betas, basis), basis holding each
    quantile's n rows: the certified vertex's, else those nearest its betas.
    """
    Q = qs.size
    m, n = X.shape[-2:]
    b = np.zeros((Q, n)) if b is None else b
    if beta0 is None:
        beta0 = np.tile(np.linalg.lstsq(X, y, rcond=None)[0], (Q, 1))
    betas = np.empty((Q, n))
    basis = np.empty((Q, n), dtype=np.intp)
    for sl in _blocks(Q, m):
        Xs, ys = (X, y) if X.ndim == 2 else (X[sl], y[sl])
        betas[sl], basis[sl] = _ipm_batch(Xs, ys, qs[sl], b[sl], beta0[sl])
    return betas, basis


def _ipm_batch(X, y, qs, b, beta):
    """One block of `_qr_ipm`, with its arguments sliced to the block."""
    K = qs.size
    m, n = X.shape[-2:]
    per_quantile = X.ndim == 3
    out_betas = np.empty((K, n))
    out_basis = np.empty((K, n), dtype=np.intp)
    live = np.arange(K)
    y_scale = 1.0 + np.abs(y).mean(axis=-1)
    x_scale = 1.0 + np.abs(X).mean(axis=(-2, -1))
    gap_lim = np.broadcast_to(_IPM_GAP_TOL * m * y_scale, (K,))
    dual_lim = np.broadcast_to(1e-9 * y_scale, (K,))
    primal_lim = np.broadcast_to(1e-9 * m * x_scale, (K,))

    a = np.zeros((K, m))
    beta = np.array(beta, dtype=float)
    r = y - _fitted(X, beta)
    z1 = np.maximum(-r, 0.0) + 1.0
    z2 = np.maximum(r, 0.0) + 1.0
    finite = np.ones(K, dtype=bool)

    for it in range(_IPM_MAX_ITER + 1):
        lo = (qs - 1.0)[:, None]
        hi = qs[:, None]
        s1 = np.maximum(a - lo, 1e-14)
        s2 = np.maximum(hi - a, 1e-14)
        gap = np.einsum("qm,qm->q", s1, z1) + np.einsum("qm,qm->q", s2, z2)
        dual_res = np.abs(z1 - z2 + r).max(axis=1)
        primal_res = b - _weighted_sum(a, X)
        leave = ~finite | (it == _IPM_MAX_ITER) | (
            (gap <= gap_lim) & (dual_res <= dual_lim)
            & (np.abs(primal_res).max(axis=1) <= primal_lim)
        )
        rows = None
        if it >= _RETIRE_FROM:
            rows = _nearest_rows(X, y, beta, n)
            vertex, certified = _certify(X, y, qs, rows, b)
            certified &= finite
            beta[certified] = vertex[certified]
            leave |= certified
        if leave.any():
            if rows is None:
                rows = _nearest_rows(X, y, beta, n)
            beta[~finite] = np.nan
            out_betas[live[leave]] = beta[leave]
            out_basis[live[leave]] = rows[leave]
            keep = ~leave
            if not keep.any():
                break
            live, qs, b, beta, a, z1, z2, r, s1, s2, gap, primal_res = (
                v[keep] for v in (live, qs, b, beta, a, z1, z2, r, s1, s2, gap, primal_res)
            )
            gap_lim, dual_lim, primal_lim = gap_lim[keep], dual_lim[keep], primal_lim[keep]
            if per_quantile:
                X, y = X[keep], y[keep]

        w_inv = 1.0 / (z1 / s1 + z2 / s2)
        M = _gram(w_inv, X)
        try:
            M_chol = np.linalg.cholesky(M)
            M_pinv = None
        except np.linalg.LinAlgError:     # rank-deficient design
            M_chol, M_pinv = None, np.linalg.pinv(M)

        def newton(g):
            rhs = _weighted_sum(w_inv * g, X) - primal_res
            if M_chol is None:
                dbeta = np.matmul(M_pinv, rhs[:, :, None])[:, :, 0]
            else:
                half = np.linalg.solve(M_chol, rhs[:, :, None])
                dbeta = np.linalg.solve(np.transpose(M_chol, (0, 2, 1)), half)[:, :, 0]
            da = w_inv * (g - _fitted(X, dbeta))
            return dbeta, da

        def steps(da, dz1, dz2):
            # the longest steps inside the bounds are 1 / max(0, max_i(-da/s1,
            # da/s2)) for a and 1 / max(0, max_i(-dz1/z1, -dz2/z2)) for z
            ap = np.maximum(-da / s1, da / s2).max(axis=1)
            ad = np.maximum(-dz1 / z1, -dz2 / z2).max(axis=1)
            return (np.minimum(1.0, 0.9995 / np.maximum(ap, 0.0)),
                    np.minimum(1.0, 0.9995 / np.maximum(ad, 0.0)))

        # predictor (affine scaling: mu = 0, no corrector terms)
        _, da = newton(r)
        dz1 = -z1 - (z1 / s1) * da
        dz2 = -z2 + (z2 / s2) * da
        ap, ad = steps(da, dz1, dz2)
        gap_aff = (
            np.einsum("qm,qm->q", s1 + ap[:, None] * da, z1 + ad[:, None] * dz1)
            + np.einsum("qm,qm->q", s2 - ap[:, None] * da, z2 + ad[:, None] * dz2)
        )
        sigma = np.clip((gap_aff / gap) ** 3, 0.0, 1.0)
        mu = (sigma * gap / (2 * m))[:, None]

        # corrector
        c1 = (mu - da * dz1) / s1
        c2 = (mu + da * dz2) / s2
        del da, dz1, dz2
        dbeta, da = newton(r + c1 - c2)
        dz1 = c1 - z1 - (z1 / s1) * da
        dz2 = c2 - z2 + (z2 / s2) * da
        del c1, c2
        ap, ad = steps(da, dz1, dz2)

        a += ap[:, None] * da
        beta += ad[:, None] * dbeta
        z1 += ad[:, None] * dz1
        z2 += ad[:, None] * dz2
        r = y - _fitted(X, beta)
        finite = np.isfinite(beta.sum(axis=1) + z1.sum(axis=1) + z2.sum(axis=1))
    return out_betas, out_basis


def _certify(X, y, qs, basis, b=None):
    """Exact KKT check of the vertices through the given basis rows.

    The LPs are `_qr_ipm`'s: max y'a s.t. X'a = b (0 by default),
    q - 1 <= a <= q, with X shared (m, n) or one per quantile (Q, m, n).
    For each quantile, h = sorted(basis[k]) and beta = solve(X[h], y[h]).
    With every other row's dual at its bound (q above the fit, q - 1 below),
    X_h'a_h = b - sum_{i not in h} a_i x_i gives the basis duals.  beta is
    accepted when X_h is well conditioned, no other row has residual exactly
    0 and every a_h lies inside (q - 1, q) by `_DUAL_MARGIN`; beta is then
    the LP's unique optimum.  Runs in blocks of `_blocks(Q, m)`.  Returns
    (betas, certified).
    """
    Q, n = basis.shape
    betas = np.full((Q, n), np.nan)
    certified = np.zeros(Q, dtype=bool)
    for sl in _blocks(Q, X.shape[-2]):
        Xs, ys = (X, y) if X.ndim == 2 else (X[sl], y[sl])
        q = qs[sl, None]
        h = np.sort(basis[sl], axis=1)
        Xh, yh = _rows(Xs, ys, h)
        sv = np.linalg.svd(Xh, compute_uv=False)
        ok = sv[:, -1] > _MIN_RCOND * sv[:, 0]
        beta = betas[sl]
        beta[ok] = np.linalg.solve(Xh[ok], yh[ok][:, :, None])[:, :, 0]
        r = ys - _fitted(Xs, beta)
        a = np.where(r > 0, q, q - 1.0)
        zero = r == 0
        del r
        np.put_along_axis(a, h, 0.0, axis=1)
        np.put_along_axis(zero, h, False, axis=1)
        rhs = -_weighted_sum(a, Xs) if b is None else b[sl] - _weighted_sum(a, Xs)
        a_h = np.full(h.shape, np.nan)
        a_h[ok] = np.linalg.solve(np.transpose(Xh[ok], (0, 2, 1)), rhs[ok][:, :, None])[:, :, 0]
        with np.errstate(invalid="ignore"):
            inside = (a_h > q - 1.0 + _DUAL_MARGIN) & (a_h < q - _DUAL_MARGIN)
        certified[sl] = ok & ~zero.any(axis=1) & inside.all(axis=1)
    return betas, certified


def _band_basis(X, y, qs, prelim):
    """Basis rows from one batched solve of each quantile's band LP.

    The band holds the `_BAND_ROWS` rows with the smallest leverage-scaled
    residual |r_i| / sqrt(h_i) under the preliminary betas, where h_i is
    x_i'(X'X)^-1 x_i.  Every other row is taken to stay on its side, so its
    dual is fixed at q (above) or q - 1 (below) and moves to the right-hand
    side: the band LP is  max y_B'a  s.t.  X_B'a = -sum_{i not in B} a_i x_i.
    Bands and globs are built in blocks of `_blocks(Q, m)`.
    """
    m, n = X.shape
    k = min(_BAND_ROWS, m)
    leverage = np.maximum(np.sum(np.linalg.qr(X)[0] ** 2, axis=1), np.finfo(float).tiny)
    band = np.empty((qs.size, k), dtype=np.intp)
    b = np.empty((qs.size, n))
    for sl in _blocks(qs.size, m):
        r = y - _fitted(X, prelim[sl])
        band[sl] = np.argpartition(r * r / leverage, k - 1, axis=1)[:, :k]
        a_out = np.where(r > 0, qs[sl, None], qs[sl, None] - 1.0)
        np.put_along_axis(a_out, band[sl], 0.0, axis=1)
        b[sl] = -(a_out @ X)
    _, rows = _qr_ipm(X[band], y[band], qs, b=b, beta0=prelim)
    return np.take_along_axis(band, rows, axis=1)


def qra_fit_grid(
    pool: np.ndarray,
    prices: np.ndarray,
    qs=QUANTILE_GRID,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """All per-quantile exact fits, batched; rows follow `qs`.

    1. Preliminary betas: `start` (for instance the previous window's fit),
       or else the batched interior-point solve of every 5th quantile and
       the last one, interpolated linearly in q.
    2. Band and globs: per quantile, the rows nearest the preliminary
       hyperplane by leverage-scaled residual; all other rows are lumped
       into an "above" and a "below" glob whose duals are fixed.
    3. Band solve: one batched interior-point solve of all band LPs.  From
       its 5th iteration on, a quantile whose vertex through its n nearest
       band rows passes the band-local certificate leaves the batch with
       that basis; the others leave when they converge.
    4. Exact certificate (`_certify`) of each quantile's basis, checked over
       all rows.

    A certified vertex is the LP's unique optimum, computed from its sorted
    basis rows alone, so the result depends only on (pool, prices, q) and
    not on `start`, on the solve path or on when a quantile was retired.
    Quantiles that fail go to the interior-point solve on the full design
    with the same certificate, and then to the simplex LP `qra_fit`.  Every
    (quantiles, rows) array over the full window (the coarse solve, the
    bands and globs, the certificate, the full-design solve) is built for
    `_QRA_BLOCK_CELLS` // m quantiles at a time, so the memory peak does
    not grow with the number of quantiles.
    """
    X, prices, qs, prelim = _design(pool, prices, qs, start)
    if prelim is None:
        coarse = np.r_[0 : qs.size - 1 : 5, qs.size - 1]  # every 5th and the last
        coarse = coarse[np.argsort(qs[coarse])]
        betas, _ = _qr_ipm(X, prices, qs[coarse])
        prelim = np.column_stack([np.interp(qs, qs[coarse], b) for b in betas.T])

    out, done = _certify(X, prices, qs, _band_basis(X, prices, qs, prelim))
    rest = np.flatnonzero(~done)
    if rest.size:
        _, basis = _qr_ipm(X, prices, qs[rest])
        fits, certified = _certify(X, prices, qs[rest], basis)
        out[rest[certified]] = fits[certified]
        done[rest[certified]] = True
    for i in np.flatnonzero(~done):
        out[i] = qra_fit(pool, prices, qs[i])
    return out


# ---------------------------------------------------------------------------
# Smoothed quantile regression averaging
# ---------------------------------------------------------------------------

def default_bandwidth(sample: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 1.06 * sigma * m^(-1/5)."""
    sample = np.asarray(sample, dtype=float)
    sigma = float(np.std(sample))
    if sigma == 0.0:
        sigma = 1.0
    return 1.06 * sigma * sample.size ** (-0.2)


def sqra_objective(beta: np.ndarray, X: np.ndarray, y: np.ndarray, q: float, bandwidth: float) -> float:
    """Kernel-smoothed check loss; converges to the pinball sum as H -> 0."""
    r = y - X @ beta
    z = r / bandwidth
    return float(np.sum(bandwidth * _phi(z) + r * (q - _ndtr(-z))))


#: Quantiles per block of `sqra_fit_grid`'s batched Newton solve; bounds its
#: (block, rows) temporaries.
_SQRA_BLOCK = 25

#: Relative rounding of the smoothed objective.  A Newton step whose
#: predicted decrease is smaller cannot be judged by Armijo's test.
_SQRA_ROUNDING = 1e-13

#: A smoothed fit stops when ||gradient||_inf <= this * m * max(1, std(y)).
_SQRA_GTOL_SCALE = 1e-9

#: Newton iterations of one `_sqra_newton` call.
_SQRA_MAX_ITER = 200


def _sqra_accepts(f, f_new, t, slope, g_inf, g_inf_new):
    """Line-search test of a damped Newton step of length t.

    Armijo's sufficient decrease, f_new <= f + 1e-4 t slope, where slope is
    the gradient times the full step.  Where the predicted decrease -slope
    is below the rounding of f, differences of f are noise, so a step is
    also taken when it shrinks the gradient's infinity norm.
    """
    rounding = -slope < _SQRA_ROUNDING * np.abs(f)
    return (f_new <= f + 1e-4 * t * slope) | (rounding & (g_inf_new < g_inf))


def _sqra_pass(beta, X, y, qs, bandwidth):
    """Objective, gradient and Hessian weights phi(z)/H of the smoothed loss
    at beta (K, p), one row per quantile, from one residual, normal-CDF and
    exp pass over the (K, m) residuals.  The pass runs over blocks of rows
    of about `_CHUNK` cells, so only the weights it returns are (K, m); the
    operations are those of the formulas, in their order."""
    K, m = beta.shape[0], X.shape[0]
    f = np.empty(K)
    g = np.empty(beta.shape)
    w = np.empty((K, m))
    rows = max(1, _CHUNK // m)
    for lo in range(0, K, rows):
        block = slice(lo, lo + rows)
        r = beta[block] @ X.T
        np.subtract(y, r, out=r)                    # r = y - X beta
        z = np.divide(r, bandwidth)
        u = np.negative(z)
        _ndtr(u, out=u)
        np.subtract(qs[block, None], u, out=u)      # u = q - Phi(-z)
        dens = w[block]
        np.multiply(-0.5, z, out=dens)
        np.multiply(dens, z, out=dens)
        np.exp(dens, out=dens)
        np.divide(dens, _SQRT_2PI, out=dens)        # dens = phi(z)
        np.multiply(bandwidth, dens, out=z)
        np.multiply(r, u, out=r)
        np.add(z, r, out=z)                         # H phi(z) + r u
        f[block] = np.sum(z, axis=1)
        np.negative(u @ X, out=g[block])
        np.divide(dens, bandwidth, out=dens)
    return f, g, w


def _sqra_newton(X, XX, y, qs, bandwidth, beta, gtol):
    """Damped Newton on a block of quantiles, batched over the block.

    Each iteration builds the Hessians X' diag(w) X of the unfinished
    quantiles as w @ XX, plus a small ridge (tiny bandwidths flatten them
    far from the solution).  A quantile whose gradient meets `gtol` takes
    one more Newton step from the gradient and Hessian already evaluated,
    and is done; the others search along their Newton steps together, one
    pass per trial point.  Returns (betas, done); a quantile is not done
    when its line search stalls or `_SQRA_MAX_ITER` iterations run out.
    """
    K, p = beta.shape
    beta = beta.copy()
    f, g, w = _sqra_pass(beta, X, y, qs, bandwidth)
    done = np.zeros(K, dtype=bool)
    active = np.arange(K)
    for _ in range(_SQRA_MAX_ITER):
        if not active.size:
            break
        g_inf = np.abs(g[active]).max(axis=1)
        hess = (w[active] @ XX).reshape(-1, p, p)
        ridge = 1e-12 * np.maximum(1.0, np.trace(hess, axis1=1, axis2=2) / p)
        try:
            step = np.linalg.solve(hess + ridge[:, None, None] * np.eye(p),
                                   -g[active][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = -g[active]
        met = g_inf <= gtol
        beta[active[met]] += step[met]
        done[active[met]] = True

        idx, step, g_inf = active[~met], step[~met], g_inf[~met]
        slope = np.einsum("kp,kp->k", g[idx], step)
        t = np.ones(idx.size)
        moved = np.zeros(idx.size, dtype=bool)
        trying = np.arange(idx.size)
        while trying.size:
            k = idx[trying]
            trial = beta[k] + t[trying, None] * step[trying]
            f_new, g_new, w_new = _sqra_pass(trial, X, y, qs[k], bandwidth)
            ok = _sqra_accepts(f[k], f_new, t[trying], slope[trying],
                               g_inf[trying], np.abs(g_new).max(axis=1))
            beta[k[ok]], f[k[ok]], g[k[ok]], w[k[ok]] = trial[ok], f_new[ok], g_new[ok], w_new[ok]
            moved[trying[ok]] = True
            trying = trying[~ok]
            t[trying] *= 0.5
            trying = trying[t[trying] > 1e-12]
        active = idx[moved]
    return beta, done


def _sqra_blocks(X, XX, y, qs, bandwidth, betas, gtol):
    """`_sqra_newton` on `qs` in blocks of `_SQRA_BLOCK` quantiles, from
    `betas`, which it overwrites; returns (betas, done)."""
    done = np.zeros(qs.size, dtype=bool)
    for lo in range(0, qs.size, _SQRA_BLOCK):
        block = slice(lo, lo + _SQRA_BLOCK)
        betas[block], done[block] = _sqra_newton(
            X, XX, y, qs[block], bandwidth, betas[block], gtol
        )
    return betas, done


def sqra_fit_grid(pool, prices, bandwidth, qs=QUANTILE_GRID, starts=None):
    """All per-quantile smoothed fits, by one damped Newton solve batched
    over the quantile axis; rows follow `qs`.

    The quantiles are solved in blocks of `_SQRA_BLOCK` by `_sqra_newton`,
    from `starts` (one row per quantile; least squares by default).  Each
    trial point of a block costs one residual, `_ndtr` and `exp` pass, which
    gives the objective, the gradient and the Hessian weights together.
    Steps are accepted by `_sqra_accepts`, and a quantile stops at
    ||g||_inf <= 1e-9 * m * max(1, std(prices)), plus one Newton step from
    there.  That step is free, and it leaves the result at the optimum to
    rounding, so it does not depend on the start.  A quantile whose line
    search stalls, or that runs out of iterations, is solved again by the
    same Newton from least squares with its intercept moved to the
    q-quantile of its residuals; one still unfinished raises SolverError.
    """
    if not 0 < bandwidth < np.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    X, prices, qs, betas = _design(pool, prices, qs, starts)
    m, p = X.shape
    if betas is None:
        betas = np.tile(np.linalg.lstsq(X, prices, rcond=None)[0], (qs.size, 1))
    gtol = _SQRA_GTOL_SCALE * m * max(1.0, float(np.std(prices)))
    XX = (X[:, :, None] * X[:, None, :]).reshape(m, p * p)
    betas, done = _sqra_blocks(X, XX, prices, qs, bandwidth, betas, gtol)
    redo = np.flatnonzero(~done)
    if redo.size:
        # A start that leaves every row on one side of its hyperplane (as a
        # warm start can after a price jump) has Hessian weights phi(z)/H of
        # about 0, and Newton's ridge-sized steps stall; the centred start
        # has a share q of the rows below it.
        ls = np.linalg.lstsq(X, prices, rcond=None)[0]
        centred = np.tile(ls, (redo.size, 1))
        centred[:, 0] += _quantiles(prices - X @ ls, qs[redo])
        betas[redo], done[redo] = _sqra_blocks(X, XX, prices, qs[redo], bandwidth, centred, gtol)
    if not done.all():
        i = np.flatnonzero(~done)[0]
        f, g, _ = _sqra_pass(betas[i:i + 1], X, prices, qs[i:i + 1], bandwidth)
        raise SolverError(
            f"smoothed quantile regression did not converge (q={qs[i]}, H={bandwidth}): "
            f"gradient norm {np.abs(g).max():.3e} at objective {f[0]:.6g}, beta={betas[i]}"
        )
    return betas


def sqra_fit(pool, prices, q, bandwidth, start=None):
    """The smoothed fit of one quantile q: `sqra_fit_grid` on qs = [q], from
    `start` (a coefficient vector; least squares by default)."""
    starts = None if start is None else np.asarray(start, dtype=float)[None, :]
    return sqra_fit_grid(pool, prices, bandwidth, qs=[q], starts=starts)[0]


# ---------------------------------------------------------------------------
# Per-method calibration contexts and the day's quantile matrix
# ---------------------------------------------------------------------------

@dataclass
class CalibrationInputs:
    """Everything a method may need from the probabilistic window."""

    errors: ErrorSample | None = None
    pool: np.ndarray | None = None          # (m, n_variants) history; None when
                                            # every method is in OFFSET_METHODS
    prices: np.ndarray | None = None        # (m,) realized prices
    contexts: dict = field(default_factory=dict)  # tags calibrated earlier today
    # tag -> context of the previous calibration, a warm start for the same
    # method on the shifted window (qra starts its band LPs from its betas,
    # sqra its Newton solve)
    previous: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MethodContext:
    """Calibrated artifacts, ready to turn a point/pool input into quantiles."""

    method: str
    offsets: np.ndarray | None = None   # (99,) for error-offset methods
    betas: np.ndarray | None = None     # (99, n_variants + 1) for regressions
    jsu: JsuParams | None = None
    bandwidth: float | None = None


def _calibrate_hs(inputs: CalibrationInputs) -> MethodContext:
    return MethodContext("hs", offsets=hs_offsets(inputs.errors))


def _calibrate_cp(inputs: CalibrationInputs) -> MethodContext:
    return MethodContext("cp", offsets=cp_offsets(inputs.errors))


def _calibrate_jsu(inputs: CalibrationInputs) -> MethodContext:
    params = jsu_fit(inputs.errors)
    return MethodContext("jsu", offsets=jsu_quantile(params, QUANTILE_GRID), jsu=params)


def _calibrate_qra(inputs: CalibrationInputs) -> MethodContext:
    previous = inputs.previous.get("qra")
    start = previous.betas if previous is not None else None
    return MethodContext("qra", betas=qra_fit_grid(inputs.pool, inputs.prices, start=start))


def _calibrate_sqra(inputs: CalibrationInputs) -> MethodContext:
    start = inputs.previous.get("sqra") or inputs.contexts.get("qra")
    bandwidth = default_bandwidth(inputs.prices - inputs.pool.mean(axis=1))
    betas = sqra_fit_grid(inputs.pool, inputs.prices, bandwidth,
                          starts=None if start is None else start.betas)
    return MethodContext("sqra", betas=betas, bandwidth=bandwidth)


_CALIBRATORS = {
    "hs": _calibrate_hs,
    "cp": _calibrate_cp,
    "jsu": _calibrate_jsu,
    "qra": _calibrate_qra,
    "sqra": _calibrate_sqra,
}


def register_method(tag: str, calibrator) -> None:
    """Add a custom probabilistic method usable in a backtest registry.

    A tag in OFFSET_METHODS stays there: a run whose registry holds only
    such tags passes their calibrators no pool.
    """
    _CALIBRATORS[tag] = calibrator


def get_calibrator(tag: str):
    try:
        return _CALIBRATORS[tag]
    except KeyError:
        raise KeyError(f"unknown probabilistic method {tag!r}") from None


def quantile_matrix(ctx: MethodContext, point=None, pool_day=None) -> np.ndarray:
    """(24, 99) monotone quantile matrix for one method and one day.

    Error-offset methods need `point`, the day's 24 point forecasts;
    regression methods need `pool_day`, the (n_variants, 24) pool forecasts.
    A method whose offsets or betas make a matrix of another shape raises
    QuantbessError.
    """
    if not isinstance(ctx, MethodContext):
        raise TypeError("expected a calibrated MethodContext")
    if ctx.betas is not None:
        if pool_day is None:
            raise ValueError(f"method {ctx.method!r} requires the day's pool forecasts")
        design = np.vstack([np.ones(24), pool_day])        # (n_var + 1, 24)
        values = (ctx.betas @ design).T                    # (24, 99)
    else:
        if point is None:
            raise ValueError(f"method {ctx.method!r} requires a point forecast")
        values = np.asarray(point, dtype=float)[:, None] + ctx.offsets[None, :]
    if values.shape != (24, QUANTILE_GRID.size):
        raise QuantbessError(
            f"model {ctx.method!r} produced quantiles of shape {values.shape}; "
            f"expected (24, {QUANTILE_GRID.size})"
        )
    values = np.sort(values, axis=1)
    if not np.isfinite(values).all():
        raise QuantbessError(f"model {ctx.method!r} produced non-finite quantiles")
    return values
