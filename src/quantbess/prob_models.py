"""Probabilistic forecasting methods: 99-quantile forecasts from point forecasts.

Five methods are provided:

* ``hs``   -- empirical quantiles of past point-forecast errors added to the
  point forecast.
* ``cp``   -- symmetric intervals from quantiles of absolute errors.
* ``jsu``  -- Johnson SU distribution fitted to the errors by maximum
  likelihood; its quantiles are added to the point forecast.
* ``qra``  -- quantile regression on a pool of point forecasts, solved exactly
  as a linear program per quantile.  ``qra_fit_grid`` fits all 99 at once in
  four steps (Portnoy & Koenker 1997): preliminary betas (the previous
  calibration's, or a coarse interior-point grid), a band of rows near each
  preliminary hyperplane with the rest lumped into two globs, one batched
  interior-point solve of the band LPs, and an exact KKT certificate over
  all rows.  A certified fit is the LP's unique optimum, computed from its
  sorted basis rows, so it does not depend on the start or the solve path.
* ``sqra`` -- the same regression with the check function smoothed by a
  Gaussian kernel of bandwidth H, solved by damped Newton iterations.

Empirical quantiles use linear interpolation of order statistics (numpy's
default, the "type 7" rule).  Quantile crossing is resolved by sorting the 99
values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, sparse
from scipy.optimize import linprog
from scipy.special import ndtr, ndtri

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


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


# ---------------------------------------------------------------------------
# Core data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantileForecast:
    """99 monotone quantile prices for one (day, hour)."""

    day: int
    hour: int
    q_values: np.ndarray

    def __post_init__(self):
        q_values = np.asarray(self.q_values, dtype=float)
        if q_values.shape != (99,):
            raise ValueError("q_values must have 99 entries")
        if not np.isfinite(q_values).all():
            raise ValueError("q_values must be finite")
        if np.any(np.diff(q_values) < 0):
            raise ValueError("q_values must be non-decreasing")
        object.__setattr__(self, "q_values", q_values)

    def value(self, q: float) -> float:
        return self.q_values[quantile_index(q)]

    @property
    def median(self) -> float:
        return self.q_values[MEDIAN_INDEX]


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


def _wrap(values: np.ndarray, day: int, hour: int) -> QuantileForecast:
    """Rearrange (sort) to restore monotonicity and wrap."""
    return QuantileForecast(day=day, hour=hour, q_values=np.sort(values))


# ---------------------------------------------------------------------------
# Historical simulation and conformal prediction
# ---------------------------------------------------------------------------

def hs_offsets(errors: ErrorSample) -> np.ndarray:
    return np.quantile(errors.residuals, QUANTILE_GRID)


def cp_offsets(errors: ErrorSample) -> np.ndarray:
    """Signed offsets: -gamma below the median, +gamma above, 0 at q=0.5."""
    gam = np.quantile(np.abs(errors.residuals), np.abs(1.0 - 2.0 * QUANTILE_GRID))
    return np.where(QUANTILE_GRID < 0.5, -gam, np.where(QUANTILE_GRID > 0.5, gam, 0.0))


def hs_quantiles(point: float, errors: ErrorSample, day: int = 0, hour: int = 1) -> QuantileForecast:
    return _wrap(point + hs_offsets(errors), day, hour)


def cp_quantiles(point: float, errors: ErrorSample, day: int = 0, hour: int = 1) -> QuantileForecast:
    return _wrap(point + cp_offsets(errors), day, hour)


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


# Box for the optimizer in (gamma, log delta, xi, log lambda).  The gamma and
# delta caps pin down the flat ridges where JSU degenerates into a (shifted)
# normal: for light- or thin-tailed samples the unconstrained MLE runs off to
# infinity while the density barely changes, so a boundary fit is the
# legitimate answer there.
_JSU_BOUNDS = ((-20.0, 20.0), (-4.0, 3.0), (None, None), (-20.0, 20.0))


def jsu_fit(errors: ErrorSample) -> JsuParams:
    """Maximum-likelihood Johnson SU fit, quasi-Newton from a quantile start.

    Converged when the projected gradient norm falls below 1e-6 relative to
    the attained negative log-likelihood.
    """
    x = errors.residuals
    if np.std(x) == 0.0:
        raise FitError("all residuals identical; JSU fit undefined")
    q25, q50, q75 = np.quantile(x, [0.25, 0.5, 0.75])
    lam0 = (q75 - q25) / (2.0 * np.sinh(ndtri(0.75)))
    if lam0 <= 0:
        lam0 = float(np.std(x))
    starts = [
        np.array([0.0, 0.0, q50, np.log(lam0)]),
        np.array([0.0, np.log(2.0), float(np.mean(x)), np.log(np.std(x))]),
    ]
    best = None
    for theta0 in starts:
        res = optimize.minimize(
            jsu_neg_loglik, theta0, args=(x,), jac=True, method="L-BFGS-B",
            bounds=_JSU_BOUNDS,
            options={"maxiter": 2000, "maxfun": 100000, "ftol": 1e-15, "gtol": 1e-12},
        )
        for _ in range(3):  # restarts help L-BFGS-B escape ftol stalls
            nll, grad = jsu_neg_loglik(res.x, x)
            pgrad = _project_gradient(grad, res.x, _JSU_BOUNDS)
            if np.linalg.norm(pgrad) <= 1e-6 * max(1.0, abs(nll)):
                gamma, log_delta, xi, log_lam = res.x
                return JsuParams(gamma, float(np.exp(log_delta)), xi, float(np.exp(log_lam)))
            res = optimize.minimize(
                jsu_neg_loglik, res.x, args=(x,), jac=True, method="L-BFGS-B",
                bounds=_JSU_BOUNDS,
                options={"maxiter": 2000, "maxfun": 100000, "ftol": 1e-18, "gtol": 1e-14},
            )
        if best is None or res.fun < best.fun:
            best = res
    nll, grad = jsu_neg_loglik(best.x, x)
    raise FitError(
        "JSU fit did not converge: "
        f"gradient norm {np.linalg.norm(grad):.3e} at nll {nll:.6g} "
        f"(theta={best.x})"
    )


def _project_gradient(grad, theta, bounds):
    """Zero gradient components that push against an active box bound."""
    pgrad = np.array(grad, dtype=float)
    for i, (lo, hi) in enumerate(bounds):
        if lo is not None and theta[i] <= lo + 1e-12 and pgrad[i] > 0:
            pgrad[i] = 0.0
        if hi is not None and theta[i] >= hi - 1e-12 and pgrad[i] < 0:
            pgrad[i] = 0.0
    return pgrad


def jsu_quantile(params: JsuParams, q):
    """Quantile function: xi + lambda * sinh((z_q - gamma) / delta)."""
    z_q = ndtri(np.asarray(q, dtype=float))
    return params.xi + params.lam * np.sinh((z_q - params.gamma) / params.delta)


def jsu_sample(params: JsuParams, size: int, rng) -> np.ndarray:
    """Draws from the distribution (inverse transform of standard normals)."""
    z = rng.standard_normal(size)
    return params.xi + params.lam * np.sinh((z - params.gamma) / params.delta)


# ---------------------------------------------------------------------------
# Quantile regression averaging (exact LP)
# ---------------------------------------------------------------------------

def pinball_sum(beta: np.ndarray, X: np.ndarray, y: np.ndarray, q: float) -> float:
    """Total pinball loss of the linear fit X @ beta against y."""
    r = y - X @ beta
    return float(np.sum(np.where(r >= 0, q * r, (q - 1.0) * r)))


def _with_intercept(X: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(X.shape[0]), X])


def qra_fit(pool: np.ndarray, prices: np.ndarray, q: float, intercept: bool = True) -> np.ndarray:
    """Exact pinball-loss minimizer via the dual LP of quantile regression.

    `pool` is (m, n_variants); the returned coefficient vector has the
    intercept first when `intercept` is set.  Degenerate (e.g. duplicated)
    columns are resolved by the solver's deterministic pivoting.
    """
    pool = np.atleast_2d(np.asarray(pool, dtype=float))
    prices = np.asarray(prices, dtype=float)
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    m, n = pool.shape
    if prices.shape != (m,):
        raise ValueError("prices length must match the pool history")
    if m < 10 * n:
        raise InsufficientDataError(f"{m} observations for {n} regressors; need >= {10 * n}")
    X = _with_intercept(pool) if intercept else pool
    p = X.shape[1]
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


def _fitted(X, beta):
    """X @ beta per quantile: X shared (m, n) or one per quantile (Q, m, n)."""
    return beta @ X.T if X.ndim == 2 else np.matmul(X, beta[:, :, None])[:, :, 0]


def _weighted_sum(w, A):
    """sum_i w[k, i] * A[.., i, :] per quantile k: (Q, m) with (m, p) or (Q, m, p)."""
    return w @ A if A.ndim == 2 else np.matmul(w[:, None, :], A)[:, 0]


# An infeasible band LP (b out of reach) makes its iterates diverge until they
# overflow; `finite` then retires that quantile.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _qr_ipm(X, y, qs, b=None, beta0=None, max_iter=100, gap_tol=1e-12):
    """Primal-dual interior-point solve of quantile-regression dual LPs,

        max y'a   s.t.   X'a = b,   q - 1 <= a <= q,

    one per quantile, with the Newton systems batched over quantiles.  X is
    one shared design (m, n) with y (m,), or one design per quantile
    (Q, m, n) with y (Q, m).  b (Q, n) defaults to 0, where the start a = 0
    is feasible; otherwise each step shrinks the residual b - X'a.  The
    equality multipliers are the coefficients; iterates start from beta0
    (least squares by default).  Returns the betas of the last iterate, NaN
    where the iterates diverged.
    """
    qs = np.asarray(qs, dtype=float)
    Q = qs.size
    m, n = X.shape[-2:]
    Y = np.broadcast_to(y, (Q, m))
    b = np.zeros((Q, n)) if b is None else b
    lo = (qs - 1.0)[:, None]
    hi = qs[:, None]
    scale = 1.0 + np.abs(Y).mean(axis=1)
    x_scale = 1.0 + np.abs(X).mean(axis=(-2, -1))
    # Newton matrices are w @ XX, XX holding each row's outer product x x'.
    XX = (X[..., :, None] * X[..., None, :]).reshape(*X.shape[:-1], n * n)

    a = np.zeros((Q, m))
    if beta0 is None:
        beta = np.tile(np.linalg.lstsq(X, y, rcond=None)[0], (Q, 1))
    else:
        beta = np.array(beta0, dtype=float)
    r = Y - _fitted(X, beta)
    z1 = np.maximum(-r, 0.0) + 1.0
    z2 = np.maximum(r, 0.0) + 1.0
    finite = np.ones(Q, dtype=bool)

    for _ in range(max_iter):
        s1 = np.maximum(a - lo, 1e-14)
        s2 = np.maximum(hi - a, 1e-14)
        gap = np.einsum("qm,qm->q", s1, z1) + np.einsum("qm,qm->q", s2, z2)
        dual_res = np.abs(z1 - z2 + r).max(axis=1)
        primal_res = b - _weighted_sum(a, X)
        converged = (
            (gap <= gap_tol * m * scale) & (dual_res <= 1e-9 * scale)
            & (np.abs(primal_res).max(axis=1) <= 1e-9 * m * x_scale)
        )
        idx = np.flatnonzero(~converged & finite)
        if idx.size == 0:
            break
        XI, XXI = (X, XX) if X.ndim == 2 else (X[idx], XX[idx])
        aI, s1I, s2I = a[idx], s1[idx], s2[idx]
        z1I, z2I, rI, pI = z1[idx], z2[idx], r[idx], primal_res[idx]
        w_inv = 1.0 / (z1I / s1I + z2I / s2I)

        M = _weighted_sum(w_inv, XXI).reshape(idx.size, n, n)
        try:
            M_chol = np.linalg.cholesky(M)
            M_pinv = None
        except np.linalg.LinAlgError:     # rank-deficient design
            M_chol, M_pinv = None, np.linalg.pinv(M)

        def newton(g):
            rhs = _weighted_sum(w_inv * g, XI) - pI
            if M_chol is None:
                dbeta = np.matmul(M_pinv, rhs[:, :, None])[:, :, 0]
            else:
                half = np.linalg.solve(M_chol, rhs[:, :, None])
                dbeta = np.linalg.solve(np.transpose(M_chol, (0, 2, 1)), half)[:, :, 0]
            da = w_inv * (g - _fitted(XI, dbeta))
            return dbeta, da

        def steps(da, dz1, dz2):
            ap = np.minimum(
                np.where(da < 0, s1I / -da, np.inf).min(axis=1),
                np.where(da > 0, s2I / da, np.inf).min(axis=1),
            )
            ad = np.minimum(
                np.where(dz1 < 0, z1I / -dz1, np.inf).min(axis=1),
                np.where(dz2 < 0, z2I / -dz2, np.inf).min(axis=1),
            )
            return np.minimum(1.0, 0.9995 * ap), np.minimum(1.0, 0.9995 * ad)

        # predictor (affine scaling: mu = 0, no corrector terms)
        dbeta_a, da_a = newton(rI)
        dz1_a = -z1I - (z1I / s1I) * da_a
        dz2_a = -z2I + (z2I / s2I) * da_a
        ap, ad = steps(da_a, dz1_a, dz2_a)
        gapI = gap[idx]
        gap_aff = (
            np.einsum("qm,qm->q", s1I + ap[:, None] * da_a, z1I + ad[:, None] * dz1_a)
            + np.einsum("qm,qm->q", s2I - ap[:, None] * da_a, z2I + ad[:, None] * dz2_a)
        )
        sigma = np.clip((gap_aff / gapI) ** 3, 0.0, 1.0)
        mu = (sigma * gapI / (2 * m))[:, None]

        # corrector
        d1 = da_a * dz1_a
        d2 = -da_a * dz2_a
        g = rI + (mu - d1) / s1I - (mu - d2) / s2I
        dbeta, da = newton(g)
        dz1 = (mu - d1) / s1I - z1I - (z1I / s1I) * da
        dz2 = (mu - d2) / s2I - z2I + (z2I / s2I) * da
        ap, ad = steps(da, dz1, dz2)

        a[idx] = aI + ap[:, None] * da
        beta[idx] = beta[idx] + ad[:, None] * dbeta
        z1[idx] = z1I + ad[:, None] * dz1
        z2[idx] = z2I + ad[:, None] * dz2
        r[idx] = Y[idx] - _fitted(XI, beta[idx])
        finite[idx] = np.isfinite(
            beta[idx].sum(axis=1) + z1[idx].sum(axis=1) + z2[idx].sum(axis=1)
        )

    beta[~finite] = np.nan
    return beta


def _nearest_rows(X, y, beta, n):
    """Per quantile, the n rows that the iterate beta fits most closely."""
    r = np.abs(y - _fitted(X, beta))
    return np.argpartition(r, n - 1, axis=1)[:, :n]


def _certify(X, y, qs, basis):
    """Exact KKT check of the vertices through the given basis rows.

    For each quantile, h = sorted(basis[k]) and beta = solve(X[h], y[h]).
    With every other row's dual at its bound (q above the fit, q - 1 below),
    X_h'a_h = -sum_{i not in h} a_i x_i gives the basis duals.  beta is
    accepted when X_h is well conditioned, no other row has residual exactly
    0 and every a_h lies inside (q - 1, q) by `_DUAL_MARGIN`; beta is then
    the LP's unique optimum.  Returns (betas, certified).
    """
    Q, n = basis.shape
    h = np.sort(basis, axis=1)
    Xh, yh = X[h], y[h]
    sv = np.linalg.svd(Xh, compute_uv=False)
    ok = sv[:, -1] > _MIN_RCOND * sv[:, 0]
    betas = np.full((Q, n), np.nan)
    betas[ok] = np.linalg.solve(Xh[ok], yh[ok][:, :, None])[:, :, 0]
    r = y - betas @ X.T
    a = np.where(r > 0, qs[:, None], qs[:, None] - 1.0)
    zero = r == 0
    np.put_along_axis(a, h, 0.0, axis=1)
    np.put_along_axis(zero, h, False, axis=1)
    a_h = np.full((Q, n), np.nan)
    a_h[ok] = -np.linalg.solve(np.transpose(Xh[ok], (0, 2, 1)), (a[ok] @ X)[:, :, None])[:, :, 0]
    with np.errstate(invalid="ignore"):
        inside = (a_h > (qs - 1.0 + _DUAL_MARGIN)[:, None]) & (a_h < (qs - _DUAL_MARGIN)[:, None])
    return betas, ok & ~zero.any(axis=1) & inside.all(axis=1)


def _band_basis(X, y, qs, prelim):
    """Basis rows from one batched solve of each quantile's band LP.

    The band holds the `_BAND_ROWS` rows with the smallest leverage-scaled
    residual |r_i| / sqrt(h_i) under the preliminary betas, where h_i is
    x_i'(X'X)^-1 x_i.  Every other row is taken to stay on its side, so its
    dual is fixed at q (above) or q - 1 (below) and moves to the right-hand
    side: the band LP is  max y_B'a  s.t.  X_B'a = -sum_{i not in B} a_i x_i.
    """
    m, n = X.shape
    k = min(_BAND_ROWS, m)
    leverage = np.maximum(np.sum(np.linalg.qr(X)[0] ** 2, axis=1), np.finfo(float).tiny)
    r = y - prelim @ X.T
    band = np.argpartition(r * r / leverage, k - 1, axis=1)[:, :k]
    a_out = np.where(r > 0, qs[:, None], qs[:, None] - 1.0)
    np.put_along_axis(a_out, band, 0.0, axis=1)
    betas = _qr_ipm(X[band], y[band], qs, b=-(a_out @ X), beta0=prelim)
    nearest = _nearest_rows(X[band], y[band], betas, n)
    return np.take_along_axis(band, nearest, axis=1)


def qra_fit_grid(
    pool: np.ndarray,
    prices: np.ndarray,
    qs=QUANTILE_GRID,
    intercept: bool = True,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """All per-quantile exact fits, batched; rows follow `qs`.

    1. Preliminary betas: `start` (for instance the previous window's fit),
       or else the batched interior-point solve of every 5th quantile and
       the last one, interpolated linearly in q.
    2. Band and globs: per quantile, the rows nearest the preliminary
       hyperplane by leverage-scaled residual; all other rows are lumped
       into an "above" and a "below" glob whose duals are fixed.
    3. Band solve: one batched interior-point solve of all band LPs.
    4. Exact certificate (`_certify`) of the vertex through the n band rows
       nearest each solution, checked over all rows.

    A certified vertex is the LP's unique optimum, computed from its sorted
    basis rows alone, so the result depends only on (pool, prices, q) and
    not on `start` or on the solve path.  Quantiles that fail go to the
    interior-point solve on the full design with the same certificate, and
    then to the simplex LP `qra_fit`.
    """
    pool = np.atleast_2d(np.asarray(pool, dtype=float))
    prices = np.asarray(prices, dtype=float)
    qs = np.asarray(qs, dtype=float)
    bad_q = qs[~((qs > 0.0) & (qs < 1.0))]
    if bad_q.size:
        raise ValueError(f"q must be in (0, 1), got {bad_q[0]}")
    m, n = pool.shape
    if prices.shape != (m,):
        raise ValueError("prices length must match the pool history")
    if m < 10 * n:
        raise InsufficientDataError(f"{m} observations for {n} regressors; need >= {10 * n}")
    X = _with_intercept(pool) if intercept else pool
    p = X.shape[1]
    if start is None:
        coarse = np.unique(np.r_[0 : qs.size : 5, qs.size - 1])
        coarse = coarse[np.argsort(qs[coarse])]
        betas = _qr_ipm(X, prices, qs[coarse])
        prelim = np.column_stack([np.interp(qs, qs[coarse], betas[:, j]) for j in range(p)])
    else:
        prelim = np.asarray(start, dtype=float)
        if prelim.shape != (qs.size, p):
            raise ValueError(f"start must have shape {(qs.size, p)}, got {prelim.shape}")

    out, done = _certify(X, prices, qs, _band_basis(X, prices, qs, prelim))
    rest = np.flatnonzero(~done)
    if rest.size:
        betas = _qr_ipm(X, prices, qs[rest])
        fits, certified = _certify(X, prices, qs[rest], _nearest_rows(X, prices, betas, p))
        out[rest[certified]] = fits[certified]
        done[rest[certified]] = True
    for i in np.flatnonzero(~done):
        out[i] = qra_fit(pool, prices, qs[i], intercept=intercept)
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
    return float(np.sum(bandwidth * _phi(z) + r * (q - ndtr(-z))))


def sqra_gradient(beta: np.ndarray, X: np.ndarray, y: np.ndarray, q: float, bandwidth: float) -> np.ndarray:
    r = y - X @ beta
    return -X.T @ (q - ndtr(-r / bandwidth))


def sqra_fit(
    pool: np.ndarray,
    prices: np.ndarray,
    q: float,
    bandwidth: float,
    start: np.ndarray | None = None,
    intercept: bool = True,
    gtol_scale: float = 1e-9,
    max_iter: int = 200,
) -> np.ndarray:
    """Minimize the smoothed objective by damped Newton with backtracking.

    The objective is convex; the Hessian X' diag(phi(z)/H) X gets a small
    ridge when nearly singular (tiny bandwidths flatten it far from the
    solution).  Falls back to L-BFGS-B before giving up.
    """
    pool = np.atleast_2d(np.asarray(pool, dtype=float))
    prices = np.asarray(prices, dtype=float)
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    m, n = pool.shape
    if m < 10 * n:
        raise InsufficientDataError(f"{m} observations for {n} regressors; need >= {10 * n}")
    X = _with_intercept(pool) if intercept else pool
    if start is None:
        beta = np.linalg.lstsq(X, prices, rcond=None)[0]
    else:
        beta = np.asarray(start, dtype=float).copy()

    gtol = gtol_scale * m * max(1.0, float(np.std(prices)))
    f = sqra_objective(beta, X, prices, q, bandwidth)
    for _ in range(max_iter):
        g = sqra_gradient(beta, X, prices, q, bandwidth)
        if np.linalg.norm(g, np.inf) <= gtol:
            return beta
        z = (prices - X @ beta) / bandwidth
        w = _phi(z) / bandwidth
        hess = X.T @ (w[:, None] * X)
        ridge = 1e-12 * max(1.0, np.trace(hess) / X.shape[1])
        try:
            step = np.linalg.solve(hess + ridge * np.eye(X.shape[1]), -g)
        except np.linalg.LinAlgError:
            step = -g
        # backtracking line search (Armijo)
        t = 1.0
        while t > 1e-12:
            f_new = sqra_objective(beta + t * step, X, prices, q, bandwidth)
            if f_new <= f + 1e-4 * t * (g @ step):
                break
            t *= 0.5
        else:
            break
        beta = beta + t * step
        f = f_new

    res = optimize.minimize(
        lambda b: sqra_objective(b, X, prices, q, bandwidth),
        beta,
        jac=lambda b: sqra_gradient(b, X, prices, q, bandwidth),
        method="L-BFGS-B",
        options={"maxiter": 500, "gtol": gtol / max(m, 1)},
    )
    if res.fun <= f:
        beta, f = res.x, res.fun
    g = sqra_gradient(beta, X, prices, q, bandwidth)
    # Gradient components scale with the column magnitudes of X; judge
    # convergence relative to that natural scale.
    g_scale = m * max(1.0, float(np.abs(X).mean()))
    if np.linalg.norm(g, np.inf) > max(gtol, 1e-6 * g_scale):
        raise SolverError(
            f"smoothed quantile regression did not converge (q={q}, H={bandwidth}): "
            f"gradient norm {np.linalg.norm(g, np.inf):.3e} at objective {f:.6g}, beta={beta}"
        )
    return beta


def sqra_fit_grid(pool, prices, qs=QUANTILE_GRID, bandwidth=None, starts=None, intercept=True):
    pool = np.atleast_2d(np.asarray(pool, dtype=float))
    prices = np.asarray(prices, dtype=float)
    if bandwidth is None:
        bandwidth = default_bandwidth(prices - pool.mean(axis=1))
    rows = []
    for i, q in enumerate(qs):
        start = None if starts is None else starts[i]
        rows.append(sqra_fit(pool, prices, q, bandwidth, start=start, intercept=intercept))
    return np.vstack(rows)


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
    bandwidth: float | None = None
    contexts: dict = field(default_factory=dict)  # tags calibrated earlier today
    # tag -> context of the previous calibration, a warm start for the same
    # method on the shifted window (qra starts its band LPs from its betas)
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
    qra_ctx = inputs.contexts.get("qra")
    starts = qra_ctx.betas if qra_ctx is not None else None
    bandwidth = inputs.bandwidth
    if bandwidth is None:
        bandwidth = default_bandwidth(inputs.prices - inputs.pool.mean(axis=1))
    betas = sqra_fit_grid(inputs.pool, inputs.prices, bandwidth=bandwidth, starts=starts)
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
    values = np.sort(values, axis=1)
    if not np.isfinite(values).all():
        raise QuantbessError(f"model {ctx.method!r} produced non-finite quantiles")
    return values
