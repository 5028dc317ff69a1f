"""Probabilistic forecasting methods: 99-quantile forecasts from point forecasts.

Five methods are provided:

* ``hs``   -- empirical quantiles of past point-forecast errors added to the
  point forecast.
* ``cp``   -- symmetric intervals from quantiles of absolute errors.
* ``jsu``  -- Johnson SU distribution fitted to the errors by maximum
  likelihood; its quantiles are added to the point forecast.
* ``qra``  -- quantile regression on a pool of point forecasts, solved exactly
  as a linear program per quantile.
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


def _qr_ipm_batch(X, y, qs, max_iter=100, gap_tol=1e-12):
    """Primal-dual interior-point solve of the quantile-regression dual LPs.

    All quantiles share the design, so the Newton systems are batched.
    Returns (betas, duals, converged): the LP multipliers, the feasible dual
    vectors (for the optimality certificate) and a per-quantile flag.
    """
    m, n = X.shape
    qs = np.asarray(qs, dtype=float)
    Q = qs.size
    lo = (qs - 1.0)[:, None]
    hi = qs[:, None]
    scale = 1.0 + float(np.abs(y).mean())

    a = np.zeros((Q, m))                     # dual vector, X'a = 0 throughout
    beta = np.tile(np.linalg.lstsq(X, y, rcond=None)[0], (Q, 1))
    r = y[None, :] - beta @ X.T
    z1 = np.maximum(-r, 0.0) + 1.0
    z2 = np.maximum(r, 0.0) + 1.0
    converged = np.zeros(Q, dtype=bool)

    for _ in range(max_iter):
        s1 = np.maximum(a - lo, 1e-14)
        s2 = np.maximum(hi - a, 1e-14)
        gap = np.einsum("qm,qm->q", s1, z1) + np.einsum("qm,qm->q", s2, z2)
        dual_res = np.abs(z1 - z2 + r).max(axis=1)
        converged = (gap <= gap_tol * m * scale) & (dual_res <= 1e-9 * scale)
        idx = np.flatnonzero(~converged)
        if idx.size == 0:
            break
        aI, s1I, s2I = a[idx], s1[idx], s2[idx]
        z1I, z2I, rI = z1[idx], z2[idx], r[idx]
        w_inv = 1.0 / (z1I / s1I + z2I / s2I)

        M = np.einsum("qm,mi,mj->qij", w_inv, X, X)
        M_chol = None
        try:
            M_chol = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            pass

        def newton(g):
            rhs = np.einsum("qm,mi->qi", w_inv * g, X)
            if M_chol is not None:
                half = np.linalg.solve(M_chol, rhs[:, :, None])
                dbeta = np.linalg.solve(
                    np.transpose(M_chol, (0, 2, 1)), half
                )[:, :, 0]
            else:
                dbeta = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
            da = w_inv * (g - dbeta @ X.T)
            return dbeta, da

        def steps(da, dz1, dz2):
            with np.errstate(divide="ignore"):
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
        r[idx] = y[None, :] - beta[idx] @ X.T

    return beta, a, converged


def _polish_vertex(X, y, q, beta, a):
    """Snap an interior-point iterate to the exact LP vertex.

    Interpolates the n observations the iterate fits most closely; accepts the
    vertex when it does not increase the pinball objective and the duality gap
    against the feasible dual vector certifies optimality.
    """
    m, n = X.shape
    r = y - X @ beta
    order = np.argsort(np.abs(r))
    basis = order[:n]
    try:
        beta_v = np.linalg.solve(X[basis], y[basis])
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(beta_v).all():
        return None
    f_v = pinball_sum(beta_v, X, y, q)
    if f_v > pinball_sum(beta, X, y, q):
        return None
    dual_bound = float(y @ a)
    if f_v - dual_bound > 1e-7 * (1.0 + abs(f_v)):
        return None
    return beta_v


def qra_fit_grid(pool: np.ndarray, prices: np.ndarray, qs=QUANTILE_GRID, intercept: bool = True) -> np.ndarray:
    """All per-quantile exact fits, batched.

    The batched interior-point pass solves every quantile at once; each
    solution is polished to its LP vertex and certified by the duality gap.
    Quantiles failing certification are re-solved with the simplex LP.
    """
    pool = np.atleast_2d(np.asarray(pool, dtype=float))
    prices = np.asarray(prices, dtype=float)
    qs = np.asarray(qs, dtype=float)
    X = _with_intercept(pool) if intercept else pool
    m, n = pool.shape
    if m < 10 * n:
        raise InsufficientDataError(f"{m} observations for {n} regressors; need >= {10 * n}")
    betas, duals, converged = _qr_ipm_batch(X, prices, qs)
    out = np.empty_like(betas)
    for i, q in enumerate(qs):
        polished = None
        if converged[i]:
            polished = _polish_vertex(X, prices, q, betas[i], duals[i])
        out[i] = polished if polished is not None else qra_fit(
            pool, prices, q, intercept=intercept
        )
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
    pool: np.ndarray | None = None          # (m, n_variants) history
    prices: np.ndarray | None = None        # (m,) realized prices
    bandwidth: float | None = None
    contexts: dict = field(default_factory=dict)  # tags calibrated earlier today


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
    return MethodContext("qra", betas=qra_fit_grid(inputs.pool, inputs.prices))


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
    """Add a custom probabilistic method usable in a backtest registry."""
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
