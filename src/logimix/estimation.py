"""Maximum-likelihood fitting of logistic mixtures via generalized EM.

There is no closed-form M-step for logistic components, so each M-step runs a
few damped Newton steps per component in (mu, log sigma), on the analytic
gradient and Hessian of the responsibility-weighted log density.  A Levenberg
shift is added whenever the negated Hessian is not positive definite, and a
backtracking line search accepts a step only if it improves the objective.
Every accepted inner step therefore improves the expected complete-data
objective, which keeps the observed log-likelihood monotone up to
floating-point slack (generalized EM).
"""

import warnings
from dataclasses import dataclass
from math import lgamma

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import logsumexp

from ._util import log1p_sum_exp_neg, rng_from_seed, spawn_seeds
from .mixture import MixtureModel, WEIGHT_FLOOR, as_dataset
from .mld import MldParams, _as_points

INIT_STRATEGIES = ("quantile", "random-rows")

# A component whose total responsibility falls below this is considered
# starved; the whole initialization is retried with a fresh seed.
DEGENERATE_RESP_TOTAL = 1e-8
MAX_REINIT_ATTEMPTS = 3

# Standard deviation of the unit-scale logistic law is pi/sqrt(3); the moment
# rule for initial scales inverts that.
LOGISTIC_SD_FACTOR = np.sqrt(3.0) / np.pi

# First nonzero Levenberg shift of the Newton M-step; it is doubled until the
# shifted matrix is positive definite.
LEVENBERG_SEED = 1e-8


@dataclass(frozen=True)
class FitConfig:
    s: int
    max_iter: int = 500
    rel_tol: float = 1e-8
    n_restarts: int = 5
    seed: int = 0
    m_step_iters: int = 50
    m_step_tol: float = 1e-10

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("s must be at least 1")
        if min(self.max_iter, self.n_restarts, self.m_step_iters) < 1:
            raise ValueError("iteration and restart counts must be positive")
        if min(self.rel_tol, self.m_step_tol) <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True, eq=False)
class FitResult:
    model: MixtureModel
    loglik_trace: np.ndarray
    converged: bool
    n_iter: int
    best_of: int

    def __post_init__(self):
        trace = np.asarray(self.loglik_trace, dtype=float)
        if np.any(np.diff(trace) < -1e-9):
            raise ValueError("log-likelihood trace decreased beyond 1e-9 slack")
        object.__setattr__(self, "loglik_trace", trace)


def responsibilities(x, model):
    """Posterior component probabilities, computed in log space.

    A point of shape (p,) gives a vector of length s; a batch (n, p) gives an
    (n, s) matrix.  If every component underflows to zero density the affected
    rows degenerate to uniform and a RuntimeWarning is emitted.
    """
    x = _as_points(x, model.p)
    single = x.ndim == 1
    resp, _, n_underflow = _e_step(x[None, :] if single else x, model)
    if n_underflow:
        warnings.warn(
            "all mixture components underflowed; returning uniform responsibilities",
            RuntimeWarning,
        )
    return resp[0] if single else resp


def component_log_pdf_grad(x, params):
    """Gradient of the component log density wrt (mu, log sigma).

    With z_k = (x_k - mu_k)/sigma_k and w_k = exp(-z_k)/(1 + sum_j exp(-z_j)):

        d/d mu_k       = (1/sigma_k) * (1 - (p+1) w_k)
        d/d log sigma_k = z_k * (1 - (p+1) w_k) - 1
    """
    x = _as_points(x, params.p)
    z = (x - params.mu) / params.sigma
    p = params.p
    log_denom = log1p_sum_exp_neg(z)
    w = np.exp(-z - log_denom[..., None])
    base = 1.0 - (p + 1) * w
    grad_mu = base / params.sigma
    grad_logsigma = z * base - 1.0
    return grad_mu, grad_logsigma


def _comp_log_pdf(data, mu, log_sigma):
    """Per-row component log density for raw (mu, log sigma) arrays.

    Also returns the standardized residuals z and log(1 + sum_k exp(-z_k)),
    which the M-step's derivatives are built from.
    """
    z = (data - mu) / np.exp(log_sigma)
    log_denom = log1p_sum_exp_neg(z)
    p = mu.size
    log_pdf = lgamma(p + 1) - np.sum(z, axis=-1) - (p + 1) * log_denom - np.sum(log_sigma)
    return log_pdf, z, log_denom


def _weighted_obj_derivs(data, resp, mu, log_sigma):
    """Objective, gradient and Hessian of the M-step in (mu, log sigma).

    The objective is the responsibility-weighted mean log density, which has
    the same maximizer as the weighted sum and keeps the natural Newton step
    near unity regardless of the dataset size.  Parameters are ordered
    (mu_1, ..., mu_p, log sigma_1, ..., log sigma_p).  With z = (x - mu)/sigma,
    w_k = exp(-z_k)/(1 + sum_j exp(-z_j)) and g_k = (p+1) w_k - 1, a row's log
    density has z-gradient g and z-Hessian H_z = (p+1)(w w' - diag w), so

        H = J' H_z J + sum_k g_k Hess(z_k)

    with dz_k/dmu_k = -1/sigma_k, dz_k/dlog sigma_k = -z_k,
    d2z_k/dmu_k dlog sigma_k = 1/sigma_k and d2z_k/dlog sigma_k^2 = z_k.
    J' H_z J is (p+1)(u u' - J' diag(w) J) with u = -J' w; the weighted sums
    of u u' go through one (2p, n) x (n, 2p) product and the diagonal terms
    through per-coordinate sums, so no per-row 2p x 2p array is formed.
    """
    p = mu.size
    total = resp.sum()
    log_pdf, z, log_denom = _comp_log_pdf(data, mu, log_sigma)
    obj = float(np.dot(resp, log_pdf)) / total
    sigma = np.exp(log_sigma)
    w = np.exp(-z - log_denom[:, None])
    zw = z * w
    u = np.sqrt(resp)[:, None] * np.concatenate([w / sigma, zw], axis=1)
    rw, rzw, rz, rzzw = resp @ w, resp @ zw, resp @ z, resp @ (zw * z)
    rg = (p + 1) * rw - total  # sum_i r_i g_ik
    rzg = (p + 1) * rzw - rz  # sum_i r_i z_ik g_ik
    grad = -np.concatenate([rg / sigma, rzg + total]) / total
    hess = (p + 1) * (u.T @ u)
    k = np.arange(p)
    hess[k, k] -= (p + 1) * rw / sigma**2
    hess[k, p + k] -= ((p + 1) * rzw - rg) / sigma
    hess[p + k, p + k] -= (p + 1) * rzzw - rzg
    hess[p + k, k] = hess[k, p + k]
    hess /= total
    return obj, grad, hess


def _newton_direction(grad, hess):
    """Solve (lam I - H) d = grad through the Cholesky factor, lam being the
    first of 0, LEVENBERG_SEED, 2 LEVENBERG_SEED, ... that gives a factor.

    A non-finite Hessian counts as zero, so the shift alone sets a scaled
    gradient step; if no finite shift works the direction is zero.
    """
    neg_h = -hess if np.all(np.isfinite(hess)) else np.zeros_like(hess)
    eye = np.eye(grad.size)
    lam = 0.0
    while lam < np.inf:
        try:
            factor = cho_factor(neg_h + lam * eye, check_finite=False)
        except LinAlgError:
            lam = max(2.0 * lam, LEVENBERG_SEED)
            continue
        return cho_solve(factor, grad, check_finite=False)
    return np.zeros_like(grad)


def _ascend(data, resp, mu, log_sigma, iters, gtol):
    """Damped Newton ascent of the M-step objective in (mu, log sigma).

    Each step solves (lam I - H) d = g, where lam is a Levenberg shift added
    (and doubled) only while -H is not positive definite or not finite; a
    large shift turns d into a scaled gradient step.  The step length is
    halved from 1 until the objective improves, and only an improving step is
    accepted, so the objective never decreases and the observed
    log-likelihood stays monotone (generalized EM).  Ascent stops after
    ``iters`` steps, when the gradient norm falls below ``gtol``, when the
    predicted gain g'd/2 is below the objective's rounding error, or when no
    step length improves.
    """
    p = mu.size
    theta = np.concatenate([mu, log_sigma])
    # Typical rounding error of a mean of n terms: a smaller gain cannot be
    # told apart from noise, and searching for it only burns evaluations.
    noise = np.finfo(float).eps * np.sqrt(data.shape[0])
    # Trial points may overflow; a non-finite objective is never accepted.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        obj, grad, hess = _weighted_obj_derivs(data, resp, mu, log_sigma)
        for _ in range(iters):
            if not np.sqrt(grad @ grad) >= gtol:
                break
            d = _newton_direction(grad, hess)
            if not 0.5 * (grad @ d) > noise * max(1.0, abs(obj)):
                break
            step = 1.0
            while step >= 2.0**-60:
                cand = theta + step * d
                cand_obj, cand_grad, cand_hess = _weighted_obj_derivs(
                    data, resp, cand[:p], cand[p:]
                )
                if cand_obj > obj:
                    break
                step *= 0.5
            else:
                break
            theta, obj, grad, hess = cand, cand_obj, cand_grad, cand_hess
    return theta[:p], theta[p:]


def init_params(data, s, seed, strategy="quantile"):
    """Initial mixture for EM.

    "quantile" puts component means at per-coordinate data quantiles
    (i + 0.5)/s; "random-rows" copies s distinct random rows.  Both use the
    moment rule sigma = std(data) * sqrt(3)/pi per coordinate and uniform
    weights.
    """
    if strategy not in INIT_STRATEGIES:
        raise ValueError("unknown strategy %r, expected one of %s" % (strategy, INIT_STRATEGIES))
    data = as_dataset(data)
    n, p = data.shape
    # Scaling each column by a power of two near its largest |x| keeps the
    # squared deviations finite and, barring subnormal entries, leaves the
    # result bit-for-bit unchanged.
    _, exponent = np.frexp(np.max(np.abs(data), axis=0))
    spread = np.ldexp(np.ldexp(data, -exponent).std(axis=0), exponent)
    scale = np.maximum(spread * LOGISTIC_SD_FACTOR, 1e-6)
    if strategy == "quantile":
        qs = (np.arange(s) + 0.5) / s
        centers = np.quantile(data, qs, axis=0)
    else:
        distinct = np.unique(data, axis=0)
        if distinct.shape[0] < s:
            raise ValueError(
                "need at least %d distinct rows for random-rows init, found %d"
                % (s, distinct.shape[0])
            )
        rng = rng_from_seed(seed)
        idx = rng.choice(distinct.shape[0], size=s, replace=False)
        centers = distinct[idx]
    comps = tuple(MldParams(centers[i], scale) for i in range(s))
    return MixtureModel(np.full(s, 1.0 / s), comps)


class _DegenerateComponent(Exception):
    pass


def _e_step(data, model):
    """Responsibilities, log-likelihood and number of underflowed rows.

    A row at which every component density underflows to zero gets uniform
    responsibilities and adds -1e300 to the log-likelihood, which keeps EM
    traces finite and comparable.
    """
    with np.errstate(over="ignore"):
        lp = np.column_stack(
            [np.log(w) + _comp_log_pdf(data, c.mu, np.log(c.sigma))[0]
             for w, c in zip(model.weights, model.components)]
        )
    row_ll = logsumexp(lp, axis=1)
    bad = ~np.isfinite(row_ll)
    if np.any(bad):
        lp[bad] = -np.log(model.s)
        row_ll[bad] = -1e300
    resp = np.exp(lp - np.where(bad, 0.0, row_ll)[:, None])
    return resp, float(row_ll.sum()), int(bad.sum())


def _em_single(data, config, seed, strategy, allow_degenerate):
    model = init_params(data, config.s, seed, strategy)
    trace = []
    converged = False
    for _ in range(config.max_iter):
        resp, loglik, _ = _e_step(data, model)
        if trace and (loglik - trace[-1]) < config.rel_tol * max(1.0, abs(loglik)):
            trace.append(loglik)
            converged = True
            break
        trace.append(loglik)
        totals = resp.sum(axis=0)
        if np.any(totals < DEGENERATE_RESP_TOTAL):
            if not allow_degenerate:
                raise _DegenerateComponent()
            # Out of retries: freeze the starved component for this iteration.
            starved = totals < DEGENERATE_RESP_TOTAL
        else:
            starved = np.zeros(config.s, dtype=bool)
        weights = np.maximum(totals / data.shape[0], WEIGHT_FLOOR)
        weights = weights / weights.sum()
        comps = []
        for i, comp in enumerate(model.components):
            if starved[i]:
                comps.append(comp)
                continue
            mu, log_sigma = _ascend(
                data, resp[:, i], comp.mu, np.log(comp.sigma),
                config.m_step_iters, config.m_step_tol,
            )
            comps.append(MldParams(mu, np.exp(log_sigma)))
        model = MixtureModel(weights, tuple(comps))
    else:
        # Cap reached: refresh the trace so it reflects the final model.
        _, loglik, _ = _e_step(data, model)
        trace.append(loglik)
    return model, np.asarray(trace), converged


def em_fit(data, config):
    """Fit a mixture by EM with several independent restarts.

    Returns the restart with the best final log-likelihood; ties closer than
    1e-12 go to the lowest restart index.
    """
    data = as_dataset(data)
    if data.shape[0] < config.s:
        raise ValueError(
            "need at least s=%d rows, got %d" % (config.s, data.shape[0])
        )
    best = None
    for r, restart_seed in enumerate(spawn_seeds(config.seed, config.n_restarts)):
        strategy = "quantile" if r == 0 else "random-rows"
        attempt_seeds = [restart_seed] + spawn_seeds(restart_seed, MAX_REINIT_ATTEMPTS)
        outcome = None
        for a, attempt_seed in enumerate(attempt_seeds):
            try:
                outcome = _em_single(
                    data, config, attempt_seed, strategy,
                    allow_degenerate=(a == len(attempt_seeds) - 1),
                )
                break
            except _DegenerateComponent:
                strategy = "random-rows"
                continue
        model, trace, converged = outcome
        if best is None or trace[-1] > best[0] + 1e-12:
            best = (trace[-1], model, trace, converged)
    _, model, trace, converged = best
    return FitResult(
        model=model,
        loglik_trace=trace,
        converged=converged,
        n_iter=len(trace) - 1,
        best_of=config.n_restarts,
    )
