"""Maximum-likelihood fitting of logistic mixtures via generalized EM.

There is no closed-form M-step for logistic components, so each M-step runs a
few damped Newton steps per component in (mu, log sigma), on the analytic
gradient and Hessian of the responsibility-weighted log density.  A Levenberg
shift is added whenever the negated Hessian is not positive definite, and a
backtracking line search accepts a step only if it improves the objective and
keeps every scale at least SCALE_FLOOR * m_k (``_moment_scale``), a floor that
bounds the likelihood as in Hathaway's constrained MLE (1985, Ann. Stat.).
Every accepted inner step therefore improves the expected complete-data
objective, which keeps the observed log-likelihood monotone up to
floating-point slack (generalized EM).

One EM step (``_em_step``) is that M-step and then the E-step at its result.
A run (``_em_single``) is the E-step of its start and then SQUAREM cycles
(Varadhan & Roland 2008, Scand. J. Stat.) of that step F on
theta = (log weights, mu, log sigma).  A cycle takes two steps,
theta1 = F(theta0) and theta2 = F(theta1), and extrapolates to
theta0 - 2 alpha r + alpha^2 v, with r = theta1 - theta0,
v = theta2 - 2 theta1 + theta0 and the SqS3 steplength alpha = -||r||/||v||
capped at -1 (alpha = -1 is theta2 itself).  That point is built as a step
builds its model and kept only if it is a valid model above the scale floor
and its log-likelihood is finite and at least theta2's; otherwise the cycle
ends at theta2 (the monotone fallback).  Only steps count: the trace holds
the start and one entry per step, and an extrapolation's E-step is neither a
step nor an entry.  The run stops once a step's entry exceeds the one before
it by less than REL_TOL * max(1, |log-likelihood|) (converged), a rise that
after a kept extrapolation includes the extrapolation's gain, or once
max_iter steps are taken (not converged).
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import _require_counts, log_sum_exp, rng_from_seed, spawn_seeds
from .mixture import MixtureModel, WEIGHT_FLOOR, _model, _weighted_log_pdfs, as_dataset
from .mld import _as_points, _coordinate_major, _log_pdf_parts

INIT_STRATEGIES = ("quantile", "random-rows")

# EM stops once an iteration raises the log-likelihood by less than this
# fraction of max(1, |log-likelihood|).
REL_TOL = 1e-8

# Standard deviation of the unit-scale logistic law is pi/sqrt(3); the moment
# rule for initial scales inverts that.
LOGISTIC_SD_FACTOR = np.sqrt(3.0) / np.pi

# Every fitted sigma_ik is at least SCALE_FLOOR * m_k, m_k the moment-rule scale of
# coordinate k.  The value is the moment rule's own absolute clamp, taken relative to
# the data: at the floor a row adds about p log(1e6) = 13.8 p nats over the start,
# while every fit-ref and fit-batch fit (seeds 1, 3, 5) ends above 0.34 m_k.
SCALE_FLOOR = 1e-6

# First nonzero Levenberg shift of the Newton M-step; it is doubled until the
# shifted matrix is positive definite.
LEVENBERG_SEED = 1e-8

# Most Newton steps per component in one M-step.  The predicted-gain rule in
# `_ascend` ends almost every ascent first; the cap binds only while a scale
# closes in on the scale floor on degenerate data.
MAX_NEWTON_STEPS = 50

# An ascent whose gradient norm is below this stops before the Cholesky solve.
# On every fit measured the predicted-gain rule stopped those ascents at the
# same step anyway; the early exit only saves the solve, which is measurable
# on many small fits.
NEWTON_GTOL = 1e-10


@dataclass(frozen=True)
class FitConfig:
    """EM settings; the stopping rule REL_TOL and the M-step's limits are fixed.

    ``max_iter`` caps the EM steps of one run; SQUAREM's extrapolations are not steps.
    """

    s: int
    max_iter: int = 500
    n_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        _require_counts(s=self.s, max_iter=self.max_iter, n_restarts=self.n_restarts)


@dataclass(frozen=True, eq=False)
class FitResult:
    model: MixtureModel
    loglik_trace: np.ndarray
    converged: bool
    n_iter: int

    def __post_init__(self):
        trace = np.asarray(self.loglik_trace, dtype=float)
        if np.any(np.diff(trace) < -1e-9):
            raise ValueError("log-likelihood trace decreased beyond 1e-9 slack")
        object.__setattr__(self, "loglik_trace", trace)


def responsibilities(x, model):
    """Posterior component probabilities, computed in log space.

    A point of shape (p,) gives a vector of length s; a batch (..., p) gives
    an (..., s) array.  If every component underflows to zero density the
    affected rows degenerate to uniform and a RuntimeWarning is emitted.
    """
    x = _as_points(x, model.p)
    resp, _, n_underflow = _e_step(_coordinate_major(np.atleast_2d(x)), model)
    if n_underflow:
        warnings.warn(
            "all mixture components underflowed; returning uniform responsibilities",
            RuntimeWarning,
        )
    return resp.transpose(*range(1, resp.ndim), 0).reshape(x.shape[:-1] + (model.s,))


def component_log_pdf_grad(x, params):
    """Gradient of the component log density wrt (mu, log sigma).

    With z_k = (x_k - mu_k)/sigma_k and w_k = exp(-z_k)/(1 + sum_j exp(-z_j)),
    read from ``_component_parts`` as in the M-step:

        d/d mu_k       = (1/sigma_k) * (1 - (p+1) w_k)
        d/d log sigma_k = z_k * (1 - (p+1) w_k) - 1
    """
    x = _as_points(x, params.p)
    parts = _component_parts(_coordinate_major(x.reshape(-1, params.p)), params.mu, params.sigma)
    base = 1.0 - (params.p + 1) * parts.w
    return tuple(g.T.reshape(x.shape) for g in (base / parts.sigma[:, None], parts.z * base - 1.0))


# The arrays of one component at one (mu, sigma) that do not depend on the
# responsibilities: sigma, the log density, z, w, z w, z^2 w and the stacked
# (2p, n) [w / sigma; z w], with z and w as in ``_weighted_obj_derivs``.
_Parts = namedtuple("_Parts", "sigma log_pdf z w zw zzw stacked")


def _component_parts(data, mu, sigma):
    """The ``_Parts`` of one component at coordinate-major points ``data`` (p, n).

    ``sigma`` is kept as given, so it must not be written to afterwards.
    """
    log_pdf, z, log_denom = _log_pdf_parts(data, mu, sigma)
    w = np.exp(-z - log_denom)
    stacked = np.concatenate([w / sigma[:, None], z * w])
    zw = stacked[z.shape[0]:]
    return _Parts(sigma, log_pdf, z, w, zw, zw * z, stacked)


@lru_cache(maxsize=None)
def _correction_index(p):
    """Row and column indices of the Hessian entries (mu_k, mu_k), (mu_k, log sigma_k),
    (log sigma_k, log sigma_k) and (log sigma_k, mu_k), k < p, in that order."""
    k = np.arange(p)
    return np.concatenate([k, k, p + k, p + k]), np.concatenate([k, p + k, p + k, k])


def _weighted_obj_derivs(resp, parts):
    """Objective, gradient and Hessian of the M-step in (mu, log sigma).

    The objective is the responsibility-weighted mean log density, which has
    the same maximizer as the weighted sum and keeps the natural Newton step
    near unity regardless of the dataset size.  Parameters are ordered
    (mu_1, ..., mu_p, log sigma_1, ..., log sigma_p).  ``parts`` are the
    component's ``_component_parts`` at (mu, exp(log sigma)).  With
    z = (x - mu)/sigma, w_k = exp(-z_k)/(1 + sum_j exp(-z_j)) and
    g_k = (p+1) w_k - 1, a row's log density has z-gradient g and z-Hessian
    H_z = (p+1)(w w' - diag w), so

        H = J' H_z J + sum_k g_k Hess(z_k)

    with dz_k/dmu_k = -1/sigma_k, dz_k/dlog sigma_k = -z_k,
    d2z_k/dmu_k dlog sigma_k = 1/sigma_k and d2z_k/dlog sigma_k^2 = z_k.
    J' H_z J is (p+1)(u u' - J' diag(w) J) with u = -J' w.  w, z and z w are
    (p, n) arrays and u is the stacked (2p, n) [w / sigma; z w] up to sign,
    so the weighted sum of u u' is one (2p, n) x (n, 2p) product,
    (stacked * r) @ stacked', and the diagonal terms are (p, n) x (n,)
    products; no per-row 2p x 2p array is formed.  That product is symmetric
    only up to rounding; ``_newton_direction`` reads the upper triangle
    alone, and each cross correction is subtracted from both off-diagonal
    blocks in one scatter.
    """
    sigma, log_pdf, z, w, zw, zzw, stacked = parts
    p = sigma.size
    total = resp.sum()
    obj = float(np.dot(resp, log_pdf)) / total
    rw, rzw, rz, rzzw = w @ resp, zw @ resp, z @ resp, zzw @ resp
    rg = (p + 1) * rw - total  # sum_i r_i g_ik
    rzg = (p + 1) * rzw - rz  # sum_i r_i z_ik g_ik
    grad = -np.concatenate([rg / sigma, rzg + total]) / total
    hess = (p + 1) * ((stacked * resp) @ stacked.T)
    cross = ((p + 1) * rzw - rg) / sigma
    hess[_correction_index(p)] -= np.concatenate(
        [(p + 1) * rw / sigma**2, cross, (p + 1) * rzzw - rzg, cross]
    )
    hess /= total
    return obj, grad, hess


@lru_cache(maxsize=None)
def _identity(n):
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _newton_direction(grad, hess):
    """Solve (lam I - H) d = grad through the Cholesky factor, lam being the
    first of 0, LEVENBERG_SEED, 2 LEVENBERG_SEED, ... that gives a factor.

    LAPACK's potrf/potrs are called directly, on the upper triangle, as
    ``scipy.linalg.cho_factor``/``cho_solve`` call them, so the lower triangle
    of ``hess`` is never read; a positive ``info``
    from potrf means the shifted matrix is not positive definite.  A
    non-finite Hessian counts as zero, so the shift alone sets a scaled
    gradient step; if no finite shift works the direction is zero.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs

    neg_h = -hess if np.isfinite(hess).all() else np.zeros_like(hess)
    eye = _identity(grad.size)
    lam = 0.0
    while lam < np.inf:
        factor, info = dpotrf(neg_h + lam * eye, lower=0, clean=0)
        if info == 0:
            return dpotrs(factor, grad, lower=0)[0]
        lam = max(2.0 * lam, LEVENBERG_SEED)
    return np.zeros_like(grad)


def _ascend(data, resp, mu, log_sigma, floor, iters=MAX_NEWTON_STEPS, parts=None):
    """Damped Newton ascent of the M-step objective in (mu, log sigma).

    ``data`` is coordinate-major, shape (p, n), as ``_component_parts``
    takes it, and ``parts`` are the component's parts at the start, computed
    when not given.  Returns the accepted (mu, log sigma) and its parts.
    Each step solves (lam I - H) d = g, where lam is a Levenberg shift added
    (and doubled) only while -H is not positive definite or not finite; a
    large shift turns d into a scaled gradient step.  The step length is
    halved from 1 until the objective improves at a point whose scales are
    all at least ``floor`` (p,); a point below the floor counts as not
    improving.  Only an improving step is accepted, so the objective never
    decreases and the observed log-likelihood stays monotone (generalized
    EM).  Ascent stops when the predicted gain g'd/2 is below the objective's
    rounding error (or, before solving, when the gradient norm is below
    NEWTON_GTOL), when no step length improves, or after ``iters`` steps.
    A component whose responsibilities are all exactly 0 has the objective
    0/0, so the gradient check stops it at once and it keeps its (mu, sigma).
    """
    p = mu.size
    theta = np.concatenate([mu, log_sigma])
    # Typical rounding error of a mean of n terms: a smaller gain cannot be
    # told apart from noise, and searching for it only burns evaluations.
    noise = np.finfo(float).eps * np.sqrt(data.shape[1])
    # Trial points may overflow; a non-finite objective is never accepted.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if parts is None:
            parts = _component_parts(data, mu, np.exp(log_sigma))
        obj, grad, hess = _weighted_obj_derivs(resp, parts)
        for _ in range(iters):
            if not np.sqrt(grad @ grad) >= NEWTON_GTOL:
                break
            d = _newton_direction(grad, hess)
            if not 0.5 * (grad @ d) > noise * max(1.0, abs(obj)):
                break
            step = 1.0
            while step >= 2.0**-60:
                cand = theta + step * d
                cand_parts = _component_parts(data, cand[:p], np.exp(cand[p:]))
                cand_obj, cand_grad, cand_hess = _weighted_obj_derivs(resp, cand_parts)
                if cand_obj > obj and (cand_parts.sigma >= floor).all():
                    break
                step *= 0.5
            else:
                break
            theta, obj, grad, hess, parts = cand, cand_obj, cand_grad, cand_hess, cand_parts
    return theta[:p], theta[p:], parts


def _moment_scale(data):
    """Moment-rule scale std * sqrt(3)/pi of each coordinate of (n, p) ``data``, at least 1e-6."""
    # Scaling each column by a power of two near its largest |x| keeps the
    # squared deviations finite and, barring subnormal entries, leaves the
    # result bit-for-bit unchanged.
    _, exponent = np.frexp(np.max(np.abs(data), axis=0))
    spread = np.ldexp(np.ldexp(data, -exponent).std(axis=0), exponent)
    return np.maximum(spread * LOGISTIC_SD_FACTOR, 1e-6)


def _distinct_rows(data):
    """The rows np.unique(data, axis=0) gives, without its structured-dtype sort."""
    rows = data[np.lexsort(data.T[::-1])]
    return rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]


def init_params(data, s, seed, strategy="quantile"):
    """Initial mixture for EM.

    "quantile" puts component means at per-coordinate data quantiles
    (i + 0.5)/s; "random-rows" copies s distinct random rows.  Both use the
    moment rule sigma = std(data) * sqrt(3)/pi per coordinate (``_moment_scale``)
    and uniform weights.
    """
    if strategy not in INIT_STRATEGIES:
        raise ValueError("unknown strategy %r, expected one of %s" % (strategy, INIT_STRATEGIES))
    data = as_dataset(data)
    scale = _moment_scale(data)
    if strategy == "quantile":
        qs = (np.arange(s) + 0.5) / s
        centers = np.quantile(data, qs, axis=0)
    else:
        distinct = _distinct_rows(data)
        if distinct.shape[0] < s:
            raise ValueError(
                "need at least %d distinct rows for random-rows init, found %d"
                % (s, distinct.shape[0])
            )
        rng = rng_from_seed(seed)
        idx = rng.choice(distinct.shape[0], size=s, replace=False)
        centers = distinct[idx]
    return _model(np.full(s, 1.0 / s), centers, scale)


def _e_step(data, model, log_pdfs=None):
    """Responsibilities, log-likelihood and number of underflowed rows.

    ``data`` is coordinate-major, shape (p, ...), and the responsibilities
    are component-major, shape (s, ...), like ``_weighted_log_pdfs``, which
    also takes ``log_pdfs``.  A row's log-likelihood is ``log_sum_exp`` of its
    weighted log densities, as in ``mixture_log_pdf``, and its
    responsibilities are that kernel's shifted exponentials divided by their
    sum, so no second exponential is taken.  A row at which every component
    density underflows to zero gets uniform responsibilities and adds -1e300
    to the log-likelihood, which keeps EM traces finite and comparable.
    """
    with np.errstate(over="ignore", divide="ignore"):
        row_ll, resp, total = log_sum_exp(_weighted_log_pdfs(data, model, log_pdfs))
    bad = ~np.isfinite(row_ll)
    if bad.any():
        resp[:, bad] = np.exp(-np.log(model.s))
        total[bad] = 1.0
        row_ll[bad] = -1e300
    resp /= total
    return resp, float(row_ll.sum()), int(bad.sum())


def _em_step(coords, model, parts, resp, floor):
    """One EM step from ``model`` and its E-step ``resp``: (model, parts, resp, log-likelihood).

    ``parts[i]`` are component i's ``_Parts`` at (mu[i], sigma[i]).  An ascent starts from them
    when exp(log(sigma[i])) rounds back to sigma[i], so parts are computed only at trial points,
    and the E-step reads its log densities from them.  No scale goes below ``floor`` (p,).
    """
    mu, sigma, parts = model._mu.copy(), model._sigma.copy(), list(parts)
    for i in range(model.s):
        log_sigma = np.log(sigma[i])
        start = parts[i] if (np.exp(log_sigma) == sigma[i]).all() else None
        mu[i], _, parts[i] = _ascend(coords, resp[i], mu[i], log_sigma, floor, parts=start)
        sigma[i] = parts[i].sigma
    weights = resp.sum(axis=1) / coords.shape[1]
    # MixtureModel renormalises the weights again; fits depend on that rounding.
    model = _model(np.maximum(weights / weights.sum(), WEIGHT_FLOOR), mu, sigma)
    resp, loglik, _ = _e_step(coords, model, [pt.log_pdf for pt in parts])
    return model, parts, resp, loglik


def _parts_e_step(coords, model):
    """The components' ``_Parts`` at ``model`` and its E-step: (parts, resp, log-likelihood)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        parts = [_component_parts(coords, m, sg) for m, sg in zip(model._mu, model._sigma)]
    resp, loglik, _ = _e_step(coords, model, [pt.log_pdf for pt in parts])
    return parts, resp, loglik


def _theta(model):
    """SQUAREM's coordinates of ``model``: its log weights, mu and log sigma in one vector."""
    return np.concatenate([np.log(model.weights), model._mu.ravel(), np.log(model._sigma).ravel()])


def _theta_model(theta, s, p):
    """The model at finite ``theta``, built as ``_em_step`` builds one: the weights are the
    softmax of the log weights, renormalised and floored at WEIGHT_FLOOR."""
    log_w, mu, log_sigma = np.split(theta, [s, s + s * p])
    weights = np.exp(log_w - log_w.max())
    # Divided by the sum twice here and once more by MixtureModel: extrapolated fits depend on
    # that rounding, so none of the three divisions is redundant.
    weights = weights / weights.sum()
    weights = np.maximum(weights / weights.sum(), WEIGHT_FLOOR)
    with np.errstate(over="ignore"):
        sigma = np.exp(log_sigma)
    return _model(weights, mu.reshape(s, p), sigma.reshape(s, p))


def _steplength(r, v):
    """SqS3 steplength -||r|| / ||v||, capped at -1."""
    norm_v = np.sqrt(v @ v)
    return min(-1.0, -np.sqrt(r @ r) / norm_v) if norm_v > 0.0 else -1.0


def _extrapolate(coords, theta0, theta1, state, floor):
    """The state (model, parts, resp, log-likelihood) at the SQUAREM point of the cycle
    ``theta0`` -> ``theta1`` -> ``state``, or ``state`` itself where that point is not kept;
    a point with a scale below ``floor`` (p,) is not."""
    model, _, _, loglik = state
    r, v = theta1 - theta0, _theta(model) - 2.0 * theta1 + theta0
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = _steplength(r, v)
        theta = theta0 - 2.0 * alpha * r + alpha * alpha * v
    if alpha == -1.0 or not np.isfinite(theta).all():
        return state
    try:
        cand = _theta_model(theta, model.s, model.p)
    except ValueError:
        return state
    if not (cand._sigma >= floor).all():
        return state
    parts, resp, cand_loglik = _parts_e_step(coords, cand)
    if cand_loglik >= loglik and np.isfinite(cand_loglik):
        return cand, parts, resp, cand_loglik
    return state


def _em_single(data, config, seed, strategy, floor):
    """One EM run, (model, trace, converged), with every scale at least ``floor`` (p,).

    Every second step ends a SQUAREM cycle, which ``_extrapolate`` closes unless the cap is reached.
    """
    model = init_params(data, config.s, seed, strategy)
    coords = _coordinate_major(data)
    parts, resp, loglik = _parts_e_step(coords, model)
    trace, thetas = [loglik], []
    for it in range(config.max_iter):
        thetas.append(_theta(model))
        model, parts, resp, loglik = _em_step(coords, model, parts, resp, floor)
        trace.append(loglik)
        if loglik - trace[-2] < REL_TOL * max(1.0, abs(loglik)):
            return model, np.asarray(trace), True
        if len(thetas) == 2 and it + 1 < config.max_iter:
            model, parts, resp, loglik = _extrapolate(coords, *thetas, (model, parts, resp, loglik), floor)
            thetas = []
    return model, np.asarray(trace), False


def em_fit(data, config):
    """Fit a mixture by EM with several independent restarts.

    Restart r is one SQUAREM-accelerated run (see the module docstring) of at
    most ``config.max_iter`` EM steps from seed r of ``spawn_seeds``, started by
    "quantile" for r = 0 and "random-rows" after; ``n_iter`` counts the steps of
    the returned run, and ``loglik_trace`` holds its start and one entry per step.
    Returns the restart with the best final log-likelihood; ties closer than 1e-12
    go to the lowest restart index.  Fewer than s distinct rows raise a ValueError.
    """
    data = as_dataset(data)
    n_distinct = _distinct_rows(data).shape[0]
    if n_distinct < config.s:
        raise ValueError("data has %d distinct rows, fewer than s=%d" % (n_distinct, config.s))
    floor = SCALE_FLOOR * _moment_scale(data)
    best = None
    for r, restart_seed in enumerate(spawn_seeds(config.seed, config.n_restarts)):
        strategy = "quantile" if r == 0 else "random-rows"
        model, trace, converged = _em_single(data, config, restart_seed, strategy, floor)
        if best is None or trace[-1] > best[0] + 1e-12:
            best = (trace[-1], model, trace, converged)
    _, model, trace, converged = best
    return FitResult(model=model, loglik_trace=trace, converged=converged, n_iter=len(trace) - 1)
