"""Maximum-likelihood fitting of logistic mixtures via generalized EM.

There is no closed-form M-step for logistic components, so each M-step takes
one safeguarded Newton step per component in (mu, log sigma), on the analytic
gradient and Hessian of the responsibility-weighted log density: the
EM-gradient algorithm (Lange 1995, JRSS-B).  A Levenberg shift is added
whenever the negated Hessian is not positive definite, and the step is halved
until it improves the objective.  A trial scale below SCALE_FLOOR * m_k
(``_moment_scale``) is raised to it, a projection onto the floor that bounds
the likelihood as in Hathaway's constrained MLE (1985, Ann. Stat.).  Every
accepted step therefore improves the expected complete-data objective, which
keeps the observed log-likelihood monotone up to floating-point slack
(generalized EM).

The M-step is array code over a component axis.  ``_component_parts`` gives
the s components' log densities and the other per-row arrays of their
derivatives in one ``_log_pdf_parts`` call, ``_weighted_obj_derivs`` their
(s,) objectives, (s, 2p) gradients and (s, 2p, 2p) Hessians through batched
``matmul``, and ``_ascend`` takes every component's step at once, with one
parts call per round of step halving; only the Cholesky solve
(``_newton_direction``) runs once per component.  Each component's step is
bit for bit the one it would take alone.

One EM step (``_em_step``) is that M-step and then the E-step at its result.
A run (``_em_single``) is the E-step of its start and then SQUAREM cycles
(Varadhan & Roland 2008, Scand. J. Stat.) of that step F on
theta = (log weights, mu, log sigma), the vector that ``mixture._to_theta``
writes and ``mixture._from_theta`` reads back.  A cycle takes two steps,
theta1 = F(theta0) and theta2 = F(theta1), and extrapolates to
theta0 - 2 alpha r + alpha^2 v, with r = theta1 - theta0,
v = theta2 - 2 theta1 + theta0 and the SqS3 steplength alpha = -||r||/||v||
capped at -1 (alpha = -1 is theta2 itself).  That point is read by
``_from_theta``, whose weights are ``_renormalised_twice`` as a step's are,
and kept only if it is a valid model above the scale floor and its
log-likelihood is finite and at least theta2's; otherwise the cycle ends at
theta2 (the monotone fallback).  Only steps count: the trace holds
the start and one entry per step, and an extrapolation's E-step is neither a
step nor an entry.  The run stops once a step's entry exceeds the one before
it by less than REL_TOL * max(1, |log-likelihood|) (converged), a rise that
after a kept extrapolation includes the extrapolation's gain, or once
max_iter steps are taken (not converged).  A run keeps its state as arrays
(``_State``: weights, mu, the parts, whose sigma is the scales, and the
E-step's responsibilities and log-likelihood) and builds its MixtureModel once,
at the end.
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._util import _require_counts, log_sum_exp, rng_from_seed, spawn_seeds
from .mixture import (
    MixtureModel, _component_log_pdfs, _from_theta, _model, _renormalised_twice, _stored_model,
    _to_theta, _weighted_log_pdfs, as_dataset,
)
from .mld import _as_points, _coordinate_major, _log_pdf_parts

INIT_STRATEGIES = ("quantile", "random-rows")

# EM stops once an iteration raises the log-likelihood by less than this
# fraction of max(1, |log-likelihood|).
REL_TOL = 1e-8

# Standard deviation of the unit-scale logistic law is pi/sqrt(3); the moment
# rule for initial scales inverts that.
LOGISTIC_SD_FACTOR = np.sqrt(3.0) / np.pi

# Every fitted sigma_ik is at least SCALE_FLOOR * m_k, m_k the moment-rule scale of
# coordinate k, so the floor scales with the data.  At the floor a row adds about
# p log(1e6) = 13.8 p nats over the start, while every fit-ref and fit-batch fit
# (seeds 1, 3, 5) ends above 0.34 m_k.
SCALE_FLOOR = 1e-6

# First nonzero Levenberg shift of the Newton M-step; it is doubled until the
# shifted matrix is positive definite.
LEVENBERG_SEED = 1e-8

# A Newton M-step whose gradient norm is below this takes no step and skips the
# Cholesky solve.  On every fit measured the predicted-gain rule refused those
# steps anyway; the early exit only saves the solve, which is measurable on many
# small fits.
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
    log_pdfs = _component_log_pdfs(_coordinate_major(np.atleast_2d(x)), model)
    resp, _, n_underflow = _e_step(model.weights, log_pdfs)
    if n_underflow:
        warnings.warn(
            "all mixture components underflowed; returning uniform responsibilities",
            RuntimeWarning,
        )
    return resp.transpose(*range(1, resp.ndim), 0).reshape(x.shape[:-1] + (model.s,))


def component_log_pdf_grad(x, params):
    """Gradient of the component log density wrt (mu, log sigma).

    With z_k = (x_k - mu_k)/sigma_k and w_k = exp(-z_k)/(1 + sum_j exp(-z_j)),
    read from ``_component_parts`` (a stack of one) as in the M-step:

        d/d mu_k       = (1/sigma_k) * (1 - (p+1) w_k)
        d/d log sigma_k = z_k * (1 - (p+1) w_k) - 1

    A point with a residual z_k beyond the float range raises a ValueError: there the
    log sigma derivative is infinite, and with several residuals at -inf the mu
    derivatives are undetermined.
    """
    x = _as_points(x, params.p)
    coords = _coordinate_major(x.reshape(-1, params.p))
    with np.errstate(over="ignore"):
        z = (coords - params.mu[:, None]) / params.sigma[:, None]
    if not np.isfinite(z).all():
        raise ValueError("x has a standardized residual (x - mu) / sigma beyond the float range")
    parts = _component_parts(coords, params.mu[None], params.sigma[None])
    base = 1.0 - (params.p + 1) * parts.w[:, 0]
    return tuple(g.T.reshape(x.shape) for g in (base / params.sigma[:, None], parts.z[:, 0] * base - 1.0))


# The arrays of s components, each at its own (mu, sigma), that do not depend on the
# responsibilities: sigma (s, p), the log densities (s, n), z and w (p, s, n) and the
# stacked (2p, s, n) [w / sigma; z w], with z and w as in ``_weighted_obj_derivs``.
# Component i is row i of sigma and log_pdf and column i of the rest.
_Parts = namedtuple("_Parts", "sigma log_pdf z w stacked")


def _component_parts(data, mu, sigma):
    """The ``_Parts`` of the components whose rows are those of (s, p) ``mu`` and
    ``sigma`` at coordinate-major points ``data`` (p, n), from one ``_log_pdf_parts`` call.

    ``sigma`` is kept as given, so it must not be written to afterwards.
    """
    log_pdf, z, log_denom = _log_pdf_parts(data[:, None], mu.T, sigma.T)
    w = np.exp(-z - log_denom)
    stacked = np.concatenate([w / sigma.T[:, :, None], z * w])
    return _Parts(sigma, log_pdf, z, w, stacked)


def _replace(mu, parts, taken):
    """Copies of (s, p) ``mu`` and of ``parts`` in which, for each (idx, cand_mu, cand, rows)
    of ``taken``, components ``idx`` are ``cand_mu`` and the components ``rows`` of ``cand``."""
    mu = mu.copy()
    sigma, log_pdf, z, w, stacked = (a.copy() for a in parts)
    for idx, cand_mu, cand, rows in taken:
        mu[idx], sigma[idx], log_pdf[idx] = cand_mu, cand.sigma[rows], cand.log_pdf[rows]
        for a, b in ((z, cand.z), (w, cand.w), (stacked, cand.stacked)):
            a[:, idx] = b[:, rows]
    return mu, _Parts(sigma, log_pdf, z, w, stacked)


def _row_dots(a, b):
    """The (s,) dot products of the rows of (s, k) ``a`` and ``b``, each the BLAS dot
    that ``a[i] @ b[i]`` would give."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


@lru_cache(maxsize=None)
def _correction_index(p):
    """Row and column indices of the Hessian entries (mu_k, mu_k), (mu_k, log sigma_k),
    (log sigma_k, log sigma_k) and (log sigma_k, mu_k), k < p, in that order."""
    k = np.arange(p)
    return np.concatenate([k, k, p + k, p + k]), np.concatenate([k, p + k, p + k, k])


def _weighted_obj_derivs(resp, parts):
    """The (s,) objectives, (s, 2p) gradients and (s, 2p, 2p) Hessians of the M-step
    in (mu, log sigma), one per component.

    The objective is the responsibility-weighted mean log density, which has
    the same maximizer as the weighted sum and keeps the natural Newton step
    near unity regardless of the dataset size.  Parameters are ordered
    (mu_1, ..., mu_p, log sigma_1, ..., log sigma_p).  ``resp`` holds the
    (s, n) responsibilities and ``parts`` the components' ``_component_parts``
    at (mu, exp(log sigma)).  With
    z = (x - mu)/sigma, w_k = exp(-z_k)/(1 + sum_j exp(-z_j)) and
    g_k = (p+1) w_k - 1, a row's log density has z-gradient g and z-Hessian
    H_z = (p+1)(w w' - diag w), so

        H = J' H_z J + sum_k g_k Hess(z_k)

    with dz_k/dmu_k = -1/sigma_k, dz_k/dlog sigma_k = -z_k,
    d2z_k/dmu_k dlog sigma_k = 1/sigma_k and d2z_k/dlog sigma_k^2 = z_k.
    J' H_z J is (p+1)(u u' - J' diag(w) J) with u = -J' w.  Per component,
    w, z and z w are (p, n) arrays and u is the stacked (2p, n)
    [w / sigma; z w] up to sign, so the weighted sum of u u' is one
    (2p, n) x (n, 2p) product, (stacked * r) @ stacked', and the diagonal
    terms are (p, n) x (n,) products; no per-row 2p x 2p array is formed.
    Every product is one batched ``matmul`` over the components, which calls
    BLAS once per component exactly as the 2-D product would, so on the
    C-contiguous responsibilities that the E-step gives, a component's
    derivatives do not depend on which others share the call.
    The Hessian is symmetric only up to rounding; ``_newton_direction``
    reads the upper triangle alone, and each cross correction is subtracted
    from both off-diagonal blocks in one scatter.
    """
    sigma, log_pdf, z, w, stacked = parts
    p = sigma.shape[1]
    zw = stacked[p:]
    total = resp.sum(axis=1)
    obj = _row_dots(resp, log_pdf) / total
    rw, rzw, rz, rzzw = (np.matmul(a.transpose(1, 0, 2), resp[:, :, None])[..., 0]
                         for a in (w, zw, z, zw * z))
    total = total[:, None]
    rg = (p + 1) * rw - total  # sum_i r_i g_ik
    rzg = (p + 1) * rzw - rz  # sum_i r_i z_ik g_ik
    grad = -np.concatenate([rg / sigma, rzg + total], axis=1) / total
    hess = (p + 1) * np.matmul((stacked * resp).transpose(1, 0, 2), stacked.transpose(1, 2, 0))
    cross = ((p + 1) * rzw - rg) / sigma
    hess[(slice(None),) + _correction_index(p)] -= np.concatenate(
        [(p + 1) * rw / sigma**2, cross, (p + 1) * rzzw - rzg, cross], axis=1
    )
    hess /= total[:, :, None]
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


def _ascend(data, resp, mu, parts, floor):
    """One safeguarded Newton step of each component's M-step objective in (mu, log sigma).

    ``data`` is coordinate-major, shape (p, n), as ``_component_parts`` takes
    it; ``resp`` holds the (s, n) responsibilities, ``mu`` the (s, p)
    locations and ``parts`` the components' parts at the start (mu, sigma).
    Returns the new (s, p) mu and its parts, whose ``sigma`` holds the new
    scales; without any step, ``mu`` and ``parts`` themselves.  Each
    component's step is the one it would take alone, bit for bit: the
    derivatives and the trial points are batched over the components, and
    only the Cholesky solve runs per component.  Component i's direction
    solves (lam I - H_i) d = g_i at the start, where lam is a Levenberg shift
    added (and doubled) only while -H_i is not positive definite or not
    finite; a large shift turns d into a scaled gradient step.  The step
    length is halved from 1 until the component's objective improves; the
    components still halving form a shrinking set, and each round's trial
    points are one ``_component_parts`` call.  A trial scale is
    max(exp(log sigma), ``floor``) (p,): a step that points below the floor
    is projected onto it, not refused, so a scale on the floor does not
    stall the step in mu.  A trial point gets its parts only, which the
    E-step and the next M-step read; derivatives there would be wasted, as
    the next M-step has new responsibilities.  Only an improving step is
    taken, so no objective decreases and the observed log-likelihood stays
    monotone (generalized EM).  A component takes no step when its predicted
    gain g'd/2 is below its objective's rounding error (or, before solving,
    when its gradient norm is below NEWTON_GTOL), or when no step length
    down to 2**-60 improves.  A component whose responsibilities are all
    exactly 0 has the objective 0/0, so the gradient check stops it at once
    and it keeps its (mu, sigma).
    """
    s, p = mu.shape
    # Typical rounding error of a mean of n terms: a smaller gain cannot be
    # told apart from noise, and searching for it only burns evaluations.
    noise = np.finfo(float).eps * np.sqrt(data.shape[1])
    # Trial points may overflow; a non-finite objective is never accepted.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        obj, grad, hess = _weighted_obj_derivs(resp, parts)
        d = np.zeros_like(grad)
        steps = np.sqrt(_row_dots(grad, grad)) >= NEWTON_GTOL
        for i in np.flatnonzero(steps):
            d[i] = _newton_direction(grad[i], hess[i])
        # fmax, like max(1.0, |obj|), takes 1 over a NaN objective.
        steps &= 0.5 * _row_dots(grad, d) > noise * np.fmax(1.0, np.abs(obj))
        theta, total = np.concatenate([mu, np.log(parts.sigma)], axis=1), resp.sum(axis=1)
        halving, taken = np.flatnonzero(steps), []
        for k in range(61):
            if not halving.size:
                break
            cand = theta[halving] + 0.5**k * d[halving]
            cand_parts = _component_parts(data, cand[:, :p], np.maximum(np.exp(cand[:, p:]), floor))
            better = _row_dots(resp[halving], cand_parts.log_pdf) / total[halving] > obj[halving]
            if better.all() and halving.size == s:
                return cand[:, :p], cand_parts
            if better.any():
                taken.append((halving[better], cand[better, :p], cand_parts, better))
            halving = halving[~better]
    return _replace(mu, parts, taken) if taken else (mu, parts)


def _moment_scale(data):
    """Moment-rule scale std * sqrt(3)/pi of each coordinate of (n, p) ``data``; 1e-6 where
    that is 0, as for a constant coordinate.

    A coordinate of small but nonzero spread keeps its own scale, so the scale floor
    ``SCALE_FLOOR * _moment_scale`` stays relative to the data at any magnitude.
    """
    # Scaling each column by a power of two near its largest |x| keeps the
    # squared deviations finite and, barring subnormal entries, leaves the
    # result bit-for-bit unchanged.
    _, exponent = np.frexp(np.max(np.abs(data), axis=0))
    spread = np.ldexp(np.ldexp(data, -exponent).std(axis=0), exponent)
    scale = spread * LOGISTIC_SD_FACTOR
    return np.where(scale > 0.0, scale, 1e-6)


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
        # Halved so that interpolating near +-max float cannot overflow; exact barring subnormals.
        centers = 2.0 * np.quantile(0.5 * data, qs, axis=0)
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


def _e_step(weights, log_pdfs):
    """Responsibilities, log-likelihood and number of underflowed rows.

    ``weights`` are the (s,) mixture weights and ``log_pdfs`` the (s, ...)
    component log densities, component-major like the responsibilities and
    like ``_weighted_log_pdfs``, which combines the two.  A row's
    log-likelihood is ``log_sum_exp`` of its weighted log densities, as in
    ``mixture_log_pdf``, and its responsibilities are that kernel's shifted
    exponentials divided by their sum, so no second exponential is taken.  A
    row at which every component density underflows to zero gets uniform
    responsibilities and adds -1e300 to the log-likelihood, which keeps EM
    traces finite and comparable.
    """
    with np.errstate(over="ignore", divide="ignore"):
        row_ll, resp, total = log_sum_exp(_weighted_log_pdfs(weights, log_pdfs))
    bad = ~np.isfinite(row_ll)
    if bad.any():
        resp[:, bad] = np.exp(-np.log(weights.size))
        total[bad] = 1.0
        row_ll[bad] = -1e300
    resp /= total
    return resp, float(row_ll.sum()), int(bad.sum())


# A point of an EM run: the (s,) weights a MixtureModel of it stores, the (s, p) mu,
# the components' ``_Parts`` (whose sigma is the (s, p) sigma), and its E-step's (s, n)
# responsibilities and log-likelihood.
_State = namedtuple("_State", "weights mu parts resp loglik")


def _em_step(coords, state, floor):
    """The ``_State`` one EM step after ``state``: the M-step from its responsibilities,
    then the E-step at the result.

    The Newton steps start from the state's parts, so parts are computed only at trial
    points, and the E-step reads its log densities from them.  No scale goes below
    ``floor`` (p,).
    """
    mu, parts = _ascend(coords, state.resp, state.mu, state.parts, floor)
    weights = _renormalised_twice(state.resp.sum(axis=1) / coords.shape[1])
    resp, loglik, _ = _e_step(weights, parts.log_pdf)
    return _State(weights, mu, parts, resp, loglik)


def _parts_e_step(coords, weights, mu, sigma):
    """The ``_State`` of the components with (s, p) ``mu`` and ``sigma`` and the (s,)
    ``weights``."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        parts = _component_parts(coords, mu, sigma)
    resp, loglik, _ = _e_step(weights, parts.log_pdf)
    return _State(weights, mu, parts, resp, loglik)


def _theta(state):
    """SQUAREM's coordinates of ``state``: ``mixture._to_theta`` of its arrays."""
    return _to_theta(state.weights, state.mu, state.parts.sigma)


def _steplength(r, v):
    """SqS3 steplength -||r|| / ||v||, capped at -1."""
    norm_v = np.sqrt(v @ v)
    return min(-1.0, -np.sqrt(r @ r) / norm_v) if norm_v > 0.0 else -1.0


def _extrapolate(coords, theta0, theta1, state, floor):
    """The ``_State`` at the SQUAREM point of the cycle ``theta0`` -> ``theta1`` -> ``state``,
    or ``state`` itself where that point is not kept; a point with a scale below ``floor``
    (p,) is not."""
    r, v = theta1 - theta0, _theta(state) - 2.0 * theta1 + theta0
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = _steplength(r, v)
        theta = theta0 - 2.0 * alpha * r + alpha * alpha * v
    if alpha == -1.0 or not np.isfinite(theta).all():
        return state
    try:
        weights, mu, sigma = _from_theta(theta, *state.mu.shape)
    except ValueError:
        return state
    if not (sigma >= floor).all():
        return state
    cand = _parts_e_step(coords, weights, mu, sigma)
    if cand.loglik >= state.loglik and np.isfinite(cand.loglik):
        return cand
    return state


def _em_single(data, config, seed, strategy, floor):
    """One EM run, (model, trace, converged), with every scale at least ``floor`` (p,).

    The run's state is arrays (``_State``); its model is built once, at the end.  Every
    second step ends a SQUAREM cycle, which ``_extrapolate`` closes unless the cap is reached.
    """
    start = init_params(data, config.s, seed, strategy)
    coords = _coordinate_major(data)
    state = _parts_e_step(coords, start.weights, start._mu, start._sigma)
    trace, thetas, converged = [state.loglik], [], False
    for it in range(config.max_iter):
        thetas.append(_theta(state))
        state = _em_step(coords, state, floor)
        trace.append(state.loglik)
        if state.loglik - trace[-2] < REL_TOL * max(1.0, abs(state.loglik)):
            converged = True
            break
        if len(thetas) == 2 and it + 1 < config.max_iter:
            state = _extrapolate(coords, *thetas, state, floor)
            thetas = []
    return _stored_model(state.weights, state.mu, state.parts.sigma), np.asarray(trace), converged


def em_fit(data, config):
    """Fit a mixture by EM with several independent restarts.

    Restart r is one SQUAREM-accelerated run (see the module docstring) of at
    most ``config.max_iter`` EM steps from seed r of ``spawn_seeds``, started by
    "quantile" for r = 0 and "random-rows" after; ``n_iter`` counts the steps of
    the returned run, and ``loglik_trace`` holds its start and one entry per step.
    Returns the restart with the best final log-likelihood; ties closer than 1e-12
    go to the lowest restart index.  Fewer than s distinct rows raise a ValueError, as
    does data whose scale floor (SCALE_FLOOR * ``_moment_scale``) is not a normal float.
    """
    data = as_dataset(data)
    n_distinct = _distinct_rows(data).shape[0]
    if n_distinct < config.s:
        raise ValueError("data has %d distinct rows, fewer than s=%d" % (n_distinct, config.s))
    floor = SCALE_FLOOR * _moment_scale(data)
    if (floor < np.finfo(float).tiny).any():
        raise ValueError("data spreads too little to fit: its scale floor %s is not a normal float" % floor)
    best = None
    for r, restart_seed in enumerate(spawn_seeds(config.seed, config.n_restarts)):
        strategy = "quantile" if r == 0 else "random-rows"
        model, trace, converged = _em_single(data, config, restart_seed, strategy, floor)
        if best is None or trace[-1] > best[0] + 1e-12:
            best = (trace[-1], model, trace, converged)
    _, model, trace, converged = best
    return FitResult(model=model, loglik_trace=trace, converged=converged, n_iter=len(trace) - 1)
