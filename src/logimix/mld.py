"""Multivariate logistic distribution (MLD) with per-coordinate location and scale.

The standard p-dimensional form has joint cdf

    L(x) = [1 + sum_k exp(-x_k)]^(-1)

and density

    l(x) = p! * exp(-sum_k x_k) * [1 + sum_k exp(-x_k)]^(-(p+1)).

The location-scale extension evaluates both at the standardized residuals
z_k = (x_k - mu_k) / sigma_k, the density picking up a 1/prod(sigma) factor.
All coordinates share the unit-scale logistic marginal after standardization.

Points are arrays whose last axis holds the p coordinates; an input of shape
(..., p) yields an output of shape (...).  For p == 1 plain scalars and flat
arrays are accepted and treated elementwise.

Both formulas are written once, and both kernels take the coordinates
coordinate-major, with p leading, so every sum or maximum over the p
coordinates is p - 1 elementwise passes over whole arrays rather than a
length-p reduction per point.  ``_log_pdf_parts`` gives the log density of a
(p, ...) point array, with the (p, ...) standardized residuals and
log(1 + sum_k exp(-z_k)) that the fitting code's derivatives reuse.  ``_cdf``
gives the cdf in its direct form 1 / (1 + sum_k exp((mu_k - x_k) / sigma_k))
and takes a sequence of p coordinate arrays that broadcast together: the rows
of a (p, ...) point array, or the open per-axis vectors of a tensor grid
(``np.ix_``), on which each exponential is taken once per axis node.  The
public functions here, the mixture functions, the EM code and the
identifiability grids validate their (..., p) input and move its coordinate
axis to the front before calling these kernels (the log-density callers
through ``_coordinate_major``, which also makes the array contiguous); the
``standard_*`` functions are the location-scale ones at mu = 0, sigma = 1.
"""

from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from math import lgamma

import numpy as np

from ._util import _require_counts, _require_index, log1p_sum_exp_neg, open_uniform, rng_from_seed


@dataclass(frozen=True, eq=False)
class MldParams:
    """Location vector ``mu`` and strictly positive scale vector ``sigma``.

    Both arrays must be 1-D of equal length p >= 1 with finite entries.  Each is
    stored as a read-only copy, which later writes to the caller's array do not reach.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float, ndmin=1)
        sigma = np.array(self.sigma, dtype=float, ndmin=1)
        if mu.ndim != 1 or sigma.ndim != 1:
            raise ValueError("mu and sigma must be 1-D vectors")
        if mu.shape != sigma.shape:
            raise ValueError(
                "mu and sigma must have equal length, got %d and %d"
                % (mu.size, sigma.size)
            )
        if mu.size < 1:
            raise ValueError("dimension must be at least 1")
        if not np.isfinite(mu).all():
            raise ValueError("mu must be finite")
        if not np.isfinite(sigma).all() or (sigma <= 0.0).any():
            raise ValueError("sigma must be finite and strictly positive")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def p(self):
        return self.mu.size


def _stack_components(components):
    """The components as a tuple, with their read-only (s, p) ``mu`` and ``sigma`` arrays.

    Row i of each array is component i.  Raises ValueError unless
    ``components`` is a non-empty sequence of MldParams that share one
    dimension.  Every set of components the package accepts passes here.
    """
    comps = tuple(components) if isinstance(components, Iterable) else ()
    if not comps or not all(isinstance(c, MldParams) for c in comps):
        raise ValueError("components must be a non-empty sequence of MldParams")
    dims = sorted({c.p for c in comps})
    if len(dims) > 1:
        raise ValueError("components must share one dimension, got p in %s" % dims)
    mu = np.array([c.mu for c in comps])
    sigma = np.array([c.sigma for c in comps])
    mu.setflags(write=False)
    sigma.setflags(write=False)
    return comps, mu, sigma


def _as_points(x, p):
    """Validate and reshape point input to (..., p)."""
    x = np.asarray(x, dtype=float)
    if p == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    if x.ndim == 0 or x.shape[-1] != p:
        raise ValueError(
            "point has %s coordinates, expected %d"
            % (x.shape[-1] if x.ndim else "scalar", p)
        )
    if not np.isfinite(x).all():
        raise ValueError("point coordinates must be finite")
    return x


def _scalar_or_array(values):
    values = np.asarray(values)
    return float(values) if values.ndim == 0 else values


def _coordinate_major(x):
    """Validated (..., p) points as a C-contiguous (p, ...) array."""
    return np.ascontiguousarray(x.transpose(-1, *range(x.ndim - 1)))


def _log_pdf_parts(x, mu, sigma):
    """Log density at coordinate-major points x of shape (p, ...), without input checks.

    This is the only place the MLD log density is written.  ``mu`` and
    ``sigma`` have shape (p, ...) too, with at most x's number of axes, and
    broadcast against x once trailing axes of length 1 are added: a (p,)
    component against (p, ...) points, or the (p, s) locations and scales of s
    components against points (p, 1, n), which gives their (s, n) log
    densities in one call.  It also returns the standardized residuals z,
    shape (p, ...) broadcast, and log(1 + sum_k exp(-z_k)), from which the
    M-step's derivatives are built.  The sums of z and of log sigma run over
    the leading axis left to right, as ``log1p_sum_exp_neg`` does; for p <= 7
    that is the order of numpy's own sum of a length-p vector, so one
    component's values do not depend on which call gave them.

    Far left of the mode, near z_k = -1e308, sum_k z_k and (p + 1) log_denom
    overflow and their difference is not finite; a residual may itself
    overflow to +-inf, or leave the float range inside ``log1p_sum_exp_neg``.
    Only when numpy flags an overflow or an invalid value is the whole
    recomputed with the flags ignored, and the density taken, where it is not
    finite, as -sum_k (z_k + log_denom) - log_denom, whose terms stay small;
    where that is NaN too, a residual is infinite and the density is at its
    -inf limit.  Flagging costs no pass over the points.
    """
    p = x.shape[0]
    shape = mu.shape + (1,) * (x.ndim - mu.ndim)
    mu, sigma = mu.reshape(shape), sigma.reshape(shape)
    log_sigma = reduce(np.add, np.log(sigma))
    try:
        with np.errstate(over="raise", invalid="raise"):
            z = (x - mu) / sigma
            log_denom = log1p_sum_exp_neg(z)
            return lgamma(p + 1) - reduce(np.add, z) - (p + 1) * log_denom - log_sigma, z, log_denom
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):
            z = (x - mu) / sigma
            log_denom = log1p_sum_exp_neg(z)
            direct = lgamma(p + 1) - reduce(np.add, z) - (p + 1) * log_denom - log_sigma
            tail = lgamma(p + 1) - reduce(np.add, z + log_denom) - log_denom - log_sigma
        # fmax takes -inf over NaN, the limit where a residual is infinite.
        return np.where(np.isfinite(direct), direct, np.fmax(tail, -np.inf)), z, log_denom


def _cdf(coords, mu, sigma):
    """Joint cdf 1 / (1 + sum_k exp((mu_k - x_k) / sigma_k)), without input checks.

    ``coords`` is a sequence of p coordinate arrays that broadcast together,
    and the result has their broadcast shape.  This is the only place the MLD
    cdf is written.  An exponential that overflows to +inf gives a cdf of
    exactly 0; every term is non-negative, so no NaN can arise.
    """
    with np.errstate(over="ignore"):
        total = 1.0
        for xk, mk, sk in zip(coords, mu, sigma):
            total = total + np.exp((mk - xk) / sk)
        return 1.0 / total


def standard_cdf(x):
    """Joint cdf of the standard MLD: [1 + sum_k exp(-x_k)]^(-1)."""
    p = np.shape(np.atleast_1d(x))[-1]
    return mld_cdf(x, MldParams(np.zeros(p), np.ones(p)))


def standard_log_pdf(x):
    """log of the standard MLD density."""
    p = np.shape(np.atleast_1d(x))[-1]
    return mld_log_pdf(x, MldParams(np.zeros(p), np.ones(p)))


def standard_pdf(x):
    """Density of the standard MLD: p! exp(-sum x_k) [1 + sum exp(-x_k)]^(-(p+1))."""
    return _scalar_or_array(np.exp(standard_log_pdf(x)))


def mld_cdf(x, params):
    """Location-scale MLD cdf: the standard cdf of (x - mu) / sigma."""
    x = _as_points(x, params.p)
    return _scalar_or_array(_cdf(x.transpose(-1, *range(x.ndim - 1)), params.mu, params.sigma))


def mld_log_pdf(x, params):
    """Log density of the location-scale MLD, stable for extreme residuals."""
    x = _as_points(x, params.p)
    return _scalar_or_array(_log_pdf_parts(_coordinate_major(x), params.mu, params.sigma)[0])


def mld_pdf(x, params):
    """Density of the location-scale MLD."""
    return _scalar_or_array(np.exp(mld_log_pdf(x, params)))


def marginal_cdf(xk, params, k):
    """Univariate logistic cdf of coordinate ``k`` (0-based).

    Equals the joint cdf with every other coordinate sent to +infinity.
    """
    k = _require_index("k", k)
    if k >= params.p:
        raise ValueError("coordinate index %d out of range for p=%d" % (k, params.p))
    xk = np.asarray(xk, dtype=float)
    if not np.all(np.isfinite(xk)):
        raise ValueError("coordinate value must be finite")
    return _scalar_or_array(_cdf((xk,), params.mu[k:k + 1], params.sigma[k:k + 1]))


def conditional_quantile(u, s_accum, j):
    """Invert the prefix-conditional cdf of the standardized distribution.

    Given the first j standardized coordinates, with accumulated
    s = 1 + sum_{k<=j} exp(-z_k), the next coordinate has conditional cdf
    F(z) = (s / (s + exp(-z)))^(j+1).  For a uniform draw ``u`` this returns

        b = s * (u^(-1/(j+1)) - 1) = exp(-z),

    so the new coordinate is z = -log(b).
    """
    u = np.asarray(u, dtype=float)
    s_accum = np.asarray(s_accum, dtype=float)
    # Written so that NaN fails the checks.
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("u must lie strictly inside (0, 1)")
    if not np.all(s_accum >= 1.0):
        raise ValueError("s_accum must be at least 1")
    j = _require_index("j", j)
    # expm1 keeps precision as u -> 1 where b -> 0.
    out = s_accum * np.expm1(-np.log(u) / (j + 1.0))
    return _scalar_or_array(out)


def sample(params, n, seed):
    """Draw ``n`` exact samples, shape (n, p).

    Coordinates are generated sequentially: coordinate j+1 comes from
    ``conditional_quantile`` with the running prefix sum, then the standardized
    vector is mapped through x = mu + sigma * z.  Deterministic given ``seed``.
    """
    _require_counts(n=n)
    rng = rng_from_seed(seed)
    p = params.p
    u = open_uniform(rng, (n, p))
    z = np.empty((n, p))
    s_accum = np.ones(n)
    for j in range(p):
        b = conditional_quantile(u[:, j], s_accum, j)
        z[:, j] = -np.log(b)
        s_accum = s_accum + b
    return params.mu + params.sigma * z
