"""Independent oracle implementations used by the test suite.

Everything here is written from the defining formulas directly (finite
differences, quadrature, alternative stochastic representations) so that the
library code paths under test are never reused as their own reference.
"""

import decimal
import itertools
import math

import numpy as np
from scipy.integrate import dblquad, quad


def logistic_cdf(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -700, 700)))


def decimal_mld_cdf(x, mu, sigma, digits=40):
    """Joint cdf [1 + sum_k exp(-(x_k - mu_k)/sigma_k)]^(-1) in ``digits``-digit decimal arithmetic.

    The float inputs convert to decimals exactly, so the only error is the
    decimal rounding, far below double precision.  Returns a float.
    """
    ctx = decimal.Context(prec=digits)
    total = decimal.Decimal(1)
    for xk, mk, sk in zip(x, mu, sigma):
        z = ctx.divide(ctx.subtract(decimal.Decimal(float(xk)), decimal.Decimal(float(mk))),
                       decimal.Decimal(float(sk)))
        total = ctx.add(total, ctx.exp(-z))
    return float(ctx.divide(decimal.Decimal(1), total))


def decimal_mld_log_pdf(x, mu, sigma, digits=40):
    """Log density log p! - sum_k z_k - (p+1) log(1 + sum_k exp(-z_k)) - sum_k log sigma_k,
    z_k = (x_k - mu_k)/sigma_k, in ``digits``-digit decimal arithmetic.

    As in ``decimal_mld_cdf`` the float inputs convert exactly, so the only
    error is the decimal rounding.  Returns a float.
    """
    ctx = decimal.Context(prec=digits)
    p = len(x)
    total = decimal.Decimal(1)
    z_sum = decimal.Decimal(0)
    log_sigma_sum = decimal.Decimal(0)
    for xk, mk, sk in zip(x, mu, sigma):
        dsk = decimal.Decimal(float(sk))
        z = ctx.divide(ctx.subtract(decimal.Decimal(float(xk)), decimal.Decimal(float(mk))), dsk)
        total = ctx.add(total, ctx.exp(-z))
        z_sum = ctx.add(z_sum, z)
        log_sigma_sum = ctx.add(log_sigma_sum, ctx.ln(dsk))
    log_factorial = ctx.ln(decimal.Decimal(math.factorial(p)))
    out = ctx.subtract(log_factorial, z_sum)
    out = ctx.subtract(out, ctx.multiply(decimal.Decimal(p + 1), ctx.ln(total)))
    return float(ctx.subtract(out, log_sigma_sum))


def frailty_sample(params, n, rng):
    """Alternative exact sampler: X_k = mu_k + sigma_k * (ln V - ln E_k).

    V and E_1..E_p are iid standard exponentials; integrating the conditional
    product of Gumbel factors over V reproduces the joint cdf
    [1 + sum exp(-z_k)]^(-1).
    """
    p = params.mu.size
    V = rng.exponential(size=n)
    E = rng.exponential(size=(n, p))
    return params.mu + params.sigma * (np.log(V)[:, None] - np.log(E))


def rosenblatt_uniforms(draws, params):
    """Map draws through the successive conditional cdfs of the joint law.

    u_1 is the logistic cdf of z_1; u_{j+1} = (S_j / (S_j + e^{-z_{j+1}}))^(j+1)
    with S_j = 1 + sum_{k<=j} e^{-z_k}.  Exact sampling makes every column
    uniform on (0, 1).
    """
    z = (draws - params.mu) / params.sigma
    b = np.exp(-z)
    p = z.shape[1]
    u = np.empty_like(z)
    u[:, 0] = 1.0 / (1.0 + b[:, 0])
    S = 1.0 + b[:, 0]
    for j in range(1, p):
        u[:, j] = (S / (S + b[:, j])) ** (j + 1)
        S = S + b[:, j]
    return u


def mixed_central_fd(cdf, x, steps):
    """p-th mixed central finite difference of a joint cdf at point x.

    Sum over the 2^p corner sign patterns of cdf(x + s*h/...), divided by the
    product of the step widths; approximates the mixed partial, i.e. the
    density.
    """
    p = len(x)
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=p):
        pt = np.asarray(x, float) + 0.5 * np.asarray(signs) * steps
        parity = int(np.sum(np.asarray(signs) < 0))
        total += ((-1.0) ** parity) * cdf(pt)
    return total / np.prod(steps)


def fd_log_pdf_gradients(log_pdf, x, mu, sigma, step=1e-6):
    """Central finite differences of log_pdf(x; mu, sigma) wrt mu and log sigma."""
    p = mu.size
    grad_mu = np.empty(p)
    grad_ls = np.empty(p)
    for k in range(p):
        dm = np.zeros(p)
        dm[k] = step
        grad_mu[k] = (log_pdf(x, mu + dm, sigma) - log_pdf(x, mu - dm, sigma)) / (2 * step)
        ls = np.log(sigma)
        dls = np.zeros(p)
        dls[k] = step
        grad_ls[k] = (
            log_pdf(x, mu, np.exp(ls + dls)) - log_pdf(x, mu, np.exp(ls - dls))
        ) / (2 * step)
    return grad_mu, grad_ls


def quad_normalization_1d(pdf, mu, sigma, span=60.0):
    lo, hi = mu[0] - span * sigma[0], mu[0] + span * sigma[0]
    val, _ = quad(lambda t: pdf(np.array([t])), lo, hi, limit=200)
    return val


def quad_normalization_2d(pdf, mu, sigma, span=60.0):
    lo = mu - span * sigma
    hi = mu + span * sigma
    val, _ = dblquad(
        lambda y, x: pdf(np.array([x, y])),
        lo[0], hi[0], lo[1], hi[1],
        epsabs=1e-9, epsrel=1e-9,
    )
    return val


def mc_normalization_ratio(draws, params, log_pdf_values, bl=0.5, bu=1.0):
    """Density-to-sampler consistency ratio, mean 1 when both are correct.

    Averages g(X)/pdf(X) over draws X from the model, with g a fully known
    normalized density: a product of two-piece logistic densities in the
    standardized coordinates (scale ``bl`` below 0, ``bu`` above), chosen so
    the ratio has finite variance against the joint logistic tails.
    """
    z = (draws - params.mu) / params.sigma
    b_side = np.where(z < 0.0, bl, bu)
    t = z / b_side
    log_gk = (
        np.log(2.0 / (bl + bu)) - t - 2.0 * np.logaddexp(0.0, -t)
        - np.log(params.sigma)
    )
    w = np.exp(log_gk.sum(axis=1) - log_pdf_values)
    return float(w.mean()), float(w.std() / np.sqrt(w.size))


def ks_statistic_uniform(u):
    """One-sample KS statistic against the uniform law on (0,1)."""
    u = np.sort(np.asarray(u))
    n = u.size
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - u), np.max(u - (grid - 1.0 / n))))
