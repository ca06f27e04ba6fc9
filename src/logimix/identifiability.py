"""Numerical identifiability checks for logistic mixtures.

Identifiability means distinct parameter multisets induce distinct mixture
distributions.  This module probes that property from several angles:

* Gram matrices of component cdfs under a fixed product-logistic weight
  density -- singular exactly when the component cdfs are linearly dependent.
* Closed-form probes for one-dimensional linear combinations: the tail limit
  recovering the coefficient sum, the sign-flip identity for zero-sum
  combinations, and the node system whose invertibility pins every
  coefficient to zero.
* A dimension-collapse construction merging two coordinates of a shared-scale
  model into one, reducing multivariate questions to fewer coordinates.
* A sup-norm cdf comparison on a fixed grid as the numerical surrogate for
  distribution equality: GRID_POINTS points per axis over every component's
  mu +- GRID_SPAN sigma, for p <= 4.  One kernel, ``_cdf_gaps``, takes pairs in
  bounded blocks; the trial harnesses and the near-collision search for
  per-component scales draw every pair first, then call it once.
"""

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import _require_counts, rng_from_seed, spawn_seed_chunks
from .mixture import _model, model_to_dict
from .mld import _cdf, _scalar_or_array, _stack_components

DISTINCT_GAP = 1e-3     # sup-norm gap above which two mixtures count as distinct
EQUAL_GAP = 1e-9        # sup-norm gap below which they count as equal
PARAM_EQUAL_GAP = 1e-6  # matched parameter gap below which they count as equal
NEAR_GAP = 1e-10        # probe gap below which a separated pair is a counterexample candidate
MIN_PARAM_GAP = 0.1     # separation enforced when drawing "distinct" models
GRID_POINTS = 41        # equality grid points per axis
GRID_SPAN = 10.0        # equality grid half-width, in component scales
GRAM_BLOCK_POINTS = 2**18  # Gram slab points; _cdf_gaps values per (pair x component x point) temporary


@dataclass(frozen=True, eq=False)
class LinearCombination:
    """Coefficients attached to component cdfs, sum_i d_i * L_i; ``coeffs`` is a read-only copy."""

    coeffs: np.ndarray
    components: tuple

    def __post_init__(self):
        comps = _stack_components(self.components)[0]
        coeffs = np.array(self.coeffs, dtype=float, ndmin=1)
        if coeffs.ndim != 1:
            raise ValueError("coeffs must be a vector")
        if len(comps) != coeffs.size:
            raise ValueError("got %d coefficients for %d components" % (coeffs.size, len(comps)))
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "components", comps)

    @property
    def s(self):
        return len(self.components)

    @property
    def p(self):
        return self.components[0].p


@dataclass(frozen=True, eq=False)
class GramReport:
    gram: np.ndarray
    min_eigenvalue: float
    numerical_rank: int
    rank_tol: float
    quadrature_spec: str
    nodes_per_axis: int
    quadrature_converged: bool

    def to_dict(self):
        return {
            "min_eigenvalue": float(self.min_eigenvalue),
            "numerical_rank": int(self.numerical_rank),
            "nodes_per_axis": int(self.nodes_per_axis),
            "rank_tol": float(self.rank_tol),
            "quadrature_converged": bool(self.quadrature_converged),
            "quadrature_spec": self.quadrature_spec,
        }


@dataclass(frozen=True, eq=False)
class EqualityReport:
    sup_norm_cdf_gap: float
    equal_distribution: bool
    matched_permutation: Optional[tuple]
    max_param_gap: float
    equal_parameters: bool

    def __post_init__(self):
        if self.equal_parameters and self.matched_permutation is None:
            raise ValueError("equal_parameters requires a matched permutation")

    def to_dict(self):
        return {
            "sup_norm_cdf_gap": float(self.sup_norm_cdf_gap),
            "equal_distribution": bool(self.equal_distribution),
            "permutation": None if self.matched_permutation is None
            else [int(i) for i in self.matched_permutation],
            "max_param_gap": float(self.max_param_gap),
            "equal_parameters": bool(self.equal_parameters),
        }


@dataclass(frozen=True, eq=False)
class VandermondeReport:
    matrix: np.ndarray
    determinant_sign_ok: bool
    min_singular_value: float
    null_vector: Optional[np.ndarray]
    column_scaled: bool
    dynamic_range_flagged: bool

    def to_dict(self):
        return {
            "determinant_sign_ok": bool(self.determinant_sign_ok),
            "min_singular_value": float(self.min_singular_value),
            "null_vector": None if self.null_vector is None
            else [float(v) for v in self.null_vector],
            "column_scaled": bool(self.column_scaled),
            "dynamic_range_flagged": bool(self.dynamic_range_flagged),
        }


# ---------------------------------------------------------------------------
# Gram matrix of component cdfs


def _unit_gl_nodes(nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def _gram_matrix(mu, sigma, nodes):
    """G_ij = integral of L_i * L_j against the product standard-logistic density.

    The substitution t = logistic_cdf(x) per coordinate absorbs the weight
    into the uniform measure on (0,1)^p, where tensor Gauss-Legendre applies.
    Component i has row i of the (s, p) ``mu`` and ``sigma``.  The grid is
    taken in slabs: a block of first-axis nodes times the full open grid of
    the other p - 1 axes, max(1, GRAM_BLOCK_POINTS // nodes**(p-1)) nodes to
    a block.  On each slab every component cdf is evaluated on the open grid
    of the per-axis nodes, so its exponentials are taken once per axis node
    and each point costs p - 1 additions and one reciprocal; the slab's
    weighted products are added into an s x s accumulator.  Memory is
    O(s * max(GRAM_BLOCK_POINTS, nodes**(p-1))), not O(s * nodes**p).  A grid
    of at most GRAM_BLOCK_POINTS points is a single slab, and its matrix is
    bit-identical to a one-shot evaluation over the whole grid; more slabs
    change only the order of the sums.
    """
    p = mu.shape[1]
    t, w = _unit_gl_nodes(nodes)
    x = np.clip(np.log(t) - np.log1p(-t), -40.0, 40.0)
    block = max(1, GRAM_BLOCK_POINTS // nodes ** (p - 1))
    gram = np.zeros((len(mu), len(mu)))
    for lo in range(0, nodes, block):
        grid = np.ix_(x[lo:lo + block], *([x] * (p - 1)))
        wts = w[lo:lo + block]
        for _ in range(p - 1):
            wts = np.multiply.outer(wts, w)
        wts = wts.ravel()
        vals = np.stack([_cdf(grid, m, sg).ravel() for m, sg in zip(mu, sigma)])
        gram += (vals * wts) @ vals.T
    return 0.5 * (gram + gram.T)


def gram_min_eigenvalue(components, nodes_per_axis=64):
    """Smallest eigenvalue and numerical rank of the component-cdf Gram matrix.

    The weight is a product of standard univariate logistic densities, which
    is strictly positive, so the Gram matrix is singular exactly when the
    cdfs are linearly dependent.  Quadrature convergence is verified by
    doubling nodes; a >10% relative shift of the smallest eigenvalue (beyond
    the rank tolerance) marks the report as not converged.  Both quadratures
    run in slabs (see ``_gram_matrix``), so memory grows with
    s * max(GRAM_BLOCK_POINTS, nodes_per_axis**(p-1)), not s * nodes_per_axis**p:
    about 20 MiB traced for s = 3 at p = 3, at 64 or at 128 nodes.  Every grid of at most
    GRAM_BLOCK_POINTS points, the default 64-node grid at p = 3 among them, is
    one slab and is evaluated exactly as in one pass.
    """
    _require_counts(nodes_per_axis=nodes_per_axis)
    _, mu, sigma = _stack_components(components)
    p = mu.shape[1]
    if p > 3:
        raise ValueError("gram check supports p <= 3 (quadrature cost grows as nodes**p)")
    gram = _gram_matrix(mu, sigma, nodes_per_axis)
    eigs = np.linalg.eigvalsh(gram)
    rank_tol = 1e-8 * eigs[-1]
    refined = np.linalg.eigvalsh(_gram_matrix(mu, sigma, 2 * nodes_per_axis))
    shift = abs(refined[0] - eigs[0])
    converged = shift <= 0.1 * max(abs(eigs[0]), abs(refined[0]), rank_tol)
    return GramReport(
        gram=gram,
        min_eigenvalue=float(eigs[0]),
        numerical_rank=int(np.sum(eigs > rank_tol)),
        rank_tol=float(rank_tol),
        quadrature_spec="gauss-legendre on (0,1)^%d after per-coordinate logistic substitution" % p,
        nodes_per_axis=int(nodes_per_axis),
        quadrature_converged=bool(converged),
    )


# ---------------------------------------------------------------------------
# One-dimensional combination probes


def _combination_values(coeffs, components, x, sign):
    """sum_i d_i / (1 + e^{-sign * (x - mu_i)/sigma_i}) for one-dimensional components.

    Each term is ``mld._cdf`` at sign * x and location sign * mu_i; +-inf give the tail limits.
    """
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("x must not be NaN")
    out = 0.0
    for d, comp in zip(coeffs, components):
        out = out + d * _cdf((sign * x,), sign * comp.mu, comp.sigma)
    return _scalar_or_array(out)


def evaluate_combination(lc, x):
    """sum_i d_i * L_i(x) for one-dimensional components."""
    if lc.p != 1:
        raise ValueError("combination evaluation requires one-dimensional components")
    return _combination_values(lc.coeffs, lc.components, x, 1.0)


def tail_coefficient_sum(lc, x_probe):
    """Combination value far in the right tail, which approaches sum_i d_i.

    Every component cdf tends to 1 as the probe grows, so a combination that
    vanishes identically must have zero coefficient sum.
    """
    return evaluate_combination(lc, float(x_probe))


def reflect_combination(lc):
    """Evaluator with every component cdf reflected: x -> sum_i d_i / (1 + e^{+(x-mu_i)/sigma_i}).

    Requires sum_i d_i = 0; under that condition 1 - 1/(1+e^{-z}) = 1/(1+e^{z})
    makes the reflected evaluator the pointwise negation of the original.
    """
    if lc.p != 1:
        raise ValueError("reflection requires one-dimensional components")
    total = float(np.sum(lc.coeffs))
    if abs(total) > 1e-12:
        raise ValueError(
            "coefficients sum to %.3g; the reflection identity needs a zero sum" % total
        )
    coeffs = lc.coeffs.copy()
    comps = lc.components
    return lambda x: _combination_values(coeffs, comps, x, -1.0)


def vandermonde_check(mus, sigmas):
    """Invertibility of the node system with entries t_i^j, t_i = exp(mu_i/sigma_i).

    Rows run j = 1..k.  Distinct nodes make the matrix an invertible scaled
    Vandermonde system; duplicated nodes produce a null vector, which is
    returned.  Entries beyond the float range, exp(j mu_i/sigma_i) with
    |j mu_i/sigma_i| >= 700, are handled by positive column scaling (rank and
    determinant sign are unaffected); a dynamic range above 1e300 is flagged.
    An exponent j mu_i/sigma_i that is itself beyond the float range raises
    ValueError.
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if mus.shape != sigmas.shape or mus.ndim != 1 or mus.size < 1:
        raise ValueError("mus and sigmas must be equal-length vectors")
    if np.any(sigmas <= 0) or not np.all(np.isfinite(mus)) or not np.all(np.isfinite(sigmas)):
        raise ValueError("sigmas must be positive and all parameters finite")
    k = mus.size
    with np.errstate(over="ignore"):
        r = mus / sigmas
        log_entries = np.outer(np.arange(1, k + 1), r)
        flagged = log_entries.max() - log_entries.min() > 300.0 * np.log(10.0)
    if not np.isfinite(log_entries).all():
        raise ValueError(
            "mus/sigmas: the exponents j * mu_i / sigma_i, j <= %d, overflow the float range" % k
        )
    scaled = log_entries.max() >= 700.0 or log_entries.min() <= -700.0
    col_scale = np.where(r >= 0, k * r, r) if scaled else np.zeros(k)
    matrix = np.exp(log_entries - col_scale)
    u, svals, vt = np.linalg.svd(matrix)
    min_sv, max_sv = svals[-1], svals[0]
    null_vector = None
    if min_sv < 1e-12 * max_sv:
        # Scaled up to a positive constant so that no factor overflows.
        null = vt[-1] * np.exp(col_scale.min() - col_scale)
        norm = np.linalg.norm(null)
        null_vector = null / norm if norm > 0 else vt[-1]
    pred = 1
    for i, j in itertools.combinations(range(k), 2):
        d = r[j] - r[i]
        if d == 0.0:
            pred = 0
            break
        pred *= 1 if d > 0 else -1
    sign = np.linalg.slogdet(matrix)[0]
    sign_ok = (null_vector is not None) if pred == 0 else (sign == pred)
    return VandermondeReport(
        matrix=matrix,
        determinant_sign_ok=bool(sign_ok),
        min_singular_value=float(min_sv),
        null_vector=null_vector,
        column_scaled=bool(scaled),
        dynamic_range_flagged=bool(flagged),
    )


# ---------------------------------------------------------------------------
# Dimension collapse for shared-scale models


def _coordinate_pair(coord_pair, p, too_few):
    """The pair (a, b) as ints, checked against p; ``too_few`` is the p < 2 message."""
    a, b = (int(coord_pair[0]), int(coord_pair[1]))
    if p < 2:
        raise ValueError(too_few)
    if not (0 <= a < p and 0 <= b < p) or a == b:
        raise ValueError("coordinate pair (%d, %d) invalid for p=%d" % (a, b, p))
    return a, b


def _require_shared_sigma(sigma, what):
    """The scale vector that every row of the (s, p) ``sigma`` shares to 1e-12 relative."""
    if not np.allclose(sigma, sigma[0], rtol=1e-12, atol=0.0):
        raise ValueError("%s requires all components to share one scale vector" % what)
    return sigma[0]


def _merged_locations(mu, sigma, a, b, y_a, y_b):
    """log(exp((y_a + mu_i[a])/sigma[a]) + exp((y_b + mu_i[b])/sigma[b])) per row i of mu."""
    return np.logaddexp((y_a + mu[:, a]) / sigma[a], (y_b + mu[:, b]) / sigma[b])


def find_separating_offsets(components, coord_pair, seed):
    """Offsets (y_a, y_b) making the merged per-component values pairwise distinct.

    The merged value of component i is
    m_i = exp((y_a + mu_i[a])/sigma[a]) + exp((y_b + mu_i[b])/sigma[b]); pairs
    whose (mu[a], mu[b]) coincide are exempt from the distinctness requirement.
    Tries (0, 0) first, then up to 1000 uniform draws from [-5, 5]^2.
    """
    _, mu, sigma = _stack_components(components)
    a, b = _coordinate_pair(coord_pair, mu.shape[1], "need at least two coordinates")
    sigma = _require_shared_sigma(sigma, "offset search")
    pair_mus = mu[:, [a, b]]
    required = [
        (i, j)
        for i, j in itertools.combinations(range(len(mu)), 2)
        if np.any(pair_mus[i] != pair_mus[j])
    ]
    rng = rng_from_seed(seed)
    last_collision = None
    for trial in range(1000):
        y = (0.0, 0.0) if trial == 0 else tuple(rng.uniform(-5.0, 5.0, 2))
        merged = np.exp(_merged_locations(mu, sigma, a, b, y[0], y[1]))
        tol = 1e-9 * np.max(np.abs(merged))
        collision = next(
            ((i, j) for i, j in required if abs(merged[i] - merged[j]) <= tol), None
        )
        if collision is None:
            return y
        last_collision = collision
    i, j = last_collision
    raise ValueError(
        "no separating offsets found in 1000 trials; components %d and %d kept colliding" % (i, j)
    )


def collapse_pair(model, coord_pair, y_a, y_b):
    """Merge coordinates a and b of a shared-scale model into one coordinate.

    The substitution x_a = sigma[a]*x - y_a, x_b = sigma[b]*x - y_b turns the
    two exponential terms of every component cdf into a single term with unit
    scale and location log(exp((y_a+mu[a])/sigma[a]) + exp((y_b+mu[b])/sigma[b])).
    The merged coordinate comes first in the returned (p-1)-dimensional model,
    followed by the remaining coordinates in their original order, so for all
    real x and remaining points x_rest:

        original_cdf(sigma[a]*x - y_a, sigma[b]*x - y_b, x_rest)
            == collapsed_cdf(x, x_rest)
    """
    p = model.p
    a, b = _coordinate_pair(coord_pair, p, "need at least two coordinates to collapse")
    sigma = _require_shared_sigma(model._sigma, "dimension collapse")
    y_a, y_b = float(y_a), float(y_b)
    for name, y in (("y_a", y_a), ("y_b", y_b)):
        if not np.isfinite(y):
            raise ValueError("offset %s must be finite, got %r" % (name, y))
    with np.errstate(over="ignore"):
        merged = _merged_locations(model._mu, sigma, a, b, y_a, y_b)
    if not np.isfinite(merged).all():
        raise ValueError(
            "offsets y_a=%r, y_b=%r overflow the merged locations of coordinates %d and %d"
            % (y_a, y_b, a, b)
        )
    keep = [k for k in range(p) if k not in (a, b)]
    return _model(
        model.weights,
        np.column_stack([merged, model._mu[:, keep]]),
        np.concatenate(([1.0], sigma[keep])),
    )


# ---------------------------------------------------------------------------
# Distribution equality on a grid


def _require_grid_dimension(p, points_per_axis=GRID_POINTS):
    """p > 4 raises: at GRID_POINTS, p = 5 gives 41**5 (1.2e8) points, 0.9 GB per float array."""
    if p > 4:
        raise ValueError("evaluation grid supports p <= 4 (it has %d**p points), got p=%d"
                         % (points_per_axis, p))


def _grid_axes(mu, sigma, points_per_axis=GRID_POINTS):
    """Evenly spaced axes over mu +- GRID_SPAN * sigma of all S pooled components, for each of B
    pairs: (B, S, p) in, one ``np.linspace`` of shape (points_per_axis, B, p) out."""
    _require_grid_dimension(mu.shape[2], points_per_axis)
    with np.errstate(over="ignore"):
        los = (mu - GRID_SPAN * sigma).min(axis=1)
        his = (mu + GRID_SPAN * sigma).max(axis=1)
        finite = np.isfinite(his - los)
    if not finite.all():
        raise ValueError("evaluation grid span mu +- %g sigma overflows the float range on coordinate %d"
                         % (GRID_SPAN, np.flatnonzero(~finite.all(axis=0))[0]))
    return np.linspace(los, his, points_per_axis)


def _evaluation_grid(models, points_per_axis=GRID_POINTS):
    """Open tensor grid (``np.ix_``) of the ``_grid_axes`` pooled from every component of ``models``."""
    mu = np.concatenate([m._mu for m in models])
    sigma = np.concatenate([m._sigma for m in models])
    return np.ix_(*_grid_axes(mu[None], sigma[None], points_per_axis)[:, 0].T)


def _batch_cdf(coords, w, mu, sigma):
    """Clipped cdfs of b mixtures, w (b, s) and mu, sigma (b, s, p), on their grids: (b, *grid).

    Axis k of ``coords`` is (b, 1, ..., n_k, ..., 1), n_k at position 2 + k.  The
    components are weighted and summed in order, as in ``mixture_cdf``.
    """
    expand = (Ellipsis,) + (None,) * len(coords)
    vals = _cdf(coords, mu.transpose(2, 0, 1)[expand], sigma.transpose(2, 0, 1)[expand])
    out = w[:, 0][expand] * vals[:, 0]
    for i in range(1, w.shape[1]):
        out += w[:, i][expand] * vals[:, i]
    return out.clip(0.0, 1.0, out=out)


def _cdf_gaps(first, second):
    """Sup-norm cdf gaps of B pairs of mixtures on their equality grids, shape (B,).

    Each side is (w (B, s_side), mu (B, s_side, p), sigma (B, s_side, p)).  A
    block holds at most GRAM_BLOCK_POINTS values per (pair x component x grid
    point) temporary: several pairs, or one pair's grid in first-axis slabs.
    A maximum over blocks and slabs is exact: each gap is its one-pass value.
    """
    (w1, mu1, sg1), (w2, mu2, sg2) = first, second
    p = mu1.shape[2]
    per_row = max(w1.shape[1], w2.shape[1]) * GRID_POINTS ** (p - 1)
    pairs = max(1, GRAM_BLOCK_POINTS // (per_row * GRID_POINTS))
    rows = min(GRID_POINTS, max(1, GRAM_BLOCK_POINTS // per_row))
    gaps = np.zeros(len(w1))
    for lo in range(0, len(w1), pairs):
        blk = slice(lo, lo + pairs)
        axes = _grid_axes(np.concatenate((mu1[blk], mu2[blk]), axis=1),
                          np.concatenate((sg1[blk], sg2[blk]), axis=1)).T
        b = axes.shape[1]
        grid = [ax.reshape((b, 1) + (1,) * k + (-1,) + (1,) * (p - 1 - k)) for k, ax in enumerate(axes)]
        for r in range(0, GRID_POINTS, rows):
            coords = [grid[0][:, :, r:r + rows]] + grid[1:]
            diff = _batch_cdf(coords, w1[blk], mu1[blk], sg1[blk])
            diff -= _batch_cdf(coords, w2[blk], mu2[blk], sg2[blk])
            gaps[blk] = np.maximum(gaps[blk], np.abs(diff, out=diff).reshape(b, -1).max(axis=1))
    return gaps


def _component_gaps(mu1, sigma1, mu2, sigma2):
    """max(|d mu|, |d log sigma|) over the coordinates for every pair of rows: shape (s1, s2)."""
    d_mu = np.abs(mu1[:, None] - mu2)
    d_log_sigma = np.abs(np.log(sigma1)[:, None] - np.log(sigma2))
    return np.maximum(d_mu, d_log_sigma).max(axis=-1)


def _param_distance_matrix(m1, m2):
    dw = np.abs(m1.weights[:, None] - m2.weights)
    return np.maximum(_component_gaps(m1._mu, m1._sigma, m2._mu, m2._sigma), dw)


def matched_param_distance(m1, m2):
    """Best-assignment parameter gap between two models (inf if s differs)."""
    if m1.s != m2.s or m1.p != m2.p:
        return np.inf, None
    from scipy.optimize import linear_sum_assignment

    dmat = _param_distance_matrix(m1, m2)
    rows, cols = linear_sum_assignment(dmat)
    return float(dmat[rows, cols].max()), tuple(int(c) for c in cols)


def mixture_equality_test(m1, m2):
    """Compare two mixtures as distributions and as parameter multisets.

    Distribution equality is judged by the sup norm of the cdf difference on
    a fixed tensor grid pooled from both models, equal below EQUAL_GAP.  The
    grid has GRID_POINTS points per axis over every component's
    mu +- GRID_SPAN sigma, and bounds the dimension to p <= 4; a larger p
    raises ValueError.  Parameter equality searches component matchings by
    assignment on a scale-aware metric (max of |d mu|, |d log sigma|,
    |d weight|), equal below PARAM_EQUAL_GAP.
    """
    if m1.p != m2.p:
        raise ValueError("models have different dimensions %d and %d" % (m1.p, m2.p))
    gap = float(_cdf_gaps(*((m.weights[None], m._mu[None], m._sigma[None]) for m in (m1, m2)))[0])
    max_gap, perm = matched_param_distance(m1, m2)
    return EqualityReport(
        sup_norm_cdf_gap=gap,
        equal_distribution=bool(gap < EQUAL_GAP),
        matched_permutation=perm,
        max_param_gap=max_gap,
        equal_parameters=bool(perm is not None and max_gap < PARAM_EQUAL_GAP),
    )


# ---------------------------------------------------------------------------
# Randomized harnesses


def _stacked(models):
    """(w (B, s), mu (B, s, p), sigma (B, s, p)) of B models that share s and p."""
    return tuple(np.stack([getattr(m, f) for m in models]) for f in ("weights", "_mu", "_sigma"))


def _random_weights(s, rng):
    if s == 1:
        return np.ones(1)
    for _ in range(200):
        w = rng.dirichlet(np.ones(s))
        if w.min() >= 0.1:
            return w
    return np.full(s, 1.0 / s)


def _random_model(p, s, rng, shared_scale, sigma=None):
    for _ in range(500):
        if shared_scale:
            sig = np.broadcast_to(sigma if sigma is not None else rng.uniform(0.5, 2.0, p), (s, p))
            mu = rng.uniform(-3.0, 3.0, (s, p))
        else:
            # Component by component, p locations and then p scales.
            mu, sig = rng.uniform([[-3.0], [0.5]], [[3.0], [2.0]], (s, 2, p)).swapaxes(0, 1)
        # The diagonal compares each component with itself.
        gaps = _component_gaps(mu, sig, mu, sig)
        if np.all((gaps >= MIN_PARAM_GAP) | np.eye(s, dtype=bool)):
            return _model(_random_weights(s, rng), mu, sig)
    raise ValueError("cannot draw s=%d separated components in p=%d dimensions" % (s, p))


def _random_model_pair(p, s, rng, shared_scale):
    for _ in range(200):
        m1 = _random_model(p, s, rng, shared_scale)
        sigma = m1._sigma[0] if shared_scale else None
        m2 = _random_model(p, s, rng, shared_scale, sigma=sigma)
        gap, _ = matched_param_distance(m1, m2)
        if gap >= MIN_PARAM_GAP:
            return m1, m2
    raise RuntimeError("failed to draw a distinct random model pair")


def identifiability_trial(p, s, shared_scale, seed, n_trials):
    """Randomized distinctness/equality trials in the covered regimes.

    Covered: p == 1 with arbitrary per-component scales, and p in {2, 3} with
    one scale vector shared across every component (the same vector is used
    for both models of a trial).  Each trial draws two well-separated models
    and expects a sup-norm cdf gap above the distinct threshold, then checks
    that a component-permuted copy tests equal.  Scenarios outside the
    covered regimes route to :func:`probe_open_problem`.  ``n_trials`` must
    be an integer >= 1.
    """
    _require_counts(p=p, s=s, n_trials=n_trials)
    p, s, n_trials = int(p), int(s), int(n_trials)
    covered = p == 1 or (p in (2, 3) and shared_scale)
    if not covered:
        return probe_open_problem(p, s, n_trials, seed)
    perm = np.roll(np.arange(s), 1)
    # Trials are drawn, evaluated and reduced in chunks of one _cdf_gaps block of pairs each.
    chunk = max(1, GRAM_BLOCK_POINTS // (s * GRID_POINTS**p))
    distinct_pass, permuted_pass, min_gap, max_permuted_gap = 0, 0, np.inf, -np.inf
    for seeds in spawn_seed_chunks(seed, n_trials, chunk):
        pairs = [_random_model_pair(p, s, rng_from_seed(t), shared_scale) for t in seeds]
        firsts = [m1 for m1, _ in pairs]
        permuted = [_model(m.weights[perm], m._mu[perm], m._sigma[perm]) for m in firsts]
        gaps = _cdf_gaps(_stacked(firsts), _stacked([m2 for _, m2 in pairs]))
        permuted_gaps = _cdf_gaps(_stacked(firsts), _stacked(permuted))
        # A distinct pair must not test equal, gap < EQUAL_GAP, which gap > DISTINCT_GAP excludes.
        distinct_pass += int(np.sum(gaps > DISTINCT_GAP))
        permuted_pass += sum(bool(gap < EQUAL_GAP) and matched_param_distance(m, pm)[0] < PARAM_EQUAL_GAP
                             for gap, m, pm in zip(permuted_gaps, firsts, permuted))
        min_gap, max_permuted_gap = min(min_gap, gaps.min()), max(max_permuted_gap, permuted_gaps.max())
    return {
        "mode": "trial",
        "p": p,
        "s": s,
        "shared_scale": bool(shared_scale),
        "seed": int(seed),
        "n_trials": n_trials,
        "distinct_passes": distinct_pass,
        "distinct_failures": n_trials - distinct_pass,
        "permuted_passes": permuted_pass,
        "permuted_failures": n_trials - permuted_pass,
        "min_distinct_gap": float(min_gap),
        "max_permuted_gap": float(max_permuted_gap),
        "distinct_threshold": DISTINCT_GAP,
    }


def _flatten_model(model):
    theta = [np.log(model.weights)] if model.s > 1 else []
    return np.concatenate(theta + [model._mu.ravel(), np.log(model._sigma).ravel()])


def _unflatten_model(theta, p, s):
    if s > 1:
        raw = theta[:s]
        w = np.exp(raw - raw.max())
        w = np.maximum(w / w.sum(), 1e-9)
        w = w / w.sum()
    else:
        w = np.ones(1)
    mu, log_sigma = theta[-2 * s * p:].reshape(2, s, p)
    return _model(w, mu, np.exp(np.clip(log_sigma, -20, 20)))


def probe_open_problem(p, s, n_trials, seed):
    """Exploratory near-collision search for per-component-scale models.

    Random pairs of well-separated models (parameter distance above 0.1) are
    scored by their sup-norm cdf gap; the best pair is then refined by local
    minimization of the gap with a penalty keeping the pair separated.  The
    smallest gap found and the witnessing pair are reported.  A gap below
    NEAR_GAP (reported as ``near_tol``) at parameter distance above 0.1 is
    only flagged as a counterexample candidate for manual study, never
    asserted as a verdict.  ``n_trials`` must be an integer >= 1.
    """
    _require_counts(p=p, s=s, n_trials=n_trials)
    p, s, n_trials = int(p), int(s), int(n_trials)
    if p < 2:
        raise ValueError("the exploratory probe targets p >= 2")
    _require_grid_dimension(p)
    chunk = max(1, GRAM_BLOCK_POINTS // (s * GRID_POINTS**p))
    best = None
    for lo, seeds in zip(range(0, n_trials, chunk), spawn_seed_chunks(seed, n_trials, chunk)):
        drawn = []
        for t, trial_seed in enumerate(seeds, lo):
            rng = rng_from_seed(trial_seed)
            m1 = _random_model(p, s, rng, shared_scale=False)
            m2 = _random_model(p, s, rng, shared_scale=False) if t % 2 == 0 else _perturb_model(m1, rng)
            gap_d, _ = matched_param_distance(m1, m2)
            if gap_d >= MIN_PARAM_GAP:
                drawn.append((gap_d, m1, m2))
        gaps = _cdf_gaps(_stacked([d[1] for d in drawn]), _stacked([d[2] for d in drawn])) if drawn else []
        # Only a strictly smaller gap replaces the best, so it is the first argmin over every trial.
        for gap, pair in zip(gaps, drawn):
            best = (float(gap),) + pair if best is None or gap < best[0] else best
    if best is None:
        raise RuntimeError("every random pair failed the separation filter")
    gap0, dist0, m1, m2 = best

    def objective(theta):
        try:
            cand = _unflatten_model(theta, p, s)
        except ValueError:
            return 10.0
        rep = mixture_equality_test(m1, cand)
        return rep.sup_norm_cdf_gap + 10.0 * max(0.0, MIN_PARAM_GAP - rep.max_param_gap)

    from scipy.optimize import minimize

    res = minimize(
        objective, _flatten_model(m2), method="Nelder-Mead",
        options={"maxiter": 300, "xatol": 1e-8, "fatol": 1e-14},
    )
    refined = _unflatten_model(res.x, p, s)
    rep = mixture_equality_test(m1, refined)
    if rep.max_param_gap >= MIN_PARAM_GAP and rep.sup_norm_cdf_gap <= gap0:
        smallest, final_dist, witness = rep.sup_norm_cdf_gap, rep.max_param_gap, (m1, refined)
    else:
        smallest, final_dist, witness = gap0, dist0, (m1, m2)
    return {
        "mode": "probe",
        "p": p,
        "s": s,
        "seed": int(seed),
        "n_trials": n_trials,
        "near_tol": NEAR_GAP,
        "smallest_gap": float(smallest),
        "param_distance": float(final_dist),
        "witness_pair": [model_to_dict(witness[0]), model_to_dict(witness[1])],
        "counterexample_candidate": bool(smallest < NEAR_GAP and final_dist > MIN_PARAM_GAP),
    }


def _perturb_model(model, rng):
    scale = rng.uniform(0.12, 0.6)
    # Component by component, p location shifts and then p log-scale shifts.
    d_mu, d_log_sigma = rng.uniform(-scale, scale, (model.s, 2, model.p)).swapaxes(0, 1)
    w = model.weights + (rng.dirichlet(np.ones(model.s)) - 1.0 / model.s) * scale if model.s > 1 else model.weights
    w = np.maximum(w, 0.01)
    return _model(w / w.sum(), model._mu + d_mu, model._sigma * np.exp(d_log_sigma))
