"""Finite mixtures of multivariate logistic components.

A mixture is an (s,) weight vector on the simplex plus s components of common
dimension p, stacked as (s, p) location and scale arrays whose row i is
component i.  The package reads mixtures through these arrays and builds them
through ``_model``; the kernels take one call per component, on its rows, as a
broadcast over s would multiply every temporary by s.  Evaluation functions
accept points shaped (..., p) like the single-component ones in :mod:`logimix.mld`.
"""

import json
import numbers
from dataclasses import dataclass

import numpy as np

from ._util import _require_counts, open_uniform, rng_from_seed, spawn_seeds, write_text_atomic
from .mld import (
    MldParams, _as_points, _cdf, _coordinate_major, _log_pdf_parts, _scalar_or_array,
    _stack_components, sample,
)

MODEL_FORMAT = "logimix-model-v1"

# Weight vectors within this distance of the simplex are renormalized;
# anything further off is rejected as a genuinely bad model.
WEIGHT_SUM_TOL = 1e-9
WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Mixing weights plus component parameters, all of one dimension p.

    The weights become a read-only (s,) array that sums to 1; the components'
    locations and scales are also kept as the read-only (s, p) ``_mu`` and ``_sigma``.
    """

    weights: np.ndarray
    components: tuple

    def __post_init__(self):
        comps, mu, sigma = _stack_components(self.components)
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1:
            raise ValueError("weights must be a 1-D vector")
        if len(comps) != w.size:
            raise ValueError(
                "got %d weights for %d components" % (w.size, len(comps))
            )
        if not np.all(np.isfinite(w)) or np.any(w < WEIGHT_FLOOR) or np.any(w > 1.0):
            raise ValueError("weights must lie in [%g, 1]" % WEIGHT_FLOOR)
        total = w.sum()
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights sum to %.17g, not 1" % total)
        w = w / total
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "_mu", mu)
        object.__setattr__(self, "_sigma", sigma)

    @property
    def p(self):
        return self._mu.shape[1]

    @property
    def s(self):
        return self._mu.shape[0]


def _model(weights, mu, sigma):
    """MixtureModel whose component i has row i of (s, p) ``mu`` and ``sigma``; a (p,)
    ``sigma`` is shared by every component."""
    sigma = np.broadcast_to(sigma, np.shape(mu))
    return MixtureModel(weights, tuple(map(MldParams, mu, sigma)))


def mixture_cdf(x, model):
    """Weighted sum of component cdfs, clipped to [0, 1]."""
    x = _as_points(x, model.p)
    return _scalar_or_array(_mixture_cdf(np.moveaxis(x, -1, 0), model))


def _mixture_cdf(coords, model):
    """Clipped sum_i pi_i L_i at p coordinate arrays that broadcast together.

    ``coords`` is what ``mld._cdf`` takes: the columns of validated points, or
    the open per-axis vectors of a tensor grid.
    """
    out = sum(w * _cdf(coords, m, sg) for w, m, sg in zip(model.weights, model._mu, model._sigma))
    return np.clip(out, 0.0, 1.0)


def _weighted_log_pdfs(x, model):
    """log pi_i + log l_i(x) for validated coordinate-major points x (p, ...).

    The result is component-major, shape (s, ...).  ``mixture_log_pdf`` and
    the EM E-step both reduce it over its leading axis, one elementwise
    ``logaddexp`` pass per further component, so the public log-likelihood
    and the EM trace are one computation.
    """
    return np.stack(
        [np.log(w) + _log_pdf_parts(x, mu, sigma)[0]
         for w, mu, sigma in zip(model.weights, model._mu, model._sigma)]
    )


def mixture_log_pdf(x, model):
    """log sum_i pi_i l_i(x), via log-sum-exp over components."""
    x = _coordinate_major(_as_points(x, model.p))
    return _scalar_or_array(np.logaddexp.reduce(_weighted_log_pdfs(x, model), axis=0))


def mixture_pdf(x, model):
    return _scalar_or_array(np.exp(mixture_log_pdf(x, model)))


def log_likelihood(data, model):
    """Sum of mixture log densities over the rows of ``data``."""
    data = as_dataset(data)
    if data.shape[1] != model.p:
        raise ValueError(
            "data has %d columns, model dimension is %d" % (data.shape[1], model.p)
        )
    return float(np.sum(mixture_log_pdf(data, model)))


def sample_mixture(model, n, seed):
    """Draw ``n`` rows and their component labels, deterministically per seed.

    A label is drawn from the weights for every row, then each component's rows
    are generated by the exact single-component sampler on an independent
    child stream.
    """
    _require_counts(n=n)
    rng = rng_from_seed(seed)
    cum = np.cumsum(model.weights)
    cum[-1] = 1.0
    labels = np.searchsorted(cum, open_uniform(rng, n), side="left").astype(np.int64)
    data = np.empty((n, model.p))
    comp_seeds = spawn_seeds(seed, model.s)
    for i, comp in enumerate(model.components):
        idx = labels == i
        count = int(idx.sum())
        if count:
            data[idx] = sample(comp, count, comp_seeds[i])
    return data, labels


def model_to_dict(model):
    return {
        "format": MODEL_FORMAT,
        "p": model.p,
        "s": model.s,
        "weights": model.weights.tolist(),
        "components": [
            {"mu": mu, "sigma": sigma}
            for mu, sigma in zip(model._mu.tolist(), model._sigma.tolist())
        ],
    }


def save_model(model, destination):
    """Write the model as JSON (atomic rename; floats as their shortest exact repr)."""
    write_text_atomic(destination, json.dumps(model_to_dict(model), indent=2) + "\n")


def load_model(source):
    """Read and validate a model file; raises ValueError with a reason if bad."""
    try:
        with open(source) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError("malformed model file %s: %s" % (source, exc)) from exc
    return model_from_dict(raw, origin=str(source))


def model_from_dict(raw, origin="model"):
    """Build a validated MixtureModel from a parsed JSON dictionary."""
    if not isinstance(raw, dict):
        raise ValueError("%s: model document must be a JSON object" % origin)
    if raw.get("format") != MODEL_FORMAT:
        raise ValueError(
            "%s: unsupported format %r (expected %r)"
            % (origin, raw.get("format"), MODEL_FORMAT)
        )
    for key in ("p", "s", "weights", "components"):
        if key not in raw:
            raise ValueError("%s: missing field %r" % (origin, key))
    for key in ("p", "s"):
        if not isinstance(raw[key], numbers.Integral):
            raise ValueError("%s: field %r must be an integer, got %r" % (origin, key, raw[key]))
    comps_raw = raw["components"]
    if not isinstance(comps_raw, list):
        raise ValueError("%s: field 'components' must be a list, got %r" % (origin, comps_raw))
    try:
        weights = np.asarray(raw["weights"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError("%s: field 'weights' invalid: %s" % (origin, exc)) from exc
    if len(comps_raw) != raw["s"] or weights.size != raw["s"]:
        raise ValueError("%s: component count does not match s" % origin)
    components = []
    for idx, c in enumerate(comps_raw):
        try:
            components.append(MldParams(c["mu"], c["sigma"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("%s: component %d invalid: %s" % (origin, idx, exc)) from exc
        if components[-1].p != raw["p"]:
            raise ValueError(
                "%s: component %d has dimension %d, expected p=%d"
                % (origin, idx, components[-1].p, raw["p"])
            )
    try:  # MixtureModel checks the weights, their sum included
        return MixtureModel(weights, tuple(components))
    except ValueError as exc:
        raise ValueError("%s: %s" % (origin, exc)) from exc


def as_dataset(rows):
    """Validate observations as a finite 2-D float array with n >= 1 rows."""
    data = np.asarray(rows, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
        raise ValueError("dataset must be a non-empty n x p matrix")
    if not np.all(np.isfinite(data)):
        raise ValueError("dataset entries must be finite")
    return data


def load_dataset(path):
    """Read a CSV dataset: one row per observation, '#' lines ignored."""
    try:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2, dtype=float)
    except ValueError as exc:
        raise ValueError("malformed dataset file %s: %s" % (path, exc)) from exc
    if data.size == 0:
        raise ValueError("dataset file %s holds no rows" % path)
    return as_dataset(data)


def save_dataset(data, path, header=None):
    """Write a CSV dataset atomically; optional header goes in a '#' line."""
    data = as_dataset(data)
    lines = []
    if header:
        lines.append("# " + header)
    # Converting one row at a time keeps the Python floats' memory small;
    # repr of a Python float is the shortest text that reads back exactly.
    for row in data:
        lines.append(",".join(map(repr, row.tolist())))
    write_text_atomic(path, "\n".join(lines) + "\n")
