"""
Finite mixtures and maximum-likelihood fitting
==============================================

A mixture places weights on several logistic components.  This script builds
the two-component reference model, draws labelled data from it, fits a fresh
mixture by EM with restarts, and compares the recovered parameters with the
truth up to component relabelling.
"""

import numpy as np

import logimix as lm

truth = lm.MixtureModel(
    weights=[0.3, 0.7],
    components=(lm.MldParams([-2.0], [1.0]), lm.MldParams([2.0], [0.5])),
)
print("truth: weights", truth.weights)

data, labels = lm.sample_mixture(truth, n=20_000, seed=42)
print("label frequencies:", np.bincount(labels) / labels.size)

# The density and log-likelihood of the generating model.
print("mixture pdf at 0:", lm.mixture_pdf(np.array([0.0]), truth))
print("mean log-likelihood:", lm.log_likelihood(data, truth) / data.shape[0])

# Fit from scratch.  The M-step has no closed form, so each component takes
# one safeguarded Newton step in (mu, log sigma) per iteration; the
# log-likelihood trace is monotone up to floating-point slack.
result = lm.em_fit(data, lm.FitConfig(s=2, n_restarts=3, seed=1))
print("\nconverged:", result.converged, "after", result.n_iter, "iterations")
print("trace is monotone:", bool(np.all(np.diff(result.loglik_trace) >= -1e-9)))

gap, perm = lm.matched_param_distance(truth, result.model)
print("best-matching parameter gap:", round(gap, 4))
for i, comp in enumerate(truth.components):
    fitted = result.model.components[perm[i]]
    print(
        "component %d: true (w=%.2f, mu=%+.2f, sigma=%.2f)  fitted (w=%.3f, mu=%+.3f, sigma=%.3f)"
        % (
            i,
            truth.weights[i],
            comp.mu[0],
            comp.sigma[0],
            result.model.weights[perm[i]],
            fitted.mu[0],
            fitted.sigma[0],
        )
    )

# Models round-trip exactly through their JSON form.
lm.save_model(result.model, "fitted_model.json")
reloaded = lm.load_model("fitted_model.json")
print("\nround-trip exact:", np.array_equal(reloaded.weights, result.model.weights))
