"""The benchmark's workloads: inputs drawn from a seed, CLI commands, output checks.

Every input is drawn by the benchmark's own generators below (not by
``logimix``) and written in the file formats the CLI reads, so a change to the
program cannot change what it is given.  The program is driven only through
``logimix.cli.run`` and, in the traced run, through the public names in
``logimix.__all__``.  See README.md for why each workload exists.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import logimix

MODEL_FORMAT = "logimix-model-v1"

# The reference model shipped in data/reference_model.json (p=1, s=2), written
# out here so the benchmark reads no file of the repository besides the code.
REF_WEIGHTS = np.array([0.3, 0.7])
REF_MU = np.array([[-2.0], [2.0]])
REF_SIGMA = np.array([[1.0], [0.5]])

# Acceptance-criterion-5 tolerances for recovering the reference model.
REF_MU_TOL = 0.1
REF_SIGMA_TOL = 0.1
REF_WEIGHT_TOL = 0.05
TRACE_SLACK = 1e-9

# Fields every probe-open report carries.
PROBE_FIELDS = ("mode", "p", "s", "seed", "n_trials", "near_tol", "smallest_gap",
                "param_distance", "witness_pair", "counterexample_candidate")

# (p, s) of the ten fit-batch fits, and the seed their models are drawn from.
# The models are the same for every workload seed, which draws only the rows
# and the fit seeds: how many iterations a fit takes depends mostly on how far
# apart its components are, so fixed models make every seed ask for nearly the
# same work.
BATCH_SHAPES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (1, 2), (1, 3), (2, 2), (2, 3))
BATCH_MODELS_SEED = 12083546

# Work sizes.  "full" is what the benchmark measures; "smoke" is the quick
# schema check and the filler for layers a traced workload does not reach.
SIZES = {
    "full": {
        "ref_rows": 10000, "ref_restarts": None,
        "batch_rows": 500, "batch_max_iter": 60,
        "density_rows": 250_000,
        "gram_nodes": 64, "trials": 100, "probe_trials": 200, "grid_pairs": 50,
    },
    "smoke": {
        "ref_rows": 2000, "ref_restarts": 1,
        "batch_rows": 100, "batch_max_iter": 3,
        "density_rows": 5000,
        "gram_nodes": 16, "trials": 4, "probe_trials": 6, "grid_pairs": 4,
    },
}


# ---------------------------------------------------------------------------
# Input generators and the closed-form reference density


def random_model(rng, p, s, min_gap=0.0):
    """Weights, mu (s, p) and sigma (s, p) of a random mixture.

    Locations are uniform on [-3, 3], scales on [0.5, 1.5] and weights
    Dirichlet(5); components are redrawn until every pair differs by at least
    ``min_gap`` in max(|d mu|, |d log sigma|).
    """
    while True:
        mu = rng.uniform(-3.0, 3.0, (s, p))
        sigma = rng.uniform(0.5, 1.5, (s, p))
        gaps = [
            max(np.max(np.abs(mu[i] - mu[j])), np.max(np.abs(np.log(sigma[i] / sigma[j]))))
            for i in range(s) for j in range(i)
        ]
        if min(gaps, default=np.inf) >= min_gap:
            return rng.dirichlet(np.full(s, 5.0)), mu, sigma


def draw_rows(rng, weights, mu, sigma, n):
    """Exact mixture draws by the frailty form x = mu + sigma * (ln V - ln E_k)."""
    labels = rng.choice(weights.size, size=n, p=weights)
    z = np.log(rng.exponential(size=n))[:, None] - np.log(rng.exponential(size=(n, mu.shape[1])))
    return mu[labels] + sigma[labels] * z


def stratified_rows(rng, weights, mu, sigma, n):
    """Rows of a p=1 mixture whose empirical distribution tracks the model's.

    Component i gets round(w_i n) rows, one in each of that many equal-
    probability strata of its logistic law (a uniform point of the stratum
    through the quantile function mu + sigma log(u / (1 - u))), and the rows
    are shuffled.  The fitted parameters then sit much closer to the truth
    than with independent draws, so the recovery check holds on every seed.
    """
    counts = np.rint(weights * n).astype(int)
    counts[-1] = n - counts[:-1].sum()
    parts = []
    for count, m, sg in zip(counts, mu[:, 0], sigma[:, 0]):
        u = np.clip((np.arange(count) + rng.random(count)) / count, 1e-15, 1.0 - 1e-15)
        parts.append(m + sg * np.log(u / (1.0 - u)))
    return rng.permutation(np.concatenate(parts))[:, None]


def write_model(path, weights, mu, sigma):
    doc = {
        "format": MODEL_FORMAT,
        "p": int(mu.shape[1]),
        "s": int(mu.shape[0]),
        "weights": [float(v) for v in weights],
        "components": [
            {"mu": [float(v) for v in m], "sigma": [float(v) for v in sg]}
            for m, sg in zip(mu, sigma)
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def write_rows(path, rows):
    np.savetxt(path, rows, fmt="%.17g", delimiter=",")


def mixture_log_density(x, weights, mu, sigma):
    """log sum_i w_i l_i(x) straight from the MLD density formula.

    l(x) = p! exp(-sum_k z_k) (1 + sum_k exp(-z_k))^-(p+1) / prod_k sigma_k
    with z = (x - mu) / sigma.
    """
    p = mu.shape[1]
    z = (x[:, None, :] - mu) / sigma
    pad = np.zeros(z.shape[:-1] + (1,))
    log_l = (
        math.lgamma(p + 1)
        - z.sum(axis=-1)
        - (p + 1) * np.logaddexp.reduce(np.concatenate([pad, -z], axis=-1), axis=-1)
        - np.log(sigma).sum(axis=-1)
    )
    return np.logaddexp.reduce(np.log(weights) + log_l, axis=-1)


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _finite_or_none(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _finite_or_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_none(v) for v in obj]
    return obj


def write_report(path, obj):
    """Write a report as the CLI does: non-finite floats as null, indented JSON, atomic rename.

    The replay repeats this work so that ``cli.<command>.self_s`` covers what
    the command does besides its public calls, and so that the replay's files
    can be compared byte for byte with the CLI's.
    """
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(_finite_or_none(obj), indent=2) + "\n")
    os.replace(tmp, path)


def monotone(trace):
    return bool(np.all(np.diff(np.asarray(trace, dtype=float)) >= -TRACE_SLACK))


# ---------------------------------------------------------------------------
# Commands


@dataclass
class Command:
    """One CLI invocation: ``kind`` is the subcommand, ``args`` its options."""

    kind: str
    args: dict
    outputs: tuple
    rows: int = 0
    facts: dict = field(default_factory=dict)

    @property
    def argv(self):
        argv = [self.kind]
        for key, value in self.args.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                argv.append(flag)
            else:
                argv += [flag, str(value)]
        return argv


class Workload:
    """Inputs, commands, checks and traced replay of one workload."""

    name = None
    tag = 0

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = SIZES[size]
        self.dir = workdir
        self.rng = np.random.default_rng([self.tag, seed])
        self.cmds = []
        self.digests = {}

    def path(self, name):
        return os.path.join(self.dir, name)

    def setup(self):
        """Draw and write the inputs, then read them back through the program."""
        raise NotImplementedError

    def check(self, cmd):
        """Problems found in the outputs of ``cmd`` (an empty list if none)."""
        raise NotImplementedError

    def summary(self, times):
        """Workload-specific end-to-end figures: name -> (value, unit).

        ``times[kind]`` lists, per cycle, the seconds spent in commands of that
        kind.
        """
        raise NotImplementedError

    def probe_layers(self, tr, cmd, state):
        """Extra per-layer measurements after the traced replay of ``cmd``."""

    def verify(self, cmd, first_cycle):
        """Full checks on the first cycle; later cycles must repeat its outputs."""
        if first_cycle:
            problems = self.check(cmd)
            for out in cmd.outputs:
                self.digests[out] = file_digest(out)
            return problems
        return [
            "%s differs from the first cycle's output" % os.path.basename(out)
            for out in cmd.outputs
            if file_digest(out) != self.digests[out]
        ]

    # -- traced replay: the public calls each CLI command makes, in order ----

    def replay(self, tr, cmd):
        a = cmd.args
        state = {}
        with tr.span("cli." + cmd.kind):
            if cmd.kind == "fit":
                with tr.span("mixture.load_dataset") as sp:
                    data = logimix.load_dataset(a["data"])
                    sp["n"] = data.shape[0]
                config = logimix.FitConfig(
                    s=a["s"], seed=a["seed"],
                    **{k: a[k] for k in ("n_restarts", "max_iter") if k in a},
                )
                res = tr.call("estimation.em_fit", logimix.em_fit, data, config)
                tr.call("mixture.save_model", logimix.save_model, res.model, a["out"])
                write_report(a["report"], {
                    "loglik_trace": [float(v) for v in res.loglik_trace],
                    "converged": bool(res.converged),
                    "n_iter": int(res.n_iter),
                    "seed": a["seed"],
                })
                state = {"data": data, "config": config, "model": res.model}
            elif cmd.kind == "sample":
                model = tr.call("mixture.load_model", logimix.load_model, a["model"])
                data, _ = tr.call(
                    "mixture.sample_mixture", logimix.sample_mixture, model, a["n"], a["seed"], n=a["n"]
                )
                tr.call(
                    "mixture.save_dataset", logimix.save_dataset, data, a["out"],
                    header="drawn by 'logimix sample', seed=%d" % a["seed"], n=a["n"],
                )
            elif cmd.kind == "eval":
                model = tr.call("mixture.load_model", logimix.load_model, a["model"])
                with tr.span("mixture.load_dataset") as sp:
                    data = logimix.load_dataset(a["data"])
                    sp["n"] = data.shape[0]
                rows = tr.call(
                    "mixture.mixture_log_pdf", logimix.mixture_log_pdf, data, model, n=data.shape[0]
                )
                write_report(a["out"], {
                    "seed": 0,
                    "n": int(rows.size),
                    "total_log_likelihood": float(rows.sum()),
                    "per_row_log_pdf": [float(v) for v in rows],
                })
                state = {"data": data, "model": model}
            elif cmd.kind == "check-id" and a["mode"] == "gram":
                model = tr.call("mixture.load_model", logimix.load_model, a["model"])
                rep = tr.call(
                    "identifiability.gram_min_eigenvalue", logimix.gram_min_eigenvalue,
                    model.components, nodes_per_axis=a["nodes"],
                )
                write_report(a["out"], {"seed": 0, **rep.to_dict()})
            elif cmd.kind == "check-id":
                summary = tr.call(
                    "identifiability.identifiability_trial", logimix.identifiability_trial,
                    a["p"], a["s"], a.get("shared_scale", False), a["seed"], a["trials"],
                    n=a["trials"],
                )
                write_report(a["out"], summary)
            elif cmd.kind == "probe-open":
                report = tr.call(
                    "identifiability.probe_open_problem", logimix.probe_open_problem,
                    a["p"], a["s"], a["trials"], a["seed"],
                )
                write_report(a["out"], report)
            else:
                raise ValueError("no replay for command %r" % cmd.kind)
        self.probe_layers(tr, cmd, state)

    def probe_kernel(self, tr, data, model):
        """The _util kernel through its public wrappers, on standardized rows."""
        comp = model.components[0]
        z = (data - comp.mu) / comp.sigma
        tr.call("mld.standard_log_pdf", logimix.standard_log_pdf, z, n=z.shape[0])
        tr.call("mld.standard_cdf", logimix.standard_cdf, z, n=z.shape[0])


# ---------------------------------------------------------------------------


class FitWorkload(Workload):
    """Shared checks, figures and layer probes of the two fitting workloads."""

    def fit_command(self, tag, data_path, rows, s, p, seed, **extra):
        args = {"data": data_path, "s": s, "seed": seed, **extra,
                "out": self.path("%s-model.json" % tag), "report": self.path("%s-report.json" % tag)}
        return Command("fit", args, (args["out"], args["report"]), rows=rows, facts={"p": p})

    def check(self, cmd):
        problems = []
        report = read_json(cmd.args["report"])
        model = logimix.load_model(cmd.args["out"])
        if not monotone(report["loglik_trace"]):
            problems.append("log-likelihood trace decreases by more than %g" % TRACE_SLACK)
        if model.s != cmd.args["s"] or model.p != cmd.facts["p"]:
            problems.append("fitted model has p=%d s=%d" % (model.p, model.s))
        cmd.facts["loglik_per_row"] = report["loglik_trace"][-1] / cmd.rows
        cmd.facts["converged"] = bool(report["converged"])
        return problems + self.check_model(cmd, model)

    def check_model(self, cmd, model):
        return []

    def summary(self, times):
        fits = [c for c in self.cmds if c.kind == "fit"]
        return {
            "fit_s": (float(np.median(times["fit"])), "s"),
            "fit_loglik_per_row": (float(np.mean([c.facts["loglik_per_row"] for c in fits])), "nat/row"),
            "fit_converged_frac": (float(np.mean([c.facts["converged"] for c in fits])), "share"),
        }

    def probe_layers(self, tr, cmd, state):
        data, config, fitted = state["data"], state["config"], state["model"]
        self.probe_kernel(tr, data, fitted)
        single = logimix.FitConfig(s=config.s, seed=config.seed, max_iter=config.max_iter, n_restarts=1)
        with tr.span("estimation.em_fit.single_restart") as sp:
            sp["n"] = logimix.em_fit(data, single).n_iter + 1
        tr.call("estimation.responsibilities", logimix.responsibilities, data, fitted)
        for comp in fitted.components:
            tr.call(
                "estimation.component_log_pdf_grad", logimix.component_log_pdf_grad,
                data, comp, n=data.shape[0],
            )
        tr.call("estimation.init_params", logimix.init_params, data, config.s, config.seed)


class FitRef(FitWorkload):
    """One default fit (5 restarts) of rows drawn from the reference model."""

    name = "fit-ref"
    tag = 1

    def setup(self):
        rows = self.size["ref_rows"]
        data = stratified_rows(self.rng, REF_WEIGHTS, REF_MU, REF_SIGMA, rows)
        path = self.path("ref.csv")
        write_rows(path, data)
        logimix.load_dataset(path)
        extra = {} if self.size["ref_restarts"] is None else {"n_restarts": self.size["ref_restarts"]}
        self.cmds = [self.fit_command("ref", path, rows, s=2, p=1, seed=7, **extra)]

    def check_model(self, cmd, model):
        truth = logimix.MixtureModel(
            REF_WEIGHTS, tuple(logimix.MldParams(m, sg) for m, sg in zip(REF_MU, REF_SIGMA))
        )
        _, perm = logimix.matched_param_distance(truth, model)
        if perm is None:
            return ["fitted model cannot be matched to the reference"]
        problems = []
        for i, j in enumerate(perm):
            fitted = model.components[j]
            if np.max(np.abs(fitted.mu - REF_MU[i])) > REF_MU_TOL:
                problems.append("component %d: mu %s vs %s" % (i, fitted.mu, REF_MU[i]))
            if np.max(np.abs(fitted.sigma - REF_SIGMA[i])) > REF_SIGMA_TOL:
                problems.append("component %d: sigma %s vs %s" % (i, fitted.sigma, REF_SIGMA[i]))
            if abs(model.weights[j] - REF_WEIGHTS[i]) > REF_WEIGHT_TOL:
                problems.append("component %d: weight %g vs %g" % (i, model.weights[j], REF_WEIGHTS[i]))
        return problems


class FitBatch(FitWorkload):
    """Ten small fits of the acceptance-criterion-5 kind, run as one batch."""

    name = "fit-batch"
    tag = 2

    def setup(self):
        rows = self.size["batch_rows"]
        models = np.random.default_rng(BATCH_MODELS_SEED)
        self.cmds = []
        for i, (p, s) in enumerate(BATCH_SHAPES):
            weights, mu, sigma = random_model(models, p, s)
            path = self.path("batch-%d.csv" % i)
            write_rows(path, draw_rows(self.rng, weights, mu, sigma, rows))
            logimix.load_dataset(path)
            self.cmds.append(self.fit_command(
                "batch-%d" % i, path, rows, s=s, p=p, seed=int(self.rng.integers(2**31)),
                n_restarts=2, max_iter=self.size["batch_max_iter"],
            ))


class Density(Workload):
    """``sample`` then ``eval`` of 250 000 rows of a p=3, s=3 model."""

    name = "density"
    tag = 3

    def setup(self):
        self.model = random_model(self.rng, 3, 3)
        model_path = self.path("model.json")
        write_model(model_path, *self.model)
        logimix.load_model(model_path)
        n = self.size["density_rows"]
        data_path = self.path("sample.csv")
        sample_seed = int(self.rng.integers(2**31))
        self.cmds = [
            Command("sample", {"model": model_path, "n": n, "seed": sample_seed, "out": data_path},
                    (data_path,), rows=n),
            Command("eval", {"model": model_path, "data": data_path, "out": self.path("eval.json")},
                    (self.path("eval.json"),), rows=n),
        ]

    def check(self, cmd):
        weights, mu, sigma = self.model
        if cmd.kind == "sample":
            data = np.loadtxt(cmd.args["out"], delimiter=",", comments="#", ndmin=2)
            if data.shape != (cmd.rows, 3):
                return ["sample wrote shape %s" % (data.shape,)]
            # Each logistic marginal has mean 0, so the mixture mean is sum w_i mu_i.
            se = data.std(axis=0) / math.sqrt(cmd.rows)
            off = np.abs(data.mean(axis=0) - weights @ mu) / se
            self.sampled = data
            return ["coordinate means %s standard errors from sum w mu" % off] if np.any(off > 5.0) else []
        report = read_json(cmd.args["out"])
        rows = np.asarray(report["per_row_log_pdf"])
        problems = []
        if report["n"] != cmd.rows or rows.size != cmd.rows:
            problems.append("eval reported %d rows" % rows.size)
        elif not math.isclose(report["total_log_likelihood"], float(rows.sum()), rel_tol=1e-9):
            problems.append("total log-likelihood is not the sum of the rows")
        else:
            pick = self.rng.choice(cmd.rows, size=min(cmd.rows, 2000), replace=False)
            want = mixture_log_density(self.sampled[pick], weights, mu, sigma)
            if not np.allclose(rows[pick], want, rtol=1e-9, atol=1e-9):
                problems.append("per-row log densities disagree with the closed form")
        del self.sampled
        return problems

    def summary(self, times):
        n = self.cmds[0].rows
        return {
            "sample_rows_per_s": (n / float(np.median(times["sample"])), "rows/s"),
            "eval_rows_per_s": (n / float(np.median(times["eval"])), "rows/s"),
        }

    def probe_layers(self, tr, cmd, state):
        if cmd.kind != "eval":
            return
        data, model = state["data"], state["model"]
        self.probe_kernel(tr, data, model)
        for comp in model.components:
            tr.call("mld.mld_log_pdf", logimix.mld_log_pdf, data, comp, n=data.shape[0])


class Identify(Workload):
    """Gram, two trial harnesses and the open-problem probe."""

    name = "identify"
    tag = 4

    def setup(self):
        model_path = self.path("gram-model.json")
        write_model(model_path, *random_model(self.rng, 3, 3, min_gap=0.5))
        logimix.load_model(model_path)
        size = self.size
        seeds = [int(v) for v in self.rng.integers(2**31, size=3)]
        out = self.path
        self.cmds = [
            Command("check-id", {"mode": "gram", "model": model_path, "nodes": size["gram_nodes"],
                                 "out": out("gram.json")}, (out("gram.json"),), facts={"s": 3}),
            Command("check-id", {"mode": "trial", "p": 2, "s": 2, "shared_scale": True,
                                 "trials": size["trials"], "seed": seeds[0], "out": out("trial-p2.json")},
                    (out("trial-p2.json"),)),
            Command("check-id", {"mode": "trial", "p": 1, "s": 2, "trials": size["trials"],
                                 "seed": seeds[1], "out": out("trial-p1.json")}, (out("trial-p1.json"),)),
            Command("probe-open", {"p": 2, "s": 2, "trials": size["probe_trials"], "seed": seeds[2],
                                   "out": out("probe.json")}, (out("probe.json"),)),
        ]

    def check(self, cmd):
        rep = read_json(cmd.args["out"])
        if cmd.kind == "probe-open":
            missing = [k for k in PROBE_FIELDS if k not in rep]
            if missing:
                return ["probe report lacks %s" % missing]
            if not (rep["smallest_gap"] >= 0.0 and len(rep["witness_pair"]) == 2):
                return ["probe report has no witness pair or a negative gap"]
            return []
        if cmd.args["mode"] == "gram":
            problems = []
            if rep["quadrature_converged"] is not True:
                problems.append("gram quadrature not converged")
            if rep["numerical_rank"] != cmd.facts["s"]:
                problems.append("gram numerical rank %s, expected %d" % (rep["numerical_rank"], cmd.facts["s"]))
            return problems
        n = cmd.args["trials"]
        if rep["n_trials"] != n or rep["distinct_passes"] != n or rep["permuted_passes"] != n:
            return ["trial passes %s/%s of %d" % (rep["distinct_passes"], rep["permuted_passes"], n)]
        return []

    def summary(self, times):
        return {
            "check_id_s": (float(np.median(times["check-id"])), "s"),
            "probe_s": (float(np.median(times["probe-open"])), "s"),
        }

    def probe_layers(self, tr, cmd, state):
        if cmd.kind != "probe-open":
            return
        # mixture_cdf on the 41 x 41 grids the equality test builds, on random
        # well-separated p=2, s=2 pairs like the ones the trials draw.
        rng = np.random.default_rng([self.tag, self.seed, 1])
        calls = 20
        for _ in range(self.size["grid_pairs"]):
            m1, m2 = (
                logimix.MixtureModel(w, tuple(logimix.MldParams(m, sg) for m, sg in zip(mu, sigma)))
                for w, mu, sigma in (random_model(rng, 2, 2, min_gap=0.1) for _ in range(2))
            )
            lo = np.min([c.mu - 10.0 * c.sigma for c in m1.components + m2.components], axis=0)
            hi = np.max([c.mu + 10.0 * c.sigma for c in m1.components + m2.components], axis=0)
            axes = np.meshgrid(*(np.linspace(lo[k], hi[k], 41) for k in range(2)), indexing="ij")
            grid = np.column_stack([a.ravel() for a in axes])
            tr.call("mixture.mixture_cdf", logimix.mixture_cdf, grid, m1)
            tr.call("identifiability.mixture_equality_test", logimix.mixture_equality_test, m1, m2)
            with tr.span("identifiability.matched_param_distance", n=calls):
                for _ in range(calls):
                    logimix.matched_param_distance(m1, m2)


WORKLOADS = {cls.name: cls for cls in (FitRef, FitBatch, Density, Identify)}
