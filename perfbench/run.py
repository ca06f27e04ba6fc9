"""Run one benchmark workload against the ``logimix`` sources of this checkout.

    python3 perfbench/run.py --workload fit-ref --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload's CLI commands run in this process through
``logimix.cli.run``, cycle after cycle, for about ``--seconds`` seconds, and
the end-to-end metrics are reported.  With ``--trace 1`` the commands run once
untraced, then once more as a replay of the public calls each command makes,
with a span around every call; the per-layer metrics and the tracing overhead
are reported.  ``--smoke`` uses tiny inputs and a single cycle.

Every output is checked.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list every figure with its unit and the environment.  The full
record, spans included, goes to ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing

# BLAS and OpenMP are pinned before numpy is first imported, so the figures do
# not depend on how many cores the machine has free.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# Set-up is repeated and its median reported, because one interpreter start
# and import is too noisy to compare on its own.
SETUP_REPEATS = 7
IMPORT_PROBE = "import time; t = time.perf_counter(); import logimix; print(time.perf_counter() - t)"

END_TO_END = {
    "setup_s": "s",
    "commands_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer rates: metric -> (span name, scale, unit); value = scale * seconds / work units.
LAYER_RATES = {
    "mld.standard_log_pdf.ns_per_row": ("mld.standard_log_pdf", 1e9, "ns/row"),
    "mld.standard_cdf.ns_per_row": ("mld.standard_cdf", 1e9, "ns/row"),
    "mld.mld_log_pdf.ns_per_row": ("mld.mld_log_pdf", 1e9, "ns/row"),
    "mixture.sample_mixture.ns_per_row": ("mixture.sample_mixture", 1e9, "ns/row"),
    "mixture.save_dataset.ns_per_row": ("mixture.save_dataset", 1e9, "ns/row"),
    "mixture.load_dataset.ns_per_row": ("mixture.load_dataset", 1e9, "ns/row"),
    "mixture.mixture_log_pdf.ns_per_row": ("mixture.mixture_log_pdf", 1e9, "ns/row"),
    "mixture.mixture_cdf.us_per_grid": ("mixture.mixture_cdf", 1e6, "us/grid"),
    "estimation.em_fit.s_per_iter": ("estimation.em_fit.single_restart", 1.0, "s/iter"),
    "estimation.responsibilities.s": ("estimation.responsibilities", 1.0, "s"),
    "estimation.component_log_pdf_grad.ns_per_row": ("estimation.component_log_pdf_grad", 1e9, "ns/row"),
    "estimation.init_params.s": ("estimation.init_params", 1.0, "s"),
    "identifiability.gram_min_eigenvalue.s": ("identifiability.gram_min_eigenvalue", 1.0, "s"),
    "identifiability.mixture_equality_test.ms_per_call": ("identifiability.mixture_equality_test", 1e3, "ms/call"),
    "identifiability.matched_param_distance.us_per_call": ("identifiability.matched_param_distance", 1e6, "us/call"),
    "identifiability.identifiability_trial.ms_per_trial": ("identifiability.identifiability_trial", 1e3, "ms/trial"),
}
CLI_SELF = ("fit", "sample", "eval", "check-id")
PER_LAYER = {
    **{name: unit for name, (_, _, unit) in LAYER_RATES.items()},
    "estimation.em_fit.iters": "count",
    "estimation.mstep_share": "share",
    **{"cli.%s.self_s" % kind: "s" for kind in CLI_SELF},
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["fit-ref", "fit-batch", "density", "identify"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one cycle")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "pinned_threads": THREADS,
        "platform": platform.platform(),
    }


def import_seconds():
    """Time ``import logimix`` in a fresh interpreter, as a user's first command pays it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def set_up(cls, seed, size, workdir):
    """Median over SETUP_REPEATS of (fresh import + writing and reading the inputs)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        load = import_seconds()
        start = time.perf_counter()
        workload = cls(seed, size, workdir)
        workload.setup()
        samples.append(load + time.perf_counter() - start)
    return workload, statistics.median(samples)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"what": what, "problems": problems})
            print("FAILED %s: %s" % (what, "; ".join(problems)), file=sys.stderr)


def run_cycle(cli, workload, tally, first):
    """Run every command once through the CLI; return seconds per command kind."""
    spent = {}
    for cmd in workload.cmds:
        start = time.perf_counter()
        try:
            code = cli.run(cmd.argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            code = repr(exc)
        spent[cmd.kind] = spent.get(cmd.kind, 0.0) + time.perf_counter() - start
        try:
            # Exit code 2 still writes the outputs (e.g. a fit that hit max_iter).
            problems = workload.verify(cmd, first) if code in (0, 2) else ["exit code %s" % code]
        except Exception as exc:
            problems = ["check raised %r" % exc]
        tally.record(" ".join(cmd.argv[:3]), problems)
    return spent


def measure(cli, workload, seconds, smoke, tally):
    """Cycles until the next one would end after ``seconds``; per-kind times per cycle."""
    times = {}
    start = time.perf_counter()
    while True:
        spent = run_cycle(cli, workload, tally, first=not times)
        for kind, value in spent.items():
            times.setdefault(kind, []).append(value)
        times.setdefault("cycle", []).append(sum(spent.values()))
        elapsed = time.perf_counter() - start
        if smoke or elapsed + statistics.median(times["cycle"]) > seconds:
            return times


def layer_metrics(spans):
    """Per-layer values from one set of spans (only the layers they reach)."""
    out = {}
    for metric, (span, scale, _) in LAYER_RATES.items():
        total, units = tracing.totals(spans, span)
        if units:
            out[metric] = scale * total / units
    restarts = [r for r in spans if r["name"] == "estimation.em_fit.single_restart"]
    e_steps = [r for r in spans if r["name"] == "estimation.responsibilities"]
    if restarts:
        out["estimation.em_fit.iters"] = sum(r["n"] - 1 for r in restarts)
        # One E-step per iteration on the same rows: the rest of an iteration is the M-step.
        e_time = sum(tracing.duration(e) * r["n"] for e, r in zip(e_steps, restarts))
        out["estimation.mstep_share"] = 1.0 - e_time / sum(tracing.duration(r) for r in restarts)
    own = tracing.self_times(spans)
    for kind in CLI_SELF:
        picked = [own[r["id"]] for r in spans if r["name"] == "cli." + kind]
        if picked:
            out["cli.%s.self_s" % kind] = sum(picked)
    return out


def traced(cli, workloads, cls, seed, size, workdir, tally):
    """Per-layer metrics of one workload, plus the spans behind them.

    A warm-up cycle on the workload's smoke-size inputs (fully checked) comes
    first, so that the untraced cycle the overhead is taken against and the
    replay both run with every code path loaded.
    """
    warm_dir = os.path.join(workdir, "warm-up")
    os.makedirs(warm_dir)
    warm = cls(seed, "smoke", warm_dir)
    warm.setup()
    run_cycle(cli, warm, tally, first=True)
    workload = cls(seed, size, workdir)
    workload.setup()
    untraced = sum(run_cycle(cli, workload, tally, first=True).values())
    tr = tracing.Tracer()
    for cmd in workload.cmds:
        workload.replay(tr, cmd)
        # The replay must write exactly what the CLI wrote from the same inputs.
        tally.record("replay " + " ".join(cmd.argv[:3]), workload.verify(cmd, first_cycle=False))
    replayed = sum(tracing.duration(r) for r in tr.spans if r["parent"] is None and r["name"].startswith("cli."))
    metrics = layer_metrics(tr.spans)
    metrics["trace.overhead_s"] = replayed - untraced

    # Layers this workload never reaches are measured on the other workloads'
    # smoke-size inputs, so that every traced run reports every layer.
    filler_spans = []
    for other in workloads.values():
        if other is cls:
            continue
        filler_dir = os.path.join(workdir, "filler-" + other.name)
        os.makedirs(filler_dir)
        filler = other(seed, "smoke", filler_dir)
        filler.setup()
        ftr = tracing.Tracer()
        for cmd in filler.cmds:
            filler.replay(ftr, cmd)
            tally.record("filler " + " ".join(cmd.argv[:3]), filler.check(cmd))
        filler_spans.extend(ftr.spans)
        for name, value in layer_metrics(ftr.spans).items():
            metrics.setdefault(name, value)
    return metrics, {"own": tr.spans, "filler": filler_spans}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "logimix", "__init__.py")):
        print("error: no logimix sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from logimix import cli
    from workloads import WORKLOADS

    size = "smoke" if args.smoke else "full"
    cls = WORKLOADS[args.workload]
    workdir = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    tally = Tally()
    record = {"args": vars(args), "env": environment()}
    try:
        if args.trace:
            values, record["spans"] = traced(cli, WORKLOADS, cls, args.seed, size, workdir, tally)
            units = PER_LAYER
        else:
            workload, setup_s = set_up(cls, args.seed, size, workdir)
            times = measure(cli, workload, args.seconds, args.smoke, tally)
            values = {
                "setup_s": setup_s,
                "commands_s": statistics.median(times["cycle"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
            record["times"] = times
            record["figures"] = {
                **{k: {"value": v, "unit": u} for k, (v, u) in workload.summary(times).items()},
                "failed_frac": {"value": tally.failed / tally.attempted, "unit": "share"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        print("error: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "%s-seed%d-trace%d%s.json" % (
        args.workload, args.seed, args.trace, "-smoke" if args.smoke else ""))
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for name, entry in {**metrics, **record.get("figures", {})}.items():
        print("%-52s %16.6g %s" % (name, entry["value"], entry["unit"]))
    print("env %s" % json.dumps(record["env"], sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
