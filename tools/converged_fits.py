"""Final log-likelihoods of the benchmark's fits, run to convergence, on two source trees.

    python3 tools/converged_fits.py --parent ../parent-checkout --change . --seed 1

Two changes to EM can stop one fit at different points under the default
stopping rule, or at the cap, although both climb to the same maximum;
comparing them there mixes how far each got with where each goes.  This
tool compares them at convergence instead.  One worker process per tree
imports ``logimix`` from that tree's ``src/`` and draws the inputs of the
fit-ref and fit-batch workloads through that tree's
``perfbench/workloads.py`` (read only) into a temporary directory of its
own.  It then runs every fit command of the two workloads as ``em_fit``
with the command's ``s``, ``seed`` and ``n_restarts``, but with
``max_iter=20000`` and ``estimation.REL_TOL`` set to 1e-13 in that worker.
Printed per fit: workload, command index, p, s, each tree's final
log-likelihood (with its step count and whether it converged) and the
difference, change minus parent.  The last line is the same as one JSON
object.  ``--size smoke`` runs the benchmark's small inputs.  The exit
status is 1 if any fit of the change ends more than 1e-8 nats below the
parent's, else 0.  Nothing is written outside the temporary directories,
which are removed at the end; the workers write no bytecode into either
tree.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

from interleaved_ab import THREAD_VARS

WORKLOADS = ("fit-ref", "fit-batch")
# What names one fit; both trees must draw the same fits in the same order.
KEY = ("workload", "index", "p", "s")
REL_TOL = 1e-13
MAX_ITER = 20000
# A fit of the change may end at most this many nats below the parent's.
SLACK = 1e-8


def worker(tree, seed, size, workdir):
    """Run every fit of ``tree`` to convergence; print one JSON line with the results."""
    replies, sys.stdout = sys.stdout, sys.stderr  # anything the program prints stays off the reply
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import logimix
    from logimix import estimation
    from workloads import WORKLOADS as LOADS

    estimation.REL_TOL = REL_TOL
    fits = []
    for name in WORKLOADS:
        directory = os.path.join(workdir, name)
        os.makedirs(directory)
        load = LOADS[name](seed, size, directory)
        load.setup()
        for index, cmd in enumerate(load.cmds):
            if cmd.kind != "fit":
                continue
            a = cmd.args
            restarts = {"n_restarts": a["n_restarts"]} if "n_restarts" in a else {}
            config = logimix.FitConfig(s=a["s"], seed=a["seed"], max_iter=MAX_ITER, **restarts)
            res = logimix.em_fit(logimix.load_dataset(a["data"]), config)
            fits.append({"workload": name, "index": index, "p": cmd.facts["p"], "s": a["s"],
                         "fit": {"loglik": float(res.loglik_trace[-1]), "n_iter": int(res.n_iter),
                                 "converged": bool(res.converged)}})
    replies.write(json.dumps(fits) + "\n")


def run_trees(args):
    """{side: list of fit results}, both trees' workers running at once."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{var: "1" for var in THREAD_VARS})
    with tempfile.TemporaryDirectory() as tmp:
        procs = {}
        for side in ("parent", "change"):
            workdir = os.path.join(tmp, side)
            os.makedirs(workdir)
            argv = [sys.executable, os.path.abspath(__file__), "--worker", os.path.abspath(getattr(args, side)),
                    "--seed", str(args.seed), "--size", args.size, "--workdir", workdir]
            procs[side] = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
        results = {}
        for side, proc in procs.items():
            out, _ = proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError("the %s worker exited with status %d" % (side, proc.returncode))
            results[side] = json.loads(out)
    return results


def describe(fit):
    """A fit's final log-likelihood, step count and outcome, for one line."""
    return "%r (%d steps%s)" % (fit["loglik"], fit["n_iter"], "" if fit["converged"] else ", not converged")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="source tree of the parent (a checkout with src/ and perfbench/)")
    parser.add_argument("--change", help="source tree of the change")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--size", choices=["full", "smoke"], default="full", help="input size (default full)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.seed, args.size, args.workdir)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    results = run_trees(args)
    keys = {side: [[fit[k] for k in KEY] for fit in fits] for side, fits in results.items()}
    if keys["parent"] != keys["change"]:
        raise RuntimeError("the two trees' workloads draw different fits")
    rows = []
    for parent, change in zip(results["parent"], results["change"]):
        row = {key: parent[key] for key in KEY}
        row.update(parent=parent["fit"], change=change["fit"],
                   diff=change["fit"]["loglik"] - parent["fit"]["loglik"])
        rows.append(row)
        print("%s %d p=%d s=%d parent=%s change=%s diff=%+.3e%s" % (
            row["workload"], row["index"], row["p"], row["s"], describe(row["parent"]),
            describe(row["change"]), row["diff"], "  LOWER" if row["diff"] < -SLACK else ""))
    lower = sum(row["diff"] < -SLACK for row in rows)
    print(json.dumps({"seed": args.seed, "size": args.size, "rel_tol": REL_TOL, "max_iter": MAX_ITER,
                      "fits": rows, "lower": lower}))
    return 1 if lower else 0


if __name__ == "__main__":
    sys.exit(main())
