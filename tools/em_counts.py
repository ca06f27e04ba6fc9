"""Exact EM work counts of one cycle of the benchmark's fitting workloads.

Draws the inputs of the fit-ref and fit-batch workloads for one seed through
``perfbench/workloads.py`` (read only), runs each workload's CLI commands
once through ``logimix.cli.run``, and counts the calls of five functions of
``logimix.estimation``: the E-step (``_e_step``), the per-component Newton
steps of the M-step (``_ascend``), its derivative evaluations
(``_weighted_obj_derivs``, taken once per ``_ascend``, at its start), the
Newton solves (``_newton_direction``) and the component part computations
(``_component_parts``, one per trial point of a step and per component of
a start or an extrapolated point).  EM's work is
deterministic, so these counts are the same on every run of one tree and
seed, and two trees whose fits must do the same work are checked by running,
in each checkout,

    python3 tools/em_counts.py --seed 1 > counts-seed1.txt

and comparing the two files with ``diff``.  It prints one line of counts per
workload, each followed by one line per fit command of that workload:
workload, command index, p, s, exit code, ``n_iter`` and the final
log-likelihood as its ``repr``, read from the command's report, so the same
``diff`` also shows whether every fit ended the same way.  Last comes one
JSON object with the counts.  ``--size smoke`` runs the benchmark's small
inputs.  The exit status is 1 if a command exited with anything but 0
(success) or 2 (outputs written, numerical flag), else 0.
Nothing under ``perfbench/`` is changed; the inputs and outputs live in a
temporary directory that is removed afterwards.
"""

import argparse
import collections
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from logimix import cli, estimation  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

COUNTED = ("_e_step", "_ascend", "_weighted_obj_derivs", "_newton_direction", "_component_parts")


def counting(counts):
    """Replace each COUNTED function of ``estimation`` by a wrapper that adds 1 to
    ``counts[name]`` per call; returns the originals."""
    originals = {name: getattr(estimation, name) for name in COUNTED}

    def wrap(name, func):
        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return counted

    for name, func in originals.items():
        setattr(estimation, name, wrap(name, func))
    return originals


def fit_line(name, index, cmd, code):
    """The line of fit command ``cmd``, which exited with ``code``."""
    head = "%s %d p=%d s=%d exit=%s" % (name, index, cmd.facts["p"], cmd.args["s"], code)
    if not os.path.exists(cmd.args["report"]):
        return head + " report=missing"
    with open(cmd.args["report"]) as fh:
        report = json.load(fh)
    return head + " n_iter=%d loglik=%r" % (report["n_iter"], report["loglik_trace"][-1])


def workload_counts(name, seed, size, directory):
    """(counts, fit lines, ok) of one cycle of workload ``name``'s commands."""
    workload = WORKLOADS[name](seed, size, directory)
    workload.setup()
    counts = collections.Counter()
    originals = counting(counts)
    try:
        codes = [cli.run(cmd.argv) for cmd in workload.cmds]
    finally:
        for func_name, func in originals.items():
            setattr(estimation, func_name, func)
    fits = [fit_line(name, index, cmd, code)
            for index, (cmd, code) in enumerate(zip(workload.cmds, codes)) if cmd.kind == "fit"]
    ok = all(c in (0, 2) for c in codes)
    return {func_name: counts[func_name] for func_name in COUNTED}, fits, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="benchmark input size (default full)")
    args = parser.parse_args(argv)
    ok, report = True, {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in ("fit-ref", "fit-batch"):
            directory = os.path.join(workdir, name)
            os.makedirs(directory)
            report[name], fits, name_ok = workload_counts(name, args.seed, args.size, directory)
            ok = ok and name_ok
            counts = " ".join("%s=%d" % item for item in report[name].items())
            print("\n".join([name + " " + counts] + fits), flush=True)
    print(json.dumps({"seed": args.seed, "size": args.size, "counts": report}, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
