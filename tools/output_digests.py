"""Exit code and SHA-1 of every output file of the benchmark's CLI commands and a few more.

Runs every command of the four ``perfbench`` workloads (fit-ref, fit-batch,
density, identify) for one seed through ``logimix.cli.run``, on inputs the
workloads draw themselves, then the "extra" commands: CLI paths no workload
takes (``sample --labels``, ``eval --emit-plot-data`` on a p = 1 model,
``check-id --mode equality`` of a model against itself and against a
component-permuted copy, ``collapse`` of a shared-scale p = 2 model,
``check-id --mode gram`` of the p = 1 and p = 2 models,
``check-id --mode vandermonde`` of four distinct nodes, and ``fit`` of seven
rows with s = 5 and of fifty identical rows with s = 1, where the scale floor
binds, each followed by an ``eval`` that loads the fitted model again, and a
``sample`` and an ``eval`` of a p = 2 model with locations 0 and 1e17, whose
values ``repr`` writes in exponent notation and whose eval rows include ones
where every log density is -inf, written null), on models, nodes and rows
drawn here from the seed.  It prints one line per
output file: workload (or "extra"), command index and kind, exit code, file
name and SHA-1.  Two checkouts print the same lines exactly when every command exits
the same way and writes the same bytes, so a change that must keep every
output byte-identical is checked by running, in each checkout,

    python3 tools/output_digests.py --seed 1 > digests-seed1.txt

and comparing the two files with ``diff``.  ``--size smoke`` runs the
benchmark's small inputs.  The exit status is 1 if a command exited with
anything but 0 (success) or 2 (outputs written, numerical flag), else 0.
Nothing under ``perfbench/`` is changed; the inputs and outputs live in a
temporary directory that is removed afterwards.
"""

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from logimix import cli  # noqa: E402
from workloads import SIZES, WORKLOADS, random_model, write_model, write_rows  # noqa: E402

# Rows the extra "sample" command draws, per size.
EXTRA_ROWS = {"full": 2000, "smoke": 200}


def sha1(path):
    with open(path, "rb") as fh:
        return hashlib.sha1(fh.read()).hexdigest()


def extra_commands(seed, size, directory):
    """(argv, outputs) of the extra commands, after writing the models they read.

    The models come from the benchmark's own generator and writer, so the
    program under test builds none of its inputs.
    """
    rng = np.random.default_rng([7, seed])
    def path(name):
        return os.path.join(directory, name)

    weights, mu, sigma = random_model(rng, 1, 2, min_gap=0.5)
    write_model(path("p1.json"), weights, mu, sigma)
    weights, mu, sigma = random_model(rng, 2, 3, min_gap=0.5)
    sigma = np.broadcast_to(sigma[0], sigma.shape)
    write_model(path("p2.json"), weights, mu, sigma)
    perm = np.roll(np.arange(3), 1)
    write_model(path("p2-permuted.json"), weights[perm], mu[perm], sigma[perm])
    node_mus, node_sigmas = rng.uniform([[-2.0], [0.5]], [[2.0], [2.0]], (2, 4))
    write_rows(path("seven.csv"), rng.normal(size=(7, 1)))
    write_rows(path("identical.csv"), np.full((50, 1), rng.normal()))
    # Draws that repr writes in exponent notation, |x| < 1e-4 and |x| >= 1e16, and rows at
    # which every component's residual overflows, so that a log density is -inf.
    far_mu = np.array([[0.0, 1e17], [1e17, 0.0]])
    write_model(path("far.json"), np.array([0.4, 0.6]), far_mu, np.where(far_mu == 0.0, 1e-9, 1e3))
    write_rows(path("far.csv"), np.concatenate([
        far_mu + rng.normal(size=(2, 2)) * [[1e-9, 1e3], [1e3, 1e-9]],
        [[1e300, 1e300], [-1e300, 0.0], [1e-300, 1e17]]]))
    return [
        (["sample", "--model", path("p1.json"), "--n", str(EXTRA_ROWS[size]), "--seed", str(seed),
          "--out", path("rows.csv"), "--labels", path("labels.csv")],
         (path("rows.csv"), path("labels.csv"))),
        (["eval", "--model", path("p1.json"), "--data", path("rows.csv"), "--seed", str(seed),
          "--out", path("eval.json"), "--emit-plot-data", path("plot.csv")],
         (path("eval.json"), path("plot.csv"))),
        (["check-id", "--mode", "equality", "--model", path("p2.json"),
          "--model2", path("p2.json"), "--out", path("equal-self.json")],
         (path("equal-self.json"),)),
        (["check-id", "--mode", "equality", "--model", path("p2.json"),
          "--model2", path("p2-permuted.json"), "--out", path("equal-permuted.json")],
         (path("equal-permuted.json"),)),
        (["collapse", "--model", path("p2.json"), "--coords", "0,1", "--offsets", "0.25,-0.5",
          "--out", path("collapsed.json")],
         (path("collapsed.json"),)),
        (["check-id", "--mode", "gram", "--model", path("p1.json"), "--out", path("gram-p1.json")],
         (path("gram-p1.json"),)),
        (["check-id", "--mode", "gram", "--model", path("p2.json"), "--out", path("gram-p2.json")],
         (path("gram-p2.json"),)),
        # The lists may start with a minus sign, which the plain "--mus -1.5,..." form must accept.
        (["check-id", "--mode", "vandermonde", "--mus", ",".join(map(repr, node_mus.tolist())),
          "--sigmas", ",".join(map(repr, node_sigmas.tolist())), "--out", path("vandermonde.json")],
         (path("vandermonde.json"),)),
    ] + [cmd for rows, s in (("seven", 5), ("identical", 1)) for cmd in (
        (["fit", "--data", path(rows + ".csv"), "--s", str(s), "--n-restarts", "2", "--seed", str(seed),
          "--out", path(rows + "-model.json"), "--report", path(rows + "-report.json")],
         (path(rows + "-model.json"), path(rows + "-report.json"))),
        (["eval", "--model", path(rows + "-model.json"), "--data", path(rows + ".csv"),
          "--seed", str(seed), "--out", path(rows + "-eval.json")],
         (path(rows + "-eval.json"),)),
    )] + [
        (["sample", "--model", path("far.json"), "--n", str(EXTRA_ROWS[size]), "--seed", str(seed),
          "--out", path("far-rows.csv")],
         (path("far-rows.csv"),)),
        (["eval", "--model", path("far.json"), "--data", path("far.csv"), "--seed", str(seed),
          "--out", path("far-eval.json")],
         (path("far-eval.json"),)),
    ]


def digest_lines(seed, size, workdir):
    """(line, ok) per output file of every workload command, in workload order, then of each extra."""
    for name, cls in WORKLOADS.items():
        directory = os.path.join(workdir, name)
        os.makedirs(directory)
        workload = cls(seed, size, directory)
        workload.setup()
        for index, cmd in enumerate(workload.cmds):
            yield from _run(name, index, cmd.argv, cmd.outputs)
    directory = os.path.join(workdir, "extra")
    os.makedirs(directory)
    for index, (argv, outputs) in enumerate(extra_commands(seed, size, directory)):
        yield from _run("extra", index, argv, outputs)


def _run(name, index, argv, outputs):
    """Run one CLI command; (line, ok) per output file it should write."""
    code = cli.run(argv)
    for out in outputs:
        digest = sha1(out) if os.path.exists(out) else "missing"
        base = os.path.basename(out)
        yield "%s %d %s exit=%s %s %s" % (name, index, argv[0], code, base, digest), code in (0, 2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="benchmark input size (default full)")
    args = parser.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory() as workdir:
        for line, line_ok in digest_lines(args.seed, args.size, workdir):
            print(line, flush=True)
            ok = ok and line_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
