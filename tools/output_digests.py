"""Exit code and SHA-1 of every output file of the benchmark's CLI commands.

Runs every command of the four ``perfbench`` workloads (fit-ref, fit-batch,
density, identify) for one seed through ``logimix.cli.run``, on inputs the
workloads draw themselves, and prints one line per output file: workload,
command index and kind, exit code, file name and SHA-1.  Two checkouts print
the same lines exactly when every command exits the same way and writes the
same bytes, so a change that must keep every output byte-identical is checked
by running, in each checkout,

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

from logimix import cli  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402


def sha1(path):
    with open(path, "rb") as fh:
        return hashlib.sha1(fh.read()).hexdigest()


def digest_lines(seed, size, workdir):
    """(line, ok) per output file of every workload command, in workload order."""
    for name, cls in WORKLOADS.items():
        directory = os.path.join(workdir, name)
        os.makedirs(directory)
        workload = cls(seed, size, directory)
        workload.setup()
        for index, cmd in enumerate(workload.cmds):
            code = cli.run(cmd.argv)
            for out in cmd.outputs:
                digest = sha1(out) if os.path.exists(out) else "missing"
                line = "%s %d %s exit=%s %s %s" % (
                    name, index, cmd.kind, code, os.path.basename(out), digest,
                )
                yield line, code in (0, 2)


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
