"""Interleaved A/B timing of one benchmark workload on two source trees.

    python3 tools/interleaved_ab.py --parent ../parent-checkout --change . \\
        --workload identify --seed 227 --cycles 21

Two worker processes are started, one per tree.  Each imports ``logimix``
from its tree's ``src/`` and draws the workload's inputs through its tree's
``perfbench/workloads.py`` (read only) into a temporary directory of its
own.  The workers then run one cycle of the workload's CLI commands in
turn, through ``logimix.cli.run`` as ``perfbench/run.py`` does, and which
tree goes first alternates from cycle to cycle, so a slow phase of the host
falls on both.  Every output is checked as ``perfbench/run.py`` checks it,
outside the timed region.  The first cycle, which pays the imports and cold
caches, is left out of the figures.  Printed per tree: the median and
quartiles of the wall time and of ``time.process_time`` per cycle; then the
median paired difference (change minus parent) and "change lower k/n", the
number of cycles in which the change's wall time was lower.  The last line
is the same as one JSON object.  BLAS and OpenMP are pinned to one thread.
Nothing is written outside the temporary directories, which are removed at
the end; the workers write no bytecode into either tree.  The exit status is 1 if any output check failed, else 0.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker(tree, workload, seed, size, workdir):
    """Serve cycles on stdin/stdout: each "run" line gets one JSON line back."""
    replies, sys.stdout = sys.stdout, sys.stderr  # anything the program prints stays off the replies
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    from logimix import cli
    from workloads import WORKLOADS

    load = WORKLOADS[workload](seed, size, workdir)
    load.setup()
    first = True
    for line in sys.stdin:
        if line.strip() != "run":
            break
        problems = []
        wall = cpu = 0.0
        for cmd in load.cmds:
            start, start_cpu = time.perf_counter(), time.process_time()
            code = cli.run(cmd.argv)
            wall += time.perf_counter() - start
            cpu += time.process_time() - start_cpu
            found = load.verify(cmd, first) if code in (0, 2) else ["exit code %s" % code]
            problems += ["%s: %s" % (" ".join(cmd.argv[:3]), p) for p in found]
        first = False
        replies.write(json.dumps({"wall": wall, "cpu": cpu, "problems": problems}) + "\n")
        replies.flush()


def start_worker(tree, args, workdir):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{var: "1" for var in THREAD_VARS})
    argv = [sys.executable, os.path.abspath(__file__), "--worker", tree, "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--workdir", workdir]
    return subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)


def cycle(proc):
    proc.stdin.write("run\n")
    proc.stdin.flush()
    reply = proc.stdout.readline()
    if not reply:
        raise RuntimeError("a worker exited early (exit status %s)" % proc.wait())
    return json.loads(reply)


def spread(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 5), "quartiles": [round(float(q1), 5), round(float(q3), 5)]}


def compare(args):
    """Run the interleaved cycles; the summary dict, and the output problems found."""
    runs = {"parent": [], "change": []}
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        procs = {}
        try:
            for side in runs:
                workdir = os.path.join(tmp, side)
                os.makedirs(workdir)
                procs[side] = start_worker(os.path.abspath(getattr(args, side)), args, workdir)
            for i in range(args.cycles):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    result = cycle(procs[side])
                    runs[side].append(result)
                    problems += ["%s cycle %d: %s" % (side, i, p) for p in result["problems"]]
        finally:
            for proc in procs.values():
                proc.stdin.close()
                proc.wait(timeout=60)
    counted = {side: runs[side][1:] for side in runs}
    wall = {side: np.array([r["wall"] for r in counted[side]]) for side in runs}
    diffs = wall["change"] - wall["parent"]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "cycles_counted": len(diffs),
        "first_cycle_wall_s": {side: round(runs[side][0]["wall"], 5) for side in runs},
        **{side: {"wall_s": spread(wall[side]),
                  "process_time_s": spread([r["cpu"] for r in counted[side]])} for side in runs},
        "median_paired_diff_s": round(float(np.median(diffs)), 5),
        "change_lower": "%d/%d" % (int(np.sum(diffs < 0)), len(diffs)),
    }
    return summary, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="source tree of the parent (a checkout with src/ and perfbench/)")
    parser.add_argument("--change", help="source tree of the change")
    parser.add_argument("--workload", required=True, choices=["fit-ref", "fit-batch", "density", "identify"])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--size", choices=["full", "smoke"], default="full", help="input size (default full)")
    parser.add_argument("--cycles", type=int, default=21,
                        help="cycles per tree, the first left out (default 21)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.worker, args.workload, args.seed, args.size, args.workdir)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    if args.cycles < 2:
        parser.error("--cycles must be at least 2: the first cycle is left out")
    summary, problems = compare(args)
    for problem in problems:
        print("FAILED " + problem, file=sys.stderr)
    for side in ("parent", "change"):
        wall, cpu = summary[side]["wall_s"], summary[side]["process_time_s"]
        print("%-6s wall %.4f s [%.4f, %.4f]  process_time %.4f s [%.4f, %.4f]"
              % (side, wall["median"], *wall["quartiles"], cpu["median"], *cpu["quartiles"]))
    print("median paired difference (change - parent) %+.4f s; change lower %s"
          % (summary["median_paired_diff_s"], summary["change_lower"]))
    print(json.dumps(summary))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
