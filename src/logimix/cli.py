"""Command-line front end: sampling, evaluation, fitting, identifiability checks.

Exit codes: 0 on success, 1 on validation errors (bad arguments or files,
message on stderr), 2 on numerical failure (non-convergence or a flagged
quadrature) -- outputs are still written in the exit-2 case so the reports
can be inspected.
"""

import argparse
import json
import math
import re
import sys

import numpy as np

from ._util import write_text_atomic, write_texts_atomic
from .estimation import FitConfig, em_fit
from .identifiability import (
    _evaluation_grid,
    collapse_pair,
    gram_min_eigenvalue,
    identifiability_trial,
    mixture_equality_test,
    probe_open_problem,
    vandermonde_check,
)
from .mixture import (
    _dataset_chunks,
    _float_text,
    _row_blocks,
    _row_chunks,
    load_dataset,
    load_model,
    mixture_cdf,
    mixture_log_pdf,
    mixture_pdf,
    sample_mixture,
    save_model,
)


class _CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read an argument that starts with a minus sign and a digit, such as the
        # comma list "-1,2", as a value: argparse before Python 3.13 reads only a
        # plain negative number so, and no option of this parser looks like one.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise _CliError(message)


def _sanitize(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _json_text(obj):
    return json.dumps(_sanitize(obj), indent=2) + "\n"


def _write_json(path, obj):
    write_text_atomic(path, _json_text(obj))


def _parse_floats(text, what):
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise _CliError("cannot parse %s %r: %s" % (what, text, exc)) from exc


def _parse_int_pair(text, what):
    parts = text.split(",")
    if len(parts) != 2:
        raise _CliError("%s must be two comma-separated integers, got %r" % (what, text))
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise _CliError("cannot parse %s %r" % (what, text)) from exc


def _cmd_sample(args):
    model = load_model(args.model)
    data, labels = sample_mixture(model, args.n, args.seed)
    header = "drawn by 'logimix sample', seed=%d" % args.seed
    outputs = [(args.out, _dataset_chunks(data, header=header))]
    if args.labels:
        outputs.append((args.labels, _row_chunks(labels[:, None])))
    # Both files or neither, as in eval.
    write_texts_atomic(outputs)
    return 0


def _eval_report_chunks(head, rows):
    """``_json_text`` of ``head`` with ``rows`` as its last entry, "per_row_log_pdf", in
    ROW_BLOCK blocks.  Each value is its ``repr``, as ``json.dumps`` writes it, and null if it
    is not finite, as ``_sanitize`` has it: orjson's text with ``repr`` spliced in (``_float_text``)."""
    text = _json_text({**head, "per_row_log_pdf": []})
    yield text[:-len("]\n}\n")]
    for i, block in enumerate(_row_blocks(rows.size)):
        yield ("," if i else "") + "\n    "
        yield _float_text(rows[block, None], b",\n    ")
    yield "\n  ]\n}\n"


def _cmd_eval(args):
    model = load_model(args.model)
    data = load_dataset(args.data)
    if args.emit_plot_data:
        if model.p != 1:
            raise _CliError("--emit-plot-data requires a one-dimensional model")
        xs = _evaluation_grid((model,), points_per_axis=401)[0]
    rows = np.empty(data.shape[0])
    for block in _row_blocks(rows.size):
        rows[block] = mixture_log_pdf(data[block], model)
    head = {"seed": args.seed, "n": int(rows.size), "total_log_likelihood": float(rows.sum())}
    outputs = [(args.out, _eval_report_chunks(head, rows))]
    if args.emit_plot_data:
        pts = xs[:, None]
        pdf = np.atleast_1d(mixture_pdf(pts, model))
        cdf = np.atleast_1d(mixture_cdf(pts, model))
        plot = _dataset_chunks(np.column_stack([xs, pdf, cdf]), header="x,pdf,cdf")
        outputs.append((args.emit_plot_data, plot))
    # Both files or neither: a plot path that cannot be written leaves no report behind.
    write_texts_atomic(outputs)
    return 0


def _cmd_fit(args):
    data = load_dataset(args.data)
    config = FitConfig(
        s=args.s,
        max_iter=args.max_iter,
        n_restarts=args.n_restarts,
        seed=args.seed,
    )
    result = em_fit(data, config)
    save_model(result.model, args.out)
    if args.report:
        _write_json(
            args.report,
            {
                "loglik_trace": [float(v) for v in result.loglik_trace],
                "converged": bool(result.converged),
                "n_iter": int(result.n_iter),
                "seed": args.seed,
            },
        )
    return 0 if result.converged else 2


def _cmd_check_id(args):
    if args.mode == "gram":
        if not args.model:
            raise _CliError("gram mode needs --model")
        model = load_model(args.model)
        rep = gram_min_eigenvalue(model.components, nodes_per_axis=args.nodes)
        _write_json(args.out, {"seed": args.seed, **rep.to_dict()})
        return 0 if rep.quadrature_converged else 2
    if args.mode == "vandermonde":
        if not (args.mus and args.sigmas):
            raise _CliError("vandermonde mode needs --mus and --sigmas")
        rep = vandermonde_check(
            _parse_floats(args.mus, "--mus"), _parse_floats(args.sigmas, "--sigmas")
        )
        _write_json(args.out, {"seed": args.seed, **rep.to_dict()})
        return 0
    if args.mode == "equality":
        if not (args.model and args.model2):
            raise _CliError("equality mode needs --model and --model2")
        rep = mixture_equality_test(load_model(args.model), load_model(args.model2))
        _write_json(args.out, {"seed": args.seed, **rep.to_dict()})
        return 0
    if args.mode == "trial":
        summary = identifiability_trial(
            args.p, args.s, args.shared_scale, args.seed, args.trials
        )
        _write_json(args.out, summary)
        failed = summary.get("distinct_failures", 0) + summary.get("permuted_failures", 0)
        return 2 if failed else 0
    raise _CliError("unknown check-id mode %r" % args.mode)


def _cmd_collapse(args):
    model = load_model(args.model)
    a, b = _parse_int_pair(args.coords, "--coords")
    offsets = _parse_floats(args.offsets, "--offsets")
    if len(offsets) != 2:
        raise _CliError("--offsets must be two comma-separated reals")
    collapsed = collapse_pair(model, (a, b), offsets[0], offsets[1])
    save_model(collapsed, args.out)
    return 0


def _cmd_probe_open(args):
    report = probe_open_problem(args.p, args.s, args.trials, args.seed)
    _write_json(args.out, report)
    return 0


def _build_parser():
    parser = _Parser(prog="logimix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw rows from a model into a CSV")
    p_sample.add_argument("--model", required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True)
    p_sample.add_argument("--labels", help="optional CSV for component labels")
    p_sample.set_defaults(func=_cmd_sample)

    p_eval = sub.add_parser("eval", help="per-row log densities and total log-likelihood")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--emit-plot-data", help="CSV of (x, pdf, cdf) for 1-D models")
    p_eval.set_defaults(func=_cmd_eval)

    p_fit = sub.add_parser("fit", help="maximum-likelihood EM fit (REL_TOL and the M-step's limits are fixed)")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--s", type=int, required=True)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--report")
    p_fit.add_argument("--max-iter", type=int, default=500)
    p_fit.add_argument("--n-restarts", type=int, default=5)
    p_fit.set_defaults(func=_cmd_fit)

    p_check = sub.add_parser("check-id", help="identifiability reports")
    p_check.add_argument("--mode", required=True, choices=["gram", "vandermonde", "equality", "trial"])
    p_check.add_argument("--model")
    p_check.add_argument("--model2")
    p_check.add_argument("--mus")
    p_check.add_argument("--sigmas")
    p_check.add_argument("--p", type=int, default=1)
    p_check.add_argument("--s", type=int, default=2)
    p_check.add_argument("--shared-scale", action="store_true")
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--nodes", type=int, default=64)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", required=True)
    p_check.set_defaults(func=_cmd_check_id)

    p_collapse = sub.add_parser("collapse", help="merge two coordinates of a shared-scale model")
    p_collapse.add_argument("--model", required=True)
    p_collapse.add_argument("--coords", required=True, help="two 0-based indices, e.g. 0,1")
    p_collapse.add_argument("--offsets", required=True, help="two reals, e.g. 0.0,0.0")
    p_collapse.add_argument("--out", required=True)
    p_collapse.set_defaults(func=_cmd_collapse)

    p_probe = sub.add_parser("probe-open", help="exploratory near-collision search")
    p_probe.add_argument("--p", type=int, required=True)
    p_probe.add_argument("--s", type=int, required=True)
    p_probe.add_argument("--trials", type=int, required=True)
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.add_argument("--out", required=True)
    p_probe.set_defaults(func=_cmd_probe_open)

    return parser


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
