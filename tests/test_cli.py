import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import logimix as lm
from logimix import cli, mixture
from logimix.cli import run
from logimix.identifiability import _evaluation_grid

from test_mixture import FINITE_FLOATS

# Row counts around the block size that the tests below patch ROW_BLOCK down to.
B = 4
BLOCK_ROWS = [1, B - 1, B, B + 1, 2 * B + 3]


@pytest.fixture
def model_path(tmp_path):
    model = lm.MixtureModel(
        [0.3, 0.7], (lm.MldParams([-2.0], [1.0]), lm.MldParams([2.0], [0.5]))
    )
    path = tmp_path / "model.json"
    lm.save_model(model, path)
    return path


@pytest.fixture
def model2d_path(tmp_path):
    sigma = [1.0, 0.8]
    model = lm.MixtureModel(
        [0.5, 0.5],
        (lm.MldParams([0.0, 1.0], sigma), lm.MldParams([1.0, 0.0], sigma)),
    )
    path = tmp_path / "model2d.json"
    lm.save_model(model, path)
    return path


def test_sample_then_eval_reproducible(model_path, tmp_path):
    out1 = tmp_path / "d1.csv"
    out2 = tmp_path / "d2.csv"
    for out in (out1, out2):
        code = run([
            "sample", "--model", str(model_path), "--n", "200",
            "--seed", "9", "--out", str(out),
        ])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()

    rep1 = tmp_path / "r1.json"
    rep2 = tmp_path / "r2.json"
    for rep in (rep1, rep2):
        code = run([
            "eval", "--model", str(model_path), "--data", str(out1),
            "--out", str(rep),
        ])
        assert code == 0
    assert rep1.read_bytes() == rep2.read_bytes()
    doc = json.loads(rep1.read_text())
    assert doc["n"] == 200
    assert np.isfinite(doc["total_log_likelihood"])
    assert len(doc["per_row_log_pdf"]) == 200
    assert doc["seed"] == 0


def one_pass_csv(data, header):
    """The dataset text as one string, one row at a time: the reference for the blocked writer."""
    lines = ["# " + header] + [",".join(map(repr, row)) for row in np.asarray(data).tolist()]
    return "\n".join(lines) + "\n"


def one_pass_report(report):
    return json.dumps(cli._sanitize(report), indent=2) + "\n"


@pytest.mark.parametrize("n", BLOCK_ROWS)
def test_blocked_sample_and_eval_match_one_pass(monkeypatch, model_path, tmp_path, n):
    monkeypatch.setattr(mixture, "ROW_BLOCK", B)
    data, labels, report, plot = (tmp_path / f for f in ("d.csv", "l.csv", "r.json", "plot.csv"))
    assert run([
        "sample", "--model", str(model_path), "--n", str(n), "--seed", "4",
        "--out", str(data), "--labels", str(labels),
    ]) == 0
    assert run([
        "eval", "--model", str(model_path), "--data", str(data), "--seed", "6",
        "--out", str(report), "--emit-plot-data", str(plot),
    ]) == 0
    model = lm.load_model(model_path)
    rows, drawn = lm.sample_mixture(model, n, 4)
    assert data.read_text() == one_pass_csv(rows, "drawn by 'logimix sample', seed=4")
    assert labels.read_text() == "\n".join(str(int(v)) for v in drawn) + "\n"
    log_pdf = np.atleast_1d(lm.mixture_log_pdf(rows, model))
    assert report.read_text() == one_pass_report({
        "seed": 6,
        "n": n,
        "total_log_likelihood": float(log_pdf.sum()),
        "per_row_log_pdf": [float(v) for v in log_pdf],
    })
    # 401 plot rows: 100 full blocks and a last one of 1 row.
    xs = _evaluation_grid((model,), points_per_axis=401)[0]
    curves = np.column_stack([xs, lm.mixture_pdf(xs, model), lm.mixture_cdf(xs, model)])
    assert plot.read_text() == one_pass_csv(curves, "x,pdf,cdf")


@pytest.mark.parametrize("n", BLOCK_ROWS)
def test_blocked_report_writes_non_finite_rows_as_null(monkeypatch, n):
    monkeypatch.setattr(mixture, "ROW_BLOCK", B)
    every_third = np.linspace(-3.0, 1.0, n)
    every_third[::3] = [np.nan, np.inf, -np.inf, np.nan][:len(every_third[::3])]
    # The first block all finite and the non-finite values in the next.
    second_block = np.linspace(-3.0, 1.0, n)
    second_block[B:B + 3] = [np.nan, np.inf, -np.inf][:len(second_block[B:B + 3])]
    for rows in (every_third, second_block):
        head = {"seed": 1, "n": n, "total_log_likelihood": float(rows.sum())}
        text = "".join(cli._eval_report_chunks(head, rows))
        assert text == one_pass_report({**head, "per_row_log_pdf": rows.tolist()})
        assert json.loads(text)["per_row_log_pdf"] == [
            v if np.isfinite(v) else None for v in rows.tolist()]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(hnp.arrays(np.float64, st.integers(1, 12),
                  elements=st.one_of(FINITE_FLOATS, st.sampled_from([np.nan, np.inf, -np.inf]))),
       st.integers(1, 4))
def test_report_text_is_json_of_every_float(rows, block):
    # Blocks of 1 to 4 rows, so a spliced value or a null falls at a block edge.
    head = {"seed": 1, "n": rows.size, "total_log_likelihood": -1.5}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mixture, "ROW_BLOCK", block)
        text = "".join(cli._eval_report_chunks(head, rows))
    assert text == one_pass_report({**head, "per_row_log_pdf": rows.tolist()})


def test_sample_then_eval_memory_is_bounded_by_the_blocks(tmp_path):
    # Whole-file texts traced 24.9 MiB here; the blocks trace 8.6 MiB, mostly the
    # sampled rows and labels and the loaded dataset.
    rng = np.random.default_rng(60)
    comps = tuple(lm.MldParams(rng.normal(size=3), rng.uniform(0.5, 2.0, 3)) for _ in range(3))
    lm.save_model(lm.MixtureModel([0.2, 0.3, 0.5], comps), tmp_path / "m.json")
    data = str(tmp_path / "d.csv")
    tracemalloc.start()
    try:
        assert run(["sample", "--model", str(tmp_path / "m.json"), "--n", "100000",
                    "--seed", "5", "--out", data]) == 0
        assert run(["eval", "--model", str(tmp_path / "m.json"), "--data", data,
                    "--out", str(tmp_path / "r.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads((tmp_path / "r.json").read_text())["per_row_log_pdf"]) == 100000
    assert peak <= 12 * 2**20


SCIPY_PARTS = ("scipy.linalg", "scipy.optimize", "scipy.special")


def cold_start(tmp_path, commands):
    """Exit codes of ``commands`` run through ``cli.run`` in a fresh interpreter after
    ``import logimix``, and which of SCIPY_PARTS that interpreter then holds."""
    script = (
        "import json, sys\n"
        "import logimix\n"
        "from logimix.cli import run\n"
        "codes = [run(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, [m for m in %r if m in sys.modules]]))\n" % (SCIPY_PARTS,)
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lm.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_sample_and_eval_never_load_scipy(model_path, tmp_path):
    codes, loaded = cold_start(tmp_path, [
        ["sample", "--model", str(model_path), "--n", "200", "--seed", "1", "--out", "d.csv"],
        ["eval", "--model", str(model_path), "--data", "d.csv", "--out", "r.json"],
    ])
    assert codes == [0, 0]
    assert loaded == []


def test_fit_loads_scipy_linalg_only(model_path, tmp_path):
    codes, loaded = cold_start(tmp_path, [
        ["sample", "--model", str(model_path), "--n", "200", "--seed", "1", "--out", "d.csv"],
        ["fit", "--data", "d.csv", "--s", "2", "--seed", "1", "--n-restarts", "1",
         "--max-iter", "20", "--out", "m.json"],
    ])
    assert codes[0] == 0 and codes[1] in (0, 2)
    assert loaded == ["scipy.linalg"]


def test_check_id_gram_never_loads_scipy(model_path, tmp_path):
    codes, loaded = cold_start(tmp_path, [
        ["check-id", "--mode", "gram", "--model", str(model_path), "--out", "gram.json"],
    ])
    assert codes == [0]
    assert loaded == []


def test_import_never_loads_orjson():
    script = "import sys, logimix.cli; print('orjson' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(lm.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == ["False"]


def test_sample_writes_labels(model_path, tmp_path):
    out = tmp_path / "d.csv"
    labels = tmp_path / "labels.csv"
    code = run([
        "sample", "--model", str(model_path), "--n", "50",
        "--seed", "3", "--out", str(out), "--labels", str(labels),
    ])
    assert code == 0
    vals = [int(line) for line in labels.read_text().splitlines()]
    assert len(vals) == 50
    assert set(vals) <= {0, 1}


def test_sample_labels_missing_directory_writes_nothing(model_path, tmp_path, capsys):
    labels = tmp_path / "nodir" / "l.csv"
    code = run([
        "sample", "--model", str(model_path), "--n", "20", "--seed", "3",
        "--out", str(tmp_path / "d.csv"), "--labels", str(labels),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "No such file or directory: %r" % str(labels) in err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["model.json"]


def test_eval_plot_data(model_path, tmp_path):
    data = tmp_path / "d.csv"
    run(["sample", "--model", str(model_path), "--n", "20", "--out", str(data)])
    plot = tmp_path / "plot.csv"
    code = run([
        "eval", "--model", str(model_path), "--data", str(data),
        "--out", str(tmp_path / "r.json"), "--emit-plot-data", str(plot),
    ])
    assert code == 0
    lines = plot.read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 402
    x, pdf, cdf = map(float, lines[201].split(","))
    assert 0.0 <= cdf <= 1.0 and pdf >= 0.0


def test_eval_plot_axis_spans_ten_scales(model_path, tmp_path):
    data = tmp_path / "d.csv"
    run(["sample", "--model", str(model_path), "--n", "20", "--out", str(data)])
    plot = tmp_path / "plot.csv"
    code = run([
        "eval", "--model", str(model_path), "--data", str(data),
        "--out", str(tmp_path / "r.json"), "--emit-plot-data", str(plot),
    ])
    assert code == 0
    xs = [float(line.split(",")[0]) for line in plot.read_text().splitlines()[1:]]
    comps = lm.load_model(model_path).components
    lo = min(c.mu[0] - 10.0 * c.sigma[0] for c in comps)
    hi = max(c.mu[0] + 10.0 * c.sigma[0] for c in comps)
    assert np.array_equal(xs, np.linspace(lo, hi, 401))


def test_eval_plot_data_huge_scale_exit_1(tmp_path, capsys):
    model = tmp_path / "wide.json"
    lm.save_model(lm.MixtureModel([1.0], (lm.MldParams([0.0], [1e308]),)), model)
    data = tmp_path / "d.csv"
    data.write_text("0.5\n-2.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([
            "eval", "--model", str(model), "--data", str(data),
            "--out", str(tmp_path / "r.json"), "--emit-plot-data", str(tmp_path / "plot.csv"),
        ])
    assert code == 1
    assert "overflows the float range" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["d.csv", "wide.json"]


def test_eval_plot_data_two_dimensional_model_exit_1(model2d_path, tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("0.5,1.0\n-2.0,0.0\n")
    code = run([
        "eval", "--model", str(model2d_path), "--data", str(data),
        "--out", str(tmp_path / "r.json"), "--emit-plot-data", str(tmp_path / "plot.csv"),
    ])
    assert code == 1
    assert "--emit-plot-data requires a one-dimensional model" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["d.csv", "model2d.json"]


def test_eval_plot_data_missing_directory_writes_nothing(model_path, tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("0.5\n-2.0\n")
    plot = tmp_path / "nodir" / "plot.csv"
    code = run([
        "eval", "--model", str(model_path), "--data", str(data),
        "--out", str(tmp_path / "r.json"), "--emit-plot-data", str(plot),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "No such file or directory: %r" % str(plot) in err
    assert ".tmp" not in err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["d.csv", "model.json"]


def test_fit_roundtrip(model_path, tmp_path):
    data = tmp_path / "d.csv"
    run(["sample", "--model", str(model_path), "--n", "4000", "--seed", "42", "--out", str(data)])
    fitted = tmp_path / "fitted.json"
    report = tmp_path / "report.json"
    code = run([
        "fit", "--data", str(data), "--s", "2", "--seed", "1",
        "--out", str(fitted), "--report", str(report),
        "--n-restarts", "2", "--max-iter", "200",
    ])
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["converged"] is True
    assert doc["seed"] == 1
    assert doc["n_iter"] == len(doc["loglik_trace"]) - 1
    assert np.all(np.diff(doc["loglik_trace"]) >= -1e-9)
    refit = lm.load_model(fitted)
    gap, _ = lm.matched_param_distance(lm.load_model(model_path), refit)
    assert gap < 0.35


def test_check_id_equality_permuted(model_path, tmp_path):
    m = lm.load_model(model_path)
    permuted = lm.MixtureModel(m.weights[::-1].copy(), tuple(reversed(m.components)))
    p2 = tmp_path / "permuted.json"
    lm.save_model(permuted, p2)
    out = tmp_path / "eq.json"
    code = run([
        "check-id", "--mode", "equality", "--model", str(model_path),
        "--model2", str(p2), "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["equal_distribution"] is True
    assert doc["equal_parameters"] is True
    assert doc["permutation"] == [1, 0]


def test_check_id_gram(model_path, tmp_path):
    out = tmp_path / "gram.json"
    code = run([
        "check-id", "--mode", "gram", "--model", str(model_path), "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["min_eigenvalue"] > 0
    assert doc["numerical_rank"] == 2
    assert doc["nodes_per_axis"] == 64


def test_check_id_vandermonde(tmp_path):
    out = tmp_path / "v.json"
    code = run([
        "check-id", "--mode", "vandermonde", "--mus", "0,%.17g" % np.log(2.0),
        "--sigmas", "1,1", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["null_vector"] is None
    assert doc["determinant_sign_ok"] is True


@pytest.mark.parametrize("mus", ["-1,2", "-.5,2"])
def test_check_id_vandermonde_negative_first_node(tmp_path, mus):
    # A list that starts with a minus sign is the value of --mus, as in the "=" form.
    plain, joined = tmp_path / "plain.json", tmp_path / "joined.json"
    assert run(["check-id", "--mode", "vandermonde", "--mus", mus, "--sigmas", "1,1",
                "--out", str(plain)]) == 0
    assert run(["check-id", "--mode", "vandermonde", "--mus=" + mus, "--sigmas=1,1",
                "--out", str(joined)]) == 0
    assert plain.read_bytes() == joined.read_bytes()


def test_check_id_trial(tmp_path):
    out = tmp_path / "trial.json"
    code = run([
        "check-id", "--mode", "trial", "--p", "1", "--s", "2",
        "--trials", "5", "--seed", "17", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["distinct_passes"] == 5
    assert doc["permuted_passes"] == 5


@pytest.mark.parametrize("command", [
    ["check-id", "--mode", "equality", "--model", "{m5}", "--model2", "{m5}"],
    ["check-id", "--mode", "trial", "--p", "5", "--s", "2", "--trials", "3"],
    ["probe-open", "--p", "5", "--s", "2", "--trials", "3"],
])
def test_five_dimensional_equality_grid_exit_1(command, tmp_path, capsys):
    m5 = tmp_path / "m5.json"
    lm.save_model(lm.MixtureModel([1.0], (lm.MldParams(np.zeros(5), np.ones(5)),)), m5)
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([a.format(m5=m5) for a in command] + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: evaluation grid supports p <= 4 (it has 41**p points), got p=5" in err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("command", [
    ["check-id", "--mode", "trial", "--p", "1", "--s", "2"],
    ["check-id", "--mode", "trial", "--p", "2", "--s", "2", "--shared-scale"],
    ["probe-open", "--p", "2", "--s", "2"],
])
def test_bad_trial_count_exit_1(command, trials, tmp_path, capsys):
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(command + ["--trials", trials, "--out", str(out)])
    assert code == 1
    assert "n_trials must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--p", "--s"])
@pytest.mark.parametrize("command", [
    ["check-id", "--mode", "trial"],
    ["check-id", "--mode", "trial", "--shared-scale"],
    ["probe-open"],
])
def test_bad_dimension_or_component_count_exit_1(command, flag, tmp_path, capsys):
    out = tmp_path / "report.json"
    counts = {"--p": "2", "--s": "2", flag: "0"}
    argv = command + [a for pair in counts.items() for a in pair]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv + ["--trials", "3", "--out", str(out)])
    assert code == 1
    assert "%s must be an integer >= 1, got 0" % flag[2:] in capsys.readouterr().err
    assert not out.exists()


def test_unseparable_trial_models_exit_1(tmp_path, capsys):
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([
            "check-id", "--mode", "trial", "--p", "1", "--s", "60", "--trials", "1",
            "--out", str(out),
        ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot draw s=60 separated components in p=1 dimensions")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["fit", "--s", "2"],
    ["check-id", "--mode", "trial", "--p", "1", "--s", "2", "--trials", "2"],
    ["probe-open", "--p", "2", "--s", "2", "--trials", "2"],
])
def test_negative_seed_exit_1(command, model_path, tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["sample", "--model", str(model_path), "--n", "50", "--out", str(data)])
    if command[0] == "fit":
        command = command + ["--data", str(data), "--report", str(tmp_path / "report.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(command + ["--seed", "-1", "--out", str(tmp_path / "out.json")])
    assert code == 1
    assert "error: seed must fit in an unsigned 64-bit integer" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["d.csv", "model.json"]


def test_check_id_gram_zero_nodes_exit_1(model_path, tmp_path, capsys):
    out = tmp_path / "gram.json"
    code = run([
        "check-id", "--mode", "gram", "--model", str(model_path), "--nodes", "0",
        "--out", str(out),
    ])
    assert code == 1
    assert "error: nodes_per_axis must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("weights", {"a": 1}), ("components", 5), ("p", "1")])
def test_malformed_model_file_exit_1(model_path, tmp_path, capsys, field, value):
    doc = json.loads(model_path.read_text())
    doc[field] = value
    model_path.write_text(json.dumps(doc))
    code = run(["sample", "--model", str(model_path), "--n", "5", "--out", str(tmp_path / "d.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: %s: field '%s'" % (model_path, field))
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["fit", "--data", "d.csv", "--s", "2", "--out", "m.json", "--m-step-iters", "5"],
    ["fit", "--data", "d.csv", "--s", "2", "--out", "m.json", "--m-step-tol", "1e-6"],
    ["collapse", "--model", "m.json", "--coords", "0,1", "--offsets", "0,0",
     "--out", "c.json", "--seed", "0"],
    ["fit", "--data", "d.csv", "--s", "2", "--out", "m.json", "--rel-tol", "1e-8"],
    ["check-id", "--mode", "equality", "--model", "m.json", "--model2", "m.json",
     "--out", "eq.json", "--dist-tol", "1e-9"],
    ["check-id", "--mode", "equality", "--model", "m.json", "--model2", "m.json",
     "--out", "eq.json", "--param-tol", "1e-6"],
    ["probe-open", "--p", "2", "--s", "2", "--trials", "3", "--out", "p.json",
     "--near-tol", "1e-10"],
    ["check-id", "--mode", "equality", "--model", "m.json", "--model2", "m.json",
     "--out", "eq.json", "--grid-points", "41"],
    ["check-id", "--mode", "equality", "--model", "m.json", "--model2", "m.json",
     "--out", "eq.json", "--grid-span", "10"],
])
def test_removed_options_exit_1(argv, capsys):
    assert run(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_collapse_command(model2d_path, tmp_path):
    out = tmp_path / "collapsed.json"
    code = run([
        "collapse", "--model", str(model2d_path), "--coords", "0,1",
        "--offsets", "0.1,-0.2", "--out", str(out),
    ])
    assert code == 0
    collapsed = lm.load_model(out)
    assert collapsed.p == 1
    assert collapsed.components[0].sigma[0] == 1.0


def test_collapse_negative_first_offset(model2d_path, tmp_path):
    plain, joined = tmp_path / "plain.json", tmp_path / "joined.json"
    for argv in (["--offsets", "-0.5,0.25", "--out", str(plain)],
                 ["--offsets=-0.5,0.25", "--out", str(joined)]):
        assert run(["collapse", "--model", str(model2d_path), "--coords", "0,1", *argv]) == 0
    assert plain.read_bytes() == joined.read_bytes()


def test_collapse_overflowing_offset_exit_1(tmp_path, capsys):
    sigma = [0.5, 0.5]
    model = lm.MixtureModel(
        [0.5, 0.5], (lm.MldParams([0.0, 1.0], sigma), lm.MldParams([1.0, 0.0], sigma))
    )
    lm.save_model(model, tmp_path / "model.json")
    out = tmp_path / "collapsed.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([
            "collapse", "--model", str(tmp_path / "model.json"), "--coords", "0,1",
            "--offsets", "1e308,0", "--out", str(out),
        ])
    assert code == 1
    assert "error: offsets y_a=1e+308, y_b=0.0 overflow " in capsys.readouterr().err
    assert not out.exists()


def test_probe_open_command(tmp_path):
    out = tmp_path / "probe.json"
    code = run([
        "probe-open", "--p", "2", "--s", "1", "--trials", "5",
        "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "smallest_gap" in doc and "witness_pair" in doc


def test_missing_model_file_exit_1(tmp_path, capsys):
    code = run([
        "eval", "--model", str(tmp_path / "nope.json"),
        "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "r.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err.strip() != ""


def test_invalid_model_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "logimix-model-v1", "p": 1, "s": 1,
                               "weights": [2.0],
                               "components": [{"mu": [0.0], "sigma": [1.0]}]}))
    code = run(["check-id", "--mode", "gram", "--model", str(bad),
                "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "weights" in capsys.readouterr().err


def test_unknown_subcommand_exit_1(capsys):
    assert run(["frobnicate"]) == 1


def test_fit_insufficient_rows_exit_1(model_path, tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("0.5\n")
    code = run(["fit", "--data", str(data), "--s", "2", "--out", str(tmp_path / "m.json")])
    assert code == 1
