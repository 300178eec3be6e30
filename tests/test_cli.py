import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import fem_pair, matrix_market_write
import lradi
from lradi.cli import ConfigError, main, parse_config, parse_strategy


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# strategy grammar
# ---------------------------------------------------------------------------

def test_parse_strategy_heuristic():
    cfg = parse_strategy("heur(20,30,20)")
    assert (cfg.kind, cfg.J, cfg.p, cfg.m) == ("heur", 20, 30, 20)


def test_parse_strategy_window_variants():
    assert parse_strategy("Z(8)+heur").kind == "zheur"
    assert parse_strategy("Z(8)+heur").h == 8
    assert parse_strategy("z(4)+CONV").kind == "zconv"
    assert parse_strategy("Z(4)+Hres").kind == "zhres"


def test_parse_strategy_resmin_forms():
    cfg = parse_strategy("resmin+Z(8)+gn")
    assert (cfg.kind, cfg.subspace, cfg.h, cfg.optimizer, cfg.g) == (
        "resmin", "Z", 8, "gauss-newton", 1)
    cfg = parse_strategy("resmin+EK(3,1)+newton-trust, g=5")
    assert (cfg.kind, cfg.subspace, cfg.p, cfg.m, cfg.optimizer, cfg.g) == (
        "resmin", "EK", 3, 1, "newton-trust", 5)
    cfg = parse_strategy("  resmin + ek(2, 0) + NT , g = 2 ")
    assert (cfg.optimizer, cfg.g) == ("newton-trust", 2)


@pytest.mark.parametrize("bad", [
    "",
    "foo",
    "heur(1,2)",
    "Z(3)+wat",
    "resmin+Z(2)+bfgs",
    "resmin+EK(2,1)+gn, g=0",
    "heur(4,6,6), g=3",  # multistep needs resmin
    "Z(4)+conv, g=2",
])
def test_parse_strategy_rejects(bad):
    with pytest.raises(ConfigError):
        parse_strategy(bad)


@pytest.mark.parametrize("text", [
    "Z(0)+heur", "resmin+Z(0)+gn", "resmin+EK(0,1)+gn", "heur(4,0,0)", "heur(0,2,2)",
])
def test_cli_rejects_zero_parameters(tmp_path, capsys, text):
    # an empty window, Krylov space or shift list is a config error, not a
    # traceback from inside the solve (or a silent single-shift run)
    path = write_cfg(tmp_path, "zero.cfg", f"problem = cd2d\nn0 = 6\n"
                     f"strategy = {text}\nout_dir = {tmp_path / 'out'}\n")
    assert main(["run", path]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_parse_config_defaults_and_label(tmp_path):
    path = write_cfg(tmp_path, "demo.cfg", """
        problem = cd2d   # comment survives
        n0 = 10
        strategy = heur(4,6,6)
    """)
    cfg = parse_config(path)
    assert cfg.problem == "cd2d"
    assert (cfg.n0, cfg.s, cfg.seed) == (10, 1, 0)
    assert (cfg.cx, cfg.cy, cfg.cz) == (100.0, 1000.0, 10.0)
    assert (cfg.tol, cfg.max_iter) == (1e-8, 150)
    assert cfg.label == "demo"


@pytest.mark.parametrize("body,fragment", [
    ("problem = cd2d\nn0 = 10\nwat = 3\nstrategy = heur(1,2,2)", "unknown key"),
    ("problem = cd2d\nn0 = 10\nn0 = 12\nstrategy = heur(1,2,2)", "duplicate"),
    ("problem = cd2d\nn0 ten\nstrategy = heur(1,2,2)", "key = value"),
    ("problem = cd2d\nn0 = ten\nstrategy = heur(1,2,2)", "bad value"),
    ("problem = cd2d\nn0 = 10\nstrategy = heur(1,2,2)\ntol = 2.0", "tol"),
    ("problem = cd2d\nstrategy = heur(1,2,2)", "n0"),
    ("problem = warp\nn0 = 4\nstrategy = heur(1,2,2)", "unknown problem"),
    ("problem = mm\nstrategy = heur(1,2,2)", "a_file"),
    ("n0 = 10\nstrategy = heur(1,2,2)", "problem"),
    ("problem = cd2d\nn0 = 10\nstrategy = heur(1,2,2)\ns = 0", "s must be"),
    ("problem = cd2d\nn0 = 10\nstrategy = heur(1,2,2)\nseed = -1", "seed must be"),
])
def test_parse_config_errors(tmp_path, body, fragment):
    path = write_cfg(tmp_path, "bad.cfg", body)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(path)
    assert fragment in str(excinfo.value)


def test_parse_config_error_names_line(tmp_path):
    path = write_cfg(tmp_path, "bad.cfg",
                     "problem = cd2d\nn0 = 10\nmystery = 1\n")
    with pytest.raises(ConfigError) as excinfo:
        parse_config(path)
    assert ":3:" in str(excinfo.value)


def test_parse_config_paths_relative_to_config(tmp_path):
    sub = tmp_path / "cases"
    sub.mkdir()
    matrix_market_write(str(sub / "a.mtx"), sp.eye(4, format="csr") * -1.0)
    path = write_cfg(sub, "mm.cfg",
                     "problem = mm\na_file = a.mtx\nstrategy = heur(1,2,2)\n")
    cfg = parse_config(path)
    assert cfg.a_file == str(sub / "a.mtx")


# ---------------------------------------------------------------------------
# run command, end to end
# ---------------------------------------------------------------------------

def run_cfg_text(out_dir, strategy="heur(6,8,8)", extra=""):
    return (f"problem = cd2d\nn0 = 8\ns = 1\nseed = 3\ntol = 1e-6\n"
            f"strategy = {strategy}\nout_dir = {out_dir}\n{extra}")


def test_run_writes_csv_and_json(tmp_path):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, "small.cfg", run_cfg_text(out))
    assert main(["run", path]) == 0
    csv_lines = (out / "small.csv").read_text().splitlines()
    assert csv_lines[0] == "iter,res,shift_re,shift_im,t_shift_cum,t_total_cum"
    summary = json.loads((out / "small.json").read_text())
    for key in ("iters", "t_total", "t_shift", "final_residual"):
        assert key in summary
    assert summary["status"] == "converged"
    assert summary["final_residual"] <= 1e-6
    assert len(csv_lines) - 1 == summary["iters"]
    first = csv_lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) > 0


@pytest.fixture(scope="module")
def resmin_run(tmp_path_factory):
    """One CLI run of a multistep resmin strategy, shared by the tests that read it."""
    tmp = tmp_path_factory.mktemp("resmin_run")
    out = tmp / "o"
    # mild convection: the tiny EK search space needs a resolved mesh
    path = write_cfg(tmp, "rm.cfg",
                     run_cfg_text(out, strategy="resmin+EK(2,1)+gn, g=2",
                                  extra="cx = 10\ncy = 10\n"))
    assert main(["run", path]) == 0
    return out, json.loads((out / "rm.json").read_text())


def test_run_resmin_multistep_through_cli(resmin_run):
    _, summary = resmin_run
    assert summary["status"] == "converged"
    assert summary["n_factorizations"] < summary["iters"]


def test_run_writes_one_trace_line_per_group(resmin_run):
    out, summary = resmin_run
    groups = [json.loads(line) for line in (out / "rm.trace.jsonl").read_text().splitlines()]
    # one LU per group, plus the seed's (m = 1) in the first
    assert len(groups) == summary["n_factorizations"] - 1
    assert sum(g["steps"] for g in groups) == summary["iters"]
    # each group's shift is the CSV's at the group's first step
    rows = [row.split(",") for row in (out / "rm.csv").read_text().splitlines()[1:]]
    first = np.cumsum([0] + [g["steps"] for g in groups[:-1]])
    assert [(g["shift_re"], g["shift_im"]) for g in groups] == [
        (float(rows[k][2]), float(rows[k][3])) for k in first]


def test_run_cd3d(tmp_path):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, "cube.cfg", "problem = cd3d\nn0 = 4\nstrategy = Z(4)+Hres\n"
                     f"out_dir = {out}\n")
    assert main(["run", path]) == 0
    summary = json.loads((out / "cube.json").read_text())
    assert (summary["status"], summary["n"]) == ("converged", 64)


def nontiming_columns(csv_path):
    rows = csv_path.read_text().splitlines()[1:]
    return [",".join(r.split(",")[:4]) for r in rows]


def test_run_is_deterministic_apart_from_timing(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        path = write_cfg(tmp_path, f"{tag}.cfg",
                         run_cfg_text(out, strategy="resmin+Z(4)+gn"))
        assert main(["run", path]) == 0
        outs.append(out)
    assert (nontiming_columns(outs[0] / "a.csv")
            == nontiming_columns(outs[1] / "b.csv"))
    sa = json.loads((outs[0] / "a.json").read_text())
    sb = json.loads((outs[1] / "b.json").read_text())
    assert sa["iters"] == sb["iters"]
    assert sa["final_residual"] == sb["final_residual"]


def test_run_generalized_matrix_market(tmp_path):
    n = 20
    A, M = fem_pair(n)
    matrix_market_write(str(tmp_path / "a.mtx"), A)
    matrix_market_write(str(tmp_path / "m.mtx"), M)
    rng = np.random.default_rng(0)
    matrix_market_write(str(tmp_path / "b.mtx"),
                        sp.csr_matrix(rng.standard_normal((n, 2))))
    out = tmp_path / "out"
    path = write_cfg(tmp_path, "gen.cfg",
                     "problem = mm\na_file = a.mtx\nm_file = m.mtx\n"
                     f"b_file = b.mtx\ntol = 1e-9\nstrategy = heur(6,8,8)\n"
                     f"out_dir = {out}\n")
    assert main(["run", path]) == 0
    summary = json.loads((out / "gen.json").read_text())
    assert summary["status"] == "converged"
    assert summary["s"] == 2


def test_cli_overrides_take_precedence(tmp_path):
    out = tmp_path / "o1"
    other = tmp_path / "o2"
    path = write_cfg(tmp_path, "ov.cfg", run_cfg_text(out))
    assert main(["run", path, "--out-dir", str(other), "--max-iter", "2",
                 "--tol", "1e-14"]) == 0
    summary = json.loads((other / "ov.json").read_text())
    assert summary["status"] == "max_iterations"
    # the cap is checked per group, so a pair may finish one past it
    assert summary["iters"] in (2, 3)
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("files, fragment", [
    ({"a_file": None}, "cannot load matrix"),
    ({"a_file": -np.eye(6), "b_file": None}, "cannot load rhs"),
    ({"a_file": np.ones((6, 5))}, "square"),
    ({"a_file": -np.eye(6), "m_file": np.eye(5)}, "M has shape"),
    ({"a_file": -np.eye(6), "b_file": np.zeros((6, 1))}, "B must be nonzero"),
    ({"a_file": -np.eye(6), "b_file": np.ones((5, 1))}, "B has 5 rows"),
    ({"a_file": -np.eye(6), "b_file": np.r_[np.nan, np.ones(5)][:, None]},
     "B has a NaN or infinite entry"),
], ids=["a missing", "b missing", "a not square", "m shape", "b zero", "b rows",
        "b nan"])
def test_exit_code_bad_problem_data(tmp_path, capsys, files, fragment):
    # unreadable files and the problem's input checks end the run as
    # config errors, before any CSV (None: the file does not exist)
    lines = []
    for key, X in files.items():
        if X is not None:
            matrix_market_write(str(tmp_path / f"{key}.mtx"), sp.csr_matrix(X))
        lines.append(f"{key} = {key}.mtx\n")
    out = tmp_path / "out"
    path = write_cfg(tmp_path, "bad.cfg", "problem = mm\nstrategy = heur(1,2,2)\n"
                     + "".join(lines) + f"out_dir = {out}\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and fragment in err
    assert not (out / "bad.csv").exists()


def test_exit_code_non_finite_coefficient(tmp_path, capsys):
    # cx = nan puts NaN into A: a config error before any CSV, not a
    # singular shift halfway through the run
    out = tmp_path / "out"
    path = write_cfg(tmp_path, "nan.cfg", "problem = cd2d\nn0 = 6\ncx = nan\n"
                     f"strategy = heur(1,2,2)\nout_dir = {out}\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "A has a NaN or infinite entry" in err
    assert not (out / "nan.csv").exists()


def test_exit_code_zero_max_iter(tmp_path, capsys):
    # the problem refuses a cap of no steps: a config error before any CSV
    out = tmp_path / "out"
    path = write_cfg(tmp_path, "cap.cfg", "problem = cd2d\nn0 = 6\nmax_iter = 0\n"
                     f"strategy = heur(1,2,2)\nout_dir = {out}\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "max_iter" in err
    assert not (out / "cap.csv").exists()


def test_exit_code_usage_error(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_python_m_lradi_is_the_entry_point(tmp_path):
    # ``python -m lradi`` runs __main__.py, which exits with main()'s code
    src = str(Path(lradi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "out"

    def run(name, text):
        return subprocess.run([sys.executable, "-m", "lradi", "run",
                               write_cfg(tmp_path, name, text)],
                              capture_output=True, text=True, env=env, timeout=120)

    done = run("tiny.cfg", run_cfg_text(out))
    assert done.returncode == 0, done.stderr
    header = (out / "tiny.csv").read_text().splitlines()[0]
    assert header == "iter,res,shift_re,shift_im,t_shift_cum,t_total_cum"
    summary = json.loads((out / "tiny.json").read_text())
    assert {"iters", "t_total", "t_shift", "final_residual", "status"} <= set(summary)
    failed = run("noproblem.cfg", f"n0 = 8\nstrategy = heur(6,8,8)\nout_dir = {out}\n")
    assert failed.returncode == 1
    assert "config error" in failed.stderr


def test_exit_code_solver_error_keeps_partial_csv(tmp_path, capsys):
    # A = +I: the mirrored Ritz shift -1 makes A - I exactly singular
    matrix_market_write(str(tmp_path / "i.mtx"), sp.eye(6, format="csr"))
    out = tmp_path / "out"
    path = write_cfg(tmp_path, "sing.cfg",
                     "problem = mm\na_file = i.mtx\nstrategy = heur(1,1,0)\n"
                     f"out_dir = {out}\n")
    assert main(["run", path]) == 2
    assert "solver error" in capsys.readouterr().err
    lines = (out / "sing.csv").read_text().splitlines()
    assert lines[0] == "iter,res,shift_re,shift_im,t_shift_cum,t_total_cum"


def test_solver_error_keeps_each_completed_groups_rows_and_trace(tmp_path, capsys):
    # A = diag(1, -2, -8): heur(3,3,0) mirrors the Ritz value 1 to the
    # shift -1, and A - I is exactly singular at the third group
    matrix_market_write(str(tmp_path / "a.mtx"), sp.diags([1.0, -2.0, -8.0]))
    out = tmp_path / "out"
    path = write_cfg(tmp_path, "mid.cfg", "problem = mm\na_file = a.mtx\n"
                     f"strategy = heur(3,3,0)\nout_dir = {out}\n")
    assert main(["run", path]) == 2
    assert "solver error" in capsys.readouterr().err
    rows = [row.split(",") for row in (out / "mid.csv").read_text().splitlines()[1:]]
    groups = [json.loads(line) for line in (out / "mid.trace.jsonl").read_text().splitlines()]
    assert len(rows) == len(groups) == 2
    assert [g["steps"] for g in groups] == [1, 1]
    assert [(g["shift_re"], g["shift_im"]) for g in groups] == [
        (float(row[2]), float(row[3])) for row in rows]
    assert [g["elapsed_s"] for g in groups] == [float(row[5]) for row in rows]
    assert not (out / "mid.json").exists()


# ---------------------------------------------------------------------------
# compare command
# ---------------------------------------------------------------------------

def test_compare_two_strategies(tmp_path):
    out = tmp_path / "cmp"
    pa = write_cfg(tmp_path, "ha.cfg",
                   run_cfg_text(out, strategy="heur(6,8,8)",
                                extra="label = ha\n"))
    pb = write_cfg(tmp_path, "hb.cfg",
                   run_cfg_text(out, strategy="resmin+Z(4)+gn",
                                extra="label = hb\n"))
    assert main(["compare", pa, pb]) == 0
    table = (out / "compare.csv").read_text().splitlines()
    assert table[0] == "strategy,iters,t_total,t_shift,res"
    assert len(table) == 3
    assert table[1].startswith('"heur(6,8,8)"')
    assert table[2].startswith('"resmin+Z(4)+gn"')
    txt = (out / "compare.txt").read_text().splitlines()
    assert txt[0].split() == ["strategy", "iters", "t_total", "t_shift", "res"]
    assert len(txt) == 3
    # per-run artifacts also exist
    assert (out / "ha.csv").exists() and (out / "hb.json").exists()


def test_compare_single_config_degenerates_to_one_row(tmp_path):
    out = tmp_path / "cmp1"
    pa = write_cfg(tmp_path, "solo.cfg", run_cfg_text(out))
    assert main(["compare", pa]) == 0
    table = (out / "compare.csv").read_text().splitlines()
    assert len(table) == 2


def test_compare_rejects_mismatched_problems(tmp_path, capsys):
    out = tmp_path / "cmp2"
    pa = write_cfg(tmp_path, "na.cfg", run_cfg_text(out))
    pb = write_cfg(tmp_path, "nb.cfg",
                   run_cfg_text(out).replace("n0 = 8", "n0 = 9"))
    assert main(["compare", pa, pb]) == 1
    assert "identical problem data" in capsys.readouterr().err


def test_compare_deduplicates_labels(tmp_path):
    out = tmp_path / "cmp3"
    pa = write_cfg(tmp_path, "la.cfg",
                   run_cfg_text(out, extra="label = same\n"))
    pb = write_cfg(tmp_path, "lb.cfg",
                   run_cfg_text(out, strategy="Z(4)+heur",
                                extra="label = same\n"))
    assert main(["compare", pa, pb]) == 0
    assert (out / "same-1.csv").exists()
    assert (out / "same-2.csv").exists()


def test_compare_counts_each_runs_factorizations(tmp_path):
    # compare shares one problem, and so its pencil's count of LUs, across
    # runs; each summary counts what a standalone run of it counts
    out = tmp_path / "cmp5"
    text = run_cfg_text(out, strategy="resmin+EK(2,1)+gn", extra="cx = 10\ncy = 10\n")
    for label in ("solo", "fa", "fb"):
        write_cfg(tmp_path, f"{label}.cfg", text + f"label = {label}\n")
    assert main(["run", str(tmp_path / "solo.cfg")]) == 0
    assert main(["compare", str(tmp_path / "fa.cfg"), str(tmp_path / "fb.cfg")]) == 0
    counts = [json.loads((out / f"{label}.json").read_text())["n_factorizations"]
              for label in ("solo", "fa", "fb")]
    assert counts[0] > 0 and counts == [counts[0]] * 3


def test_compare_same_strategy_reproduces_itself(tmp_path):
    out = tmp_path / "cmp4"
    pa = write_cfg(tmp_path, "ra.cfg",
                   run_cfg_text(out, strategy="resmin+EK(2,1)+gn",
                                extra="cx = 10\ncy = 10\nlabel = one\n"))
    pb = write_cfg(tmp_path, "rb.cfg",
                   run_cfg_text(out, strategy="resmin+EK(2,1)+gn",
                                extra="cx = 10\ncy = 10\nlabel = two\n"))
    assert main(["compare", pa, pb]) == 0
    assert (nontiming_columns(out / "one.csv")
            == nontiming_columns(out / "two.csv"))


@pytest.mark.parametrize("module", ["lradi", "lradi.engine", "lradi.resmin",
                                    "lradi.strategies"])
def test_all_exports_resolve(module):
    # a stale name in __all__ breaks ``from <module> import *``
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_import_leaves_heavy_scipy_modules_unloaded():
    # importing the package and its CLI is most of a run's setup time; the
    # modules below are imported where they are used, never at top level
    src = str(Path(lradi.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lradi, lradi.cli; "
            "print('\\n'.join(m for m in sys.modules if m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60)
    loaded = out.stdout.split()
    assert "scipy.sparse" in loaded
    for heavy in ("scipy.sparse.csgraph", "scipy.spatial", "scipy.optimize", "scipy.io"):
        assert not [m for m in loaded if m == heavy or m.startswith(heavy + ".")], heavy
