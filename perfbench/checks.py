"""Tests of the benchmark itself, in smoke mode (tiny problems, seconds).

Not collected by a plain ``pytest`` run of the repository; run them with
``PYTHONPATH=src python3 -m pytest perfbench/checks.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, build_inputs, column_mix, true_residual  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# the end-to-end aggregation does not depend on the workload; the traced
# run covers an untraced and a traced solve of each
@pytest.mark.parametrize("workload, trace",
                         [("cd3d-hres", 0)] + [(w, 1) for w in sorted(WORKLOADS)])
def test_smoke_run_is_correct_and_reports_declared_metrics(workload, trace, tmp_path):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke", "--out-dir", str(tmp_path)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert (tmp_path / f"spans-{workload}-seed3.jsonl").is_file()


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "cd3d-hres", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_true_residual_matches_dense_definition():
    rng = np.random.default_rng(1)
    for M_on in (False, True):
        A, M, B = build_inputs(WORKLOADS["fem-multistep"], 5, smoke=True)
        A, M, B = A[:40, :40], (M[:40, :40] if M_on else None), B[:40]
        Z = rng.standard_normal((40, 6))
        Ad = A.toarray()
        Md = np.eye(40) if M is None else M.toarray()
        X = Z @ Z.T
        R = Ad @ X @ Md.T + Md @ X @ Ad.T + B @ B.T
        dense = np.linalg.norm(R, 2) / np.linalg.norm(B.T @ B, 2)
        assert true_residual(A, M, Z, B) == pytest.approx(dense, rel=1e-10)


def test_column_mix_keeps_the_equation():
    for s, seed in ((1, 4), (4, 9)):
        Q = column_mix(s, seed)
        assert np.allclose(Q @ Q.T, np.eye(s), atol=1e-14)
    assert np.array_equal(column_mix(4, 0), np.eye(4))
    assert np.array_equal(column_mix(4, 9), column_mix(4, 9))


def test_layer_metrics_self_times_and_grid_split():
    # root [0, 10] > optimize [1, 6] > objective [1, 2], jacobian [3, 4], objective [4, 5]
    spans = [
        ["engine.lr_adi_solve", 0.0, 10.0, -1, None],
        ["strategies.next_shift", 1.0, 6.0, 0, None],
        ["resmin.optimize", 1.0, 6.0, 1, {"converged": True, "guess_won": False}],
        ["resmin.objective", 1.0, 2.0, 2, None],
        ["resmin.jacobian", 3.0, 4.0, 2, None],
        ["resmin.objective", 4.0, 5.0, 2, None],
        ["linalg.factor", 6.0, 8.0, 0, {"complex": True}],
        ["linalg.splu", 6.5, 7.5, 6, {"nnz": 100}],
        ["engine.step", 8.0, 9.5, 0, None],
        ["linalg.solve", 8.0, 9.0, 8, {"cols": 2}],
    ]
    m = layer_metrics(spans, iterations=2, factorizations=1)
    assert m["engine.loop.self_s"] == pytest.approx(1.5)
    assert m["resmin.grid.s"] == pytest.approx(1.0)
    assert m["resmin.polish.s"] == pytest.approx(4.0)
    assert m["linalg.factor.overhead_s"] == pytest.approx(1.0)
    assert m["engine.step.self_s"] == pytest.approx(0.5)
    assert m["linalg.factor.complex_count"] == 1 and m["linalg.lu_nnz"] == 100
    assert m["linalg.solve.cols"] == 2 and m["engine.steps_per_factor"] == 2
    assert m["resmin.optimize.converged_ratio"] == 1.0
    assert set(m) | {"trace.overhead_s"} == {x["name"] for x in SPEC["per_layer"]}


def test_tracer_restores_wrapped_functions():
    from lradi import engine, linalg, resmin

    before = (engine.sparse_shifted_factorize, resmin.eval_objective,
              linalg.ShiftedFactorization.solve)
    with Tracer().install():
        assert engine.sparse_shifted_factorize is not before[0]
    assert (engine.sparse_shifted_factorize, resmin.eval_objective,
            linalg.ShiftedFactorization.solve) == before
