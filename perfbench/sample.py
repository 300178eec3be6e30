"""One benchmark sample: set up and solve one workload in a fresh interpreter.

Started by ``run.py``, never by hand. Prints one JSON object on its last
line of standard output. ``--mode setup`` stops after set-up;
``--trace 1`` records spans around lradi's layer boundaries, writes
them to ``--out-dir`` and adds the per-layer metrics to the result.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def environment():
    """Versions, BLAS library and thread settings the sample ran with."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--mode", choices=["solve", "setup"], default="solve")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out-dir", default=None)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--true-residual", action="store_true",
                    help="also evaluate the true residual from the factors")
    args = ap.parse_args()
    sys.path.insert(0, args.src)

    # set-up: import lradi, generate the inputs, build the problem
    t0 = time.perf_counter()
    import lradi
    from lradi import LyapunovProblem, lr_adi_solve
    from lradi.cli import parse_strategy
    from lradi.strategies import make_strategy
    from workloads import WORKLOADS, build_inputs, true_residual

    w = WORKLOADS[args.workload]
    A, M, B = build_inputs(w, args.seed, smoke=args.smoke)
    problem = LyapunovProblem(A, B, M=M, tol=w.tol, max_iterations=w.max_iterations)
    strategy = make_strategy(parse_strategy(w.strategy))
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "lradi": str(Path(lradi.__file__).resolve().parent)}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    tracer = None
    solve = lr_adi_solve
    scope = contextlib.nullcontext()
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        solve = tracer.wrap("engine.lr_adi_solve", lr_adi_solve)
        strategy.next_shift = tracer.wrap("strategies.next_shift", strategy.next_shift)
        scope = tracer.install()
    with scope:
        t1 = time.perf_counter()
        report, state = solve(problem, strategy, return_state=True)
        solve_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy as np

    Z = state.Z
    errors = []
    if report.status != "converged":
        errors.append(f"status {report.status!r}, expected 'converged'")
    if not report.final_residual <= w.tol:
        errors.append(f"carried residual {report.final_residual:.3e} > tol {w.tol:.0e}")
    if not np.all(np.isfinite(Z)):
        errors.append("Z has non-finite entries")
    if Z.shape[1] != report.iterations * problem.s:
        errors.append(f"Z has {Z.shape[1]} columns, expected "
                      f"{report.iterations} * {problem.s}")
    shifts = np.asarray(report.shifts, dtype=np.complex128)
    result.update({
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "status": report.status,
        "iterations": report.iterations,
        "factorizations": report.n_factorizations,
        "shift_hash": hashlib.sha256(shifts.tobytes()).hexdigest(),
        "carried_residual": report.final_residual,
        "true_residual": true_residual(A, M, Z, B) if args.true_residual else None,
        "t_shift": report.t_shift,
        "env": environment(),
    })

    if tracer is not None:
        from spans import layer_metrics

        layers = layer_metrics(tracer.spans, report.iterations, report.n_factorizations)
        # the wrappers must see every call the report accounts for
        if layers["linalg.factor.count"] != report.n_factorizations:
            errors.append(f"{layers['linalg.factor.count']} factorization spans, report "
                          f"counts {report.n_factorizations}")
        gap = report.t_shift - layers["strategies.next_shift.s"]
        if not -1e-4 <= gap <= 0.01 * report.t_shift + 1e-3:
            errors.append(f"next_shift spans {layers['strategies.next_shift.s']:.4f} s, "
                          f"report.t_shift {report.t_shift:.4f} s")
        result["layers"] = layers
        if args.out_dir:
            path = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(path, {"workload": args.workload, "seed": args.seed,
                                "env": result["env"], "solve_s": solve_s})
    result["errors"] = errors
    print(json.dumps(result))


if __name__ == "__main__":
    main()
