"""Benchmark of lradi's low-rank ADI solve, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cd2d-flagship --seed 0 --seconds 44 --trace 0

Workloads are listed in ``perfbench/workloads.py`` and ``BENCHMARK.json``.
The loop is closed and single-process: one solve at a time, each sample
in a fresh interpreter, so every sample pays for imports and first-call
warm-up as a ``python -m lradi run`` user does. BLAS runs on one thread:
on a 2-core host two OpenBLAS threads made the flagship 1.3x and
fem-multistep 2.3x slower than one, more than doubled the CPU time, and
once took a cd3d-hres solve from 12 s to 110 s when another process held
the second core. Samples are started while the next one is predicted to
end within ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics: medians over the samples of
``solve_s`` and ``setup_s`` (topped up with set-up-only samples to at
least five), ``peak_rss_mb``, the exact ``iterations`` and
``factorizations``, and ``true_residual_digits`` = -log10 of the true
scaled residual, evaluated once per run from the factors after the timer
stopped. ``--trace 1`` alternates untraced and traced solves and
reports the per-layer split of the traced ones (see ``spans.py``) and
the tracing overhead.

Every solve is checked: status ``converged``, carried residual <= tol,
finite ``Z`` with ``iterations * s`` columns, and the same iterations,
factorizations and shift-sequence hash in every sample of the run. A
sample that fails any check counts as failed. The last line of standard
output is the JSON result; a record of the run goes to ``--out-dir``.
``--smoke`` runs the same code on tiny problems in a few seconds, for the
benchmark's own tests in ``checks.py``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUPS = 5
HARD_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def child_env():
    """Environment for samples: single-threaded BLAS."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def has_true_residual(samples):
    return any(s.get("true_residual") is not None and not s["errors"] for s in samples)


def run_sample(args, mode, trace, deadline, residual=False):
    """Run sample.py once; returns its result dict, with ``errors`` on failure."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--src", str(SRC), "--mode", mode,
           "--trace", str(trace), "--out-dir", str(args.out_dir)]
    if args.smoke:
        cmd.append("--smoke")
    if residual:
        cmd.append("--true-residual")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"mode": mode, "trace": trace, "errors": ["sample timed out"]}
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        res = {"errors": []}
    res.setdefault("errors", [])
    if proc.returncode != 0:
        res["errors"].append(f"sample exited with code {proc.returncode}")
    if "lradi" in res and Path(res["lradi"]) != (SRC / "lradi").resolve():
        res["errors"].append(f"imported lradi from {res['lradi']}")
    res.update(mode=mode, trace=trace)
    return res


def collect(args):
    """Run samples until the next is predicted to overrun ``--seconds``."""
    t0 = time.monotonic()
    deadline = t0 + HARD_LIMIT_S
    kinds = (0, 1) if args.trace else (0,)
    samples = []
    n_rounds = 0
    while True:
        for trace in kinds:
            # samples of a run must agree on the shift sequence, hence on Z:
            # one true-residual evaluation per run suffices
            samples.append(run_sample(args, "solve", trace, deadline,
                                      residual=not has_true_residual(samples)))
        n_rounds += 1
        elapsed = time.monotonic() - t0
        if args.smoke or elapsed + elapsed / n_rounds > args.seconds:
            break
    if not args.trace:
        min_setups = 1 if args.smoke else MIN_SETUPS
        while sum("setup_s" in s for s in samples) < min_setups and time.monotonic() < deadline:
            samples.append(run_sample(args, "setup", 0, deadline))
    return samples


def check_consistency(samples):
    """Fail solve samples whose counts or shift sequence differ from the majority."""
    solves = [s for s in samples if s["mode"] == "solve" and not s["errors"]]
    keys = Counter((s["iterations"], s["factorizations"], s["shift_hash"]) for s in solves)
    if not keys:
        return None
    ref = keys.most_common(1)[0][0]
    for s in solves:
        if (s["iterations"], s["factorizations"], s["shift_hash"]) != ref:
            s["errors"].append(
                f"iterations/factorizations/shift hash {s['iterations']}/"
                f"{s['factorizations']}/{s['shift_hash'][:12]} differ from "
                f"{ref[0]}/{ref[1]}/{ref[2][:12]}")
    return next((s for s in solves if not s["errors"] and s["true_residual"] is not None), None)


def end_to_end(samples, ref):
    good = [s for s in samples if not s["errors"]]
    solves = [s for s in good if s["mode"] == "solve"]
    return {
        "solve_s": statistics.median(s["solve_s"] for s in solves),
        "setup_s": statistics.median(s["setup_s"] for s in good),
        "iterations": ref["iterations"],
        "factorizations": ref["factorizations"],
        "true_residual_digits": -math.log10(ref["true_residual"]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in solves),
    }


def per_layer(samples):
    good = [s for s in samples if not s["errors"]]
    traced = [s for s in good if s["trace"]]
    plain = [s for s in good if not s["trace"]]
    out = {name: statistics.median(s["layers"][name] for s in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(s["solve_s"] for s in traced)
                               - statistics.median(s["solve_s"] for s in plain))
    return out


def describe(s):
    if s["errors"]:
        return "FAILED: " + "; ".join(s["errors"])
    if s["mode"] == "setup":
        return f"setup_s {s['setup_s']:.4f}"
    true = "" if s["true_residual"] is None else f" true_residual {s['true_residual']:.3e}"
    return (f"solve_s {s['solve_s']:.3f} setup_s {s['setup_s']:.4f} "
            f"iterations {s['iterations']} factorizations {s['factorizations']} "
            f"carried_residual {s['carried_residual']:.3e}{true} "
            f"peak_rss_mb {s['peak_rss_mb']:.1f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--out-dir", type=Path, default=HERE / "out")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes and one sample, for the tests")
    args = ap.parse_args()

    if not (SRC / "lradi" / "__init__.py").is_file():
        sys.exit(f"error: lradi sources not found under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    args.out_dir.mkdir(parents=True, exist_ok=True)

    samples = collect(args)
    ref = check_consistency(samples)
    for i, s in enumerate(samples):
        print(f"{args.workload} seed {args.seed} {s['mode']} {i + 1}"
              f"{' traced' if s['trace'] else ''}: {describe(s)}")
    failed = sum(bool(s["errors"]) for s in samples)
    good_kinds = {s["trace"] for s in samples if s["mode"] == "solve" and not s["errors"]}
    metrics = {}
    if ref is not None and (not args.trace or good_kinds == {0, 1}):
        print("environment: " + json.dumps(ref["env"]))
        print(f"residuals: carried {ref['carried_residual']:.6e} "
              f"true {ref['true_residual']:.6e} tol {WORKLOADS[args.workload].tol:.0e}")
        if ref["true_residual"] > WORKLOADS[args.workload].tol:
            print("note: the true residual exceeds tol although the carried one meets it "
                  "(known drift, reported as measured)")
        values = per_layer(samples) if args.trace else end_to_end(samples, ref)
        if set(values) != {m["name"] for m in declared}:
            sys.exit(f"error: metrics {sorted(set(values) ^ {m['name'] for m in declared})} "
                     "disagree with BENCHMARK.json")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0 and bool(metrics), "attempted": len(samples),
              "failed": failed, "metrics": metrics}
    record = args.out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": {k: str(v) for k, v in vars(args).items()},
                                  "samples": samples, "result": result}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
