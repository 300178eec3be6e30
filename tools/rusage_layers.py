"""Minor page faults and CPU seconds of one lradi solve, split by layer.

Usage, from the root of a checkout::

    python3 tools/rusage_layers.py --workload fem-multistep --seed 0 --pairs 5 \\
        [--against OTHER_CHECKOUT/src]

Each sample solves one ``perfbench`` workload in a fresh interpreter with
one BLAS thread and reads ``getrusage`` around every call into a layer.
The layers are the benchmark's span names: those that ``Tracer.install``
(``perfbench/spans.py``) wraps, and ``strategies.next_shift`` and
``engine.lr_adi_solve``, wrapped here as ``perfbench/sample.py`` does.
Each layer counts its own faults and seconds, without those of the layers
it calls (``linalg.factor`` is an LU without its ``linalg.splu``), so the
layers the solve enters, the only ones reported, sum to its total. With
``--against``, samples alternate between that source tree and this
checkout's ``src``, each side running first in every other pair. The last
line of standard output is a JSON object with every sample and the
medians per source tree.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, set before NumPy loads BLAS; the samples inherit it
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))
import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from spans import Tracer  # noqa: E402

USAGE = ("minflt", "stime", "utime")


def usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return np.array([ru.ru_minflt, ru.ru_stime, ru.ru_utime])


class RusageTracer(Tracer):
    """A Tracer that sums getrusage per layer instead of timing spans:
    ``spans`` holds one ``[name, calls, own]`` per wrapped function, ``own``
    being the ``USAGE`` its calls spent outside the wrapped calls they made."""

    def wrap(self, name, fn, attrs=None):
        rec, stack = [name, 0, np.zeros(len(USAGE))], self._stack
        self.spans.append(rec)

        def counted(*args, **kwargs):
            rec[1] += 1
            start = usage()
            stack.append(np.zeros(len(USAGE)))  # usage of the wrapped calls inside
            try:
                return fn(*args, **kwargs)
            finally:
                spent = usage() - start
                rec[2] += spent - stack.pop()
                if stack:
                    stack[-1] += spent

        return counted


def one_sample(workload, seed, src):
    """Solve once in this interpreter; returns the sample's record."""
    sys.path.insert(0, str(src))
    from lradi import LyapunovProblem, lr_adi_solve
    from lradi.cli import parse_strategy
    from lradi.strategies import make_strategy
    from workloads import WORKLOADS, build_inputs

    w = WORKLOADS[workload]
    A, M, B = build_inputs(w, seed)
    problem = LyapunovProblem(A, B, M=M, tol=w.tol, max_iterations=w.max_iterations)
    strategy = make_strategy(parse_strategy(w.strategy))

    tracer = RusageTracer()
    solve = tracer.wrap("engine.lr_adi_solve", lr_adi_solve)
    strategy.next_shift = tracer.wrap("strategies.next_shift", strategy.next_shift)
    with tracer.install():
        t0 = time.perf_counter()
        report = solve(problem, strategy)
        solve_s = time.perf_counter() - t0
    layers = {}
    for name, calls, own in tracer.spans:
        if calls:
            layers[name] = layers.get(name, 0.0) + own
    shifts = np.asarray(report.shifts, dtype=np.complex128)
    return {
        "solve_s": solve_s,
        "iterations": report.iterations,
        "factorizations": report.n_factorizations,
        "shift_hash": hashlib.sha256(shifts.tobytes()).hexdigest()[:8],
        "total": dict(zip(USAGE, sum(layers.values()).tolist())),
        "layers": {name: dict(zip(USAGE, v.tolist())) for name, v in layers.items()},
    }


def medians(samples):
    """Median of every number of the samples, keyed as in one sample."""
    def med(get):
        return statistics.median(get(s) for s in samples)

    first = samples[0]
    return {
        "samples": len(samples),
        "solve_s": med(lambda s: s["solve_s"]),
        "iterations": first["iterations"],
        "factorizations": first["factorizations"],
        "shift_hashes": sorted({s["shift_hash"] for s in samples}),
        "total": {u: med(lambda s: s["total"][u]) for u in USAGE},
        "layers": {name: {u: med(lambda s: s["layers"].get(name, {}).get(u, 0.0))
                          for u in USAGE}
                   for name in first["layers"]},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=1,
                    help="samples per source tree, alternating between them")
    ap.add_argument("--against", type=Path, default=None,
                    help="another source tree to alternate with")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    ap.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        print(json.dumps(one_sample(args.workload, args.seed, args.src)))
        return

    trees = ([args.against.resolve()] if args.against else []) + [(ROOT / "src").resolve()]
    samples = {str(t): [] for t in trees}
    for i in range(args.pairs):
        for tree in trees[::-1] if i % 2 else trees:
            out = subprocess.run(
                [sys.executable, __file__, "--one", "--workload", args.workload,
                 "--seed", str(args.seed), "--src", str(tree)],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            rec = json.loads(out.strip().splitlines()[-1])
            samples[str(tree)].append(rec)
            print(f"{tree}: solve_s {rec['solve_s']:.3f} "
                  f"minflt {rec['total']['minflt']:.0f} stime {rec['total']['stime']:.3f} "
                  f"{rec['iterations']}/{rec['factorizations']} {rec['shift_hash']}",
                  file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "medians": {t: medians(s) for t, s in samples.items()},
                      "samples": samples}))


if __name__ == "__main__":
    main()
