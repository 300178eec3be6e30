"""Minor page faults and CPU seconds of one lradi solve, split by layer.

Usage, from the root of a checkout::

    python3 tools/rusage_layers.py --workload fem-multistep --seed 0 --pairs 5 \\
        [--against OTHER_CHECKOUT/src]

Each sample solves one ``perfbench`` workload in a fresh interpreter with
one BLAS thread and reads ``getrusage`` around the solve and around the
calls into each layer: the shifted LUs (``lu``), the extended Krylov seed
(``seed``), the recycled Krylov compression (``recycle``), the growth of
Z (``z_push``) and the rest of ``next_shift`` (``next_shift``). Each
layer counts its own faults and seconds, without those of the layers it
calls (the seed's LU counts as ``lu``); ``rest`` is what the solve spends
outside them. ``lu`` is the factorization alone: an LU's first solve,
which carries its singularity probe, counts with the layer that calls it
(the step's in ``rest``, the seed's in ``seed``). With ``--against``, samples alternate between that source
tree and this checkout's ``src``, each side running first in every other
pair. The last line of standard output is a JSON object with every
sample and the medians per source tree.
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

ROOT = Path(__file__).resolve().parent.parent
USAGE = ("minflt", "stime", "utime")
# (owner, attribute, layer) of every lradi attribute a sample rebinds; the
# owner is a dotted path inside the lradi package
PATCH_POINTS = (
    ("engine", "sparse_shifted_factorize", "lu"),
    ("resmin", "sparse_shifted_factorize", "lu"),
    ("resmin", "build_seed", "seed"),
    ("resmin", "recycle_krylov", "recycle"),
    ("engine.AdiState", "_push", "z_push"),
)


def usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_stime, ru.ru_utime


def one_sample(workload, seed, src):
    """Solve once in this interpreter; returns the sample's record."""
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import lradi
    from lradi import LyapunovProblem, lr_adi_solve
    from lradi.cli import parse_strategy
    from lradi.strategies import make_strategy
    from workloads import WORKLOADS, build_inputs

    w = WORKLOADS[workload]
    A, M, B = build_inputs(w, seed)
    problem = LyapunovProblem(A, B, M=M, tol=w.tol, max_iterations=w.max_iterations)
    strategy = make_strategy(parse_strategy(w.strategy))

    totals = {}
    stack = []  # usage of the enclosing layers' children so far

    def wrap(name, fn):
        def counted(*args, **kwargs):
            start = usage()
            stack.append([0.0] * len(USAGE))
            try:
                return fn(*args, **kwargs)
            finally:
                spent = [b - a for a, b in zip(start, usage())]
                inner = stack.pop()
                own = totals.setdefault(name, [0.0] * len(USAGE))
                for k, v in enumerate(spent):
                    own[k] += v - inner[k]
                    if stack:
                        stack[-1][k] += v
        return counted

    for path, attr, name in PATCH_POINTS:
        owner = lradi
        for part in path.split("."):
            owner = getattr(owner, part)
        setattr(owner, attr, wrap(name, getattr(owner, attr)))
    strategy.next_shift = wrap("next_shift", strategy.next_shift)
    solve = wrap("rest", lr_adi_solve)

    t0 = time.perf_counter()
    report = solve(problem, strategy)
    solve_s = time.perf_counter() - t0
    shifts = np.asarray(report.shifts, dtype=np.complex128)
    return {
        "solve_s": solve_s,
        "iterations": report.iterations,
        "factorizations": report.n_factorizations,
        "shift_hash": hashlib.sha256(shifts.tobytes()).hexdigest()[:8],
        "total": dict(zip(USAGE, map(sum, zip(*totals.values())))),
        "layers": {name: dict(zip(USAGE, v)) for name, v in totals.items()},
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

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    trees = ([args.against.resolve()] if args.against else []) + [(ROOT / "src").resolve()]
    samples = {str(t): [] for t in trees}
    for i in range(args.pairs):
        for tree in trees[::-1] if i % 2 else trees:
            out = subprocess.run(
                [sys.executable, __file__, "--one", "--workload", args.workload,
                 "--seed", str(args.seed), "--src", str(tree)],
                stdout=subprocess.PIPE, text=True, env=env, check=True).stdout
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
