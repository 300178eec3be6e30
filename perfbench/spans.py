"""Span tracing around lradi's layer boundaries, from outside the package.

``Tracer.install`` rebinds the module attributes through which lradi's
modules call each other (``engine.sparse_shifted_factorize``,
``resmin.eval_objective``, ...) to timing wrappers. Each call becomes a
span ``(name, start, end, parent, attrs)`` kept in memory; ``write``
saves them as JSON lines and ``layer_metrics`` derives the per-layer
counts, busy times and self times. A span's self time is its duration
minus that of its direct children; calls are nested, never concurrent.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span recorder; one per traced solve."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attrs]
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped in a span; ``attrs(args, result)`` adds fields."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, out)
            return out

        return traced

    @contextmanager
    def install(self):
        """Wrap lradi's layer entry points for the duration of the block."""
        from lradi import engine, linalg, resmin, strategies

        def shift_kind(args, out):
            return {"complex": bool(np.imag(args[1]) != 0.0)}

        def ritz(args, out):
            return {"fallback": bool(out.used_fallback), "size": int(out.H.shape[0])}

        points = [
            (linalg, "splu", "linalg.splu", lambda a, lu: {"nnz": int(lu.nnz)}),
            (engine, "sparse_shifted_factorize", "linalg.factor", shift_kind),
            (resmin, "sparse_shifted_factorize", "linalg.factor", shift_kind),
            (linalg.ShiftedFactorization, "solve", "linalg.solve",
             lambda a, x: {"cols": 1 if np.ndim(a[1]) == 1 else int(np.shape(a[1])[1])}),
            (resmin, "block_orth", "linalg.block_orth", None),
            (engine, "adi_real_step", "engine.step", None),
            (engine, "adi_double_step", "engine.step", None),
            (engine, "scaled_residual", "engine.residual_norm", None),
            (strategies, "ritz_update", "strategies.ritz_update", ritz),
            (resmin, "ritz_update", "strategies.ritz_update", ritz),
            (strategies, "schur_stabilize", "strategies.schur_stabilize",
             lambda a, out: {"stabilized": int(out[2])}),
            (resmin, "schur_stabilize", "strategies.schur_stabilize",
             lambda a, out: {"stabilized": int(out[2])}),
            (strategies, "hamiltonian_residual_shift", "strategies.hamiltonian", None),
            (resmin, "hamiltonian_residual_shift", "strategies.hamiltonian", None),
            (resmin, "build_seed", "resmin.seed", None),
            (resmin, "compress_zh", "resmin.compress_zh", None),
            (resmin, "recycle_krylov", "resmin.recycle_krylov",
             lambda a, co: {"size": int(co.size)}),
            (resmin, "optimize_shift", "resmin.optimize",
             lambda a, out: {"converged": bool(out[1]["converged"]),
                             "guess_won": bool(out[1]["from_guess"])}),
            (resmin, "eval_objective", "resmin.objective", None),
            (resmin, "nls_residual_jacobian", "resmin.jacobian", None),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in points]
        try:
            for (owner, attr, name, attrs), (_, _, fn) in zip(points, saved):
                setattr(owner, attr, self.wrap(name, fn, attrs))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def write(self, path, header):
        """Write a header line, then one JSON line per span (times from the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, attrs in self.spans:
                rec = {"name": name, "start": start - t0, "end": end - t0, "parent": parent}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans, iterations, factorizations):
    """Per-layer metrics from recorded spans, named ``<module>.<function>.<metric>``.

    ``iterations`` and ``factorizations`` come from the solve report. The
    root span must be the ``lr_adi_solve`` call; whatever its children do
    not cover is ``engine.loop.self_s``.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    count = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    attr_sum = defaultdict(float)
    for i, (name, _, _, _, attrs) in enumerate(spans):
        count[name] += 1
        busy[name] += dur[i]
        self_s[name] += dur[i] - child[i]
        for key, val in (attrs or {}).items():
            attr_sum[name, key] += val

    # grid presearch: objective calls before the first Jacobian of each optimize_shift
    grid = 0.0
    first_jac = {}
    for name, start, _, parent, _ in spans:
        if name == "resmin.jacobian":
            first_jac.setdefault(parent, start)
    for i, (name, start, _, parent, _) in enumerate(spans):
        if (name == "resmin.objective" and parent >= 0
                and spans[parent][0] == "resmin.optimize"
                and start < first_jac.get(parent, np.inf)):
            grid += dur[i]

    def ratio(num, den):
        return num / den if den else 0.0

    n_opt = count["resmin.optimize"]
    n_compress = count["strategies.ritz_update"] + count["resmin.recycle_krylov"]
    size_sum = (attr_sum["strategies.ritz_update", "size"]
                + attr_sum["resmin.recycle_krylov", "size"])
    return {
        "linalg.factor.count": count["linalg.factor"],
        "linalg.factor.s": busy["linalg.factor"],
        "linalg.factor.complex_count": int(attr_sum["linalg.factor", "complex"]),
        "linalg.splu.s": busy["linalg.splu"],
        "linalg.factor.overhead_s": busy["linalg.factor"] - busy["linalg.splu"],
        "linalg.lu_nnz": ratio(attr_sum["linalg.splu", "nnz"], count["linalg.splu"]),
        "linalg.solve.count": count["linalg.solve"],
        "linalg.solve.s": busy["linalg.solve"],
        "linalg.solve.cols": int(attr_sum["linalg.solve", "cols"]),
        "linalg.block_orth.s": busy["linalg.block_orth"],
        "engine.step.count": count["engine.step"],
        "engine.step.self_s": self_s["engine.step"],
        "engine.residual_norm.s": busy["engine.residual_norm"],
        "engine.steps_per_factor": ratio(iterations, factorizations),
        "engine.loop.self_s": self_s["engine.lr_adi_solve"],
        "strategies.next_shift.count": count["strategies.next_shift"],
        "strategies.next_shift.s": busy["strategies.next_shift"],
        "strategies.ritz_update.count": count["strategies.ritz_update"],
        "strategies.ritz_update.s": busy["strategies.ritz_update"],
        "strategies.ritz_update.fallback": int(attr_sum["strategies.ritz_update", "fallback"]),
        "strategies.schur_stabilize.s": busy["strategies.schur_stabilize"],
        "strategies.schur_stabilize.stabilized":
            int(attr_sum["strategies.schur_stabilize", "stabilized"]),
        "strategies.hamiltonian.s": busy["strategies.hamiltonian"],
        "resmin.seed.s": busy["resmin.seed"],
        "resmin.compress_zh.s": busy["resmin.compress_zh"],
        "resmin.recycle_krylov.s": busy["resmin.recycle_krylov"],
        "resmin.compress.size": ratio(size_sum, n_compress),
        "resmin.optimize.count": n_opt,
        "resmin.optimize.s": busy["resmin.optimize"],
        "resmin.grid.s": grid,
        "resmin.polish.s": busy["resmin.optimize"] - grid,
        "resmin.objective.count": count["resmin.objective"],
        "resmin.jacobian.count": count["resmin.jacobian"],
        "resmin.optimize.converged_ratio": ratio(attr_sum["resmin.optimize", "converged"], n_opt),
        "resmin.optimize.guess_won_ratio": ratio(attr_sum["resmin.optimize", "guess_won"], n_opt),
    }
