"""Shift strategies for the low-rank ADI iteration.

Contains the classical precomputed heuristic (greedy selection on Ritz
values of an extended Krylov space) and the adaptive strategies. Every
adaptive strategy is one AdaptiveStrategy: a compressed model of the
iteration per shift (the seed's, the Z window or the recycled extended
Krylov space, from the resmin module) and a shift picker on that model:
recomputed greedy heuristic shifts, convex-hull boundary shifts, the
projected residual Hamiltonian shift, or the residual-norm minimizer
(_resmin_pick). Every strategy answers ``next_shift(state)`` with an
engine.ShiftProposal: the iteration state, its problem included, is its
only input.
"""

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from . import resmin
from .engine import ShiftProposal, integer_at_least
from .linalg import spectral_norm_small
# bound here too, so that the benchmark's strategies.* span points exist
from .resmin import hamiltonian_residual_shift, ritz_update, schur_stabilize

logger = logging.getLogger(__name__)

__all__ = [
    "StrategyConfig",
    "penzl_select",
    "precomputed_heuristic",
    "ritz_update",
    "schur_stabilize",
    "convex_hull_shift",
    "hamiltonian_residual_shift",
    "CyclicShifts",
    "PrecomputedHeuristicStrategy",
    "AdaptiveStrategy",
    "make_strategy",
]


# ---------------------------------------------------------------------------
# greedy heuristic selection
# ---------------------------------------------------------------------------

def _log_adi_product(z, used):
    """log prod |(z - conj(a))/(z + a)| over used shifts, elementwise in z."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.zeros(z.shape, dtype=np.float64)
    with np.errstate(divide="ignore"):
        for a in used:
            out += np.log(np.abs(z - np.conj(a))) - np.log(np.abs(z + a))
    return out


def _penzl_step(candidates, used):
    """One step of Penzl's greedy rule, over the candidates in ascending-|lambda|
    order (ties go to the first). With no used shifts it is the minimax shift,
    the alpha minimizing max_lambda |(lambda - conj(alpha))/(lambda + alpha)|;
    otherwise the candidate where the accumulated ADI product over ``used`` is
    largest (the least-damped spot)."""
    cand = np.asarray(list(candidates), dtype=np.complex128)
    cand = cand[np.argsort(np.abs(cand), kind="stable")]
    if not used:
        worst = np.empty(cand.size)
        for i, a in enumerate(cand):
            with np.errstate(divide="ignore", invalid="ignore"):
                worst[i] = np.max(np.abs((cand - np.conj(a)) / (cand + a)))
        return complex(cand[int(np.argmin(worst))])
    return complex(cand[int(np.argmax(_log_adi_product(cand, used)))])


def penzl_select(candidates, J):
    """Greedy shift selection from a candidate set (usually Ritz values):
    _penzl_step repeated from no shifts. Complex picks append their conjugate
    immediately, so the result may exceed J by one."""
    cand = np.asarray(list(candidates), dtype=np.complex128)
    if cand.size == 0:
        raise ValueError("no candidates to select shifts from")
    out = []
    while not out or len(out) < J:
        out.append(_penzl_step(cand, out))
        if out[-1].imag != 0.0:
            out.append(out[-1].conjugate())
    return out


def precomputed_heuristic(problem, J, p, m):
    """Classical precomputed heuristic shifts.

    Ritz values of A (of M^{-1}A in the generalized case) on the extended
    Krylov space of order (p, m) started from the summed right-hand side
    B @ 1 are computed once, mirrored into the left half plane where
    needed, and fed to the greedy selection. Returns the shift list (to be
    reused cyclically).
    """
    b1 = problem.B @ np.ones((problem.s, 1))
    seed = resmin.build_seed(problem, p, m, B=b1)
    ritz = np.linalg.eigvals(seed.H)
    unstable = ritz.real >= 0.0
    if np.any(unstable):
        logger.info("mirroring %d unstable Ritz values", int(unstable.sum()))
        ritz[unstable] = -ritz[unstable]
    if J > ritz.size:
        logger.warning("requested %d shifts but only %d Ritz values are "
                       "available; truncating", J, ritz.size)
        J = ritz.size
    return penzl_select(ritz, J)


# ---------------------------------------------------------------------------
# convex hull boundary shifts
# ---------------------------------------------------------------------------

# boundary points per hull edge (or on a degenerate, segment-shaped hull)
_N_BOUNDARY = 200


def _hull_boundary(points):
    """Discretized boundary of the convex hull of complex points."""
    pts = np.unique(np.round(np.asarray(points, dtype=np.complex128), 14))
    if pts.size == 1:
        return pts
    xy = np.column_stack([pts.real, pts.imag])
    span = np.ptp(xy, axis=0)
    diam = max(np.linalg.norm(span), 1e-300)
    # collinear (includes the all-real case): segment between the extremes
    p0 = xy[0]
    d = xy[np.argmax(np.linalg.norm(xy - p0, axis=1))] - p0
    d /= max(np.linalg.norm(d), 1e-300)
    cross = np.abs((xy[:, 0] - p0[0]) * d[1] - (xy[:, 1] - p0[1]) * d[0])
    if np.max(cross) <= 1e-10 * diam:
        t = (xy - p0) @ d
        lo, hi = pts[np.argmin(t)], pts[np.argmax(t)]
        return np.linspace(lo, hi, _N_BOUNDARY)
    from scipy.spatial import ConvexHull

    hull = ConvexHull(xy)
    verts = pts[hull.vertices]  # counterclockwise, closed implicitly
    segs = []
    for a, b in zip(verts, np.roll(verts, -1)):
        t = np.linspace(0.0, 1.0, _N_BOUNDARY, endpoint=False)
        segs.append(a + t * (b - a))
    return np.concatenate(segs)


def convex_hull_shift(ritz_values, used_shifts):
    """Next shift from the convex hull of the (mirrored) Ritz values.

    The hull of the Ritz values and their conjugates is discretized along
    its boundary (_N_BOUNDARY points per edge, uniform in arc length;
    degenerate hulls become segments or single points) and the accumulated
    ADI product r(z) = prod |(z - conj(a_i))/(z + a_i)| over all used
    shifts a_i is evaluated there. The point where r is largest is
    returned — the least damped spot, which is where the greedy heuristics
    place the next shift. With no used shifts yet, the most negative
    boundary point is returned. The result is normalized to Im >= 0.
    """
    ritz = np.asarray(list(ritz_values), dtype=np.complex128)
    if ritz.size == 0:
        raise ValueError("no Ritz values provided")
    pts = np.concatenate([ritz, np.conj(ritz)])
    boundary = _hull_boundary(pts)
    used = list(used_shifts)
    if len(used) == 0:
        z = boundary[int(np.argmin(boundary.real))]
    else:
        z = boundary[int(np.argmax(_log_adi_product(boundary, used)))]
    z = complex(z)
    return z.conjugate() if z.imag < 0 else z


# ---------------------------------------------------------------------------
# strategy objects
# ---------------------------------------------------------------------------

class CyclicShifts:
    """Cycle through a fixed shift list, from its start at step 0 of a solve.

    A complex entry is consumed as a whole conjugate pair by the solver,
    so an adjacent stored conjugate partner is skipped over.
    """

    def __init__(self, shifts):
        if len(shifts) == 0:
            raise ValueError("empty shift list")
        self.shifts = [complex(a) for a in shifts]

    def next_shift(self, state):
        if state.j == 0:
            self._pos = 0
        a = self.shifts[self._pos % len(self.shifts)]
        self._pos += 1
        if a.imag != 0.0:
            nxt = self.shifts[self._pos % len(self.shifts)]
            if abs(nxt - a.conjugate()) <= 1e-14 * max(1.0, abs(a)):
                self._pos += 1  # partner handled by the double step
        return ShiftProposal(a)


class PrecomputedHeuristicStrategy(CyclicShifts):
    """heur(J, p, m) from a StrategyConfig: greedy shifts from one extended
    Krylov space of the problem, computed at step 0 of a solve and cycled."""

    def __init__(self, config):
        self.config = config

    def next_shift(self, state):
        if state.j == 0:
            c = self.config
            self.shifts = precomputed_heuristic(state.problem, c.J, c.p, c.m)
        return super().next_shift(state)


def _greedy_pick(co, state):
    """Penzl's greedy step continued from the executed shifts (the double
    step runs a complex pick's partner, so only the pick is taken)."""
    return _penzl_step(co.eigenvalues, state.shifts), None


# Each picker maps the current compressed model (and the state, for the
# shifts used so far) to the next shift and its info (None for these).
_PICKERS = {
    "zheur": _greedy_pick,
    "zconv": lambda co, state: (convex_hull_shift(co.eigenvalues, state.shifts), None),
    "zhres": lambda co, state: (hamiltonian_residual_shift(co.H, co.Wtil), None),
}


def _resmin_pick(method):
    """The residual-norm minimizer with optimizer ``method``, as a picker:
    optimize_shift from the model's projected-Hamiltonian shift. Its info
    adds the guess and the model's ``predicted_reduction`` of the squared
    residual norm, value / ||weight Wtil||_2^2, and joins the starts'
    stop reasons into one string, so that it holds scalars only."""
    def pick(co, state):
        guess = resmin.hamiltonian_residual_shift(co.H, co.Wtil)
        alpha, info = resmin.optimize_shift(co, x0=guess, method=method)
        Wt2 = spectral_norm_small(co.Wtil if co.weight is None else co.weight @ co.Wtil)
        info.update(guess=guess, stops=",".join(info["stops"]),
                    predicted_reduction=info["value"] / Wt2 if Wt2 else np.nan)
        return alpha, info

    return pick


class AdaptiveStrategy:
    """Every adaptive strategy: a compressed model per shift, then a picker.

    At step 0 of each solve it builds the extended Krylov seed of
    ``state.problem``: the config's orders (p, m) for the recycled space
    (``subspace`` "EK"), (1, 1) for the Z window ("Z"). The model is the
    seed compression at j = 0, afterwards the window over the last h steps
    or the recycled extended Krylov space. ``pick(co, state)`` returns
    ``(alpha, info)`` from that model: one of the pickers above
    (Z(h)+heur|conv|Hres) or the residual-norm minimizer (resmin+Z|EK,
    from _resmin_pick). The proposal's info holds the model's scalars
    (``source``, ``size``, ``used_fallback``, ``n_stabilized``,
    ``window_start``), ``compress_s``, the seconds spent building the
    model (the seed's build included at step 0), and the picker's info;
    never the model itself, whose basis is n x k. ``budget``, the
    config's g, > 1 makes each shift a multistep group sharing one
    factorization, and the model's ``g`` is set to it: the budget is the
    one carrier of the group size.
    """

    def __init__(self, pick, config):
        self.pick = pick
        self.config = config
        self.budget = config.g

    def next_shift(self, state):
        # called through the module, not bound here at import: the benchmark's
        # spans (perfbench/spans.py) rebind these names on resmin, and must
        # see the calls made here
        c = self.config
        t0 = time.monotonic()
        if state.j == 0:
            orders = (c.p, c.m) if c.subspace == "EK" else (1, 1)
            self.seed = resmin.build_seed(state.problem, *orders)
            co = resmin.seed_compressed(self.seed)
        elif c.subspace == "EK":
            co = resmin.recycle_krylov(self.seed, state)
        else:
            co = resmin.compress_zh(state, c.h)
        info = {"source": co.source, "size": co.size, "used_fallback": co.used_fallback,
                "n_stabilized": co.n_stabilized, "window_start": co.window_start,
                "compress_s": time.monotonic() - t0}
        if self.budget > 1:
            co = replace(co, g=self.budget)
        alpha, pick_info = self.pick(co, state)
        return ShiftProposal(alpha, budget=self.budget, info={**info, **(pick_info or {})})


# ---------------------------------------------------------------------------
# configuration and factory
# ---------------------------------------------------------------------------

@dataclass
class StrategyConfig:
    """Strategy description, the one home of every strategy rule.

    ``kind`` is one of "heur", "zheur", "zconv", "zhres", "resmin"; the
    other fields parametrize it. J, p, h and g are integers >= 1 and m an
    integer >= 0, each stored as an int; ``subspace`` is "Z" or "EK" and
    ``optimizer`` a key of resmin.OPTIMIZERS, kept as its canonical name;
    g > 1 (multistep groups) and "EK" need "resmin". Construction raises
    ValueError, naming the field and its value, on a config that breaks
    a rule.
    """

    kind: str
    J: int = 20
    p: int = 30
    m: int = 20
    h: int = 4
    subspace: str = "Z"
    optimizer: str = "gauss-newton"
    g: int = 1

    def __post_init__(self):
        if self.kind not in ("heur", *_PICKERS, "resmin"):
            raise ValueError(f"unknown kind {self.kind!r}")
        for name, low in (("J", 1), ("p", 1), ("h", 1), ("g", 1), ("m", 0)):
            setattr(self, name, integer_at_least(name, getattr(self, name), low))
        if self.subspace not in ("Z", "EK"):
            raise ValueError(f"subspace must be 'Z' or 'EK', got {self.subspace!r}")
        if self.optimizer not in resmin.OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        self.optimizer = resmin.OPTIMIZERS[self.optimizer]
        field = "g" if self.g > 1 else "subspace" if self.subspace == "EK" else None
        if field and self.kind != "resmin":
            raise ValueError(f"{field} = {getattr(self, field)!r} needs kind 'resmin'")


def make_strategy(config):
    """Build the strategy object a StrategyConfig describes."""
    if config.kind == "heur":
        return PrecomputedHeuristicStrategy(config)
    pick = _PICKERS.get(config.kind) or _resmin_pick(config.optimizer)
    return AdaptiveStrategy(pick, config)
