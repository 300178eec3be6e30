"""Low-rank ADI iteration for (generalized) Lyapunov equations.

Solves A X + X A^* + B B^* = 0, or A X M^* + M X A^* + B B^* = 0 when a
mass matrix is present, for a low-rank factor Z with X ~ Z Z^T. One
factorization of A + alpha*M is built per shift, in real arithmetic for a
real shift; it is kept while the next shift is proposed and released just
before the next one is built. Conjugate shift pairs are handled by a real
double step so Z stays real. The scaled residual norm
||W^* W||_2 / ||B^* B||_2 is tracked from the residual factor W that the
iteration carries along (the residual is exactly W W^* at every step).
The solve keeps one record per multistep group (``SolveReport.groups``):
its shift, model and LU, the seconds and minor page faults of the three
calls that made it and the solve's clock at its end. The report's totals
are sums over it, and the ``on_group`` hook receives each as it is made.
"""

import logging
import operator
import resource
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import ShiftedPencil, sparse_shifted_factorize, spectral_norm_small

logger = logging.getLogger(__name__)

__all__ = [
    "LyapunovProblem",
    "ShiftProposal",
    "AdiState",
    "SolveReport",
    "lr_adi_solve",
    "adi_real_step",
    "adi_double_step",
    "run_multistep_group",
    "real_SG",
    "scaled_residual",
]


def _stored_entries(X):
    """The stored values of a sparse matrix, every entry of a dense one."""
    if not sp.issparse(X):
        return np.asarray(X)
    return (X if X.format in ("csr", "csc", "coo") else X.tocsr()).data


@dataclass
class LyapunovProblem:
    """Problem data for the low-rank Lyapunov solve.

    The problem is data: A, B, M, tol, max_iterations, ``n``, ``s`` and
    ``pencil``, the ShiftedPencil of (A, M) that every factorization of
    the solve is built on. Code that needs M writes ``problem.M @ X`` and
    ``problem.pencil.solve_M(X)`` under its own ``problem.M`` test.
    Construction makes every input check and raises ValueError for bad
    data: complex A, M or B, a NaN or infinite entry in B or among the
    stored entries of A or M, mismatched shapes, B = 0, a NaN or negative
    tol, or a max_iterations that is not an integer >= 1.

    Parameters
    ----------
    A
        Sparse stable real system matrix (n x n). Stability is not verified
        and no status names an unstable matrix (ROADMAP.md, item 3): the
        adaptive strategies reflect or negate its unstable values, so a
        solve usually ends "max_iterations" with a residual that does not
        fall, and raises SingularShiftError only when a shift lands on the
        negative of an unstable eigenvalue.
    B
        Dense right-hand-side factor (n x s), s << n.
    M
        Optional sparse real mass matrix for A X M^* + M X A^* + B B^* = 0.
        None solves the standard equation.
    tol
        Convergence threshold on the scaled residual ||W^*W|| / ||B^*B||.
    max_iterations
        Cap on logical ADI steps, stored as an int (a trailing conjugate
        pair may run one step past the cap, see SolveReport).
    """

    A: object
    B: object
    M: object = None
    tol: float = 1e-8
    max_iterations: int = 150

    def __post_init__(self):
        # 2.5 would run 3 steps, 0 none, and a NaN tol would run to the cap
        self.max_iterations = integer_at_least("max_iterations", self.max_iterations, 1)
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol!r}")
        # B, W and Z are real throughout: complex data would be truncated;
        # a NaN or Inf would surface deep in the solve, as a singular shift
        # or a box with no eigenvalues
        for name, X in (("A", self.A), ("M", self.M), ("B", np.asarray(self.B))):
            if np.iscomplexobj(X):
                raise ValueError(f"{name} must be real, got dtype {X.dtype}")
            if X is not None and not np.isfinite(_stored_entries(X)).all():
                raise ValueError(f"{name} has a NaN or infinite entry")
        # A and M as every factorization and M-solve of the solve sees
        # them; the pencil checks their shapes, and its ordering is
        # computed on first use, inside the solve
        self.pencil = ShiftedPencil(self.A, self.M)
        self.B = np.atleast_2d(np.asarray(self.B, dtype=np.float64))
        if self.B.shape[0] == 1 and self.A.shape[0] != 1:
            self.B = self.B.T
        if self.B.shape[0] != self.A.shape[0]:
            raise ValueError(
                f"B has {self.B.shape[0]} rows, A is {self.A.shape[0]} x {self.A.shape[1]}"
            )
        if spectral_norm_small(self.B) == 0.0:
            raise ValueError("B must be nonzero")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def s(self):
        return self.B.shape[1]


def integer_at_least(name, value, low):
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer (has ``__index__``: 2.5 and 2.0 do not) of at least ``low``."""
    if not hasattr(value, "__index__") or operator.index(value) < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return operator.index(value)


@dataclass
class ShiftProposal:
    """A strategy's answer: the next shift and how many steps to spend on it.

    ``budget``, an integer >= 1 stored as an int, > 1 requests a multistep
    group: the shift is reused for up to ``budget`` logical steps on a
    single factorization (a conjugate pair consumes two; ceil(budget/2)
    pairs are allowed).
    ``info``, the picker's report on the shift (None: it gave none), is
    a dict of scalars that joins the group's record (SolveReport.groups).
    """

    alpha: complex
    budget: int = 1
    info: object = None

    def __post_init__(self):
        self.budget = integer_at_least("budget", self.budget, 1)


class AdiState:
    """Mutable iteration state: factor blocks, residual factors, history.

    ``shifts`` is the executed history, one Python complex per logical
    step: a real step's shift has imaginary part +0.0, and a conjugate
    pair is stored as alpha, conj(alpha) with Im alpha > 0 first.
    ``res_history`` holds the scaled residual after each logical step.
    """

    def __init__(self, problem):
        self.problem = problem
        self.W = problem.B.copy()
        # W_m = M^{-1} W is carried alongside in the generalized case; the
        # compressed restrictions need it and it is cheap to update in step.
        self.W_m = self.W if problem.M is None else problem.pencil.solve_M(problem.B)
        self.b_norm2 = spectral_norm_small(problem.B)
        self.shifts = []
        self.res_history = []
        self._zbuf = np.empty((problem.n, 0), order="F")

    @property
    def j(self):
        """Number of executed logical steps."""
        return len(self.shifts)

    @property
    def current_residual(self):
        """Scaled residual after the last step (1.0 before the first)."""
        return self.res_history[-1] if self.res_history else 1.0

    @property
    def Z(self):
        """Accumulated low-rank factor (n x j*s).

        A read-only view into a growable column-major buffer: no copy is
        made, and a view taken earlier stays valid (and unchanged) while
        later steps append columns.
        """
        Z = self._zbuf[:, : self.j * self.problem.s]
        Z.flags.writeable = False
        return Z

    def _push(self, block, shifts, residuals):
        k, w = self.j * self.problem.s, block.shape[1]
        if k + w > self._zbuf.shape[1]:
            # doubling keeps the total copy cost linear in the final size.
            # Reserving (max_iterations + 1)*s columns up front lowers peak
            # RSS (2-core host: cd2d-flagship 139-167 -> 126-146 MB,
            # fem-multistep 186 -> 159-171 MB) but leaves SuperLU fresh
            # mappings to fault in: cd2d's minor faults rose from 64-97k to
            # 178-224k and its system time from 0.12-0.18 to 0.32-0.49 s.
            buf = np.empty((self.problem.n, max(2 * self._zbuf.shape[1], k + w)), order="F")
            buf[:, :k] = self._zbuf[:, :k]
            self._zbuf = buf
        self._zbuf[:, k : k + w] = block
        self.shifts.extend(shifts)
        self.res_history.extend(residuals)


def scaled_residual(W, b_norm2):
    """||W^* W||_2 / b_norm2 — the scaled residual norm of the iteration."""
    return spectral_norm_small(W) / b_norm2


def _residual_update(state, V, c):
    """(W + c M V, W_m + c V): the residual factor and M^{-1} times it after
    a step whose solve gave V; without a mass matrix both are W + c V."""
    problem = state.problem
    if problem.M is None:
        W = state.W + c * V
        return W, W
    return state.W + c * (problem.M @ V), state.W_m + c * V


def adi_real_step(state, fact):
    """One ADI step with a real negative shift; appends one Z block.

    ``fact`` must be a factorization of A + alpha*M for the problem held by
    ``state``. Returns the state (mutated in place). Raises ValueError
    unless alpha < 0.
    """
    alpha = float(np.real(fact.alpha))
    if not alpha < 0.0:
        raise ValueError(f"shift must have negative real part, got {alpha}")
    V = fact.solve(state.W)
    gamma = np.sqrt(-2.0 * alpha)
    state.W, state.W_m = _residual_update(state, V, -2.0 * alpha)
    res = scaled_residual(state.W, state.b_norm2)
    state._push(gamma * V, [complex(alpha)], [res])
    return state


def adi_double_step(state, fact):
    """One conjugate pair of ADI steps in real arithmetic.

    ``fact`` holds A + alpha*M with Im(alpha) > 0. A single complex solve
    yields both steps: with V = (A + alpha M)^{-1} W, beta = Re alpha,
    c = beta/Im alpha, q = sqrt(c^2+1), the factor gains the real columns

        [sqrt(2)*gamma*(Re V + c Im V), sqrt(2)*gamma*q*Im V],

    and W <- W - 4 beta M (Re V + c Im V), which reproduces the two complex
    steps with alpha and conj(alpha) exactly. The residual after the first
    (complex) half step is recorded too, so the history has one entry per
    logical step. Raises ValueError unless Re alpha < 0 and Im alpha > 0.
    """
    alpha = complex(fact.alpha)
    beta, delta = alpha.real, alpha.imag
    if not (beta < 0.0 and delta > 0.0):
        raise ValueError(f"need Re<0, Im>0, got {alpha}")
    c = beta / delta
    q = np.sqrt(c * c + 1.0)
    gamma = np.sqrt(-2.0 * beta)

    V = fact.solve(state.W)
    # residual factor after the half step (complex intermediate)
    W_mid, _ = _residual_update(state, V, -2.0 * beta)
    res_mid = scaled_residual(W_mid, state.b_norm2)

    Vr = V.real + c * V.imag
    state.W, state.W_m = _residual_update(state, Vr, -4.0 * beta)
    res = scaled_residual(state.W, state.b_norm2)

    n, s = state.problem.n, state.problem.s
    block = np.empty((n, 2 * s))
    block[:, :s] = np.sqrt(2.0) * gamma * Vr
    block[:, s:] = np.sqrt(2.0) * gamma * q * V.imag
    state._push(block, [alpha, alpha.conjugate()], [res_mid, res])
    return state


def normalize_shift(alpha):
    """Canonical form: Im >= 0, Re < 0 (unstable proposals are reflected).

    An imaginary part below 1e-8 relative to the real part is treated as
    numerical noise and dropped: the double step for such a shift is a
    double real step to machine precision, but would cost an extra block
    of low-rank columns and a second logical iteration.
    """
    alpha = complex(alpha)
    if alpha.imag < 0.0:
        alpha = alpha.conjugate()
    if alpha.imag != 0.0 and alpha.imag <= 1e-8 * abs(alpha.real):
        alpha = complex(alpha.real, 0.0)
    if alpha.real >= 0.0:
        logger.warning("shift %s has nonnegative real part; using the reflection", alpha)
        alpha = complex(-alpha.real if alpha.real > 0.0 else -1e-8, alpha.imag)
    return alpha


def end_status(state):
    """The end-of-solve rule: "converged" once the scaled residual is at
    most the problem's tol, else "max_iterations" once the step count
    reaches its cap, else None (go on)."""
    problem = state.problem
    if state.current_residual <= problem.tol:
        return "converged"
    if state.j >= problem.max_iterations:
        return "max_iterations"
    return None


def run_multistep_group(state, fact, budget):
    """Run up to ``budget`` logical steps reusing one factorization.

    ``end_status`` is re-checked before every step, so groups exit early.
    A complex shift spends two logical steps per double step and may run
    ceil(budget/2) pairs. Returns the number of logical steps executed.
    """
    before = state.j
    if complex(fact.alpha).imag == 0.0:
        step, repeats = adi_real_step, budget
    else:
        step, repeats = adi_double_step, (budget + 1) // 2
    for _ in range(repeats):
        if end_status(state) is not None:
            break
        step(state, fact)
    return state.j - before


@dataclass
class SolveReport:
    """Outcome of lr_adi_solve.

    ``status`` is ``end_status`` after the last step. ``residuals`` and
    ``shifts`` have one entry per logical step, and ``iterations`` counts
    them (pair halves count separately; the last pair may overshoot
    max_iterations by one). ``t_total`` is the solve's wall time.

    ``groups`` has one dict of scalars per multistep group, in order:
    ``shift`` (as ``shifts`` holds it), ``budget``, ``steps`` run,
    ``residual_before`` and ``residual_after``, the LU's ``lu_nnz`` and
    ``lu_dtype``, ``lus`` (the pencil's LUs built during the group, by
    the engine or the strategy: the seed's in the first group),
    ``elapsed_s`` (the solve's clock at the group's end), and
    ``<call>_s``, ``<call>_cpu_s`` and
    ``<call>_minflt`` (wall seconds, CPU seconds, minor page faults) for
    the calls ``next_shift``, ``factor`` and ``steps``. The proposal's
    ``info`` adds its keys (AdaptiveStrategy: the model's ``source``,
    ``size``, ``used_fallback``, ``n_stabilized``, ``window_start`` and
    ``compress_s``; resmin: optimize_shift's info, ``guess`` and
    ``predicted_reduction``). ``t_shift``, the seconds spent proposing
    shifts, and ``n_factorizations`` sum their ``next_shift_s`` and ``lus``.
    """

    status: str
    residuals: list
    shifts: list
    t_total: float
    groups: list = field(default_factory=list)

    @property
    def iterations(self):
        return len(self.shifts)

    @property
    def t_shift(self):
        return sum((group["next_shift_s"] for group in self.groups), 0.0)

    @property
    def n_factorizations(self):
        return sum(group["lus"] for group in self.groups)

    @property
    def final_residual(self):
        return self.residuals[-1] if self.residuals else 1.0

    @property
    def converged(self):
        return self.status == "converged"


def _costed(costs, name, call, *args):
    """``call(*args)``, storing its wall seconds, CPU seconds and minor
    page faults in ``costs`` as ``<name>_s``, ``<name>_cpu_s`` and
    ``<name>_minflt``. The clock is read inside the two getrusage reads,
    so ``<name>_s`` times the call alone."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    out = call(*args)
    costs[name + "_s"] = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    costs[name + "_cpu_s"] = (after.ru_utime - before.ru_utime
                              + after.ru_stime - before.ru_stime)
    costs[name + "_minflt"] = after.ru_minflt - before.ru_minflt
    return out


def lr_adi_solve(problem, strategy, return_state=False, on_group=None):
    """Low-rank ADI driver.

    Each pass of the loop is one multistep group: ``strategy.next_shift``,
    one shifted LU (``sparse_shifted_factorize``) and the group's steps
    (``run_multistep_group``). The report's ``groups`` record each one,
    from readings of the clock and ``getrusage`` around those three calls.

    Parameters
    ----------
    problem
        LyapunovProblem instance.
    strategy
        Shift source: an object with ``next_shift(state) ->
        ShiftProposal``; the problem is ``state.problem``. Each group's
        ``lus`` counts the change in ``problem.pencil.n_factorizations``
        over the group, so the LUs a strategy builds there are counted
        too. The last group's LU is still alive while ``next_shift`` runs.
    return_state
        Also return the final AdiState (for Z and the residual factor).
    on_group
        Optional callback ``on_group(state, group)``, called after each
        multistep group with the record just appended to ``groups``; the
        group's steps are the last ``group["steps"]`` of ``state.shifts``
        and ``state.res_history``. What it sees survives a solver error.

    Returns
    -------
    SolveReport, or (SolveReport, AdiState) with ``return_state``.
    """
    state = AdiState(problem)
    t0 = time.monotonic()
    groups = []

    while (status := end_status(state)) is None:
        costs, lus, before = {}, problem.pencil.n_factorizations, state.current_residual
        proposal = _costed(costs, "next_shift", strategy.next_shift, state)
        alpha = normalize_shift(proposal.alpha)
        # release the last group's LU only now, just before the next one is
        # built: SuperLU allocates the same sizes at every shift, so the new
        # LU reuses the old one's memory instead of faulting in fresh pages;
        # the group's first solve carries the LU's singularity probe
        fact = None
        fact = _costed(costs, "factor", sparse_shifted_factorize, problem.pencil, alpha)
        done = _costed(costs, "steps", run_multistep_group, state, fact, proposal.budget)
        groups.append({
            "shift": state.shifts[-done], "budget": proposal.budget,
            "steps": done, "residual_before": before, "residual_after": state.current_residual,
            "lu_nnz": fact.nnz, "lu_dtype": fact.dtype.name,
            "lus": problem.pencil.n_factorizations - lus,
            "elapsed_s": time.monotonic() - t0,
            **costs, **(proposal.info or {}),
        })
        if on_group is not None:
            on_group(state, groups[-1])

    report = SolveReport(
        status=status,
        residuals=list(state.res_history),
        shifts=list(state.shifts),
        t_total=time.monotonic() - t0,
        groups=groups,
    )
    if return_state:
        return report, state
    return report


# ---------------------------------------------------------------------------
# structured factors of the ADI relation
# ---------------------------------------------------------------------------

def real_SG(shifts, s):
    """Real structured factors of the ADI relation for the engine's real Z.

    For the executed history with column scalings gamma_i = sqrt(-2 Re
    alpha_i), returns (S_r, G_r) with

        A Z_j = Z_j S_r + B G_r^T,    W_j = B + Z_j G_r,
        S_r - G_r G_r^T = -S_r^T,

    built span by span in real arithmetic and expanded by Kronecker
    products with I_s. A real step alpha has diagonal entry -alpha and
    g = gamma; a conjugate pair alpha = beta + i delta has the diagonal
    block [[-2 beta, -|alpha|], [|alpha|, 0]] and g = [sqrt(2) gamma, 0],
    matching the two real columns of adi_double_step. The block between
    spans I < K is g_I g_K^T, and G_r stacks the g. S_r is block upper
    triangular (2 x 2 bumps on pairs), so trailing sub-blocks are only
    meaningful on pair boundaries.

    Parameters
    ----------
    shifts
        Executed shifts as stored in AdiState.shifts: an entry with
        positive imaginary part starts a pair and must be followed by its
        conjugate. Raises ValueError for a history that breaks this.
    s
        Number of right-hand-side columns.
    """
    j = len(shifts)
    S = np.zeros((j, j))
    g = np.zeros(j)
    span = np.empty(j, dtype=int)
    i = k = 0
    while i < j:
        alpha = complex(shifts[i])
        gamma = np.sqrt(-2.0 * alpha.real)
        if alpha.imag == 0.0:
            S[i, i] = -alpha.real
            g[i] = gamma
            span[i] = k
            i += 1
        else:
            if alpha.imag < 0.0 or i + 1 >= j or complex(shifts[i + 1]) != alpha.conjugate():
                raise ValueError(f"shift {i} does not start a conjugate pair: {alpha}")
            S[i : i + 2, i : i + 2] = [
                [-2.0 * alpha.real, -abs(alpha)],
                [abs(alpha), 0.0],
            ]
            g[i] = np.sqrt(2.0) * gamma
            span[i : i + 2] = k
            i += 2
        k += 1
    S += np.where(span[:, None] < span[None, :], np.outer(g, g), 0.0)
    I_s = np.eye(s)
    return np.kron(S, I_s), np.kron(g[:, None], I_s)
