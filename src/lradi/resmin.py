"""Compressed models of the ADI iteration and residual-norm-minimizing shifts.

Every self-generating shift comes from one small compressed model: a
restriction H of the iteration's operator and a compressed residual
factor Wt, built either from a window of recent Z columns or from a
recycled extended Krylov space that reuses the seed basis built once up
front (new basis directions come from the accumulated factor Z, without
further solves with A). This module holds the models and the optimizers
only: strategies.AdaptiveStrategy builds the seed, chooses the model for
each step and pairs it with a picker, among them the projected residual
Hamiltonian shift here and the residual-norm minimizer, which runs
optimize_shift.

The residual-norm minimizer chooses the next shift by minimizing the
norm of the ADI residual factor after one (or g) hypothetical steps,
evaluated on the compressed model:

    psi(nu, xi) = || T * C(H, alpha)^g * Wt ||_2^2,
    C(H, alpha) = (H - conj(alpha) I)(H + alpha I)^{-1},  alpha = nu + i xi,

minimized over a spectral bounding box by one Levenberg iteration that
steps on the Frobenius surrogate || T * C(H, alpha)^g * Wt ||_F^2 (psi
itself for a single column), with either the Gauss-Newton curvature or
the surrogate's exact curvature. The polish reads its box from the model
(co.bounds), and nls_residual_jacobian gives it only the surrogate's
normal equations at a point (perfbench/spans.py wraps it by that name).
"""

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as spla

from .engine import costed, real_SG
from .linalg import block_orth, sparse_shifted_factorize, spectral_norm_small

logger = logging.getLogger(__name__)

__all__ = [
    "KrylovSeed",
    "CompressedObjective",
    "Bounds",
    "ShiftObjectiveError",
    "build_seed",
    "seed_compressed",
    "extended_krylov_basis",
    "history_krylov_basis",
    "schur_stabilize",
    "ritz_update",
    "compress_zh",
    "recycle_krylov",
    "eval_objective",
    "grid_objective",
    "eval_derivatives",
    "nls_residual_jacobian",
    "derive_bounds",
    "optimize_shift",
    "hamiltonian_residual_shift",
    "OPTIMIZERS",
]


class ShiftObjectiveError(RuntimeError):
    """Compressed objective not usable at this point (singular or non-smooth)."""


# ---------------------------------------------------------------------------
# extended Krylov seed
# ---------------------------------------------------------------------------

def extended_krylov_basis(apply_op, solve_op, B, p, m):
    """Orthonormal basis of the extended Krylov space EK_{p,m}(A, B).

    Span of {B, A B, ..., A^{p-1} B} union {A^{-1} B, ..., A^{-m} B},
    built incrementally: forward and backward directions are extended from
    the orthonormalized sub-blocks (never from explicit power blocks, which
    would be numerically useless for larger p). Rank-deficient blocks
    shrink the streams; if a stream dries up the corresponding effective
    order stops growing. Each new column joins the stream of the block
    column ``block_orth`` kept for it. B keeps every direction it has on
    its own scale, however large A^{-1} B is.

    Parameters
    ----------
    apply_op, solve_op
        Callables computing A @ X and A^{-1} X (solve_op may be None when
        m == 0).
    B
        Starting block.
    p, m
        Forward/backward orders, p >= 1, m >= 0.

    Returns
    -------
    (Q, p_eff, m_eff): basis whose first columns span B, plus the orders
    actually reached.
    """
    if p < 1:
        raise ValueError("forward order p must be >= 1 so the span contains B")
    if m < 0:
        raise ValueError("backward order m must be >= 0")
    B = np.atleast_2d(np.asarray(B))
    sB = B.shape[1]
    X0 = np.hstack([B, solve_op(B)]) if m >= 1 else B
    Q, _, kept = block_orth(None, X0)
    f_idx = [i for i, col in enumerate(kept) if col < sB]
    if m >= 1 and len(f_idx) < sB:
        # the joint drop scale is the largest column of [B, A^{-1}B]; when
        # A^{-1}B dwarfs B, that drops directions B has on its own scale
        QB, _, _ = block_orth(None, B)
        if QB.shape[1] > len(f_idx):
            Q, _, _ = block_orth(QB, X0[:, sB:])
            f_idx = list(range(QB.shape[1]))
    b_idx = [i for i in range(Q.shape[1]) if i not in f_idx]
    p_eff, m_eff = 1, (1 if m >= 1 else 0)

    while (p_eff < p and f_idx) or (m_eff < m and b_idx):
        parts, nf = [], 0  # the block's first nf columns are forward images
        if p_eff < p and f_idx:
            parts.append(apply_op(Q[:, f_idx]))
            nf = len(f_idx)
            p_eff += 1
        if m_eff < m and b_idx:
            parts.append(solve_op(Q[:, b_idx]))
            m_eff += 1
        k0 = Q.shape[1]
        Q, _, kept = block_orth(Q, np.hstack(parts))
        # a stream left out of this block has no new columns
        f_idx = [k0 + i for i, col in enumerate(kept) if col < nf]
        b_idx = [k0 + i for i, col in enumerate(kept) if col >= nf]
    return Q, p_eff, m_eff


@dataclass
class KrylovSeed:
    """Extended Krylov seed built once per solve.

    ``Q`` spans EK_{p,m}(A, B) (of M^{-1}A and M^{-1}B in the generalized
    case) with the first s columns spanning the starting block; ``P`` holds
    the images A Q so later restrictions need no further products with A;
    ``H = Q^* P`` is the seed restriction; ``p``, ``m`` are the requested
    orders and ``B_m`` is the starting block (M^{-1} B in the generalized
    case).
    ``MQ_Q``, ``MQ_R`` are the thin QR factors of M Q (None without a mass
    matrix): the weights of the seed and recycled compressions start from
    them, so a recycled basis applies M and factors only its new columns.
    """

    Q: object
    P: object
    H: object
    p: int
    m: int
    B_m: object
    MQ_Q: object = None
    MQ_R: object = None

    @cached_property
    def Q_cols(self):
        """Column-major copy of the row-major Q, made once: every recycled
        basis starts with Q, which block_orth lays out column-major."""
        return np.asfortranarray(self.Q)


def build_seed(problem, p, m, B=None):
    """Build the extended Krylov seed for a problem.

    Parameters
    ----------
    problem
        LyapunovProblem; the operator is A (or M^{-1}A when a mass matrix
        is present).
    p, m
        Forward/backward orders; p >= 1 is required (the span must contain
        the right-hand side). m >= 1 costs one sparse factorization.
    B
        Override the starting block (defaults to problem.B).

    Returns KrylovSeed.
    """
    A, M, pencil = problem.A, problem.M, problem.pencil
    Braw = problem.B if B is None else np.atleast_2d(np.asarray(B, dtype=np.float64))
    if M is None:
        Bt = Braw
        apply_op = lambda X: A @ X
    else:
        Bt = pencil.solve_M(Braw)
        apply_op = lambda X: pencil.solve_M(A @ X)
    solve_op = None
    if m >= 1:
        fact = sparse_shifted_factorize(pencil, 0.0)
        solve_op = fact.solve if M is None else lambda X: fact.solve(M @ X)
    Q, p_eff, m_eff = extended_krylov_basis(apply_op, solve_op, Bt, p, m)
    # row-major: SciPy's sparse products (A Q here, M Q later) copy a
    # column-major operand into this layout first
    Q = np.ascontiguousarray(Q)
    if p_eff < p or m_eff < m:
        logger.info("seed orders reduced by breakdown: (%d, %d) -> (%d, %d)",
                    p, m, p_eff, m_eff)
    P = apply_op(Q)
    H = Q.conj().T @ P
    # guards extended_krylov_basis's promise that Q's first columns span Bt
    Q1 = Q[:, : Bt.shape[1]]
    resid = np.linalg.norm(Q1 @ (Q1.conj().T @ Bt) - Bt) / max(np.linalg.norm(Bt), 1e-300)
    if resid > 1e-8:
        logger.warning("starting block is not in the seed space "
                       "(relative residual %.1e)", resid)
    MQ_Q = MQ_R = None
    if M is not None:
        # numpy's QR of a row-major MQ is slower than a column-major copy plus QR
        MQ_Q, MQ_R = np.linalg.qr(np.asfortranarray(M @ Q))
    return KrylovSeed(
        Q=Q, P=P, H=H, p=p, m=m, B_m=Bt, MQ_Q=MQ_Q, MQ_R=MQ_R,
    )


# ---------------------------------------------------------------------------
# compressed models
# ---------------------------------------------------------------------------

@dataclass
class Bounds:
    """Rectangular search box for the shift: Re in [nu_minus, nu_plus],
    Im in [0, xi_plus]; a box with xi_plus = 0 lies on the real axis."""

    nu_minus: float
    nu_plus: float
    xi_plus: float

    @property
    def real_axis(self):
        return self.xi_plus == 0.0


def derive_bounds(eigenvalues):
    """Spectral bounding box from compressed eigenvalues.

    An (almost) real spectrum snaps the box onto the real axis; a fully
    clustered spectrum is inflated to [1.5 nu, 0.5 nu] around the common
    value nu so the optimizer has room to move.
    """
    e = np.asarray(eigenvalues, dtype=np.complex128)
    if e.size == 0:
        raise ValueError("no eigenvalues")
    nu_m = float(e.real.min())
    nu_p = float(e.real.max())
    if nu_p >= 0.0:  # producers stabilize; keep the box in the left half plane
        nu_p = -1e-12 * max(1.0, abs(nu_m))
        nu_m = min(nu_m, nu_p)
    scale = float(np.abs(e).max())
    xi_p = float(np.abs(e.imag).max())
    if xi_p <= 1e-10 * scale:
        xi_p = 0.0
    if (nu_p - nu_m) <= 1e-8 * abs(nu_m):
        nu = 0.5 * (nu_m + nu_p)
        nu_m, nu_p = 1.5 * nu, 0.5 * nu
    return Bounds(nu_m, nu_p, xi_p)


@dataclass
class CompressedObjective:
    """Compressed model of the iteration; the input of every shift picker.

    ``H`` is upper triangular (complex Schur form, unstable eigenvalues
    already negated), ``Wtil`` the compressed residual factor in the same
    coordinates, ``weight`` an optional left factor entering every norm
    evaluation as ||weight @ f(H) @ Wtil|| (present in the generalized
    case: any left factor, not necessarily triangular, with
    weight^* weight = U^* K^* K U for the Schur rotation U and the weight
    base K, see _compress), ``g`` the number of steps the candidate shift
    will be used for and ``bounds`` the search box.

    The remaining fields describe where the model came from: ``Q`` is the
    orthonormal basis it was restricted to, ``source`` names the
    compression ("seed", "Z(h)", "EK(p,m)"), ``n_stabilized`` counts the
    negated unstable Ritz values, ``used_fallback`` marks a window
    restriction formed explicitly because its QR factor was
    ill-conditioned, and ``window_start`` is the first logical step of
    the window.
    """

    H: object
    Wtil: object
    weight: object = None
    g: int = 1
    bounds: object = None
    Q: object = None
    source: str = ""
    n_stabilized: int = 0
    used_fallback: bool = False
    window_start: int = 0

    @property
    def size(self):
        return self.H.shape[0]

    @property
    def eigenvalues(self):
        return np.diag(self.H).copy()

    @cached_property
    def _shift_base(self):
        """(row-major complex128 copy of H, its diagonal, max(|diag H|, 1)),
        computed once for the many _shift_matrix calls of one optimization."""
        H = np.array(self.H, dtype=np.complex128, order="C")
        d = np.diag(H).copy()
        return H, d, max(np.abs(d).max(), 1.0)


def schur_stabilize(H):
    """Complex Schur form with unstable diagonal entries negated.

    Returns (T, U, n_flipped): H ~ U T U^* before flipping; eigenvalues
    with nonnegative real part are replaced by their negatives on the
    diagonal of T.
    """
    T, U = spla.schur(np.asarray(H, dtype=np.complex128), output="complex")
    d = np.diag(T)
    bad = d.real >= 0.0
    n_flip = int(bad.sum())
    if n_flip:
        idx = np.where(bad)[0]
        T[idx, idx] = -d[idx]
    return T, U, n_flip


def _compress(H, Wt_raw, weight_r, **fields):
    """CompressedObjective from a restriction H and residual factor Wt_raw.

    Rotates both into the stabilized Schur basis of H. ``weight_r`` is the
    triangular factor R_K of a QR of the weight base K (N = Q^*MQ for the
    window, MQ for the seed and EK spaces; None without a mass matrix).
    Only weight^* weight = U^* K^* K U enters the norms, so the weight is
    any left factor with that Gram matrix: R_K U, with the (real) QR taken
    before the (complex) rotation U.
    """
    T, U, n_flip = schur_stabilize(H)
    weight = None if weight_r is None else weight_r @ U
    return CompressedObjective(
        H=T, Wtil=U.conj().T @ Wt_raw, weight=weight,
        bounds=derive_bounds(np.diag(T)), n_stabilized=n_flip, **fields,
    )


def seed_compressed(seed):
    """Compressed objective at iteration zero, straight from the seed."""
    return _compress(seed.H, seed.Q.conj().T @ seed.B_m, seed.MQ_R, Q=seed.Q,
                     source="seed")


def ritz_update(state, h):
    """Restrict onto the span of the last h logical steps' Z columns.

    The window is widened by one step when it would split a conjugate
    pair. The restriction H = Q^* A Q comes structurally from the factored
    ADI relation (no products with A); if the window's triangular QR
    factor is numerically singular (condition >= 1e8), it falls back to an
    explicit product. The generalized case is the standard one applied to
    the compressed residual N^{-1} Q^*W, N = Q^*MQ, which gives N^{-1} Q^*AQ;
    the QR factor of N times the Schur rotation is the left weight.

    Returns a CompressedObjective. Requires state.j >= 1.
    """
    problem = state.problem
    s, j = problem.s, state.j
    if j < 1:
        raise ValueError("ritz_update needs at least one completed step")
    start = max(0, j - h)
    if start > 0 and state.shifts[start].imag < 0:
        start -= 1  # never split a conjugate pair
    Zw = state.Z[:, start * s :]
    Q, R = np.linalg.qr(Zw)
    used_fallback = bool(not np.all(np.isfinite(R)) or np.linalg.cond(R) >= 1e8)
    QW = Q.conj().T @ state.W
    N = None
    if problem.M is not None:
        N = Q.conj().T @ (problem.M @ Q)
        QW = np.linalg.solve(N, QW)
    if used_fallback:
        logger.warning("window QR factor ill-conditioned; used explicit restriction")
        Ht = Q.conj().T @ (problem.A @ Q)
        if N is not None:
            Ht = np.linalg.solve(N, Ht)
    else:
        S_r, G_r = real_SG(state.shifts[start:], s)
        St = S_r - G_r @ G_r.T
        core = R @ St + QW @ G_r.T
        # N^{-1} Q^*AQ: core right-divided by the triangular R
        Ht = spla.solve_triangular(R, core.T, trans="T").T
    N_r = None if N is None else np.linalg.qr(N, mode="r")
    return _compress(Ht, QW, N_r, Q=Q, source=f"Z({h})",
                     used_fallback=used_fallback, window_start=start)


def compress_zh(state, h):
    """Window compression: the restriction onto the last h steps.

    AdaptiveStrategy's entry to the Z window; the work is ritz_update's.
    Requires at least one completed step.
    """
    return ritz_update(state, h)


def history_krylov_basis(S, g, p, m):
    """Extended Krylov basis of the single-column structured factors.

    Takes ``(S, g) = real_SG(shifts, 1)``, g a j x 1 column, and returns
    the orthonormal basis q of EK_{p,m}(S, g). ``real_SG(shifts, s)`` is
    ``(kron(S, I_s), kron(g, I_s))``, so ``kron(q, I_s)`` spans
    EK_{p,m}(S_r, G_r): the basis is built on j x j data (one j x j LU)
    for any number of columns s.
    """
    lu = spla.lu_factor(S)
    q, _, _ = extended_krylov_basis(
        lambda X: S @ X, lambda X: spla.lu_solve(lu, X), g, p, m
    )
    return q


def recycle_krylov(seed, state):
    """Compressed objective from the recycled extended Krylov space.

    The extended Krylov space of (A, W_j) is contained in the seed space
    plus the range of the accumulated factor Z_j, so the updated basis
    needs no new solves with A: candidate directions come from Z_j times a
    small extended Krylov basis of the structured factors (S_r, G_r) of
    the iteration, their A-images follow from the factored relation
    A Z = Z S_r + B G_r^T, and one block orthogonalization extends the
    seed.

    Z is read once. The small basis is kron(q, I_s) with q from
    history_krylov_basis (the identity for a history of at most p + m
    steps), so Z kron([q, S q], I_s) is one product of Z's column-major
    (n s) x j view, reshaped to n x 2 s w without a copy. The restriction
    H = Qj^* (M^{-1}) A Qj is assembled from k x k projections: the seed
    columns from the seed images P, the new ones from Qj^* times the
    images of the candidate block and one k x k triangular solve by the
    rows of R that block_orth added, at the block columns it kept. The
    weight factor of M Qj comes from its Gram matrix (_extend_qr_r), so
    the weighted norms carry a relative error of order eps cond(M)^2.

    Returns a CompressedObjective over the extended basis (the seed's at j = 0).
    """
    n, s = state.problem.n, state.problem.s
    j = state.j
    S, g = real_SG(state.shifts, 1)
    if j <= seed.p + seed.m:
        q = np.eye(j)  # short history: extend by all of Z
    else:
        q = history_krylov_basis(S, g, seed.p, seed.m)
    w = q.shape[1] * s
    # Z kron([q, S q], I_s), computed transposed so that it comes out
    # column-major and reshapes to n x 2w as a view
    Zv = state.Z.reshape(n * s, j, order="F")
    ZX = (np.hstack([q, S @ q]).T @ Zv.T).T.reshape(n, 2 * w, order="F")
    omega, ZSq = ZX[:, :w], ZX[:, w:]

    k0 = seed.Q.shape[1]
    Qj, R, kept = block_orth(seed.Q_cols, omega)
    QjH = Qj.conj().T
    H = np.vstack([seed.H, QjH[k0:] @ seed.P])  # Qj^* P for the seed columns
    if kept.size:
        # Qj^* of the images Phat = Z kron(S q, I_s) + B_m kron(g^T q, I_s)
        QPhat = QjH @ ZSq + np.kron(g.T @ q, QjH @ seed.B_m)
        # omega[:, kept] = Q0 R[:k0, kept] + Qnew T_tri, so Qj^* A Qnew is
        # (Qj^* Phat[:, kept] - (Qj^* P) R[:k0, kept]) right-divided by T_tri
        T_tri = R[k0:, kept]
        rhs = QPhat[:, kept] - H @ R[:k0, kept]
        trsm = spla.get_blas_funcs("trsm", (T_tri, rhs))
        H = np.hstack([H, trsm(1.0, T_tri, rhs, side=1)])
    MQ_r = None
    if state.problem.M is not None:
        MQ_r = _extend_qr_r(seed.MQ_Q, seed.MQ_R, state.problem.M @ Qj[:, k0:])
    return _compress(H, QjH @ state.W_m, MQ_r, Q=Qj,
                     source=f"EK({seed.p},{seed.m})")


def _extend_qr_r(Q0, R0, X):
    """R factor of [Q0 R0, X] given the thin QR factors (Q0, R0) of the first block.

    With C = Q0^* X, the new diagonal block R22 is the Cholesky factor of
    the Gram complement X^* X - C^* C: two products with X and a w x w
    Cholesky factorization; the first block itself is never formed. The
    result has the Gram matrix of [Q0 R0, X] up to eps ||X||^2; when rounding
    leaves the complement not numerically positive definite (nearly
    dependent columns), the Cholesky factorization is shifted as in
    shifted CholeskyQR (Fukaya et al., SIAM J. Sci. Comput. 42, 2020).
    """
    w = X.shape[1]
    if w == 0:
        return R0
    C = Q0.conj().T @ X
    XX = X.conj().T @ X
    G = XX - C.conj().T @ C
    if not np.all(np.isfinite(G)):
        raise np.linalg.LinAlgError("weight Gram matrix is not finite")
    potrf = spla.get_lapack_funcs("potrf", (G,))
    R22, info = potrf(G, lower=0, clean=1)
    # Fukaya et al.'s shift 11 (n w + w (w + 1)) eps ||X||^2, grown until it takes
    eps = np.finfo(np.float64).eps
    shift = 11.0 * (X.size + w * (w + 1)) * eps * max(np.trace(XX).real, 1e-300)
    while info:
        R22, info = potrf(G + shift * np.eye(w), lower=0, clean=1)
        shift *= 10.0
    return np.block([[R0, C], [np.zeros((w, R0.shape[1])), R22]])


# ---------------------------------------------------------------------------
# objective, derivatives
# ---------------------------------------------------------------------------

_trtrs = spla.get_lapack_funcs("trtrs", dtype=np.complex128)


def _solve_L(L, X):
    """L^{-1} X for the row-major upper triangular L of _shift_matrix.

    Calls LAPACK directly: L.T is the column-major lower factor, solved
    transposed (what solve_triangular does for a row-major L, minus its
    per-call validation).
    """
    x, info = _trtrs(L.T, X, lower=1, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"trtrs failed with info {info}")
    return x


# H + alpha I is singular where min |diag| <= this * max(|diag H|, 1, |alpha|)
_SINGULAR_RTOL = 1e-14


def _shift_matrix(co, alpha):
    """H + alpha I as a row-major complex copy; None when numerically singular."""
    H, d, scale = co._shift_base
    d = d + alpha
    if np.abs(d).min() <= _SINGULAR_RTOL * max(scale, abs(alpha)):
        return None
    L = H.copy()
    L.ravel()[:: H.shape[0] + 1] = d
    return L


def eval_objective(co, nu, xi=0.0):
    """psi(nu, xi) = ||T C(H, nu + i xi)^g Wt||_2^2.

    Returns +inf when H + alpha I is numerically singular (the candidate
    hits a compressed eigenvalue). nu -> 0 gives ||T Wt||^2: no progress.
    The solve never calls it (the polish reports psi from the Psi it
    accepted); it is the objective's pointwise reference.
    """
    try:
        Psi = _psi_derivatives(co, nu, xi, 0)[0]
    except ShiftObjectiveError:
        return np.inf
    return spectral_norm_small(Psi)


def grid_objective(co, nus, xis):
    """eval_objective at every point of the grid nus x xis (nu-major order).

    The sums of _psi_derivatives' Psi, batched: one back substitution with
    H + alpha I runs row by row over all grid shifts at once (k NumPy
    steps per step of the group instead of one LAPACK call per point),
    and the singular points give +inf by _shift_matrix's test.
    """
    H, d, scale = co._shift_base
    k, s = co.Wtil.shape
    alpha = np.empty((len(nus), len(xis)), dtype=np.complex128)
    alpha.real = np.asarray(nus)[:, None]
    alpha.imag = np.asarray(xis)[None, :]
    alpha = alpha.ravel()
    vals = np.full(alpha.size, np.inf)
    D = d[:, None] + alpha
    ok = np.abs(D).min(axis=0) > _SINGULAR_RTOL * np.maximum(scale, np.abs(alpha))
    # one column per (grid point, residual column), grid point major
    D = np.repeat(D[:, ok], s, axis=1)
    two_nu = np.repeat(2.0 * alpha[ok].real, s)
    X = np.tile(co.Wtil.astype(np.complex128), ok.sum())
    Y = np.empty_like(X)
    for _ in range(co.g):
        for i in range(k - 1, -1, -1):
            Y[i] = (X[i] - H[i, i + 1 :] @ Y[i + 1 :]) / D[i]
        X = X - two_nu * Y
    if co.weight is not None:
        X = co.weight @ X
    if s == 1:
        vals[ok] = (X.real**2 + X.imag**2).sum(axis=0)
    else:
        X = X.reshape(X.shape[0], -1, s).transpose(1, 0, 2)
        G = X.conj().transpose(0, 2, 1) @ X
        w = np.linalg.eigvalsh(0.5 * (G + G.conj().transpose(0, 2, 1)))
        vals[ok] = np.maximum(w[:, -1], 0.0)
    return vals


def _psi_derivatives(co, nu, xi, order, with_xi=True):
    """Psi = T C^g Wt and its partial derivatives in (nu, xi), weighted.

    The one pointwise evaluator of Psi (grid_objective batches its own).
    Returns [Psi] with order 0, [Psi, Psi_nu, Psi_xi] with order 1, and
    with order 2 also [Psi_nunu, Psi_nuxi, Psi_xixi]; without ``with_xi``
    no derivative in xi is formed (Psi_xi, Psi_nuxi and Psi_xixi are
    None). S_k = (H + alpha I)^{-k} Wt is solved once each: Psi is
    C^{g-1} (Wt - 2 nu S_1) from the S_1 the derivatives read, and S_4
    only when a g >= 2 second derivative reads it. Raises
    ShiftObjectiveError at singular points.
    """
    alpha = complex(nu, xi)
    L = _shift_matrix(co, alpha)
    if L is None:
        raise ShiftObjectiveError(f"H + alpha I singular at alpha = {alpha}")
    g = co.g
    S = [co.Wtil.astype(np.complex128, copy=False)]
    for _ in range((1, 2, 3 + (g >= 2))[order]):  # S[k] = (H + alpha I)^{-k} Wt
        S.append(_solve_L(L, S[-1]))

    def C_pow(X, times):
        for _ in range(times):
            X = X - 2.0 * nu * _solve_L(L, X)
        return X

    out = [C_pow(S[0] - 2.0 * nu * S[1], g - 1)]
    if order >= 1:
        out += [-2.0 * g * C_pow(S[1] - nu * S[2], g - 1),
                2.0j * nu * g * C_pow(S[2], g - 1) if with_xi else None]
    if order >= 2:
        gg = 4.0 * g * (g - 1)
        Psi_nunu = 4.0 * g * C_pow(S[2] - nu * S[3], g - 1)
        if g >= 2:
            Psi_nunu = Psi_nunu + gg * C_pow(S[2] - 2.0 * nu * S[3] + nu * nu * S[4], g - 2)
        Psi_nuxi = Psi_xixi = None
        if with_xi:
            Psi_nuxi = 2.0j * g * C_pow(S[2] - 2.0 * nu * S[3], g - 1)
            Psi_xixi = 4.0 * nu * g * C_pow(S[3], g - 1)
            if g >= 2:
                Psi_nuxi = Psi_nuxi - 1.0j * nu * gg * C_pow(S[3] - nu * S[4], g - 2)
                Psi_xixi = Psi_xixi - nu * nu * gg * C_pow(S[4], g - 2)
        out += [Psi_nunu, Psi_nuxi, Psi_xixi]
    if co.weight is not None:
        out = [None if X is None else co.weight @ X for X in out]
    return out


def _check_gap(theta, how):
    top = max(theta[0], 1e-300)
    if theta.size > 1:
        if how == "top" and (theta[0] - theta[1]) <= 1e-10 * top:
            raise ShiftObjectiveError(
                "dominant Gram eigenvalue is not simple; objective not "
                "differentiable here"
            )
        if how == "all" and np.min(theta[:-1] - theta[1:]) <= 1e-10 * top:
            raise ShiftObjectiveError(
                "Gram eigenvalues coalesce; second derivatives unavailable"
            )


def eval_derivatives(co, nu, xi=0.0, order=2):
    """Objective value, gradient and (with order 2) Hessian at (nu, xi).

    psi is the largest eigenvalue theta_1 of the Gram matrix Psi^* Psi
    with Psi = T C^g Wt; its derivatives follow from the eigenvector u1
    and, for the Hessian, the perturbation sum over the other eigenpairs.
    Returns (value, [d psi/d nu, d psi/d xi], 2 x 2 Hessian), the Hessian
    None with order 1. The gradient requires a simple dominant Gram
    eigenvalue, the Hessian all Gram eigenvalues (relatively) distinct;
    raises ShiftObjectiveError otherwise and at singular points.
    """
    out = _psi_derivatives(co, nu, xi, order)
    P, first = out[0], out[1:3]
    G = P.conj().T @ P
    theta, U = np.linalg.eigh(0.5 * (G + G.conj().T))
    theta, U = theta[::-1], U[:, ::-1]  # descending
    _check_gap(theta, "top")
    u1 = U[:, 0]
    grad = np.array([2.0 * np.real(u1.conj() @ (P.conj().T @ (F @ u1))) for F in first])
    if order < 2:
        return float(theta[0]), grad, None
    _check_gap(theta, "all")
    Pnn, Pnx, Pxx = out[3:]
    second = [[Pnn, Pnx], [Pnx, Pxx]]
    A = [F.conj().T @ P + P.conj().T @ F for F in first]

    def entry(x, y):
        h = 2.0 * np.real(
            u1.conj() @ ((first[x].conj().T @ (first[y] @ u1))
                         + P.conj().T @ (second[x][y] @ u1))
        )
        for k in range(1, theta.size):
            uk = U[:, k]
            h += 2.0 * np.real(
                (u1.conj() @ (A[x] @ uk)) * (uk.conj() @ (A[y] @ u1))
            ) / (theta[0] - theta[k])
        return h

    hess = np.array([[entry(0, 0), entry(0, 1)], [entry(0, 1), entry(1, 1)]])
    return float(theta[0]), grad, hess


def nls_residual_jacobian(co, nu, xi=0.0, exact=False):
    """The polish's normal equations at (nu, xi): its whole input at one point.

    The polish treats Psi = T C^g Wt as the real residual
    r = sqrt(2) [Re vec Psi; Im vec Psi], so that 0.5 ||r||^2 is the
    Frobenius surrogate ||Psi||_F^2 (the objective for a single column).
    The columns of its Jacobian J stack Psi_nu and Psi_xi like r stacks
    Psi, so J^T r and J^T J are 2 Re vdot of two blocks, formed without r
    or J. Returns (||Psi||_F^2, J^T r, J^T J, Psi). On a real-axis box
    (``co.bounds.real_axis``) only the nu column is kept (1 x 1 equations)
    and no derivative in xi is formed. ``exact`` adds the residual's own
    curvature 2 Re <Psi, Psi_ab> to J^T J, which gives the exact Hessian
    of ||Psi||_F^2 from the second derivatives of Psi.
    """
    real_axis = co.bounds.real_axis
    out = _psi_derivatives(co, nu, xi, 2 if exact else 1, with_xi=not real_axis)
    Psi = out[0]
    cols = out[1:2] if real_axis else out[1:3]
    JJ = np.array([[2.0 * np.vdot(a, c).real for c in cols] for a in cols])
    if exact:
        second = [[out[3], out[4]], [out[4], out[5]]]
        JJ += np.array([[2.0 * np.vdot(Psi, second[i][j]).real
                         for j in range(len(cols))] for i in range(len(cols))])
    return (float(np.vdot(Psi, Psi).real),
            np.array([2.0 * np.vdot(a, Psi).real for a in cols]), JJ, Psi)


# ---------------------------------------------------------------------------
# the polish
# ---------------------------------------------------------------------------

def _box_clip(x, b):
    """(nu, xi) moved into the box as Python floats; xi = +0.0 on a real box."""
    return (float(min(max(x[0], b.nu_minus), b.nu_plus)),
            0.0 if b.real_axis else float(min(max(x[1], 0.0), b.xi_plus)))


def _levenberg_step(g, JJ, lam, free):
    """Solve (JJ + lam I) d = -g over the free variables, in closed form.

    JJ is the model's curvature, J^T J or the exact Hessian. Fixed
    variables get a zero step. Returns the (nu, xi) step, or None
    when the 1 x 1 or 2 x 2 system is not numerically positive definite.
    """
    d = np.zeros(2)
    if all(free) and g.size == 2:
        a, c, off = JJ[0, 0] + lam, JJ[1, 1] + lam, JJ[0, 1]
        det = a * c - off * off
        if not det > 0.0:
            return None
        d[0] = (off * g[1] - c * g[0]) / det
        d[1] = (off * g[0] - a * g[1]) / det
        return d
    i = free.index(True)
    den = JJ[i, i] + lam
    if not den > 0.0:
        return None
    d[i] = -g[i] / den
    return d


# polish stops that count as converged: a stationary point of the box
# (projected gradient) or a vanishing step
_CONVERGED = ("gradient", "step")


def _polish_gauss_newton(co, x, exact=False):
    """Levenberg-Marquardt on the stacked residual, inside the model's box.

    Each step is modelled on, and accepted by, one objective: the
    Frobenius surrogate ||Psi||_F^2 = 0.5 ||r||^2 (the spectral objective
    itself for a single column). The model's curvature is J^T J, or with
    ``exact`` the surrogate's exact Hessian (see nls_residual_jacobian);
    where that is not positive definite, the damping grows until it is.
    Every point is evaluated once: the nls_residual_jacobian call that
    accepts a trial point also gives the next step's normal equations
    and the Psi of the reported value. Stationarity is tested on the
    projected gradient and the step is taken over the free variables
    only, so a minimum on the box's edge converges like an interior one.
    Returns (x, psi(x), iterations, stop), psi the spectral objective
    ||Psi||_2^2 (+inf at a singular start), with stop one of "gradient",
    "step" (converged), "rejected" (no decrease found), "singular"
    (H + alpha I singular at the start) or "max_iterations".
    """
    b = co.bounds
    try:
        fx, g, JJ, Psi = nls_residual_jacobian(co, x[0], x[1], exact)
    except ShiftObjectiveError:
        return x, np.inf, 1, "singular"
    lam = 1e-3
    diam = max(float(np.hypot(b.nu_plus - b.nu_minus, b.xi_plus)), 1e-300)
    stop = "max_iterations"
    it = 0
    for it in range(100):
        # a variable on a bound is held while its gradient points out of
        # the box (descent would leave it)
        nu, xi = x
        free = [not (nu <= b.nu_minus and g[0] > 0.0 or nu >= b.nu_plus and g[0] < 0.0)]
        if g.size == 2:
            free.append(not (xi <= 0.0 and g[1] > 0.0 or xi >= b.xi_plus and g[1] < 0.0))
        if max((abs(gi) for gi, f in zip(g, free) if f), default=0.0) <= 1e-8 * (1.0 + abs(fx)):
            stop = "gradient"
            break
        step = tried = None
        for _ in range(30):
            d = _levenberg_step(g, JJ, lam, free)
            if d is None:
                lam = max(lam, 1e-8) * 10.0
                continue
            xn = _box_clip((nu + d[0], xi + d[1]), b)
            # a trial clipped onto the point just refused is refused again
            if xn != tried:
                try:
                    trial = nls_residual_jacobian(co, xn[0], xn[1], exact)
                except ShiftObjectiveError:
                    trial = (np.inf,)  # a singular trial is no decrease
                tried = xn
            if trial[0] < fx:
                step = np.subtract(xn, x)
                x, (fx, g, JJ, Psi) = xn, trial
                lam = max(lam / 3.0, 1e-14)
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if step is None:
            stop = "rejected"
            break
        if np.linalg.norm(step) <= 1e-10 * diam:
            stop = "step"
            break
    return x, spectral_norm_small(Psi), it + 1, stop


# optimizer names and their short aliases, each mapped to its canonical name
OPTIMIZERS = {
    "gauss-newton": "gauss-newton",
    "gn": "gauss-newton",
    "newton-trust": "newton-trust",
    "nt": "newton-trust",
}


def optimize_shift(co, x0=None, method="gauss-newton"):
    """Minimize the compressed objective over its spectral box.

    A deterministic coarse grid presearch (24 x 12 points, 48 on the real
    axis, evaluated in one batch by grid_objective) seeds the polish
    from the three best grid points; a provided initial guess is always
    polished too and wins ties. The grid and the choice among the
    polished starts use the spectral objective psi = ||Psi||_2^2; the
    polish steps on the Frobenius surrogate ||Psi||_F^2 (the same for a
    single column) and reports psi at its end point. Returns (alpha,
    info) with alpha = nu + i xi the best point found and info carrying
    the final value, the chosen start's iteration count, ``converged``
    and stop reason (``stop``), every start's stop reason in start
    order (``stops``; see _polish_gauss_newton for the reasons), and the
    costs (engine.costed) of the grid presearch, ``grid_s``,
    ``grid_cpu_s`` and ``grid_minflt``, and of the polish runs, the same
    under ``polish``.

    Parameters
    ----------
    co
        CompressedObjective with bounds attached.
    x0
        Optional initial guess, a real or complex number (its imaginary
        part enters with its absolute value).
    method
        The polish's curvature: "gauss-newton" (J^T J) or "newton-trust"
        (the exact Hessian of ||Psi||_F^2, from the second derivatives of
        Psi), or an alias from OPTIMIZERS. Both run the same Levenberg
        iteration.
    """
    if method not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {method!r}")
    b = co.bounds
    exact = OPTIMIZERS[method] == "newton-trust"

    costs = {}
    nus = np.linspace(b.nu_minus, b.nu_plus, 48 if b.real_axis else 24)
    xis = np.array([0.0]) if b.real_axis else np.linspace(0.0, b.xi_plus, 12)
    vals = costed(costs, "grid", grid_objective, co, nus, xis)
    order = np.argsort(vals, kind="stable")[:3]

    starts = []
    if x0 is not None:
        z = complex(x0)
        starts.append(_box_clip((z.real, abs(z.imag)), b))
    starts.extend(_box_clip((nus[i // xis.size], xis[i % xis.size]), b)
                  for i in order if np.isfinite(vals[i]))
    if not starts:
        starts = [(0.5 * (b.nu_minus + b.nu_plus), 0.0)]

    # (x, psi, iterations, stop) per start; the first minimum wins
    runs = costed(costs, "polish", lambda: [_polish_gauss_newton(co, st, exact)
                                            for st in starts])
    which = min(range(len(runs)), key=lambda k: runs[k][1])
    x, fx, iterations, stop = runs[which]
    info = {
        "value": fx,
        "converged": stop in _CONVERGED,
        "stop": stop,
        "stops": [run[3] for run in runs],
        "n_starts": len(starts),
        "chosen_start": which,
        "from_guess": x0 is not None and which == 0,
        "grid_best": float(vals[order[0]]) if order.size else np.inf,
        "iterations": iterations,
        **costs,
    }
    # _box_clip puts every point of a real-axis box at xi = +0.0
    return complex(x[0], x[1]), info


# ---------------------------------------------------------------------------
# shift pickers on a compressed model
# ---------------------------------------------------------------------------

def hamiltonian_residual_shift(H, Wtil):
    """Shift from the eigenstructure of the projected residual Hamiltonian.

    Builds the 2l x 2l matrix [[H^*, 0], [Wtil Wtil^*, -H]] and returns,
    among its stable eigenvalues, the one whose unit-norm eigenvector has
    the largest lower half — the direction along which the current
    residual couples most strongly. Without any stable eigenvalue the
    Ritz value with the most negative real part is returned instead.
    Output normalized to Im >= 0.
    """
    H = np.asarray(H, dtype=np.complex128)
    Wtil = np.atleast_2d(np.asarray(Wtil, dtype=np.complex128))
    l = H.shape[0]
    Ham = np.zeros((2 * l, 2 * l), dtype=np.complex128)
    Ham[:l, :l] = H.conj().T
    Ham[l:, :l] = Wtil @ Wtil.conj().T
    Ham[l:, l:] = -H
    w, V = np.linalg.eig(Ham)
    stable = np.where(w.real < 0.0)[0]
    if stable.size == 0:
        logger.warning("projected Hamiltonian has no stable eigenvalue; "
                       "falling back to the most negative Ritz value")
        eigs = np.linalg.eigvals(H)
        z = complex(eigs[int(np.argmin(eigs.real))])
    else:
        qnorm = np.linalg.norm(V[l:, stable], axis=0)
        z = complex(w[stable[int(np.argmax(qnorm))]])
    return z.conjugate() if z.imag < 0 else z
