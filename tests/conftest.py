"""Shared test oracles and input builders; test modules import them from here.

Oracles share no code with the package. Residuals are formed densely from
the definition, the reference ADI runs in complex arithmetic with no
realification or factor bookkeeping, the extended Krylov oracle builds
explicit power/inverse-power blocks, and the spectral grid oracle
evaluates the compressed objective from an eigendecomposition instead of
the package's triangular solves:

    dense_lyap_residual, factored_residual_gap, reference_complex_adi,
    explicit_extended_krylov, max_principal_angle, dense_lyap_solve,
    spectral_grid_minimum

Finite differences check the package's derivative code against its own
objective, so they call ``eval_objective``: fd_gradient, fd_hessian.

Builders make inputs and may use the package to do so: random matrices
(random_stable, random_spd), the 1-D FEM pencil (fem_pair), random
compressed objectives and points in their boxes (make_objective,
sample_point), an engine state stepped through a given shift list
(run_shifts), and the Matrix Market files the package's reader is
tested on (matrix_market_write). The one fixture, ``recorded_lu``,
records every SuperLU object that ``linalg.splu`` builds.

BLAS is pinned to one thread before NumPy is first imported: the package's
small dense kernels oversubscribe the cores with threaded BLAS, and one
test took 90 s instead of 0.1 s while another process held a core.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.linalg as spla  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.sparse.linalg import splu  # noqa: E402

from lradi import linalg  # noqa: E402
from lradi.engine import (  # noqa: E402
    AdiState,
    LyapunovProblem,
    adi_double_step,
    adi_real_step,
)
from lradi.linalg import sparse_shifted_factorize  # noqa: E402
from lradi.resmin import CompressedObjective, derive_bounds, eval_objective  # noqa: E402


class RecordedLU:
    """A SuperLU object as ``linalg.splu`` built it: ``kwargs`` holds the
    keyword arguments of that call, and ``solves`` the right-hand side and
    the result's dtype of each solve, in order. It exposes ``perm_r``,
    ``perm_c``, ``nnz`` and ``solve``; reading ``L``, ``U`` or any other
    attribute fails."""

    def __init__(self, lu, kwargs):
        self._lu, self.kwargs, self.solves = lu, kwargs, []
        self.perm_r, self.perm_c, self.nnz = lu.perm_r, lu.perm_c, lu.nnz

    def solve(self, rhs, trans="N"):
        x = self._lu.solve(rhs, trans)
        self.solves.append((np.array(rhs), x.dtype))
        return x

    def __getattr__(self, name):  # the L and U factors among them
        raise AssertionError(f"the SuperLU attribute {name} was read")


@pytest.fixture
def recorded_lu(monkeypatch):
    """Every SuperLU object linalg.splu returns, in call order, as a RecordedLU."""
    made = []

    def recording(*args, **kwargs):
        made.append(RecordedLU(splu(*args, **kwargs), kwargs))
        return made[-1]

    monkeypatch.setattr(linalg, "splu", recording)
    return made


def random_stable(n, rng, spread=1.0):
    """Dense random stable matrix with a mix of real and complex modes."""
    A = rng.standard_normal((n, n)) * spread
    lam = np.linalg.eigvals(A)
    # push the spectrum strictly into the left half plane
    A -= (lam.real.max() + 0.05 * n + 1.0) * np.eye(n)
    return A


def random_spd(n, rng):
    F = rng.standard_normal((n, n))
    return F @ F.T + n * np.eye(n)


def fem_pair(n):
    """(A, M) = (-K, M): the stiffness K and SPD mass M of linear finite
    elements on n interior nodes of [0, 1], both tridiagonal CSR."""
    h = 1.0 / (n + 1)
    K = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csr") / h
    M = sp.diags([np.ones(n - 1), 4 * np.ones(n), np.ones(n - 1)],
                 [-1, 0, 1], format="csr") * (h / 6.0)
    return -K, M


def make_objective(rng, k=6, s=1, g=1, weighted=False, real_spectrum=False):
    """Random compressed objective with a stable Schur-form H."""
    H = random_stable(k, rng)
    if real_spectrum:
        H = np.diag(-rng.random(k) * 5 - 0.5)
    T, _ = spla.schur(H.astype(np.complex128), output="complex")
    Wt = rng.standard_normal((k, s)) + 1j * rng.standard_normal((k, s))
    weight = None
    if weighted:
        weight = np.triu(rng.standard_normal((k, k))) + k * np.eye(k)
    return CompressedObjective(H=T, Wtil=Wt, weight=weight, g=g,
                               bounds=derive_bounds(np.diag(T)))


def sample_point(co, rng):
    """A random (nu, xi) in co's box, xi away from the real axis."""
    b = co.bounds
    nu = rng.uniform(b.nu_minus, b.nu_plus)
    xi = rng.uniform(0.1 * max(b.xi_plus, 1e-3), max(b.xi_plus, 1e-3))
    return nu, xi


def run_shifts(A, B, shifts, M=None, tol=0.0, max_iterations=500):
    """Step the engine through an explicit shift list; returns the state."""
    problem = LyapunovProblem(A, B, M=M, tol=tol, max_iterations=max_iterations)
    state = AdiState(problem)
    for alpha in shifts:
        fact = sparse_shifted_factorize(problem.pencil, alpha)
        if np.imag(alpha) == 0:
            adi_real_step(state, fact)
        else:
            adi_double_step(state, fact)
    return state


def dense_lyap_residual(A, Z, B, M=None):
    """|| A X M* + M X A* + B B* ||_2 / || B B* ||_2 with X = Z Z*."""
    A = np.asarray(A.toarray() if sp.issparse(A) else A)
    M = np.eye(A.shape[0]) if M is None else np.asarray(
        M.toarray() if sp.issparse(M) else M)
    X = Z @ Z.conj().T
    R = A @ X @ M.conj().T + M @ X @ A.conj().T + B @ B.conj().T
    return np.linalg.norm(R, 2) / np.linalg.norm(B @ B.conj().T, 2)


def factored_residual_gap(A, Z, W, B, M=None):
    """|| A X M* + M X A* + B B* - W W* ||_2 (the factored-residual identity)."""
    A = np.asarray(A.toarray() if sp.issparse(A) else A)
    M = np.eye(A.shape[0]) if M is None else np.asarray(
        M.toarray() if sp.issparse(M) else M)
    X = Z @ Z.conj().T
    R = A @ X @ M.conj().T + M @ X @ A.conj().T + B @ B.conj().T - W @ W.conj().T
    return np.linalg.norm(R, 2)


def reference_complex_adi(A, B, shifts, M=None):
    """Plain complex-arithmetic low-rank ADI; returns (Z, W).

    One column block per shift, no pair handling: the caller passes the
    full (conjugate-closed) shift sequence. W is the true residual
    factor, updated as W <- W - 2 Re(alpha) M V.
    """
    A = np.asarray(A.toarray() if sp.issparse(A) else A, dtype=complex)
    n = A.shape[0]
    M = np.eye(n) if M is None else np.asarray(
        M.toarray() if sp.issparse(M) else M, dtype=complex)
    W = np.asarray(B, dtype=complex)
    blocks = []
    for alpha in shifts:
        V = np.linalg.solve(A + alpha * M, W)
        W = W - 2.0 * alpha.real * (M @ V)
        blocks.append(np.sqrt(-2.0 * alpha.real) * V)
    Z = np.hstack(blocks) if blocks else np.zeros((n, 0), dtype=complex)
    return Z, W


def explicit_extended_krylov(A, V, p, m, M=None):
    """Orthonormal basis of EK_{p,m}(A, V) from explicit power blocks.

    Builds [V, FV, ..., F^{p-1}V, F^{-1}V, ..., F^{-m}V] with
    F = M^{-1} A (blocks normalized for conditioning) and orthonormalizes
    with one QR. Only usable at small n, which is the point: it is the
    brute-force oracle for the incremental builder.
    """
    A = np.asarray(A.toarray() if sp.issparse(A) else A, dtype=float)
    if M is not None:
        Md = np.asarray(M.toarray() if sp.issparse(M) else M, dtype=float)
        F = np.linalg.solve(Md, A)
    else:
        F = A
    blocks = [V / np.linalg.norm(V, 2)]
    X = V
    for _ in range(p - 1):
        X = F @ X
        blocks.append(X / np.linalg.norm(X, 2))
    X = V
    for _ in range(m):
        X = np.linalg.solve(F, X)
        blocks.append(X / np.linalg.norm(X, 2))
    Q, R = np.linalg.qr(np.hstack(blocks))
    keep = np.abs(np.diag(R)) > 1e-10 * max(1.0, np.abs(np.diag(R)).max())
    return Q[:, keep]


def max_principal_angle(U, V):
    """Largest principal angle (radians) between the ranges of U and V."""
    return max(spla.subspace_angles(np.asarray(U), np.asarray(V)).max(), 0.0)


def dense_lyap_solve(A, B, M=None):
    """Dense reference solution of A X M* + M X A* + B B* = 0."""
    A = np.asarray(A.toarray() if sp.issparse(A) else A, dtype=float)
    B = np.asarray(B, dtype=float)
    if M is not None:
        Md = np.asarray(M.toarray() if sp.issparse(M) else M, dtype=float)
        A = np.linalg.solve(Md, A)
        B = np.linalg.solve(Md, B)
    return spla.solve_continuous_lyapunov(A, -B @ B.T)


def spectral_grid_minimum(co, n=200):
    """min of psi = ||C(H, alpha)^g Wt||_2^2 on an n x n grid over co's box
    (n points on a real-axis box), from H = V diag(lam) V^{-1}:
    C^g Wt = V diag(((lam - conj alpha) / (lam + alpha))^g) V^{-1} Wt.
    Unweighted models only."""
    lam, V = np.linalg.eig(co.H)
    Y = np.linalg.solve(V, co.Wtil)
    b = co.bounds
    xis = [0.0] if b.real_axis else np.linspace(0.0, b.xi_plus, n)
    alpha = (np.linspace(b.nu_minus, b.nu_plus, n)[:, None] + 1j * np.asarray(xis)).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        r = ((lam - np.conj(alpha)[:, None]) / (lam + alpha[:, None])) ** co.g
    Psi = V @ (r[:, :, None] * Y)
    return np.nanmin(np.linalg.norm(Psi, 2, axis=(1, 2)) ** 2)


def fd_gradient(co, nu, xi, h=1e-6):
    """Central differences of eval_objective in nu and xi, step h max(|nu|, 1)."""
    d = max(abs(nu), 1.0) * h
    gn = (eval_objective(co, nu + d, xi) - eval_objective(co, nu - d, xi)) / (2 * d)
    gx = (eval_objective(co, nu, xi + d) - eval_objective(co, nu, xi - d)) / (2 * d)
    return np.array([gn, gx])


def fd_hessian(co, nu, xi, h=1e-4):
    """Second central differences of eval_objective, step h max(|nu|, 1)."""
    d = max(abs(nu), 1.0) * h

    def f(a, b):
        return eval_objective(co, a, b)

    hnn = (f(nu + d, xi) - 2 * f(nu, xi) + f(nu - d, xi)) / d**2
    hxx = (f(nu, xi + d) - 2 * f(nu, xi) + f(nu, xi - d)) / d**2
    hnx = (f(nu + d, xi + d) - f(nu + d, xi - d)
           - f(nu - d, xi + d) + f(nu - d, xi - d)) / (4 * d**2)
    return np.array([[hnn, hnx], [hnx, hxx]])


def matrix_market_write(path, A):
    """Write a sparse matrix as 'matrix coordinate real general'.

    Values are written with repr-roundtrip precision so read-after-write is
    bitwise faithful.
    """
    A = sp.coo_matrix(A)
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{A.shape[0]} {A.shape[1]} {A.nnz}\n")
        for i, j, v in zip(A.row, A.col, A.data):
            fh.write(f"{i + 1} {j + 1} {float(v)!r}\n")
