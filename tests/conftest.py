"""Shared test fixtures and independent reference implementations.

The helpers here deliberately avoid the package's own building blocks:
residuals are formed densely from the definition, the reference ADI runs
in complex arithmetic with no realification or factor bookkeeping, and
the extended Krylov oracle builds explicit power/inverse-power blocks.
They exist so the package code is checked against something it shares no
code with. ``matrix_market_write`` writes the files that the package's
Matrix Market reader is tested on.

BLAS is pinned to one thread before NumPy is first imported: the package's
small dense kernels oversubscribe the cores with threaded BLAS, and one
test took 90 s instead of 0.1 s while another process held a core.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy.linalg as spla  # noqa: E402
import scipy.sparse as sp  # noqa: E402


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
