"""Shared linear algebra kernels.

Sparse shifted factorizations, small dense decompositions, incremental
block orthonormalization and a small Matrix Market reader/writer. All
higher-level modules build on these; nothing here knows about Lyapunov
equations.
"""

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sp
from scipy.sparse.linalg import splu


class SingularShiftError(RuntimeError):
    """Raised when A + alpha*M is (numerically) singular for a proposed shift."""


class MatrixMarketError(ValueError):
    """Raised on malformed Matrix Market input; message carries the line number."""


# ---------------------------------------------------------------------------
# sparse factorizations
# ---------------------------------------------------------------------------

# SuperLU's pairing for matrices with a (nearly) symmetric pattern: order
# A + A^T by minimum degree, and keep the diagonal pivot unless it is below
# this fraction of its column's largest entry.
_DIAG_PIVOT_THRESH = 0.1
# a shifted matrix whose condition-number estimate reaches this is singular
_COND_LIMIT = 1e14


def sparse_lu(K):
    """SuperLU factorization of a sparse square matrix in symmetric mode.

    The column ordering is minimum degree on the pattern of K + K^T
    (``MMD_AT_PLUS_A``), applied symmetrically, and the diagonal entry is
    the pivot unless it is below 0.1 times the largest entry of its
    column, in which case SuperLU pivots off the diagonal. The ADI shifted
    matrices and mass matrices here have symmetric patterns, where this
    gives about half the fill of column ordering with full partial
    pivoting. Returns SciPy's ``SuperLU`` object.
    """
    return splu(
        sp.csc_matrix(K),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=_DIAG_PIVOT_THRESH,
        options=dict(SymmetricMode=True),
    )


class ShiftedFactorization:
    """LU factorization of K = A + alpha*M (M = I when absent).

    Parameters
    ----------
    A
        Sparse square matrix, any scipy.sparse format.
    alpha
        Shift; a complex shift produces a complex factorization.
    M
        Optional mass matrix. None means the identity.

    K is factored by ``sparse_lu``: minimum-degree ordering of K + K^T,
    symmetric mode, diagonal pivot threshold 0.1. Singularity is tested
    without forming the L and U factors: one solve K x = b with a fixed
    +-1 vector b, and SingularShiftError when x is not finite or
    ||K||_inf ||x||_inf >= 1e14 ||b||_inf. That product is a lower bound
    of the condition number kappa_inf(K).

    Solves with multiple right-hand sides are cheap once the factorization
    exists; ``solve`` accepts (n,) or (n, k) arrays.
    """

    def __init__(self, A, alpha, M=None):
        n = A.shape[0]
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        use_complex = bool(np.iscomplexobj(A)) or abs(np.imag(alpha)) > 0
        dtype = np.complex128 if use_complex else np.float64
        if M is None:
            K = A.astype(dtype) + alpha * sp.identity(n, dtype=dtype, format="csc")
        else:
            K = A.astype(dtype) + alpha * M.astype(dtype)
        try:
            self._lu = sparse_lu(K)
        except RuntimeError as exc:  # exactly singular; scipy wording varies
            raise SingularShiftError(
                f"factorization of A + ({alpha})*M failed: {exc}"
            ) from exc
        # splu can succeed on a nearly singular K: bound its condition from
        # below with one solve against a fixed pseudo-random +-1 vector
        b = np.where(np.random.default_rng(0).random(n) < 0.5, -1.0, 1.0)
        x = self._lu.solve(b.astype(dtype))
        with np.errstate(all="ignore"):
            cond = abs(K).sum(axis=1).max() * np.max(np.abs(x), initial=0.0)
        if not cond < _COND_LIMIT:  # also true for nan
            raise SingularShiftError(
                f"A + ({alpha})*M is numerically singular "
                f"(condition number >= {cond:.2e})"
            )
        self.alpha = alpha
        self.n = n
        self.is_complex = use_complex

    def solve(self, rhs):
        """Solve (A + alpha*M) x = rhs for one or several right-hand sides."""
        rhs = np.asarray(rhs)
        if self.is_complex and not np.iscomplexobj(rhs):
            rhs = rhs.astype(np.complex128)
        return self._lu.solve(rhs)


def sparse_shifted_factorize(A, alpha, M=None):
    """Factorize A + alpha*M and return a ShiftedFactorization.

    Raises SingularShiftError when the shifted matrix is numerically
    singular (this is how an unstable input matrix is usually detected).
    """
    return ShiftedFactorization(A, alpha, M=M)


# ---------------------------------------------------------------------------
# small dense decompositions
# ---------------------------------------------------------------------------

def dense_schur(H):
    """Complex Schur decomposition of a small dense matrix.

    Returns (T, Q) with H = Q T Q^*, T upper triangular with the
    eigenvalues on its diagonal and Q unitary.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    try:
        T, Q = spla.schur(H.astype(np.complex128), output="complex")
    except spla.LinAlgError as exc:  # pragma: no cover - rare non-convergence
        raise RuntimeError(f"Schur iteration failed on a {H.shape} block: {exc}") from exc
    return T, Q


def dense_eig_hermitian(G):
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Symmetrizes tiny departures from Hermitian symmetry; anything beyond
    rounding-level asymmetry is an error in the caller.
    """
    G = np.asarray(G)
    scale = max(np.linalg.norm(G, np.inf), 1e-300)
    if np.linalg.norm(G - G.conj().T, np.inf) > 1e-8 * scale:
        raise ValueError("matrix is not Hermitian to working accuracy")
    G = 0.5 * (G + G.conj().T)
    w, U = np.linalg.eigh(G)
    return w[::-1].copy(), U[:, ::-1].copy()


def spectral_norm_small(W):
    """||W||_2^2 = largest eigenvalue of W^* W, for tall-skinny W.

    Works on the small Gram matrix, so the cost is O(n s^2) for an n x s
    input. Returns 0.0 for an empty block.
    """
    W = np.atleast_2d(np.asarray(W))
    if W.shape[1] == 0 or W.shape[0] == 0:
        return 0.0
    if W.shape[1] == 1:  # the 1 x 1 Gram matrix is its own eigenvalue
        return float(np.vdot(W, W).real)
    G = W.conj().T @ W
    G = 0.5 * (G + G.conj().T)
    w = np.linalg.eigvalsh(G)
    return float(max(w[-1], 0.0))


# ---------------------------------------------------------------------------
# block orthonormalization
# ---------------------------------------------------------------------------

def block_orth(basis, block, drop_tol=1e-10):
    """Extend an orthonormal basis by the columns of a new block.

    Two-pass block Gram-Schmidt: the whole block is projected twice against
    ``basis`` (two GEMM passes), then each column in turn is orthogonalized
    twice against the columns accepted before it and normalized. Columns
    whose remainder falls below ``drop_tol`` times the incoming block scale
    are dropped (rank deficiency).

    Parameters
    ----------
    basis
        (n, k0) orthonormal matrix or None for an empty basis.
    block
        (n, w) new columns.
    drop_tol
        Relative drop tolerance.

    Returns
    -------
    Q : (n, k0 + k_add) column-major augmented orthonormal basis (prefix
        is ``basis``).
    R : (k0 + k_add, w) coefficients with block ~= Q @ R up to dropped
        parts; the lower k_add rows form a staircase whose pivots mark the
        kept columns.
    """
    block = np.atleast_2d(np.asarray(block))
    n, w = block.shape
    k0 = 0 if basis is None else basis.shape[1]
    cdtype = np.promote_types(basis.dtype if k0 else np.float64, block.dtype)
    Q = np.empty((n, k0 + w), dtype=cdtype, order="F")
    if k0:
        Q[:, :k0] = basis
    R = np.zeros((k0 + w, w), dtype=cdtype)
    scale = float(np.max(np.linalg.norm(block, axis=0))) if w else 0.0
    if scale == 0.0:
        return Q[:, :k0], R[:k0]

    X = np.array(block, dtype=cdtype, order="F")
    if k0:
        # in-place BLAS updates keep X column-major (numpy's old @ C is not)
        gemm = spla.get_blas_funcs("gemm", (Q,))
        old = Q[:, :k0]
        for _ in range(2):  # second pass mops up cancellation
            C = gemm(1.0, old, X, trans_a=2)
            X = gemm(-1.0, old, C, beta=1.0, c=X, overwrite_c=1)
            R[:k0] += C
    k = 0  # columns accepted so far
    for j in range(w):
        x = X[:, j]
        if k:
            new = Q[:, k0 : k0 + k]
            for _ in range(2):
                c = new.conj().T @ x
                x -= new @ c
                R[k0 : k0 + k, j] += c
        nrm = np.linalg.norm(x)
        if nrm > drop_tol * scale:
            Q[:, k0 + k] = x / nrm
            R[k0 + k, j] = nrm
            k += 1
    return Q[:, : k0 + k], R[: k0 + k]


# ---------------------------------------------------------------------------
# Matrix Market (coordinate real general/symmetric only)
# ---------------------------------------------------------------------------

def matrix_market_read(path):
    """Read a sparse matrix from a Matrix Market coordinate file.

    Supports exactly the dialect ``matrix coordinate real general`` and
    ``matrix coordinate real symmetric`` (lower triangle stored, mirrored on
    read). Anything else, malformed entries, or out-of-range indices raise
    MatrixMarketError with the offending line number.
    """
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError(f"{path}: empty file")
    header = lines[0].strip().split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixMarketError(f"{path}:1: malformed header {lines[0]!r}")
    _, obj, fmt, field, symm = (t.lower() for t in header)
    if (obj, fmt, field) != ("matrix", "coordinate", "real"):
        raise MatrixMarketError(
            f"{path}:1: unsupported type '{obj} {fmt} {field}' "
            "(only 'matrix coordinate real' is handled)"
        )
    if symm not in ("general", "symmetric"):
        raise MatrixMarketError(f"{path}:1: unsupported symmetry '{symm}'")

    lineno = 1
    size_line = None
    for lineno, raw in enumerate(lines[1:], start=2):
        txt = raw.strip()
        if not txt or txt.startswith("%"):
            continue
        size_line = (lineno, txt)
        break
    if size_line is None:
        raise MatrixMarketError(f"{path}: missing size line")
    lineno, txt = size_line
    parts = txt.split()
    if len(parts) != 3:
        raise MatrixMarketError(f"{path}:{lineno}: expected 'rows cols nnz', got {txt!r}")
    try:
        nrows, ncols, nnz = (int(p) for p in parts)
    except ValueError:
        raise MatrixMarketError(f"{path}:{lineno}: non-integer size entry in {txt!r}")
    if nrows <= 0 or ncols <= 0 or nnz < 0:
        raise MatrixMarketError(f"{path}:{lineno}: invalid dimensions {txt!r}")

    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    k = 0
    for ln, raw in enumerate(lines[lineno:], start=lineno + 1):
        txt = raw.strip()
        if not txt or txt.startswith("%"):
            continue
        if k >= nnz:
            raise MatrixMarketError(f"{path}:{ln}: more than {nnz} entries")
        parts = txt.split()
        if len(parts) != 3:
            raise MatrixMarketError(f"{path}:{ln}: expected 'i j value', got {txt!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            v = float(parts[2])
        except ValueError:
            raise MatrixMarketError(f"{path}:{ln}: malformed entry {txt!r}")
        if not (1 <= i <= nrows) or not (1 <= j <= ncols):
            raise MatrixMarketError(
                f"{path}:{ln}: index ({i}, {j}) out of range for "
                f"{nrows} x {ncols} matrix"
            )
        if symm == "symmetric" and j > i:
            raise MatrixMarketError(
                f"{path}:{ln}: symmetric files must store the lower triangle, "
                f"got ({i}, {j})"
            )
        rows[k], cols[k], vals[k] = i - 1, j - 1, v
        k += 1
    if k != nnz:
        raise MatrixMarketError(f"{path}: expected {nnz} entries, found {k}")

    if symm == "symmetric":
        off = rows != cols
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, vals[off]]),
        )
    A = sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    return A.tocsc()


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
