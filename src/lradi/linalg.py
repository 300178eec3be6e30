"""Shared linear algebra kernels.

Sparse shifted factorizations, the 2-norm of a tall-skinny block from
its Gram matrix, incremental block orthonormalization and a small
Matrix Market reader. All higher-level modules build on these; nothing
here knows about Lyapunov equations.
"""

from functools import cached_property
from typing import NamedTuple

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

# SuperLU's pairing for matrices with a (nearly) symmetric pattern: a
# symmetric ordering, and the diagonal pivot kept unless it is below this
# fraction of its column's largest entry.
_DIAG_PIVOT_THRESH = 0.1
# a shifted matrix whose row-equilibrated condition estimate reaches this
# is singular
_COND_LIMIT = 1e14
# pencils of at least this many unknowns are ordered once by nested
# dissection. Timed on the convection-diffusion grids (2-core x86 host,
# one BLAS thread, best of 9 LUs per order): dissection's LU is 10-40 %
# faster on 3-D grids from 8^3 on and ties minimum degree on 2-D grids up
# to 64^2 (faster from 80^2 on), so whole solves gain from 10^3 on in 3-D
# and pay the ordering (13-40 ms) with no LU saving in 2-D below about
# 5000 unknowns. On the 8^3 grid minimum degree fills less (0.57 of
# COLAMD's fill, against 0.62-0.73).
_ND_MIN_N = 1000
# parts of at most this many nodes are ordered without dissecting them
_ND_LEAF = 32


def _bfs_levels(G, lab):
    """BFS levels of every node from a pseudo-peripheral node of its component.

    Each component starts at its lowest-numbered node and moves twice to
    the lowest-numbered node of its last level. A sweep is one
    breadth-first search from a virtual root joined to the sweep's start
    nodes, and a node's level is its depth in that search's tree less
    one, found by pointer jumping over the predecessors. Returns the
    levels and each component's eccentricity (its largest level).
    """
    from scipy.sparse import csgraph

    m = G.shape[0]
    _, start = np.unique(lab, return_index=True)
    for sweep in range(3):
        R = sp.csr_matrix((np.ones(G.nnz + start.size), np.r_[G.indices, start],
                           np.r_[G.indptr, G.nnz + start.size]), shape=(m + 1, m + 1))
        # directed=True reads the symmetric pattern as it is stored
        _, up = csgraph.breadth_first_order(R, m, directed=True,
                                            return_predecessors=True)
        up[m] = m
        depth = np.ones(m + 1, dtype=np.int64)
        depth[m] = 0
        # after r rounds up[v] is v's 2^r-th ancestor (or the root), and
        # depth[v] its distance from there
        while np.any(up != m):
            depth += depth[up]
            up = up[up]
        lev = depth[:m] - 1
        ecc = np.zeros(start.size, dtype=np.int64)
        np.maximum.at(ecc, lab, lev)
        if sweep == 2:
            return lev, ecc
        far = np.flatnonzero(lev == ecc[lab])
        start = far[np.unique(lab[far], return_index=True)[1]]


def _ranks(groups):
    """0, 1, ... within each run of equal values of a sorted array."""
    k = np.arange(groups.size)
    first = np.r_[True, groups[1:] != groups[:-1]]
    return k - np.maximum.accumulate(np.where(first, k, 0))


def nested_dissection_order(P):
    """Fill-reducing symmetric ordering of a structurally symmetric pattern.

    Level-structure nested dissection (George & Liu, SIAM J. Numer. Anal.
    15, 1978), run one level of the dissection tree at a time over all
    parts at once with ``scipy.sparse.csgraph``. Each connected part gets
    BFS levels from a pseudo-peripheral node; its middle level, shrunk to
    the nodes with a neighbour one level up, separates the levels below
    from those above and is ordered after both. Parts of at most 32
    nodes, paths (one node per level) and parts of fewer than three levels
    are ordered by BFS level instead of being dissected.

    Parameters
    ----------
    P
        Sparse n x n matrix with a symmetric nonzero pattern; the diagonal
        is ignored.

    Returns
    -------
    perm : (n,) int64 array; ``perm[k]`` is the node placed k-th, so the
        reordered matrix is ``P[perm][:, perm]``.
    """
    # imported on first use, so that importing lradi does not pay for it
    from scipy.sparse import csgraph

    P = sp.coo_matrix(P)
    n = P.shape[0]
    off = P.row != P.col
    row, col = P.row[off].astype(np.int64), P.col[off].astype(np.int64)
    pos = np.full(n, -1, dtype=np.int64)  # place in the order, -1 until placed
    lo = np.zeros(n, dtype=np.int64)  # first place of the part holding a node
    act = np.arange(n)
    while act.size:
        # the unplaced nodes, without edges between different parts
        m = act.size
        loc = np.full(n, -1, dtype=np.int64)
        loc[act] = np.arange(m)
        keep = (loc[row] >= 0) & (loc[col] >= 0)
        keep[keep] = lo[row[keep]] == lo[col[keep]]
        row, col = row[keep], col[keep]
        r, c = loc[row], loc[col]
        G = sp.csr_matrix((np.ones(r.size), (r, c)), shape=(m, m))
        ncomp, lab = csgraph.connected_components(G, directed=True, connection="weak")
        size = np.bincount(lab, minlength=ncomp)
        # the components of one part share its places, in label order
        plo = np.empty(ncomp, dtype=np.int64)
        plo[lab] = lo[act]
        order = np.lexsort((np.arange(ncomp), plo))
        before = np.cumsum(size[order]) - size[order]
        first = np.r_[True, plo[order][1:] != plo[order][:-1]]
        before -= np.maximum.accumulate(np.where(first, before, 0))
        clo = np.empty(ncomp, dtype=np.int64)
        clo[order] = plo[order] + before

        lev, ecc = _bfs_levels(G, lab)
        leaf = (size <= _ND_LEAF) | (ecc + 1 == size) | (ecc < 2)
        mid = (ecc // 2)[lab]
        up = (lev[r] == mid[r]) & (lev[c] == mid[r] + 1)
        sep = np.zeros(m, dtype=bool)
        sep[r[up]] = True
        sep &= ~leaf[lab]
        # leaves are placed by level, separators at the end of their part
        idx = np.flatnonzero(sep | leaf[lab])
        idx = idx[np.lexsort((idx, lev[idx], lab[idx]))]
        g = lab[idx]
        tail = size - np.bincount(lab[sep], minlength=ncomp)
        pos[act[idx]] = clo[g] + np.where(leaf[g], 0, tail[g]) + _ranks(g)
        lo[act] = clo[lab]
        act = act[pos[act] < 0]
    perm = np.empty(n, dtype=np.int64)
    perm[pos] = np.arange(n)
    return perm


class _Layout(NamedTuple):
    perm: object  # nested-dissection order, None when it is the given one (no gathers)
    iperm: object
    indptr: object  # CSC pattern of A + M, in the pencil's order
    indices: object
    a_vals: object  # A's and M's values on that pattern, zero elsewhere
    m_vals: object
    M: object  # M alone in the pencil's order (the I of M = None included)


class ShiftedPencil:
    """The pencil (A, M) in one ordering, for many factorizations of A + alpha*M.

    Parameters
    ----------
    A
        Sparse square real or complex matrix, any scipy.sparse format.
    M
        Optional sparse matrix of A's shape. None means the identity.

    Prepared on first use, not on construction: a pencil of at least 1000
    unknowns gets one nested-dissection ordering of P + P^T with
    P = |A| + |M| (M = I when absent), and every LU of it (each shifted
    matrix, and M's) factors the permuted matrix as it stands (see
    ``lu``); a smaller pencil keeps its order and each LU is ordered by
    SuperLU's minimum degree. Solves
    gather the right-hand side into the pencil's order and scatter the
    solution back, unless that order is the given one. A's and M's values
    are laid out once on the CSC pattern of their union, so a shifted
    matrix costs one axpy on the values: no sparse sum and no format
    conversion. ``n_factorizations`` counts every shifted LU that SuperLU
    returned on the pencil, whether or not a solve later refused it as
    numerically singular; M's LU is not counted.
    """

    def __init__(self, A, M=None):
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got {A.shape}")
        if M is not None and M.shape != A.shape:
            raise ValueError(f"M has shape {M.shape}, A has {A.shape}")
        self.A, self.M = A, M
        self.n = A.shape[0]
        self._m_lu = None
        self.n_factorizations = 0

    @cached_property
    def _layout(self):
        """The pencil in its order, with A's and M's values on their union."""
        n = self.n
        A = sp.csc_matrix(self.A)
        M = sp.identity(n, format="csc") if self.M is None else sp.csc_matrix(self.M)
        perm = iperm = None
        if n >= _ND_MIN_N:
            P = abs(A) + abs(M)
            perm = nested_dissection_order(P + P.T)
        if perm is not None and np.array_equal(perm, np.arange(n)):
            perm = None  # e.g. a path numbered end to end
        if perm is not None:
            iperm = np.empty(n, dtype=np.int64)
            iperm[perm] = np.arange(n)
            A, M = A[perm][:, perm].tocsc(), M[perm][:, perm].tocsc()
        A.sum_duplicates()
        M.sum_duplicates()

        def ones(X):
            return sp.csc_matrix((np.ones(X.nnz), X.indices, X.indptr), shape=X.shape)

        union = ones(A) + ones(M)  # canonical: sorted rows, no duplicates

        def keys(X):  # column-major position of every stored entry
            cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(X.indptr))
            return cols * n + X.indices

        where = keys(union)

        def values(X):
            vals = np.zeros(union.nnz, dtype=np.result_type(X.dtype, np.float64))
            vals[np.searchsorted(where, keys(X))] = X.data
            return vals

        return _Layout(perm, iperm, union.indptr.astype(np.intc),
                       union.indices.astype(np.intc), values(A), values(M), M)

    @cached_property
    def probe(self):
        """The fixed pseudo-random +-1 vector of the singularity test, drawn
        once per pencil."""
        return np.where(np.random.default_rng(0).random(self.n) < 0.5, -1.0, 1.0)

    @property
    def perm(self):
        """The pencil's order (perm[k] is the k-th unknown), or None when
        it factors in the given order."""
        return self._layout.perm

    def shifted(self, alpha):
        """K = A + alpha*M in the pencil's order, as a canonical CSC matrix."""
        lay = self._layout
        K = sp.csc_matrix((lay.a_vals + alpha * lay.m_vals, lay.indices, lay.indptr),
                          shape=(self.n, self.n))
        K.has_canonical_format = True
        return K

    def lu(self, K):
        """SuperLU factorization of a CSC matrix in the pencil's order.

        SuperLU runs in symmetric mode. A pencil in nested-dissection
        order is factored as it stands (``permc_spec="NATURAL"``);
        otherwise SuperLU orders K by minimum degree on the pattern of
        K + K^T (``MMD_AT_PLUS_A``), applied symmetrically. The diagonal
        entry is the pivot unless it is below 0.1 times the largest entry
        of its column, in which case SuperLU pivots off the diagonal. The
        ADI shifted matrices and mass matrices here have symmetric
        patterns, where this gives about half the fill of column ordering
        with full partial pivoting. Returns SciPy's ``SuperLU`` object.
        """
        return splu(
            K,
            permc_spec="NATURAL" if self.n >= _ND_MIN_N else "MMD_AT_PLUS_A",
            diag_pivot_thresh=_DIAG_PIVOT_THRESH,
            options=dict(SymmetricMode=True),
        )

    def solve(self, lu, rhs, probe=None):
        """x with K x = rhs, for an LU of K in the pencil's order.

        Gathers the right-hand side into the pencil's order and scatters
        the solution back; ``rhs`` is (n,) or (n, k), and SuperLU casts a
        real one to a complex LU's dtype. A ``probe`` column, given in the
        pencil's order, is one more column of the same SuperLU call (each
        column bitwise what its own solve gives), returned as (x, K^{-1}
        probe); only ShiftedFactorization.solve passes one, for its
        singularity test.
        """
        perm, iperm = self._layout.perm, self._layout.iperm
        b = rhs if perm is None else rhs[perm]
        X = lu.solve(b if probe is None else np.column_stack([b, probe]))
        x = X if probe is None else X[:, :-1].reshape(rhs.shape)
        if perm is not None:
            x = x[iperm]
        return x if probe is None else (x, X[:, -1])

    def solve_M(self, rhs):
        """M^{-1} rhs through one LU of M in the pencil's order (made once).

        Requires a mass matrix; that LU is not a shifted one.
        """
        if self.M is None:
            raise ValueError("the pencil has no mass matrix")
        if self._m_lu is None:
            self._m_lu = self.lu(self._layout.M)
        return self.solve(self._m_lu, np.asarray(rhs))


class ShiftedFactorization:
    """LU factorization of K = A + alpha*M (M = I when absent).

    Parameters
    ----------
    pencil
        ShiftedPencil holding A and M; it keeps its ordering and value
        layout for every shift.
    alpha
        Shift. A shift with zero imaginary part is cast to a real scalar,
        so a real A (and M) gives a float64 factorization; only a shift
        with nonzero imaginary part pays for complex128 arithmetic.

    K is assembled by the pencil in its order and factored by the
    pencil's ``lu`` in symmetric mode with diagonal pivot threshold 0.1: as
    it stands after a nested-dissection ordering (1000 unknowns or more),
    otherwise ordered by minimum degree on K + K^T; the pencil counts the
    LU once SuperLU returns it, and ``nnz`` and ``dtype`` describe it. An
    exactly singular K raises SingularShiftError here. A nearly singular
    one is caught by the first ``solve``, without forming the L and U
    factors: with r the row sums of |K| and b the pencil's fixed +-1
    vector (``probe``, drawn once per pencil), r o b is one more column of
    that solve, and SingularShiftError is raised when x = K^{-1}(r o b) is
    not finite or ||x||_inf >= 1e14. That norm is a lower bound of the
    condition number of the row-equilibrated matrix, kappa_inf(diag(1/r)
    K), so a well-conditioned but badly scaled K passes. An unstable A
    reaches this error only when a shift lands on the negative of one of
    its eigenvalues; usually its solve just runs to max_iterations
    (ROADMAP.md, item 3).

    Solves with multiple right-hand sides are cheap once the factorization
    exists; ``solve`` accepts (n,) or (n, k) arrays (SuperLU casts a real
    one to a complex LU's dtype, bitwise as an explicit cast would) and
    gathers and scatters them through the pencil's order.
    """

    def __init__(self, pencil, alpha):
        if np.imag(alpha) == 0.0:
            alpha = float(np.real(alpha))
        K = pencil.shifted(alpha)
        try:
            self._lu = pencil.lu(K)
        except RuntimeError as exc:  # exactly singular; scipy wording varies
            raise SingularShiftError(
                f"factorization of A + ({alpha})*M failed: {exc}"
            ) from exc
        pencil.n_factorizations += 1
        row_sums = np.bincount(K.indices, np.abs(K.data), minlength=pencil.n)
        self._probe = row_sums * pencil.probe  # None once a solve passed
        self._pencil = pencil
        self.alpha = alpha
        self.nnz = self._lu.nnz  # stored entries of L and U
        self.dtype = K.dtype

    def solve(self, rhs):
        """Solve (A + alpha*M) x = rhs for one or several right-hand sides.

        Until one has passed, each solve carries the singularity probe and
        raises SingularShiftError when it fails.
        """
        if self._probe is None:
            return self._pencil.solve(self._lu, np.asarray(rhs))
        x, p = self._pencil.solve(self._lu, np.asarray(rhs), probe=self._probe)
        with np.errstate(all="ignore"):
            cond = np.max(np.abs(p), initial=0.0)
        if not cond < _COND_LIMIT:  # also true for nan
            raise SingularShiftError(
                f"A + ({self.alpha})*M is numerically singular "
                f"(row-equilibrated condition number >= {cond:.2e})"
            )
        self._probe = None
        return x


# the name under which engine and resmin build every shifted LU
sparse_shifted_factorize = ShiftedFactorization


# ---------------------------------------------------------------------------
# the 2-norm of a tall-skinny block
# ---------------------------------------------------------------------------

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

# block_orth's relative drop tolerance
_DROP_TOL = 1e-10


def block_orth(basis, block):
    """Extend an orthonormal basis by the columns of a new block.

    Two-pass block Gram-Schmidt: the whole block is projected twice against
    ``basis`` (two GEMM passes), then each column in turn is orthogonalized
    twice against the columns accepted before it and normalized. Columns
    whose remainder falls below ``_DROP_TOL`` (1e-10) times the incoming
    block scale are dropped (rank deficiency).

    Parameters
    ----------
    basis
        (n, k0) orthonormal matrix or None for an empty basis.
    block
        (n, w) new columns.

    Returns
    -------
    Q : (n, k0 + k_add) column-major augmented orthonormal basis (prefix
        is ``basis``).
    R : (k0 + k_add, w) coefficients with block ~= Q @ R up to dropped
        parts; the lower k_add rows form a staircase.
    kept : (k_add,) increasing int array: ``kept[i]`` is the column of
        ``block`` behind basis column ``k0 + i``, the pivot of R's row.
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
    kept = np.empty(w, dtype=np.intp)
    if scale == 0.0:
        return Q[:, :k0], R[:k0], kept[:0]

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
        if nrm > _DROP_TOL * scale:
            Q[:, k0 + k] = x / nrm
            R[k0 + k, j] = nrm
            kept[k] = j
            k += 1
    return Q[:, : k0 + k], R[: k0 + k], kept[:k]


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

