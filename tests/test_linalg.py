import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from conftest import fem_pair, matrix_market_write
from lradi import linalg
from lradi.engine import LyapunovProblem
from lradi.linalg import (
    MatrixMarketError,
    ShiftedPencil,
    SingularShiftError,
    block_orth,
    matrix_market_read,
    nested_dissection_order,
    sparse_shifted_factorize,
    spectral_norm_small,
)
from lradi.problems import gen_cd2d, gen_cd3d


def test_shifted_factorization_real():
    rng = np.random.default_rng(0)
    A = sp.csr_matrix(rng.standard_normal((15, 15)) - 20 * np.eye(15))
    alpha = -3.5
    fact = sparse_shifted_factorize(ShiftedPencil(A), alpha)
    rhs = rng.standard_normal((15, 2))
    x = fact.solve(rhs)
    assert x.dtype == np.float64
    assert_allclose((A + alpha * sp.identity(15)) @ x, rhs, atol=1e-11)


@pytest.mark.parametrize("alpha, dtype", [
    (complex(-2.0, 0.0), np.float64),  # a real shift held as a complex number
    (np.complex128(-2.0), np.float64),
    (-2.0 + 1.5j, np.complex128),
], ids=["complex-zero-imag", "numpy-zero-imag", "complex"])
def test_shifted_factorization_dtype_follows_shift(alpha, dtype, recorded_lu):
    rng = np.random.default_rng(14)
    A = sp.csr_matrix(rng.standard_normal((15, 15)) - 20 * np.eye(15))
    fact = sparse_shifted_factorize(ShiftedPencil(A), alpha)
    lu, = recorded_lu
    assert lu.solve(np.ones(15)).dtype == dtype
    assert fact.solve(np.ones(15)).dtype == dtype
    rhs = rng.standard_normal((15, 2))
    x = fact.solve(rhs)
    assert x.dtype == dtype
    assert_allclose((A + alpha * sp.identity(15)) @ x, rhs, atol=1e-11)


def test_shifted_factorization_complex_and_mass():
    rng = np.random.default_rng(1)
    A = sp.csr_matrix(rng.standard_normal((12, 12)) - 15 * np.eye(12))
    M = sp.csr_matrix(np.diag(rng.random(12) + 0.5))
    alpha = -2.0 + 1.5j
    fact = sparse_shifted_factorize(ShiftedPencil(A, M), alpha)
    rhs = rng.standard_normal(12)
    x = fact.solve(rhs)
    assert x.dtype == np.complex128
    assert_allclose((A.toarray() + alpha * M.toarray()) @ x, rhs, atol=1e-11)


def test_shifted_factorization_singular():
    A = sp.identity(4, format="csr")
    with pytest.raises(SingularShiftError):
        sparse_shifted_factorize(ShiftedPencil(A), -1.0)


def test_shifted_factorization_rejects_nonsquare():
    with pytest.raises(ValueError):
        ShiftedPencil(sp.csr_matrix(np.ones((3, 4))))


def _check_off_diagonal_pivots(alpha, recorded_lu):
    # structurally nonsymmetric K = A + alpha*M with exact zeros on part of
    # its diagonal: symmetric mode must fall back to off-diagonal pivots
    n = 40
    rng = np.random.default_rng(11)
    A = sp.random(n, n, density=0.08, random_state=rng, format="lil")
    A.setdiag(-10.0)
    zero = np.arange(0, n, 5)
    m = np.ones(n)
    m[zero] = 0.0
    for i in zero:  # pivot candidates K[i, i+1] and K[i+2, i], unmirrored
        A[i, i] = A[i + 1, i] = A[i, i + 2] = 0.0
        A[i, i + 1], A[i + 2, i] = 4.0, 3.0
    A = sp.csr_matrix(A)
    A.eliminate_zeros()
    M = sp.diags(m)
    K = (A + alpha * M).toarray()
    assert np.all(K[zero, zero] == 0.0)
    assert (K != 0).sum() != ((K != 0) & (K.T != 0)).sum()  # pattern not symmetric
    fact = sparse_shifted_factorize(ShiftedPencil(A, M), alpha)
    lu, = recorded_lu
    assert not np.array_equal(lu.perm_r, lu.perm_c)  # rows swapped off the diagonal
    b = rng.standard_normal((n, 2))
    x = fact.solve(b)
    assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("alpha", [-2.0, -2.0 + 1.5j])
def test_shifted_factorization_pivots_off_diagonal(alpha, recorded_lu):
    _check_off_diagonal_pivots(alpha, recorded_lu)


@pytest.mark.parametrize("alpha", [-3.0, -3.0 + 2.0j])
def test_shifted_factorization_near_singular(alpha):
    # K = A + alpha*I is upper bidiagonal with one pivot 1e-16 of the largest
    n = 30
    d = np.linspace(1.0, 10.0, n)
    d[n // 2] = 1e-16 * d.max()
    S = sp.diags([d, np.ones(n - 1)], [0, 1], format="csr", dtype=np.result_type(alpha))
    A = S - alpha * sp.identity(n, format="csr")
    fact = sparse_shifted_factorize(ShiftedPencil(A), alpha)  # tested on its first solve
    with pytest.raises(SingularShiftError, match="numerically singular"):
        fact.solve(np.ones(n))
    fact = sparse_shifted_factorize(ShiftedPencil(A), alpha - 0.5)  # a shift away: regular
    assert np.all(np.isfinite(fact.solve(np.ones(n))))


@pytest.mark.parametrize("alpha", [-3.0, -3.0 + 2.0j])
def test_probe_with_first_rhs_still_refuses_near_singular_shift(alpha):
    # test_shifted_factorization_near_singular's shifts, with a block first
    # right-hand side that the probe rides: the probe column fails the
    # test, every later solve is refused too, and the refused LU, which
    # SuperLU did return, is counted
    n = 30
    d = np.linspace(1.0, 10.0, n)
    d[n // 2] = 1e-16 * d.max()
    S = sp.diags([d, np.ones(n - 1)], [0, 1], format="csr", dtype=np.result_type(alpha))
    pencil = ShiftedPencil(S - alpha * sp.identity(n, format="csr"))
    fact = sparse_shifted_factorize(pencil, alpha)
    assert pencil.n_factorizations == 1
    for _ in range(2):
        with pytest.raises(SingularShiftError, match="numerically singular"):
            fact.solve(np.ones((n, 2)))
    assert pencil.n_factorizations == 1


@pytest.mark.parametrize("alpha", [-7.0, -7.0 + 30.0j])
@pytest.mark.parametrize("ordered", [False, True])
def test_real_rhs_on_a_complex_lu_and_the_first_rhs_are_bitwise(alpha, ordered, monkeypatch):
    # SuperLU casts a real right-hand side to a complex LU's dtype, and a
    # first solve, which carries the probe as one more column, is bitwise
    # what a later plain solve gives
    if ordered:
        monkeypatch.setattr(linalg, "_ND_MIN_N", 0)
    rng = np.random.default_rng(23)
    pencil = ShiftedPencil(gen_cd2d(15) + sp.random(225, 225, density=0.01, random_state=rng))
    assert (pencil.perm is not None) == ordered
    plain = sparse_shifted_factorize(pencil, alpha)
    plain.solve(np.ones(225))  # its probed first solve
    for b in (rng.standard_normal(225), rng.standard_normal((225, 3))):
        x = plain.solve(b)
        assert x.shape == b.shape
        assert np.array_equal(x, plain.solve(b.astype(np.result_type(alpha, np.float64))))
        fact = sparse_shifted_factorize(pencil, alpha)
        first = fact.solve(b)
        assert first.dtype == x.dtype and first.shape == b.shape
        assert np.array_equal(first, x)
        assert np.array_equal(fact.solve(b), x)  # later solves solve again
    assert pencil.n_factorizations == 3


def test_factorization_never_forms_L_or_U(recorded_lu):
    # recorded_lu's SuperLU objects refuse L and U
    rng = np.random.default_rng(12)
    A = sp.csr_matrix(rng.standard_normal((20, 20)) - 25 * np.eye(20))
    for alpha in (-1.5, -1.5 + 4.0j):
        fact = sparse_shifted_factorize(ShiftedPencil(A), alpha)
        b = rng.standard_normal((20, 3))
        assert_allclose((A + alpha * sp.identity(20)) @ fact.solve(b), b, atol=1e-12)
    with pytest.raises(SingularShiftError):
        sparse_shifted_factorize(ShiftedPencil(sp.identity(4, format="csr")), -1.0)
    # the mass-matrix solve shares the factorization helper
    M = sp.diags(rng.random(20) + 0.5, format="csr")
    problem = LyapunovProblem(A, rng.standard_normal((20, 1)), M=M)
    rhs = rng.standard_normal((20, 2))
    assert_allclose(M @ problem.pencil.solve_M(rhs), rhs, atol=1e-12)


def test_singularity_probe_is_drawn_once_per_pencil(monkeypatch, recorded_lu):
    # the +-1 vector of the singularity test is the draw each LU used to
    # make for itself, now made once per pencil and shared by its LUs,
    # each scaling it by the row sums of its |K|
    n = 20
    draw = np.where(np.random.default_rng(0).random(n) < 0.5, -1.0, 1.0)
    draws = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *a, **k: draws.append(a) or default_rng(*a, **k))
    A = sp.csr_matrix(default_rng(13).standard_normal((n, n)) - 25 * np.eye(n))
    pencil = ShiftedPencil(A)
    for alpha in (-1.5, -1.5 + 4.0j, -2.0):
        fact = sparse_shifted_factorize(pencil, alpha)
        for _ in range(2):
            fact.solve(np.ones(n))
    assert draws == [(0,)]
    assert_allclose(pencil.probe, draw, rtol=0, atol=0)  # no solve overwrote it
    rhs = [solve for lu in recorded_lu for solve in lu.solves]
    # each LU's first solve carries the scaled probe as its last column,
    # solved in the LU's arithmetic, and its second solve is plain
    dtypes = [np.float64, np.complex128, np.float64]
    assert [dtype for _, dtype in rhs] == [d for d in dtypes for _ in range(2)]
    for alpha, first, second in zip((-1.5, -1.5 + 4.0j, -2.0), rhs[::2], rhs[1::2]):
        assert first[0].shape == (n, 2) and second[0].shape == (n,)
        row_sums = np.asarray(abs(A + alpha * sp.identity(n)).sum(axis=1)).ravel()
        assert_allclose(first[0][:, 1], row_sums * draw, rtol=1e-14, atol=0)


def test_complex_shift_fill_stays_low(recorded_lu):
    # the ordering of A + A^T must keep fill well below SciPy's default
    # (COLAMD, full partial pivoting); a silent fall-back fails this bound
    A = gen_cd3d(8)
    alpha = -1000.0 + 3000.0j
    sparse_shifted_factorize(ShiftedPencil(A), alpha)
    lu, = recorded_lu
    K = sp.csc_matrix(A + alpha * sp.identity(A.shape[0]))
    assert lu.nnz <= 0.6 * splu(K).nnz


def _tridiagonal(n):
    return sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1], format="csc")


def _disconnected(rng):
    # a 2-D grid, a path, a random block and three isolated nodes
    return sp.block_diag([gen_cd2d(9), _tridiagonal(40),
                          sp.random(50, 50, density=0.1, random_state=rng),
                          sp.identity(3)], format="csr")


@pytest.mark.parametrize("case", ["2d-grid", "3d-grid", "path", "disconnected", "n=1"])
def test_nested_dissection_is_a_permutation(case):
    A = {"2d-grid": lambda: gen_cd2d(23), "3d-grid": lambda: gen_cd3d(9),
         "path": lambda: _tridiagonal(300),
         "disconnected": lambda: _disconnected(np.random.default_rng(21)),
         "n=1": lambda: sp.csr_matrix(np.array([[-2.0]]))}[case]()
    P = abs(A) + abs(A.T)
    perm = nested_dissection_order(P)
    assert perm.dtype == np.int64
    assert np.array_equal(np.sort(perm), np.arange(A.shape[0]))


def test_nested_dissection_separates_a_grid():
    # the last nodes of a 2-D grid's order form a separator: without them
    # the grid falls apart into two big halves
    n0 = 30
    A = gen_cd2d(n0)
    perm = nested_dissection_order(abs(A) + abs(A.T))
    for width in range(1, 2 * n0):
        rest = perm[: A.shape[0] - width]
        ncomp, lab = connected_components(A[rest][:, rest], directed=False)
        if ncomp > 1:
            break
    assert ncomp == 2
    assert np.bincount(lab).min() >= 0.25 * A.shape[0]


@pytest.mark.parametrize("case, digest", [
    ("cd2d(40)", "68ad6a77d05839bf2cab2c7b70259d1fa027efe49530d4d27de206584ee4e4a6"),
    ("cd3d(11)", "d7dd15c0afd3f24dbef6a669049dbef8c2c736929b67503ee6dc29cf3ee25a4e"),
    ("path(2048)", "5ccf19f4f2c0424bb9636387a42e899d136172cb5e410c08d271cedf5925f25d"),
])
def test_nested_dissection_order_is_pinned(case, digest):
    # SHA-256 of the order of P + P^T, P = |A| + I as a pencil without M
    # builds it; any change to the ordering must leave these permutations
    # (and with them every dissected LU) as they are
    A = {"cd2d(40)": lambda: gen_cd2d(40), "cd3d(11)": lambda: gen_cd3d(11),
         "path(2048)": lambda: _tridiagonal(2048)}[case]()
    P = abs(A) + sp.identity(A.shape[0])
    perm = nested_dissection_order(P + P.T)
    assert hashlib.sha256(np.asarray(perm, dtype=np.int64).tobytes()).hexdigest() == digest


def test_nested_dissection_only_for_large_pencils():
    assert ShiftedPencil(gen_cd3d(10)).perm is not None  # 1000 unknowns
    assert ShiftedPencil(gen_cd3d(9)).perm is None


@pytest.fixture
def dissect_all(monkeypatch):
    """Order every pencil by nested dissection, whatever its size."""
    monkeypatch.setattr(linalg, "_ND_MIN_N", 0)


def test_tridiagonal_pencil_keeps_natural_fill(dissect_all, recorded_lu):
    # the FEM pair's path graph is ordered end to end: no fill beyond the band
    A, M = fem_pair(2000)
    sparse_shifted_factorize(ShiftedPencil(A, M), -300.0)
    lu, = recorded_lu
    K = sp.csc_matrix(A - 300.0 * M)
    natural = splu(K, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                   options=dict(SymmetricMode=True))
    assert lu.nnz == natural.nnz


@pytest.mark.parametrize("alpha", [-7.0, -7.0 + 30.0j])
@pytest.mark.parametrize("mass", [None, "diagonal", "unsymmetric"])
def test_permuted_factorization_solves(alpha, mass, dissect_all, recorded_lu,
                                       monkeypatch):
    rng = np.random.default_rng(22)
    A = gen_cd2d(15) + sp.random(225, 225, density=0.01, random_state=rng)
    M = None if mass is None else sp.diags(rng.random(225) + 0.5)
    if mass == "unsymmetric":  # entries above the diagonal only
        M = M + sp.triu(sp.random(225, 225, density=0.02, random_state=rng), 1)
    patterns = []

    def recording(P):
        patterns.append(P)
        return nested_dissection_order(P)

    monkeypatch.setattr(linalg, "nested_dissection_order", recording)
    pencil = ShiftedPencil(A, M)
    assert not np.array_equal(pencil.perm, np.arange(225))
    P, = patterns  # ordered once, on a symmetric pattern holding A's and M's
    assert (P != P.T).nnz == 0
    assert (abs(A) + abs(M if mass else sp.identity(225)) > P).nnz == 0
    K = A + alpha * (M if mass else sp.identity(225))
    assert_allclose(pencil.shifted(alpha).toarray(),
                    K.toarray()[pencil.perm][:, pencil.perm], rtol=0, atol=0)
    fact = sparse_shifted_factorize(pencil, alpha)
    lu, = recorded_lu
    assert np.array_equal(lu.perm_c, np.arange(225))  # factored as ordered
    for b in (rng.standard_normal(225), rng.standard_normal((225, 3))):
        x = fact.solve(b)
        assert x.dtype == (np.complex128 if np.imag(alpha) != 0 else np.float64)
        assert x.shape == b.shape
        assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)
    if mass:
        problem = LyapunovProblem(A, np.ones((225, 1)), M=M)
        b = rng.standard_normal((225, 2))
        assert_allclose(M @ problem.pencil.solve_M(b), b, atol=1e-12)


@pytest.mark.parametrize("alpha", [-2.0, -2.0 + 1.5j])
def test_permuted_factorization_pivots_off_diagonal(alpha, dissect_all, recorded_lu):
    _check_off_diagonal_pivots(alpha, recorded_lu)
    assert np.array_equal(recorded_lu[0].perm_c, np.arange(40))


def test_pencil_rejects_a_mismatched_mass_matrix():
    with pytest.raises(ValueError, match="shape"):
        ShiftedPencil(sp.identity(3, format="csc"), sp.identity(4))


def test_pencil_without_mass_matrix_has_no_solve_M():
    with pytest.raises(ValueError, match="no mass matrix"):
        ShiftedPencil(sp.identity(3, format="csc")).solve_M(np.ones(3))


def test_spectral_norm_small():
    rng = np.random.default_rng(4)
    W = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    assert_allclose(spectral_norm_small(W), np.linalg.norm(W, 2) ** 2, rtol=1e-12)
    assert spectral_norm_small(np.zeros((5, 0))) == 0.0
    for w in (W[:, :1], W[:, :1].real):  # one column: no eigensolver
        assert_allclose(spectral_norm_small(w), np.linalg.norm(w) ** 2, rtol=1e-12)


def test_block_orth_extends():
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.standard_normal((30, 4)))
    block = rng.standard_normal((30, 3))
    Q, R, kept = block_orth(basis, block)
    assert Q.shape == (30, 7) and kept.tolist() == [0, 1, 2]
    assert_allclose(Q[:, :4], basis, atol=0)  # prefix untouched
    assert_allclose(Q.conj().T @ Q, np.eye(7), atol=1e-12)
    assert_allclose(Q @ R, block, atol=1e-12)


def test_block_orth_drops_dependent_columns():
    rng = np.random.default_rng(6)
    basis, _ = np.linalg.qr(rng.standard_normal((20, 3)))
    fresh = rng.standard_normal((20, 1))
    # middle column lies in the current span and must be dropped
    block = np.hstack([fresh, basis @ rng.standard_normal((3, 1)), 2.0 * fresh])
    Q, R, kept = block_orth(basis, block)
    assert Q.shape[1] == 4 and kept.tolist() == [0]
    assert_allclose(Q @ R, block, atol=1e-12)
    # staircase bottom block: pivot in column 0, nothing new afterwards
    bottom = R[3:, :]
    assert bottom[0, 0] > 0
    assert_allclose(bottom[:, 1], 0, atol=1e-12)


def test_block_orth_kept_is_the_pivot_column_of_each_new_row():
    # kept names the input column behind each added basis column: the
    # first nonzero of its row of R; dependent columns are dropped and
    # have no row
    rng = np.random.default_rng(31)
    basis, _ = np.linalg.qr(rng.standard_normal((30, 4)))
    x0, x1, x2 = rng.standard_normal((3, 30, 1))
    block = np.hstack([x0, basis @ rng.standard_normal((4, 1)), x1, x0 + x1, x2])
    for base, expected in ((None, [0, 1, 2, 4]), (basis, [0, 2, 4])):
        k0 = 0 if base is None else base.shape[1]
        _, R, kept = block_orth(base, block)
        pivots = [int(np.nonzero(np.abs(R[i]) > 0.0)[0][0]) for i in range(k0, R.shape[0])]
        assert kept.tolist() == pivots == expected


def test_block_orth_all_zero_block():
    # a block with no nonzero column adds nothing: the basis comes back as
    # it was, with zero coefficients
    rng = np.random.default_rng(10)
    basis, _ = np.linalg.qr(rng.standard_normal((20, 3)))
    Q, R, kept = block_orth(basis, np.zeros((20, 2)))
    assert_allclose(Q, basis, atol=0)
    assert R.shape == (3, 2) and not R.any()
    assert kept.shape == (0,) and kept.dtype.kind == "i"
    Q, R, kept = block_orth(None, np.zeros((20, 2)))
    assert Q.shape == (20, 0) and R.shape == (0, 2) and kept.shape == (0,)


def test_block_orth_two_pass_accuracy():
    # nearly dependent input columns still give an orthonormal result
    rng = np.random.default_rng(7)
    base = rng.standard_normal((50, 1))
    block = np.hstack([base, base + 1e-9 * rng.standard_normal((50, 1))])
    Q, _, _ = block_orth(None, block)
    assert_allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_block_orth_layout_independent(dtype):
    # row-major and column-major inputs give the same basis and coefficients
    rng = np.random.default_rng(9)

    def draw(*shape):
        X = rng.standard_normal(shape)
        return X + 1j * rng.standard_normal(shape) if dtype is np.complex128 else X

    basis, _ = np.linalg.qr(draw(40, 5))
    fresh = draw(40, 3)
    block = np.hstack([fresh, basis @ draw(5, 1), fresh @ draw(3, 1), draw(40, 2)])
    Qc, Rc, kc = block_orth(np.ascontiguousarray(basis), np.ascontiguousarray(block))
    Qf, Rf, kf = block_orth(np.asfortranarray(basis), np.asfortranarray(block))
    assert Qc.shape == Qf.shape == (40, 10)  # the two dependent columns are dropped
    assert kc.tolist() == kf.tolist() == [0, 1, 2, 5, 6]
    assert Qc.dtype == Qf.dtype == dtype
    assert_allclose(Qc, Qf, rtol=0, atol=1e-14)
    assert_allclose(Rc, Rf, rtol=0, atol=1e-14)
    assert_allclose(Qf @ Rf, block, atol=1e-12)
    assert_allclose(Qf.conj().T @ Qf, np.eye(10), atol=1e-12)


def test_matrix_market_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(8)
    A = sp.random(17, 17, density=0.2, random_state=np.random.RandomState(8),
                  format="csc")
    path = tmp_path / "a.mtx"
    matrix_market_write(path, A)
    A2 = matrix_market_read(path)
    assert (A != A2).nnz == 0  # exact equality, not approximate


def test_matrix_market_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment before the size line\n"
        "\n"
        "2 3 2\n"
        "1 3 -1.5\n"
        "% a comment between entries\n"
        "\n"
        "2 1 4.0\n"
    )
    A = matrix_market_read(path)
    assert A.shape == (2, 3)
    assert_allclose(A.toarray(), [[0.0, 0.0, -1.5], [4.0, 0.0, 0.0]], atol=0)


def test_matrix_market_symmetric_mirrors(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n"
        "1 1 2.0\n"
        "2 1 -1.0\n"
        "3 2 -1.0\n"
        "3 3 2.0\n"
    )
    A = matrix_market_read(path).toarray()
    assert_allclose(A, A.T, atol=0)
    assert A[0, 1] == -1.0 and A[1, 2] == -1.0


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("", "empty"),
        ("%%MatrixMarket matrix array real general\n1 1\n1.0\n", "unsupported type"),
        ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
         "unsupported type"),
        ("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n",
         "unsupported symmetry"),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n", ":2:"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n", ":3:"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
         "out of range"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
         "expected 2 entries"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 5.0\n",
         "lower triangle"),
        ("%%MatrixMarket matrix coordinate real\n1 1 1\n1 1 1.0\n", "malformed header"),
        ("%%MatrixMarket matrix coordinate real general\n% only a comment\n\n",
         "missing size line"),
        ("%%MatrixMarket matrix coordinate real general\n2 x 1\n", "non-integer size"),
        ("%%MatrixMarket matrix coordinate real general\n0 2 0\n", "invalid dimensions"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n",
         ":4: more than 1 entries"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", "expected 'i j value'"),
    ],
)
def test_matrix_market_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixMarketError) as excinfo:
        matrix_market_read(path)
    assert fragment in str(excinfo.value)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 63))
def test_matrix_market_roundtrip_property(n, seed):
    import tempfile

    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < 0.4
    A = sp.csc_matrix(np.where(mask, rng.standard_normal((n, n)), 0.0))
    with tempfile.TemporaryDirectory() as d:
        matrix_market_write(f"{d}/m.mtx", A)
        A2 = matrix_market_read(f"{d}/m.mtx")
    assert (A != A2).nnz == 0
