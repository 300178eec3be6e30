import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lradi.linalg import (
    MatrixMarketError,
    SingularShiftError,
    block_orth,
    dense_eig_hermitian,
    dense_schur,
    matrix_market_read,
    matrix_market_write,
    sparse_shifted_factorize,
    spectral_norm_small,
)


def test_shifted_factorization_real():
    rng = np.random.default_rng(0)
    A = sp.csr_matrix(rng.standard_normal((15, 15)) - 20 * np.eye(15))
    alpha = -3.5
    fact = sparse_shifted_factorize(A, alpha)
    rhs = rng.standard_normal((15, 2))
    x = fact.solve(rhs)
    assert not fact.is_complex
    assert_allclose((A + alpha * sp.identity(15)) @ x, rhs, atol=1e-11)


def test_shifted_factorization_complex_and_mass():
    rng = np.random.default_rng(1)
    A = sp.csr_matrix(rng.standard_normal((12, 12)) - 15 * np.eye(12))
    M = sp.csr_matrix(np.diag(rng.random(12) + 0.5))
    alpha = -2.0 + 1.5j
    fact = sparse_shifted_factorize(A, alpha, M=M)
    assert fact.is_complex
    rhs = rng.standard_normal(12)
    x = fact.solve(rhs)
    assert_allclose((A.toarray() + alpha * M.toarray()) @ x, rhs, atol=1e-11)


def test_shifted_factorization_singular():
    A = sp.identity(4, format="csr")
    with pytest.raises(SingularShiftError):
        sparse_shifted_factorize(A, -1.0)


def test_shifted_factorization_rejects_nonsquare():
    with pytest.raises(ValueError):
        sparse_shifted_factorize(sp.csr_matrix(np.ones((3, 4))), -1.0)


def test_dense_schur_reconstructs():
    rng = np.random.default_rng(2)
    H = rng.standard_normal((7, 7))
    T, Q = dense_schur(H)
    assert_allclose(Q @ T @ Q.conj().T, H, atol=1e-12)
    assert_allclose(np.tril(T, -1), 0, atol=1e-12)
    lam = np.linalg.eigvals(H)
    gaps = np.abs(lam[:, None] - np.diag(T)[None, :]).min(axis=1)
    assert gaps.max() < 1e-8


def test_dense_eig_hermitian_descending():
    rng = np.random.default_rng(3)
    F = rng.standard_normal((6, 6))
    G = F @ F.T
    w, U = dense_eig_hermitian(G)
    assert np.all(np.diff(w) <= 0)
    assert_allclose(G @ U, U @ np.diag(w), atol=1e-10)


def test_dense_eig_hermitian_rejects_asymmetric():
    with pytest.raises(ValueError):
        dense_eig_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))


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
    Q, R = block_orth(basis, block)
    assert Q.shape == (30, 7)
    assert_allclose(Q[:, :4], basis, atol=0)  # prefix untouched
    assert_allclose(Q.conj().T @ Q, np.eye(7), atol=1e-12)
    assert_allclose(Q @ R, block, atol=1e-12)


def test_block_orth_drops_dependent_columns():
    rng = np.random.default_rng(6)
    basis, _ = np.linalg.qr(rng.standard_normal((20, 3)))
    fresh = rng.standard_normal((20, 1))
    # middle column lies in the current span and must be dropped
    block = np.hstack([fresh, basis @ rng.standard_normal((3, 1)), 2.0 * fresh])
    Q, R = block_orth(basis, block)
    assert Q.shape[1] == 4
    assert_allclose(Q @ R, block, atol=1e-12)
    # staircase bottom block: pivot in column 0, nothing new afterwards
    bottom = R[3:, :]
    assert bottom[0, 0] > 0
    assert_allclose(bottom[:, 1], 0, atol=1e-12)


def test_block_orth_two_pass_accuracy():
    # nearly dependent input columns still give an orthonormal result
    rng = np.random.default_rng(7)
    base = rng.standard_normal((50, 1))
    block = np.hstack([base, base + 1e-9 * rng.standard_normal((50, 1))])
    Q, _ = block_orth(None, block)
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
    Qc, Rc = block_orth(np.ascontiguousarray(basis), np.ascontiguousarray(block))
    Qf, Rf = block_orth(np.asfortranarray(basis), np.asfortranarray(block))
    assert Qc.shape == Qf.shape == (40, 10)  # the two dependent columns are dropped
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
