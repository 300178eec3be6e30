import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

from lradi.problems import gen_cd2d, gen_cd3d, gen_rhs


def cd2d_by_stencil(n0, cx, cy):
    """Direct stencil assembly: independent of any kron identity.

    Interior points of the unit square, homogeneous Dirichlet, centered
    differences; unknowns ordered with x running fastest.
    """
    h = 1.0 / (n0 + 1)
    x = h * np.arange(1, n0 + 1)
    n = n0 * n0
    A = np.zeros((n, n))
    for iy in range(n0):
        for ix in range(n0):
            row = iy * n0 + ix
            A[row, row] += -4.0 / h**2
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < n0 and 0 <= jy < n0:
                    A[row, jy * n0 + jx] += 1.0 / h**2
            # -cx * x * u_x - cy * y * u_y, centered
            if ix + 1 < n0:
                A[row, iy * n0 + ix + 1] += -cx * x[ix] / (2 * h)
            if ix - 1 >= 0:
                A[row, iy * n0 + ix - 1] += +cx * x[ix] / (2 * h)
            if iy + 1 < n0:
                A[row, (iy + 1) * n0 + ix] += -cy * x[iy] / (2 * h)
            if iy - 1 >= 0:
                A[row, (iy - 1) * n0 + ix] += +cy * x[iy] / (2 * h)
    return A


def test_cd2d_matches_stencil_oracle():
    A = gen_cd2d(7, cx=100.0, cy=1000.0).toarray()
    assert_allclose(A, cd2d_by_stencil(7, 100.0, 1000.0), rtol=1e-13, atol=1e-9)


def test_cd2d_default_coefficients():
    assert_allclose(gen_cd2d(5).toarray(), cd2d_by_stencil(5, 100.0, 1000.0),
                    rtol=1e-13, atol=1e-9)


def test_cd2d_pure_laplacian_eigenvalues():
    # with no convection the eigenvalues are the classic Dirichlet values
    n0 = 6
    h = 1.0 / (n0 + 1)
    A = gen_cd2d(n0, cx=0.0, cy=0.0).toarray()
    k = np.arange(1, n0 + 1)
    one_d = -(4.0 / h**2) * np.sin(k * np.pi * h / 2.0) ** 2
    expected = np.sort((one_d[:, None] + one_d[None, :]).ravel())
    assert_allclose(np.sort(np.linalg.eigvalsh(0.5 * (A + A.T))), expected,
                    rtol=1e-10)


def test_cd2d_is_stable():
    lam = np.linalg.eigvals(gen_cd2d(10).toarray())
    assert lam.real.max() < 0


def test_cd3d_shape_and_stencil_row():
    n0 = 4
    A = gen_cd3d(n0, cx=10.0, cy=20.0, cz=30.0)
    n = n0**3
    assert A.shape == (n, n)
    h = 1.0 / (n0 + 1)
    xg = h * np.arange(1, n0 + 1)
    Ad = A.toarray()
    # an interior unknown: ix=1, iy=2, iz=1 with x fastest, z slowest
    ix, iy, iz = 1, 2, 1
    row = iz * n0 * n0 + iy * n0 + ix
    assert_allclose(Ad[row, row], -6.0 / h**2, rtol=1e-13)
    assert_allclose(Ad[row, row + 1], 1.0 / h**2 - 10.0 * xg[ix] / (2 * h),
                    rtol=1e-13)
    assert_allclose(Ad[row, row - 1], 1.0 / h**2 + 10.0 * xg[ix] / (2 * h),
                    rtol=1e-13)
    assert_allclose(Ad[row, row + n0], 1.0 / h**2 - 20.0 * xg[iy] / (2 * h),
                    rtol=1e-13)
    assert_allclose(Ad[row, row + n0 * n0], 1.0 / h**2 - 30.0 * xg[iz] / (2 * h),
                    rtol=1e-13)


def test_cd3d_is_stable():
    lam = np.linalg.eigvals(gen_cd3d(3).toarray())
    assert lam.real.max() < 0


def test_cd_stores_no_zeros():
    # kron stores dense blocks on the smallest grids; the builder drops their zeros
    for gen in (gen_cd2d, gen_cd3d):
        for n0 in range(1, 7):
            assert np.all(gen(n0).data != 0.0), (gen.__name__, n0)


def test_gen_rhs_reproducible():
    B1 = gen_rhs(50, 3, seed=11)
    B2 = gen_rhs(50, 3, seed=11)
    assert B1.shape == (50, 3)
    assert B1.dtype == np.float64
    assert_array_equal(B1, B2)  # bit-identical, part of the CLI contract
    assert not np.array_equal(B1, gen_rhs(50, 3, seed=12))


def test_gen_rhs_range():
    B = gen_rhs(200, 2, seed=0)
    assert B.min() >= 0.0 and B.max() < 1.0
