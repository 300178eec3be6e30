"""Benchmark problem generators.

Finite-difference convection-diffusion operators on the unit square/cube
with homogeneous Dirichlet boundary, plus a reproducible right-hand-side
factory. These give stable (all eigenvalues in the open left half plane)
nonsymmetric test matrices whose stiffness grows like 1/h^2.
"""

import numpy as np
import scipy.sparse as sp


def _gen_cd(n0, coeffs):
    """Convection-diffusion operator on the n0^d interior grid, d = len(coeffs).

    Direction k (k = 0 is x and varies fastest) contributes the Kronecker
    term I_{n0^(d-1-k)} (x) (T - c_k X D1) (x) I_{n0^k}: centered second
    differences T, and c_k times the coordinate X = diag(x) times the
    centered first differences D1, on the interior nodes x_i = i h,
    i = 1..n0, h = 1/(n0+1). Returns a CSC matrix.
    """
    if n0 < 1:
        raise ValueError("n0 must be positive")
    h = 1.0 / (n0 + 1)
    T = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n0, n0), format="csr") / h**2
    D1 = sp.diags([-1.0, 1.0], [-1, 1], shape=(n0, n0), format="csr") / (2.0 * h)
    XD = sp.diags(h * np.arange(1, n0 + 1)) @ D1
    d = len(coeffs)
    terms = [sp.kron(sp.identity(n0 ** (d - 1 - k)), sp.kron(T - c * XD, sp.identity(n0**k)))
             for k, c in enumerate(coeffs)]
    A = sp.csc_matrix(sum(terms[1:], terms[0]))
    A.eliminate_zeros()  # for n0 <= 5 kron stores dense blocks, zeros included
    return A


def gen_cd2d(n0, cx=100.0, cy=1000.0):
    """2D convection-diffusion operator on an n0 x n0 interior grid.

    Discretizes Laplace(u) - cx * x * u_x - cy * y * u_y on (0,1)^2 with
    centered differences and Dirichlet boundary; the x index varies fastest
    in the Kronecker ordering. Returns an (n0^2, n0^2) CSC matrix.

    Parameters
    ----------
    n0
        Interior grid points per direction (matrix dimension n0**2).
    cx, cy
        Convection strengths of the x*u_x and y*u_y terms.
    """
    return _gen_cd(n0, (cx, cy))


def gen_cd3d(n0, cx=100.0, cy=1000.0, cz=10.0):
    """3D convection-diffusion operator on an n0^3 interior grid.

    Same construction as ``gen_cd2d`` with an additional cz * z * u_z term;
    the x index varies fastest, z slowest. Returns an (n0^3, n0^3) CSC
    matrix.
    """
    return _gen_cd(n0, (cx, cy, cz))


def gen_rhs(n, s, seed):
    """Reproducible dense right-hand-side factor.

    Returns ``np.random.default_rng(seed).random((n, s))``: uniform [0, 1)
    draws from a PCG64 generator. The generator and draw order are part of
    the contract — the same (n, s, seed) gives bitwise identical output on
    any platform.
    """
    if n < 1 or s < 1:
        raise ValueError("n and s must be positive")
    return np.random.default_rng(seed).random((n, s))
