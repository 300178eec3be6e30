"""Workload table and input generation for the lradi benchmark.

Each workload fixes a problem family, its size, the right-hand-side seed,
the tolerance and the shift strategy. The benchmark's ``--seed`` does not
redraw the right-hand side: it picks a random orthogonal mixing ``Q`` of
the columns of ``B`` (a sign when s = 1). ``B Q Q^T B^T = B B^T``, so the
Lyapunov equation, its solution and the ADI iteration are the same in
exact arithmetic for every seed. A freshly drawn right-hand side would
move the fem-multistep run from 96 to 122 steps between seeds and hide
any speed change in that spread. Seed 0 is the identity, so ``--seed 0``
runs exactly the inputs the baseline counts were measured on.

The FEM pair is built here because ``lradi.problems`` has no generator
for it: ``A = -K`` with the 1-D linear-element stiffness ``K`` and the
tridiagonal SPD mass ``M`` on n interior nodes.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """Parameters of one benchmark workload.

    ``size`` is the grid points per direction for cd2d/cd3d and the node
    count for fem; ``smoke_size`` replaces it in the seconds-long smoke
    mode the benchmark's own tests use.
    """

    problem: str
    size: int
    smoke_size: int
    s: int
    rhs_seed: int
    tol: float
    max_iterations: int
    strategy: str


WORKLOADS = {
    "cd2d-flagship": Workload("cd2d", 150, 16, 1, 7, 1e-8, 150,
                              "resmin+Z(8)+gauss-newton"),
    "cd3d-hres": Workload("cd3d", 18, 4, 1, 7, 1e-8, 150, "Z(4)+Hres"),
    "fem-multistep": Workload("fem", 16384, 512, 4, 0, 1e-10, 150,
                              "resmin+EK(3,1)+gauss-newton, g=5"),
}


def fem_pair(n):
    """(A, M) = (-K, M) for linear elements on n interior nodes of (0, 1)."""
    import scipy.sparse as sp

    h = 1.0 / (n + 1)
    K = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1], format="csc") / h
    M = sp.diags([np.ones(n - 1), 4.0 * np.ones(n), np.ones(n - 1)],
                 [-1, 0, 1], format="csc") * (h / 6.0)
    return -K, M


def column_mix(s, seed):
    """Seeded Haar-random s x s orthogonal matrix; the identity for seed 0."""
    if seed == 0:
        return np.eye(s)
    Q, R = np.linalg.qr(np.random.default_rng(seed).standard_normal((s, s)))
    return Q * np.sign(np.diag(R))


def build_inputs(workload, seed, smoke=False):
    """Generate (A, M, B) for a workload; M is None for the standard equation."""
    from lradi import gen_cd2d, gen_cd3d, gen_rhs

    size = workload.smoke_size if smoke else workload.size
    M = None
    if workload.problem == "cd2d":
        A = gen_cd2d(size)
    elif workload.problem == "cd3d":
        A = gen_cd3d(size)
    elif workload.problem == "fem":
        A, M = fem_pair(size)
    else:
        raise ValueError(f"unknown problem family {workload.problem!r}")
    B = gen_rhs(A.shape[0], workload.s, workload.rhs_seed) @ column_mix(workload.s, seed)
    return A, M, B


def true_residual(A, M, Z, B):
    """||A Z Z^T M^T + M Z Z^T A^T + B B^T||_2 / ||B^T B||_2 from the factors.

    With F = [A Z, M Z, B] = Q R the residual is Q (R K R^T) Q^T, where K
    swaps the two Z blocks, so its 2-norm is that of the small symmetric
    R K R^T. No n x n matrix is formed.
    """
    MZ = Z if M is None else M @ Z
    F = np.hstack([A @ Z, MZ, B])
    R = np.linalg.qr(F, mode="r")
    k, s = Z.shape[1], B.shape[1]
    RK = np.hstack([R[:, k:2 * k], R[:, :k], R[:, 2 * k:]])
    C = RK @ R.T
    C = 0.5 * (C + C.T)
    return float(np.max(np.abs(np.linalg.eigvalsh(C)))) / np.linalg.norm(B.T @ B, 2)
