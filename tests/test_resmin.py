from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sp
from numpy.testing import assert_allclose

from conftest import (
    explicit_extended_krylov,
    max_principal_angle,
    random_spd,
    random_stable,
)
from lradi import resmin
from lradi.engine import AdiState, LyapunovProblem, lr_adi_solve
from lradi.linalg import dense_schur
from lradi.resmin import (
    Bounds,
    CompressedObjective,
    ResminStrategy,
    ShiftObjectiveError,
    build_seed,
    compress_zh,
    derive_bounds,
    eval_gradient,
    eval_hessian,
    eval_objective,
    nls_residual_jacobian,
    optimize_shift,
    recycle_krylov,
    seed_compressed,
    tangential_reduce,
)
from lradi.strategies import StrategyConfig
from test_engine import run_shifts


def make_objective(rng, k=6, s=1, g=1, weighted=False, real_spectrum=False):
    """Random compressed objective with a stable Schur-form H."""
    H = random_stable(k, rng)
    if real_spectrum:
        H = np.diag(-rng.random(k) * 5 - 0.5)
    T, _ = dense_schur(H)
    Wt = rng.standard_normal((k, s)) + 1j * rng.standard_normal((k, s))
    weight = None
    if weighted:
        weight = np.triu(rng.standard_normal((k, k))) + k * np.eye(k)
    co = CompressedObjective(H=T, Wtil=Wt, weight=weight, g=g,
                             bounds=derive_bounds(np.diag(T)))
    return co


def dense_cayley_objective(co, nu, xi):
    alpha = complex(nu, xi)
    k = co.size
    C = np.linalg.solve((co.H + alpha * np.eye(k)).T,
                        (co.H - np.conj(alpha) * np.eye(k)).T).T
    X = np.linalg.matrix_power(C, co.g) @ co.Wtil
    if co.weight is not None:
        X = co.weight @ X
    return np.linalg.norm(X, 2) ** 2


# ---------------------------------------------------------------------------
# seed construction
# ---------------------------------------------------------------------------

def test_build_seed_exact_two_dim():
    A = sp.csr_matrix(np.diag([-1.0, -2.0]))
    B = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    problem = LyapunovProblem(A, B)
    seed = build_seed(problem, p=2, m=0)
    assert seed.Q.shape == (2, 2)
    assert_allclose(np.sort(np.linalg.eigvals(seed.H).real), [-2.0, -1.0],
                    atol=1e-12)
    assert seed.n_factorizations == 0


def test_build_seed_rayleigh_block():
    rng = np.random.default_rng(0)
    n, s = 20, 2
    A = random_stable(n, rng)
    B = rng.standard_normal((n, s))
    problem = LyapunovProblem(sp.csr_matrix(A), B)
    seed = build_seed(problem, p=1, m=0)
    assert seed.Q.shape == (n, s)
    assert_allclose(seed.H, seed.Q.T @ A @ seed.Q, atol=1e-10)


def test_build_seed_invariants():
    rng = np.random.default_rng(1)
    n, s = 60, 2
    A = random_stable(n, rng)
    B = rng.standard_normal((n, s))
    problem = LyapunovProblem(sp.csr_matrix(A), B)
    seed = build_seed(problem, p=2, m=2)
    Q = seed.Q
    assert_allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-10)
    assert_allclose(seed.P, A @ Q, atol=1e-10)  # stored images are exact
    assert_allclose(seed.H, Q.conj().T @ A @ Q, atol=1e-10)
    assert_allclose(Q[:, :s] @ seed.eta, B, atol=1e-10)  # span contains B
    assert seed.n_factorizations == 1  # one solve operator for m >= 1


def test_build_seed_matches_explicit_basis():
    rng = np.random.default_rng(2)
    n = 40
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 2))
    problem = LyapunovProblem(sp.csr_matrix(A), B)
    for p, m in [(2, 0), (2, 1), (1, 2)]:
        seed = build_seed(problem, p=p, m=m)
        Q_ref = explicit_extended_krylov(A, B, p, m)
        assert max_principal_angle(seed.Q, Q_ref) < 1e-10


def test_build_seed_requires_forward_order():
    problem = LyapunovProblem(sp.csr_matrix(-np.eye(4)), np.ones((4, 1)))
    with pytest.raises(ValueError):
        build_seed(problem, p=0, m=2)


def test_build_seed_breakdown_truncates():
    # B's second column repeats the first: the block deflates immediately
    rng = np.random.default_rng(3)
    A = sp.csr_matrix(random_stable(12, rng))
    b = rng.standard_normal((12, 1))
    problem = LyapunovProblem(A, np.hstack([b, b]))
    seed = build_seed(problem, p=3, m=0)
    Q = seed.Q
    assert Q.shape[1] < 3 * 2  # fewer columns than the full request
    assert_allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-10)


def test_build_seed_generalized_operator():
    rng = np.random.default_rng(4)
    n = 24
    A = random_stable(n, rng)
    M = random_spd(n, rng)
    B = rng.standard_normal((n, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, M=sp.csr_matrix(M))
    seed = build_seed(problem, p=2, m=1)
    F = np.linalg.solve(M, A)
    Bm = np.linalg.solve(M, B)
    Q_ref = explicit_extended_krylov(F, Bm, 2, 1)
    assert max_principal_angle(seed.Q, Q_ref) < 1e-9
    assert_allclose(seed.H, seed.Q.conj().T @ F @ seed.Q, atol=1e-8)


# ---------------------------------------------------------------------------
# compressions
# ---------------------------------------------------------------------------

def test_seed_compressed_stable_and_rotated():
    rng = np.random.default_rng(5)
    A = random_stable(20, rng)
    B = rng.standard_normal((20, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B)
    seed = build_seed(problem, p=2, m=1)
    co = seed_compressed(seed, problem)
    assert np.all(np.diag(co.H).real < 0)
    assert_allclose(np.tril(co.H, -1), 0, atol=1e-12)
    # unitary rotation preserves the compressed residual norm
    assert_allclose(np.linalg.norm(co.Wtil), np.linalg.norm(seed.Q.T @ B),
                    rtol=1e-12)


def test_compress_zh_consistent_with_own_restriction():
    rng = np.random.default_rng(6)
    n = 20
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 1))
    state = run_shifts(sp.csr_matrix(A), B, [-2.0, -5.0])
    co = compress_zh(state, h=1)
    Q = co.Q
    assert Q.shape[1] == 1  # one block of the window
    assert_allclose(np.linalg.norm(co.Wtil), np.linalg.norm(Q.conj().T @ state.W),
                    rtol=1e-12)
    # the compressed objective is exactly the dense objective of (Q*AQ, Q*W)
    Hr = Q.conj().T @ A @ Q
    Wr = Q.conj().T @ state.W
    for alpha in (-0.5, -2.0, -7.0):
        C = np.linalg.solve((Hr + alpha * np.eye(1)).T,
                            (Hr - alpha * np.eye(1)).T).T
        exact = np.linalg.norm(C @ Wr, 2) ** 2
        assert_allclose(eval_objective(co, alpha, 0.0), exact, rtol=1e-10)


def test_compress_zh_full_window_spectrum():
    rng = np.random.default_rng(7)
    n = 18
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 1))
    state = run_shifts(sp.csr_matrix(A), B, [-1.0, -3.0, -9.0])
    co = compress_zh(state, h=3)
    Q, _ = np.linalg.qr(state.Z)
    lam_explicit = np.linalg.eigvals(Q.T @ A @ Q)
    assert_allclose(np.sort_complex(np.diag(co.H)),
                    np.sort_complex(lam_explicit), atol=1e-9)


def test_recycle_matches_direct_extended_krylov():
    rng = np.random.default_rng(8)
    n = 40
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=0.0, max_iterations=99)
    seed = build_seed(problem, p=2, m=1)
    state = run_shifts(problem.A, B, [-0.5, -1.0, -2.0, -4.0, -8.0])
    state.problem = problem
    co = recycle_krylov(seed, state, problem)
    Qj = co.Q
    Q_ref = explicit_extended_krylov(A, state.W, 2, 1)
    # recycled span contains the directly built EK space of (A, W_j)
    assert max_principal_angle(Q_ref, Qj) < 1e-8
    # restriction agrees with the explicit one up to the Schur rotation
    lam = np.linalg.eigvals(Qj.conj().T @ A @ Qj)
    gaps = np.abs(np.diag(co.H)[:, None] - lam[None, :]).min(axis=1)
    assert gaps.max() < 1e-9 * np.linalg.norm(A, 2)


def test_recycle_handles_conjugate_pairs():
    rng = np.random.default_rng(9)
    n = 36
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=0.0, max_iterations=99)
    seed = build_seed(problem, p=1, m=2)
    state = run_shifts(problem.A, B, [-1.0, -2.0 + 1.5j, -0.7 + 0.3j])
    state.problem = problem
    co = recycle_krylov(seed, state, problem)
    Q_ref = explicit_extended_krylov(A, state.W, 1, 2)
    assert max_principal_angle(Q_ref, co.Q) < 1e-8


def test_recycle_short_history_contains_residual():
    rng = np.random.default_rng(10)
    n = 25
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=0.0, max_iterations=99)
    seed = build_seed(problem, p=1, m=0)
    state = run_shifts(problem.A, B, [-1.0])
    state.problem = problem
    co = recycle_krylov(seed, state, problem)
    Qj = co.Q
    gap = np.linalg.norm(state.W - Qj @ (Qj.conj().T @ state.W))
    assert gap <= 1e-10 * np.linalg.norm(state.W)


@pytest.mark.parametrize("shifts", [
    [-1.0, -2.0 + 1.0j],  # short history: the basis grows by all of Z
    [-1.0, -2.0 + 1.0j, -0.5, -4.0, -0.8 + 0.6j],
], ids=["short", "long"])
def test_recycle_generalized_weight_and_ritz_values(shifts, monkeypatch):
    # with a mass matrix the weighted objective is ||M Qj U f(T) Wt||^2 for
    # the model's Schur rotation U, and the Ritz values are those of the
    # explicit restriction Qj^* M^{-1} A Qj
    rng = np.random.default_rng(30)
    n, s = 40, 2
    F = rng.standard_normal((n, n))
    A = -random_spd(n, rng) + 0.3 * (F - F.T)
    M = random_spd(n, rng)
    B = rng.standard_normal((n, s))
    problem = LyapunovProblem(sp.csr_matrix(A), B, M=sp.csr_matrix(M),
                              tol=0.0, max_iterations=99)
    seed = build_seed(problem, p=2, m=1)
    state = run_shifts(problem.A, B, shifts, M=problem.M)
    state.problem = problem
    rotations = []
    stabilize = resmin.schur_stabilize

    def recording(H):
        out = stabilize(H)
        rotations.append(out[1])
        return out

    monkeypatch.setattr(resmin, "schur_stabilize", recording)
    co = replace(recycle_krylov(seed, state, problem), g=2)
    (U,) = rotations
    assert co.n_stabilized == 0
    Qj, T, Wt = co.Q, co.H, co.Wtil
    lam = np.linalg.eigvals(Qj.T @ np.linalg.solve(M, A @ Qj))
    gaps = np.abs(np.diag(T)[:, None] - lam[None, :]).min(axis=1)
    assert gaps.max() < 1e-9 * np.abs(lam).max()
    I = np.eye(Qj.shape[1])
    b = co.bounds
    for nu, xi in [(b.nu_minus, 0.0), (0.5 * (b.nu_minus + b.nu_plus), 0.3 * b.xi_plus),
                   (b.nu_plus, b.xi_plus)]:
        alpha = complex(nu, xi)
        C = np.linalg.solve((T + alpha * I).T, (T - np.conj(alpha) * I).T).T
        exact = np.linalg.norm(M @ Qj @ U @ C @ C @ Wt, 2) ** 2
        assert_allclose(eval_objective(co, nu, xi), exact, rtol=1e-12)


# ---------------------------------------------------------------------------
# objective and derivatives
# ---------------------------------------------------------------------------

def test_objective_zero_limit():
    rng = np.random.default_rng(11)
    co = make_objective(rng, s=2)
    base = np.linalg.norm(co.Wtil, 2) ** 2
    assert_allclose(eval_objective(co, -1e-14, 0.3), base, rtol=1e-10)


def test_objective_exact_annihilation():
    co = CompressedObjective(H=np.array([[-1.0 + 0j]]),
                             Wtil=np.array([[1.0 + 0j]]),
                             bounds=Bounds(-1.5, -0.5, 0.0, True))
    assert eval_objective(co, -1.0, 0.0) == pytest.approx(0.0, abs=1e-28)


def test_objective_matches_dense_cayley():
    rng = np.random.default_rng(12)
    for g, s, weighted in [(1, 1, False), (2, 2, False), (3, 1, True)]:
        co = make_objective(rng, s=s, g=g, weighted=weighted)
        for _ in range(5):
            nu = rng.uniform(co.bounds.nu_minus, co.bounds.nu_plus)
            xi = rng.uniform(0, co.bounds.xi_plus)
            assert_allclose(eval_objective(co, nu, xi),
                            dense_cayley_objective(co, nu, xi), rtol=1e-11)


def test_objective_singularity_sentinel():
    co = CompressedObjective(H=np.diag([-1.0 + 0j, -2.0 + 0j]),
                             Wtil=np.ones((2, 1), dtype=complex))
    assert eval_objective(co, 1.0, 0.0) == np.inf  # alpha = -lambda_1
    co = make_objective(np.random.default_rng(14), s=2)
    for lam in np.diag(co.H):  # alpha = -lambda of a full triangular H
        assert eval_objective(co, -lam.real, -lam.imag) == np.inf


@pytest.mark.parametrize("order", ["C", "F"])
def test_solve_L_matches_solve_triangular(order):
    rng = np.random.default_rng(15)
    for k, s in [(1, 1), (6, 1), (9, 3)]:
        L = np.triu(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        L[np.diag_indices(k)] += 3.0
        X = rng.standard_normal((k, s)) + 1j * rng.standard_normal((k, s))
        ref = spla.solve_triangular(L, X)
        got = resmin._solve_L(np.asarray(L, order=order), X)
        assert_allclose(got, ref, rtol=0, atol=1e-14 * np.abs(ref).max())


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_extend_qr_r_keeps_the_gram_matrix(dtype):
    # the extended R factor has the Gram matrix of the whole block [K0, X]
    rng = np.random.default_rng(16)

    def draw(*shape):
        X = rng.standard_normal(shape)
        return X + 1j * rng.standard_normal(shape) if dtype is np.complex128 else X

    K0 = draw(200, 6)
    Q0, R0 = np.linalg.qr(K0)
    for X in (draw(200, 4), K0[:, :2] @ draw(2, 3) + 1e-6 * draw(200, 3)):
        K = np.hstack([K0, X])
        R = resmin._extend_qr_r(Q0, R0, X)
        assert R.shape == (K.shape[1], K.shape[1])
        assert_allclose(R[:, :6], np.vstack([R0, np.zeros((X.shape[1], 6))]), atol=0)
        gram = K.conj().T @ K
        assert_allclose(R.conj().T @ R, gram, rtol=0, atol=1e-13 * np.abs(gram).max())
    assert resmin._extend_qr_r(Q0, R0, np.empty((200, 0), dtype=dtype)) is R0


def fd_gradient(co, nu, xi, h=1e-6):
    d = max(abs(nu), 1.0) * h
    gn = (eval_objective(co, nu + d, xi) - eval_objective(co, nu - d, xi)) / (2 * d)
    gx = (eval_objective(co, nu, xi + d) - eval_objective(co, nu, xi - d)) / (2 * d)
    return np.array([gn, gx])


def sample_point(co, rng):
    b = co.bounds
    nu = rng.uniform(b.nu_minus, b.nu_plus)
    xi = rng.uniform(0.1 * max(b.xi_plus, 1e-3), max(b.xi_plus, 1e-3))
    return nu, xi


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 12:
        g = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        co = make_objective(rng, s=s, g=g, weighted=bool(rng.integers(2)))
        nu, xi = sample_point(co, rng)
        try:
            grad = eval_gradient(co, nu, xi)
        except ShiftObjectiveError:
            continue
        ref = fd_gradient(co, nu, xi)
        assert_allclose(grad, ref, rtol=1e-5, atol=1e-7 * max(1, abs(ref).max()))
        checked += 1


def test_gradient_xi_component_vanishes_for_real_symmetric():
    rng = np.random.default_rng(14)
    k = 5
    H = np.diag(-rng.random(k) - 0.5)
    co = CompressedObjective(H=H.astype(complex),
                             Wtil=rng.standard_normal((k, 1)).astype(complex),
                             bounds=derive_bounds(np.diag(H)))
    grad = eval_gradient(co, -1.0, 0.0)
    assert grad[1] == pytest.approx(0.0, abs=1e-12)


def fd_hessian(co, nu, xi, h=1e-4):
    d = max(abs(nu), 1.0) * h

    def gg(a, b):
        return eval_objective(co, a, b)

    hnn = (gg(nu + d, xi) - 2 * gg(nu, xi) + gg(nu - d, xi)) / d**2
    hxx = (gg(nu, xi + d) - 2 * gg(nu, xi) + gg(nu, xi - d)) / d**2
    hnx = (gg(nu + d, xi + d) - gg(nu + d, xi - d)
           - gg(nu - d, xi + d) + gg(nu - d, xi - d)) / (4 * d**2)
    return np.array([[hnn, hnx], [hnx, hxx]])


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 8:
        g = int(rng.integers(1, 4))
        s = int(rng.integers(1, 3))
        co = make_objective(rng, s=s, g=g)
        nu, xi = sample_point(co, rng)
        try:
            Hm = eval_hessian(co, nu, xi)
        except ShiftObjectiveError:
            continue
        assert_allclose(Hm, Hm.T, atol=0)  # exactly symmetric
        ref = fd_hessian(co, nu, xi)
        scale = max(1.0, np.abs(ref).max())
        assert_allclose(Hm, ref, rtol=1e-4, atol=1e-4 * scale)
        checked += 1


def test_jacobian_consistent_with_objective_and_fd():
    rng = np.random.default_rng(16)
    for g in (1, 2):
        co = make_objective(rng, s=1, g=g)
        nu, xi = sample_point(co, rng)
        r, J = nls_residual_jacobian(co, nu, xi)
        assert_allclose(0.5 * (r @ r), eval_objective(co, nu, xi), rtol=1e-12)
        d = 1e-7 * max(abs(nu), 1.0)
        for col, (dn, dx) in enumerate([(d, 0.0), (0.0, d)]):
            rp, _ = nls_residual_jacobian(co, nu + dn, xi + dx)
            rm, _ = nls_residual_jacobian(co, nu - dn, xi - dx)
            assert_allclose(J[:, col], (rp - rm) / (2 * d), rtol=1e-6,
                            atol=1e-6 * max(1.0, np.abs(J).max()))


def test_gradient_rejects_coalescent_gram():
    # two identical residual directions make the top Gram eigenvalue double
    H = np.diag([-1.0 + 0j, -1.0 + 0j])
    co = CompressedObjective(H=H, Wtil=np.eye(2, dtype=complex))
    with pytest.raises(ShiftObjectiveError):
        eval_gradient(co, -0.5, 0.0)


# ---------------------------------------------------------------------------
# tangential reduction, bounds
# ---------------------------------------------------------------------------

def test_tangential_reduce_rank_one_exact():
    rng = np.random.default_rng(17)
    co = make_objective(rng, s=3)
    u = rng.standard_normal((co.size, 1)) + 1j * rng.standard_normal((co.size, 1))
    v = rng.standard_normal((1, 3))
    co = CompressedObjective(H=co.H, Wtil=u @ v, bounds=co.bounds)
    red = tangential_reduce(co)
    assert red.Wtil.shape[1] == 1
    nu, xi = sample_point(co, rng)
    assert_allclose(eval_objective(red, nu, xi), eval_objective(co, nu, xi),
                    rtol=1e-10)


def test_tangential_reduce_is_lower_bound():
    rng = np.random.default_rng(18)
    co = make_objective(rng, s=3)
    red = tangential_reduce(co)
    assert_allclose(np.linalg.norm(red.Wtil, 2), np.linalg.norm(co.Wtil, 2),
                    rtol=1e-12)  # ||Wt t|| = sigma_max
    for _ in range(1000):
        nu, xi = sample_point(co, rng)
        lhs = eval_objective(red, nu, xi)
        rhs = eval_objective(co, nu, xi)
        assert lhs <= rhs * (1 + 1e-12) + 1e-15


def test_derive_bounds_real_spectrum():
    b = derive_bounds(np.array([-1.0, -10.0]))
    assert (b.nu_minus, b.nu_plus, b.xi_plus) == (-10.0, -1.0, 0.0)
    assert b.real_axis


def test_derive_bounds_clustered_pair_inflates():
    b = derive_bounds(np.array([-2.0 + 5.0j, -2.0 - 5.0j]))
    assert_allclose([b.nu_minus, b.nu_plus], [-3.0, -1.0])
    assert b.xi_plus == 5.0
    assert not b.real_axis


def test_derive_bounds_always_stable_box():
    rng = np.random.default_rng(19)
    for _ in range(20):
        lam = -rng.random(6) * 10 - 1e-3 + 1j * rng.standard_normal(6)
        b = derive_bounds(lam)
        assert b.nu_minus <= b.nu_plus < 0


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["gauss-newton", "newton-trust"])
def test_optimizer_exact_on_scalar(method):
    co = CompressedObjective(H=np.array([[-1.0 + 0j]]),
                             Wtil=np.array([[1.0 + 0j]]),
                             bounds=Bounds(-2.0, -0.25, 0.0, True))
    for guess in (None, -0.3, -1.8):
        alpha, info = optimize_shift(co, x0=guess, method=method)
        assert alpha == pytest.approx(-1.0, abs=1e-8)
        assert info["value"] <= 1e-20


@pytest.mark.parametrize("method", ["gauss-newton", "newton-trust"])
def test_optimizer_beats_grid_oracle(method):
    rng = np.random.default_rng(20)
    for _ in range(3):
        co = make_objective(rng, k=8, s=1)
        alpha, info = optimize_shift(co, method=method)
        b = co.bounds
        nus = np.linspace(b.nu_minus, b.nu_plus, 200)
        xis = np.linspace(0, b.xi_plus, 200) if not b.real_axis else [0.0]
        grid_min = min(eval_objective(co, nu, xi) for nu in nus for xi in xis)
        assert info["value"] <= 1.05 * grid_min + 1e-14


def test_optimizer_real_spectrum_stays_real():
    rng = np.random.default_rng(21)
    co = make_objective(rng, real_spectrum=True)
    alpha, _ = optimize_shift(co)
    assert alpha.imag == 0.0


def test_optimizer_argmin_scale_invariant():
    rng = np.random.default_rng(22)
    co = make_objective(rng, k=6, s=1)
    a1, i1 = optimize_shift(co)
    co_scaled = CompressedObjective(H=co.H, Wtil=100.0 * co.Wtil,
                                    bounds=co.bounds)
    a2, i2 = optimize_shift(co_scaled)
    # argmin agreement is limited by the step tolerance; the objective is
    # flat at the minimum so the scaled value is the sharp invariant
    assert_allclose([a2.real, a2.imag], [a1.real, a1.imag], atol=1e-4)
    assert_allclose(i2["value"], 1e4 * i1["value"], rtol=1e-6)


def test_optimizer_unknown_method():
    rng = np.random.default_rng(23)
    with pytest.raises(ValueError):
        optimize_shift(make_objective(rng), method="bfgs")


# ---------------------------------------------------------------------------
# strategy driver
# ---------------------------------------------------------------------------

def test_resmin_first_shift_negative_identity():
    B = np.zeros((30, 1))
    B[0, 0] = 1.0
    problem = LyapunovProblem(sp.csr_matrix(-np.eye(30)), B)
    strat = ResminStrategy(StrategyConfig(kind="resmin", subspace="EK", p=1, m=1))
    alpha = strat.next_shift(AdiState(problem), problem).alpha
    assert alpha == pytest.approx(-1.0, abs=1e-9)
    assert strat.last_info["compression"].source == "seed"
    assert strat.n_factorizations == 1


def test_resmin_never_worse_than_guess():
    rng = np.random.default_rng(24)
    n = 64
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-12, max_iterations=20)
    strat = ResminStrategy(StrategyConfig(kind="resmin", subspace="EK", p=2, m=1))
    state = AdiState(problem)
    from lradi.engine import normalize_shift, run_multistep_group
    from lradi.linalg import sparse_shifted_factorize

    def dense_psi(alpha, W):
        C = np.linalg.solve((A + alpha * np.eye(n)).T,
                            (A - np.conj(alpha) * np.eye(n)).T).T
        return np.linalg.norm(C @ W, 2) ** 2

    for _ in range(4):
        prop = strat.next_shift(state, problem)
        info = strat.last_info
        a = normalize_shift(prop.alpha)
        # optimizing the compressed objective also improves the exact one
        # at least at the initial guess it polished
        assert dense_psi(a, state.W) <= dense_psi(info["guess"], state.W) * (1 + 1e-6)
        fact = sparse_shifted_factorize(problem.A, a)
        run_multistep_group(state, fact, 1)


def test_resmin_strategy_counts_seed_factorization():
    rng = np.random.default_rng(25)
    A = random_stable(30, rng)
    B = rng.standard_normal((30, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-8, max_iterations=60)
    strat = ResminStrategy(StrategyConfig(kind="resmin", subspace="EK", p=2, m=1))
    report = lr_adi_solve(problem, strat)
    assert report.converged
    pairs = sum(1 for a in report.shifts if a.imag > 0)
    assert report.n_factorizations == report.iterations - pairs + 1


def test_resmin_multistep_reuses_factorizations():
    rng = np.random.default_rng(26)
    A = random_stable(40, rng)
    B = rng.standard_normal((40, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-9, max_iterations=80)
    rep1 = lr_adi_solve(problem, ResminStrategy(
        StrategyConfig(kind="resmin", subspace="EK", p=2, m=1, g=1)))
    rep3 = lr_adi_solve(problem, ResminStrategy(
        StrategyConfig(kind="resmin", subspace="EK", p=2, m=1, g=3)))
    assert rep1.converged and rep3.converged
    assert rep3.n_factorizations < rep1.n_factorizations


def test_resmin_generalized_problem():
    rng = np.random.default_rng(27)
    n = 30
    A = random_stable(n, rng)
    M = random_spd(n, rng)
    B = rng.standard_normal((n, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, M=sp.csr_matrix(M),
                              tol=1e-9, max_iterations=80)
    report = lr_adi_solve(problem, ResminStrategy(
        StrategyConfig(kind="resmin", subspace="EK", p=2, m=1)))
    assert report.converged
