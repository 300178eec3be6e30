import logging
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import least_squares

from conftest import (
    explicit_extended_krylov,
    fd_gradient,
    fd_hessian,
    fem_pair,
    make_objective,
    max_principal_angle,
    random_spd,
    random_stable,
    run_shifts,
    sample_point,
    spectral_grid_minimum,
)
from lradi import resmin
from lradi.cli import parse_strategy
from lradi.engine import AdiState, LyapunovProblem, lr_adi_solve, real_SG
from lradi.problems import gen_cd2d, gen_rhs
from lradi.resmin import (
    Bounds,
    CompressedObjective,
    ShiftObjectiveError,
    build_seed,
    compress_zh,
    derive_bounds,
    eval_derivatives,
    eval_objective,
    nls_residual_jacobian,
    optimize_shift,
    recycle_krylov,
    seed_compressed,
)
from lradi.strategies import CyclicShifts, StrategyConfig, make_strategy


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
    assert problem.pencil.n_factorizations == 0


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
    Q1 = Q[:, :s]
    assert_allclose(Q1 @ (Q1.T @ B), B, atol=1e-10)  # span contains B
    assert problem.pencil.n_factorizations == 1  # one solve operator for m >= 1


def test_build_seed_keeps_starting_block_dwarfed_by_its_inverse_image(caplog):
    # the largest column of [B, A^{-1} B] is about 1e6 here, so one block
    # orthogonalization of both would drop the second column of B,
    # independent of the first only to 1e-6, from the seed space
    rng = np.random.default_rng(0)
    A = sp.diags(np.r_[-1e-6, -np.linspace(1.0, 10.0, 49)]).tocsr()
    b, r = rng.standard_normal((2, 50))
    B = np.column_stack([b, b + 1e-6 * r])
    problem = LyapunovProblem(A, B)
    with caplog.at_level(logging.WARNING, logger="lradi.resmin"):
        seed = build_seed(problem, p=1, m=1)
    Q1 = seed.Q[:, :2]
    assert np.linalg.norm(Q1 @ (Q1.T @ B) - B) <= 1e-12 * np.linalg.norm(B)
    assert not caplog.records


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
    co = seed_compressed(seed)
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


def test_ritz_update_falls_back_on_ill_conditioned_window(caplog):
    # four steps with the one shift -1 on the FEM pair: the window's columns
    # are nearly dependent, so the restriction is formed explicitly
    A, M = fem_pair(300)
    problem = LyapunovProblem(A, gen_rhs(300, 2, 0), M=M, tol=1e-8, max_iterations=4)
    _, state = lr_adi_solve(problem, CyclicShifts([-1.0]), return_state=True)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="lradi.resmin"):
        co = resmin.ritz_update(state, 4)
    assert [r.getMessage() for r in caplog.records] == [
        "window QR factor ill-conditioned; used explicit restriction"]
    assert co.used_fallback and (co.window_start, co.size) == (0, 8)
    Q, _ = np.linalg.qr(state.Z[:, 2 * co.window_start:])
    lam = np.linalg.eigvals(np.linalg.solve(Q.T @ (M @ Q), Q.T @ (A @ Q)))
    lam = np.where(lam.real >= 0.0, -lam, lam)  # unstable Ritz values negated
    assert_allclose(np.sort_complex(co.eigenvalues), np.sort_complex(lam),
                    rtol=1e-10, atol=0)


def test_ritz_update_needs_a_completed_step():
    problem = LyapunovProblem(sp.csr_matrix(-np.eye(4)), np.ones((4, 1)))
    with pytest.raises(ValueError, match="completed step"):
        resmin.ritz_update(AdiState(problem), 4)


def test_recycle_matches_direct_extended_krylov():
    rng = np.random.default_rng(8)
    n = 40
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=0.0, max_iterations=99)
    seed = build_seed(problem, p=2, m=1)
    state = run_shifts(problem.A, B, [-0.5, -1.0, -2.0, -4.0, -8.0])
    state.problem = problem
    co = recycle_krylov(seed, state)
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
    co = recycle_krylov(seed, state)
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
    co = recycle_krylov(seed, state)
    Qj = co.Q
    gap = np.linalg.norm(state.W - Qj @ (Qj.conj().T @ state.W))
    assert gap <= 1e-10 * np.linalg.norm(state.W)


def recorded_restriction(monkeypatch):
    """Record the restriction H that recycle_krylov hands to the Schur step,
    and the Schur rotation U it gets back."""
    calls = []
    stabilize = resmin.schur_stabilize

    def recording(H):
        out = stabilize(H)
        calls.append((np.array(H), out[1]))
        return out

    monkeypatch.setattr(resmin, "schur_stabilize", recording)
    return calls


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
    calls = recorded_restriction(monkeypatch)
    co = replace(recycle_krylov(seed, state), g=2)
    (_, U), = calls
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


def shift_history(shifts):
    """An executed history as AdiState stores it (a complex entry is a whole pair)."""
    history = []
    for alpha in map(complex, shifts):
        history += [alpha] if alpha.imag == 0 else [alpha, alpha.conjugate()]
    return history


HISTORIES = {
    "real-short": [-1.0, -3.0],
    "real-long": [-0.5, -2.0, -7.0, -1.3, -30.0, -0.9, -4.0],
    "pair-short": [-1.0 + 2.0j],
    "pair-long": [-1.0, -2.0 + 1.0j, -0.5, -6.0 + 9.0j, -0.8 + 0.1j, -3.0],
}


@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("history", sorted(HISTORIES))
def test_history_basis_spans_full_extended_krylov(history, s):
    # kron(q, I_s) spans the extended Krylov space of the full structured
    # factors (S_r, G_r) = real_SG(shifts, s), built at full dimension
    # incrementally and from explicit power blocks
    shifts = shift_history(HISTORIES[history])
    S, g = real_SG(shifts, 1)
    for p, m in [(3, 1), (2, 2)]:
        q = resmin.history_krylov_basis(S, g, p, m)
        assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-14)
        S_r, G_r = real_SG(shifts, s)
        Q_inc, _, _ = resmin.extended_krylov_basis(
            lambda X: S_r @ X, lambda X: np.linalg.solve(S_r, X), G_r, p, m)
        Q = np.kron(q, np.eye(s))
        for Q_ref in (Q_inc, explicit_extended_krylov(S_r, G_r, p, m)):
            assert Q.shape == Q_ref.shape
            assert max_principal_angle(Q, Q_ref) <= 1e-12


@pytest.mark.parametrize("mass", [False, True], ids=["no-M", "M"])
@pytest.mark.parametrize("block", ["full", "rank-deficient"])
def test_recycled_restriction_matches_dense(block, mass, monkeypatch):
    # H equals the dense Qj^* M^{-1} A Qj over the recycled basis; in the
    # rank-deficient case A and M leave an 8-dimensional subspace containing
    # B invariant, so block_orth keeps fewer columns than the block has
    rng = np.random.default_rng(31)
    n, s = 40, 2
    A = random_stable(n, rng)
    M = random_spd(n, rng) if mass else None
    B = rng.standard_normal((n, s))
    if block == "rank-deficient":
        A[:8, 8:] = A[8:, :8] = 0.0
        if mass:
            M[:8, 8:] = M[8:, :8] = 0.0
        B[8:] = 0.0
    Ms = sp.csr_matrix(M) if mass else None
    F = A if M is None else np.linalg.solve(M, A)
    # shifts on the scale of the spectrum, as the iteration's own are
    scale = np.abs(np.linalg.eigvals(F)).max() / 16.0
    problem = LyapunovProblem(sp.csr_matrix(A), B, M=Ms, tol=0.0, max_iterations=99)
    seed = build_seed(problem, p=2, m=1)
    shifts = scale * np.array([-1.0, -2.0 + 1.0j, -0.5, -4.0, -0.8 + 0.6j])
    state = run_shifts(problem.A, B, list(shifts), M=Ms)
    state.problem = problem
    calls = recorded_restriction(monkeypatch)
    co = recycle_krylov(seed, state)
    (H, _), = calls
    Qj = co.Q
    ref = Qj.T @ F @ Qj
    # the new columns' images are divided by the pivot block of the
    # orthogonalization, so rounding grows with its condition (2e-11 here
    # in the rank-deficient case with M)
    assert_allclose(H, ref, rtol=0, atol=1e-10 * np.abs(ref).max())
    kadd = Qj.shape[1] - seed.Q.shape[1]
    w = resmin.history_krylov_basis(*real_SG(state.shifts, 1), 2, 1).shape[1] * s
    if block == "rank-deficient":
        assert Qj.shape[1] == 8 and 0 < kadd < w
    else:
        assert kadd == w


def test_recycled_weight_gram_on_fem_pair(monkeypatch):
    # weight^* weight = U^* (M Qj)^* (M Qj) U for the Schur rotation U
    A, M = fem_pair(512)
    B = np.random.default_rng(32).random((512, 2))
    problem = LyapunovProblem(A, B, M=M, tol=0.0, max_iterations=99)
    seed = build_seed(problem, p=3, m=1)
    state = run_shifts(A, B, -np.geomspace(5.0, 5e4, 7), M=M)
    state.problem = problem
    calls = recorded_restriction(monkeypatch)
    co = recycle_krylov(seed, state)
    (_, U), = calls
    MQU = M @ co.Q @ U
    gram = MQU.conj().T @ MQU
    assert co.Q.shape[1] > seed.Q.shape[1]
    assert_allclose(co.weight.conj().T @ co.weight, gram, rtol=0,
                    atol=1e-13 * np.abs(gram).max())


def test_recycled_solve_with_ill_conditioned_mass():
    # an SPD M of condition 1e9 leaves the weight's Gram complement at the
    # rounding level; the shifted Cholesky keeps the solve going
    n = 300
    A, _ = fem_pair(n)
    d = np.geomspace(1.0, 1e-9, n)
    M = sp.diags([0.25 * np.sqrt(d[:-1] * d[1:]), d, 0.25 * np.sqrt(d[:-1] * d[1:])],
                 [-1, 0, 1], format="csr")
    assert np.linalg.cond(M.toarray()) > 1e8
    B = np.random.default_rng(33).random((n, 2))
    problem = LyapunovProblem(A, B, M=M, tol=1e-8, max_iterations=60)
    report, state = lr_adi_solve(
        problem, make_strategy(parse_strategy("resmin+EK(3,1)+gn, g=2")),
        return_state=True)
    assert report.iterations >= 1
    assert np.all(np.isfinite(state.Z))


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
                             bounds=Bounds(-1.5, -0.5, 0.0))
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


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("g", [1, 3])
def test_grid_objective_matches_pointwise(g, s, weighted):
    rng = np.random.default_rng(18)
    for real_spectrum in (False, True):
        co = make_objective(rng, k=7, s=s, g=g, weighted=weighted,
                            real_spectrum=real_spectrum)
        b = co.bounds
        lam = np.diag(co.H)[2]
        # the last grid point is alpha = -lambda, a pole of the objective
        nus = np.append(np.linspace(b.nu_minus, b.nu_plus, 24), -lam.real)
        xis = np.append(np.linspace(0.0, max(b.xi_plus, 1.0), 12), -lam.imag)
        vals = resmin.grid_objective(co, nus, xis)
        ref = np.array([eval_objective(co, nu, xi) for nu in nus for xi in xis])
        assert vals[-1] == np.inf
        assert np.array_equal(np.isinf(vals), np.isinf(ref))
        finite = np.isfinite(ref)
        assert finite.sum() >= 24 * 12
        assert_allclose(vals[finite], ref[finite], rtol=1e-13, atol=0)


@pytest.mark.parametrize("s", [1, 3])
def test_grid_objective_without_admissible_point(s):
    # alpha = 1 is the negative of H's only eigenvalue
    co = CompressedObjective(H=np.array([[-1.0 + 0j]]), Wtil=np.ones((1, s), dtype=complex))
    assert_array_equal(resmin.grid_objective(co, [1.0], [0.0]), [np.inf])


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


def test_extend_qr_r_rejects_a_non_finite_block():
    rng = np.random.default_rng(18)
    Q0, R0 = np.linalg.qr(rng.standard_normal((50, 3)))
    X = rng.standard_normal((50, 2))
    X[7, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        resmin._extend_qr_r(Q0, R0, X)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_extend_qr_r_dependent_columns(dtype):
    # X inside the range of the first block: the Gram complement is pure
    # rounding, not numerically positive definite, and the shifted
    # Cholesky still returns a finite factor with the right Gram matrix
    rng = np.random.default_rng(17)
    K0 = rng.standard_normal((200, 6))
    if dtype is np.complex128:
        K0 = K0 + 1j * rng.standard_normal((200, 6))
    Q0, R0 = np.linalg.qr(K0)
    X = K0[:, :3] @ rng.standard_normal((3, 3))
    R = resmin._extend_qr_r(Q0, R0, X)
    assert np.all(np.isfinite(R))
    K = np.hstack([K0, X])
    gram = K.conj().T @ K
    assert_allclose(R.conj().T @ R, gram, rtol=0, atol=1e-10 * np.abs(gram).max())
    assert np.linalg.norm(R[6:, 6:], 2) <= 1e-4 * np.linalg.norm(X, 2)


def stacked_residual(co, nu, xi):
    """The real residual r = sqrt(2) [Re vec Psi; Im vec Psi] that the
    polish's normal equations stand for, and its (nu, xi) Jacobian, from
    _psi_derivatives: 0.5 ||r||^2 = ||Psi||_F^2."""
    def stack(X):
        v = X.ravel(order="F")
        return np.sqrt(2.0) * np.concatenate([v.real, v.imag])

    Psi, Psi_nu, Psi_xi = resmin._psi_derivatives(co, nu, xi, 1)
    return stack(Psi), np.column_stack([stack(Psi_nu), stack(Psi_xi)])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 12:
        g = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        co = make_objective(rng, s=s, g=g, weighted=bool(rng.integers(2)))
        nu, xi = sample_point(co, rng)
        try:
            grad = eval_derivatives(co, nu, xi, order=1)[1]
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
    grad = eval_derivatives(co, -1.0, 0.0, order=1)[1]
    assert grad[1] == pytest.approx(0.0, abs=1e-12)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 8:
        g = int(rng.integers(1, 4))
        s = int(rng.integers(1, 3))
        co = make_objective(rng, s=s, g=g)
        nu, xi = sample_point(co, rng)
        try:
            Hm = eval_derivatives(co, nu, xi)[2]
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
        r, J = stacked_residual(co, nu, xi)
        assert_allclose(0.5 * (r @ r), eval_objective(co, nu, xi), rtol=1e-12)
        d = 1e-7 * max(abs(nu), 1.0)
        for col, (dn, dx) in enumerate([(d, 0.0), (0.0, d)]):
            rp, _ = stacked_residual(co, nu + dn, xi + dx)
            rm, _ = stacked_residual(co, nu - dn, xi - dx)
            assert_allclose(J[:, col], (rp - rm) / (2 * d), rtol=1e-6,
                            atol=1e-6 * max(1.0, np.abs(J).max()))


@pytest.mark.parametrize("s, weighted", [(1, False), (2, True), (3, False)])
def test_normal_equations_match_stacked_jacobian(s, weighted):
    rng = np.random.default_rng(24)
    for g in (1, 3):
        co = make_objective(rng, s=s, g=g, weighted=weighted)
        nu, xi = sample_point(co, rng)
        b = co.bounds
        assert not b.real_axis
        r, J = stacked_residual(co, nu, xi)
        f, Jr, JJ, _ = nls_residual_jacobian(co, nu, xi)
        assert_allclose(f, 0.5 * r @ r, rtol=1e-12)
        assert_allclose(Jr, J.T @ r, rtol=1e-12, atol=1e-14 * np.abs(J.T @ r).max())
        assert_allclose(JJ, J.T @ J, rtol=1e-12)
        # on a real-axis box only the nu column is formed
        co_real = replace(co, bounds=Bounds(b.nu_minus, b.nu_plus, 0.0))
        f1, Jr1, JJ1, _ = nls_residual_jacobian(co_real, nu, xi)
        assert f1 == f
        assert Jr1.shape == (1,) and JJ1.shape == (1, 1)
        assert_allclose(Jr1, Jr[:1], rtol=1e-12)
        assert_allclose(JJ1, JJ[:1, :1], rtol=1e-12)
        # the exact curvature is the Jacobian of J^T r, on and off the real axis
        d = 1e-6 * max(abs(nu), 1.0)
        for x in (0.0, xi):
            Jr_x = nls_residual_jacobian(co, nu, x)[1]
            _, g2, H2, _ = nls_residual_jacobian(co, nu, x, exact=True)
            assert_array_equal(g2, Jr_x)
            fd = np.column_stack([
                (nls_residual_jacobian(co, nu + dn, x + dx)[1]
                 - nls_residual_jacobian(co, nu - dn, x - dx)[1]) / (2 * d)
                for dn, dx in [(d, 0.0), (0.0, d)]])
            assert_allclose(H2, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())
            _, g1, H1, _ = nls_residual_jacobian(co_real, nu, x, exact=True)
            assert_array_equal(g1, Jr_x[:1])
            assert_allclose(H1, H2[:1, :1], rtol=1e-12)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_real_axis_exact_curvature_forms_no_xi_derivative(g, monkeypatch):
    # the 1 x 1 exact curvature reads Psi_nunu only: three solves for the
    # powers of (H + alpha I)^{-1} Wt, a fourth when g >= 2 gives Psi_nunu
    # a second term, g - 1 each for Psi (from the first power), Psi_nu and
    # Psi_nunu, and g - 2 for Psi_nunu's second term
    co = make_objective(np.random.default_rng(27), g=g, real_spectrum=True)
    assert co.bounds.real_axis
    solve_L, calls = resmin._solve_L, []
    monkeypatch.setattr(resmin, "_solve_L",
                        lambda L, X: calls.append(None) or solve_L(L, X))
    nu = 0.5 * (co.bounds.nu_minus + co.bounds.nu_plus)
    nls_residual_jacobian(co, nu, 0.0, exact=True)
    assert len(calls) == 3 + (g >= 2) + 3 * (g - 1) + max(g - 2, 0) == [3, 7, 11][g - 1]


def test_gradient_rejects_coalescent_gram():
    # two identical residual directions make the top Gram eigenvalue double
    H = np.diag([-1.0 + 0j, -1.0 + 0j])
    co = CompressedObjective(H=H, Wtil=np.eye(2, dtype=complex))
    with pytest.raises(ShiftObjectiveError):
        eval_derivatives(co, -0.5, 0.0, order=1)


def test_hessian_rejects_coalescent_lower_gram_eigenvalues():
    # H's double eigenvalue -2 gives a double lower Gram eigenvalue under a
    # simple top one: the gradient exists, the Hessian's perturbation sum
    # would divide by the zero gap between the lower two
    H = np.diag([-1.0, -2.0, -2.0]).astype(complex)
    co = CompressedObjective(H=H, Wtil=np.eye(3, dtype=complex),
                             bounds=derive_bounds(np.diag(H)))
    value, _, hess = eval_derivatives(co, -1.5, 0.3, order=1)
    # |(-1 - conj(alpha)) / (-1 + alpha)|^2 at alpha = -1.5 + 0.3i
    assert value == pytest.approx(0.34 / 6.34, rel=1e-12)
    assert hess is None
    with pytest.raises(ShiftObjectiveError, match="coalesce"):
        eval_derivatives(co, -1.5, 0.3, order=2)


def test_exact_curvature_polish_converges_on_coalescent_block():
    # the polish steps on ||Psi||_F^2, which stays smooth where the top Gram
    # eigenvalue is double, so the exact-curvature polish converges there
    H = np.diag([-1.0 + 0j, -1.0 + 0j])
    co = CompressedObjective(H=H, Wtil=np.eye(2, dtype=complex),
                             bounds=derive_bounds(np.diag(H)))
    alpha, info = optimize_shift(co, method="newton-trust")
    assert info["converged"]
    assert "singular" not in info["stops"]
    assert alpha == pytest.approx(-1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_derive_bounds_real_spectrum():
    b = derive_bounds(np.array([-1.0, -10.0]))
    assert (b.nu_minus, b.nu_plus, b.xi_plus) == (-10.0, -1.0, 0.0)
    assert b.real_axis


def test_derive_bounds_clustered_pair_inflates():
    b = derive_bounds(np.array([-2.0 + 5.0j, -2.0 - 5.0j]))
    assert_allclose([b.nu_minus, b.nu_plus], [-3.0, -1.0])
    assert b.xi_plus == 5.0
    assert not b.real_axis


def test_derive_bounds_keeps_unstable_spectrum_in_left_half_plane():
    b = derive_bounds([0.5 + 1j, -2.0])
    assert b == Bounds(-2.0, -2e-12, 1.0)


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
                             bounds=Bounds(-2.0, -0.25, 0.0))
    for guess in (None, -0.3, -1.8):
        alpha, info = optimize_shift(co, x0=guess, method=method)
        assert alpha == pytest.approx(-1.0, abs=1e-8)
        assert info["value"] <= 1e-20


# (s, g) of the spectral oracle's models, in the order they are drawn
_ORACLE_CASES = [(s, g) for s in (1, 2, 3) for g in (1, 3)]


# (1, 1) is gate c5's check on the same ten models; its models are still
# drawn so that the later cases see the same ones
@pytest.mark.parametrize("s, g", [
    pytest.param(s, g, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 17: the polish steps on ||Psi||_F^2 and stops up to "
        "1.13 x above the spectral minimum for s > 1")))
    if s > 1 else (s, g) for s, g in _ORACLE_CASES[1:]])
def test_polish_reaches_the_spectral_grid_minimum(s, g):
    # the block objective against an oracle that shares no code with
    # grid_objective or _psi_derivatives: both curvatures must end within
    # 5 % of the dense grid's minimum of the spectral objective
    rng = np.random.default_rng(4)
    models = [make_objective(rng, k=8, s=ss, g=gg) for ss, gg in _ORACLE_CASES
              for _ in range(10)]
    i = _ORACLE_CASES.index((s, g))
    for co in models[10 * i: 10 * (i + 1)]:
        oracle = spectral_grid_minimum(co)
        for method in ("gauss-newton", "newton-trust"):
            _, info = optimize_shift(co, method=method)
            assert info["value"] <= 1.05 * oracle, (method, info["value"] / oracle)


@pytest.mark.parametrize("method", ["gauss-newton", "newton-trust"])
def test_optimizer_reports_psi_at_its_shift(method):
    # block residuals: the polish steps on ||Psi||_F^2, but the value it
    # reports is the spectral objective at the shift it returns
    rng = np.random.default_rng(26)
    for _ in range(3):
        co = make_objective(rng, k=8, s=3)
        alpha, info = optimize_shift(co, method=method)
        assert info["value"] == eval_objective(co, alpha.real, alpha.imag)


def _edge_objectives():
    # psi vanishes at alpha = conj(lambda); each box stops short of it
    lam = -1.0 + 0.5j
    H = np.array([[lam]])
    W = np.array([[1.0 + 0j]])
    return [
        # real axis: minimum on nu_minus, gradient pointing out of the box
        CompressedObjective(H=H.real.astype(complex), Wtil=W,
                            bounds=Bounds(-0.8, -0.25, 0.0)),
        # complex box: minimum in the corner (nu_plus, 0)
        CompressedObjective(H=H, Wtil=W, bounds=Bounds(-3.0, -2.0, 1.0)),
        # complex box: minimum on the xi_plus edge, nu free inside
        CompressedObjective(H=np.array([[-1.0 + 3.0j]]), Wtil=W,
                            bounds=Bounds(-2.0, -0.5, 1.0)),
    ]


@pytest.mark.parametrize("method", ["gauss-newton", "newton-trust"])
@pytest.mark.parametrize("case", [0, 1, 2])
def test_polish_converges_on_the_box_edge(method, case):
    co = _edge_objectives()[case]
    b = co.bounds
    alpha, info = optimize_shift(co, method=method)
    on_edge = [alpha.real in (b.nu_minus, b.nu_plus),
               alpha.imag in (0.0, b.xi_plus)]
    assert any(on_edge)
    assert info["converged"] and info["stop"] == "gradient"
    assert info["iterations"] <= 5
    assert len(info["stops"]) == info["n_starts"]
    # nothing inside the box does better than the edge point
    nus = np.linspace(b.nu_minus, b.nu_plus, 101)
    xis = [0.0] if b.real_axis else np.linspace(0.0, b.xi_plus, 101)
    assert info["value"] <= min(eval_objective(co, nu, xi) for nu in nus for xi in xis)


@pytest.mark.parametrize("s, g, exact", [(1, 1, False), (2, 3, False), (1, 2, True)])
def test_polish_evaluates_each_point_once(s, g, exact, monkeypatch):
    # the call that accepts a trial point also gives the next step and the
    # reported value's Psi, and a trial clipped onto the point just refused
    # is not evaluated again (the (2, 3) and exact cases have such trials);
    # the end point is not evaluated again for its spectral value
    co = make_objective(np.random.default_rng(32), s=s, g=g)
    psi_derivatives, calls = resmin._psi_derivatives, []
    monkeypatch.setattr(resmin, "_psi_derivatives",
                        lambda co, nu, xi, order, with_xi=True:
                        calls.append((nu, xi, order))
                        or psi_derivatives(co, nu, xi, order, with_xi))
    b = co.bounds
    x0 = np.array([0.5 * (b.nu_minus + b.nu_plus), 0.5 * b.xi_plus])
    x, _, iterations, stop = resmin._polish_gauss_newton(co, x0, exact)
    assert stop == "gradient" and iterations >= 5
    points = [(nu, xi) for nu, xi, _ in calls]
    assert len(set(points)) == len(points) >= iterations
    assert points[0] == tuple(x0) and (x[0], x[1]) in points
    assert all(order > 0 for _, _, order in calls)


def test_polish_matches_bounded_least_squares():
    # SciPy's reflective trust-region least squares (Coleman-Li) as an
    # oracle for the polish, with either curvature, from the same start,
    # also in boxes cut short so that minima land on their edges; for block
    # residuals the polish minimizes the stacked (Frobenius) residual and
    # reports the spectral objective at its end point
    rng = np.random.default_rng(25)
    for s, trial in [(s, trial) for s in (1, 2, 3) for trial in range(12)]:
        co = make_objective(rng, k=int(rng.integers(3, 7)), s=s, g=1 + trial % 2,
                            weighted=bool(trial % 3 == 1))
        b = co.bounds
        if trial % 2:
            b = Bounds(b.nu_minus, 0.5 * (b.nu_minus + b.nu_plus), 0.3 * b.xi_plus)
            co = replace(co, bounds=b)
        nvar = 1 if b.real_axis else 2
        lo = np.array([b.nu_minus, 0.0])[:nvar]
        hi = np.array([b.nu_plus, b.xi_plus])[:nvar]
        x0 = lo + rng.random(nvar) * (hi - lo)

        def point(v):
            return v[0], (v[1] if nvar == 2 else 0.0)

        oracle = least_squares(
            lambda v: stacked_residual(co, *point(v))[0], x0,
            jac=lambda v: stacked_residual(co, *point(v))[1][:, :nvar],
            bounds=(lo, hi), method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        for exact in (False, True):
            x, fx, _, stop = resmin._polish_gauss_newton(co, np.r_[x0, 0.0][:2], exact)
            # with a large residual Gauss-Newton converges linearly: one block
            # case (s = 3, trial 1) still creeps along its box's edge toward
            # the oracle's point after the polish's 100 iterations; the exact
            # curvature converges on every case
            assert stop in ("gradient", "step") or (
                s > 1 and not exact and stop == "max_iterations"), (s, trial, stop)
            r = stacked_residual(co, x[0], x[1])[0]
            assert 0.5 * (r @ r) <= oracle.cost * (1 + 1e-10)  # cost = 0.5 ||r||^2
            assert fx == eval_objective(co, x[0], x[1])
            assert_allclose(x[:nvar], oracle.x, atol=1e-5 * np.abs(hi - lo).max())


@pytest.mark.parametrize("exact", [False, True])
def test_polish_stops_on_a_singular_shift(exact, monkeypatch):
    # the start -0.5 is the negative of H's eigenvalue: H + alpha I is
    # singular there, so the first Jacobian fails and the polish stops
    # with psi = +inf, evaluating nothing more
    b = Bounds(-1.0, -0.25, 0.0)
    co = CompressedObjective(H=np.array([[0.5 + 0j]]), Wtil=np.ones((1, 1), dtype=complex),
                             bounds=b)
    psi_derivatives, calls = resmin._psi_derivatives, []
    monkeypatch.setattr(resmin, "_psi_derivatives",
                        lambda *args, **kwargs: calls.append(args)
                        or psi_derivatives(*args, **kwargs))
    x, fx, iterations, stop = resmin._polish_gauss_newton(co, np.array([-0.5, 0.0]), exact)
    assert (stop, iterations) == ("singular", 1)
    assert_array_equal(x, [-0.5, 0.0])
    assert fx == np.inf and len(calls) == 1


def test_polish_refuses_a_trial_clipped_onto_a_pole(monkeypatch):
    # the first step (+5, 0) from -2 leaves the box [-3, -1]; _box_clip maps
    # the trial onto -1, where H + alpha I is singular, so it is refused as
    # no decrease and the damping grows tenfold; the polish then goes on to
    # the box's minimum -3, where psi = |(1 + 3)/(1 - 3)|^2 = 4
    b = Bounds(-3.0, -1.0, 0.0)
    co = CompressedObjective(H=np.array([[1.0 + 0j]]), Wtil=np.ones((1, 1), dtype=complex),
                             bounds=b)
    assert_array_equal(resmin._box_clip(np.array([3.0, 0.0]), b), [-1.0, 0.0])
    levenberg_step, damping = resmin._levenberg_step, []

    def first_step_out(g, JJ, lam, free):
        damping.append(lam)
        if len(damping) == 1:
            return np.array([5.0, 0.0])
        return levenberg_step(g, JJ, lam, free)

    monkeypatch.setattr(resmin, "_levenberg_step", first_step_out)
    x, fx, _, stop = resmin._polish_gauss_newton(co, np.array([-2.0, 0.0]))
    assert damping[:2] == [1e-3, 1e-2]
    assert stop == "gradient"
    assert_array_equal(x, [-3.0, 0.0])
    assert_allclose(fx, 4.0, rtol=1e-14)


def test_optimizer_starts_at_the_box_centre_without_a_finite_grid_value():
    # the box is the one point -1, where H + alpha I is singular: no grid
    # value is finite and no guess is given, so the one start is the box's
    # centre, and the polish stops there at once
    co = CompressedObjective(H=np.array([[1.0 + 0j]]), Wtil=np.ones((1, 1), dtype=complex),
                             bounds=Bounds(-1.0, -1.0, 0.0))
    alpha, info = optimize_shift(co)
    assert alpha == -1.0
    assert info["stop"] == "singular" and info["value"] == np.inf
    assert info["n_starts"] == 1 and not info["converged"]


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
    strat = make_strategy(StrategyConfig(kind="resmin", subspace="EK", p=1, m=1))
    proposal = strat.next_shift(AdiState(problem))
    assert proposal.alpha == pytest.approx(-1.0, abs=1e-9)
    assert proposal.info["source"] == "seed"
    assert problem.pencil.n_factorizations == 1


@pytest.mark.parametrize("g", [0, 1, 3])
def test_resmin_model_has_the_budget_as_group_size(g):
    # the budget is the one carrier of the group size: every model the
    # optimizer sees has g = budget; a group of size 0 has no budget and
    # is refused before any LU is built
    rng = np.random.default_rng(28)
    A = random_stable(30, rng)
    problem = LyapunovProblem(sp.csr_matrix(A), rng.standard_normal((30, 1)),
                              tol=1e-14, max_iterations=8)
    if g == 0:
        with pytest.raises(ValueError):
            make_strategy(StrategyConfig(kind="resmin", h=2, g=g))
        assert problem.pencil.n_factorizations == 0
        return
    strat = make_strategy(StrategyConfig(kind="resmin", h=2, g=g))
    pick, sizes = strat.pick, []

    def recording(co, state):
        sizes.append(co.g)
        return pick(co, state)

    strat.pick = recording
    lr_adi_solve(problem, strat)
    assert strat.budget == g
    assert len(sizes) >= 2 and set(sizes) == {strat.budget}


def test_resmin_never_worse_than_guess():
    rng = np.random.default_rng(24)
    n = 64
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-12, max_iterations=20)
    strat = make_strategy(StrategyConfig(kind="resmin", subspace="EK", p=2, m=1))
    state = AdiState(problem)
    from lradi.engine import normalize_shift, run_multistep_group
    from lradi.linalg import sparse_shifted_factorize

    def dense_psi(alpha, W):
        C = np.linalg.solve((A + alpha * np.eye(n)).T,
                            (A - np.conj(alpha) * np.eye(n)).T).T
        return np.linalg.norm(C @ W, 2) ** 2

    for _ in range(4):
        prop = strat.next_shift(state)
        info = prop.info
        a = normalize_shift(prop.alpha)
        # optimizing the compressed objective also improves the exact one
        # at least at the initial guess it polished
        assert dense_psi(a, state.W) <= dense_psi(info["guess"], state.W) * (1 + 1e-6)
        fact = sparse_shifted_factorize(problem.pencil, a)
        run_multistep_group(state, fact, 1)


def test_resmin_strategy_counts_seed_factorization():
    rng = np.random.default_rng(25)
    A = random_stable(30, rng)
    B = rng.standard_normal((30, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-8, max_iterations=60)
    strat = make_strategy(StrategyConfig(kind="resmin", subspace="EK", p=2, m=1))
    report = lr_adi_solve(problem, strat)
    assert report.converged
    pairs = sum(1 for a in report.shifts if a.imag > 0)
    assert report.n_factorizations == report.iterations - pairs + 1


def test_resmin_multistep_reuses_factorizations():
    rng = np.random.default_rng(26)
    A = random_stable(40, rng)
    B = rng.standard_normal((40, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-9, max_iterations=80)
    rep1 = lr_adi_solve(problem, make_strategy(
        StrategyConfig(kind="resmin", subspace="EK", p=2, m=1, g=1)))
    rep3 = lr_adi_solve(problem, make_strategy(
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
    report = lr_adi_solve(problem, make_strategy(
        StrategyConfig(kind="resmin", subspace="EK", p=2, m=1)))
    assert report.converged


# (gen_cd2d(20) or the fem pair, s, RHS seed, strategy, worst ratio allowed)
_CALIBRATION_RUNS = {
    "Z(8)": (lambda: (gen_cd2d(20), None), 1, 7, "resmin+Z(8)+gn", None),
    "EK(3,1)": (lambda: (gen_cd2d(20), None), 1, 7, "resmin+EK(3,1)+gn", 2.0),
    "EK(3,1)+M-g5": (lambda: fem_pair(300), 2, 0, "resmin+EK(3,1)+gn, g=5", 2.0),
}


@pytest.mark.parametrize("run", list(_CALIBRATION_RUNS))
def test_compressed_model_predicts_the_realized_reduction(run):
    # each group's predicted reduction, the model's optimal value over its
    # own residual norm, against the scaled residual's realized reduction
    # over the group. The Z window's worst ratio is not bounded: on this
    # input a one-column window predicts annihilation (ratio 2.6e31), and
    # a model that does not is the research step of ROADMAP.md, item 12
    make, s, seed, text, worst = _CALIBRATION_RUNS[run]
    A, M = make()
    problem = LyapunovProblem(A, gen_rhs(A.shape[0], s, seed), M=M, tol=1e-8)
    report = lr_adi_solve(problem, make_strategy(parse_strategy(text)))
    assert report.converged
    ratios = np.array([g["residual_after"] / g["residual_before"] / g["predicted_reduction"]
                       for g in report.groups])
    assert len(ratios) > 10
    assert 0.5 <= np.median(ratios) <= 2.0
    if worst is not None:
        assert ratios.max() <= worst
