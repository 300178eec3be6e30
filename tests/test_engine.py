import ast
import logging
import math
import weakref
from collections import Counter
from functools import cache, reduce
from itertools import cycle
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from conftest import (
    dense_lyap_solve,
    factored_residual_gap,
    fem_pair,
    random_spd,
    random_stable,
    reference_complex_adi,
    run_shifts,
)
from lradi import engine, linalg, resmin, strategies
from lradi.cli import parse_strategy
from lradi.engine import (
    AdiState,
    LyapunovProblem,
    ShiftProposal,
    adi_double_step,
    adi_real_step,
    lr_adi_solve,
    normalize_shift,
    real_SG,
    run_multistep_group,
    scaled_residual,
)
from lradi.linalg import SingularShiftError, sparse_shifted_factorize
from lradi.problems import gen_cd2d, gen_cd3d, gen_rhs
from lradi.strategies import CyclicShifts, make_strategy


def test_real_steps_residual_identity():
    rng = np.random.default_rng(0)
    A = random_stable(25, rng)
    B = rng.standard_normal((25, 2))
    As = sp.csr_matrix(A)
    state = run_shifts(As, B, [-1.0, -4.0, -0.5, -9.0])
    scale = np.linalg.norm(B @ B.T, 2)
    assert factored_residual_gap(A, state.Z, state.W, B) <= 1e-12 * scale
    assert state.Z.shape == (25, 8)
    assert_allclose(state.current_residual,
                    np.linalg.norm(state.W.T @ state.W, 2) / np.linalg.norm(B.T @ B, 2),
                    rtol=1e-12)


def test_double_step_matches_complex_reference():
    rng = np.random.default_rng(1)
    A = random_stable(20, rng)
    B = rng.standard_normal((20, 2))
    alpha = -2.0 + 3.0j
    state = run_shifts(sp.csr_matrix(A), B, [alpha])
    Zc, Wc = reference_complex_adi(A, B, [alpha, np.conj(alpha)])
    assert np.isrealobj(state.Z) and np.isrealobj(state.W)
    assert_allclose(state.Z @ state.Z.T, (Zc @ Zc.conj().T).real, atol=1e-13)
    assert_allclose(state.W, Wc.real, atol=1e-13)
    assert state.j == 2 and len(state.res_history) == 2


def test_double_step_midpair_residual():
    rng = np.random.default_rng(2)
    A = random_stable(18, rng)
    B = rng.standard_normal((18, 1))
    alpha = -1.0 + 2.5j
    state = run_shifts(sp.csr_matrix(A), B, [alpha])
    _, Wmid = reference_complex_adi(A, B, [alpha])
    b2 = np.linalg.norm(B.T @ B, 2)
    expected = np.linalg.norm(Wmid.conj().T @ Wmid, 2) / b2
    assert_allclose(state.res_history[0], expected, rtol=1e-10)


def test_mixed_history_residual_identity():
    rng = np.random.default_rng(3)
    for trial in range(6):
        n = int(rng.integers(10, 40))
        s = int(rng.integers(1, 4))
        A = random_stable(n, rng)
        B = rng.standard_normal((n, s))
        shifts = [-0.7, -3.0 + 1.0j, -5.0, -0.2 + 0.9j]
        state = run_shifts(sp.csr_matrix(A), B, shifts)
        scale = np.linalg.norm(B @ B.T, 2)
        assert factored_residual_gap(A, state.Z, state.W, B) <= 1e-11 * scale


def test_generalized_residual_identity():
    rng = np.random.default_rng(4)
    n = 22
    A = random_stable(n, rng)
    M = random_spd(n, rng)
    B = rng.standard_normal((n, 2))
    state = run_shifts(sp.csr_matrix(A), B, [-1.0, -2.0 + 1.0j, -6.0],
                       M=sp.csr_matrix(M))
    scale = np.linalg.norm(B @ B.T, 2)
    assert factored_residual_gap(A, state.Z, state.W, B, M=M) <= 1e-11 * scale
    # the engine's second factor tracks M^{-1} W
    assert_allclose(state.W_m, np.linalg.solve(M, state.W), atol=1e-10)


def test_solution_matches_dense_reference():
    rng = np.random.default_rng(5)
    n = 30
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-12, max_iterations=120)
    report, state = lr_adi_solve(
        problem, CyclicShifts([-0.5, -2.0, -8.0, -32.0]), return_state=True)
    assert report.converged
    X = dense_lyap_solve(A, B)
    assert_allclose(state.Z @ state.Z.T, X,
                    atol=1e-10 * np.linalg.norm(X, 2))


def test_normalize_shift_conjugates_and_reflects(caplog):
    with caplog.at_level(logging.WARNING, logger="lradi.engine"):
        assert normalize_shift(-1.0 - 2.0j) == -1.0 + 2.0j
        assert not caplog.records
        assert normalize_shift(3.0) == -3.0
        assert normalize_shift(1.0 + 1.0j) == -1.0 + 1.0j
    messages = [r.message for r in caplog.records]
    assert len(messages) == 2 and all("reflection" in m for m in messages)


def test_normalize_shift_snaps_noise_imaginary():
    # relative noise in the imaginary part is dropped ...
    assert normalize_shift(-100.0 + 1e-12j) == -100.0 + 0.0j
    # ... genuinely complex shifts are untouched
    alpha = -100.0 + 1e-3j
    assert normalize_shift(alpha) == alpha


def test_run_multistep_group_real_budget():
    rng = np.random.default_rng(6)
    A = random_stable(15, rng)
    B = rng.standard_normal((15, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-14, max_iterations=100)
    state = AdiState(problem)
    fact = sparse_shifted_factorize(problem.pencil, -2.0)
    done = run_multistep_group(state, fact, 3)
    assert done == 3 and state.j == 3
    # exactly the same as applying the shift three times
    Zc, _ = reference_complex_adi(A, B, [-2.0 + 0j] * 3)
    assert_allclose(state.Z @ state.Z.T, (Zc @ Zc.conj().T).real, atol=1e-12)


def test_run_multistep_group_pair_budget_may_overshoot():
    rng = np.random.default_rng(7)
    A = random_stable(15, rng)
    B = rng.standard_normal((15, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-14, max_iterations=100)
    state = AdiState(problem)
    fact = sparse_shifted_factorize(problem.pencil, -2.0 + 1.0j)
    done = run_multistep_group(state, fact, 5)
    assert done == 6  # ceil(5/2) double steps


def test_run_multistep_group_stops_on_tol():
    problem = LyapunovProblem(sp.csr_matrix(-np.eye(10)),
                              np.ones((10, 1)), tol=1e-10, max_iterations=50)
    state = AdiState(problem)
    fact = sparse_shifted_factorize(problem.pencil, -1.0)
    done = run_multistep_group(state, fact, 4)
    assert done == 1  # first step already converged
    assert state.current_residual <= 1e-10


def test_lr_adi_solve_report_shapes():
    rng = np.random.default_rng(8)
    A = random_stable(20, rng)
    B = rng.standard_normal((20, 2))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-9, max_iterations=80)
    report = lr_adi_solve(problem, CyclicShifts([-1.0, -3.0 + 2.0j, -10.0]))
    assert report.converged
    assert len(report.residuals) == report.iterations == len(report.shifts)
    assert report.t_shift <= report.t_total
    assert report.final_residual <= 1e-9


def test_lr_adi_solve_hits_iteration_cap():
    rng = np.random.default_rng(9)
    A = random_stable(20, rng)
    B = rng.standard_normal((20, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-16, max_iterations=5)
    report = lr_adi_solve(problem, CyclicShifts([-1e-3]))  # poor shift
    assert report.status == "max_iterations"
    assert not report.converged
    assert report.iterations == 5


def _three_kinds_of_group(seed):
    """A 20 x 20 problem with s = 2 from RNG ``seed``, and a strategy that
    cycles a real step, a multistep group of two conjugate pairs and a real
    group of three steps."""
    rng = np.random.default_rng(seed)
    A, B = random_stable(20, rng), rng.standard_normal((20, 2))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-9, max_iterations=80)
    proposals = cycle([ShiftProposal(-1.0), ShiftProposal(-3.0 + 2.0j, budget=4),
                       ShiftProposal(-10.0, budget=3)])
    return problem, SimpleNamespace(next_shift=lambda state: next(proposals))


def test_lr_adi_solve_on_group_callback():
    # a real step, a multistep group of two conjugate pairs, a real group:
    # one call per group, in order, after the group's last step, with the
    # record the report then holds; its clock reads grow, the last one t_total
    problem, strategy = _three_kinds_of_group(10)
    calls = []
    report = lr_adi_solve(problem, strategy,
                          on_group=lambda state, group: calls.append((state.j, dict(group))))
    assert report.converged
    assert [group for _, group in calls] == report.groups
    assert [j for j, _ in calls] == np.cumsum([g["steps"] for g in report.groups]).tolist()
    assert [g["steps"] for g in report.groups[:3]] == [1, 4, 3]
    elapsed = [g["elapsed_s"] for g in report.groups]
    assert elapsed == sorted(elapsed) and elapsed[-1] == report.t_total


def test_a_solve_with_no_group_takes_no_time():
    # B B^* alone meets tol = 1: no group runs, so the totals read from the records are 0
    problem = LyapunovProblem(gen_cd2d(4), np.ones((16, 1)), tol=1.0)
    report = lr_adi_solve(problem, CyclicShifts([-1.0]))
    assert report.converged and report.groups == [] and report.iterations == 0
    assert report.t_total == report.t_shift == 0.0 and report.n_factorizations == 0


def test_history_is_one_complex_shift_per_step():
    # a real step, a multistep group of two conjugate pairs, a real group
    problem, strategy = _three_kinds_of_group(12)
    report, state = lr_adi_solve(problem, strategy, return_state=True)
    assert report.converged
    assert state.shifts[:8] == [-1.0, -3.0 + 2.0j, -3.0 - 2.0j, -3.0 + 2.0j,
                                -3.0 - 2.0j, -10.0, -10.0, -10.0]
    assert state.j == len(state.shifts) == report.iterations
    assert report.shifts == state.shifts
    i = 0
    while i < state.j:
        alpha = state.shifts[i]
        assert type(alpha) is complex
        if alpha.imag == 0.0:
            assert math.copysign(1.0, alpha.imag) == 1.0  # +0.0, never -0.0
            i += 1
        else:
            assert alpha.imag > 0.0 and type(state.shifts[i + 1]) is complex
            assert state.shifts[i + 1] == alpha.conjugate()
            i += 2


def test_probe_rides_each_groups_first_solve(recorded_lu):
    # every shifted LU of a solve makes one SuperLU solve per step (per
    # pair for a complex shift) and none for its singularity probe: the
    # probe is the last column of the group's first solve
    problem, strategy = _three_kinds_of_group(12)
    report = lr_adi_solve(problem, strategy)
    assert report.converged
    solves = [b.shape for lu in recorded_lu for b, _ in lu.solves]
    pairs = sum(alpha.imag > 0.0 for alpha in report.shifts)
    assert len(solves) == report.iterations - pairs
    assert solves.count((20, 3)) == report.n_factorizations
    assert solves[:3] == [(20, 3), (20, 3), (20, 2)]

    # the seed's LU of resmin+EK(3,1) (m = 1) carries the probe on its
    # first solve too: no SuperLU solve holds the probe alone, and each
    # shifted LU, the seed's (alpha = 0) included, solves it exactly once,
    # scaled by the row sums of |A + alpha M|
    recorded_lu.clear()
    A, M = fem_pair(200)
    problem = LyapunovProblem(A, gen_rhs(200, 2, 0), M=M, tol=1e-8)
    report = lr_adi_solve(problem, make_strategy(parse_strategy("resmin+EK(3,1)+gn")))
    assert report.converged
    rhs = [b for lu in recorded_lu for b, _ in lu.solves]
    pencil, probe = problem.pencil, problem.pencil.probe
    assert not any(b.ndim == 1 and np.array_equal(np.sign(b), probe) for b in rhs)
    probed = [b[:, -1] for b in rhs
              if b.ndim == 2 and np.array_equal(np.sign(b[:, -1]), probe)]
    alphas = [0.0] + [group["shift"] for group in report.groups]
    assert len(probed) == len(alphas) == report.n_factorizations
    for column, alpha in zip(probed, alphas):
        row_sums = np.asarray(abs(pencil.shifted(alpha)).sum(axis=1)).ravel()
        assert_allclose(column, row_sums * probe, rtol=1e-14, atol=0)


def test_singular_shift_mid_solve_leaves_the_completed_steps():
    # the near-singular bidiagonal shift of test_linalg's
    # test_shifted_factorization_near_singular, reached after a regular
    # group: its LU is built and counted, its first solve refuses it, and
    # neither on_group nor the state sees anything of the refused group
    n, alpha = 30, -3.0
    d = np.linspace(1.0, 10.0, n)
    d[n // 2] = 1e-16 * d.max()
    A = sp.diags([d - alpha, np.ones(n - 1)], [0, 1], format="csr")
    problem = LyapunovProblem(A, np.ones((n, 2)), tol=1e-12)
    held, calls = [], []

    class Holding(CyclicShifts):
        def next_shift(self, state):
            held.append(state)
            return super().next_shift(state)

    with pytest.raises(SingularShiftError, match="numerically singular"):
        lr_adi_solve(problem, Holding([alpha - 0.5, alpha]),
                     on_group=lambda state, group: calls.append((state.j, group)))
    state = held[-1]
    assert len(held) == 2 and problem.pencil.n_factorizations == 2
    assert state.shifts == [complex(alpha - 0.5)] and len(state.res_history) == 1
    assert state.Z.shape == (n, 2)
    [(j, group)] = calls
    assert j == 1 and group["steps"] == 1 and group["shift"] == state.shifts[0]
    assert group["residual_after"] == state.res_history[0]


def test_resmin_survives_a_mass_matrix_with_tiny_rows():
    # the fem pair with M = D (6 (n + 1) M_fem) D, D = diag(1, ..., 1, 1e-9,
    # 1e-9, 1e-9): resmin proposes alpha of about -4.9e19, whose shifted LU
    # has condition >= 7.55e17 but, row-equilibrated, about 2e8, so the
    # probe lets it pass. The solve then stagnates: 150 steps at residual
    # 1.0, which no status names yet (ROADMAP item 3)
    n = 300
    A, M = fem_pair(n)
    D = sp.diags(np.r_[np.ones(n - 3), np.full(3, 1e-9)])
    M = (D @ (6.0 * (n + 1) * M) @ D).tocsr()
    problem = LyapunovProblem(A, gen_rhs(n, 2, 0), M=M)
    report, state = lr_adi_solve(problem, make_strategy(parse_strategy("resmin+EK(3,1)+gn")),
                                 return_state=True)
    assert np.all(np.isfinite(state.Z))
    assert report.status is not None


@pytest.mark.parametrize("text, stagnates", [
    pytest.param("heur(6,8,0)", True, marks=pytest.mark.xfail(
        strict=True, reason="a stagnating solve is not named (ROADMAP item 3)")),
    ("heur(6,8,8)", False),
])
def test_stagnation_is_named(text, stagnates):
    # on the fem pair with n = 2048 and s = 4, heur(6,8,0)'s residual sits
    # at 8.1e-1 at step 30 and 6.9e-1 at step 120, while heur(6,8,8)'s keeps
    # falling (5.6e-3 at step 30, 3.2e-5 at 120, 6.4e-6 at 150): a
    # stagnation rule names the first and leaves slow progress running
    A, M = fem_pair(2048)
    problem = LyapunovProblem(A, gen_rhs(2048, 4, 0), M=M, tol=1e-8, max_iterations=150)
    report = lr_adi_solve(problem, make_strategy(parse_strategy(text)))
    assert (report.status == "stagnated") == stagnates


@cache
def _cd2d20_unstable_shift():
    """sigma moving the rightmost eigenvalues of gen_cd2d(20) to real part +5."""
    return 5.0 - np.linalg.eigvals(gen_cd2d(20).toarray()).real.max()


@pytest.mark.parametrize("shifted", [
    pytest.param(True, marks=pytest.mark.xfail(
        raises=(AssertionError, SingularShiftError), strict=True,
        reason="no status names an unstable A (ROADMAP item 3)"), id="shifted"),
    pytest.param(False, id="stable"),
])
@pytest.mark.parametrize("text", [
    "heur(6,8,8)", "Z(4)+heur", "Z(4)+conv", "Z(4)+Hres", "resmin+Z(8)+gn",
    "resmin+Z(4)+nt", "resmin+EK(3,1)+gn, g=2",
])
def test_unstable_A_is_named(text, shifted):
    # gen_cd2d(20) + sigma I: Z(4)+heur and Z(4)+Hres raise SingularShiftError
    # (a shift lands on -lambda of an unstable eigenvalue), the other kinds
    # end max_iterations with residuals of 7.8e2 to 9.0e9. The unshifted
    # matrix also ends max_iterations (2.4e-8 to 1.3e-4), and must not be
    # named unstable
    A = gen_cd2d(20)
    if shifted:
        A = (A + _cd2d20_unstable_shift() * sp.identity(400)).tocsr()
    problem = LyapunovProblem(A, gen_rhs(400, 1, 7), tol=1e-8, max_iterations=60)
    report = lr_adi_solve(problem, make_strategy(parse_strategy(text)))
    assert (report.status == "unstable") == shifted


@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("shifts", [
    [-1.5, -2.0 + 1.5j, -7.0],
    [-2.0 + 1.5j, -0.5, -0.3 + 4.0j, -7.0],
], ids=["real-first", "pair-first"])
def test_realified_factors_match_engine_blocks(shifts, s):
    # the real structured factors close the ADI relations for the engine's
    # real Z, in both the B and the residual-factor form
    rng = np.random.default_rng(11)
    n = 24
    A = random_stable(n, rng)
    B = rng.standard_normal((n, s))
    state = run_shifts(sp.csr_matrix(A), B, shifts)
    Sr, Gr = real_SG(state.shifts, s)
    assert np.isrealobj(Sr) and np.isrealobj(Gr)
    assert_allclose(A @ state.Z, state.Z @ Sr + B @ Gr.T, atol=1e-10)
    assert_allclose(state.W, B + state.Z @ Gr, atol=1e-10)
    Str = Sr - Gr @ Gr.T
    assert_allclose(Str, -Sr.T, atol=1e-12)
    assert_allclose(A @ state.Z, state.Z @ Str + state.W @ Gr.T, atol=1e-10)


@pytest.mark.parametrize("shifts", [
    [-1.0, -2.0 + 1.0j],
    [-2.0 - 1.0j, -2.0 + 1.0j],
    [-2.0 + 1.0j, -2.0 - 1.5j, -1.0],
], ids=["lone-half", "negative-first", "not-conjugate"])
def test_real_SG_rejects_broken_pairs(shifts):
    with pytest.raises(ValueError, match="conjugate pair"):
        real_SG(shifts, 1)


def test_factor_buffer_grows_without_copying_views(monkeypatch):
    # Z lives in one growable column-major buffer: no hstack of the factor,
    # logarithmically many reallocations, and a view handed out before
    # later steps never changes under them
    rng = np.random.default_rng(14)
    n, s = 30, 3
    A = random_stable(n, rng)
    B = rng.standard_normal((n, s))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=0.0, max_iterations=500)
    state = AdiState(problem)
    pushed, hstacks = [], []
    push, hstack = state._push, np.hstack

    def recording_push(block, *rest):
        pushed.append(block.copy())
        push(block, *rest)

    def counting_hstack(*args, **kwargs):
        hstacks.append(1)
        return hstack(*args, **kwargs)

    state._push = recording_push
    monkeypatch.setattr(np, "hstack", counting_hstack)
    views, reallocs = [], 0
    for alpha in [-1.0, -2.0 + 1.0j, -0.5, -3.0 + 2.0j, -5.0] * 4:
        buf = state._zbuf
        Z = state.Z
        views.append((Z, Z.copy()))
        fact = sparse_shifted_factorize(problem.pencil, alpha)
        (adi_real_step if np.imag(alpha) == 0 else adi_double_step)(state, fact)
        reallocs += state._zbuf is not buf
    Z = state.Z
    assert not hstacks
    monkeypatch.undo()
    assert state.j == 28 and Z.shape == (n, state.j * s)
    assert np.array_equal(Z, np.hstack(pushed))
    assert Z.flags.f_contiguous and not Z.flags.writeable
    assert 3 <= reallocs <= int(np.ceil(np.log2(state.j * s))) + 1
    for view, snapshot in views:
        assert np.array_equal(view, snapshot)


def test_steps_reject_wrong_shift_sign():
    # a ValueError, not an assert, so the check survives python -O
    problem = LyapunovProblem(sp.csr_matrix(-np.eye(4)), np.ones((4, 1)))
    state = AdiState(problem)
    with pytest.raises(ValueError, match="negative real part"):
        adi_real_step(state, sparse_shifted_factorize(problem.pencil, 0.5))
    with pytest.raises(ValueError, match="Re<0, Im>0"):
        adi_double_step(state, sparse_shifted_factorize(problem.pencil, 0.5 + 1.0j))
    assert state.j == 0 and np.all(state.W == 1.0)


def test_one_step_exact_on_negative_identity():
    rng = np.random.default_rng(12)
    B = rng.random((100, 3))
    problem = LyapunovProblem(sp.csr_matrix(-np.eye(100)), B,
                              tol=1e-12, max_iterations=10)
    report, state = lr_adi_solve(problem, CyclicShifts([-1.0]), return_state=True)
    assert report.converged and report.iterations == 1
    assert np.linalg.norm(state.W, 2) <= 1e-12 * np.linalg.norm(B, 2)


def test_proposal_budget_defaults_to_one():
    assert ShiftProposal(-1.0).budget == 1


@pytest.mark.parametrize("alpha", [np.nan, np.inf, complex(-1.0, np.nan)],
                         ids=["nan", "inf", "complex-nan"])
def test_proposal_refuses_a_non_finite_shift(alpha):
    # SuperLU would call such a shift exactly singular, and an infinite one warns
    with pytest.raises(ValueError, match="alpha must be finite"):
        ShiftProposal(alpha)
    problem = LyapunovProblem(gen_cd2d(4), np.ones((16, 1)))
    strategy = SimpleNamespace(next_shift=lambda state: ShiftProposal(alpha))
    with pytest.raises(ValueError, match="alpha must be finite"):
        lr_adi_solve(problem, strategy)
    assert problem.pencil.n_factorizations == 0


def test_scaled_residual_definition():
    rng = np.random.default_rng(13)
    W = rng.standard_normal((30, 2))
    b2 = 5.0
    assert_allclose(scaled_residual(W, b2),
                    np.linalg.norm(W.T @ W, 2) / b2, rtol=1e-12)


@pytest.mark.parametrize("name", ["A", "M", "B"])
def test_problem_rejects_complex_matrices(name):
    # B, W and Z are real throughout: a complex A, M or B would be truncated
    data = dict(A=-sp.identity(4, format="csr"), B=np.ones((4, 1)),
                M=sp.identity(4, format="csr"))
    data[name] = data[name].astype(np.complex128)
    with pytest.raises(ValueError, match=f"{name} must be real"):
        LyapunovProblem(**data)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["A", "M", "B"])
def test_problem_rejects_non_finite_entries(name, value):
    # a NaN or Inf would otherwise surface deep in the solve, as a singular
    # shift or a spectral box with no eigenvalues
    data = dict(A=-sp.identity(4, format="csr"), B=np.ones((4, 1)),
                M=sp.identity(4, format="csr"))
    data[name] = data[name].copy()
    (data[name].data if name != "B" else data[name])[0] = value
    with pytest.raises(ValueError, match=f"{name} has a NaN or infinite entry"):
        LyapunovProblem(**data)


@pytest.mark.parametrize("A, M, B, match", [
    (sp.csr_matrix(np.ones((3, 4))), None, np.ones((3, 1)), "square"),
    (-sp.identity(4, format="csr"), sp.identity(3, format="csr"), np.ones((4, 1)), "shape"),
    (-sp.identity(4, format="csr"), None, np.ones((3, 1)), "rows"),
])
def test_problem_rejects_mismatched_shapes(A, M, B, match):
    # the pencil checks A and M, the problem checks B against A
    with pytest.raises(ValueError, match=match):
        LyapunovProblem(A, B, M=M)


@pytest.mark.parametrize("name, value", [
    ("max_iterations", 2.5), ("max_iterations", 0), ("max_iterations", -1),
    ("tol", np.nan), ("tol", -1e-8),
])
def test_problem_rejects_a_cap_or_tol_it_would_misread(name, value):
    # 2.5 would run 3 steps and 0 none; a NaN or negative tol would never
    # end the solve before the cap
    with pytest.raises(ValueError, match=name):
        LyapunovProblem(-sp.identity(4, format="csr"), np.ones((4, 1)), **{name: value})


def test_problem_keeps_a_zero_tol_and_an_integer_cap():
    problem = LyapunovProblem(-sp.identity(4, format="csr"), np.ones((4, 1)),
                              tol=0.0, max_iterations=np.int64(3))
    assert problem.tol == 0.0
    assert problem.max_iterations == 3 and type(problem.max_iterations) is int


def test_problem_reads_1d_B_as_one_column():
    assert LyapunovProblem(gen_cd2d(4), np.ones(16)).B.shape == (16, 1)


def test_solve_keeps_one_factorization_alive(monkeypatch):
    # the engine keeps each group's LU while the strategy proposes the next
    # shift and drops it just before the next LU is built, which takes over
    # its memory: no two shifted LUs are ever alive at once, counting the
    # seed LU that resmin+EK builds inside its first next_shift
    alive, builders = [], []

    def tracking(module):
        build = module.sparse_shifted_factorize

        def factorize(*args, **kwargs):
            assert all(ref() is None for ref in alive), "an earlier LU is still alive"
            fact = build(*args, **kwargs)
            alive.append(weakref.ref(fact))
            builders.append(module)
            return fact
        return factorize

    for module in (engine, resmin):
        monkeypatch.setattr(module, "sparse_shifted_factorize", tracking(module))

    def handover(strategy):
        propose = strategy.next_shift

        def next_shift(state):
            if state.j:  # the last LU built is the previous group's
                assert alive[-1]() is not None, "the last group's LU was released early"
            return propose(state)

        strategy.next_shift = next_shift
        return strategy

    rng = np.random.default_rng(15)
    problem = LyapunovProblem(sp.csr_matrix(random_stable(20, rng)),
                              rng.standard_normal((20, 2)), tol=1e-9)
    report = lr_adi_solve(problem, handover(CyclicShifts([-1.0, -3.0 + 2.0j, -10.0])))
    assert report.converged and len(alive) == report.n_factorizations >= 3
    assert set(builders) == {engine}

    alive.clear()
    builders.clear()
    A, M = fem_pair(200)
    problem = LyapunovProblem(A, gen_rhs(200, 2, 0), M=M, tol=1e-8)
    strategy = make_strategy(parse_strategy("resmin+EK(3,1)+gn, g=5"))
    report = lr_adi_solve(problem, handover(strategy))
    assert report.converged and len(alive) == report.n_factorizations >= 3
    # the seed's LU comes first, then one per multistep group
    assert builders[0] is resmin and set(builders[1:]) == {engine}


def test_report_counts_factorizations_a_strategy_builds_itself():
    # the pencil counts every shifted LU built on it, so a strategy that
    # factorizes on its own needs no count of its own to be reported
    class Probing:
        def __init__(self):
            self.cycle = CyclicShifts([-1.0, -3.0 + 2.0j, -10.0])

        def next_shift(self, state):
            sparse_shifted_factorize(state.problem.pencil, -0.5)
            return self.cycle.next_shift(state)

    rng = np.random.default_rng(16)
    problem = LyapunovProblem(sp.csr_matrix(random_stable(20, rng)),
                              rng.standard_normal((20, 2)), tol=1e-9)
    strategy = Probing()
    report = lr_adi_solve(problem, strategy)
    assert report.converged and not hasattr(strategy, "n_factorizations")
    # one LU per real step or pair, and the strategy's one per shift
    pairs = sum(1 for a in report.shifts if a.imag > 0)
    assert report.n_factorizations == 2 * (report.iterations - pairs)
    # a second solve of the same problem counts its own LUs only
    assert lr_adi_solve(problem, Probing()).n_factorizations == report.n_factorizations


_ROOT = Path(__file__).resolve().parents[1]  # the checkout


def _assigned(relpath, name):
    """Every value assigned to ``name`` in a file of this checkout, as AST."""
    return [node.value for node in ast.walk(ast.parse((_ROOT / relpath).read_text()))
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) == name]


def _benchmark_patch_points():
    """(name, owner, attribute) of every attribute perfbench/spans.py rebinds.

    Read from the tuples of its ``points`` list, so a seam added there is
    covered here too; ``name`` is the owner as spans.py writes it plus
    the attribute, e.g. "linalg.ShiftedFactorization.solve".
    """
    modules = {"engine": engine, "linalg": linalg, "resmin": resmin, "strategies": strategies}
    points = []
    for value in _assigned("perfbench/spans.py", "points"):
        for entry in value.elts:
            path, attr = ast.unparse(entry.elts[0]), entry.elts[1].value
            head, *rest = path.split(".")
            owner = reduce(getattr, rest, modules[head])
            points.append((f"{path}.{attr}", owner, attr))
    return points


_COMMON_SEAMS = {
    "linalg.splu", "engine.sparse_shifted_factorize", "resmin.sparse_shifted_factorize",
    "linalg.ShiftedFactorization.solve", "resmin.block_orth", "engine.scaled_residual",
    "resmin.build_seed", "resmin.schur_stabilize",
}
_OPTIMIZER_SEAMS = {"resmin.optimize_shift", "resmin.nls_residual_jacobian",
                    "resmin.hamiltonian_residual_shift"}
_WINDOW_SEAMS = {"resmin.compress_zh", "resmin.ritz_update"}


def _seam_case(case):
    """(A, M, s, strategy text) of a case of the two tests below."""
    if case == "resmin+Z":
        return gen_cd2d(10), None, 1, "resmin+Z(8)+gn"
    if case == "resmin+Z nd":
        return gen_cd2d(32), None, 1, "resmin+Z(8)+gn"
    if case == "resmin+EK+M":
        return *fem_pair(200), 2, "resmin+EK(3,1)+gn, g=5"
    if case == "Z(4)+Hres":
        return gen_cd3d(4), None, 1, "Z(4)+Hres"
    return gen_cd2d(10), None, 1, "heur(20,30,20)"


@pytest.mark.parametrize("case", ["resmin+Z", "resmin+EK+M", "Z(4)+Hres", "resmin+Z nd"])
def test_factorizations_pass_through_the_seams(case, monkeypatch, recorded_lu):
    # every counted factorization enters through engine's or resmin's
    # sparse_shifted_factorize with the shift as second positional
    # argument, and each costs one linalg.splu (plus one for M's LU):
    # ordered by SuperLU's minimum degree below the nested-dissection
    # size, factored as ordered by the problem's pencil from it on
    A, M, s, text = _seam_case(case)
    nd = A.shape[0] >= linalg._ND_MIN_N
    assert nd == (case == "resmin+Z nd")
    shifts = []

    def seam(build):
        def counted(*args, **kwargs):
            assert len(args) >= 2 and np.isscalar(args[1])
            shifts.append(args[1])
            return build(*args, **kwargs)
        return counted

    for module in (engine, resmin):
        monkeypatch.setattr(module, "sparse_shifted_factorize",
                            seam(module.sparse_shifted_factorize))
    problem = LyapunovProblem(A, gen_rhs(A.shape[0], s, 0), M=M, tol=1e-8)
    report = lr_adi_solve(problem, make_strategy(parse_strategy(text)))
    assert report.converged
    assert len(shifts) == report.n_factorizations
    assert len(recorded_lu) == report.n_factorizations + (M is not None)
    for lu in recorded_lu:
        assert lu.kwargs["permc_spec"] == ("NATURAL" if nd else "MMD_AT_PLUS_A")


# strategies.ritz_update and strategies.schur_stabilize are never entered:
# nothing calls them through the strategies module; resmin.eval_objective
# is never entered either: the polish reports psi from the Psi it accepted
@pytest.mark.parametrize("case, entered", [
    ("resmin+Z", _COMMON_SEAMS | _OPTIMIZER_SEAMS | _WINDOW_SEAMS
     | {"engine.adi_real_step", "engine.adi_double_step"}),
    ("resmin+EK+M", _COMMON_SEAMS | _OPTIMIZER_SEAMS
     | {"resmin.recycle_krylov", "engine.adi_real_step"}),
    ("Z(4)+Hres", _COMMON_SEAMS | _WINDOW_SEAMS
     | {"strategies.hamiltonian_residual_shift", "engine.adi_double_step"}),
    ("heur", _COMMON_SEAMS - {"resmin.schur_stabilize"}
     | {"engine.adi_real_step", "engine.adi_double_step"}),
], ids=["resmin+Z", "resmin+EK+M", "Z(4)+Hres", "heur"])
def test_benchmark_patch_points_see_every_layer(case, entered, monkeypatch):
    # the benchmark times layers by rebinding module attributes; each
    # layer a strategy uses must be reached through one of them, and the
    # factorization seams must see every factorization the report counts
    A, M, s, text = _seam_case(case)
    points = _benchmark_patch_points()
    assert len(points) == 20
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, owner, attr in points:
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    problem = LyapunovProblem(A, gen_rhs(A.shape[0], s, 0), M=M, tol=1e-8)
    before = problem.pencil.n_factorizations
    report = lr_adi_solve(problem, make_strategy(parse_strategy(text)))
    assert report.converged
    assert set(counts) == entered
    factorizations = (counts["engine.sparse_shifted_factorize"]
                      + counts["resmin.sparse_shifted_factorize"])
    assert factorizations == report.n_factorizations
    assert factorizations == problem.pencil.n_factorizations - before
    assert counts["linalg.splu"] == report.n_factorizations + (M is not None)
    _check_groups(report, text)


_COSTS = ("s", "cpu_s", "minflt")
_MODEL = {"source", "size", "used_fallback", "n_stabilized", "window_start"}


def _check_groups(report, text):
    """The solve's group records, under strategy ``text``, tile the report:
    their steps, shifts and residuals are the report's, in order. Each
    builds one LU, which factors in complex arithmetic exactly when its
    shift is complex, and the first group builds the seed's too when the
    seed has m >= 1 (EK(p, m) and heur(J, p, m) by their m, every Z
    window kind on EK(1, 1)). Each holds the model's scalars if there is
    a model, and the three costs of each timed call: the engine's three,
    the model's compression and the optimizer's grid and polish, these
    three inside next_shift. The last group's clock is the report's."""
    config = parse_strategy(text)
    adaptive, optimized = config.kind != "heur", config.kind == "resmin"
    seed_m = config.m if config.kind == "heur" or config.subspace == "EK" else 1
    end, before = 0, 1.0
    for i, g in enumerate(report.groups):
        start, end = end, end + g["steps"]
        shift = g["shift"]
        assert report.shifts[start:end] == [shift.conjugate() if k % 2 else shift
                                            for k in range(g["steps"])]
        assert g["residual_before"] == before
        assert g["residual_after"] == report.residuals[end - 1]
        before = g["residual_after"]
        assert 1 <= g["steps"] <= g["budget"] + (shift.imag != 0.0)
        assert g["lus"] == 1 + (i == 0 and seed_m >= 1)
        assert g["lu_nnz"] > 0
        assert g["lu_dtype"] == ("float64" if shift.imag == 0.0 else "complex128")
        assert _MODEL <= set(g) if adaptive else not _MODEL & set(g)
        assert "predicted_reduction" in g if optimized else "predicted_reduction" not in g
        calls = {"next_shift", "factor", "steps"} | ({"compress"} if adaptive else set()) \
            | ({"grid", "polish"} if optimized else set())
        timed = {key for key in g if key.endswith(("_s", "_minflt")) and key != "elapsed_s"}
        assert timed == {f"{call}_{cost}" for call in calls for cost in _COSTS}
        for cost in _COSTS:
            inner = sum(g.get(f"{call}_{cost}", 0) for call in ("compress", "grid", "polish"))
            assert 0 <= inner <= g[f"next_shift_{cost}"] + 1e-9
    assert end == report.iterations
    assert report.t_total == report.groups[-1]["elapsed_s"]


@pytest.mark.parametrize("text", ["resmin+EK(3,1)+gn, g=5", "resmin+Z(4)+nt", "Z(4)+conv",
                                  "Z(4)+heur", "heur(6,8,8)"])
def test_group_records_hold_scalars_only(text):
    # the record outlives the solve, so it keeps no model (whose basis is
    # n x k) and no array: every value is a number or a string
    A, M = fem_pair(200)
    problem = LyapunovProblem(A, gen_rhs(200, 2, 0), M=M, tol=1e-8)
    report = lr_adi_solve(problem, make_strategy(parse_strategy(text)))
    assert report.converged and report.groups
    _check_groups(report, text)
    for group in report.groups:
        for key, value in group.items():
            assert not isinstance(value, (np.ndarray, resmin.CompressedObjective)), key
            assert type(value) in (bool, int, float, complex, str), key
