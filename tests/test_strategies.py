import functools
import json
import logging
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lradi.strategies
from conftest import fem_pair, random_stable, run_shifts
from lradi.cli import parse_strategy
from lradi.engine import LyapunovProblem, ShiftProposal, lr_adi_solve
from lradi.problems import gen_cd2d, gen_cd3d, gen_rhs
from lradi.resmin import derive_bounds, extended_krylov_basis
from lradi.strategies import (
    CyclicShifts,
    StrategyConfig,
    convex_hull_shift,
    hamiltonian_residual_shift,
    make_strategy,
    penzl_select,
    precomputed_heuristic,
    ritz_update,
    schur_stabilize,
)


def adi_rational(z, used):
    return np.prod([abs((z - np.conj(a)) / (z + a)) for a in used])


# ---------------------------------------------------------------------------
# greedy selection
# ---------------------------------------------------------------------------

def test_penzl_single_candidate():
    assert penzl_select([-1.0], 1) == [-1.0]


def test_penzl_first_shift_minimizes_worst_factor():
    cand = [-1.0, -4.0, -16.0]
    shifts = penzl_select(cand, 1)
    assert shifts == [-4.0]
    # brute-force oracle for the first pick
    worst = {a: max(abs((l - np.conj(a)) / (l + a)) for l in cand) for a in cand}
    assert min(worst, key=worst.get) == -4.0
    assert worst[-4.0] == pytest.approx(0.6)
    assert worst[-1.0] == pytest.approx(15.0 / 17.0)


def test_penzl_greedy_continuation_matches_bruteforce():
    rng = np.random.default_rng(0)
    cand = sorted((-rng.random() * 10 - 0.1 for _ in range(6)), key=abs)
    shifts = penzl_select(cand, 3)
    assert len(shifts) == 3
    # each continuation maximizes the accumulated product over candidates
    for k in (1, 2):
        used = shifts[:k]
        best = max(cand, key=lambda z: adi_rational(z, used))
        assert shifts[k] == best


def test_penzl_conjugates_adjacent():
    shifts = penzl_select([-2.0 + 3.0j, -2.0 - 3.0j, -10.0], 3)
    assert any(a.imag != 0 for a in shifts)
    for k, a in enumerate(shifts):
        if a.imag > 0:
            assert shifts[k + 1] == np.conj(a)


def test_penzl_empty_raises():
    with pytest.raises(ValueError):
        penzl_select([], 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000), st.integers(1, 5))
def test_penzl_output_within_candidates(seed, J):
    rng = np.random.default_rng(seed)
    re = -rng.random(4) * 5 - 0.1
    im = rng.random(4) * np.where(rng.random(4) < 0.5, 0.0, 2.0)
    cand = np.concatenate([re + 1j * im, (re - 1j * im)[im != 0]])
    shifts = penzl_select(cand, J)
    assert len(shifts) >= min(J, 1)
    for a in shifts:
        assert a.real < 0
        assert np.min(np.abs(cand - a)) < 1e-12


def test_penzl_scaling_invariance():
    cand = [-0.5, -3.0 + 1.0j, -3.0 - 1.0j, -8.0]
    assert penzl_select(cand, 3) == penzl_select(cand, 3)  # deterministic
    # candidate magnitudes scale uniformly: selection positions unchanged
    scaled = penzl_select([10 * a for a in cand], 3)
    assert_allclose(scaled, [10 * a for a in penzl_select(cand, 3)], rtol=1e-12)


# ---------------------------------------------------------------------------
# precomputed heuristic
# ---------------------------------------------------------------------------

def test_precomputed_exact_spectrum():
    A = sp.csr_matrix(np.diag([-1.0, -2.0, -3.0]))
    B = np.ones((3, 1))
    problem = LyapunovProblem(A, B)
    shifts = precomputed_heuristic(problem, J=2, p=3, m=0)
    assert problem.pencil.n_factorizations == 0  # no inverse blocks requested
    assert_allclose(np.sort_complex(shifts),
                    np.sort_complex(penzl_select([-1.0, -2.0, -3.0], 2)),
                    atol=1e-8)


def test_precomputed_truncates_large_J(caplog):
    A = sp.csr_matrix(np.diag([-1.0, -2.0, -3.0]))
    problem = LyapunovProblem(A, np.ones((3, 1)))
    with caplog.at_level(logging.WARNING, logger="lradi.strategies"):
        shifts = precomputed_heuristic(problem, J=50, p=3, m=0)
    assert len(shifts) <= 3
    assert any("truncating" in r.message for r in caplog.records)


def test_precomputed_mirrors_unstable_ritz(caplog):
    # A has an unstable eigenvalue; the Ritz values get reflected
    A = sp.csr_matrix(np.diag([1.0, -2.0]))
    problem = LyapunovProblem(A, np.ones((2, 1)))
    with caplog.at_level(logging.INFO, logger="lradi.strategies"):
        shifts = precomputed_heuristic(problem, J=2, p=2, m=0)
    assert all(a.real < 0 for a in shifts)
    assert any("mirroring" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# window restriction
# ---------------------------------------------------------------------------

def test_schur_stabilize_flips_unstable():
    H = np.array([[2.0, 1.0], [0.0, -3.0]])
    T, U, n_flip = schur_stabilize(H)
    assert n_flip == 1
    lam = np.diag(T)
    assert np.all(lam.real < 0)
    assert_allclose(sorted(np.abs(lam)), [2.0, 3.0], atol=1e-12)
    # a stable H keeps its Schur form: nothing flipped, U T U^* = H
    H = random_stable(7, np.random.default_rng(2))
    T, U, n_flip = schur_stabilize(H)
    assert n_flip == 0
    assert_allclose(U @ T @ U.conj().T, H, atol=1e-12)
    assert_allclose(np.tril(T, -1), 0, atol=1e-12)


def test_ritz_update_matches_explicit_restriction():
    rng = np.random.default_rng(1)
    n, s = 20, 2
    A = random_stable(n, rng)
    B = rng.standard_normal((n, s))
    state = run_shifts(sp.csr_matrix(A), B, [-1.0, -3.0, -0.5])
    rd = ritz_update(state, h=3)
    Q = rd.Q
    assert_allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-12)
    H_explicit = Q.conj().T @ (A @ Q)
    # rd.H is the Schur form of the structured H; compare spectra
    lam = np.sort_complex(np.linalg.eigvals(H_explicit))
    assert_allclose(np.sort_complex(rd.eigenvalues), lam,
                    atol=1e-9 * np.linalg.norm(A, 2))
    # and the rotated restriction reproduces the explicit one exactly
    # (no unstable Ritz values in this run, so no flips)
    assert rd.n_stabilized == 0
    dec_err = np.linalg.norm(
        np.linalg.eigvals(H_explicit).real - np.sort(rd.eigenvalues.real)[
            np.argsort(np.argsort(np.linalg.eigvals(H_explicit).real))], np.inf)
    assert dec_err < 1e-8 * max(1.0, np.linalg.norm(A, 2))


def test_ritz_update_single_real_step_rayleigh():
    rng = np.random.default_rng(2)
    n = 15
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 1))
    state = run_shifts(sp.csr_matrix(A), B, [-2.0])
    rd = ritz_update(state, h=1)
    v = state.Z[:, 0] / np.linalg.norm(state.Z[:, 0])
    rq = v @ A @ v
    assert rd.H.shape == (1, 1)
    assert_allclose(rd.H[0, 0].real, rq, rtol=1e-10)
    assert_allclose(abs(np.abs(rd.Q[:, 0] @ v)), 1.0, rtol=1e-12)


def test_ritz_update_window_respects_pairs():
    rng = np.random.default_rng(3)
    n = 24
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 1))
    state = run_shifts(sp.csr_matrix(A), B, [-1.0, -2.0 + 1.0j, -5.0])
    # a window of 2 would split the pair at steps 2-3; it must widen
    rd = ritz_update(state, h=3)
    assert rd.window_start in (0, 1)
    rd2 = ritz_update(state, h=2)
    assert rd2.window_start == 1  # pair kept whole


def test_ritz_update_generalized_matches_pencil():
    rng = np.random.default_rng(4)
    n = 18
    A = random_stable(n, rng)
    F = rng.standard_normal((n, n))
    M = F @ F.T + n * np.eye(n)
    B = rng.standard_normal((n, 1))
    state = run_shifts(sp.csr_matrix(A), B, [-1.0, -4.0], M=sp.csr_matrix(M))
    rd = ritz_update(state, h=2)
    Q = rd.Q
    N = Q.conj().T @ M @ Q
    H_explicit = np.linalg.solve(N, Q.conj().T @ (A @ Q))
    assert_allclose(np.sort_complex(rd.eigenvalues),
                    np.sort_complex(np.linalg.eigvals(H_explicit)), atol=1e-8)


# ---------------------------------------------------------------------------
# convex hull
# ---------------------------------------------------------------------------

def test_hull_single_point():
    assert convex_hull_shift(np.array([-3.0 + 0j]), []) == -3.0


def test_hull_two_point_segment_picks_far_end():
    # with -1 already used, the ADI product is largest at -9
    shift = convex_hull_shift(np.array([-1.0 + 0j, -9.0 + 0j]), [-1.0 + 0j])
    assert shift == pytest.approx(-9.0)


def test_hull_output_conjugate_normalized():
    ritz = np.array([-1.0 + 2.0j, -1.0 - 2.0j, -4.0 + 0j])
    shift = convex_hull_shift(ritz, [-2.0 + 0j])
    assert shift.imag >= 0
    assert shift.real < 0


def test_hull_respects_boundary_argmax_oracle():
    rng = np.random.default_rng(5)
    re = -rng.random(5) * 6 - 0.5
    im = rng.random(5) * 3
    ritz = np.concatenate([re + 1j * im, re - 1j * im])
    used = [-1.0 + 0.5j, -1.0 - 0.5j]
    shift = convex_hull_shift(ritz, used)
    # no interior point of the sampled hull beats the returned boundary pick
    samples = [complex(z) for z in ritz]
    val = adi_rational(shift, used)
    for z in samples:
        assert val >= adi_rational(z, used) - 1e-9 or abs(z - shift) < 1e-12


def test_hull_scaling_invariance():
    ritz = np.array([-1.0 + 2.0j, -1.0 - 2.0j, -6.0 + 0j])
    used = [-2.0 + 0j]
    a = convex_hull_shift(ritz, used)
    b = convex_hull_shift(3.0 * ritz, [3.0 * u for u in used])
    assert_allclose(b, 3.0 * a, rtol=1e-9)


# ---------------------------------------------------------------------------
# residual Hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_frozen_2x2_example():
    H = np.array([[-2.0]])
    Wt = np.array([[1.0]])
    shift = hamiltonian_residual_shift(H, Wt)
    assert shift == pytest.approx(-2.0)
    # the underlying eigen problem, worked explicitly
    Ham = np.array([[-2.0, 0.0], [1.0, 2.0]])
    lam, V = np.linalg.eig(Ham)
    k = int(np.argmin(lam.real))
    assert lam[k] == pytest.approx(-2.0)
    assert_allclose(np.abs(V[:, k]), np.array([4.0, 1.0]) / np.sqrt(17.0),
                    rtol=1e-12)


def test_hamiltonian_zero_residual_returns_stable_eig():
    H = np.array([[-1.0, 0.5], [0.0, -4.0]])
    shift = hamiltonian_residual_shift(H, np.zeros((2, 1)))
    assert shift.real < 0
    lam = np.linalg.eigvals(H)
    assert np.min(np.abs(lam - shift)) < 1e-10


def test_hamiltonian_without_stable_eigenvalue_falls_back_to_ritz(caplog):
    # a purely imaginary H gives a Hamiltonian with no stable eigenvalue:
    # the most negative Ritz value (the first of a tie) is returned instead
    with caplog.at_level(logging.WARNING, logger="lradi.resmin"):
        shift = hamiltonian_residual_shift(np.diag([1j, 2j]), np.ones((2, 1)))
    assert shift == 1j
    assert "no stable eigenvalue" in caplog.text


def test_hamiltonian_returns_actual_eigenvalue():
    rng = np.random.default_rng(6)
    H = random_stable(6, rng)
    Wt = rng.standard_normal((6, 2))
    shift = hamiltonian_residual_shift(H, Wt)
    Ham = np.block([[H.conj().T, np.zeros((6, 6))],
                    [Wt @ Wt.conj().T, -H]])
    lam = np.linalg.eigvals(Ham)
    cand = shift if shift.imag else complex(shift)
    # Im >= 0 normalization may have conjugated the eigenvalue
    assert min(np.min(np.abs(lam - cand)), np.min(np.abs(lam - np.conj(cand)))) < 1e-10
    assert shift.real < 0 and shift.imag >= 0


def test_hamiltonian_scaling_invariance():
    rng = np.random.default_rng(7)
    H = random_stable(5, rng)
    Wt = rng.standard_normal((5, 1))
    assert_allclose(hamiltonian_residual_shift(H, 100.0 * Wt),
                    hamiltonian_residual_shift(H, Wt), rtol=1e-10)


# ---------------------------------------------------------------------------
# strategy objects
# ---------------------------------------------------------------------------

def test_cyclic_shifts_skip_conjugate_partner():
    cyc = CyclicShifts([-1.0 + 2.0j, -1.0 - 2.0j, -3.0])
    first = cyc.next_shift(SimpleNamespace(j=0)).alpha
    second = cyc.next_shift(SimpleNamespace(j=2)).alpha
    assert first == -1.0 + 2.0j
    assert second == -3.0  # the engine ran the conjugate inside the pair


@pytest.mark.parametrize("text", [
    "heur(6,8,8)", "Z(4)+heur", "Z(4)+conv", "Z(4)+Hres", "resmin+Z(8)+gn",
    "resmin+EK(3,1)+gn, g=2",
])
def test_a_strategy_object_serves_many_solves(text):
    # every solve builds the strategy's seed or shift list at its step 0, so
    # an object that solved cd2d(12) before solves cd2d(15) as a fresh one
    def solve(strategy, n0, seed):
        A = gen_cd2d(n0)
        problem = LyapunovProblem(A, gen_rhs(A.shape[0], 1, seed), tol=1e-8)
        return lr_adi_solve(problem, strategy)

    strategy = make_strategy(parse_strategy(text))
    solve(strategy, 12, 0)
    reused = solve(strategy, 15, 3)
    fresh = solve(make_strategy(parse_strategy(text)), 15, 3)
    assert np.array_equal(reused.shifts, fresh.shifts)
    assert reused.iterations == fresh.iterations
    assert reused.n_factorizations == fresh.n_factorizations


@pytest.mark.parametrize("kind", ["heur", "zheur", "zconv", "zhres", "resmin"])
def test_all_strategies_solve_small_problem(kind):
    rng = np.random.default_rng(8)
    n = 36
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 2))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-9, max_iterations=120)
    cfg = StrategyConfig(kind=kind, J=6, p=4, m=2, h=3)
    report = lr_adi_solve(problem, make_strategy(cfg))
    assert report.converged, f"{kind} failed: {report.final_residual:.2e}"


# shift sequences and counts of every strategy kind on small inputs, recorded
# when each adaptive kind still had its own strategy class; a refactor of
# shift generation must reproduce them
PINNED = json.loads((Path(__file__).parent / "pinned_shifts.json").read_text())


@pytest.mark.parametrize("text", list(PINNED))
def test_strategy_kinds_reproduce_pinned_shifts(text):
    # cd2d(12) with s = 1, or the fem pair with n = 200 and s = 2 for EK;
    # shifts to 1e-12 relative, counts exact
    if text.startswith("resmin+EK"):
        (A, M), s = fem_pair(200), 2
    else:
        A, M, s = gen_cd2d(12), None, 1
    problem = LyapunovProblem(A, gen_rhs(A.shape[0], s, 0), M=M, tol=1e-8)
    report = lr_adi_solve(problem, make_strategy(parse_strategy(text)))
    pinned = PINNED[text]
    assert report.iterations == pinned["iterations"]
    assert report.n_factorizations == pinned["factorizations"]
    expected = np.array([complex(x, y) for x, y in pinned["shifts"]])
    assert_allclose(np.array(report.shifts), expected, rtol=1e-12, atol=0.0)


# the benchmark's three strategies at sizes of 1000 unknowns or more, so that
# the pinned runs take the nested-dissection path of every benchmark workload
PINNED_BENCHMARK = json.loads(
    (Path(__file__).parent / "pinned_benchmark_shifts.json").read_text())
BENCHMARK_INPUTS = {
    "resmin+Z(8)+gauss-newton": (lambda: (gen_cd2d(40), None), 1, 7, 1e-8),
    "Z(4)+Hres": (lambda: (gen_cd3d(11), None), 1, 7, 1e-8),
    "resmin+EK(3,1)+gauss-newton, g=5": (lambda: fem_pair(2048), 4, 0, 1e-10),
}


@pytest.mark.parametrize("text", list(PINNED_BENCHMARK))
def test_benchmark_strategies_reproduce_pinned_shifts(text):
    make_pencil, s, seed, tol = BENCHMARK_INPUTS[text]
    A, M = make_pencil()
    problem = LyapunovProblem(A, gen_rhs(A.shape[0], s, seed), M=M, tol=tol)
    assert problem.n >= 1000
    report = lr_adi_solve(problem, make_strategy(parse_strategy(text)))
    pinned = PINNED_BENCHMARK[text]
    assert report.iterations == pinned["iterations"]
    assert report.n_factorizations == pinned["factorizations"]
    expected = np.array([complex(x, y) for x, y in pinned["shifts"]])
    assert_allclose(np.array(report.shifts), expected, rtol=1e-12, atol=0.0)


@functools.cache
def _scaled_run(pencil, text, a, b):
    """(iterations, factorizations, shifts) of text on (a A, M, b B): cd2d(30)
    with s = 1 and RHS 7, or the fem pair with n = 300, s = 2 and RHS 0."""
    if pencil == "cd2d":
        (A, M), s, seed = (gen_cd2d(30), None), 1, 7
    else:
        (A, M), s, seed = fem_pair(300), 2, 0
    problem = LyapunovProblem(a * A, b * gen_rhs(A.shape[0], s, seed), M=M, tol=1e-8)
    report = lr_adi_solve(problem, make_strategy(parse_strategy(text)))
    return report.iterations, report.n_factorizations, np.array(report.shifts)


SCALES = {"A": (2.0, 3.7, 1e3), "B": (3.7, 1e3, 1e-3)}
# the cases that fail besides both resmin kinds, which fail at every scale:
# resmin's polish damps and stops on absolute scales, heur's seed drops
# directions at one scale for both Krylov streams, and Hres weighs a half
# of its eigenvectors that grows with B (ROADMAP item 13)
SCALING_FAILS = {
    ("cd2d", "A", "heur(20,30,20)"): (1e3,),
    ("fem", "A", "heur(6,8,8)"): (3.7, 1e3),
    ("fem", "A", "heur(20,30,20)"): (2.0, 3.7, 1e3),
    ("fem", "B", "Z(4)+Hres"): (1e3,),
}


def _scaling_cases(pencil, half):
    texts = ["Z(4)+heur", "Z(4)+conv", "Z(4)+Hres", "resmin+Z(8)+gn",
             "resmin+EK(3,1)+gn", "heur(20,30,20)"]
    if pencil == "fem":
        texts.append("heur(6,8,8)")
    for text in texts:
        for c in SCALES[half]:
            broken = (text.startswith("resmin")
                      or c in SCALING_FAILS.get((pencil, half, text), ()))
            marks = [pytest.mark.xfail(strict=True, reason=f"shifts depend on the "
                                       f"units of {half} (ROADMAP item 13)")] if broken else []
            yield pytest.param(text, c, marks=marks, id=f"{text}-c={c:g}")


def _assert_scaling_kept(pencil, half, text, c):
    # (cA, M, B) has the solution X / c, so a shift rule free of the units
    # of A picks c times the shifts of (A, M, B); (A, M, cB) has c^2 X and
    # the same shifts; both in as many steps and LUs. The passing cases
    # round at up to 1.3e-12 on cd2d and 2e-8 on the fem pair (Z(4)+Hres
    # with A * 3.7)
    rtol = 1e-10 if pencil == "cd2d" else 1e-7
    a, b = (c, 1.0) if half == "A" else (1.0, c)
    iterations, factorizations, shifts = _scaled_run(pencil, text, 1.0, 1.0)
    iterations_c, factorizations_c, shifts_c = _scaled_run(pencil, text, a, b)
    assert (iterations_c, factorizations_c) == (iterations, factorizations)
    assert_allclose(shifts_c, a * shifts, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("text, c", list(_scaling_cases("cd2d", "A")))
def test_scaling_A_scales_the_shifts(text, c):
    _assert_scaling_kept("cd2d", "A", text, c)


@pytest.mark.parametrize("pencil, half, text, c", [
    pytest.param(pencil, half, *case.values, marks=case.marks,
                 id=f"{pencil}-{half}-{case.id}")
    for pencil, half in (("cd2d", "B"), ("fem", "A"), ("fem", "B"))
    for case in _scaling_cases(pencil, half)])
def test_scaling_keeps_the_shift_rule(pencil, half, text, c):
    _assert_scaling_kept(pencil, half, text, c)


def test_zheur_converges_on_the_fem_pair_within_hres_steps():
    # the greedy step continued from the executed shifts damps the slowest
    # generalized mode; the min-max pick alone stagnated here (150 steps,
    # residual 1.9e-5)
    A, M = fem_pair(300)
    steps = {}
    for text in ("Z(4)+heur", "Z(4)+Hres"):
        problem = LyapunovProblem(A, gen_rhs(300, 2, 0), M=M, tol=1e-8,
                                  max_iterations=150)
        report = lr_adi_solve(problem, make_strategy(parse_strategy(text)))
        assert report.status == "converged", text
        steps[text] = report.iterations
    assert steps["Z(4)+heur"] <= steps["Z(4)+Hres"]


@pytest.mark.parametrize("call", [
    lambda: extended_krylov_basis(lambda X: X, lambda X: X, np.ones((4, 1)), 1, -1),
    lambda: derive_bounds([]),
    lambda: convex_hull_shift([], []),
    lambda: CyclicShifts([]),
    lambda: gen_cd2d(0),
    lambda: gen_rhs(0, 1, 0),
], ids=["ek-order", "bounds", "hull", "cyclic", "cd2d", "rhs"])
def test_inputs_are_checked(call):
    with pytest.raises(ValueError):
        call()


def test_make_strategy_rejects_unknown_kind():
    # and every config it would misread, before any LU is built: a subspace
    # other than "Z" or "EK", an optimizer resmin does not know, g < 1, and
    # g > 1 on a kind without multistep groups. The config refuses itself,
    # so each is built inside the raises block
    for fields in (dict(kind="nope"),
                   dict(kind="resmin", subspace="ek"),
                   dict(kind="resmin", optimizer="bfgs"),
                   dict(kind="resmin", g=0),
                   dict(kind="zheur", g=5)):
        with pytest.raises(ValueError):
            make_strategy(StrategyConfig(**fields))


@pytest.mark.parametrize("field, fields", [
    ("J", dict(kind="heur", J=0)),
    ("p", dict(kind="heur", p=0)),
    ("h", dict(kind="zheur", h=0)),
    ("h", dict(kind="resmin", h=-2)),
    ("m", dict(kind="resmin", subspace="EK", m=-1)),
    ("g", dict(kind="resmin", g=0)),
    ("kind", dict(kind="nope")),
    ("subspace", dict(kind="resmin", subspace="ek")),
    ("optimizer", dict(kind="resmin", optimizer="bfgs")),
    ("subspace", dict(kind="zheur", subspace="EK")),
    ("subspace", dict(kind="zconv", subspace="EK")),
    ("subspace", dict(kind="zhres", subspace="EK")),
    ("g", dict(kind="zconv", g=2)),
], ids=["J0", "p0", "h0", "h-2", "m-1", "g0", "kind", "subspace-ek", "optimizer",
        "zheur-EK", "zconv-EK", "zhres-EK", "zconv-g2"])
def test_strategy_config_refuses_what_it_would_misread(field, fields):
    # each of these ran as something else (J = 0 as J = 1, EK on a Z(h)
    # kind as the Z window) or failed only inside the solve; the config is
    # the one home of the rules, and refuses itself naming the field
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        StrategyConfig(**fields)


@pytest.mark.parametrize("field", ["J", "p", "m", "h", "g"])
def test_strategy_config_refuses_a_non_integer(field):
    # 2.5 passed the bounds and then ran as a float: g = 2.5 and h = 2.5
    # raised TypeError inside the solve, J = 2.5 ran silently. An integral
    # NumPy value is stored as the int it stands for
    with pytest.raises(ValueError, match=rf"\b{field} must be an integer"):
        StrategyConfig(kind="resmin", **{field: 2.5})
    value = getattr(StrategyConfig(kind="resmin", **{field: np.int64(3)}), field)
    assert value == 3 and type(value) is int


def test_shift_proposal_refuses_a_budget_it_would_alter():
    # the engine runs the budget as it is: 0 no longer runs as 1 nor 2.7 as 2
    for budget in (0, -1, 2.7):
        with pytest.raises(ValueError, match="budget"):
            ShiftProposal(-1.0, budget=budget)
    for budget in (1, 3, np.int64(3)):
        stored = ShiftProposal(-1.0, budget=budget).budget
        assert stored == budget and type(stored) is int


def test_adaptive_strategies_bootstrap_counts_factorization():
    rng = np.random.default_rng(9)
    n = 30
    A = random_stable(n, rng)
    B = rng.standard_normal((n, 1))
    problem = LyapunovProblem(sp.csr_matrix(A), B, tol=1e-8, max_iterations=100)
    strat = make_strategy(StrategyConfig(kind="zconv", h=2))
    report = lr_adi_solve(problem, strat)
    assert report.converged
    # one seed factorization on top of the per-step ones
    pairs = sum(1 for a in report.shifts if a.imag > 0)
    assert report.n_factorizations == report.iterations - pairs + 1


def test_resmin_does_not_import_strategies():
    # resmin is the lower layer: importing it must not pull in strategies,
    # and strategies takes everything it needs from resmin at module level
    src = str(Path(lradi.strategies.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lradi.resmin; "
            "print('lradi.strategies' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
    text = Path(lradi.strategies.__file__).read_text()
    assert not re.search(r"^[ \t]+from \.resmin import", text, re.MULTILINE)
