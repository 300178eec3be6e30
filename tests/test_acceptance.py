"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line with the measured numbers so
a log scrape gives the verdict table; the assertions carry the same
condition.
"""

import time

import numpy as np
import scipy.sparse as sp

from conftest import (
    explicit_extended_krylov,
    factored_residual_gap,
    fd_gradient,
    fd_hessian,
    fem_pair,
    make_objective,
    max_principal_angle,
    random_stable,
    run_shifts,
    sample_point,
    spectral_grid_minimum,
)
from lradi.cli import parse_strategy
from lradi.engine import (
    AdiState,
    LyapunovProblem,
    adi_double_step,
    adi_real_step,
    lr_adi_solve,
    normalize_shift,
    run_multistep_group,
)
from lradi.linalg import sparse_shifted_factorize
from lradi.problems import gen_cd2d, gen_rhs
from lradi.resmin import (
    ShiftObjectiveError,
    _psi_derivatives,
    build_seed,
    eval_derivatives,
    optimize_shift,
    recycle_krylov,
)
from lradi.strategies import make_strategy


def _check(tag, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    print(line)
    assert ok, line


ALL_PATHS = [
    "heur(4,6,6)",
    "Z(4)+heur",
    "Z(4)+conv",
    "Z(4)+Hres",
    "resmin+Z(4)+gauss-newton",
    "resmin+Z(4)+newton-trust",
    "resmin+EK(2,1)+gauss-newton",
    "resmin+EK(2,1)+newton-trust",
]


def test_c1_exact_one_step_convergence():
    rng = np.random.default_rng(0)
    n, s = 100, 3
    A = sp.csr_matrix(-sp.eye(n))
    B = rng.standard_normal((n, s))
    t0 = time.perf_counter()
    worst = 0.0
    one_step = True
    for text in ALL_PATHS:
        problem = LyapunovProblem(A, B.copy(), tol=1e-24, max_iterations=5)
        report = lr_adi_solve(problem, make_strategy(parse_strategy(text)))
        one_step &= report.iterations == 1 and report.status == "converged"
        # scaled residual is (||W||/||B||)^2, so ||W1|| <= 1e-12 ||B||
        # is res1 <= 1e-24
        worst = max(worst, np.sqrt(report.residuals[0]))
    elapsed = time.perf_counter() - t0
    ok = one_step and worst <= 1e-12 and elapsed < 1.0
    _check("one-step convergence on A = -I", ok,
           f"{len(ALL_PATHS)} strategy paths, max ||W1||/||B|| = {worst:.2e}, "
           f"{elapsed:.2f}s")


def test_c2_residual_factorization_identity():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 61))
        s = int(rng.integers(1, 4))
        A = random_stable(n, rng)
        B = rng.standard_normal((n, s))
        As = sp.csr_matrix(A)
        # mixed shift history: always at least one real and one pair
        shifts = [-float(10 ** rng.uniform(-0.5, 1.5)),
                  complex(-float(10 ** rng.uniform(-0.5, 1.0)),
                          float(10 ** rng.uniform(-0.5, 1.0)))]
        for _ in range(int(rng.integers(2, 6))):
            re = -float(10 ** rng.uniform(-0.5, 1.5))
            if rng.random() < 0.4:
                shifts.append(complex(re, float(10 ** rng.uniform(-0.5, 1.0))))
            else:
                shifts.append(re)
        problem = LyapunovProblem(As, B, tol=0.0, max_iterations=200)
        state = AdiState(problem)
        scale = np.linalg.norm(B @ B.T, 2)
        for alpha in shifts:
            fact = sparse_shifted_factorize(problem.pencil, alpha)
            if np.imag(alpha) == 0:
                adi_real_step(state, fact)
            else:
                adi_double_step(state, fact)
            gap = factored_residual_gap(A, state.Z, state.W, B)
            worst = max(worst, gap / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _check("residual factorization identity", ok,
           f"20 instances, worst gap = {worst:.2e} (<= 1e-10), {elapsed:.1f}s")


def test_c3_recycled_extended_krylov_angles():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in (30, 60):
        A = random_stable(n, rng)
        B = rng.standard_normal((n, 1))
        As = sp.csr_matrix(A)
        for p, m in [(2, 0), (2, 1), (1, 2)]:
            seed = build_seed(LyapunovProblem(As, B), p=p, m=m)
            for j in range(2, 9):
                if j % 2 == 0:  # conjugate-pair history
                    shifts = [complex(-1.0, 0.8)]
                    shifts += [-0.5 * (i + 2) for i in range(j - 2)]
                else:  # pure real history
                    shifts = [-0.5 * (i + 1) for i in range(j)]
                state = run_shifts(As, B, shifts)
                assert state.j == j
                co = recycle_krylov(seed, state)
                Q_ref = explicit_extended_krylov(A, state.W, p, m)
                worst = max(worst, max_principal_angle(Q_ref, co.Q))
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _check("extended Krylov recycling", ok,
           f"{cases} histories, worst principal angle = {worst:.2e} "
           f"(<= 1e-8), {elapsed:.1f}s")


def test_c4_derivative_correctness():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    gs = (1, 2, 5)

    errs = {"gradient": 0.0, "hessian": 0.0, "jacobian": 0.0}
    counts = {"gradient": 0, "hessian": 0, "jacobian": 0}
    attempts = 0
    while min(counts.values()) < 50 and attempts < 400:
        attempts += 1
        g = gs[attempts % 3]
        k = int(rng.integers(5, 10))

        if counts["gradient"] < 50:
            co = make_objective(rng, k=k, s=int(rng.integers(1, 4)), g=g)
            nu, xi = sample_point(co, rng)
            try:
                grad = eval_derivatives(co, nu, xi, order=1)[1]
            except ShiftObjectiveError:
                grad = None
            if grad is not None:
                ref = fd_gradient(co, nu, xi)
                errs["gradient"] = max(
                    errs["gradient"],
                    np.linalg.norm(grad - ref) / max(np.linalg.norm(ref), 1e-12))
                counts["gradient"] += 1

        if counts["hessian"] < 50:
            co = make_objective(rng, k=k, s=int(rng.integers(1, 3)), g=g)
            nu, xi = sample_point(co, rng)
            try:
                Hm = eval_derivatives(co, nu, xi)[2]
            except ShiftObjectiveError:
                Hm = None
            if Hm is not None:
                ref = fd_hessian(co, nu, xi)
                errs["hessian"] = max(
                    errs["hessian"],
                    np.linalg.norm(Hm - ref) / max(np.linalg.norm(ref), 1e-12))
                counts["hessian"] += 1

        if counts["jacobian"] < 50:
            co = make_objective(rng, k=k, s=1, g=g)
            nu, xi = sample_point(co, rng)
            # Psi_nu and Psi_xi against central differences of Psi
            J = np.stack(_psi_derivatives(co, nu, xi, 1)[1:])
            d = 1e-7 * max(abs(nu), 1.0)
            fd = np.empty_like(J)
            for col, (dn, dx) in enumerate([(d, 0.0), (0.0, d)]):
                rp = _psi_derivatives(co, nu + dn, xi + dx, 0)[0]
                rm = _psi_derivatives(co, nu - dn, xi - dx, 0)[0]
                fd[col] = (rp - rm) / (2 * d)
            errs["jacobian"] = max(
                errs["jacobian"],
                np.linalg.norm(J - fd) / max(np.linalg.norm(fd), 1e-12))
            counts["jacobian"] += 1

    elapsed = time.perf_counter() - t0
    ok = (counts["gradient"] >= 50 and counts["hessian"] >= 50
          and counts["jacobian"] >= 50
          and errs["gradient"] <= 1e-5 and errs["hessian"] <= 1e-4
          and errs["jacobian"] <= 1e-6 and elapsed < 30.0)
    _check("derivative correctness", ok,
           f"rel err grad {errs['gradient']:.2e} (<=1e-5, n={counts['gradient']}), "
           f"hess {errs['hessian']:.2e} (<=1e-4, n={counts['hessian']}), "
           f"jac {errs['jacobian']:.2e} (<=1e-6, n={counts['jacobian']}), "
           f"{elapsed:.1f}s")


def test_c5_optimizer_matches_grid_oracle():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        co = make_objective(rng, k=8, s=1, g=1)
        gmin = spectral_grid_minimum(co)
        for method in ("gauss-newton", "newton-trust"):
            _, info = optimize_shift(co, method=method)
            worst = max(worst, info["value"] / gmin)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.05 and elapsed < 60.0
    _check("optimizer vs 200x200 grid oracle", ok,
           f"10 objectives x 2 backends, worst value/grid-min = {worst:.4f} "
           f"(<= 1.05), {elapsed:.1f}s")


def test_c6_flagship_iteration_count():
    n0 = 200
    A = gen_cd2d(n0)
    B = gen_rhs(n0 * n0, 1, 7)
    problem = LyapunovProblem(A, B, tol=1e-8, max_iterations=150)
    strategy = make_strategy(parse_strategy("resmin+Z(8)+gauss-newton"))
    report = lr_adi_solve(problem, strategy)
    ok = (report.status == "converged" and report.iterations <= 75
          and report.final_residual <= 1e-8)
    _check("flagship run on 200x200 grid", ok,
           f"resmin+Z(8): {report.iterations} iterations (<= 75), "
           f"residual {report.final_residual:.2e} (<= 1e-8), "
           f"{report.t_total:.1f}s")


def test_c7_strategy_ordering():
    n0 = 200
    A = gen_cd2d(n0)
    B = gen_rhs(n0 * n0, 1, 7)
    runs = {}
    for text in ("resmin+Z(4)+gauss-newton", "Z(4)+Hres", "Z(4)+heur",
                 "heur(20,30,20)"):
        problem = LyapunovProblem(A, B, tol=1e-8, max_iterations=250)
        report = lr_adi_solve(problem, make_strategy(parse_strategy(text)))
        runs[text] = report
    its = [runs[t].iterations for t in ("resmin+Z(4)+gauss-newton",
                                        "Z(4)+Hres", "Z(4)+heur",
                                        "heur(20,30,20)")]
    bands = [75, 92.5, 92.5, 171.25]  # +25% over 60/74/74/137
    ordered = its[0] <= its[1] <= its[2] <= its[3]
    in_band = all(c <= b for c, b in zip(its, bands))
    converged = all(r.status == "converged" and r.final_residual <= 1e-8
                    for r in runs.values())
    ok = ordered and in_band and converged
    _check("strategy ordering on 200x200 grid", ok,
           f"iterations {its[0]} <= {its[1]} <= {its[2]} <= {its[3]}, "
           f"bands {bands}, all converged to 1e-8")


def test_c8_multistep_factorization_savings():
    n0 = 200
    A = gen_cd2d(n0)
    B = gen_rhs(n0 * n0, 1, 18)
    reports = {}
    for g in (1, 5):
        problem = LyapunovProblem(A, B, tol=1e-8, max_iterations=150)
        strategy = make_strategy(parse_strategy(
            f"resmin+EK(3,1)+gauss-newton, g={g}"))
        reports[g] = lr_adi_solve(problem, strategy)
    r1, r5 = reports[1], reports[5]
    ok = (r5.status == "converged" and r5.iterations <= 150
          and r1.status == "converged"
          and r1.n_factorizations >= 4 * r5.n_factorizations
          and r5.t_total < r1.t_total)
    _check("multistep factorization savings", ok,
           f"g=5: {r5.iterations} its / {r5.n_factorizations} facts / "
           f"{r5.t_total:.1f}s vs g=1: {r1.iterations} its / "
           f"{r1.n_factorizations} facts / {r1.t_total:.1f}s "
           f"(ratio {r1.n_factorizations / r5.n_factorizations:.2f} >= 4)")


def test_c9_generalized_path():
    # large run: SPD tridiagonal mass, A = -stiffness
    n = 4096
    A, M = fem_pair(n)
    B = gen_rhs(n, 1, 0)
    problem = LyapunovProblem(A, B, M=M, tol=1e-10, max_iterations=150)
    strategy = make_strategy(parse_strategy("resmin+Z(8)+gauss-newton"))
    report = lr_adi_solve(problem, strategy)
    big_ok = (report.status == "converged" and report.iterations <= 150
              and report.final_residual <= 1e-10)

    # dense check: generalized residual identity at every step on n = 50
    n_small = 50
    As, Ms = fem_pair(n_small)
    Bs = gen_rhs(n_small, 1, 0)
    problem = LyapunovProblem(As, Bs, M=Ms, tol=1e-10, max_iterations=120)
    strategy = make_strategy(parse_strategy("resmin+Z(8)+gauss-newton"))
    state = AdiState(problem)
    scale = np.linalg.norm(Bs @ Bs.T, 2)
    worst = 0.0
    for _ in range(80):
        prop = strategy.next_shift(state)
        alpha = normalize_shift(prop.alpha)
        fact = sparse_shifted_factorize(problem.pencil, alpha)
        run_multistep_group(state, fact, prop.budget)
        gap = factored_residual_gap(As.toarray(), state.Z, state.W, Bs,
                                    M=Ms.toarray())
        worst = max(worst, gap / scale)
        if state.res_history[-1] <= 1e-10:
            break
    small_ok = state.res_history[-1] <= 1e-10 and worst <= 1e-10
    ok = big_ok and small_ok
    _check("generalized Lyapunov path", ok,
           f"n=4096: {report.iterations} its (<= 150), residual "
           f"{report.final_residual:.2e} (<= 1e-10); n=50 dense identity "
           f"worst gap {worst:.2e} (<= 1e-10)")
