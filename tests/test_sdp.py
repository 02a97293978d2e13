from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import complete_graph, path_graph
from sdpcolor.certificates import ktree_dual
from sdpcolor.formulations import build_cost_sdp, build_svcn, reference_solution
from sdpcolor.graphs import Coloring, is_ktree
from sdpcolor.sdp import (
    INACCURATE,
    MAX_ITERATIONS,
    OPTIMAL,
    SdpProblem,
    check_complementarity,
    format_problem,
    parse_problem,
    solve,
    verify_feasible_dual,
)


def diagonal_lp_instance(rng, dim, m):
    """Random diagonal SDP that reduces to an LP with both sides strictly feasible."""
    rows = rng.normal(size=(m, dim))
    x0 = rng.uniform(0.5, 2.0, size=dim)
    b = rows @ x0
    y0 = rng.normal(size=m)
    c_diag = rows.T @ y0 + rng.uniform(0.5, 2.0, size=dim)
    constraints = [(np.diag(rows[i]), b[i]) for i in range(m)]
    return SdpProblem.build(dim, np.diag(c_diag), constraints), c_diag, rows, b


class TestLpReduction:
    def test_fifty_random_instances_match_linprog(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            dim = int(rng.integers(3, 9))
            m = int(rng.integers(1, dim))
            problem, c_diag, rows, b = diagonal_lp_instance(rng, dim, m)
            sol = solve(problem)
            lp = linprog(c_diag, A_eq=rows, b_eq=b, bounds=(0, None), method="highs")
            assert lp.success, f"oracle LP failed on trial {trial}"
            assert sol.status == OPTIMAL, f"trial {trial}: {sol.status}"
            scale = 1.0 + abs(lp.fun)
            assert abs(sol.primal_obj - lp.fun) <= 1e-7 * scale, (
                f"trial {trial}: {sol.primal_obj} vs {lp.fun}"
            )


@pytest.fixture(scope="module")
def solved_batch():
    rng = np.random.default_rng(7)
    solutions = []
    for _ in range(10):
        dim = int(rng.integers(3, 9))
        m = int(rng.integers(1, dim))
        problem, *_ = diagonal_lp_instance(rng, dim, m)
        solutions.append((problem, solve(problem)))
    for k in (3, 4):
        problem = build_svcn(complete_graph(k)).problem
        solutions.append((problem, solve(problem)))
    return solutions


class TestSolverProperties:
    def test_weak_duality(self, solved_batch):
        for problem, sol in solved_batch:
            if sol.status == OPTIMAL:
                assert sol.primal_obj >= sol.dual_obj - 1e-7 * (1 + abs(sol.primal_obj))

    def test_optimal_invariants(self, solved_batch):
        for problem, sol in solved_batch:
            if sol.status != OPTIMAL:
                continue
            a, b = problem.stacked()
            scale = 1.0 + (np.max(np.abs(b)) if len(b) else 0.0) + np.max(
                np.abs(problem.objective)
            )
            assert sol.residuals.primal_inf <= 1e-8 * scale
            assert sol.residuals.dual_inf <= 1e-8 * scale
            gap = abs(sol.primal_obj - sol.dual_obj)
            assert gap <= 1e-8 * (1.0 + abs(sol.primal_obj))
            assert sol.residuals.min_eig_x >= -1e-9
            assert sol.residuals.min_eig_s >= -1e-9

    def test_complementarity_on_optimal_solves(self, solved_batch):
        for _, sol in solved_batch:
            if sol.status == OPTIMAL:
                report = check_complementarity(sol.X, sol.S, tol=1e-5)
                assert report.verdict, (report.product_norm, report.rank_sum)

    def test_deterministic(self):
        problem = build_svcn(complete_graph(4)).problem
        a = solve(problem)
        b = solve(problem)
        assert a.iterations == b.iterations
        assert abs(a.primal_obj - b.primal_obj) <= 1e-12
        assert np.array_equal(a.X, b.X)

    def test_infeasible_problem_degrades_gracefully(self):
        # X_11 = -1 contradicts positive semidefiniteness
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        problem = SdpProblem.build(2, np.eye(2), [(a, -1.0)])
        sol = solve(problem)
        assert sol.status == MAX_ITERATIONS

    def test_relaxed_candidate_matches_relaxed_tolerance(self, corpora):
        # The strict tolerance is never met on this zero-cost solve, and the
        # one pass keeps the iterate that a separate solve at 10 * tol returns.
        g = corpora[9][23]
        problem = build_cost_sdp(g, 4, np.zeros((g.n, g.n))).problem
        sol = solve(problem)
        relaxed = solve(problem, tol=1e-7)
        assert sol.status == INACCURATE
        assert relaxed.status == OPTIMAL and relaxed.iterations == 14
        assert np.array_equal(sol.X, relaxed.X)
        assert np.array_equal(sol.y, relaxed.y)
        assert np.array_equal(sol.S, relaxed.S)


class TestCheckComplementarity:
    def test_reference_vs_ktree_dual_on_k4(self):
        g = complete_graph(4)
        x = reference_solution(g, Coloring(4, (1, 2, 3, 4)))
        s = ktree_dual(g, is_ktree(g, 4))
        report = check_complementarity(x, s, tol=1e-5)
        assert report.verdict
        assert report.product_norm <= 1e-12  # closed forms multiply to zero
        assert report.rank_x == 3 and report.rank_s == 1

    def test_identity_pair_fails(self):
        report = check_complementarity(np.eye(3), np.eye(3), tol=1e-5)
        assert not report.verdict

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_complementarity(np.eye(2), np.eye(3), tol=1e-5)


class TestVerifyFeasibleDual:
    def test_hand_assignment_on_path(self):
        g = path_graph(3)
        # cost matrix for coloring (1,2,1) has a single -1 chain link at (1,3)
        cost = np.zeros((3, 3))
        cost[0, 2] = cost[2, 0] = -1.0
        inst = build_cost_sdp(g, 2, cost)
        assert inst.edge_order == ((1, 2), (2, 3))
        y = np.array([-1.0, 0.0, -2.0, -1.0, -1.0])  # z_12, z_23, y_1, y_2, y_3
        report = verify_feasible_dual(inst.problem, y)
        expected = np.array([[2.0, 1.0, -1.0], [1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.array_equal(report.S, expected)
        assert report.psd
        assert abs(report.dual_obj + 2.0) < 1e-12

    def test_zero_dual_with_psd_objective(self):
        problem = SdpProblem.build(2, np.eye(2), [(np.eye(2), 1.0)])
        report = verify_feasible_dual(problem, [0.0])
        assert report.psd and np.array_equal(report.S, np.eye(2))

    def test_negative_diagonal_detected(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        problem = SdpProblem.build(2, np.eye(2), [(a, 1.0)])
        report = verify_feasible_dual(problem, [2.0])
        assert not report.psd

    def test_wrong_length(self):
        problem = SdpProblem.build(2, np.eye(2), [(np.eye(2), 1.0)])
        with pytest.raises(ValueError):
            verify_feasible_dual(problem, [1.0, 2.0])


class TestProblemDump:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        problem, *_ = diagonal_lp_instance(rng, 4, 2)
        back = parse_problem(format_problem(problem))
        assert back.dim == problem.dim and back.m == problem.m
        assert np.array_equal(back.objective, problem.objective)
        for (a1, b1), (a2, b2) in zip(back.constraints, problem.constraints):
            assert np.array_equal(a1, a2) and b1 == b2

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            SdpProblem.build(2, np.eye(2), [])
        with pytest.raises(ValueError):
            SdpProblem.build(2, np.eye(2), [(np.eye(3), 1.0)])
