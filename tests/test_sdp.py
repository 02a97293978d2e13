from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.optimize import linprog

from conftest import complete_graph, path_graph
from duality import check_complementarity, verify_feasible_dual
from sdpcolor import sdp
from sdpcolor.certificates import certify_cost, ktree_dual
from sdpcolor.formulations import (
    build_cost_sdp,
    build_svcn,
    clique_face,
    reference_solution,
    solve_cost,
    solve_svcn,
)
from sdpcolor.graphs import (
    Coloring,
    chromatic_oracle,
    generate_ktree,
    is_ktree,
    parse_plantri_ascii,
)
from sdpcolor.heuristics import heuristic1
from sdpcolor.linalg import min_eigenvalue, numerical_rank, symmetrize
from sdpcolor.sdp import (
    DEFAULT_TOL,
    INACCURATE,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    OPTIMAL,
    _SCHUR_BLOCK,
    ConstraintMap,
    FaceMap,
    _cholesky,
    _Factor,
    _inverse,
    _max_step,
    solve,
)


def diagonal_lp_instance(rng, dim, m):
    """Random diagonal SDP of order dim that reduces to an LP with both sides
    strictly feasible: (constraints, C, diag C, LP rows, b)."""
    rows = rng.normal(size=(m, dim))
    x0 = rng.uniform(0.5, 2.0, size=dim)
    b = rows @ x0
    y0 = rng.normal(size=m)
    c_diag = rows.T @ y0 + rng.uniform(0.5, 2.0, size=dim)
    constraints = [([(j, j, rows[i, j]) for j in range(dim)], b[i]) for i in range(m)]
    return constraints, np.diag(c_diag), c_diag, rows, b


def svcn_instance(g):
    """(dim, constraints, objective) of g's SVCN, as solve_svcn poses it."""
    dim = g.n + 1
    objective = np.zeros((dim, dim))
    objective[0, 0] = -1.0
    return dim, build_svcn(g), objective


class TestLpReduction:
    def test_fifty_random_instances_match_linprog(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            dim = int(rng.integers(3, 9))
            m = int(rng.integers(1, dim))
            constraints, objective, c_diag, rows, b = diagonal_lp_instance(rng, dim, m)
            sol = solve(ConstraintMap(dim, constraints), objective)
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
    instances = []
    for _ in range(10):
        dim = int(rng.integers(3, 9))
        m = int(rng.integers(1, dim))
        constraints, objective, *_ = diagonal_lp_instance(rng, dim, m)
        instances.append((dim, constraints, objective))
    instances += [svcn_instance(complete_graph(k)) for k in (3, 4)]
    return [(dim, constraints, objective,
             solve(ConstraintMap(dim, constraints), objective))
            for dim, constraints, objective in instances]


def link_cost(g, links):
    """g's cost matrix with -1 at each link (i, j) of 1-based vertices."""
    cost = np.zeros((g.n, g.n))
    for i, j in links:
        cost[i - 1, j - 1] = cost[j - 1, i - 1] = -1.0
    return cost


# Heuristic 1's third cost solve on graph #7231 (0-based) of the generated
# n = 12 corpus, which never meets DEFAULT_TOL: its graph and its cost's links
STALL_LINE = "12 dfijkl,cdfghik,bdeg,abcefi,cdgi,abdhj,bcei,bfjk,abdegk,afhkl,abhijl,ajk"
STALL_LINKS = ((1, 2), (3, 10), (6, 11), (8, 12))


def stall_face_solve():
    """(face, projected cost, solution) of the stalling solve."""
    g = parse_plantri_ascii(STALL_LINE)[0]
    cost = link_cost(g, STALL_LINKS)
    face = clique_face(g, 4)
    return face, face.basis.T @ cost @ face.basis, solve_cost(face, cost).face


def passes_relaxed(face, c, sol):
    """Whether sol's iterate is within 10 * DEFAULT_TOL, recomputed from the face."""
    scale = 1.0 + np.max(np.abs(face.b)) + np.max(np.abs(c))
    primal = np.max(np.abs(face.b - face.gather(sol.X))) / scale
    dual = np.max(np.abs(c - sol.S - face.scatter(sol.y))) / scale
    gap = abs(sol.primal_obj - sol.dual_obj) / (1.0 + abs(sol.primal_obj))
    return max(primal, dual, gap) <= 10 * DEFAULT_TOL


def residuals(dim, constraints, objective, sol):
    """||A(X) - b||_inf and ||S - C + sum_i y_i A_i||_max, from the dense A_i."""
    mats = dense_constraints(dim, constraints)
    primal = max(abs(np.sum(a * sol.X) - bi) for a, (_, bi) in zip(mats, constraints))
    dual = np.max(np.abs(sol.S - objective + sum(yi * a for yi, a in zip(sol.y, mats))))
    return primal, dual


class TestSolverProperties:
    def test_weak_duality(self, solved_batch):
        for *_, sol in solved_batch:
            if sol.status == OPTIMAL:
                assert sol.primal_obj >= sol.dual_obj - 1e-7 * (1 + abs(sol.primal_obj))

    def test_optimal_invariants(self, solved_batch):
        for dim, constraints, objective, sol in solved_batch:
            if sol.status != OPTIMAL:
                continue
            b = [bi for _, bi in constraints]
            scale = 1.0 + (np.max(np.abs(b)) if len(b) else 0.0) + np.max(np.abs(objective))
            primal_inf, dual_inf = residuals(dim, constraints, objective, sol)
            assert primal_inf <= 1e-8 * scale
            assert dual_inf <= 1e-8 * scale
            gap = abs(sol.primal_obj - sol.dual_obj)
            assert gap <= 1e-8 * (1.0 + abs(sol.primal_obj))
            assert min_eigenvalue(sol.X) >= -1e-9
            assert min_eigenvalue(sol.S) >= -1e-9

    def test_complementarity_on_optimal_solves(self, solved_batch):
        for *_, sol in solved_batch:
            if sol.status == OPTIMAL:
                verdict, product_norm, rank_x, rank_s = check_complementarity(
                    sol.X, sol.S, tol=1e-5)
                assert verdict, (product_norm, rank_x + rank_s)

    def test_deterministic(self):
        dim, constraints, objective = svcn_instance(complete_graph(4))
        a = solve(ConstraintMap(dim, constraints), objective)
        b = solve(ConstraintMap(dim, constraints), objective)
        assert a.iterations == b.iterations
        assert abs(a.primal_obj - b.primal_obj) <= 1e-12
        assert np.array_equal(a.X, b.X)

    def test_lu_fallback_is_counted(self, fig1):
        # the Schur matrix of a 3-tree's SVCN turns numerically singular near
        # its (primal-degenerate) optimum; fig1's never does
        assert solve_svcn(fig1).solution.lu_steps == 0
        sol = solve_svcn(generate_ktree(4, 60, 20240811)[0]).solution
        assert sol.status == OPTIMAL
        assert 0 < sol.lu_steps <= sol.iterations

    def test_svcn_ranks_within_iteration_bound(self, fig1):
        # the post-tolerance window serves these rank counts: the first passing
        # iterate and the next one resolve them
        cases = [(fig1, (24, 1), 13)]
        cases += [(generate_ktree(4, n, 20240811)[0], (3, n - 3), max_iterations)
                  for n, max_iterations in ((60, 14), (80, 15), (100, 15))]
        for g, ranks, max_iterations in cases:
            summary = solve_svcn(g, tau=1e-6)
            assert summary.solution.status == OPTIMAL
            assert (summary.rank_primal, summary.rank_dual) == ranks
            assert summary.solution.iterations <= max_iterations

    @pytest.mark.parametrize("n, seed, max_iterations",
                             [(150, 20240811, 20), (400, 1, 25), (400, 7, 25)])
    def test_svcn_at_scale_ends_optimal_well_under_the_cap(self, n, seed, max_iterations):
        # 4-trees past svcn_large's sizes, whose Schur matrices turn
        # numerically singular near the optimum: the SVCN still ends optimal
        # in about as many iterations as at n = 60-100, with the rank pair
        # of a uniquely 4-colorable graph
        g = generate_ktree(4, n, seed)[0]
        start = time.perf_counter()
        summary = solve_svcn(g)
        elapsed = time.perf_counter() - start
        assert summary.solution.status == OPTIMAL
        assert summary.solution.iterations <= max_iterations
        assert (summary.rank_primal, summary.rank_dual) == (3, n - 3)
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    def test_infeasible_problem_degrades_gracefully(self):
        # X_11 = -1 contradicts positive semidefiniteness, so no iterate is
        # ever feasible. The iterates run toward the boundary of the cone
        # until X or S loses its Cholesky factor, and the numerical-failure
        # exit ends the solve well under the cap
        ops = ConstraintMap(2, [([(0, 0, 1.0)], -1.0)])
        for objective, status, iterations in ((np.eye(2), NUMERICAL_FAILURE, 176),
                                              (np.zeros((2, 2)), NUMERICAL_FAILURE, 18)):
            with np.errstate(over="ignore", invalid="ignore"):
                sol = solve(ops, objective)
            assert (sol.status, sol.iterations) == (status, iterations)

    def test_zero_objective_ends_at_its_first_feasible_iterate(self, fig3):
        # C = 0 makes (y, S) = (0, 0) an exact dual optimum. K_4's clique face
        # is a point (d = 3, m = 6) that one step lands on; fig3's is not. The
        # iterate is positive definite on the face, so its rank is the order.
        for g, order, iterations in ((complete_graph(4), 3, 1), (fig3, 9, 2)):
            face = clique_face(g, 4)
            sol = solve(face, np.zeros((order, order)))
            assert (sol.status, sol.iterations, sol.lu_steps) == (OPTIMAL, iterations, 0)
            assert not sol.y.any() and not sol.S.any()
            assert sol.primal_obj == sol.dual_obj == 0.0
            scale = 1.0 + np.max(np.abs(face.b))
            assert np.max(np.abs(face.b - face.gather(sol.X))) <= DEFAULT_TOL * scale
            assert min_eigenvalue(sol.X) > 0.0
            assert numerical_rank(sol.X) == order

    def test_objective_must_fit_the_operator(self, corpora):
        ops = ConstraintMap(2, [([(0, 0, 1.0), (1, 1, 1.0)], 1.0)])
        with pytest.raises(ValueError, match="not symmetric"):
            solve(ops, np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="order"):
            solve(ops, np.eye(3))
        face = clique_face(corpora[10][179], 4)
        with pytest.raises(ValueError, match="order"):  # a cost not projected to the face
            solve(face, np.eye(face.basis.shape[0]))

    def test_solve_cost_rejects_asymmetric_cost(self, corpora):
        g = corpora[10][179]
        cost = np.zeros((g.n, g.n))
        cost[0, 1] = -1.0
        with pytest.raises(ValueError, match="not symmetric"):
            solve_cost(clique_face(g, 4), cost)

    def test_non_finite_direction_ends_as_numerical_failure(self):
        # C_11 = 1e200 puts X . S beyond the float range, so the first search
        # direction overflows; the solve returns the iterate it started from
        ops = ConstraintMap(2, [([(0, 0, 1.0), (1, 1, 1.0)], 1.0)])
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve(ops, np.diag([1e200, 1.0]))
        assert sol.status == NUMERICAL_FAILURE
        assert sol.iterations == 1

    def test_capped_face_solve_returns_relaxed_window(self, monkeypatch):
        # No solve of the parity sets reaches the cap, so it is lowered here
        # (solve reads DEFAULT_MAX_ITER when called). The stalling solve's
        # 14th iterate is the first within 10 * DEFAULT_TOL: a cap of 12
        # returns the last iterate as max-iterations, and a cap of 14 returns
        # that window's iterate as inaccurate
        for cap, status in ((12, MAX_ITERATIONS), (14, INACCURATE)):
            monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", cap)
            face, c, sol = stall_face_solve()
            assert (sol.status, sol.iterations) == (status, cap)
            assert passes_relaxed(face, c, sol) == (status == INACCURATE)

    def test_solution_reports_the_residuals_of_its_iterate(self, fig1):
        # rel_p, rel_d and rel_gap against a recomputation from the dense
        # A_i, on the stalling face solve and on fig1's optimal SVCN
        g = parse_plantri_ascii(STALL_LINE)[0]
        face = clique_face(g, 4)
        dim, constraints, objective = svcn_instance(fig1)
        cases = [(face, face.constraints,
                  dense_constraints(g.n, face.constraints, face.basis),
                  symmetrize(face.basis.T @ link_cost(g, STALL_LINKS) @ face.basis),
                  INACCURATE, 10 * DEFAULT_TOL),
                 (ConstraintMap(dim, constraints), constraints,
                  dense_constraints(dim, constraints), objective, OPTIMAL, DEFAULT_TOL)]
        for ops, constraints, mats, c, status, tol in cases:
            sol = solve(ops, c)
            assert sol.status == status
            b = np.array([bi for _, bi in constraints])
            scale = 1.0 + np.max(np.abs(b)) + np.max(np.abs(c))
            rel_p = max(abs(bi - np.sum(a * sol.X)) for a, bi in zip(mats, b)) / scale
            rel_d = np.max(np.abs(c - sol.S - sum(yi * a for yi, a in zip(sol.y, mats)))) / scale
            pobj = np.sum(c * sol.X)
            rel_gap = abs(pobj - b @ sol.y) / (1.0 + abs(pobj))
            for got, ref in ((sol.rel_p, rel_p), (sol.rel_d, rel_d), (sol.rel_gap, rel_gap)):
                assert got == pytest.approx(ref, rel=1e-6, abs=1e-14)
                assert got <= tol

    def test_face_solve_that_loses_s_returns_relaxed_window(self):
        # The stalling solve never meets DEFAULT_TOL: S loses its Cholesky
        # factor on the 31st iteration, long after its 14th iterate opened
        # the window at 10 * DEFAULT_TOL, and the numerical-failure exit
        # returns that window's iterate as inaccurate. Heuristic 1 goes on
        # to color the graph.
        face, c, sol = stall_face_solve()
        assert (sol.status, sol.iterations) == (INACCURATE, 31)
        assert passes_relaxed(face, c, sol)
        assert (sol.rel_p, sol.rel_gap) == pytest.approx((1.9e-9, 1.6e-8), rel=0.05)
        assert sol.rel_d < 1e-15
        g = parse_plantri_ascii(STALL_LINE)[0]
        assert certify_cost(g, chromatic_oracle(g)[1]).verdict
        out = heuristic1(g)
        assert (out.status, out.solve_count) == ("colored", 6)
        assert out.coloring.assignment == (1, 1, 2, 4, 1, 3, 3, 4, 2, 2, 3, 4)
        # Heuristic 1's third cost solve on graph #44174 (0-based) of the
        # generated n = 13 corpus keeps both factors and ends optimal, and the
        # heuristic colors the graph from it
        line = "13 dfhijkl,cefgiklm,bdef,acefi,bcdgi,abcdhl,bei,afjl,abdegk,ahl,abilm,abfhjkm,bkl"
        g = parse_plantri_ascii(line)[0]
        cost = link_cost(g, ((1, 2), (3, 8), (5, 6), (6, 10)))
        sol = solve_cost(clique_face(g, 4), cost).face
        assert (sol.status, sol.iterations) == (OPTIMAL, 11)
        out = heuristic1(g)
        assert (out.status, out.solve_count) == ("colored", 3)
        assert out.coloring.assignment == (1, 1, 3, 4, 2, 2, 4, 3, 3, 2, 2, 4, 3)

    def test_face_solve_past_its_best_merit_ends_optimal(self):
        # Heuristic 2's third cost solve on graph #24250 (0-based) of the
        # generated n = 13 corpus, which is sensitive to the symmetry of S^-1;
        # with the exactly symmetric S^-1 it closes the window at 15.
        line = "13 bdfhjklm,aceghiklm,bdefh,acefik,bcdgi,acdh,bei,abcfjl,bdegk,ahl,abdim,abhj,abk"
        g = parse_plantri_ascii(line)[0]
        sol = solve_cost(clique_face(g, 4), link_cost(g, ((1, 3), (2, 4)))).face
        assert sol.status == OPTIMAL
        assert sol.iterations == 15


def dense_constraints(dim, constraints, basis=None):
    """Each A_i as a dense matrix, taken to face coordinates V^T A_i V when
    given a face basis V."""
    mats = []
    for entries, _ in constraints:
        a = np.zeros((dim, dim))
        for r, c, value in entries:
            a[r, c] = a[c, r] = value
        mats.append(a if basis is None else basis.T @ a @ basis)
    return mats


class TestConstraintMap:
    def instances(self, fig3, corpora):
        """(operator, its A_i as dense matrices) for each operator checked."""
        g = corpora[10][179]
        face = clique_face(g, 4)
        tree = generate_ktree(4, 30, 20240811)[0]
        maps = [(fig3.n + 1, build_svcn(fig3)), (g.n, build_cost_sdp(g, 4)),
                (6, diagonal_lp_instance(np.random.default_rng(5), 6, 4)[0]),
                (tree.n + 1, build_svcn(tree))]
        pairs = [(ConstraintMap(dim, cons), dense_constraints(dim, cons)) for dim, cons in maps]
        return pairs + [(face, dense_constraints(g.n, face.constraints, face.basis))]

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            ConstraintMap(2, [])
        with pytest.raises(ValueError):
            ConstraintMap(2, [([(2, 2, 1.0)], 1.0)])
        with pytest.raises(ValueError):  # a cell listed twice in one constraint
            ConstraintMap(2, [([(0, 1, 1.0), (0, 1, 2.0)], 1.0)])
        with pytest.raises(ValueError):  # a face checks the constraints it is given
            FaceMap(np.eye(2), ((((1, 0, 1.0),), 1.0),))  # r > c

    def test_schur_spans_several_blocks(self):
        # the 30-vertex 3-tree's SVCN: its shared cells collapse, and what
        # is left still fills more than one row block of schur
        tree = generate_ktree(4, 30, 20240811)[0]
        ops = ConstraintMap(tree.n + 1, build_svcn(tree))
        assert _SCHUR_BLOCK < ops.cell_p.size < ops.p.size

    def test_operators_match_dense_definitions(self, fig3, corpora):
        rng = np.random.default_rng(11)

        def close(got, ref):
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

        for ops, mats in self.instances(fig3, corpora):
            order = ops.order
            x, t = (symmetrize(rng.normal(size=(order, order))) for _ in range(2))
            y = rng.normal(size=len(mats))
            close(ops.gather(x), np.array([np.sum(a * x) for a in mats]))
            close(ops.scatter(y), sum(yi * a for yi, a in zip(y, mats)))
            close(ops.schur(x, t),
                  np.array([[np.trace(ai @ x @ aj @ t) for aj in mats] for ai in mats]))
            eye = np.eye(order)
            close(ops.schur(eye, eye),
                  np.array([[np.sum(ai * aj) for aj in mats] for ai in mats]))

    def test_reused_face_solves_like_a_fresh_one(self, corpora):
        g = corpora[10][179]
        first, second = np.zeros((g.n, g.n)), np.zeros((g.n, g.n))
        first[0, 1] = first[1, 0] = -1.0
        second[3, 6] = second[6, 3] = -1.0
        face = clique_face(g, 4)
        solve_cost(face, first)
        reused = solve_cost(face, second)
        fresh = solve_cost(clique_face(g, 4), second)
        assert reused.face.status == fresh.face.status == OPTIMAL
        assert np.array_equal(reused.X, fresh.X)


class TestCheckComplementarity:
    def test_reference_vs_ktree_dual_on_k4(self):
        g = complete_graph(4)
        x = reference_solution(g, Coloring(4, (1, 2, 3, 4)))
        s = ktree_dual(g, is_ktree(g, 4))
        verdict, product_norm, rank_x, rank_s = check_complementarity(x, s, tol=1e-5)
        assert verdict
        assert product_norm <= 1e-12  # closed forms multiply to zero
        assert rank_x == 3 and rank_s == 1

    def test_identity_pair_fails(self):
        verdict, *_ = check_complementarity(np.eye(3), np.eye(3), tol=1e-5)
        assert not verdict

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_complementarity(np.eye(2), np.eye(3), tol=1e-5)


class TestVerifyFeasibleDual:
    def test_hand_assignment_on_path(self):
        g = path_graph(3)
        # cost matrix for coloring (1,2,1) has a single -1 chain link at (1,3)
        cost = np.zeros((3, 3))
        cost[0, 2] = cost[2, 0] = -1.0
        ops = ConstraintMap(g.n, build_cost_sdp(g, 2))
        assert g.edge_list() == [(1, 2), (2, 3)]  # the edge constraints' order
        y = np.array([-1.0, 0.0, -2.0, -1.0, -1.0])  # z_12, z_23, y_1, y_2, y_3
        s, psd, dual_obj = verify_feasible_dual(ops, cost, y)
        expected = np.array([[2.0, 1.0, -1.0], [1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.array_equal(s, expected)
        assert psd
        assert abs(dual_obj + 2.0) < 1e-12

    def test_zero_dual_with_psd_objective(self):
        ops = ConstraintMap(2, [([(0, 0, 1.0), (1, 1, 1.0)], 1.0)])
        s, psd, _ = verify_feasible_dual(ops, np.eye(2), [0.0])
        assert psd and np.array_equal(s, np.eye(2))

    def test_negative_diagonal_detected(self):
        ops = ConstraintMap(2, [([(0, 0, 1.0)], 1.0)])
        _, psd, _ = verify_feasible_dual(ops, np.eye(2), [2.0])
        assert not psd

    def test_wrong_length(self):
        ops = ConstraintMap(2, [([(0, 0, 1.0), (1, 1, 1.0)], 1.0)])
        with pytest.raises(ValueError):
            verify_feasible_dual(ops, np.eye(2), [1.0, 2.0])


def random_pd(rng, dim):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + 0.1 * np.eye(dim)


class TestKernels:
    def test_max_step_matches_dense_reference(self):
        # 60 and 101: orders of svcn_large's SVCN solves (61 to 101)
        rng = np.random.default_rng(17)
        for dim in (*range(3, 13), 60, 101):
            p = random_pd(rng, dim)
            dp = symmetrize(rng.normal(size=(dim, dim)))
            w, q = np.linalg.eigh(p)
            inv_half = (q / np.sqrt(w)) @ q.T  # P^{-1/2}
            lam = np.linalg.eigvalsh(symmetrize(inv_half @ dp @ inv_half))[0]
            assert lam < 0
            alpha = _max_step(_cholesky(p), dp)
            assert abs(alpha - (-1.0 / lam)) <= 1e-10 * (-1.0 / lam), dim
            # p + alpha dp sits on the PSD boundary
            edge = np.linalg.eigvalsh(p + alpha * dp)
            assert abs(edge[0]) <= 1e-9 * edge[-1], dim

    def test_max_step_unbounded_along_psd_direction(self):
        rng = np.random.default_rng(18)
        for dim in (3, 7, 12):
            p = random_pd(rng, dim)
            a = rng.normal(size=(dim, dim - 1))
            assert _max_step(_cholesky(p), a @ a.T) == np.inf
            assert _max_step(_cholesky(p), np.zeros((dim, dim))) == np.inf

    def test_cholesky_raises_on_singular_matrix(self):
        # a lost factor ends the solve at the numerical-failure exit
        for p in (np.diag([2.0, 1.0, 0.0]), np.diag([1.0, -1e-300]), np.zeros((1, 1))):
            with pytest.raises(np.linalg.LinAlgError):
                _cholesky(p)

    def test_inverse_is_exactly_symmetric(self):
        rng = np.random.default_rng(21)
        for dim in (1, 3, 7, 12, 60, 101):
            s = random_pd(rng, dim)
            ref = np.linalg.inv(s)
            t = _inverse(_cholesky(s))
            assert np.array_equal(t, t.T), dim
            assert np.max(np.abs(t - ref)) <= 1e-12 * np.max(np.abs(ref)), dim

    def test_factor_solves_spd_system_by_cholesky(self):
        rng = np.random.default_rng(19)
        for dim in (1, 5, 40, 200):
            q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            for mat in (random_pd(rng, dim), symmetrize(q @ q.T)):  # q q^T: I + roundoff
                h = rng.normal(size=dim)
                factor = _Factor(mat)
                assert factor._cho is not None
                ref = np.linalg.solve(mat, h)
                assert np.max(np.abs(factor.solve(h) - ref)) <= 1e-10 * np.max(np.abs(ref))
                # Cholesky is backward stable: the solve is one dpotrs, unrefined
                cho = lapack.dpotrf(mat, lower=1, clean=0)[0]
                assert np.array_equal(factor.solve(h), lapack.dpotrs(cho, h, lower=1)[0]), dim

    def test_factor_solves_singular_psd_system_by_lu(self):
        rng = np.random.default_rng(20)
        for dim in (5, 40):
            b = rng.normal(size=(dim, dim - 2))
            mat = b @ b.T  # PSD of rank dim - 2
            h = mat @ rng.normal(size=dim)  # consistent right-hand side
            factor = _Factor(mat)
            assert factor._cho is None
            x = factor.solve(h)
            assert np.max(np.abs(mat @ x - h)) <= 1e-8 * np.max(np.abs(h))
            # x's null-space part is roundoff amplified by 1/jitter; on the
            # range of mat it agrees with np.linalg.solve on the restricted,
            # full-rank system
            basis = np.linalg.qr(b)[0]
            coords = np.linalg.solve(basis.T @ mat @ basis, basis.T @ h)
            assert np.max(np.abs(basis.T @ x - coords)) <= 1e-6 * np.max(np.abs(coords))
