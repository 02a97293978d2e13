from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.optimize import linprog

from conftest import complete_graph, path_graph
from duality import check_complementarity, verify_feasible_dual
from sdpcolor.certificates import certify_cost, coloring_cost_matrix, ktree_dual
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
    DEFAULT_MAX_ITER,
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

    @pytest.mark.parametrize("n, seed, max_iterations", [(150, 20240811, 20), (400, 1, 25)])
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
        # X_11 = -1 contradicts positive semidefiniteness; with a zero
        # objective too, no iterate is ever feasible, so both run to the cap
        ops = ConstraintMap(2, [([(0, 0, 1.0)], -1.0)])
        for objective in (np.eye(2), np.zeros((2, 2))):
            sol = solve(ops, objective)
            assert (sol.status, sol.iterations) == (MAX_ITERATIONS, DEFAULT_MAX_ITER)

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

    def test_capped_face_solve_returns_relaxed_window(self):
        # A user-path solve that never meets DEFAULT_TOL: certify_cost's solve,
        # the oracle coloring's cost on the clique face of graph #947 (0-based)
        # of the shipped n = 11 corpus. At the cap it returns the iterate of
        # the window at 10 * DEFAULT_TOL as inaccurate.
        line = "11 defghjk,cefghi,bdef,acef,abcdg,abcdh,abeik,abfijk,bghk,ahk,aghij"
        g = parse_plantri_ascii(line)[0]
        _, coloring = chromatic_oracle(g)
        cost = coloring_cost_matrix(g, coloring)
        face = clique_face(g, 4)
        sol = solve_cost(face, cost).face
        assert sol.status == INACCURATE
        assert sol.iterations == DEFAULT_MAX_ITER
        c = face.basis.T @ cost @ face.basis
        scale = 1.0 + np.max(np.abs(face.b)) + np.max(np.abs(c))
        assert np.max(np.abs(face.b - face.gather(sol.X))) <= 10 * DEFAULT_TOL * scale
        assert np.max(np.abs(c - sol.S - face.scatter(sol.y))) <= 10 * DEFAULT_TOL * scale
        gap = abs(sol.primal_obj - sol.dual_obj) / (1.0 + abs(sol.primal_obj))
        assert gap <= 10 * DEFAULT_TOL
        assert certify_cost(g, coloring).verdict

    def test_face_solve_that_loses_s_returns_relaxed_window(self):
        # Heuristic 1's third cost solve on graph #44174 (0-based) of the
        # generated n = 13 corpus stalls on the jittered LU until S turns
        # singular, which ends the loop at the numerical-failure exit. Every
        # iterate from the 10th on passes the window at 10 * DEFAULT_TOL, so
        # the solve returns that window's iterate as inaccurate under the
        # cap, and the heuristic colors the graph from it.
        line = "13 dfhijkl,cefgiklm,bdef,acefi,bcdgi,abcdhl,bei,afjl,abdegk,ahl,abilm,abfhjkm,bkl"
        g = parse_plantri_ascii(line)[0]
        cost = np.zeros((g.n, g.n))
        for i, j in ((1, 2), (3, 8), (5, 6), (6, 10)):
            cost[i - 1, j - 1] = cost[j - 1, i - 1] = -1.0
        face = clique_face(g, 4)
        sol = solve_cost(face, cost).face
        assert sol.status == INACCURATE
        assert sol.iterations == 120
        c = face.basis.T @ cost @ face.basis
        scale = 1.0 + np.max(np.abs(face.b)) + np.max(np.abs(c))
        assert np.max(np.abs(face.b - face.gather(sol.X))) <= 10 * DEFAULT_TOL * scale
        assert np.max(np.abs(c - sol.S - face.scatter(sol.y))) <= 10 * DEFAULT_TOL * scale
        gap = abs(sol.primal_obj - sol.dual_obj) / (1.0 + abs(sol.primal_obj))
        assert gap <= 10 * DEFAULT_TOL
        out = heuristic1(g)
        assert (out.status, out.solve_count) == ("colored", 3)
        assert out.coloring.assignment == (1, 1, 3, 4, 2, 2, 4, 3, 3, 2, 2, 4, 3)

    def test_face_solve_past_its_best_merit_ends_optimal(self):
        # Heuristic 2's third cost solve on graph #24250 (0-based) of the
        # generated n = 13 corpus, which is sensitive to the symmetry of S^-1;
        # with the exactly symmetric S^-1 it closes the window at 15.
        line = "13 bdfhjklm,aceghiklm,bdefh,acefik,bcdgi,acdh,bei,abcfjl,bdegk,ahl,abdim,abhj,abk"
        g = parse_plantri_ascii(line)[0]
        cost = np.zeros((g.n, g.n))
        for i, j in ((1, 3), (2, 4)):
            cost[i - 1, j - 1] = cost[j - 1, i - 1] = -1.0
        sol = solve_cost(clique_face(g, 4), cost).face
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
            # the feasibility restore lands on A(dx) = rp
            rp = rng.normal(size=len(mats))
            close(ops.gather(ops.restore(x, rp)), rp)

    def test_gram_factor_is_schur_of_identity(self, fig3, corpora):
        # G G^T, bit for bit the Schur matrix at X = T = I; dpotrf with clean=0
        # keeps the matrix's upper triangle next to its factor
        for ops, _ in self.instances(fig3, corpora):
            if isinstance(ops, ConstraintMap):
                eye = np.eye(ops.order)
                ref = lapack.dpotrf(ops.schur(eye, eye), lower=1, clean=0)[0]
                assert np.array_equal(ops.gram._cho, ref)

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
            alpha = _max_step(p, _cholesky(p), dp)
            assert abs(alpha - (-1.0 / lam)) <= 1e-10 * (-1.0 / lam), dim
            # p + alpha dp sits on the PSD boundary
            edge = np.linalg.eigvalsh(p + alpha * dp)
            assert abs(edge[0]) <= 1e-9 * edge[-1], dim

    def test_max_step_unbounded_along_psd_direction(self):
        rng = np.random.default_rng(18)
        for dim in (3, 7, 12):
            p = random_pd(rng, dim)
            a = rng.normal(size=(dim, dim - 1))
            assert _max_step(p, _cholesky(p), a @ a.T) == np.inf
            assert _max_step(p, _cholesky(p), np.zeros((dim, dim))) == np.inf

    def test_max_step_falls_back_on_singular_p(self):
        p = np.diag([2.0, 1.0, 0.0])
        dp = -np.eye(3)
        assert _cholesky(p) is None
        # the fallback clips p's zero eigenvalue to 1e-14 * 2, so the step is that
        assert _max_step(p, None, dp) == pytest.approx(2e-14, rel=1e-9)
        assert _max_step(p, None, np.eye(3)) == np.inf

    def test_inverse_is_exactly_symmetric(self):
        rng = np.random.default_rng(21)
        for dim in (1, 3, 7, 12, 60, 101):
            s = random_pd(rng, dim)
            ref = np.linalg.inv(s)
            for chol in (_cholesky(s), None):  # from the factor, and the fallback
                t = _inverse(s, chol)
                assert np.array_equal(t, t.T), dim
                assert np.max(np.abs(t - ref)) <= 1e-12 * np.max(np.abs(ref)), dim
        singular = np.diag([1.0, 0.0])
        assert _cholesky(singular) is None
        with pytest.raises(np.linalg.LinAlgError):
            _inverse(singular, None)

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
