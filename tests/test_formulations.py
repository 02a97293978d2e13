from __future__ import annotations

import numpy as np
import pytest

from conftest import complete_graph, path_graph
from sdpcolor.certificates import coloring_cost_matrix, independent_cost
from sdpcolor.formulations import (
    build_cost_sdp,
    build_svcn,
    extract_coloring,
    reference_solution,
    solve_svcn,
)
from sdpcolor.graphs import Coloring, Graph, chromatic_oracle, generate_ktree
from sdpcolor.linalg import numerical_rank
from sdpcolor.sdp import OPTIMAL, ConstraintMap, solve
from test_sdp import svcn_instance


def paper_svcn(g):
    """(operator, objective) of the paper's SVCN form: build_svcn's constraints,
    then z_0i = 0 per vertex."""
    dim, constraints, objective = svcn_instance(g)
    corner = [(((0, i, 0.5),), 0.0) for i in g.vertices()]
    return ConstraintMap(dim, constraints + tuple(corner)), objective


def pairwise_extract(x, k, tol):
    """extract_coloring's grouping checked pair by pair, as a plain reference."""
    n = x.shape[0]
    if np.max(np.abs(np.diag(x) - 1.0)) > tol:
        return None
    reps, assignment = [], [0] * n
    for v in range(n):
        for color, rep in enumerate(reps, start=1):
            if abs(x[v, rep] - 1.0) <= tol:
                assignment[v] = color
                break
        else:
            reps.append(v)
            assignment[v] = len(reps)
    if len(reps) > k:
        return None
    for i in range(n):
        for j in range(i + 1, n):
            if (assignment[i] == assignment[j]) != (abs(x[i, j] - 1.0) <= tol):
                return None
    return Coloring(k, tuple(assignment))


class TestBuildSvcn:
    def test_constraint_count(self, fig3):
        constraints = build_svcn(fig3)
        assert len(constraints) == len(fig3.edges) + fig3.n
        assert ConstraintMap(fig3.n + 1, constraints).order == fig3.n + 1

    def test_sparse_constraints(self, fig3):
        for entries, _ in build_svcn(fig3):
            assert len({(r, c) for r, c, _ in entries}) <= 2

    def test_objective_is_alpha_cell(self):
        summary = solve_svcn(complete_graph(3))
        assert summary.objective == -summary.solution.X[0, 0]

    def test_graph_without_edges_rejected(self):
        # nothing bounds z_00 from above, so -z_00 is unbounded below
        with pytest.raises(ValueError, match="unbounded"):
            build_svcn(Graph.from_edges(3, []))

    @pytest.mark.parametrize("k,target", [(2, -1.0), (3, -0.5), (4, -1.0 / 3.0)])
    def test_clique_objectives(self, k, target):
        summary = solve_svcn(complete_graph(k))
        assert summary.solution.optimal
        assert abs(summary.objective - target) <= 1e-6

    @pytest.mark.parametrize("case", ["fig1", "tree30"])
    def test_matches_paper_form(self, case, fig1):
        # the z_0i = 0 rows of the paper's form do no work: their multipliers
        # are exactly 0, and without them X[0, 1:] and S[0, 1:] stay exactly 0.
        # fig1's primal optimum is not unique, so its ranks are compared, not X.
        g = fig1 if case == "fig1" else generate_ktree(4, 30, 20240811)[0]
        summary = solve_svcn(g)
        paper = solve(*paper_svcn(g))
        assert summary.solution.status == paper.status
        assert abs(summary.objective - paper.primal_obj) <= 1e-8
        assert (summary.rank_primal, summary.rank_dual) == (
            numerical_rank(paper.X[1:, 1:]), numerical_rank(paper.S[1:, 1:]))
        assert np.all(paper.y[len(g.edges) + g.n:] == 0.0)
        assert np.all(summary.solution.X[0, 1:] == 0.0)
        assert np.all(summary.solution.S[0, 1:] == 0.0)
        chi, coloring = chromatic_oracle(g)
        for x in (summary.X, paper.X[1:, 1:]):
            back = extract_coloring(x, chi)
            if case == "fig1":  # its optimum has rank 24: no coloring to read
                assert back is None
            else:
                assert back is not None and back.partition() == coloring.partition()

    def test_rank_sum_bounded_by_n(self):
        # submatrix rank accounting for optimal pairs
        for k, n, seed in [(3, 8, 1), (4, 9, 2)]:
            g, _ = generate_ktree(k, n, seed)
            summary = solve_svcn(g)
            assert summary.rank_primal + summary.rank_dual <= g.n


class TestBuildCostSdp:
    def test_constraint_count(self, fig3):
        assert len(build_cost_sdp(fig3, 4)) == len(fig3.edges) + fig3.n

    def test_zero_cost_objective(self):
        # the unreduced SDP has no interior, but its first feasible iterate
        # still ends a zero-objective solve
        g = complete_graph(4)
        sol = solve(ConstraintMap(g.n, build_cost_sdp(g, 4)), np.zeros((4, 4)))
        assert (sol.status, sol.iterations, sol.pivoted_steps) == (OPTIMAL, 5, 0)
        assert abs(sol.primal_obj) <= 1e-7

    def test_coloring_cost_objective_is_cost_sum(self):
        g, _ = generate_ktree(4, 9, seed=3)
        _, coloring = chromatic_oracle(g)
        cost = coloring_cost_matrix(g, coloring)
        sol = solve(ConstraintMap(g.n, build_cost_sdp(g, 4)), cost)
        assert abs(sol.primal_obj - cost.sum()) <= 1e-5 * (1 + abs(cost.sum()))

    def test_independent_cost_objective(self):
        g, _ = generate_ktree(4, 8, seed=5)
        cost, assignment = independent_cost(g, 4)
        x = reference_solution(g, chromatic_oracle(g)[1])
        expected = cost.trace() - (2.0 / 3.0) * sum(
            cost[i - 1, j - 1] for i, j in g.edges
        )
        assert abs(float(np.sum(cost * x)) - expected) <= 1e-10
        assert abs(assignment.dual_obj - expected) <= 1e-10

    def test_palette_validation(self):
        with pytest.raises(ValueError):
            build_cost_sdp(complete_graph(3), 1)


class TestReferenceSolution:
    def test_triangle(self):
        x = reference_solution(complete_graph(3), Coloring(3, (1, 2, 3)))
        expected = np.full((3, 3), -0.5)
        np.fill_diagonal(expected, 1.0)
        assert np.array_equal(x, expected)
        assert numerical_rank(x) == 2

    def test_path_two_colors(self):
        x = reference_solution(path_graph(3), Coloring(2, (1, 2, 1)))
        expected = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
        assert np.array_equal(x, expected)
        assert numerical_rank(x) == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_rank_k_minus_one(self, k):
        g, _ = generate_ktree(k, min(30, k + 12), seed=k)
        _, coloring = chromatic_oracle(g)
        x = reference_solution(g, coloring)
        assert numerical_rank(x) == k - 1
        w = np.linalg.eigvalsh(x)  # PSD up to 1e-9 * (1 + |lambda_1|)
        assert w[0] >= -1e-9 * (1.0 + abs(w[-1]))

    def test_feasible_for_cost_sdp_exactly(self):
        g, _ = generate_ktree(4, 10, seed=8)
        x = reference_solution(g, chromatic_oracle(g)[1])
        assert np.array_equal(np.diag(x), np.ones(g.n))
        for i, j in g.edges:
            assert x[i - 1, j - 1] == -1.0 / 3.0

    def test_improper_coloring_rejected(self):
        with pytest.raises(ValueError):
            reference_solution(complete_graph(3), Coloring(3, (1, 1, 2)))

    def test_single_color_rejected(self):
        # its off-class entry is -1/(k-1)
        with pytest.raises(ValueError, match="at least 2"):
            reference_solution(Graph.from_edges(3, []), Coloring(1, (1, 1, 1)))


class TestExtractColoring:
    def test_round_trip_k4(self):
        g = complete_graph(4)
        c = Coloring(4, (1, 2, 3, 4))
        back = extract_coloring(reference_solution(g, c), 4)
        assert back is not None and back.partition() == c.partition()

    def test_round_trip_ktree(self):
        g, _ = generate_ktree(3, 12, seed=4)
        c = chromatic_oracle(g)[1]
        back = extract_coloring(reference_solution(g, c), 3)
        assert back is not None and back.partition() == c.partition()

    def test_too_many_classes_gives_none(self):
        assert extract_coloring(np.eye(5), 4) is None

    def test_bad_diagonal_gives_none(self):
        assert extract_coloring(np.zeros((3, 3)), 3) is None

    def test_tolerance_respected(self):
        x = reference_solution(complete_graph(3), Coloring(3, (1, 2, 3)))
        noisy = x + 2e-5 * np.ones((3, 3))
        back = extract_coloring(noisy, 3, tol=1e-4)
        assert back is not None
        assert extract_coloring(noisy, 3, tol=1e-6) is None

    def test_matches_pairwise_reference(self):
        # reference-shaped matrices with a few entries set inside, at or just
        # outside tol of 1, in one triangle or in both; tol is a power of two,
        # so 1 +- tol is exact and lands on the boundary
        rng = np.random.default_rng(2024)
        tol = 2.0 ** -13
        outcomes = set()
        for trial in range(400):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(2, 5))
            colors = rng.integers(1, k + 1 + (trial % 4 == 0), size=n)
            x = np.where(colors[:, None] == colors[None, :], 1.0, -1.0 / k)
            for _ in range(int(rng.integers(0, 4))):
                i, j = rng.integers(0, n, size=2)
                factor = rng.choice([0.5, 0.999, 1.0, 1.001, 2.0])
                x[i, j] = 1.0 + rng.choice([-1.0, 1.0]) * factor * tol
                if rng.random() < 0.5:
                    x[j, i] = x[i, j]
            got = extract_coloring(x, k, tol)
            assert got == pairwise_extract(x, k, tol)
            outcomes.add(got is None)
        assert outcomes == {True, False}

    def test_fig1_optimum_not_extractable(self, fig1):
        summary = solve_svcn(fig1)
        assert summary.rank_primal == 24
        assert extract_coloring(summary.X, 3) is None
