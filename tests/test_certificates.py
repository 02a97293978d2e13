from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import complete_graph, path_graph
from duality import dual_vector, verify_feasible_dual
from sdpcolor.certificates import (
    blend_colorings,
    certify_cost,
    certify_ktree,
    coloring_cost_dual,
    coloring_cost_matrix,
    independent_cost,
    ktree_dual,
)
from sdpcolor.formulations import build_cost_sdp, reference_solution
from sdpcolor.graphs import (
    Coloring,
    Graph,
    KTreeTrace,
    chromatic_oracle,
    enumerate_cliques,
    enumerate_colorings,
    find_clique,
    generate_ktree,
    is_ktree,
)
from sdpcolor.linalg import numerical_rank
from sdpcolor.sdp import ConstraintMap


def five_vertex_three_tree():
    """K_4 on {1..4} plus vertex 5 attached to the triangle {1,2,3}."""
    edges = list(combinations(range(1, 5), 2)) + [(1, 5), (2, 5), (3, 5)]
    return Graph.from_edges(5, edges)


class TestKtreeDual:
    def test_triangle_entries(self):
        g = complete_graph(3)
        s = ktree_dual(g, is_ktree(g, 3))
        assert np.array_equal(s, np.full((3, 3), 1.0 / 6.0))
        assert abs(-np.trace(s) + 0.5) < 1e-15  # dual objective -1/2

    def test_five_vertex_example(self):
        g = five_vertex_three_tree()
        s = ktree_dual(g, is_ktree(g, 4))
        expected_diag = [
            Fraction(1, 12), Fraction(1, 12), Fraction(1, 12),
            Fraction(1, 24), Fraction(1, 24),
        ]
        assert np.allclose(np.diag(s), [float(f) for f in expected_diag], atol=1e-15)
        assert abs(s[0, 1] - 1.0 / 12.0) < 1e-15
        assert abs(s[0, 3] - 1.0 / 24.0) < 1e-15
        offdiag = s.sum() - np.trace(s)
        assert abs(offdiag - 1.0) < 1e-12
        assert abs(np.trace(s) - 1.0 / 3.0) < 1e-12
        w = np.linalg.eigvalsh(s)  # eigenvalue oracle for the rank
        assert np.sum(w > 1e-9) == 2

    def test_nonedges_zero(self):
        g, trace = generate_ktree(3, 9, seed=11)
        s = ktree_dual(g, trace)
        for i in range(1, 10):
            for j in range(i + 1, 10):
                if not g.has_edge(i, j):
                    assert s[i - 1, j - 1] == 0.0

    def test_offdiagonal_sum_is_one(self):
        for k, seed in ((2, 0), (3, 1), (4, 2), (5, 3)):
            g, trace = generate_ktree(k, 14, seed=seed)
            s = ktree_dual(g, trace)
            assert abs((s.sum() - np.trace(s)) - 1.0) < 1e-12

    def test_invalid_trace_rejected(self):
        g = complete_graph(4)
        bogus = KTreeTrace(4, (1, 2, 3, 4, 5), (frozenset({1, 2, 3}),))
        with pytest.raises(ValueError):
            ktree_dual(g, bogus)


class TestCertifyKtree:
    def test_generated_four_tree(self):
        g, _ = generate_ktree(4, 12, seed=7)
        report = certify_ktree(g, 4)
        assert report.verdict
        assert report.rank == 9
        assert report.rank_bound == 9

    def test_generated_two_tree_dual_objective(self):
        g, _ = generate_ktree(3, 10, seed=1)
        report = certify_ktree(g, 3)
        assert report.verdict
        assert abs(report.dual_obj + 0.5) < 1e-12

    def test_complete_graph_base_case(self):
        report = certify_ktree(complete_graph(5), 5)
        assert report.verdict and report.rank == 1

    def test_non_ktree_rejected(self, fig3):
        with pytest.raises(ValueError):
            certify_ktree(fig3, 4)

    def test_report_serialization(self):
        g, _ = generate_ktree(3, 7, seed=2)
        report = certify_ktree(g, 3)
        text = report.to_text()
        assert "verdict" in text and "rank" in text


class TestColoringCostMatrix:
    def test_path(self):
        g = path_graph(3)
        cost = coloring_cost_matrix(g, Coloring(2, (1, 2, 1)))
        expected = np.zeros((3, 3))
        expected[0, 2] = expected[2, 0] = -1.0
        assert np.array_equal(cost, expected)

    def test_complete_graph_is_zero(self):
        for k in (3, 4, 5):
            g = complete_graph(k)
            cost = coloring_cost_matrix(g, Coloring(k, tuple(range(1, k + 1))))
            assert not cost.any()

    def test_consecutive_links_only(self):
        # color class {2,5,9} chains (2,5) and (5,9) but not (2,9)
        g = Graph.from_edges(9, [(1, 2), (2, 3), (4, 5), (5, 6), (8, 9)])
        assignment = [1, 2, 1, 1, 2, 1, 1, 1, 2]
        cost = coloring_cost_matrix(g, Coloring(2, tuple(assignment)))
        assert cost[1, 4] == cost[4, 1] == -1.0
        assert cost[4, 8] == cost[8, 4] == -1.0
        assert cost[1, 8] == 0.0

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            coloring_cost_matrix(complete_graph(3), Coloring(3, (1, 1, 2)))


class TestColoringCostDual:
    def test_path_hand_values(self):
        g = path_graph(3)
        c = Coloring(2, (1, 2, 1))
        assignment = coloring_cost_dual(g, c, (1, 2))
        assert assignment.y == (-2.0, -1.0, -1.0)
        assert assignment.z == {(1, 2): -1.0, (2, 3): 0.0}
        expected = np.array([[2.0, 1.0, -1.0], [1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        assert np.array_equal(assignment.S, expected)
        assert assignment.dual_obj == -2.0

    def test_complete_graph_gives_all_ones(self):
        for k in (3, 4):
            g = complete_graph(k)
            c = Coloring(k, tuple(range(1, k + 1)))
            assignment = coloring_cost_dual(g, c, tuple(range(1, k + 1)))
            assert all(yi == -1.0 for yi in assignment.y)
            assert all(ze == -1.0 for ze in assignment.z.values())
            assert np.array_equal(assignment.S, np.ones((k, k)))

    def test_dual_objective_equals_cost_sum(self):
        for seed in range(4):
            g, _ = generate_ktree(4, 11, seed=seed)
            c = chromatic_oracle(g)[1]
            assignment = coloring_cost_dual(g, c, find_clique(g, 4))
            cost = coloring_cost_matrix(g, c)
            assert abs(assignment.dual_obj - cost.sum()) < 1e-10

    def test_dual_vector_feasible_through_solver_interface(self, fig4):
        c = chromatic_oracle(fig4)[1]
        assignment = coloring_cost_dual(fig4, c, find_clique(fig4, 4))
        ops = ConstraintMap(fig4.n, build_cost_sdp(fig4, 4))
        y = dual_vector(fig4, assignment)
        s, psd, dual_obj = verify_feasible_dual(ops, coloring_cost_matrix(fig4, c), y)
        assert psd
        assert abs(dual_obj - assignment.dual_obj) < 1e-9
        assert np.allclose(s, assignment.S, atol=1e-12)

    def test_invalid_clique_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            coloring_cost_dual(g, Coloring(2, (1, 2, 1)), (1, 3))

    def test_single_color_rejected(self):
        # its dual objective divides by k - 1
        with pytest.raises(ValueError, match="at least 2"):
            coloring_cost_dual(Graph.from_edges(3, []), Coloring(1, (1, 1, 1)), (1,))


class TestCertifyCost:
    def test_ktree_with_unique_coloring(self):
        g, _ = generate_ktree(4, 9, seed=6)
        report = certify_cost(g, chromatic_oracle(g)[1])
        assert report.verdict
        assert report.rank >= g.n - 3

    def test_non_unique_fixture(self, fig5):
        report = certify_cost(fig5, chromatic_oracle(fig5)[1])
        assert report.verdict

    def test_solver_extraction_checked_on_planar_n10_graph_63(self, corpora):
        # The unreduced cost SDP of this coloring stalls at the iteration cap;
        # on the clique face the solver round trip is checked.
        g = corpora[10][63]
        report = certify_cost(g, enumerate_colorings(g, 4, limit=1)[0])
        assert report.checks["solver_extract"] is True
        assert report.verdict

    def test_k4_base_case(self):
        report = certify_cost(complete_graph(4), Coloring(4, (1, 2, 3, 4)))
        assert report.verdict and report.rank == 1

    def test_no_clique_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            certify_cost(g, Coloring(4, (1, 2, 1, 2)))

    def test_exact_objective_match(self):
        g, _ = generate_ktree(3, 10, seed=9)
        report = certify_cost(g, chromatic_oracle(g)[1])
        assert report.objective_match
        assert report.residuals["objective_gap"] == 0.0


class TestIndependentCost:
    def test_single_color_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            independent_cost(Graph.from_edges(3, []), 1)

    def test_triangle(self):
        g = complete_graph(3)
        cost, assignment = independent_cost(g, 3)
        assert np.array_equal(cost, np.ones((3, 3)))
        assert assignment.y == (0.0, 0.0, 0.0)
        assert all(z == 0.0 for z in assignment.z.values())
        assert np.array_equal(assignment.S, np.ones((3, 3)))
        assert assignment.dual_obj == 0.0

    def test_two_k4s_sharing_triangle(self):
        edges = list(combinations((1, 2, 3), 2))
        edges += [(v, 4) for v in (1, 2, 3)] + [(v, 5) for v in (1, 2, 3)]
        g = Graph.from_edges(5, edges)
        _, assignment = independent_cost(g, 4)
        s = assignment.S
        assert np.allclose(np.diag(s), [2, 2, 2, 1, 1])
        for i, j in combinations((1, 2, 3), 2):
            assert s[i - 1, j - 1] == 2.0
        for apex in (4, 5):
            for v in (1, 2, 3):
                assert s[v - 1, apex - 1] == 1.0

    def test_clique_sum_decomposition(self, fig3):
        _, assignment = independent_cost(fig3, 4)
        total = np.zeros((12, 12))
        for clique in enumerate_cliques(fig3, 4):
            x = np.zeros(12)
            for v in clique:
                x[v - 1] = 1.0
            total += np.outer(x, x)
        assert np.array_equal(assignment.S, total)
        w = np.linalg.eigvalsh(assignment.S)  # PSD up to 1e-9 * (1 + |lambda_1|)
        assert w[0] >= -1e-9 * (1.0 + abs(w[-1]))

    def test_objective_matches_any_feasible(self):
        g, _ = generate_ktree(4, 8, seed=12)
        cost, assignment = independent_cost(g, 4)
        x = reference_solution(g, chromatic_oracle(g)[1])
        assert abs(float(np.sum(cost * x)) - assignment.dual_obj) <= 1e-10

    def test_no_clique_rejected(self):
        with pytest.raises(ValueError):
            independent_cost(path_graph(4), 4)


class TestBlendColorings:
    @staticmethod
    def pendant_graph():
        """K_4 plus a pendant vertex adjacent to clique vertices 1 and 2."""
        edges = list(combinations(range(1, 5), 2)) + [(1, 5), (2, 5)]
        return Graph.from_edges(5, edges)

    def test_rank_four_witness(self):
        g = self.pendant_graph()
        c1 = Coloring(4, (1, 2, 3, 4, 3))
        c2 = Coloring(4, (1, 2, 3, 4, 4))
        x = blend_colorings(g, c1, c2, (1, 2, 3, 4), 0.5)
        w = np.linalg.eigvalsh(x)
        assert np.sum(w > 1e-9) == 4

    def test_constraints_exact(self):
        g = self.pendant_graph()
        c1 = Coloring(4, (1, 2, 3, 4, 3))
        c2 = Coloring(4, (1, 2, 3, 4, 4))
        x = blend_colorings(g, c1, c2, (1, 2, 3, 4), 0.5)
        assert np.array_equal(np.diag(x), np.ones(5))
        for i, j in g.edges:
            assert x[i - 1, j - 1] == -1.0 / 3.0

    def test_identical_partitions_rejected(self):
        g = self.pendant_graph()
        c1 = Coloring(4, (1, 2, 3, 4, 3))
        relabeled = Coloring(4, (2, 1, 4, 3, 4))  # same partition as c1
        with pytest.raises(ValueError):
            blend_colorings(g, c1, relabeled, (1, 2, 3, 4), 0.5)

    def test_alpha_range_validated(self):
        g = self.pendant_graph()
        c1 = Coloring(4, (1, 2, 3, 4, 3))
        c2 = Coloring(4, (1, 2, 3, 4, 4))
        with pytest.raises(ValueError):
            blend_colorings(g, c1, c2, (1, 2, 3, 4), 1.0)

    def test_clique_alignment_applied(self):
        g = self.pendant_graph()
        c1 = Coloring(4, (1, 2, 3, 4, 3))
        shuffled = Coloring(4, (4, 3, 2, 1, 1))  # c2 with colors renamed
        x = blend_colorings(g, c1, shuffled, (1, 2, 3, 4), 0.5)
        # vertex 5 disagrees between the colorings: entry blends 1 and -1/3
        assert x[4 - 1, 4] == 0.5 * 1.0 + 0.5 * (-1.0 / 3.0)

    def test_non_unique_planar_fixture(self, corpora):
        found = 0
        for g in corpora[8]:
            if find_clique(g, 4) is None:
                continue
            colorings = enumerate_colorings(g, 4, limit=2)
            if len(colorings) < 2:
                continue
            x = blend_colorings(g, colorings[0], colorings[1], find_clique(g, 4), 0.5)
            assert numerical_rank(x) > 3
            found += 1
        assert found >= 3
