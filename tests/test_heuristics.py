from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import complete_graph, path_graph
from sdpcolor.formulations import clique_face
from sdpcolor.graphs import enumerate_cliques, parse_plantri_ascii, validate_coloring
from sdpcolor.heuristics import (
    BUDGET,
    COLORED,
    EXHAUSTED,
    FAILED,
    HeuristicOutcome,
    finalize_certificate,
    format_log,
    heuristic1,
    heuristic2,
    solve_modified,
)


class TestSolveModified:
    def test_k4_zero_cost_rank_three(self):
        x, rank_p = solve_modified(clique_face(complete_graph(4), 4), np.zeros((4, 4)))
        assert rank_p == 3
        assert np.allclose(np.diag(x), 1.0, atol=1e-6)

    def test_fig3_zero_cost_high_rank(self, fig3):
        _, rank_p = solve_modified(clique_face(fig3, 4), np.zeros((12, 12)))
        assert rank_p > 3

    def test_best_iterate_rule_accepts_stalled_solve(self, corpora):
        # Pins this run's outcome: on the clique face every solve ends
        # optimal, where the unreduced cost SDP's second solve does not.
        out = heuristic2(corpora[10][140])
        assert out.status == COLORED
        assert out.solve_count == 6

    def test_clique_face_solve_colors_planar_n10_graph_179(self, corpora):
        # Every K_4 Q forces X u_Q = 0, so the cost SDP has no interior. On the
        # unreduced SDP this run's third solve stalled at the iteration cap
        # and heuristic 2 ended solver-error.
        g = corpora[10][179]
        assert heuristic2(g).status == COLORED
        cost = np.zeros((g.n, g.n))
        for i, j in ((1, 2), (4, 7)):
            cost[i - 1, j - 1] = cost[j - 1, i - 1] = -1.0
        face = clique_face(g, 4)
        x, _ = solve_modified(face, cost)
        assert abs(np.sum(cost * x) + 2.8462808) <= 1e-6
        cliques = enumerate_cliques(g, 4)
        assert len(cliques) == 2
        for q in cliques:
            u = np.zeros(g.n)
            u[[v - 1 for v in q]] = 1.0
            assert np.allclose(face.basis.T @ u, 0.0, atol=1e-12)
            assert np.allclose(x @ u, 0.0, atol=1e-7)


class TestCliqueFace:
    def test_run_builds_its_face_once(self, corpora, monkeypatch):
        # heuristic 2 solves three times on this graph; only the cost changes
        calls = []
        null_space = sla.null_space
        monkeypatch.setattr(sla, "null_space", lambda a: calls.append(a) or null_space(a))
        out = heuristic2(corpora[10][179])
        assert out.solve_count > 1
        assert len(calls) == 1


class TestHeuristicRuns:
    def test_k4_immediately_colored(self):
        out = heuristic1(complete_graph(4))
        assert out.status == COLORED
        assert out.solve_count == 1
        assert out.coloring.partition() == frozenset(
            frozenset({v}) for v in range(1, 5)
        )

    def test_fig3_fails_exhausted_at_vertex_nine(self, fig3):
        out = heuristic1(fig3)
        assert out.status == FAILED
        assert out.colored_vertices == {1, 2, 5, 6, 7}
        # the scan reaches vertex 9 with all four anchors ruled out for it
        assert (out.cause, out.cause_vertex) == (EXHAUSTED, 9)

    def test_fig4_colored(self, fig4):
        out = heuristic1(fig4)
        assert out.status == COLORED
        assert validate_coloring(fig4, out.coloring)

    def test_algo2_fig5_colored(self, fig5):
        out = heuristic2(fig5)
        assert out.status == COLORED
        assert validate_coloring(fig5, out.coloring)

    def test_colored_when_reference_gram_matrix_is_optimal(self):
        # A maximal planar graph on 12 vertices. After three solves the aligned
        # classes form a proper 4-coloring whose Gram matrix attains the
        # objective, while the iterate keeps four eigenvalues of 2e-5..2e-4
        # above the rank cut (numerical rank 7). The run stops colored there.
        g = parse_plantri_ascii(
            "12 bdefhijkl,aghijkl,defh,acef,acdghi,acdh,behi,abcefgj,abegk,abhl,abi,abj")[0]
        for runner in (heuristic1, heuristic2):
            out = runner(g)
            assert out.status == COLORED
            assert out.solve_count == 3
            assert out.final_rank == 3
            assert out.classes == ((1, 3, 7), (2, 4), (8, 9, 12), (5, 6, 10, 11))
            assert validate_coloring(g, out.coloring)

    def test_solve_budget_bound(self, fig3, fig4):
        for g in (fig3, fig4):
            for runner in (heuristic1, heuristic2):
                out = runner(g)
                assert out.solve_count <= 4 * g.n * g.n

    def test_deterministic(self, fig4):
        a = heuristic1(fig4)
        b = heuristic1(fig4)
        assert a.log == b.log
        assert a.classes == b.classes
        assert a.solve_count == b.solve_count

    def test_accepted_vertices_never_evicted(self, fig5):
        out = heuristic1(fig5)
        accepted = [e.vertex for e in out.log if e.action == "accept"]
        assert len(accepted) == len(set(accepted))
        assert set(accepted) <= out.colored_vertices

    def test_anchors_in_distinct_classes(self, fig4):
        out = heuristic1(fig4)
        from sdpcolor.graphs import find_clique

        clique = find_clique(fig4, 4)
        for q, anchor in enumerate(clique):
            assert anchor in out.classes[q]

    def test_no_k4_rejected(self):
        with pytest.raises(ValueError):
            heuristic1(path_graph(4))

    def test_budget_exhaustion_reports_failed(self, fig3):
        for budget in (1, 2):
            out = heuristic1(fig3, max_solves=budget)
            assert out.status == FAILED
            assert out.solve_count == budget
            assert (out.cause, out.cause_vertex) == (BUDGET, 0)

    def test_colored_run_carries_no_cause(self, fig4):
        out = heuristic1(fig4)
        assert out.status == COLORED
        assert (out.cause, out.cause_vertex) == (None, 0)

    def test_budget_below_one_rejected(self, fig3):
        for runner in (heuristic1, heuristic2):
            with pytest.raises(ValueError):
                runner(fig3, max_solves=0)

    def test_log_format(self, fig4):
        out = heuristic1(fig4)
        lines = format_log(out.log).splitlines()
        assert lines[0].startswith("step=1 vertex=0 anchor=0 action=rebuild")
        for line in lines:
            assert all(part.split("=")[0] in
                       ("step", "vertex", "anchor", "action", "rank")
                       for part in line.split())


class TestFinalizeCertificate:
    def test_colored_outcome_certifies(self, fig4):
        out = heuristic1(fig4)
        report = finalize_certificate(fig4, out)
        assert report.verdict
        assert report.rank >= fig4.n - 3

    def test_k4_certificate_rank_one(self):
        g = complete_graph(4)
        report = finalize_certificate(g, heuristic1(g))
        assert report.rank == 1

    def test_failed_outcome_rejected(self, fig3):
        out = heuristic1(fig3)
        with pytest.raises(ValueError):
            finalize_certificate(fig3, out)
