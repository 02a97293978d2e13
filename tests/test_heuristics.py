from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import complete_graph, path_graph
from sdpcolor import heuristics
from sdpcolor.certificates import certify_cost
from sdpcolor.formulations import clique_face
from sdpcolor.fixtures import fixture_text
from sdpcolor.graphs import enumerate_cliques, find_clique, parse_plantri_ascii, validate_coloring
from sdpcolor.heuristics import (
    BUDGET,
    COLORED,
    CYCLE,
    EXHAUSTED,
    FAILED,
    SOLVER_ERROR,
    HeuristicOutcome,
    SolverError,
    format_log,
    heuristic1,
    heuristic2,
    solve_modified,
)

ROOT = Path(__file__).resolve().parent.parent

# Relabelings by tools/relabel_corpus.py (seed 20261019) on which every try of
# a pass is rejected and the run cycles. Without the stop on a repeated state
# each ran to its 4 n^2 budget (484, 576 and 576 solves); with it each ends at
# its first repeat, one period (22, 22 and 36 solves) after its log turns
# periodic. (plantri line, solves, classes kept)
CYCLING = {
    "n11#1186/l2": (
        "11 chi,dgk,aefhi,bfgijk,cfghk,cdeik,bdehjk,acegij,acdfhj,dghi,bdefg",
        41, ((1, 2, 10), (3,), (8,), (9,))),
    "n12#4007/l1": (
        "12 defk,efgl,gij,aefhi,abdfhkl,abdegik,bcfijl,deijl,cdfghj,cghil,aef,beghj",
        31, ((1, 2), (4, 11), (5,), (3, 6))),
    "n12#6858/l0": (
        "12 efl,cehk,bejkl,fjkl,abcfghil,adeikl,ehik,begk,efgk,cdkl,bcdfghij,acdefj",
        38, ((1, 2), (5,), (6,), (12,))),
}


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
        clique = find_clique(fig4, 4)
        for q, anchor in enumerate(clique):
            assert anchor in out.classes[q]

    def test_no_k4_rejected(self):
        with pytest.raises(ValueError):
            heuristic1(path_graph(4))

    @pytest.mark.parametrize("name", sorted(CYCLING))
    def test_repeated_state_ends_cycle(self, name):
        line, solves, classes = CYCLING[name]
        (g,) = parse_plantri_ascii(line)
        for runner in (heuristic1, heuristic2):
            out = runner(g)
            assert (out.status, out.cause, out.cause_vertex) == (FAILED, CYCLE, 0)
            assert out.solve_count == solves
            assert out.classes == classes
            # after the first accepts, every try is rejected: two solves each
            assert [e.action for e in out.log[-4:]] == ["try", "reject"] * 2

    def test_budget_stop_reports_the_kept_iterate(self):
        # The third solve tries vertex 4 at anchor 2, which is rejected; the
        # re-solve would be the fourth. The run reports the iterate that
        # accepted vertex 2, not the rejected try's ((1,), (3,), (8,), (9,)).
        (g,) = parse_plantri_ascii(CYCLING["n11#1186/l2"][0])
        for runner in (heuristic1, heuristic2):
            out = runner(g, max_solves=3)
            assert (out.status, out.cause, out.solve_count) == (FAILED, BUDGET, 3)
            assert out.log[-1].action == "try"
            assert out.classes == ((1, 2), (3,), (8,), (9,))
            assert out.final_rank == 8

    def test_relabel_tool_writes_the_cycling_n11_line(self, tmp_path):
        subprocess.run([sys.executable, str(ROOT / "tools" / "relabel_corpus.py"),
                        "planar_n11.txt", "20261019", "3", str(tmp_path)],
                       check=True, capture_output=True)
        files = sorted(tmp_path.iterdir())
        assert [f.name for f in files] == [f"planar_n11_seed20261019_l{k}.txt" for k in range(3)]
        shipped = fixture_text("planar_n11.txt").splitlines()
        for f in files:
            lines = f.read_text().splitlines()
            assert len(lines) == len(shipped)
            # graphs without a K_4 are copied as they are
            assert all(line == old for line, old in zip(lines, shipped)
                       if find_clique(parse_plantri_ascii(old)[0], 4) is None)
        assert files[2].read_text().splitlines()[1186] == CYCLING["n11#1186/l2"][0]

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


def kept_rank(log) -> int:
    """The rank of the iterate a run keeps: a try still in judgement is not kept."""
    return log[-2].rank if log[-1].action == "try" else log[-1].rank


class TestBudgetAndSolverError:
    """Every budget cut and every failing solve, on the three figures and both heuristics."""

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5"])
    @pytest.mark.parametrize("runner", [heuristic1, heuristic2])
    def test_budget_stops_at_every_cut(self, request, name, runner):
        g = request.getfixturevalue(name)
        full = runner(g)
        solves = full.solve_count
        for budget in range(1, solves + 2):
            out = runner(g, max_solves=budget)
            assert out.log == full.log[:len(out.log)]
            if budget >= solves:
                assert out == full
                continue
            assert (out.status, out.cause, out.cause_vertex) == (FAILED, BUDGET, 0)
            assert out.solve_count == budget
            assert sum(e.action != "accept" for e in out.log) == budget
            assert out.final_rank == kept_rank(out.log)

    @pytest.mark.parametrize("name", ["fig3", "fig5"])
    @pytest.mark.parametrize("runner", [heuristic1, heuristic2])
    def test_solver_error_at_every_solve(self, request, monkeypatch, name, runner):
        g = request.getfixturevalue(name)
        solve = heuristics.solve_modified
        iterates = []

        def spy(face, cost):
            iterates.append(solve(face, cost))
            return iterates[-1]

        monkeypatch.setattr(heuristics, "solve_modified", spy)
        full = runner(g)
        anchors = find_clique(g, 4)
        solve_steps = [i for i, e in enumerate(full.log) if e.action != "accept"]
        for k in range(1, full.solve_count + 1):
            calls = []

            def failing(face, cost):
                calls.append(cost)
                if len(calls) == k:
                    raise SolverError("injected")
                return solve(face, cost)

            monkeypatch.setattr(heuristics, "solve_modified", failing)
            out = runner(g)
            assert (out.status, out.solve_count, out.coloring) == (SOLVER_ERROR, k, None)
            assert out.log == full.log[:solve_steps[k - 1]]
            if k == 1:
                assert (out.classes, out.final_rank) == (((),) * 4, -1)
                continue
            x, rank = iterates[k - 2]  # the last iterate solved
            assert out.final_rank == rank
            assert out.classes == tuple(
                tuple(v for v in g.vertices() if abs(x[v - 1, a - 1] - 1.0) <= 1e-4)
                for a in anchors)


class TestFinalizeCertificate:
    """A colored outcome's coloring certified, as `sdpcolor color --certify` does."""

    def test_colored_outcome_certifies(self, fig4):
        out = heuristic1(fig4)
        report = certify_cost(fig4, out.coloring)
        assert report.verdict
        assert report.rank >= fig4.n - 3

    def test_k4_certificate_rank_one(self):
        g = complete_graph(4)
        report = certify_cost(g, heuristic1(g).coloring)
        assert report.rank == 1
