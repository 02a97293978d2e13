"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines. Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import numpy as np
import pytest

from conftest import complete_graph
from duality import check_complementarity
from sdpcolor.batch import run_batch
from sdpcolor.certificates import (
    blend_colorings,
    certify_cost,
    certify_ktree,
    independent_cost,
    ktree_dual,
)
from sdpcolor.fixtures import corpus_name, fixture_text, load_corpus, load_figure
from sdpcolor.formulations import (
    extract_coloring,
    reference_solution,
    solve_svcn,
)
from sdpcolor.graphs import (
    chromatic_oracle,
    count_colorings,
    enumerate_cliques,
    enumerate_colorings,
    find_clique,
    generate_ktree,
    is_ktree,
)
from sdpcolor.heuristics import COLORED, EXHAUSTED, FAILED, heuristic1, heuristic2
from sdpcolor.linalg import min_eigenvalue, numerical_rank
from sdpcolor.sdp import OPTIMAL, ConstraintMap, solve
from test_sdp import diagonal_lp_instance, svcn_instance

RANK_TAU = 1e-6


def report(name: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def k4_fixtures(max_n):
    graphs = []
    for n in range(5, max_n + 1):
        for g in load_corpus(n):
            if find_clique(g, 4) is not None:
                graphs.append(g)
    return graphs


def test_criterion_1_svcn_on_cliques():
    worst = 0.0
    slowest = 0.0
    for k in (2, 3, 4, 5):
        start = time.perf_counter()
        summary = solve_svcn(complete_graph(k))
        elapsed = time.perf_counter() - start
        err = abs(summary.objective + 1.0 / (k - 1))
        worst = max(worst, err)
        slowest = max(slowest, elapsed)
        assert summary.solution.optimal
        assert err <= 1e-6, f"K_{k} objective off by {err}"
        assert elapsed < 1.0, f"K_{k} took {elapsed:.2f}s"
    report("criterion 1 (SVCN on cliques)", True,
           f"max objective error {worst:.2e}, max time {slowest:.3f}s")


def test_criterion_2_fig1_counterexample():
    g = load_figure("fig1")
    start = time.perf_counter()
    summary = solve_svcn(g, tau=RANK_TAU)
    colorings = count_colorings(g, 3)
    elapsed = time.perf_counter() - start
    ok = (
        abs(summary.objective + 0.5) <= 1e-4
        and summary.rank_primal == 24
        and summary.rank_dual == 1
        and colorings == 1
        and elapsed < 30.0
    )
    report("criterion 2 (fig1 counterexample)", ok,
           f"objective {summary.objective:.6f}, ranks {summary.rank_primal}/"
           f"{summary.rank_dual}, colorings {colorings}, {elapsed:.1f}s")


def test_criterion_3_ktree_certificates():
    rng = random.Random(20240811)
    start = time.perf_counter()
    pairs = []
    for k in (2, 3, 4, 5):
        pairs += [(k, rng.randint(k, 25), rng.randint(0, 10**6)) for _ in range(50)]
    assert len(pairs) == 200
    for k, n, seed in pairs:
        g, trace = generate_ktree(k, n, seed)
        s = ktree_dual(g, trace)
        offdiag = float(s.sum() - np.trace(s))
        assert abs(offdiag - 1.0) <= 1e-12, (k, n, seed)
        assert abs(float(np.trace(s)) - 1.0 / (k - 1)) <= 1e-12, (k, n, seed)
        assert min_eigenvalue(s) >= -1e-10, (k, n, seed)
        assert numerical_rank(s, RANK_TAU) == n - k + 1, (k, n, seed)
        summary = solve_svcn(g)
        assert summary.rank_primal <= k - 1, (k, n, seed, summary.rank_primal)
        extracted = extract_coloring(summary.X, k)
        assert extracted is not None, (k, n, seed)
        chi, oracle_coloring = chromatic_oracle(g)
        assert chi == k
        assert extracted.partition() == oracle_coloring.partition(), (k, n, seed)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    report("criterion 3 (200 (k-1)-tree certificates)", True,
           f"200 pairs verified in {elapsed:.0f}s")


def test_criterion_4_blend_witnesses(corpora):
    found = 0
    for n in (8, 9, 10):
        for g in corpora[n]:
            if found >= 20:
                break
            clique = find_clique(g, 4)
            if clique is None:
                continue
            colorings = enumerate_colorings(g, 4, limit=2)
            if len(colorings) < 2:
                continue
            x = blend_colorings(g, colorings[0], colorings[1], clique, 0.5)
            assert numerical_rank(x, RANK_TAU) >= 4, f"n={n}"
            assert np.array_equal(np.diag(x), np.ones(g.n))
            for i, j in g.edges:
                assert x[i - 1, j - 1] == -1.0 / 3.0
            found += 1
    report("criterion 4 (blend rank witnesses)", found >= 20,
           f"{found} non-uniquely-colorable fixtures checked")


def test_criterion_5_unique_colorability_equivalence(corpora):
    graphs = [g for n in (5, 6, 7, 8, 9) for g in corpora[n]
              if find_clique(g, 4) is not None]
    assert len(graphs) == 63, f"expected 63 fixtures, got {len(graphs)}"
    trees = 0
    for g in graphs:
        trace = is_ktree(g, 4)
        unique = count_colorings(g, 4, limit=2) == 1
        assert (trace is not None) == unique, f"mismatch at n={g.n}"
        if trace is not None:
            trees += 1
            cert = certify_ktree(g, 4)
            assert cert.verdict and cert.rank >= g.n - 3
        else:
            with pytest.raises(ValueError):
                certify_ktree(g, 4)
    report("criterion 5 (corollary equivalence over 63 fixtures)", True,
           f"{trees} planar 3-trees certified, {63 - trees} non-unique rejected")


def test_criterion_6_cost_certificates(corpora):
    graphs = [g for n in (5, 6, 7, 8, 9) for g in corpora[n]
              if find_clique(g, 4) is not None]
    graphs += [load_figure(name) for name in ("fig3", "fig4", "fig5")]
    solver_checked = 0
    for g in graphs:
        _, coloring = chromatic_oracle(g)
        cert = certify_cost(g, coloring)
        assert cert.verdict, f"n={g.n}: {cert.to_text()}"
        assert cert.psd and cert.rank >= g.n - 3
        assert cert.residuals["objective_gap"] <= 1e-10
        if cert.checks.get("solver_optimal"):
            solver_checked += 1
            assert cert.checks["solver_extract"]
    report("criterion 6 (cost certificates)", True,
           f"{len(graphs)} graphs, solver extraction confirmed on {solver_checked}")


def test_criterion_7_independent_cost(corpora):
    graphs = [g for n in (8, 9) for g in corpora[n] if find_clique(g, 4)]
    graphs = graphs[:47] + [load_figure(n) for n in ("fig3", "fig4", "fig5")]
    assert len(graphs) == 50
    for g in graphs:
        cost, assignment = independent_cost(g, 4)
        total = np.zeros((g.n, g.n))
        for clique in enumerate_cliques(g, 4):
            member = np.zeros(g.n)
            for v in clique:
                member[v - 1] = 1.0
            total += np.outer(member, member)
        assert np.array_equal(assignment.S, total)
        assert min_eigenvalue(assignment.S) >= -1e-10
        x_ref = reference_solution(g, chromatic_oracle(g)[1])
        gap = abs(float(np.sum(cost * x_ref)) - assignment.dual_obj)
        assert gap <= 1e-10, f"n={g.n} gap={gap}"
    report("criterion 7 (structure-only cost on 50 fixtures)", True,
           "PSD, clique-sum equality, and objective identity all exact")


def test_criterion_8_table_replication():
    start = time.perf_counter()
    expected = {5: 1, 6: 1, 7: 4, 8: 12, 9: 45, 10: 222, 11: 1219}
    counts = {}
    failures = {}
    for algo in (1, 2):
        for n in expected:
            rep = run_batch(fixture_text(corpus_name(n)), algo, jobs=4)
            counts[(algo, n)] = len(rep.rows)
            failures[(algo, n)] = rep.failure_count
    elapsed = time.perf_counter() - start
    for algo in (1, 2):
        got = tuple(counts[(algo, n)] for n in expected)
        assert got == tuple(expected.values()), f"algo {algo} counts {got}"
        bad = sum(failures[(algo, n)] for n in expected)
        assert bad == 0, f"algo {algo} failures {failures}"
    assert elapsed < 7200.0
    report("criterion 8 (experiment table, n=5..11)", True,
           f"counts (1,1,4,12,45,222,1219), zero failures, {elapsed:.0f}s with 4 workers")


def test_criterion_9_fixture_behaviors():
    fig3 = load_figure("fig3")
    for runner in (heuristic1, heuristic2):
        out = runner(fig3)
        assert out.status == FAILED, f"{runner.__name__} on fig3: {out.status}"
        assert out.colored_vertices == {1, 2, 5, 6, 7}, out.colored_vertices
        assert (out.cause, out.cause_vertex) == (EXHAUSTED, 9), (out.cause, out.cause_vertex)
    for name in ("fig4", "fig5"):
        g = load_figure(name)
        for runner in (heuristic1, heuristic2):
            out = runner(g)
            assert out.status == COLORED, f"{runner.__name__} on {name}"
    report("criterion 9 (obstacle and Kempe fixtures)", True,
           "fig3 fails exhausted at vertex 9; fig4 and fig5 color with both heuristics")


def test_criterion_10_solver_properties():
    rng = np.random.default_rng(1234)
    from scipy.optimize import linprog

    lp_checked = 0
    for _ in range(50):
        dim = int(rng.integers(3, 9))
        m = int(rng.integers(1, dim))
        constraints, objective, c_diag, rows, b = diagonal_lp_instance(rng, dim, m)
        sol = solve(ConstraintMap(dim, constraints), objective)
        assert sol.status == OPTIMAL
        assert sol.primal_obj >= sol.dual_obj - 1e-7 * (1 + abs(sol.primal_obj))
        verdict, *_ = check_complementarity(sol.X, sol.S, tol=1e-5)
        assert verdict
        lp = linprog(c_diag, A_eq=rows, b_eq=b, bounds=(0, None), method="highs")
        assert lp.success
        assert abs(sol.primal_obj - lp.fun) <= 1e-7 * (1 + abs(lp.fun))
        lp_checked += 1
    dim, constraints, objective = svcn_instance(load_figure("fig4"))
    first = solve(ConstraintMap(dim, constraints), objective)
    second = solve(ConstraintMap(dim, constraints), objective)
    assert first.iterations == second.iterations
    assert abs(first.primal_obj - second.primal_obj) <= 1e-12
    report("criterion 10 (solver property suite)", True,
           f"{lp_checked} LP-reducible instances matched; deterministic reruns")
