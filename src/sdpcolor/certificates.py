"""Closed-form optimality certificates and their verification.

Everything here is constructed in exact integer arithmetic over a single
rational denominator and converted to floating point once, so the feasibility
identities (off-diagonal sum, trace, objective equality) hold to machine
precision rather than solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .formulations import (
    chain_cost,
    clique_face,
    extract_coloring,
    reference_solution,
    solve_cost,
    solve_svcn,
)
from .graphs import (
    Coloring,
    Graph,
    KTreeTrace,
    enumerate_cliques,
    find_clique,
    is_ktree,
    validate_coloring,
    validate_trace,
)
from .linalg import min_eigenvalue, numerical_rank

PSD_SLACK = 1e-10
EXACT_TOL = 1e-12
OBJ_TOL = 1e-10


@dataclass(frozen=True)
class DualAssignment:
    """Dual variables (y per vertex, z per edge) with the reconstructed slack."""

    y: tuple
    z: dict
    S: np.ndarray
    dual_obj: float


@dataclass(frozen=True)
class CertificateReport:
    """Verdict plus the numeric evidence for one closed-form construction."""

    name: str
    psd: bool
    lambda_min: float
    residuals: dict
    primal_obj: float
    dual_obj: float
    objective_match: bool
    rank: int
    rank_bound: int
    rank_ok: bool
    checks: dict = field(default_factory=dict)
    verdict: bool = False

    def to_text(self) -> str:
        lines = [f"certificate {self.name}"]
        lines.append(f"  psd: {self.psd} (lambda_min={self.lambda_min:.3e})")
        for key, val in self.residuals.items():
            lines.append(f"  residual {key}: {val:.3e}")
        lines.append(
            f"  objectives: primal={self.primal_obj:.10f} dual={self.dual_obj:.10f}"
            f" (match: {self.objective_match})"
        )
        lines.append(f"  rank: {self.rank} (target >= {self.rank_bound}): {self.rank_ok}")
        for key, val in self.checks.items():
            lines.append(f"  check {key}: {val}")
        lines.append(f"  verdict: {self.verdict}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# (k-1)-tree certificate
# ---------------------------------------------------------------------------

def ktree_dual(g: Graph, trace: KTreeTrace) -> np.ndarray:
    """The dual slack matrix certifying a (k-1)-tree.

    Entry (i,i) is (deg(i) - (k-2)) / (k(k-1)(n-k+1)); an edge entry is
    (|N(i) n N(j)| - (k-3)) over the same denominator; non-edges are zero.
    """
    if not validate_trace(g, trace):
        raise ValueError("trace does not describe a (k-1)-tree construction of g")
    k, n = trace.k, g.n
    denom = float(k * (k - 1) * (n - k + 1))
    num = np.zeros((n, n))
    for v in g.vertices():
        num[v - 1, v - 1] = g.degree(v) - (k - 2)
    for i, j in g.edges:
        common = len(g.neighbors[i] & g.neighbors[j])
        num[i - 1, j - 1] = num[j - 1, i - 1] = common - (k - 3)
    return num / denom


def certify_ktree(g: Graph, k: int) -> CertificateReport:
    """Verify the closed-form dual certificate for a (k-1)-tree.

    Checks the exact feasibility identities (off-diagonal sum 1, trace
    1/(k-1)), positive semidefiniteness, and rank n-k+1; then solves the
    strict vector chromatic number SDP and confirms the primal side:
    objective -1/(k-1), submatrix rank at most k-1, and a successful coloring
    extraction. Ranks use linalg.DEFAULT_RANK_TAU, the solve
    sdp.DEFAULT_TOL and the extraction formulations.DEFAULT_EXTRACT_TOL.
    """
    trace = is_ktree(g, k)
    if trace is None:
        raise ValueError(f"graph is not a ({k - 1})-tree")
    n = g.n
    s_mat = ktree_dual(g, trace)
    target = -1.0 / (k - 1)
    diag_sum = float(np.trace(s_mat))
    offdiag_sum = float(s_mat.sum()) - diag_sum
    lam = min_eigenvalue(s_mat)
    rank = numerical_rank(s_mat)
    residuals = {
        "offdiag_sum": abs(offdiag_sum - 1.0),
        "trace": abs(diag_sum - 1.0 / (k - 1)),
    }
    dual_obj = -diag_sum
    summary = solve_svcn(g)
    checks = {
        "svcn_objective": abs(summary.objective - target) <= 1e-6,
        "svcn_primal_rank": summary.rank_primal <= k - 1,
        "svcn_extract": extract_coloring(summary.X, k) is not None,
        "rank_sum_bound": summary.rank_primal + summary.rank_dual <= n,
    }
    psd = lam >= -PSD_SLACK
    rank_ok = rank >= n - k + 1
    feasible = all(v <= EXACT_TOL for v in residuals.values())
    objective_match = abs(dual_obj - target) <= EXACT_TOL
    verdict = psd and rank_ok and feasible and objective_match and all(checks.values())
    return CertificateReport(
        name=f"ktree(k={k}, n={n})",
        psd=psd,
        lambda_min=lam,
        residuals=residuals,
        primal_obj=summary.objective,
        dual_obj=dual_obj,
        objective_match=objective_match,
        rank=rank,
        rank_bound=n - k + 1,
        rank_ok=rank_ok,
        checks=checks,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Coloring-dependent cost certificate
# ---------------------------------------------------------------------------

def _cost_dual(cost: np.ndarray, y: np.ndarray, z: dict, k: int) -> DualAssignment:
    """The cost SDP's dual map at (y, z): S = C - Diag(y) - sum_e z_e (E_ij + E_ji)
    and the objective sum y_i - (2/(k-1)) sum z_e, for 1-based edges e = (i, j)."""
    s_mat = cost - np.diag(y)
    for (i, j), ze in z.items():
        s_mat[i - 1, j - 1] -= ze
        s_mat[j - 1, i - 1] -= ze
    return DualAssignment(tuple(y), z, s_mat, float(y.sum()) - 2.0 * sum(z.values()) / (k - 1))


def coloring_cost_matrix(g: Graph, c: Coloring) -> np.ndarray:
    """Cost matrix with -1 linking consecutive same-colored vertices.

    "Consecutive" is taken in vertex-label order within each color class:
    each class is sorted and adjacent pairs are chained.
    """
    if not validate_coloring(g, c):
        raise ValueError("coloring is not proper for this graph")
    return chain_cost(g.n, c.classes())


def _require_clique(g: Graph, clique, size: int) -> tuple:
    clique = tuple(sorted(clique))
    if len(clique) != size or len(set(clique)) != size:
        raise ValueError(f"expected a clique of {size} distinct vertices")
    if any(not g.has_edge(a, b) for a, b in combinations(clique, 2)):
        raise ValueError("given vertex set is not a clique")
    return clique


def coloring_cost_dual(g: Graph, c: Coloring, clique) -> DualAssignment:
    """The dual assignment certifying the coloring-dependent cost matrix.

    With s_i the column sums of the cost matrix: y_i = s_i off the clique and
    s_i - 1 on it; z_e = -1 exactly on clique-internal edges. The slack S and
    the objective sum y_i - (2/(k-1)) sum z_e come out in exact integers.
    """
    k = c.k
    if k < 2:
        raise ValueError("palette size must be at least 2")
    clique = _require_clique(g, clique, k)
    cost = coloring_cost_matrix(g, c)
    col_sums = cost.sum(axis=0)
    in_clique = np.zeros(g.n)
    for v in clique:
        in_clique[v - 1] = 1.0
    y = col_sums - in_clique
    clique_edges = {tuple(sorted(e)) for e in combinations(clique, 2)}
    z = {e: (-1.0 if e in clique_edges else 0.0) for e in g.edge_list()}
    return _cost_dual(cost, y, z, k)


def certify_cost(g: Graph, c: Coloring) -> CertificateReport:
    """Verify that the coloring-dependent cost matrix pins down the coloring.

    Confirms the dual slack is PSD with rank at least n-k+1 (at
    linalg.DEFAULT_RANK_TAU) and that the reference solution's objective
    equals the dual objective; then solves the cost SDP on its clique face
    (formulations.solve_cost) and checks that the solution extracts back to
    the input partition. The check runs when the solve ends optimal or
    inaccurate, the statuses the heuristics accept, and fails on any other
    status.
    """
    k = c.k
    clique = find_clique(g, k)
    if clique is None:
        raise ValueError(f"graph has no K_{k}")
    assignment = coloring_cost_dual(g, c, clique)
    cost = coloring_cost_matrix(g, c)
    x_ref = reference_solution(g, c)
    primal_obj = float(np.sum(cost * x_ref))
    lam = min_eigenvalue(assignment.S)
    rank = numerical_rank(assignment.S)
    objective_match = abs(primal_obj - assignment.dual_obj) <= OBJ_TOL
    sol = solve_cost(clique_face(g, k), cost)
    extracted = extract_coloring(sol.X, k) if sol.face.usable else None
    checks = {
        "solver_optimal": sol.face.optimal,
        "solver_extract": extracted is not None and extracted.partition() == c.partition(),
    }
    psd = lam >= -PSD_SLACK
    rank_ok = rank >= g.n - k + 1
    verdict = psd and rank_ok and objective_match and checks["solver_extract"]
    return CertificateReport(
        name=f"cost(k={k}, n={g.n})",
        psd=psd,
        lambda_min=lam,
        residuals={"objective_gap": abs(primal_obj - assignment.dual_obj)},
        primal_obj=primal_obj,
        dual_obj=assignment.dual_obj,
        objective_match=objective_match,
        rank=rank,
        rank_bound=g.n - k + 1,
        rank_ok=rank_ok,
        checks=checks,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Coloring-independent cost matrix
# ---------------------------------------------------------------------------

def independent_cost(g: Graph, k: int):
    """The structure-only cost matrix and its optimal dual assignment.

    C has ones on the diagonal and on edges. With k_i (k_ij) the number of
    K_k's through vertex i (edge ij): y_i = 1 - k_i, z_ij = 1 - k_ij, and the
    slack has S_ii = k_i, S_ij = k_ij, the clique-sum decomposition. Every
    feasible primal is optimal for this cost. Returns (C, DualAssignment).
    """
    if k < 2:
        raise ValueError("palette size must be at least 2")
    cliques = enumerate_cliques(g, k)
    if not cliques:
        raise ValueError(f"graph has no K_{k}")
    n = g.n
    per_vertex = np.zeros(n)
    per_edge = {e: 0 for e in g.edge_list()}
    for clique in cliques:
        for v in clique:
            per_vertex[v - 1] += 1
        for e in combinations(clique, 2):
            per_edge[e] += 1
    cost = np.eye(n)
    for i, j in g.edges:
        cost[i - 1, j - 1] = cost[j - 1, i - 1] = 1.0
    z = {e: 1.0 - cnt for e, cnt in per_edge.items()}
    return cost, _cost_dual(cost, 1.0 - per_vertex, z, k)


# ---------------------------------------------------------------------------
# Rank-blowup witness for non-unique colorings
# ---------------------------------------------------------------------------

def blend_colorings(g: Graph, c1: Coloring, c2: Coloring, clique,
                    alpha: float) -> np.ndarray:
    """Convex combination of two reference solutions, a rank > k-1 witness.

    The second coloring is relabeled by the unique color permutation that
    matches the first on the clique (both are injective there). Entries where
    the two Gram matrices agree are copied, so the combination satisfies the
    cost-SDP constraints exactly for any alpha.
    """
    if c1.k != c2.k:
        raise ValueError("colorings use different palette sizes")
    k = c1.k
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")
    clique = _require_clique(g, clique, k)
    perm = {}
    for v in clique:
        src, dst = c2.color(v), c1.color(v)
        if perm.setdefault(src, dst) != dst:
            raise ValueError("clique relabeling impossible")
    if len(perm) != k or len(set(perm.values())) != k:
        raise ValueError("clique relabeling impossible")
    relabeled = Coloring(k, tuple(perm[col] for col in c2.assignment))
    if c1.partition() == c2.partition():
        raise ValueError("colorings are identical as partitions")
    g1 = reference_solution(g, c1)
    g2 = reference_solution(g, relabeled)
    return np.where(g1 == g2, g1, alpha * g1 + (1.0 - alpha) * g2)

