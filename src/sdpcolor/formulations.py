"""The coloring SDPs: strict vector chromatic number and the cost variant.

The strict-vector-chromatic instance lives in dimension n+1; index 0 carries
the shared edge value (so the objective is -z_00 and every edge forces
z_ij = -z_00). Rank reports follow the n x n submatrix convention: row and
column 0 are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Coloring, Graph, validate_coloring
from .linalg import DEFAULT_RANK_TAU, numerical_rank
from .sdp import SdpProblem, SdpSolution, solve

DEFAULT_EXTRACT_TOL = 1e-4


@dataclass(frozen=True)
class SvcnInstance:
    """Strict vector chromatic number SDP for a graph; dim = n + 1."""

    graph: Graph
    problem: SdpProblem
    edge_order: tuple


@dataclass(frozen=True)
class CostInstance:
    """Cost-augmented coloring SDP: min C . X over the alpha = -1/(k-1) slice."""

    graph: Graph
    k: int
    cost: np.ndarray
    problem: SdpProblem
    edge_order: tuple


def build_svcn(g: Graph) -> SvcnInstance:
    """Assemble the (n+1)-dimensional strict vector chromatic number SDP.

    Constraints, in order: z_ij + z_00 = 0 per edge, z_ii = 1 per vertex,
    z_0i = 0 per vertex; m = |E| + 2n. Solving gives the strict vector
    chromatic number as the primal objective (-z_00).
    """
    n = g.n
    dim = n + 1
    objective = np.zeros((dim, dim))
    objective[0, 0] = -1.0
    constraints = []
    edges = tuple(g.edge_list())
    for i, j in edges:
        a = np.zeros((dim, dim))
        a[0, 0] = 1.0
        a[i, j] = a[j, i] = 0.5
        constraints.append((a, 0.0))
    for i in g.vertices():
        a = np.zeros((dim, dim))
        a[i, i] = 1.0
        constraints.append((a, 1.0))
    for i in g.vertices():
        a = np.zeros((dim, dim))
        a[0, i] = a[i, 0] = 0.5
        constraints.append((a, 0.0))
    return SvcnInstance(g, SdpProblem.build(dim, objective, constraints), edges)


def build_cost_sdp(g: Graph, k: int, c: np.ndarray) -> CostInstance:
    """Assemble the cost SDP: X_ij = -1/(k-1) on edges, unit diagonal.

    Edge constraints use the two-entry matrix E_ij + E_ji with right-hand side
    -2/(k-1), so the solver's dual values are exactly the z_e of the paper-form
    dual, and the dual objective is sum y_i - (2/(k-1)) sum z_e.
    """
    if k < 2:
        raise ValueError("palette size must be at least 2")
    c = np.asarray(c, dtype=float)
    if c.shape != (g.n, g.n):
        raise ValueError("cost matrix dimension mismatch")
    constraints = []
    edges = tuple(g.edge_list())
    for i, j in edges:
        a = np.zeros((g.n, g.n))
        a[i - 1, j - 1] = a[j - 1, i - 1] = 1.0
        constraints.append((a, -2.0 / (k - 1)))
    for i in g.vertices():
        a = np.zeros((g.n, g.n))
        a[i - 1, i - 1] = 1.0
        constraints.append((a, 1.0))
    return CostInstance(g, k, c, SdpProblem.build(g.n, c, constraints), edges)


def reference_solution(g: Graph, c: Coloring) -> np.ndarray:
    """Gram matrix of the recursively constructed simplex vectors.

    Unit diagonal, 1 for same-colored pairs, -1/(k-1) otherwise; PSD of rank
    k-1 when all k colors are used. Built directly as the Gram matrix, so the
    entries are exact.
    """
    if not validate_coloring(g, c):
        raise ValueError("coloring is not proper for this graph")
    colors = np.array(c.assignment)
    same = colors[:, None] == colors[None, :]
    x = np.where(same, 1.0, -1.0 / (c.k - 1))
    np.fill_diagonal(x, 1.0)
    return x


def extract_coloring(x: np.ndarray, k: int,
                     tol: float = DEFAULT_EXTRACT_TOL) -> Coloring | None:
    """Read a coloring off a reference-shaped solution; None if it is not one.

    Vertices i, j share a class iff |x_ij - 1| <= tol. Returns a Coloring only
    when at most k classes emerge and they form a proper partition (every
    cross-class entry away from 1); anything else signals a non-reference
    solution, not an error.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if np.max(np.abs(np.diag(x) - 1.0)) > tol:
        return None
    reps: list = []  # first vertex of each class
    assignment = [0] * n
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
            agree = assignment[i] == assignment[j]
            close = abs(x[i, j] - 1.0) <= tol
            if agree != close:  # inconsistent grouping
                return None
    return Coloring(k, tuple(assignment))


@dataclass(frozen=True)
class SvcnSummary:
    objective: float  # the strict vector chromatic number (= -z_00)
    rank_primal: int  # n x n submatrix rank
    rank_dual: int
    solution: SdpSolution

    @property
    def X(self) -> np.ndarray:
        return self.solution.X[1:, 1:]

    @property
    def S(self) -> np.ndarray:
        return self.solution.S[1:, 1:]


def solve_svcn(g: Graph, tol: float = 1e-8,
               tau: float = DEFAULT_RANK_TAU) -> SvcnSummary:
    """Solve the strict vector chromatic number SDP and report submatrix ranks."""
    inst = build_svcn(g)
    sol = solve(inst.problem, tol=tol)
    return SvcnSummary(
        objective=sol.primal_obj,
        rank_primal=numerical_rank(sol.X[1:, 1:], tau),
        rank_dual=numerical_rank(sol.S[1:, 1:], tau),
        solution=sol,
    )
