"""SDP-driven four-coloring heuristics with explicit failure semantics.

Both heuristics grow color classes anchored at a K_4 by repeatedly solving the
cost SDP. A try picks an unaligned vertex v and an anchor, sets the cost to a
base plus one -1 link from v, and re-solves. It is judged right after that
solve: it is kept if v aligned with the anchor, and otherwise the base is
restored and solved again. They differ only in the link: the first links v to
the last member of the anchor's class on a base that chains consecutive members
of the classes as they stand, the second links v straight to its anchor on the
current cost.

The original procedure loops forever when no vertex can be colored; here a
failed run names which of four causes ended it: the scanned vertex has
exhausted all four anchors (exhausted), a full cyclic pass finds nothing
admissible (no-admissible), the state at try selection repeats (cycle), or
the solve budget, checked before each solve, is spent (budget). That state,
taken when the scan has picked a try, is the cost, the scanned vertex and the
anchors ruled out for it. The solver is deterministic and a rejected try
restores the base it started from, so the iterate, and with it everything the
run does next, is a function of that state: a state seen twice proves that
the run repeats itself forever. A failed run reports the classes and rank of
the iterate it kept, never a rejected try's.

Each solve is a single call of sdp.solve on the cost SDP restricted to its
clique face (formulations.solve_cost). A run builds that face once and every
solve of the run reuses it; only the cost changes between solves. A run's
first solve has a zero cost, so sdp.solve returns the first feasible iterate
it reaches, an interior point of the face, as optimal with y = 0 and S = 0.
A solve must end optimal or inaccurate; any other status ends the run as
solver-error, with the classes and rank of the last iterate solved (none and
-1 if it was the first).

A run ends colored after a solve whose iterate X gives a coloring: the
anchor-aligned classes cover every vertex and form a proper 4-coloring, and
that coloring's reference Gram matrix has a cost objective of at most
<C, X> + 1e-6 (1 + |<C, X>|). The Gram matrix is then an optimum of rank 3,
which is what the paper's rank test looks for, and the run reports rank 3. The
rank of X itself does not decide it: an iterate that converges to that optimum
keeps eigenvalues of the order of the square root of its duality gap, which
can sit above the rank cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formulations import chain_cost, clique_face, reference_solution, solve_cost
from .graphs import Coloring, Graph, find_clique, validate_coloring
from .linalg import numerical_rank
from .sdp import FaceMap

ALIGN_TOL = 1e-4
PALETTE = 4

COLORED = "colored"
FAILED = "failed"
SOLVER_ERROR = "solver-error"

# why a run ended failed
EXHAUSTED = "exhausted"  # the scanned vertex has all four anchors marked bad
NO_ADMISSIBLE = "no-admissible"  # a full cyclic pass found nothing to try
CYCLE = "cycle"  # the state at try selection repeated
BUDGET = "budget"  # the next solve would exceed max_solves


class SolverError(RuntimeError):
    """A cost SDP solve ended neither optimal nor inaccurate."""


@dataclass(frozen=True)
class LogEntry:
    step: int
    vertex: int  # 0 for the initial solve
    anchor: int  # anchor index 1..4, 0 when not applicable
    action: str  # try | accept | reject | rebuild
    rank: int


@dataclass(frozen=True)
class HeuristicOutcome:
    status: str
    coloring: Coloring | None
    classes: tuple  # four vertex tuples, one per anchor, at termination
    final_rank: int
    solve_count: int
    log: tuple
    cause: str | None = None  # EXHAUSTED, NO_ADMISSIBLE, CYCLE or BUDGET when failed
    cause_vertex: int = 0  # the exhausted vertex; 0 for any other cause

    @property
    def colored_vertices(self) -> frozenset:
        return frozenset(v for cls in self.classes for v in cls)


def format_log(log) -> str:
    return "\n".join(
        f"step={e.step} vertex={e.vertex} anchor={e.anchor}"
        f" action={e.action} rank={e.rank}"
        for e in log
    )


def solve_modified(face: FaceMap, cost: np.ndarray):
    """Solve the cost SDP on a graph's clique face; returns (X, rank_primal).

    The face is formulations.clique_face(g, 4); X comes lifted from it
    (formulations.solve_cost) and its rank, counted at
    linalg.DEFAULT_RANK_TAU, goes to the step log only: the run stops on the
    rule in the module docstring. The solve must end optimal or inaccurate:
    an inaccurate iterate is feasible to 10 * sdp.DEFAULT_TOL with its
    duality gap within the same bound, so its entries sit well within the
    1e-4 alignment tolerance and the heuristic can still read accept/reject
    decisions off it. Any other status raises SolverError.
    """
    sol = solve_cost(face, cost)
    if not sol.face.usable:
        raise SolverError(f"cost SDP ended with status {sol.face.status}")
    return sol.X, numerical_rank(sol.X)


def heuristic1(g: Graph, max_solves: int | None = None) -> HeuristicOutcome:
    """Chained-cost heuristic: rebuild the cost matrix from whole classes.

    A run stops as failed after max_solves cost solves (default 4 n^2); a
    max_solves below 1 raises ValueError.
    """
    return _run(g, chained=True, max_solves=max_solves)


def heuristic2(g: Graph, max_solves: int | None = None) -> HeuristicOutcome:
    """Single-entry heuristic: link each chosen vertex directly to its anchor.

    A run stops as failed after max_solves cost solves (default 4 n^2); a
    max_solves below 1 raises ValueError.
    """
    return _run(g, chained=False, max_solves=max_solves)


def _run(g: Graph, chained: bool, max_solves: int | None) -> HeuristicOutcome:
    if max_solves is not None and max_solves < 1:
        raise ValueError(f"max_solves must be at least 1, not {max_solves}")
    clique = find_clique(g, PALETTE)
    if clique is None:
        raise ValueError("graph has no K_4; the heuristics require one")
    anchors = list(clique)
    face = clique_face(g, PALETTE)
    n = g.n
    budget = 4 * n * n if max_solves is None else max_solves
    log: list = []
    solves = 0

    def aligned(x, v, a):
        return abs(x[v - 1, a - 1] - 1.0) <= ALIGN_TOL

    def colored(cost, x, classes):
        """The coloring the classes give, if it ends the run (module docstring)."""
        assignment = [0] * n
        for q, members in enumerate(classes, start=1):
            for v in members:
                assignment[v - 1] = q
        if 0 in assignment:
            return None
        coloring = Coloring(PALETTE, tuple(assignment))
        if not validate_coloring(g, coloring):
            return None
        obj = float(np.sum(cost * x))
        if np.sum(cost * reference_solution(g, coloring)) > obj + 1e-6 * (1.0 + abs(obj)):
            return None
        return coloring

    def solve(cost, vertex, anchor_idx, action):
        """Solve cost and log it; the iterate, its rank, its classes and coloring.

        A class holds the vertices aligned with its anchor, in vertex order. The
        anchors are pairwise at -1/3, so no vertex aligns with two of them.
        """
        nonlocal solves
        solves += 1
        x, rank = solve_modified(face, cost)
        log.append(LogEntry(len(log) + 1, vertex, anchor_idx, action, rank))
        classes = tuple(tuple(v for v in g.vertices() if aligned(x, v, a)) for a in anchors)
        return x, rank, classes, colored(cost, x, classes)

    def finish(status, classes, rank, coloring=None, cause=None, cause_vertex=0):
        return HeuristicOutcome(status, coloring, classes, rank, solves, tuple(log),
                                cause, cause_vertex)

    classes, rank = ((),) * 4, -1
    cost = np.zeros((n, n))
    scan = 1
    badcolors: set = set()
    seen: set = set()  # states at try selection (module docstring)
    try:
        x, rank, classes, coloring = solve(cost, 0, 0, "rebuild")
        while coloring is None:
            covered = {v for members in classes for v in members}
            found = None
            for _ in range(n + 1):
                v = scan
                if v not in covered:
                    if all(a in badcolors for a in anchors):
                        return finish(FAILED, classes, rank, cause=EXHAUSTED, cause_vertex=v)
                    for q, a in enumerate(anchors, start=1):
                        if a in badcolors:
                            continue
                        # v is not covered, so it is aligned with no anchor
                        if abs(x[v - 1, a - 1] + 1.0 / 3.0) <= ALIGN_TOL:
                            continue
                        found = (v, q)
                        break
                    if found:
                        break
                scan = scan % n + 1
                badcolors.clear()
            if found is None:
                return finish(FAILED, classes, rank, cause=NO_ADMISSIBLE)

            v, q = found
            state = (cost.tobytes(), scan, frozenset(badcolors))
            if state in seen:
                return finish(FAILED, classes, rank, cause=CYCLE)
            seen.add(state)
            if solves == budget:
                return finish(FAILED, classes, rank, cause=BUDGET)
            if chained:
                link = classes[q - 1][-1]
                base = chain_cost(n, classes)
            else:
                link = anchors[q - 1]
                base = cost.copy()
                base[v - 1, link - 1] = base[link - 1, v - 1] = 0.0
            cost = base.copy()
            cost[v - 1, link - 1] = cost[link - 1, v - 1] = -1.0
            kept = (classes, rank)  # a budget stop reports these, not a rejected try's
            x, rank, classes, coloring = solve(cost, v, q, "try")
            if coloring is not None:
                break
            if aligned(x, v, anchors[q - 1]):
                log.append(LogEntry(len(log) + 1, v, q, "accept", rank))
                continue
            if solves == budget:
                return finish(FAILED, *kept, cause=BUDGET)
            cost = base
            badcolors.add(anchors[q - 1])
            x, rank, classes, coloring = solve(cost, v, q, "reject")
    except SolverError:
        return finish(SOLVER_ERROR, classes, rank)

    # the reference Gram matrix of a coloring with all four colors has rank 3
    return finish(COLORED, classes, PALETTE - 1, coloring)
