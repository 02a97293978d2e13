"""Standard-form SDP solver over entry constraints, or over a face.

Primal:  min C . X   s.t.  A_i . X = b_i,  X PSD
Dual:    max b^T y   s.t.  S = C - sum_i y_i A_i,  S PSD

Each A_i is stored as its few nonzero entries. An SDP is posed as an
operator and an objective, solve(ops, C): the solver reaches the constraints
only through the operator, which gives b, A(W), A*(y), the Schur matrix and
the Gram factor that restores A(dW) = r, and it takes C in that operator's
coordinates. The caller picks the operator:

- on the whole cone, ConstraintMap works on the entries: A(X) is a gather and
  A*(y) a scatter over them, so no constraint is a dense matrix (at n = 100 a
  dense operator would be 394 x 10,201). The Schur matrix is G K G^T over the
  distinct cells the entries touch (689 for those 982 entries), with the
  symmetric cell-pair products K gathered and reduced through G in column
  blocks, so no cells x cells array is built;
- with a face (FaceMap, basis V of d columns), the variable is restricted to
  X = V W V^T and the solver works in W. There every V^T A_i V is a dense
  d x d matrix, so FaceMap holds them as the rows of one m x d^2 operator and
  A(W), A*(y) and the Schur matrix are matrix products. It is built once
  and serves every objective on the same face and constraints; the caller
  projects each one to V^T C V.

The solver is an infeasible-start primal-dual path-following method with the
symmetrized XS linearization and a Mehrotra predictor-corrector step, solving
the dense m x m Schur complement each iteration by direct LAPACK calls:
dpotrf/dpotrs, whose solution is used as it is, or, when dpotrf finds a
leading minor that is not positive definite (near some optima the matrix
turns numerically singular), a jittered LU (dgetrf/dgetrs), whose solutions
alone are iteratively refined; lu_steps counts those iterations. X and S
are Cholesky-factored (dpotrf) once per iterate, and every later step reuses
the factors. S^-1 comes from S's factor as L^-T L^-1 (dtrtri, then a dsyrk
product), so it is exactly symmetric, and the Schur matrix and the search
direction share it. A step length to the PSD boundary is -1/lambda_min of
the pencil (dP, P), P = X or S, and it needs only that smallest eigenvalue:
dsygst reduces the pencil with P's factor and dsyevx computes it alone. When
a Cholesky fails, np.linalg.inv gives S^-1 (symmetrized) and an eigh of P
the eigenvalues instead. It is deterministic. It assumes independent
constraints and a feasible set with an interior: when the interior is empty,
steps shrink toward the boundary and the solve can run to the iteration cap.
Pose such a problem on the FaceMap of the face that holds its feasible set,
as formulations.clique_face does for the cost SDP.

Relative primal and dual residuals and the relative duality gap are measured
at every iterate; an iterate passes a tolerance when all three are within it.
The loop has four exits; the status and the iteration count name the one
that fired:

- optimal: the window at DEFAULT_TOL closed; the solve returns the passing
  iterate with the smallest X . S of the first one that passes and the
  iterate after it;
- optimal, with y = 0 and S = 0: the objective is exactly zero, so (0, 0) is
  an exact dual optimum and every feasible X is optimal; the solve returns
  the first iterate whose relative primal residual is within DEFAULT_TOL,
  which, like every iterate, is positive definite in the operator's
  coordinates;
- the DEFAULT_MAX_ITER cap: the solve returns inaccurate, the same choice
  from the window at 10 * DEFAULT_TOL when any iterate passed it, or else
  max-iterations, the last iterate;
- S could not be inverted or a search direction was not finite: like the
  cap, the solve returns inaccurate with the window's choice at
  10 * DEFAULT_TOL when any iterate passed it, or else numerical-failure,
  the iterate that step started from. An inaccurate solve under the cap
  ended here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import lapack, qr

from .linalg import require_symmetric, symmetrize

OPTIMAL = "optimal"
INACCURATE = "inaccurate"
MAX_ITERATIONS = "max-iterations"
NUMERICAL_FAILURE = "numerical-failure"

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
_WINDOW = 2  # iterates compared once a tolerance is first met
_RELAXED = 10.0  # inaccurate: the window at _RELAXED * DEFAULT_TOL
_REFINE_STEPS = 2
_EPS = np.finfo(float).eps
_GAMMA_FLOOR = 0.9  # fraction to the cone boundary; adapts up to 0.99
_SCHUR_BLOCK = 128  # columns of K gathered at a time by ConstraintMap.schur


def _check_constraints(constraints, dim: int) -> None:
    """ValueError unless each constraint has distinct upper-triangle cells, at least one."""
    if not constraints:
        raise ValueError("at least one constraint required")
    for entries, _ in constraints:
        cells = {(r, c) for r, c, _ in entries if 0 <= r <= c < dim}
        if not entries or len(cells) < len(entries):
            raise ValueError(f"constraint {entries}: not distinct upper-triangle cells")


def _flat_entries(constraints) -> tuple:
    """(row, p, q, coef) arrays: entry s sets A_{row_s}[p_s, q_s] = coef_s, both
    triangles listed."""
    cells = [(i, r, c, v) for i, (entries, _) in enumerate(constraints) for r, c, v in entries]
    cells += [(i, c, r, v) for i, r, c, v in cells if r != c]
    return tuple(np.array(col) for col in zip(*cells))


class _Operator:
    """What the solver asks of the constraints, in the variable's coordinates.

    Subclasses give b, order (the variable's order), gather (A(W)), scatter
    (A*(y)), schur (M_ij = tr(A_i W A_j T)) and gram, the factor of the
    constant Gram matrix tr(A_i A_j). They factor it when they are built,
    before the solver's loop allocates its per-iteration arrays.
    """

    def restore(self, dw: np.ndarray, r: np.ndarray) -> np.ndarray:
        """dw moved onto A(dw) = r by the least-norm correction A*(lambda).

        This is what keeps primal feasibility from eroding once the Schur
        complement turns ill-conditioned near the optimum.
        """
        lam = self.gram.solve(r - self.gather(dw))
        return symmetrize(dw + self.scatter(lam))


class ConstraintMap(_Operator):
    """Constraints on a variable of order dim, reached through their entries.

    Each constraint is (entries, b_i); its entries are its distinct nonzero
    upper-triangle cells (r, c, value), r <= c, each setting A_i[r, c] =
    A_i[c, r] = value. They are checked when the map is built.

    The entries are flattened with both triangles listed, so entry s sets
    A_{i_s}[p_s, q_s] = c_s; gather and scatter work on them. The Schur matrix
    works on the distinct cells (p_u, q_u) that the entries touch: the sparse
    matrix G (m x cells) holds A_i[p_u, q_u] in row i, so a cell that many
    constraints share (the SVCN's corner cell) is one column, not many. G
    holds a cell and its transpose with the same value, so the Schur matrix
    is G K G^T with a symmetric K of cell-pair products (see schur), and the
    Gram matrix tr(A_i A_j) is G G^T.
    """

    def __init__(self, dim: int, constraints):
        _check_constraints(constraints, dim)
        self.row, self.p, self.q, self.coef = _flat_entries(constraints)
        cells, col = np.unique(self.p * dim + self.q, return_inverse=True)
        self.cell_p, self.cell_q = np.divmod(cells, dim)
        self.b = np.array([bi for _, bi in constraints])
        self.g = sparse.csr_matrix((self.coef, (self.row, col)), shape=(self.b.size, cells.size))
        self.order = dim
        self.gram = _Factor((self.g @ self.g.T).toarray())

    def gather(self, x: np.ndarray) -> np.ndarray:
        """A(X)_i = sum over entries s of constraint i of c_s X[p_s, q_s]."""
        return np.bincount(self.row, self.coef * x[self.p, self.q], self.b.size)

    def scatter(self, y: np.ndarray) -> np.ndarray:
        """A*(y) = sum_i y_i A_i: entry s adds c_s y_{i_s} at [p_s, q_s]."""
        n = self.order
        return np.bincount(self.p * n + self.q, self.coef * y[self.row], n * n).reshape(n, n)

    def schur(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """M_ij = tr(A_i X A_j T), X and T symmetric.

        Cell v of A_i and cell u of A_j contribute G_iv G_ju X[p_v, q_u]
        T[q_v, p_u]. Both triangles are listed with the same value, so G
        does not change when u is swapped for its transposed cell (q_u, p_u),
        and M = G K G^T with K[v, u] = X[p_v, p_u] T[q_v, q_u], which is
        symmetric. K is gathered _SCHUR_BLOCK columns at a time, each block
        C-contiguous so that G reduces it without a copy, and the m x block
        product G K[:, block] is the transpose of rows block of the cells x m
        array K G^T; then M = G (K G^T). No cells x cells array is built.
        """
        p, q = self.cell_p, self.cell_q
        kg = np.empty((p.size, self.b.size))
        for lo in range(0, p.size, _SCHUR_BLOCK):
            block = slice(lo, lo + _SCHUR_BLOCK)
            k = np.take(x[:, p[block]], p, axis=0)
            k *= np.take(t[:, q[block]], q, axis=0)
            kg[block] = (self.g @ k).T
        return self.g @ kg


class FaceMap(_Operator):
    """Constraints restricted to the face X = V W V^T, as a dense operator on W.

    On the face, constraints can turn dependent (a combination of the A_i can
    vanish there), and the solver needs independent rows. FaceMap keeps the
    ones that pivoted QR of their Gram matrix finds independent, in their
    original order, as constraints. Dropping a constraint is sound only when
    b obeys the same dependence; the caller vouches for that.

    Row i of rows is vec(V^T A_i V), of length d^2 for V's d columns (V has
    orthonormal columns). A(W) is rows @ vec(W), A*(y) is rows^T y as a d x d
    matrix, and the Schur matrix tr(A_i W A_j T) is the product of the stacked
    A_i W with the stacked T A_j. The constraints are checked, and the Gram
    factor computed, once, so every solve on this face shares both.
    """

    def __init__(self, basis: np.ndarray, constraints: tuple):
        n, d = basis.shape
        _check_constraints(constraints, n)
        row, p, q, coef = _flat_entries(constraints)
        a = np.zeros((len(constraints), n, n))
        a[row, p, q] = coef  # _check_constraints: each (constraint, cell) pair is distinct
        a = basis.T @ a @ basis
        rows = ((a + a.transpose(0, 2, 1)) / 2.0).reshape(-1, d * d)  # exactly symmetric
        _, r, piv = qr(rows @ rows.T, pivoting=True)
        diag = np.abs(np.diag(r))
        kept = np.sort(piv[diag > 1e-9 * diag[0]])
        self.constraints = tuple(constraints[i] for i in kept)
        self.basis = basis
        self.order = d
        self.rows = rows[kept]
        self.mats = self.rows.reshape(-1, d, d)
        self.b = np.array([bi for _, bi in self.constraints])
        self.gram = _Factor(self.rows @ self.rows.T)

    def gather(self, w: np.ndarray) -> np.ndarray:
        """A(W)_i = vec(V^T A_i V) . vec(W)."""
        return self.rows @ w.ravel()

    def scatter(self, y: np.ndarray) -> np.ndarray:
        """A*(y) = sum_i y_i V^T A_i V."""
        d = self.order
        return (y @ self.rows).reshape(d, d)

    def schur(self, w: np.ndarray, t: np.ndarray) -> np.ndarray:
        """M_ij = tr(A_i W A_j T) = (A_i W) . (T A_j), all matrices symmetric."""
        m = self.b.size
        return (self.mats @ w).reshape(m, -1) @ (t @ self.mats).reshape(m, -1).T


@dataclass(frozen=True)
class SdpSolution:
    """The returned iterate, its objectives and status, and the loop's counts:
    iterations run, and lu_steps, how many of them factored the Schur matrix
    by the jittered LU because dpotrf failed."""

    X: np.ndarray
    y: np.ndarray
    S: np.ndarray
    primal_obj: float
    dual_obj: float
    status: str
    iterations: int
    lu_steps: int

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL

    @property
    def usable(self) -> bool:
        """Optimal, or inaccurate: feasible to 10 * DEFAULT_TOL with its
        duality gap within the same bound."""
        return self.status in (OPTIMAL, INACCURATE)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float((a * b).sum())


def _max_step(p: np.ndarray, chol: np.ndarray | None, dp: np.ndarray) -> float:
    """Largest alpha with p + alpha*dp still PSD (p assumed PD).

    The step is -1/lambda_min of the pencil (dp, p), whose eigenvalues are
    those of L^-1 dp L^-T for p's Cholesky factor chol = L: dsygst forms that
    matrix from L, and dsyevx takes its smallest eigenvalue alone. When p's
    Cholesky failed (chol is None), the eigenvalues are those of
    p^-1/2 dp p^-1/2 with p's spectrum clipped away from zero.
    """
    if chol is not None:
        c = lapack.dsygst(dp, chol, itype=1, lower=1)[0]
        lam = float(lapack.dsyevx(c, compute_v=0, range="I", il=1, iu=1, lower=1,
                                  overwrite_a=1)[0][0])
    else:
        w, q = np.linalg.eigh(p)
        w = np.clip(w, w[-1] * 1e-14 if w[-1] > 0 else 1e-300, None)
        inv_half = q / np.sqrt(w)
        lam = float(np.linalg.eigvalsh(symmetrize(inv_half.T @ dp @ inv_half))[0])
    if lam >= -1e-13:
        return np.inf
    return -1.0 / lam


def _cholesky(p: np.ndarray) -> np.ndarray | None:
    """p's lower Cholesky factor, its upper triangle zero; None when dpotrf fails."""
    chol, info = lapack.dpotrf(p, lower=1)
    return chol if info == 0 else None


def _inverse(s: np.ndarray, chol: np.ndarray | None) -> np.ndarray:
    """S^-1, exactly symmetric: L^-T L^-1 from S's factor chol = L, or
    np.linalg.inv when S's Cholesky failed (chol is None), which raises
    LinAlgError on a singular S.

    These are dpotri's two steps, dtrtri and then the product, but with
    numpy's product, which calls dsyrk (one operand is the other's
    transpose) and mirrors its triangle, so the result is exactly symmetric:
    OpenBLAS's dlauum, which dpotri calls, rounds differently with more than
    one thread even at order 5, so a solve would depend on the thread count.
    """
    if chol is None:
        return symmetrize(np.linalg.inv(s))
    inv_l = lapack.dtrtri(chol, lower=1)[0]
    return inv_l.T @ inv_l


class _Factor:
    """Factor a symmetric positive definite system once; solve it.

    LAPACK's dpotrf/dpotrs, called directly; Cholesky is backward stable, so
    its solution is returned as it is. When dpotrf reports a leading minor that
    is not positive definite, a jittered LU (dgetrf/dgetrs) takes over, and up
    to two steps of iterative refinement against the unjittered matrix follow,
    stopping once the residual h - M x is at roundoff level, eps (||M|| ||x|| +
    ||h||) in the max norm with ||M|| the max row sum.
    """

    def __init__(self, mat: np.ndarray):
        self._cho, info = lapack.dpotrf(mat, lower=1, clean=0)
        if info != 0:
            self._cho = None
            self._mat = mat
            self._norm = np.abs(mat).sum(axis=1).max()
            jitter = 1e-12 * (1.0 + float(np.trace(mat)) / mat.shape[0])
            self._lu, self._piv, _ = lapack.dgetrf(mat + jitter * np.eye(mat.shape[0]))

    def solve(self, h: np.ndarray) -> np.ndarray:
        if self._cho is not None:
            return lapack.dpotrs(self._cho, h, lower=1)[0]
        x = lapack.dgetrs(self._lu, self._piv, h)[0]
        h_max = np.abs(h).max()
        for _ in range(_REFINE_STEPS):
            r = h - self._mat @ x
            # written so that a NaN residual also stops refining
            if not np.abs(r).max() > _EPS * (self._norm * np.abs(x).max() + h_max):
                break
            x = x + lapack.dgetrs(self._lu, self._piv, r)[0]
        return x


class _Window:
    """The passing iterate with the smallest X . S among the first few.

    Stopping at first contact with the tolerance leaves complementary pairs
    only half-resolved, which blurs rank counts, so the window stays open for
    _WINDOW iterates from the first one that passes: that one and the next.
    The readers of those counts are the SVCN's primal and dual ranks
    (formulations.solve_svcn, certificates.certify_ktree) and the X . S
    complementarity of optimal solves; the heuristics read no rank. A longer
    window moves none of the SVCN ranks on fig1 or on 4-trees of 60-100
    vertices, and near their degenerate optima its extra iterations are the
    ones whose Schur matrix needs the LU fallback. A zero objective never
    opens the window: its first feasible iterate ends the solve with the
    exact dual pair (0, 0), whose X . S is 0.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.iterate = None
        self.xs = np.inf
        self.seen = 0

    @property
    def closed(self) -> bool:
        return self.seen >= _WINDOW

    def offer(self, x, y, s, rel_p, rel_d, rel_gap):
        if self.closed:
            return
        if rel_p <= self.tol and rel_d <= self.tol and rel_gap <= self.tol:
            xs = _inner(x, s)
            if xs < self.xs:
                self.iterate = (x.copy(), y.copy(), s.copy())
                self.xs = xs
        if self.iterate is not None:
            self.seen += 1


def solve(ops: ConstraintMap | FaceMap, objective: np.ndarray) -> SdpSolution:
    """Solve min C . W over A(W) = b, W PSD, in one pass of at most
    DEFAULT_MAX_ITER iterations.

    ops gives the constraints and objective C is in its coordinates: a
    symmetric matrix of order ops.order. On a FaceMap that is V^T C V, and
    X and S are those of W; the caller lifts what it needs. The status is
    optimal, inaccurate, max-iterations or numerical-failure; with the
    iteration count it names the loop exit that produced it (see the module
    docstring).
    """
    c = require_symmetric(objective)
    ell = ops.order
    if c.shape != (ell, ell):
        raise ValueError(f"objective of order {c.shape[0]}, operator of order {ell}")
    b = ops.b
    res_scale = 1.0 + float(np.abs(b).max()) + float(np.abs(c).max())

    eye = np.eye(ell)
    x = res_scale * eye
    s = res_scale * eye
    y = np.zeros(b.size)

    status = MAX_ITERATIONS
    iterations = 0
    lu_steps = 0
    gamma = _GAMMA_FLOOR
    strict = _Window(DEFAULT_TOL)
    relaxed = _Window(_RELAXED * DEFAULT_TOL)

    def measure(x, y, s):
        rp = b - ops.gather(x)
        rd = c - s - ops.scatter(y)
        pobj = _inner(c, x)
        dobj = float(b @ y)
        rel_p = float(np.abs(rp).max()) / res_scale
        rel_d = float(np.abs(rd).max()) / res_scale
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        return rp, rd, pobj, dobj, rel_p, rel_d, rel_gap

    center_next = False
    zero_objective = not c.any()

    for it in range(1, DEFAULT_MAX_ITER + 1):
        rp, rd, _, _, rel_p, rel_d, rel_gap = measure(x, y, s)
        if zero_objective and rel_p <= DEFAULT_TOL:
            # (0, 0) is an exact dual optimum of C = 0, so any feasible X is optimal
            y, s = np.zeros(b.size), np.zeros((ell, ell))
            status = OPTIMAL
            break
        relaxed.offer(x, y, s, rel_p, rel_d, rel_gap)
        strict.offer(x, y, s, rel_p, rel_d, rel_gap)
        if strict.closed:
            x, y, s = strict.iterate
            status = OPTIMAL
            break
        iterations = it

        x_chol, s_chol = _cholesky(x), _cholesky(s)
        try:
            s_inv = _inverse(s, s_chol)
            schur = _Factor(symmetrize(ops.schur(x, s_inv)))
            lu_steps += schur._cho is None

            xs = x @ s
            xrd = x @ rd
            mu = _inner(x, s) / ell

            def direction(rc):
                g = (rc - xrd) @ s_inv
                dy = schur.solve(rp - ops.gather(g))
                ds = symmetrize(rd - ops.scatter(dy))
                dx = symmetrize((rc - x @ ds) @ s_inv)
                if not (np.isfinite(dx).all() and np.isfinite(ds).all()):
                    raise np.linalg.LinAlgError("non-finite search direction")
                return ops.restore(dx, rp), dy, ds

            if center_next:
                # pure centering step to recover step length after a near-stall
                dx, dy, ds = direction(mu * eye - xs)
            else:
                dx_a, dy_a, ds_a = direction(-xs)
                ap_a = min(1.0, gamma * _max_step(x, x_chol, dx_a))
                ad_a = min(1.0, gamma * _max_step(s, s_chol, ds_a))
                mu_aff = _inner(x + ap_a * dx_a, s + ad_a * ds_a) / ell
                sigma = min(1.0, max(mu_aff / mu, 0.0) ** 3) if mu > 0 else 0.1
                rc = sigma * mu * eye - xs - dx_a @ ds_a
                dx, dy, ds = direction(rc)
        except np.linalg.LinAlgError:  # S singular, or a direction not finite
            status = NUMERICAL_FAILURE
            break
        alpha_p = min(1.0, gamma * _max_step(x, x_chol, dx))
        alpha_d = min(1.0, gamma * _max_step(s, s_chol, ds))

        x = x + alpha_p * dx
        s = s + alpha_d * ds
        y = y + alpha_d * dy
        gamma = _GAMMA_FLOOR + 0.09 * min(alpha_p, alpha_d)
        center_next = min(alpha_p, alpha_d) < 0.05

    if status in (MAX_ITERATIONS, NUMERICAL_FAILURE) and relaxed.iterate is not None:
        x, y, s = relaxed.iterate
        status = INACCURATE

    _, _, pobj, dobj, _, _, _ = measure(x, y, s)
    return SdpSolution(x, y, s, pobj, dobj, status, iterations, lu_steps)
