"""Semidefinite optimiser for the moment problems, on numpy.linalg.

A primal log-barrier Newton method: maximise the linear objective minus
(1/t) times the barrier -logdet M(m) - sum_j log(eps_j - g_j.m), with
the standard stage schedule t <- 10 t.  Every moment variable owns a
disjoint, symmetric set of matrix cells, so the barrier Hessian is the
Gram matrix of the cell-indicator directions under the M^{-1} (x) M^{-1}
metric plus a small rank-J term from the inequalities; it is assembled
exactly.  Each Newton iteration takes one LAPACK Cholesky factor of the
Jacobi-scaled Hessian and applies it, by forward and back substitution,
to the gradient and every equality row at once; the equality rows enter
through a KKT bordering of the Newton system.  M^{-1} comes from the
Cholesky factor of the moment matrix, which also serves as the
positive-definiteness test of the line search.

The error constraints are relaxed by a tiny slack shift (1e-9 by
default) so that a strictly interior start exists even when the
unshifted problem has an empty interior (at eps = 0 the constrained
terms are diagonal moments, so every feasible matrix is singular).  The
shift biases the reported value upward by about the square root of the
shift, far below the documented tolerances, and keeps the value a true
upper bound for the unshifted problem.

The returned point is strictly feasible, so its PSD residual vanishes up
to the duality gap left by the final barrier stage; residuals are
audited with a symmetric eigenvalue solve and reported.  No certified
dual bound is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 5000
STAGE_FACTOR = 10.0
CENTER_DECREMENT = 1e-10
# Slack shift regularising problems whose interior is empty (at eps = 0
# every feasible moment matrix has zero diagonal entries).  The value
# bias scales like sqrt(shift) because the duals blow up there.
DEFAULT_SHIFT = 1e-9


@dataclass(frozen=True)
class MomentSolution:
    value: float
    moments: np.ndarray
    psd_residual: float
    affine_residual: float
    iterations: int
    converged: bool


def _cholesky(a: np.ndarray):
    """Lower Cholesky factor, or None when ``a`` is not a finite positive
    definite matrix.  ``numpy.linalg.cholesky`` returns NaNs for NaN input
    instead of raising, so non-finite input is rejected first."""
    if not np.isfinite(a).all():
        return None
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def _solve_lower(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution for low x = b (one right-hand side or a block).

    Reversing rows and columns makes ``low`` upper triangular, on which
    LAPACK's partial-pivoting LU exchanges no rows, so
    ``numpy.linalg.solve`` reduces to plain substitution.
    """
    return np.linalg.solve(low[::-1, ::-1], b[::-1])[::-1]


def _chol_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (low low^T) x = b by forward and back substitution."""
    return np.linalg.solve(low.T, _solve_lower(low, b))


class _Compiled:
    """Moment problem preprocessed for barrier iterations."""

    def __init__(self, problem):
        nb = problem.n_basis
        nv = problem.n_vars
        self.nb = nb
        self.nv = nv
        cell_var = problem.cell_var
        # The Hessian rows and the Cholesky factors (which read one
        # triangle) both assume cell (i, j) and cell (j, i) share a variable.
        if not np.array_equal(cell_var, cell_var.T) or cell_var.shape != (nb, nb):
            raise ValidationError(
                f"cell_var must be a symmetric {nb}x{nb} matrix of variable indices")
        cv = cell_var.reshape(-1).astype(np.int64)
        self.cell_var = cv
        if cv.min() < 0 or cv.max() >= nv:
            raise ValidationError(f"cell_var entries must lie in [0, {nv})")
        if np.any(np.bincount(cv, minlength=nv) == 0):
            raise ValidationError("moment variable without a matrix cell")
        # cells grouped by variable: variable k owns the sorted cells
        # bounds_by_var[k]:bounds_by_var[k + 1]
        order = np.argsort(cv, kind="stable")
        self.row_sorted = order // nb
        self.col_sorted = order % nb
        self.bounds_by_var = np.searchsorted(cv[order], np.arange(nv + 1)).tolist()

        self.c = np.zeros(nv)
        for k, coef in problem.objective.items():
            self.c[k] = coef

        self.a_eq = np.zeros((len(problem.equalities), nv))
        self.b_eq = np.zeros(len(problem.equalities))
        for r, (row, rhs) in enumerate(problem.equalities):
            for k, coef in row.items():
                self.a_eq[r, k] = coef
            self.b_eq[r] = rhs

        nj = len(problem.inequalities)
        self.nj = nj
        self.g = np.zeros((nj, nv))
        self.eps = np.zeros(nj)
        for r, (row, rhs) in enumerate(problem.inequalities):
            for k, coef in row.items():
                self.g[r, k] = coef
            self.eps[r] = rhs

        self.degree = nb + nj

    def mat(self, m: np.ndarray) -> np.ndarray:
        return m[self.cell_var].reshape(self.nb, self.nb)

    def trace_by_var(self, p: np.ndarray) -> np.ndarray:
        """Tr(P E_k) for every variable: sum of P[i, j] over its cells (i, j)."""
        return np.bincount(self.cell_var, weights=p.ravel(), minlength=self.nv)

    def barrier_hessian(self, p: np.ndarray) -> np.ndarray:
        """H[k, l] = Tr(P E_k P E_l) for symmetric P, variable by variable.

        P E_k P is the product of the columns P[:, i] and rows P[j, :] of
        the cells (i, j) of variable k, contiguous slices of two row
        gathers in variable order; it is symmetric, so row k of H sums it
        over the cells of each variable in plain cell order.
        """
        nv = self.nv
        h = np.empty((nv, nv))
        cols = p[self.row_sorted].T
        rows = p[self.col_sorted]
        b = self.bounds_by_var
        for k in range(nv):
            tk = cols[:, b[k]:b[k + 1]] @ rows[b[k]:b[k + 1]]
            h[k] = np.bincount(self.cell_var, weights=tk.ravel(), minlength=nv)
        return 0.5 * (h + h.T)


def _project_onto_equalities(comp: _Compiled, m: np.ndarray) -> np.ndarray:
    if comp.a_eq.shape[0] == 0:
        return m
    a = comp.a_eq
    resid = a @ m - comp.b_eq
    gram = a @ a.T
    low = _cholesky(gram)
    if low is None:
        raise ValidationError("equality rows are linearly dependent")
    return m - a.T @ _chol_solve(low, resid)


def sdp_solve(problem, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
              start: np.ndarray | None = None,
              slack_shift: float | None = None) -> MomentSolution:
    """Barrier solve of a moment problem.

    ``start`` must be strictly feasible (positive definite moment matrix,
    strictly slack inequalities) after projection onto the equality rows;
    when omitted, the identity-moment indicator is tried, which suffices
    for problems whose identity variable covers the matrix diagonal.
    ``max_iter`` caps the total number of Newton iterations.
    """
    comp = _Compiled(problem)
    shift = DEFAULT_SHIFT if slack_shift is None else slack_shift
    eps_sh = comp.eps + shift

    if start is None:
        # indicator of singly-pinned rows; enough when the identity
        # variable covers the matrix diagonal
        m = np.zeros(comp.nv)
        for row, rhs in zip(comp.a_eq, comp.b_eq):
            nz = np.nonzero(row)[0]
            if nz.size == 1:
                m[nz[0]] = rhs / row[nz[0]]
    else:
        m = np.array(start, dtype=float, copy=True)
    m = _project_onto_equalities(comp, m)

    def slacks(mv):
        return eps_sh - comp.g @ mv if comp.nj else np.empty(0)

    low = _cholesky(comp.mat(m))
    s = slacks(m)
    if low is None or (comp.nj and s.min() <= 0.0):
        raise NumericError(
            "starting point is not strictly feasible; pass an interior start")

    def phi(mv, t, low_mv, s_mv):
        logdet = 2.0 * float(np.sum(np.log(np.diag(low_mv))))
        logs = float(np.sum(np.log(s_mv))) if comp.nj else 0.0
        return -t * float(comp.c @ mv) - logdet - logs

    gap_target = 0.1 * tol
    t = max(1.0, comp.degree)
    iters = 0
    converged = False
    eye = np.eye(comp.nb)
    while iters < max_iter:
        # Newton centering at the current barrier parameter.
        for _ in range(60):
            if iters >= max_iter:
                break
            iters += 1
            linv = _solve_lower(low, eye)
            pinv = linv.T @ linv
            grad = -t * comp.c - comp.trace_by_var(pinv)
            hess = comp.barrier_hessian(pinv)
            if comp.nj:
                grad += comp.g.T @ (1.0 / s)
                hess += (comp.g / (s * s)[:, None]).T @ comp.g
            # Jacobi-scale the Newton system: near-empty interiors put
            # 1/diag^2 blowups on a few rows, which raw Cholesky cannot take.
            scale = 1.0 / np.sqrt(np.diag(hess))
            hs = hess * scale[:, None] * scale[None, :]
            hlow = None
            for jitter in (0.0, 1e-13, 1e-10, 1e-7):
                hlow = _cholesky(hs + jitter * np.eye(comp.nv) if jitter else hs)
                if hlow is not None:
                    break
            if hlow is None:
                raise NumericError("barrier Hessian lost positive definiteness")
            # one factor applied to the gradient and every equality row
            rhs = np.column_stack([-grad, comp.a_eq.T])
            sol = scale[:, None] * _chol_solve(hlow, scale[:, None] * rhs)
            step, ha = sol[:, 0], sol[:, 1:]
            if comp.a_eq.shape[0]:
                clow = _cholesky(comp.a_eq @ ha)
                if clow is None:
                    raise NumericError("degenerate equality block")
                step -= ha @ _chol_solve(clow, comp.a_eq @ step)
            if float(grad @ step) > 0.0:
                # ill-conditioned solve produced an ascent direction; fall
                # back to projected steepest descent
                step = -grad
                if comp.a_eq.shape[0]:
                    a = comp.a_eq
                    glow = _cholesky(a @ a.T)
                    step -= a.T @ _chol_solve(glow, a @ step)
            dec = float(step @ (hess @ step))
            if dec <= 2.0 * CENTER_DECREMENT:
                break
            cur = phi(m, t, low, s)
            alpha = 1.0
            gdots = float(grad @ step)
            accepted = False
            for _ in range(60):
                trial = m + alpha * step
                s_t = slacks(trial)
                if not comp.nj or s_t.min() > 0.0:
                    low_t = _cholesky(comp.mat(trial))
                    if low_t is not None and phi(trial, t, low_t, s_t) <= cur + 0.25 * alpha * gdots:
                        m, low, s = trial, low_t, s_t
                        accepted = True
                        break
                alpha *= 0.5
            if not accepted:
                break
        if comp.degree / t <= gap_target:
            converged = True
            break
        t *= STAGE_FACTOR

    value = float(comp.c @ m)
    gram = comp.mat(m)
    psd_residual = max(0.0, -float(np.linalg.eigvalsh(gram)[0]))
    affine = 0.0
    if comp.a_eq.shape[0]:
        affine = float(np.max(np.abs(comp.a_eq @ m - comp.b_eq)))
    if comp.nj:
        affine = max(affine, float(np.max(comp.g @ m - comp.eps)))
    converged = converged and psd_residual <= tol and affine <= tol
    return MomentSolution(value=value, moments=m, psd_residual=psd_residual,
                          affine_residual=max(0.0, affine), iterations=iters,
                          converged=converged)
