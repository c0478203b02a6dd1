"""Semidefinite optimiser for the moment problems, on numpy.linalg.

An infeasible-start primal-dual interior-point method (Helmberg, Rendl,
Vanderbei & Wolkowicz, SIAM J. Optim. 6 (1996); Vandenberghe & Boyd,
SIAM Rev. 38 (1996)).  The moment problem

    maximise c.m  subject to  M(m) = sum_k m_k E_k >= 0,  G m <= eps + shift,
                              m_0 = 1

is solved as the dual of a standard-form SDP.  It arrives as arrays (see
``npa.MomentProblem``): c, G, eps, the variable k of every cell of M
and, for orbit problems, the party shifts of the basis.  Variable 0 is the
identity moment, pinned to 1, so the iterates are the other moments,
m = (1, y).  The moment matrix and the Hardy rows are the two cone
blocks Z = M(m) and z = eps + shift - G m of the dual slack; X and x are
the primal matrix and vector.  Neither side has
to be feasible at the start: X = 100 I, x = 100, Z = I, z = 1 and y = 0
are used, so no interior point has to be built.

Each iteration takes the HKM direction (dX = (sigma mu I - X Z - X dZ) Z^{-1},
symmetrised) with Mehrotra's predictor-corrector.  Every moment variable
owns a disjoint, symmetric set of matrix cells, so the Schur matrix
Tr(E_k X E_l Z^{-1}) is assembled exactly, variable by variable.  If
the party shifts of the basis keep every cell's variable (the orbit
problems of ``npa``), Z stays shift-invariant, X is averaged over the
shifts after each step, and the Schur matrix reads one cell per shift
orbit, weighted by the orbit size.  It is factored once per iteration
(Jacobi-scaled LAPACK Cholesky) for the predictor and the corrector.
Both take 0.9 of the step to the cone boundary, at most a full step,
separately on the primal and the dual side.  numpy has no triangular
solve, so the Cholesky factors of the Schur matrix, X and Z are inverted
(``numpy.linalg.inv``) and applied as matrix products.

The method stops when the complementarity gap Tr(XZ) + x.z is at most
0.1 TOL and every entry of the dual residuals M(m) - Z and
eps + shift - G m - z is at most 1e-12, so the returned moments are
feasible to that level.  The primal residual, r_k = c_k + Tr(X E_k) -
(G^T x)_k for k >= 1, is not part of the rule.  On the six moment
problems of the benchmark (n = 2 to 4, levels 2 and 3, eps 0 to 0.1) its
largest entry at exit runs from 7.9e-7 to 0.33, and from 9.6e-8 to
5.6e-5 relative to the sum of x, the eps = 0 problems highest; so no
certified dual bound is claimed.

The error constraints are relaxed by a tiny slack shift (1e-9 by
default): at eps = 0 the unshifted problem has an empty interior (the
constrained terms are diagonal moments, so every feasible matrix is
singular), and the shift keeps a central path.  It biases the value up
by about its square root, far below the documented tolerances, and
keeps it a true upper bound for the unshifted problem.  Residuals of the
returned point are audited with a symmetric eigenvalue solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

TOL = 1e-6  # the moment audits' bound; GAP_FRACTION * TOL bounds the gap
DEFAULT_MAX_ITER = 100
# Exit when the complementarity gap is at most GAP_FRACTION * TOL and every
# dual residual entry at most DUAL_RESIDUAL.
GAP_FRACTION = 0.1
DUAL_RESIDUAL = 1e-12
# Fraction of the step to the cone boundary that an iteration takes.
STEP_FRACTION = 0.9
# Scale of the primal start X = START_SCALE * I against Z = I: the dual
# residual starts at 1/START_SCALE of the complementarity and both shrink
# together, so the moment point becomes feasible early.
START_SCALE = 100.0
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
    gap: float  # complementarity Tr(XZ) + x.z at exit
    # what ended the iterations: "stopping rule", "iteration cap",
    # "X or Z factor" or "Schur factor" (a failed Cholesky factorisation)
    stopped_by: str


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


class _Compiled:
    """Moment problem preprocessed for interior-point iterations."""

    def __init__(self, problem):
        self.nb = nb = problem.n_basis
        self.nv = nv = problem.n_vars
        cell_var = problem.cell_var
        if problem.variables[:1] != [((),) * problem.n]:  # an empty word per party
            raise ValidationError("variable 0 must be the identity moment")
        # The Schur matrix rows and the Cholesky factors (which read one
        # triangle) both assume cell (i, j) and cell (j, i) share a variable.
        if not np.array_equal(cell_var, cell_var.T) or cell_var.shape != (nb, nb):
            raise ValidationError(
                f"cell_var must be a symmetric {nb}x{nb} matrix of variable indices")
        self.cell_var = cv = cell_var.reshape(-1).astype(np.int64)
        if cv.min() < 0 or cv.max() >= nv:
            raise ValidationError(f"cell_var entries must lie in [0, {nv})")
        if np.any(np.bincount(cv, minlength=nv) == 0):
            raise ValidationError("moment variable without a matrix cell")
        if not (np.isfinite(problem.c).all() and np.isfinite(problem.g).all()
                and np.isfinite(problem.epsilon)):
            raise ValidationError("c, g and epsilon must be finite")
        # the problem's party shifts if each keeps every cell's variable,
        # else the identity; a cell represents its orbit if no shift lowers
        # its index
        g = problem.shifts
        if g is None or any(not np.array_equal(cell_var[np.ix_(p, p)], cell_var) for p in g):
            g = np.arange(nb)[None]
        self.shifts = g
        images = (g[:, :, None] * nb + g[:, None, :]).reshape(len(g), -1).min(axis=0)
        reps = np.flatnonzero(images == np.arange(nb * nb))
        # representatives grouped by variable: variable k owns the sorted
        # cells bounds_by_var[k]:bounds_by_var[k + 1], weighted by orbit size
        order = reps[np.argsort(cv[reps], kind="stable")]
        self.row_sorted = order // nb
        self.col_sorted = order % nb
        self.weight_sorted = np.bincount(images)[order].astype(float)
        self.bounds_by_var = np.searchsorted(cv[order], np.arange(nv + 1)).tolist()

    def mat(self, m: np.ndarray) -> np.ndarray:
        return m[self.cell_var].reshape(self.nb, self.nb)

    def trace_by_var(self, p: np.ndarray) -> np.ndarray:
        """Tr(P E_k) for every variable: sum of P[i, j] over its cells (i, j)."""
        return np.bincount(self.cell_var, weights=p.ravel(), minlength=self.nv)

    def average(self, x: np.ndarray) -> np.ndarray:
        """Average of X[shift i, shift j] over the shifts."""
        return x[self.shifts[:, :, None], self.shifts[:, None, :]].mean(axis=0)

    def schur_matrix(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """H[k, l] = Tr(E_k X E_l W) for symmetric, shift-invariant X and W.

        W E_k X sums the products of the columns W[:, i] and rows X[j, :]
        over the cells (i, j) of variable k; the cells of a shift orbit add
        the same, so one per orbit is gathered, weighted by the orbit size.
        The cells of each variable form a symmetric set, so row k of H sums
        the product over them in plain cell order.  With W = X = P this is
        the Hessian Tr(P E_k P E_l) of -logdet M at M = P^{-1}.
        """
        nv = self.nv
        h = np.empty((nv, nv))
        cols = w[self.row_sorted].T * self.weight_sorted
        rows = x[self.col_sorted]
        b = self.bounds_by_var
        for k in range(nv):
            tk = cols[:, b[k]:b[k + 1]] @ rows[b[k]:b[k + 1]]
            h[k] = np.bincount(self.cell_var, weights=tk.ravel(), minlength=nv)
        return 0.5 * (h + h.T)


def _max_step(inv_low: np.ndarray, d: np.ndarray) -> float:
    """Largest alpha with L L^T + alpha d positive semidefinite, given L^{-1}."""
    lam = float(np.linalg.eigvalsh(inv_low @ d @ inv_low.T)[0])
    return -1.0 / lam if lam < 0.0 else np.inf


def _max_step_lin(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha with v + alpha dv nonnegative."""
    neg = dv < 0.0
    return float(np.min(-v[neg] / dv[neg])) if neg.any() else np.inf


def sdp_solve(problem) -> MomentSolution:
    """Primal-dual interior-point solve of a moment problem.

    No start point is needed.  DEFAULT_MAX_ITER caps the number of iterations;
    ``converged`` reports whether the stopping rule was met and the
    returned moments pass the PSD and affine audits to TOL, and
    ``stopped_by`` which exit ended the iterations.
    """
    comp = _Compiled(problem)
    c, g = problem.c, problem.g
    nb, nj = comp.nb, len(g)
    # the objective and Hardy rows on y = (m_1, m_2, ...)
    b, gn = c[1:], g[:, 1:]
    rhs_lin = problem.epsilon + DEFAULT_SHIFT  # every Hardy row's bound
    degree = nb + nj
    eye = np.eye(nb)

    x_mat, x_lin = START_SCALE * eye, np.full(nj, START_SCALE)
    z_mat, z_lin = eye.copy(), np.ones(nj)
    y = np.zeros(comp.nv - 1)
    iters = 0
    while True:
        m = np.concatenate(([1.0], y))
        res_mat = comp.mat(m) - z_mat
        res_lin = rhs_lin - g @ m - z_lin
        gap = float(np.sum(x_mat * z_mat) + x_lin @ z_lin)
        dual_res = max(float(np.abs(res_mat).max()),
                       float(np.abs(res_lin).max(initial=0.0)))
        if gap <= GAP_FRACTION * TOL and dual_res <= DUAL_RESIDUAL:
            stopped_by = "stopping rule"
            break
        if iters >= DEFAULT_MAX_ITER:
            stopped_by = "iteration cap"
            break
        x_low, z_low = _cholesky(x_mat), _cholesky(z_mat)
        if x_low is None or z_low is None:
            stopped_by = "X or Z factor"
            break
        iters += 1
        x_inv_low, z_inv_low = np.linalg.inv(x_low), np.linalg.inv(z_low)
        z_inv = z_inv_low.T @ z_inv_low
        d_lin = x_lin / z_lin
        schur = comp.schur_matrix(x_mat, z_inv)[1:, 1:] + (gn.T * d_lin) @ gn
        # Jacobi-scale the Schur matrix: near the optimum of an eps = 0
        # problem its diagonal spans many orders of magnitude.
        scale = 1.0 / np.sqrt(np.diag(schur))
        scaled = schur * scale[:, None] * scale[None, :]
        # Round-off can leave it numerically indefinite there; a diagonal
        # jitter keeps a direction, and since the residuals are recomputed
        # from the iterates, an inexact one costs progress, not accuracy.
        low = None
        for jitter in (0.0, 1e-13, 1e-10, 1e-7):
            low = _cholesky(scaled + jitter * np.eye(len(scaled)) if jitter else scaled)
            if low is not None:
                break
        if low is None:
            stopped_by = "Schur factor"
            break
        inv_low = np.linalg.inv(low)
        del low

        def direction(target, corr_mat, corr_lin):
            """HKM step for X Z = target I - corr_mat, x z = target - corr_lin."""
            w = target * z_inv - (x_mat @ res_mat + corr_mat) @ z_inv
            rhs = (b + comp.trace_by_var(w)[1:]
                   - gn.T @ ((target - corr_lin) / z_lin - d_lin * res_lin))
            dy = scale * (inv_low.T @ (inv_low @ (scale * rhs)))
            dz_mat = res_mat + comp.mat(np.concatenate(([0.0], dy)))
            dz_lin = res_lin - gn @ dy
            dx_mat = target * z_inv - x_mat - (x_mat @ dz_mat + corr_mat) @ z_inv
            dx_lin = (target - corr_lin) / z_lin - x_lin - d_lin * dz_lin
            return dy, 0.5 * (dx_mat + dx_mat.T), dx_lin, dz_mat, dz_lin

        def steps(dx_mat, dx_lin, dz_mat, dz_lin, fraction):
            primal = min(_max_step(x_inv_low, dx_mat), _max_step_lin(x_lin, dx_lin))
            dual = min(_max_step(z_inv_low, dz_mat), _max_step_lin(z_lin, dz_lin))
            return min(1.0, fraction * primal), min(1.0, fraction * dual)

        # predictor: the affine-scaling direction sets the centring weight
        dy, dx_mat, dx_lin, dz_mat, dz_lin = direction(0.0, 0.0, 0.0)
        ap, ad = steps(dx_mat, dx_lin, dz_mat, dz_lin, 1.0)
        gap_aff = float(np.sum((x_mat + ap * dx_mat) * (z_mat + ad * dz_mat))
                        + (x_lin + ap * dx_lin) @ (z_lin + ad * dz_lin))
        sigma = min(1.0, (gap_aff / gap) ** 3)
        # corrector: same factor, centring target and second-order term
        dy, dx_mat, dx_lin, dz_mat, dz_lin = direction(
            sigma * gap / degree, dx_mat @ dz_mat, dx_lin * dz_lin)
        ap, ad = steps(dx_mat, dx_lin, dz_mat, dz_lin, STEP_FRACTION)
        # Z stays shift-invariant exactly, X only to round-off: restore it
        x_mat, x_lin = comp.average(x_mat + ap * dx_mat), x_lin + ap * dx_lin
        y, z_mat, z_lin = y + ad * dy, z_mat + ad * dz_mat, z_lin + ad * dz_lin

    value = float(c @ m)
    psd_residual = max(0.0, -float(np.linalg.eigvalsh(comp.mat(m))[0]))
    affine = float(np.max(g @ m - problem.epsilon, initial=0.0))
    converged = (stopped_by == "stopping rule" and psd_residual <= TOL
                 and affine <= TOL)
    return MomentSolution(value=value, moments=m, psd_residual=psd_residual,
                          affine_residual=affine, iterations=iters,
                          converged=converged, gap=gap, stopped_by=stopped_by)
