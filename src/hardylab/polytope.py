"""Linear programming over the local and no-signaling polytopes.

The solver is a dense two-phase primal simplex with Bland's rule, which
precludes cycling on the heavily degenerate systems produced here.  An
infeasible or unbounded program raises NumericError.  It takes the one
form both problems have: arrays of equality rows and of ``<=`` rows over
nonnegative variables, with nonnegative right-hand sides.  Both problems
take their objective and error rows from ``behavior.hardy_values``.  The
local problem is posed in the vertex-weight basis (one variable per
deterministic strategy); the no-signaling problem directly in behavior
entries, with the per-party equalities of ``behavior.signaling_gaps``:
summed over a party's outcome, the table does not depend on its setting.
They imply no-signaling for every subset (k dropped parties move a
marginal by at most k * 2^(k-1) times the largest gap);
``check_no_signaling`` audits them on the solution.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .behavior import BehaviorTensor, check_no_signaling, hardy_values, signaling_gaps
from .errors import NumericError, ValidationError

FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LPSolution:
    value: float
    assignment: np.ndarray
    pivots: int  # simplex pivots over both phases


def _pivot(tab: np.ndarray, basis: list, row: int, col: int):
    """Scale ``row`` to a unit pivot and eliminate ``col`` from every other
    row whose entry there exceeds 1e-13, all such rows in one update."""
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    rows = np.abs(factors) > 1e-13
    tab[rows] -= np.outer(factors[rows], tab[row])
    basis[row] = col


def _bland_loop(tab: np.ndarray, basis: list, max_iter: int, phase: int) -> int:
    """Minimise the last tableau row in place; Bland's rule throughout.
    Returns the number of pivots; raises NumericError if unbounded."""
    tol = 1e-11
    for pivots in range(max_iter):
        improving = np.flatnonzero(tab[-1, :-1] < -tol)
        if improving.size == 0:
            return pivots
        enter = int(improving[0])
        col = tab[:-1, enter]
        rows = np.where(col > tol)[0]
        if rows.size == 0:
            raise NumericError(f"phase {phase}: objective unbounded after {pivots} pivots")
        ratios = tab[rows, -1] / col[rows]
        best = ratios.min()
        cand = rows[ratios <= best + 1e-12]
        leave = min(cand, key=lambda r: basis[r])
        _pivot(tab, basis, leave, enter)
    raise NumericError(f"phase {phase}: simplex cycling guard exceeded")


def lp_solve(c, a_eq, b_eq, a_ub, b_ub) -> LPSolution:
    """Two-phase primal simplex for small dense linear programs:
    maximise c.x subject to a_eq x = b_eq, a_ub x <= b_ub and x >= 0.

    Every right-hand side must be nonnegative, so that the artificials
    start as a feasible basis.  Tableau columns are the variables, one
    slack per ``<=`` row and one artificial per row; the equality rows
    come first.  A program without an optimum raises NumericError.
    """
    c = np.asarray(c, dtype=float)
    nvar = c.size
    a_eq, a_ub = np.asarray(a_eq, dtype=float), np.asarray(a_ub, dtype=float)
    n_eq, nslack = len(b_eq), len(b_ub)
    if a_eq.shape != (n_eq, nvar) or a_ub.shape != (nslack, nvar):
        raise ValidationError(
            f"constraint rows must have {nvar} entries, one per right-hand side")
    b = np.concatenate((b_eq, b_ub))
    if not np.all(b >= 0.0):
        raise ValidationError("right-hand sides must be nonnegative")

    m = n_eq + nslack
    a_at = nvar + nslack
    tab = np.zeros((m + 1, a_at + m + 1))
    tab[:m, :nvar] = np.vstack((a_eq, a_ub))
    tab[:m, -1] = b
    tab[np.arange(n_eq, m), np.arange(nvar, a_at)] = 1.0
    tab[np.arange(m), np.arange(a_at, a_at + m)] = 1.0
    basis = list(range(a_at, a_at + m))
    max_iter = 2000 + 200 * (2 * m + a_at)

    # Phase 1: minimise the sum of artificials.
    tab[-1, a_at:a_at + m] = 1.0
    for r in range(m):
        tab[-1] -= tab[r]
    pivots = _bland_loop(tab, basis, max_iter, 1)
    if tab[-1, -1] < -1e-7:
        raise NumericError(f"phase 1: program infeasible after {pivots} pivots "
                           f"(artificial sum {-tab[-1, -1]:.2e})")

    # Clear leftover artificials from the basis (degenerate rows).
    keep = []
    for r in range(m):
        if basis[r] >= a_at:
            cols = np.where(np.abs(tab[r, :a_at]) > 1e-9)[0]
            if not cols.size:
                continue
            _pivot(tab, basis, r, int(cols[0]))
            pivots += 1
        keep.append(r)
    tab = tab[keep + [m]]
    basis = [basis[r] for r in keep]

    # Phase 2 on the original objective (maximise c => minimise -c).
    tab = np.delete(tab, np.s_[a_at:a_at + m], axis=1)
    tab[-1] = 0.0
    tab[-1, :nvar] = -c
    for r, bv in enumerate(basis):
        if tab[-1, bv] != 0.0:
            tab[-1] -= tab[-1, bv] * tab[r]
    pivots += _bland_loop(tab, basis, max_iter, 2)

    xstd = np.zeros(a_at)
    for r, bv in enumerate(basis):
        if bv < a_at:
            xstd[bv] = tab[r, -1]
    x = xstd[:nvar]
    violation = np.concatenate((np.abs(a_eq @ x - b[:n_eq]), a_ub @ x - b[n_eq:]))
    if violation.max(initial=0.0) > FEAS_TOL:
        raise NumericError(
            f"optimal point violates a constraint by {violation.max():.2e}")
    return LPSolution(value=float(c @ x), assignment=x, pivots=pivots)


def _vertex_table(n: int) -> np.ndarray:
    """The 4^n deterministic behaviors as the rows of a 0/1 matrix.

    Row v is the strategy whose base-4 digits, party 1 most significant,
    are 2 * (outcome at U) + (outcome at D); its columns follow the
    flattened behavior table, settings first, then outcomes.
    """
    shifts = np.arange(n - 1, -1, -1)
    digits = (np.arange(4 ** n)[:, None] >> 2 * shifts) & 3
    settings = (np.arange(2 ** n)[:, None] >> shifts) & 1
    outcomes = (digits[:, None, :] >> (1 - settings)) & 1  # (vertex, settings, party)
    cols = np.arange(2 ** n) * 2 ** n + outcomes @ (1 << shifts)
    table = np.zeros((4 ** n, 4 ** n))
    np.put_along_axis(table, cols, 1.0, axis=1)
    return table


def _check_query(n: int, epsilon: float, bound: str) -> None:
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"epsilon = {epsilon!r} outside [0, 1]")
    if n not in (2, 3):
        raise ValidationError(f"the {bound} bound is posed for n in {{2, 3}}")


def local_max(n: int, epsilon: float) -> LPSolution:
    """Exact maximum of the noisy Hardy probability over local behaviors
    of n parties whose Hardy terms are each at most ``epsilon``.

    Posed over vertex weights: maximise sum_v w_v p_v subject to the n+1
    error constraints and sum_v w_v = 1, w >= 0.
    """
    _check_query(n, epsilon, "noisy local")
    p, zs = hardy_values(_vertex_table(n).reshape((4 ** n,) + (2,) * (2 * n)), n)
    return lp_solve(p, np.ones((1, len(p))), [1.0], zs.T, np.full(n + 1, epsilon))


def nosignaling_max(n: int, epsilon: float) -> LPSolution:
    """Maximum of the noisy Hardy probability over no-signaling behaviors.

    Variables are the full behavior table; constraints are positivity,
    per-setting normalisation, the per-party no-signaling equalities and
    the n+1 error constraints.
    """
    _check_query(n, epsilon, "no-signaling")
    shape = (2,) * (2 * n)
    unit = np.eye(4 ** n).reshape((4 ** n,) + shape)  # unit[k] is 1 at entry k only
    p, zs = hardy_values(unit, n)
    norm = unit.sum(axis=tuple(range(n + 1, 2 * n + 1))).reshape(4 ** n, -1).T
    a_eq = np.vstack([norm] + [gap.reshape(4 ** n, -1).T for gap in signaling_gaps(unit, n)])
    b_eq = np.zeros(len(a_eq))
    b_eq[:len(norm)] = 1.0
    sol = lp_solve(p, a_eq, b_eq, zs.T, np.full(n + 1, epsilon))
    gap = check_no_signaling(BehaviorTensor(np.clip(sol.assignment, 0.0, None).reshape(shape)))
    if gap > 1e-8:
        raise NumericError(f"no-signaling LP solution signals by {gap:.2e}")
    return sol
