"""Linear programming over the local and no-signaling polytopes.

The solver is a dense two-phase primal simplex with Bland's rule, which
precludes cycling on the heavily degenerate systems produced here; its
variables are nonnegative.  Both problems take their objective and error
rows from ``behavior.hardy_values``.  The local problem is posed in the
vertex-weight basis (one variable per deterministic strategy); the
no-signaling problem directly in behavior entries, with the per-party
equalities of ``behavior.signaling_gaps``: summed over a party's outcome,
the table does not depend on its setting.  They imply no-signaling for
every subset (k dropped parties move a marginal by at most k * 2^(k-1)
times the largest gap); ``check_no_signaling`` audits them on the solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .behavior import (BehaviorTensor, Scenario, check_no_signaling, hardy_values,
                       signaling_gaps)
from .errors import NumericError, ValidationError

FEAS_TOL = 1e-9


@dataclass
class LinearProgram:
    """maximize objective . x subject to x >= 0 and rows (coeffs, relation, bound)."""

    objective: np.ndarray
    constraints: list = field(default_factory=list)

    def add(self, coeffs, relation: str, bound: float):
        if relation not in ("<=", "=", ">="):
            raise ValidationError(f"unknown relation {relation!r}")
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != np.asarray(self.objective).shape:
            raise ValidationError("constraint length does not match objective")
        self.constraints.append((coeffs, relation, float(bound)))


@dataclass(frozen=True)
class LPSolution:
    status: str
    value: float
    assignment: np.ndarray
    pivots: int  # simplex pivots over both phases


@dataclass(frozen=True)
class BoundQuery:
    """Noisy Hardy bound query: party count and the uniform error bound."""

    n: int
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValidationError(f"epsilon = {self.epsilon!r} outside [0, 1]")


class _Unbounded(Exception):
    """Raised by the simplex loop; ``args[0]`` is its pivot count."""


def _pivot(tab: np.ndarray, basis: list, row: int, col: int):
    """Scale ``row`` to a unit pivot and eliminate ``col`` from every other
    row whose entry there exceeds 1e-13, all such rows in one update."""
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    rows = np.abs(factors) > 1e-13
    tab[rows] -= np.outer(factors[rows], tab[row])
    basis[row] = col


def _bland_loop(tab: np.ndarray, basis: list, max_iter: int) -> int:
    """Minimise the last tableau row in place; Bland's rule throughout.
    Returns the number of pivots."""
    tol = 1e-11
    for pivots in range(max_iter):
        improving = np.flatnonzero(tab[-1, :-1] < -tol)
        if improving.size == 0:
            return pivots
        enter = int(improving[0])
        col = tab[:-1, enter]
        rows = np.where(col > tol)[0]
        if rows.size == 0:
            raise _Unbounded(pivots)
        ratios = tab[rows, -1] / col[rows]
        best = ratios.min()
        cand = rows[ratios <= best + 1e-12]
        leave = min(cand, key=lambda r: basis[r])
        _pivot(tab, basis, leave, enter)
    raise NumericError("simplex cycling guard exceeded")


def lp_solve(lp: LinearProgram) -> LPSolution:
    """Two-phase primal simplex for small dense linear programs."""
    c = np.asarray(lp.objective, dtype=float)
    nvar = c.size

    # Normalise signs so every right-hand side is nonnegative.
    norm_rows = []
    for a, rel, b in lp.constraints:
        if b < 0:
            a, b = -a, -b
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        norm_rows.append((a, rel, b))

    m = len(norm_rows)
    nslack = sum(1 for _, rel, _ in norm_rows if rel in ("<=", ">="))
    total = nvar + nslack + m  # artificials for every row keeps phase 1 simple
    tab = np.zeros((m + 1, total + 1))
    basis = [0] * m
    s_at = nvar
    a_at = nvar + nslack
    si = 0
    for r, (a, rel, b) in enumerate(norm_rows):
        tab[r, :nvar] = a
        tab[r, -1] = b
        if rel == "<=":
            tab[r, s_at + si] = 1.0
            si += 1
        elif rel == ">=":
            tab[r, s_at + si] = -1.0
            si += 1
        tab[r, a_at + r] = 1.0
        basis[r] = a_at + r
    max_iter = 2000 + 200 * (m + total)

    # Phase 1: minimise the sum of artificials.
    tab[-1, a_at:a_at + m] = 1.0
    for r in range(m):
        tab[-1] -= tab[r]
    try:
        pivots = _bland_loop(tab, basis, max_iter)
    except _Unbounded:
        raise NumericError("phase-1 objective unbounded; malformed program")
    if tab[-1, -1] < -1e-7:
        return LPSolution(status="infeasible", value=float("nan"),
                          assignment=np.full(nvar, np.nan), pivots=pivots)

    # Clear leftover artificials from the basis (degenerate rows).
    drop_rows = []
    for r in range(m):
        if basis[r] >= a_at:
            sub = tab[r, :a_at]
            cols = np.where(np.abs(sub) > 1e-9)[0]
            if cols.size:
                _pivot(tab, basis, r, int(cols[0]))
                pivots += 1
            else:
                drop_rows.append(r)
    if drop_rows:
        keep = [r for r in range(m) if r not in drop_rows]
        tab = tab[keep + [m]]
        basis = [basis[r] for r in keep]
        m = len(keep)

    # Phase 2 on the original objective (maximise c => minimise -c).
    tab = np.delete(tab, np.s_[a_at:a_at + len(norm_rows)], axis=1)
    tab[-1] = 0.0
    tab[-1, :nvar] = -c
    for r in range(m):
        bv = basis[r]
        if tab[-1, bv] != 0.0:
            tab[-1] -= tab[-1, bv] * tab[r]
    try:
        pivots += _bland_loop(tab, basis, max_iter)
    except _Unbounded as exc:
        return LPSolution(status="unbounded", value=float("inf"),
                          assignment=np.full(nvar, np.nan),
                          pivots=pivots + exc.args[0])

    xstd = np.zeros(nvar + nslack)
    for r in range(m):
        if basis[r] < xstd.size:
            xstd[basis[r]] = tab[r, -1]
    x = xstd[:nvar]
    value = float(c @ x)

    for coeffs, rel, bnd in lp.constraints:
        lhs = float(coeffs @ x)
        bad = ((rel == "<=" and lhs > bnd + FEAS_TOL)
               or (rel == ">=" and lhs < bnd - FEAS_TOL)
               or (rel == "=" and abs(lhs - bnd) > FEAS_TOL))
        if bad:
            raise NumericError(
                f"optimal point violates a constraint by {abs(lhs - bnd):.2e}")
    return LPSolution(status="optimal", value=value, assignment=x, pivots=pivots)


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


def local_max(q: BoundQuery) -> LPSolution:
    """Exact maximum of the noisy Hardy probability over local behaviors.

    Posed over vertex weights: maximise sum_v w_v p_v subject to the n+1
    error constraints and sum_v w_v = 1, w >= 0.
    """
    if q.n not in (2, 3):
        raise ValidationError("the noisy local bound is posed for n in {2, 3}")
    p, zs = hardy_values(_vertex_table(q.n).reshape((4 ** q.n,) + (2,) * (2 * q.n)), q.n)
    lp = LinearProgram(objective=p)
    for row in zs.T:
        lp.add(row, "<=", q.epsilon)
    lp.add(np.ones(len(p)), "=", 1.0)
    return lp_solve(lp)


def nosignaling_max(q: BoundQuery) -> LPSolution:
    """Maximum of the noisy Hardy probability over no-signaling behaviors.

    Variables are the full behavior table; constraints are positivity,
    per-setting normalisation, the per-party no-signaling equalities and
    the n+1 error constraints.
    """
    if q.n not in (2, 3):
        raise ValidationError("the no-signaling bound is posed for n in {2, 3}")
    n = q.n
    shape = (2,) * (2 * n)
    unit = np.eye(4 ** n).reshape((4 ** n,) + shape)  # unit[k] is 1 at entry k only
    p, zs = hardy_values(unit, n)
    lp = LinearProgram(objective=p)

    for row in unit.sum(axis=tuple(range(n + 1, 2 * n + 1))).reshape(4 ** n, -1).T:
        lp.add(row, "=", 1.0)
    for gap in signaling_gaps(unit, n):
        for row in gap.reshape(4 ** n, -1).T:
            lp.add(row, "=", 0.0)

    for row in zs.T:
        lp.add(row, "<=", q.epsilon)

    sol = lp_solve(lp)
    if sol.status == "optimal":
        behavior = BehaviorTensor(Scenario(n), np.clip(sol.assignment, 0.0, None).reshape(shape))
        gap = check_no_signaling(behavior)
        if gap > 1e-8:
            raise NumericError(f"no-signaling LP solution signals by {gap:.2e}")
    return sol
