import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eig_certificate import certified_error
from full_moment import build_full_problem

from hardylab import sdp
from hardylab.errors import NumericError, ValidationError
from hardylab.linalg import eig_herm
from hardylab.npa import MomentProblem, build_moment_problem, npa_upper_bound
from hardylab.sdp import (DEFAULT_SHIFT, DUAL_RESIDUAL, _Compiled, _cholesky,
                          sdp_solve)

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text())


def toy_problem(g=(), epsilon=0.0, c=(0.0, 1.0)):
    """2x2 moment matrix [[1, y], [y, 1]] with variables (id, y), rows
    ``g`` on (id, y) bounded by ``epsilon`` and objective ``c``."""
    ident = ((), ())
    yname = ((0,), ())
    return MomentProblem(
        epsilon=epsilon,
        basis=[ident, yname],
        variables=[ident, yname],
        cell_var=np.array([[0, 1], [1, 0]], dtype=np.int32),
        c=np.array(c), g=np.array(g, dtype=float).reshape(-1, 2),
    )


def test_toy_problem_has_two_parties():
    # the party count is read off the basis, whose monomials have two words
    assert toy_problem().n == 2


class TestCholesky:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = rng.standard_normal((8, 8))
            a = g @ g.T + 8 * np.eye(8)
            low = _cholesky(a)
            assert np.array_equal(low, np.tril(low))
            assert np.allclose(low @ low.T, a, atol=1e-10)
            # the solve of sdp_solve's directions: a^{-1} = L^{-T} L^{-1}
            inv_low = np.linalg.inv(low)
            b = rng.standard_normal(8)
            assert np.allclose(a @ (inv_low.T @ (inv_low @ b)), b, atol=1e-8)

    def test_rejects_indefinite(self):
        assert _cholesky(np.diag([1.0, -1.0])) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # numpy.linalg.cholesky returns NaNs here instead of raising
        a = np.eye(3)
        a[1, 0] = a[0, 1] = bad
        assert _cholesky(a) is None
        a = np.eye(3)
        a[2, 2] = bad
        assert _cholesky(a) is None


def dense_cell_matrices(problem):
    """E_k as dense 0/1 matrices, one per moment variable."""
    return np.stack([(problem.cell_var == k).astype(float)
                     for k in range(problem.n_vars)])


def random_spd(rng, nb, shift):
    g = rng.standard_normal((nb, nb))
    return g @ g.T / nb + shift * np.eye(nb)


def dense_schur(e, x, w):
    """Brute-force Tr(E_k X E_l W) from dense E_k."""
    xew = np.einsum("ab,lbc,cd->lad", x, e, w, optimize=True)
    return np.einsum("kda,lad->kl", e, xew, optimize=True)


def problem_case(case):
    """The toy problem, a full problem (trivial shift group) or an orbit
    problem (n shifts)."""
    if case == "toy":
        return toy_problem()
    if case == "full":
        return build_full_problem(3, 2, 0.02)
    return build_moment_problem(case[0], case[1], 0.02)


def invariant_spd(rng, comp, shift):
    """Random SPD matrix averaged over the problem's shifts."""
    return comp.average(random_spd(rng, comp.nb, shift))


CASES = ["toy", (2, 2), (3, 2), "full", (3, 3), (4, 2)]


class TestCompiled:
    @pytest.mark.parametrize("case,order", [
        ("toy", 1), ("full", 1), ((2, 2), 2), ((3, 2), 3), ((3, 3), 3), ((4, 2), 4)])
    def test_shift_group(self, case, order):
        problem = problem_case(case)
        comp = _Compiled(problem)
        assert comp.shifts.shape == (order, problem.n_basis)
        for perm in comp.shifts:
            assert np.array_equal(problem.cell_var[np.ix_(perm, perm)], problem.cell_var)
        # each cell is counted once, by its orbit's representative
        assert comp.weight_sorted.sum() == problem.n_basis ** 2
        # breaking the invariance of one cell pair (kept symmetric) leaves
        # the identity alone
        if order > 1:
            cell_var = problem.cell_var.copy()
            k = np.bincount(cell_var.ravel()).argmax()
            assert k != 0
            i, j = np.argwhere(cell_var == k)[0]
            cell_var[i, j] = cell_var[j, i] = 0
            assert _Compiled(replace(problem, cell_var=cell_var)).shifts.shape[0] == 1

    @pytest.mark.parametrize("case", CASES)
    def test_barrier_hessian_matches_dense_trace(self, case):
        # with X = W = P the kernel is the log-det Hessian Tr(P E_k P E_l)
        problem = problem_case(case)
        comp = _Compiled(problem)
        rng = np.random.default_rng(7)
        p = invariant_spd(rng, comp, 0.5)
        e = dense_cell_matrices(problem)
        pep = np.einsum("ab,kbc,cd->kad", p, e, p, optimize=True)
        ref = np.einsum("kad,lda->kl", pep, e, optimize=True)
        h = comp.schur_matrix(p, p)
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("case", CASES)
    def test_schur_matrix_matches_dense_trace(self, case):
        problem = problem_case(case)
        comp = _Compiled(problem)
        rng = np.random.default_rng(17)
        x, w = invariant_spd(rng, comp, 0.5), invariant_spd(rng, comp, 0.1)
        e = dense_cell_matrices(problem)
        ref = dense_schur(e, x, w)
        h = comp.schur_matrix(x, w)
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))
        # a kernel that read one matrix twice would fail the check above
        for one in (x, w):
            assert np.max(np.abs(dense_schur(e, one, one) - ref)) > 1e-3 * np.max(np.abs(ref))
        # Tr(E_k X E_l W) = Tr(E_l X E_k W) (cyclic trace, symmetric inputs),
        # so H is symmetric and exchanging X and W leaves it unchanged
        assert np.max(np.abs(ref - ref.T)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.abs(comp.schur_matrix(w, x) - h)) <= 1e-12 * np.max(np.abs(ref))

    def test_average_is_invariant_projection(self):
        problem = problem_case((3, 3))
        comp = _Compiled(problem)
        rng = np.random.default_rng(19)
        x = random_spd(rng, comp.nb, 0.5)
        avg = comp.average(x)
        # invariant, idempotent, and Tr(X Z) is unchanged for invariant Z
        for perm in comp.shifts:
            assert np.allclose(avg[np.ix_(perm, perm)], avg, rtol=0, atol=1e-15)
        assert np.allclose(comp.average(avg), avg, rtol=0, atol=1e-15)
        z = invariant_spd(rng, comp, 0.1)
        assert abs(np.sum(avg * z) - np.sum(x * z)) <= 1e-12 * abs(np.sum(x * z))
        assert np.linalg.eigvalsh(avg)[0] >= np.linalg.eigvalsh(x)[0] - 1e-12
        # the representative kernel needs invariant input
        e = dense_cell_matrices(problem)
        assert np.max(np.abs(comp.schur_matrix(x, x) - dense_schur(e, x, x))) > 1e-6

    def test_trace_by_var_matches_dense_trace(self):
        problem = build_moment_problem(3, 2, 0.02)
        rng = np.random.default_rng(8)
        g = rng.standard_normal((problem.n_basis, problem.n_basis))
        p = g @ g.T
        ref = np.einsum("ab,kba->k", p, dense_cell_matrices(problem))
        got = _Compiled(problem).trace_by_var(p)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("cell_var, message", [
        ([[0, 1], [0, 1]], "symmetric"),        # cells (0, 1), (1, 0) disagree
        ([[0, 1, 0], [1, 0, 1]], "symmetric"),  # not square
        ([[0, 1], [1, 2]], "lie in"),           # variable 2 does not exist
        ([[0, -1], [-1, 1]], "lie in"),
    ])
    def test_rejects_malformed_cell_var(self, cell_var, message):
        problem = replace(toy_problem(),
                          cell_var=np.array(cell_var, dtype=np.int32))
        with pytest.raises(ValidationError, match=message):
            _Compiled(problem)
        with pytest.raises(ValidationError, match=message):
            sdp_solve(problem)

    @pytest.mark.parametrize("field, value", [
        ("epsilon", np.nan), ("epsilon", np.inf),
        ("c", np.array([0.0, np.nan])), ("g", np.array([[np.inf, 1.0]])),
    ])
    def test_rejects_non_finite_data(self, field, value):
        # unchecked, a NaN epsilon ends the solve with a nan value, stopped by
        # "X or Z factor"
        problem = replace(toy_problem(g=[[0.0, 1.0]]), **{field: value})
        with pytest.raises(ValidationError, match="must be finite"):
            _Compiled(problem)
        with pytest.raises(ValidationError, match="must be finite"):
            sdp_solve(problem)

    @pytest.mark.parametrize("variables", [
        [((0,), ()), ((), ())],               # identity second
        [((0,), ()), ((1,), ())],             # no identity at all
    ])
    def test_rejects_variable_zero_not_identity(self, variables):
        # the solver pins variable 0 to 1, so it must be the identity moment
        problem = replace(toy_problem(), variables=variables)
        with pytest.raises(ValidationError, match="identity"):
            _Compiled(problem)


class TestToyProblems:
    def test_psd_boundary(self):
        sol = sdp_solve(toy_problem())
        assert sol.converged
        assert abs(sol.value - 1.0) < 1e-6

    def test_inequality(self):
        sol = sdp_solve(toy_problem(g=[[0.0, 1.0]], epsilon=0.5))
        assert sol.converged
        assert abs(sol.value - 0.5) < 1e-6

    def test_minimisation_direction(self):
        sol = sdp_solve(toy_problem(c=[0.0, -1.0]))
        assert abs(sol.value - 1.0) < 1e-6  # -y maximised at y = -1

    def test_identity_moment_pinned_exactly(self):
        for problem in (toy_problem(), build_moment_problem(3, 2, 0.05)):
            sol = sdp_solve(problem)
            assert sol.converged and sol.stopped_by == "stopping rule"
            assert sol.moments[0] == 1.0

    def test_nonconverged_status(self, monkeypatch):
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 1)
        sol = sdp_solve(toy_problem())
        assert not sol.converged
        assert sol.iterations == 1


class TestStoppedBy:
    """``stopped_by`` names the exit, and ``npa_upper_bound`` reports it."""

    def assert_reported(self, stopped_by, iterations):
        sol = sdp_solve(build_moment_problem(3, 2, 0.05))
        assert not sol.converged
        assert (sol.stopped_by, sol.iterations) == (stopped_by, iterations)
        with pytest.raises(NumericError, match=f"after {iterations} iterations "
                           f"\\(stopped by {stopped_by};"):
            npa_upper_bound(3, 2, 0.05)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITER", 1)
        self.assert_reported("iteration cap", 1)

    def test_schur_factor(self, monkeypatch):
        # a NaN Schur matrix fails the Cholesky factor at every jitter
        monkeypatch.setattr(_Compiled, "schur_matrix",
                            lambda self, x, w: np.full((self.nv, self.nv), np.nan))
        self.assert_reported("Schur factor", 1)

    def test_x_or_z_factor(self, monkeypatch):
        # X starts negative definite
        monkeypatch.setattr(sdp, "START_SCALE", -1.0)
        self.assert_reported("X or Z factor", 0)


def reference_cases():
    """The benchmark's moment jobs and the scan's level-2 points."""
    jobs = [(j["n"], j["level"], j["epsilon"], j["value"])
            for j in REFERENCE["moment"]["jobs"]]
    scan = REFERENCE["scan"]
    steps, eps_to = scan["config"]["steps"], scan["config"]["eps_to"]
    for k, row in enumerate(scan["rows"].values()):
        # the scan's grid formula, so the epsilon is bit-identical
        jobs.append((3, scan["config"]["level"], k * eps_to / (steps - 1),
                     row["npa_upper"][0]))
    return jobs


class TestHardyProblems:
    def test_feasibility_audit(self):
        # returned moments reshape into a near-PSD matrix and respect the
        # error constraints; a residual-certified eigendecomposition
        # cross-checks the solver's own eigenvalue-only audit
        p = build_full_problem(2, 2, 0.02)
        sol = sdp_solve(p)
        assert sol.converged
        mat = _Compiled(p).mat(sol.moments)
        vals, vecs = eig_herm(mat, tol=1e-8)
        bound = certified_error(mat, vals, vecs)
        assert vals[0] >= -1e-6
        assert abs(sol.psd_residual - max(0.0, -vals[0])) <= 1e-10 + bound
        for row in p.g:
            lhs = sum(c * sol.moments[k] for k, c in enumerate(row))
            assert lhs <= p.epsilon + 1e-6
        assert abs(sol.moments[0] - 1.0) < 1e-12
        assert sol.psd_residual <= 1e-6
        assert sol.affine_residual <= 1e-6
        assert 0.0 < sol.gap <= 1e-7

    @pytest.mark.parametrize("n,level", [(2, 2), (3, 3), (4, 2)])
    def test_feasible_without_start(self, n, level):
        # eps = 0: the unshifted problem has an empty interior, and the
        # solver starts from no feasible point at all
        p = build_moment_problem(n, level, 0.0)
        sol = sdp_solve(p)
        assert sol.converged
        assert sol.psd_residual <= 1e-9
        mat = _Compiled(p).mat(sol.moments)
        vals, vecs = eig_herm(mat, tol=1e-12)
        bound = certified_error(mat, vals, vecs)
        assert vals[0] >= -1e-9
        assert abs(sol.psd_residual - max(0.0, -vals[0])) <= 1e-10 + bound
        # feasible for the shifted rows up to the dual residual of the
        # stopping rule
        for row in p.g:
            lhs = sum(c * sol.moments[k] for k, c in enumerate(row))
            assert lhs <= p.epsilon + DEFAULT_SHIFT + DUAL_RESIDUAL
        assert abs(sol.moments[0] - 1.0) <= 1e-12

    @pytest.mark.parametrize("n,level,eps,ref", reference_cases(),
                             ids=lambda v: f"{v:.4g}" if isinstance(v, float) else str(v))
    def test_reference_values_pinned(self, n, level, eps, ref):
        p = build_moment_problem(n, level, eps)
        sol = sdp_solve(p)
        assert sol.converged
        assert abs(sol.value - ref) <= 2e-7
        assert sol.iterations <= 60
        again = sdp_solve(p)
        assert again.iterations == sol.iterations
        assert again.value == sol.value
