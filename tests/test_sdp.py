from dataclasses import replace

import numpy as np
import pytest

from hardylab.behavior import Scenario
from hardylab.errors import NumericError, ValidationError
from hardylab.linalg import eig_sym
from hardylab.npa import (build_moment_problem, hardy_moment_vector,
                          identity_monomial, interior_moment_vector)
from hardylab.npa import MomentProblem
from hardylab.sdp import (_Compiled, _cholesky, _chol_solve, _solve_lower,
                          sdp_solve)


def toy_problem(equalities=None, inequalities=None, objective=None):
    """2x2 moment matrix [[1, y], [y, 1]] with variables (id, y)."""
    ident = identity_monomial(2)
    yname = ((0,), ())
    return MomentProblem(
        scenario=Scenario(2), level=1, epsilon=0.0,
        basis=[ident, yname],
        moment_index={ident: 0, yname: 1},
        variables=[ident, yname],
        cell_var=np.array([[0, 1], [1, 0]], dtype=np.int32),
        objective=objective if objective is not None else {1: 1.0},
        equalities=equalities if equalities is not None else [({0: 1.0}, 1.0)],
        inequalities=inequalities if inequalities is not None else [],
    )


def forward_substitution(low, b):
    """Reference row-by-row forward substitution for low x = b."""
    x = np.array(b, dtype=float)
    for i in range(low.shape[0]):
        x[i] = (x[i] - low[i, :i] @ x[:i]) / low[i, i]
    return x


class TestCholesky:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = rng.standard_normal((8, 8))
            a = g @ g.T + 8 * np.eye(8)
            low = _cholesky(a)
            assert np.array_equal(low, np.tril(low))
            assert np.allclose(low @ low.T, a, atol=1e-10)
            b = rng.standard_normal(8)
            assert np.allclose(a @ _chol_solve(low, b), b, atol=1e-8)
            block = rng.standard_normal((8, 3))
            assert np.allclose(a @ _chol_solve(low, block), block, atol=1e-8)

    def test_solve_lower_is_substitution(self):
        # cross-check against a plain forward-substitution loop
        rng = np.random.default_rng(1)
        g = rng.standard_normal((12, 12))
        low = _cholesky(g @ g.T + np.eye(12))
        b = rng.standard_normal((12, 2))
        ref = forward_substitution(low, b)
        assert np.allclose(_solve_lower(low, b), ref, rtol=1e-12, atol=0.0)
        assert np.allclose(_solve_lower(low, b[:, 0]), ref[:, 0],
                           rtol=1e-12, atol=0.0)

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


class TestCompiled:
    @pytest.mark.parametrize("case", ["toy", (2, 2), (3, 2)])
    def test_barrier_hessian_matches_dense_trace(self, case):
        # cross-check: brute-force Tr(P E_k P E_l) from dense E_k
        problem = (toy_problem() if case == "toy"
                   else build_moment_problem(Scenario(case[0]), case[1], 0.02))
        rng = np.random.default_rng(7)
        nb = problem.n_basis
        g = rng.standard_normal((nb, nb))
        p = g @ g.T / nb + 0.5 * np.eye(nb)
        e = dense_cell_matrices(problem)
        pep = np.einsum("ab,kbc,cd->kad", p, e, p)
        ref = np.einsum("kad,lda->kl", pep, e)
        h = _Compiled(problem).barrier_hessian(p)
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_trace_by_var_matches_dense_trace(self):
        problem = build_moment_problem(Scenario(3), 2, 0.02)
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


class TestToyProblems:
    def test_psd_boundary(self):
        sol = sdp_solve(toy_problem(), tol=1e-6)
        assert sol.converged
        assert abs(sol.value - 1.0) < 1e-6

    def test_equality_pinned(self):
        sol = sdp_solve(toy_problem(
            equalities=[({0: 1.0}, 1.0), ({1: 1.0}, 0.3)]), tol=1e-6)
        assert sol.converged
        assert abs(sol.value - 0.3) < 1e-9

    def test_inequality(self):
        sol = sdp_solve(toy_problem(
            inequalities=[({1: 1.0}, 0.5)]), tol=1e-6)
        assert sol.converged
        assert abs(sol.value - 0.5) < 1e-6

    def test_minimisation_direction(self):
        sol = sdp_solve(toy_problem(objective={1: -1.0}), tol=1e-6)
        assert abs(sol.value - 1.0) < 1e-6  # -y maximised at y = -1

    def test_nonconverged_status(self):
        sol = sdp_solve(toy_problem(), tol=1e-6, max_iter=1)
        assert not sol.converged
        assert sol.iterations == 1


class TestHardyProblems:
    def test_feasibility_audit(self):
        # returned moments reshape into a near-PSD matrix and respect the
        # error constraints; the Jacobi eigensolver cross-checks the
        # solver's own LAPACK audit
        p = build_moment_problem(Scenario(2), 2, 0.02)
        lam = 2.0 * 0.02
        start = ((1 - lam) * hardy_moment_vector(p)
                 + lam * interior_moment_vector(p))
        sol = sdp_solve(p, tol=1e-6, start=start)
        assert sol.converged
        comp = _Compiled(p)
        audit = eig_sym(comp.mat(sol.moments), tol=1e-8)
        assert audit.eigenvalues[0] >= -1e-6
        assert abs(sol.psd_residual - max(0.0, -audit.eigenvalues[0])) <= 1e-10
        for row, rhs in p.inequalities:
            lhs = sum(c * sol.moments[k] for k, c in row.items())
            assert lhs <= rhs + 1e-6
        assert abs(sol.moments[p.identity_var] - 1.0) < 1e-12
        assert sol.psd_residual <= 1e-6
        assert sol.affine_residual <= 1e-6

    def test_requires_interior_start_at_zero_eps(self):
        p = build_moment_problem(Scenario(2), 2, 0.0)
        bad = hardy_moment_vector(p)  # on the boundary, not interior
        with pytest.raises(NumericError):
            sdp_solve(p, tol=1e-6, start=bad, slack_shift=0.0)
