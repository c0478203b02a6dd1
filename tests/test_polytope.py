from itertools import combinations, product

import numpy as np
import pytest

from dense_hardy import hardy_functionals
from hardylab import polytope
from hardylab.behavior import (BehaviorTensor, check_no_signaling,
                               hardy_statistics, hardy_values)
from hardylab.errors import NumericError, ValidationError
from hardylab.polytope import (LPSolution, _pivot, _vertex_table,
                               local_max, lp_solve, nosignaling_max)

# First verified value of the tripartite no-signaling maximum at eps = 0
# (cross-checked against an independent LP solver when frozen).
NS_TRIPARTITE_EPS0 = 1.0 / 3.0


def ub_only(c, a_ub, b_ub):
    """``lp_solve`` on a program without equality rows."""
    c = np.asarray(c, dtype=float)
    return lp_solve(c, np.zeros((0, c.size)), [], a_ub, b_ub)


class TestLpSolve:
    def test_single_variable(self):
        sol = ub_only([1.0], [[1.0]], [3.0])
        assert abs(sol.value - 3.0) < 1e-12

    def test_two_variables(self):
        sol = ub_only([1.0, 1.0], [[1.0, 1.0]], [1.0])
        assert abs(sol.value - 1.0) < 1e-12

    def test_infeasible(self):
        # max x st x = 1, x <= 0.5: x enters in phase 1, and the equality
        # row's artificial stays basic at 0.5
        want = r"^phase 1: program infeasible after 1 pivots \(artificial sum 5.00e-01\)$"
        with pytest.raises(NumericError, match=want):
            lp_solve([1.0], [[1.0]], [1.0], [[1.0]], [0.5])

    def test_unbounded(self):
        # max x st y <= 1: y enters in phase 1, x has no ratio in phase 2
        with pytest.raises(NumericError,
                           match="^phase 2: objective unbounded after 0 pivots$"):
            ub_only([1.0, 0.0], [[0.0, 1.0]], [1.0])

    def test_equalities_and_bounds(self):
        # max x + 2y st x + y = 1, y <= 0.4
        sol = lp_solve([1.0, 2.0], [[1.0, 1.0]], [1.0], [[0.0, 1.0]], [0.4])
        assert abs(sol.value - 1.4) < 1e-12
        assert np.allclose(sol.assignment, [0.6, 0.4], atol=1e-12)

    @pytest.mark.parametrize("b_eq,b_ub", [([-1.0], [0.5]), ([1.0], [-0.5]),
                                           ([np.nan], [0.5])])
    def test_rejects_negative_right_hand_side(self, b_eq, b_ub):
        # without the check the artificials would start infeasible, and the
        # simplex would answer without an error
        with pytest.raises(ValidationError, match="nonnegative"):
            lp_solve([1.0], [[1.0]], b_eq, [[1.0]], b_ub)

    @pytest.mark.parametrize("a_eq,b_eq,a_ub,b_ub", [
        ([[1.0, 1.0]], [1.0], [[1.0]], [0.5]),    # equality row too wide
        ([[1.0]], [1.0], [[1.0, 0.0]], [0.5]),    # inequality row too wide
        ([1.0], [1.0], [[1.0]], [0.5]),           # a row, not a matrix
        ([[1.0]], [1.0, 2.0], [[1.0]], [0.5]),    # more bounds than rows
    ])
    def test_rejects_mismatched_rows(self, a_eq, b_eq, a_ub, b_ub):
        with pytest.raises(ValidationError, match="entries"):
            lp_solve([1.0], a_eq, b_eq, a_ub, b_ub)

    def test_against_scipy_on_random_problems(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(21)
        for _ in range(25):
            nv, nc = rng.integers(2, 7), rng.integers(1, 6)
            c = rng.standard_normal(nv)
            a = rng.standard_normal((nc, nv))
            b = rng.uniform(0.5, 2.0, nc)
            # x_i <= 1 as the last rows
            sol = ub_only(c, np.vstack((a, np.eye(nv))), np.concatenate((b, np.ones(nv))))
            ref = scipy_opt.linprog(-c, A_ub=a, b_ub=b, bounds=[(0, 1)] * nv,
                                    method="highs")
            assert ref.status == 0
            assert abs(sol.value - (-ref.fun)) < 1e-9


def row_loop_pivot(tab, basis, row, col):
    """Cross-check for ``polytope._pivot``: the same elimination, one
    Python-level row update at a time."""
    tab[row] /= tab[row, col]
    piv = tab[row]
    for r in range(tab.shape[0]):
        if r != row and abs(tab[r, col]) > 1e-13:
            tab[r] -= tab[r, col] * piv
    basis[row] = col


def vertex_loop(n):
    """Cross-check for ``polytope._vertex_table``: each deterministic
    behavior as an outer product of per-party 0/1 tables, one at a time."""
    vertices = []
    for strat in product(product((0, 1), repeat=2), repeat=n):
        probs = np.ones(())
        for out_u, out_d in strat:
            t = np.zeros((2, 2))
            t[0, out_u] = t[1, out_d] = 1.0
            probs = np.multiply.outer(probs, t)
        # axes (s1, o1, s2, o2, ...): regroup settings first
        vertices.append(probs.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))))
    return vertices


def vertex_loop_local_max(n, epsilon):
    """Cross-check for ``local_max``: the same LP, its rows evaluated one
    vertex at a time."""
    vertices = vertex_loop(n)
    p_coeff, zs = hardy_functionals(n)
    c = np.array([float(p_coeff.reshape(-1) @ v.reshape(-1)) for v in vertices])
    a_ub = np.array([[float(z.reshape(-1) @ v.reshape(-1)) for v in vertices]
                     for z in zs])
    return lp_solve(c, np.ones((1, len(vertices))), [1.0], a_ub,
                    np.full(len(zs), epsilon))


def redundant_nosignaling_max(n, epsilon):
    """Cross-check for ``nosignaling_max``: the same LP with the marginal
    equalities of every party subset against every pair of complement
    settings, the row family the package posed before the per-party rows."""
    shape = (2,) * (2 * n)
    p_coeff, zs = hardy_functionals(n)
    a_eq, b_eq = [], []
    for settings in product((0, 1), repeat=n):
        coeff = np.zeros(shape)
        coeff[settings] = 1.0
        a_eq.append(coeff.reshape(-1))
        b_eq.append(1.0)
    for mask in range(1, 2 ** n - 1):
        keep = [i for i in range(n) if (mask >> i) & 1]
        drop = [i for i in range(n) if not (mask >> i) & 1]
        for s_keep in product((0, 1), repeat=len(keep)):
            for o_keep in product((0, 1), repeat=len(keep)):
                rows = []
                for s_drop in product((0, 1), repeat=len(drop)):
                    coeff = np.zeros(shape)
                    sel = [0] * n + [slice(None)] * n
                    for i, s in zip(keep, s_keep):
                        sel[i] = s
                    for i, s in zip(drop, s_drop):
                        sel[i] = s
                    for i, o in zip(keep, o_keep):
                        sel[n + i] = o
                    coeff[tuple(sel)] = 1.0
                    rows.append(coeff.reshape(-1))
                for a, b in combinations(range(len(rows)), 2):
                    a_eq.append(rows[a] - rows[b])
                    b_eq.append(0.0)
    a_ub = np.array([z.reshape(-1) for z in zs])
    return lp_solve(p_coeff.reshape(-1), np.array(a_eq), b_eq, a_ub,
                    np.full(len(zs), epsilon))


class TestPivot:
    def test_matches_row_loop_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m, k = rng.integers(2, 12), rng.integers(2, 20)
            tab = rng.standard_normal((m, k))
            # entries at and around the elimination threshold
            tab[rng.random((m, k)) < 0.3] = 0.0
            tab[rng.random((m, k)) < 0.1] = 1e-13 * rng.choice([-2.0, -1.0, 0.5, 1.0], 1)
            row, col = int(rng.integers(m)), int(rng.integers(k))
            tab[row, col] = rng.uniform(0.5, 2.0)
            a, b = tab.copy(), tab.copy()
            basis_a, basis_b = list(range(m)), list(range(m))
            _pivot(a, basis_a, row, col)
            row_loop_pivot(b, basis_b, row, col)
            assert np.array_equal(a, b)
            assert basis_a == basis_b

    @pytest.mark.parametrize("n", [2, 3])
    def test_bounds_match_row_loop_bit_for_bit(self, n, monkeypatch):
        grid = (0.0, 0.013, 0.05, 1.0 / 12.0, 1.0 / 6.0, 0.2, 0.25)
        solve = (local_max, nosignaling_max)
        fast = [f(n, eps) for eps in grid for f in solve]
        monkeypatch.setattr(polytope, "_pivot", row_loop_pivot)
        slow = [f(n, eps) for eps in grid for f in solve]
        for a, b in zip(fast, slow):
            assert a.value == b.value
            assert np.array_equal(a.assignment, b.assignment)
            assert a.pivots == b.pivots > 0


    @pytest.mark.parametrize("n", [2, 3])
    def test_local_max_matches_vertex_loop_bit_for_bit(self, n):
        for eps in (0.0, 0.013, 0.05, 1.0 / 12.0, 1.0 / 6.0, 0.2, 0.25):
            a = local_max(n, eps)
            b = vertex_loop_local_max(n, eps)
            assert a.value == b.value
            assert np.array_equal(a.assignment, b.assignment)
            assert a.pivots == b.pivots > 0


class TestPivotCount:
    def test_counts_every_pivot(self, monkeypatch):
        calls = []

        def counting_pivot(*args):
            calls.append(args[2:])
            row_loop_pivot(*args)

        monkeypatch.setattr(polytope, "_pivot", counting_pivot)
        for f in (local_max, nosignaling_max):
            calls.clear()
            sol = f(3, 0.05)
            assert sol.pivots == len(calls) > 0

    def test_every_status_reports_pivots(self):
        # max x st x <= 3: x replaces the artificial in phase 1, which
        # leaves phase 2 optimal at once; the infeasible and unbounded
        # programs name their pivot counts in TestLpSolve's messages
        sol = ub_only([1.0], [[1.0]], [3.0])
        assert sol.pivots == 1


def vertex_behaviors(n):
    """The rows of ``polytope._vertex_table(n)`` as behavior tables."""
    return [BehaviorTensor(row.reshape((2,) * (2 * n)))
            for row in _vertex_table(n)]


class TestDeterministicVertices:
    def test_counts(self):
        assert len(_vertex_table(2)) == 16
        assert len(_vertex_table(3)) == 64

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_table_matches_vertex_loop(self, n):
        got = _vertex_table(n)
        want = vertex_loop(n)
        assert len(got) == len(want) == 4 ** n
        for row, w in zip(got, want):
            assert np.array_equal(row.reshape(w.shape), w)

    def test_vertices_are_no_signaling(self):
        for v in vertex_behaviors(2):
            assert check_no_signaling(v) == 0.0

    def test_local_bound_inequality_on_mixtures(self):
        # every local behavior obeys p <= z_1 + ... + z_{n+1}
        rng = np.random.default_rng(3)
        vertices = vertex_behaviors(3)
        for _ in range(20):
            w = rng.dirichlet(np.ones(len(vertices)))
            probs = sum(wi * v.probs for wi, v in zip(w, vertices))
            p, zeros = hardy_statistics(BehaviorTensor(probs))
            assert p <= zeros.sum() + 1e-10


class TestLocalMax:
    def test_zero_epsilon(self):
        assert abs(local_max(3, 0.0).value) < 1e-9

    def test_four_epsilon(self):
        sol = local_max(3, 0.05)
        assert abs(sol.value - 0.2) < 1e-9

    def test_saturation(self):
        assert abs(local_max(3, 0.30).value - 1.0) < 1e-9

    def test_matches_min_4eps_on_grid(self):
        for eps in np.arange(0.0, 0.301, 0.01):
            sol = local_max(3, float(eps))
            assert abs(sol.value - min(4.0 * eps, 1.0)) < 1e-9

    def test_explicit_witness_mixture(self):
        # four strategies each violating exactly one constraint, weight eps
        # apiece, remainder on a silent strategy: p = 4 eps is feasible.
        eps = 0.07
        vertices = vertex_behaviors(3)
        p_target = []
        for v in vertices:
            p, zeros = hardy_statistics(v)
            if p == 1.0 and abs(zeros.sum() - 1.0) < 1e-12:
                p_target.append(v)
        assert len(p_target) == 4
        silent = None
        for v in vertices:
            p, zeros = hardy_statistics(v)
            if p == 0.0 and zeros.sum() == 0.0:
                silent = v
                break
        probs = (1 - 4 * eps) * silent.probs + eps * sum(v.probs for v in p_target)
        p, zeros = hardy_statistics(BehaviorTensor(probs))
        assert abs(p - 4 * eps) < 1e-12
        assert np.all(zeros <= eps + 1e-12)

    def test_rejects_unsupported_n(self):
        with pytest.raises(ValidationError):
            local_max(4, 0.1)


class TestNoSignalingMax:
    def test_eps0_golden_and_sandwich(self):
        sol = nosignaling_max(3, 0.0)
        assert 0.0181940 <= sol.value <= 1.0
        assert abs(sol.value - NS_TRIPARTITE_EPS0) < 1e-9

    def test_bipartite_literature_value(self):
        sol = nosignaling_max(2, 0.0)
        assert abs(sol.value - 0.5) < 1e-9

    def test_quarter_epsilon_saturates(self):
        assert abs(nosignaling_max(3, 0.25).value - 1.0) < 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_redundant_row_family(self, n):
        for eps in np.linspace(0.0, 0.3, 31):
            got, want = nosignaling_max(n, eps), redundant_nosignaling_max(n, eps)
            assert abs(got.value - want.value) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3])
    def test_rows_match_marginal_differences(self, n, monkeypatch):
        # Oracle: the rows as built before they came from
        # behavior.signaling_gaps, party i's outcome summed out of the unit
        # batch and its two settings subtracted
        posed = []

        def recording_solve(*lp):
            posed.append(lp)
            return lp_solve(*lp)

        monkeypatch.setattr(polytope, "lp_solve", recording_solve)
        nosignaling_max(n, 0.05)
        unit = np.eye(4 ** n).reshape((4 ** n,) + (2,) * (2 * n))
        p, zs = hardy_values(unit, n)
        want_eq = [(row, 1.0) for row in
                   unit.sum(axis=tuple(range(n + 1, 2 * n + 1))).reshape(4 ** n, -1).T]
        for i in range(n):
            marg = unit.sum(axis=n + 1 + i)
            gaps = marg.take(0, axis=1 + i) - marg.take(1, axis=1 + i)
            want_eq += [(row, 0.0) for row in gaps.reshape(4 ** n, -1).T]
        want_ub = [(row, 0.05) for row in zs.T]
        ((c, a_eq, b_eq, a_ub, b_ub),) = posed
        assert np.array_equal(c, p)
        for rows, rhs, want in ((a_eq, b_eq, want_eq), (a_ub, b_ub, want_ub)):
            assert len(rows) == len(rhs) == len(want)
            for got_row, got_b, (want_row, want_b) in zip(rows, rhs, want):
                assert np.array_equal(got_row, want_row)
                assert got_b == want_b

    def test_per_party_row_count(self, monkeypatch):
        counts = []

        def counting_solve(c, a_eq, b_eq, a_ub, b_ub):
            counts.append(len(a_eq) + len(a_ub))
            return lp_solve(c, a_eq, b_eq, a_ub, b_ub)

        monkeypatch.setattr(polytope, "lp_solve", counting_solve)
        nosignaling_max(2, 0.1)
        nosignaling_max(3, 0.1)
        # normalisation 2^n, no-signaling n 4^(n-1), Hardy terms n + 1
        assert counts == [4 + 8 + 3, 8 + 48 + 4]

    def test_monotone_and_dominates_local(self):
        prev = -1.0
        for eps in (0.0, 0.05, 0.10, 0.20, 0.25):
            ns = nosignaling_max(3, eps).value
            assert ns >= prev - 1e-9
            assert ns >= local_max(3, eps).value - 1e-9
            prev = ns
