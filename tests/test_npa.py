import time
import warnings
from itertools import product

import numpy as np
import pytest

from full_moment import (build_full_problem, check_level_by_terms,
                         cyclic_reduction, hardy_constraint_terms, term_rows)
from moment_point import hardy_moment_vector, quantum_moment_vector, word_operator

from hardylab.errors import NumericError, ValidationError
from hardylab.npa import (_rotate, basis_shifts, build_moment_problem,
                          canonical_monomial, check_level, dagger,
                          monomial_list, mul, npa_upper_bound)
from hardylab.sdp import DEFAULT_SHIFT, _Compiled, sdp_solve
from hardylab.states import pmax


def random_realization(rng, n):
    """Qubit projectors and a random pure state, for the operator oracle."""
    projs = []
    for _ in range(n):
        a2 = rng.uniform(0.1, 0.9)
        a = np.sqrt(a2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        b = np.sqrt(1 - a2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        plus = np.array([a, b])
        projs.append((np.diag([1.0 + 0j, 0.0]), np.outer(plus, plus.conj())))
    psi = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    psi /= np.linalg.norm(psi)
    return projs, psi


def monomial_operator(mono, projs):
    op = np.eye(1, dtype=complex)
    for party, word in enumerate(mono):
        w = np.eye(2, dtype=complex)
        for letter in word:
            w = w @ projs[party][letter]
        op = np.kron(op, w)
    return op


def operator_gram(problem, projs, psi):
    """<psi| b_i' b_j |psi> over the basis, from raw Kronecker products."""
    ops = [monomial_operator(b, projs) for b in problem.basis]
    return np.array([[np.vdot(psi, oi.conj().T @ oj @ psi).real for oj in ops]
                     for oi in ops])


class TestCanonicalMonomial:
    def test_idempotency(self):
        assert canonical_monomial([(0, 0), (0, 0)], 2) == ((0,), ())

    def test_cross_party_commutation(self):
        assert canonical_monomial([(1, 0), (0, 0)], 2) == ((0,), (0,))

    def test_same_party_order_preserved(self):
        mono = canonical_monomial([(0, 0), (0, 1), (0, 0)], 2)
        assert mono == ((0, 1, 0), ())

    def test_canonicalisation_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ops = [(int(rng.integers(0, 3)), int(rng.integers(0, 2)))
                   for _ in range(rng.integers(1, 7))]
            mono = canonical_monomial(ops, 3)
            flat = [(p, letter) for p, word in enumerate(mono) for letter in word]
            assert canonical_monomial(flat, 3) == mono


def product_filter_monomials(n, level):
    """Cross-check for ``monomial_list``: every per-party word tuple, kept
    when its degree is within the level, then sorted by (degree, words)."""
    words = [()] + [tuple((first + k) % 2 for k in range(length))
                    for length in range(1, level + 1) for first in (0, 1)]
    out = [combo for combo in product(words, repeat=n)
           if sum(len(w) for w in combo) <= level]
    return sorted(out, key=lambda m: (sum(len(w) for w in m), m))


class TestMonomialList:
    @pytest.mark.parametrize("n,level,count", [
        (2, 1, 5), (3, 1, 7), (3, 2, 25), (2, 2, 13), (2, 3, 25), (3, 3, 63)])
    def test_counts(self, n, level, count):
        assert len(monomial_list(n, level)) == count

    def test_deterministic_order(self):
        a = monomial_list(3, 2)
        b = monomial_list(3, 2)
        assert a == b
        assert a[0] == ((), (), ())  # the identity

    def test_size_guard(self):
        with pytest.raises(ValidationError, match="basis passes the cap"):
            monomial_list(4, 10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_matches_product_filter(self, n, level):
        assert monomial_list(n, level) == product_filter_monomials(n, level)

    @pytest.mark.parametrize("n,level", [(2, 10 ** 9), (12, 4), (3, 1000)])
    def test_size_guard_stops_at_cap(self, n, level):
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="basis passes the cap"):
            monomial_list(n, level)
        assert time.perf_counter() - start < 1.0

    def test_rejects_too_many_parties(self):
        with pytest.raises(ValidationError, match=r"n=13 outside \[2, 12\]"):
            monomial_list(13, 1)

    @pytest.mark.parametrize("n", [1, 0, -2])
    @pytest.mark.parametrize("entry", [monomial_list, check_level,
                                       lambda n, level: build_moment_problem(n, level, 0.0),
                                       lambda n, level: npa_upper_bound(n, level, 0.0)])
    def test_rejects_fewer_than_two_parties(self, entry, n):
        with pytest.raises(ValidationError, match=rf"n={n} outside \[2, 12\]"):
            entry(n, 2)


class TestBuildMomentProblem:
    def test_tripartite_level2_structure(self):
        p = build_moment_problem(3, 2, 0.0)
        assert p.n_basis == 25
        assert p.g.shape == (4, p.n_vars)
        (obj_var,) = np.flatnonzero(p.c)
        assert p.variables[obj_var] == ((0,), (0,), (0,))

    def test_bipartite_level2_shape(self):
        p = build_moment_problem(2, 2, 0.0)
        assert p.n_basis == 13

    @pytest.mark.parametrize("n,level", [(2, 1), (2, 3), (3, 2), (4, 2), (5, 3)])
    def test_party_count_read_off_basis(self, n, level):
        p = build_moment_problem(n, level, 0.05)
        assert p.n == n == len(p.basis[0])
        assert p.g.shape == (n + 1, p.n_vars)
        assert build_full_problem(n, level, 0.05).n == n

    def test_epsilon_one_inequalities_slack(self):
        p = build_moment_problem(3, 2, 1.0)
        assert p.epsilon == 1.0
        hardy = hardy_moment_vector(p)  # every Hardy term vanishes there
        for row in p.g:
            assert sum(coef * hardy[k] for k, coef in enumerate(row)) < p.epsilon

    @pytest.mark.parametrize("epsilon", [-0.1, float("nan"), float("inf"), -float("inf"),
                                         1.5])
    @pytest.mark.parametrize("entry", [build_moment_problem, npa_upper_bound])
    def test_rejects_negative_or_non_finite_epsilon(self, entry, epsilon):
        # NaN passes a plain `epsilon < 0` test, and inf would reach the solver
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
                entry(3, 2, epsilon)

    @pytest.mark.parametrize("n,level", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3),
                                         (2, 6), (5, 3)])
    def test_rows_match_term_maps(self, n, level):
        # cross-check: the objective and rows read off behavior.hardy_values
        # against the term maps looked up by orbit key
        p = build_moment_problem(n, level, 0.05)
        c, g = term_rows(p)
        assert np.array_equal(p.c, c)
        assert np.array_equal(p.g, g)

    def test_check_level_matches_term_walk(self):
        # the closed form n <= 2 * level against the walk over every moment
        # the problem reads, in whether it raises and in the message
        def outcome(check, n, level):
            try:
                check(n, level)
            except ValidationError as exc:
                return str(exc)
            return None

        for n in range(2, 13):
            for level in range(1, 7):
                assert outcome(check_level, n, level) == outcome(check_level_by_terms, n, level)

    def test_level_too_low(self):
        with pytest.raises(ValidationError, match="not expressible at level 1"):
            build_moment_problem(3, 1, 0.0)
        with pytest.raises(ValidationError, match="not expressible at level 1"):
            build_full_problem(3, 1, 0.0)

    @pytest.mark.parametrize("n, level", [(2, 1), (2, 2), (3, 1), (3, 2),
                                          (4, 1), (4, 2), (5, 2)])
    def test_check_level_matches_cell_words(self, n, level):
        # Oracle: the moments the problem reads are all among the products
        # dagger(u) v of two basis monomials
        basis = monomial_list(n, level)
        cells = {mul(dagger(u), v) for u in basis for v in basis}
        needed = [canonical_monomial([(i, 0) for i in range(n)], n)]
        needed += [mono for term in hardy_constraint_terms(n) for mono in term]
        if all(mono in cells for mono in needed):
            check_level(n, level)
            build_moment_problem(n, level, 0.0)
        else:
            with pytest.raises(ValidationError, match=f"not expressible at level {level}"):
                check_level(n, level)

    def test_matrix_symmetry(self):
        for n, level in ((2, 2), (3, 2)):
            p = build_full_problem(n, level, 0.0)
            assert (p.cell_var == p.cell_var.T).all()
            for i in range(p.n_basis):
                for j in range(p.n_basis):
                    w = mul(dagger(p.basis[i]), p.basis[j])
                    wd = dagger(mul(dagger(p.basis[j]), p.basis[i]))
                    assert p.cell_var[i, j] == p.cell_var[j, i]
                    assert w == wd

    def test_cells_match_operator_oracle(self):
        # independent oracle: raw matrix products of random realizations
        rng = np.random.default_rng(11)
        for n, level in ((2, 3), (3, 2)):
            p = build_full_problem(n, level, 0.0)
            for _ in range(3):
                projs, psi = random_realization(rng, n)
                gram = operator_gram(p, projs, psi)
                for v in range(p.n_vars):
                    vals = gram[p.cell_var == v]
                    assert vals.max() - vals.min() < 1e-12


class TestMomentVectors:
    @pytest.mark.parametrize("n,level", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_hardy_point_objective_and_psd(self, n, level):
        # the bases of the benchmark's moment jobs
        p = build_moment_problem(n, level, 0.0)
        m = hardy_moment_vector(p)
        (obj_var,) = np.flatnonzero(p.c)
        assert abs(m[obj_var] - pmax(n).p_max) < 1e-12
        comp = _Compiled(p)
        w = np.linalg.eigvalsh(comp.mat(m))
        assert w.min() > -1e-10
        for row in p.g:
            assert abs(sum(c * m[k] for k, c in enumerate(row))) < 1e-12

    def test_word_operator_matches_oracle(self):
        # the product of '+' projectors as built before it read
        # MeasurementPair.projectors
        from conftest import random_pairs

        def oracle(word, pair):
            proj_u = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
            proj_d = np.outer(pair.ket_plus, pair.ket_plus.conj())
            out = np.eye(2, dtype=complex)
            for letter in word:
                out = out @ (proj_u if letter == 0 else proj_d)
            return out

        rng = np.random.default_rng(47)
        words = [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1, 0)]
        for phases in (False, True):
            for pair in random_pairs(rng, 10, complex_phases=phases):
                for word in words:
                    assert np.array_equal(word_operator(word, pair), oracle(word, pair))

    def test_quantum_vector_matches_behavior(self):
        # success probability moment equals the Born-rule value
        from hardylab.behavior import (hardy_statistics, joint_distribution,
                                       measurements_from_pairs)
        from hardylab.states import MeasurementPair, hardy_state
        rng = np.random.default_rng(5)
        p = build_moment_problem(2, 2, 0.0)
        for _ in range(5):
            a2 = rng.uniform(0.2, 0.8)
            pairs = [MeasurementPair.from_alpha_sq(a2)] * 2
            psi = hardy_state(2, pairs)
            m = quantum_moment_vector(p, psi, pairs)
            born_p, _ = hardy_statistics(joint_distribution(psi, measurements_from_pairs(pairs)))
            (obj_var,) = np.flatnonzero(p.c)
            assert abs(m[obj_var] - born_p) < 1e-12


class TestUpperBound:
    def test_bipartite_level2(self):
        val = npa_upper_bound(2, 2, 0.0)
        assert abs(val - 0.0901699) < 5e-4

    def test_saturation_at_quarter(self):
        val = npa_upper_bound(3, 2, 0.25)
        assert abs(val - 1.0) < 5e-4

    def test_deterministic(self):
        a = npa_upper_bound(2, 2, 0.03)
        b = npa_upper_bound(2, 2, 0.03)
        assert a == b

    @pytest.mark.xfail(raises=NumericError, strict=True, reason=(
        "at eps = 0 the moment matrix has no interior, and the shifted solve "
        "stops on the Schur factor; see ROADMAP item 5"))
    def test_bipartite_level7_at_zero_noise(self):
        # the smallest known failing eps = 0 solve: level 6 converges in 23
        # iterations, level 7 stops after 29
        val = npa_upper_bound(2, 7, 0.0)
        assert abs(val - pmax(2).p_max) < 5e-4


def orbit_spreads(reduced, gram):
    """Largest minus smallest cell value within each orbit variable."""
    return [np.ptp(gram[reduced.cell_var == o]) for o in range(reduced.n_vars)]


class TestCyclicReduction:
    @pytest.mark.parametrize("n,level,full,orbits", [
        (3, 3, 250, 86), (3, 2, 93, 33), (2, 2, 31, 18), (4, 2, 229, 62)])
    def test_structure(self, n, level, full, orbits):
        p = build_full_problem(n, level, 0.05)
        r, orbit_of = cyclic_reduction(p)
        assert (p.n_vars, r.n_vars) == (full, orbits)
        assert orbit_of.shape == (full,)
        assert (r.cell_var == orbit_of[p.cell_var]).all()
        assert (r.cell_var == r.cell_var.T).all()
        _Compiled(r)
        # every cyclic row is kept, identical after the merge
        assert r.g.shape == (n + 1, r.n_vars)
        assert r.epsilon == 0.05
        assert all(np.array_equal(row, r.g[0]) for row in r.g[:n])
        assert np.flatnonzero(r.c).tolist() == [r.variables.index(((0,),) * n)]
        assert r.c.max() == 1.0
        assert r.variables[0] == ((),) * n  # the identity
        # each orbit is named by its smallest shifted variable key
        for k, var in enumerate(p.variables):
            key = r.variables[orbit_of[k]]
            shifts = {_rotate(var, s) for s in range(n)}
            assert key in shifts or dagger(key) in shifts

    @pytest.mark.parametrize("n,level", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_builder_matches_reduced_full_problem(self, n, level, eps):
        # cross-check: the orbit builder against the reduction of the
        # test-only full problem, field for field
        want, _ = cyclic_reduction(build_full_problem(n, level, eps))
        got = build_moment_problem(n, level, eps)
        assert got.cell_var.dtype == want.cell_var.dtype
        assert np.array_equal(got.cell_var, want.cell_var)
        assert got.variables == want.variables
        assert got.basis == want.basis
        assert (got.n, got.epsilon) == (want.n, want.epsilon)
        assert np.array_equal(got.c, want.c)
        assert got.variables[0] == ((),) * n
        assert np.array_equal(got.g, want.g)

    @pytest.mark.parametrize("n,level", [(4, 3), (2, 6), (5, 3)])
    def test_build_order_is_row_major(self, n, level):
        # past the sizes the full problem cross-checks: the ids the builder
        # assigns as it computes are already numbered by first row-major
        # appearance, identity first
        p = build_moment_problem(n, level, 0.05)
        ids, first = np.unique(p.cell_var.ravel(), return_index=True)
        assert np.array_equal(ids, np.arange(p.n_vars))
        assert (np.diff(first) > 0).all()  # id k first appears before k + 1
        assert p.variables[0] == ((),) * n

    def test_basis_shifts(self):
        basis = monomial_list(3, 2)
        shifts = basis_shifts(basis)
        assert shifts.shape == (3, len(basis))
        for s, perm in enumerate(shifts):
            assert sorted(perm) == list(range(len(basis)))
            assert all(basis[perm[i]] == _rotate(b, s) for i, b in enumerate(basis))
        # a basis that misses a shifted monomial has none
        assert basis_shifts(basis[:2]) is None

    def test_orbit_cells_agree_on_symmetric_realization(self):
        from hardylab.states import MeasurementPair, hardy_state
        rng = np.random.default_rng(13)
        for n, level in ((2, 3), (3, 2), (4, 2)):
            p = build_full_problem(n, level, 0.0)
            r, _ = cyclic_reduction(p)
            pair = MeasurementPair.from_alpha_sq(0.37)
            projs = [(np.diag([1.0 + 0j, 0.0]),
                      np.outer(pair.ket_plus, pair.ket_plus.conj()))] * n
            psi = hardy_state(n, [pair] * n).amps
            assert max(orbit_spreads(r, operator_gram(p, projs, psi))) < 1e-12
            # an asymmetric realization tells the cells of an orbit apart
            projs, psi = random_realization(rng, n)
            assert max(orbit_spreads(r, operator_gram(p, projs, psi))) > 1e-3

    @pytest.mark.parametrize("n,eps,level", [
        (2, 0.03, 2), (3, 0.05, 2), (3, 0.02, 3), (4, 0.0, 2)],
        ids=["2-0.03", "3-0.05", "3-0.02-level3", "4-0.0"])
    def test_unreduced_solve_agrees(self, n, eps, level):
        # cross-check: the full problem, test-only
        p = build_full_problem(n, level, eps)
        full = sdp_solve(p)
        assert full.converged
        assert abs(full.value - npa_upper_bound(n, level, eps)) < 1e-7
        # the orbit average of the full optimum is the party-shift average
        # of its moment matrix: feasible for the reduced problem, same value
        r, orbit_of = cyclic_reduction(p)
        avg = np.bincount(orbit_of, weights=full.moments) / np.bincount(orbit_of)
        assert np.linalg.eigvalsh(_Compiled(r).mat(avg))[0] >= -1e-9
        for row in r.g:
            lhs = sum(c * avg[k] for k, c in enumerate(row))
            assert lhs <= r.epsilon + DEFAULT_SHIFT + 1e-12
        (obj,) = np.flatnonzero(r.c)
        assert abs(avg[obj] - full.value) <= 1e-15
