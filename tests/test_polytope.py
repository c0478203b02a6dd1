"""The closed-form polytope bounds, each side checked exactly.

Local: the inequality p <= z_1 + ... + z_n + z_- on every deterministic
strategy (int8 tables through ``hardy_values``), and the witness mixture
in ``Fraction``.  No-signaling: integer multipliers for n p - (n - 1) *
(sum of the terms) <= 1 and n times a box, both found by scipy's HiGHS
and checked in int64.  HiGHS is also the LP oracle that cross-checks the
values, on the per-party and on the redundant no-signaling row families.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest

from conftest import random_pairs, random_state
from dense_hardy import hardy_functionals
from hardylab import polytope
from hardylab.behavior import (BehaviorTensor, check_no_signaling,
                               hardy_statistics, hardy_values,
                               joint_distribution, measurements_from_pairs,
                               signaling_gaps)
from hardylab.errors import ValidationError
from hardylab.linalg import StateVector
from hardylab.polytope import NS_MAX_PARTIES, local_max, nosignaling_max
from hardylab.states import MAX_PARTIES, hardy_state

# First verified value of the tripartite no-signaling maximum at eps = 0
# (cross-checked against an independent LP solver when frozen).
NS_TRIPARTITE_EPS0 = 1.0 / 3.0
GRID = np.linspace(0.0, 0.3, 31)


@pytest.fixture
def linprog():
    return pytest.importorskip("scipy.optimize").linprog


@lru_cache(maxsize=None)
def deterministic_tables(n):
    """The 4^n deterministic strategies as int8 behavior tables.

    Strategy v's base-4 digits, party 1 most significant, are 2 * (outcome
    at U) + (outcome at D); the table is the outer product of one (digit,
    setting, outcome) indicator per party.
    """
    digit = np.arange(4)
    party = np.zeros((4, 2, 2), dtype=np.int8)
    party[digit, 0, digit >> 1] = 1
    party[digit, 1, digit & 1] = 1
    tables = np.ones((1,) * (3 * n), dtype=np.int8)
    for i in range(n):
        shape = [1] * (3 * n)
        shape[i], shape[n + i], shape[2 * n + i] = 4, 2, 2
        tables = tables * party.reshape(shape)
    return tables.reshape((4 ** n,) + (2,) * (2 * n))


@lru_cache(maxsize=None)
def vertex_values(n):
    """p and the Hardy terms of every deterministic strategy, as integers."""
    return hardy_values(deterministic_tables(n), n)


def single_violators(n):
    """Strategies with p = 1 and exactly one Hardy term 1."""
    p, zs = vertex_values(n)
    return np.flatnonzero((p == 1) & (zs.sum(axis=-1) == 1))


def silent_strategy(n):
    """Every party answers "-" at U and "+" at D (digit 2): p and every
    Hardy term are 0."""
    return 2 * (4 ** n - 1) // 3


def local_witness(n, eps):
    """The mixture that attains ``local_max(n, eps)``, as {strategy:
    weight}: each single violator at min(eps, 1/(n + 1)), the rest on the
    silent strategy.  Weights are Fractions for a Fraction eps."""
    w = min(eps, Fraction(1, n + 1))
    weights = {int(v): w for v in single_violators(n)}
    weights[silent_strategy(n)] = 1 - (n + 1) * w
    return weights


def witness_table(n, eps):
    """``local_witness(n, eps)`` as a float behavior table."""
    tables = deterministic_tables(n)
    return sum(float(w) * tables[v] for v, w in local_witness(n, eps).items())


def vertex_loop(n):
    """Cross-check for ``deterministic_tables``: each deterministic
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


class TestDeterministicVertices:
    def test_counts(self):
        assert len(deterministic_tables(2)) == 16
        assert len(deterministic_tables(3)) == 64

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_table_matches_vertex_loop(self, n):
        got = deterministic_tables(n)
        want = vertex_loop(n)
        assert len(got) == len(want) == 4 ** n
        for row, w in zip(got, want):
            assert np.array_equal(row, w)

    def test_vertices_are_no_signaling(self):
        for v in deterministic_tables(2):
            assert check_no_signaling(BehaviorTensor(v)) == 0.0

    def test_local_bound_inequality_on_mixtures(self):
        # every local behavior obeys p <= z_1 + ... + z_{n+1}
        rng = np.random.default_rng(3)
        vertices = deterministic_tables(3)
        for _ in range(20):
            w = rng.dirichlet(np.ones(len(vertices)))
            probs = np.tensordot(w, vertices, axes=1)
            p, zeros = hardy_statistics(BehaviorTensor(probs))
            assert p <= zeros.sum() + 1e-10


class TestLocalCertificate:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_bound_holds_on_every_strategy(self, n):
        p, zs = vertex_values(n)
        assert np.all(p <= zs.sum(axis=-1))
        violators = single_violators(n)
        assert len(violators) == n + 1
        # one violator per term
        assert sorted(zs[violators].argmax(axis=-1)) == list(range(n + 1))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_term_is_needed(self, n):
        # without term j, the single violator of j breaks the inequality
        p, zs = vertex_values(n)
        for j in range(n + 1):
            assert np.any(p > zs.sum(axis=-1) - zs[:, j])

    @pytest.mark.parametrize("n", range(2, 7))
    def test_witness_attains_the_bound_exactly(self, n):
        p, zs = vertex_values(n)
        for eps in (Fraction(0), Fraction(1, 100), Fraction(1, 20), Fraction(1, 12),
                    Fraction(1, n + 1), Fraction(1, 4), Fraction(3, 10), Fraction(1)):
            weights = local_witness(n, eps)
            assert all(w >= 0 for w in weights.values())
            assert sum(weights.values()) == 1
            value = sum(w * int(p[v]) for v, w in weights.items())
            terms = [sum(w * int(zs[v, j]) for v, w in weights.items())
                     for j in range(n + 1)]
            assert value == min(1, (n + 1) * eps)
            assert max(terms) <= eps
            assert abs(local_max(n, float(eps)) - float(value)) <= 1e-15


@lru_cache(maxsize=None)
def ns_program(n):
    """The no-signaling LP over the 4^n behavior entries, in integers.

    Returns p and the Hardy terms of each entry, and the equality rows
    a x = b: the per-setting normalisation (b = 1), then the per-party
    gaps of ``behavior.signaling_gaps`` (b = 0).
    """
    unit = np.eye(4 ** n, dtype=np.int64).reshape((4 ** n,) + (2,) * (2 * n))
    p, zs = hardy_values(unit, n)
    norm = unit.sum(axis=tuple(range(n + 1, 2 * n + 1))).reshape(4 ** n, -1).T
    a = np.vstack([norm] + [gap.reshape(4 ** n, -1).T for gap in signaling_gaps(unit, n)])
    b = np.zeros(len(a), dtype=np.int64)
    b[:len(norm)] = 1
    return p, zs, a, b


def ns_objective(n):
    """f = n p - (n - 1) (z_1 + ... + z_n + z_-) per behavior entry."""
    p, zs, _, _ = ns_program(n)
    return n * p - (n - 1) * zs.sum(axis=-1)


def rounded(v):
    out = np.rint(v).astype(np.int64)
    assert np.abs(v - out).max() < 1e-6, "the solver's answer is not integral"
    return out


@lru_cache(maxsize=None)
def ns_certificate(n):
    """(y, n x): HiGHS's equality multipliers for the maximum of f, and n
    times its eps = 0 optimum of p, both rounded to integers."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    p, zs, a, b = ns_program(n)
    dual = linprog(-ns_objective(n), A_eq=a, b_eq=b, method="highs")
    box = linprog(-p, A_eq=a, b_eq=b, A_ub=zs.T, b_ub=np.zeros(n + 1),
                  method="highs")
    assert dual.status == box.status == 0
    # HiGHS minimises -f, so its multipliers are -y
    return rounded(-dual.eqlin.marginals), rounded(n * box.x)


def ns_dual_holds(n, y, f):
    """Whether y certifies f <= 1 on the no-signaling polytope: f <= a^T y
    entrywise and b^T y = 1, so f.x <= y.(a x) = 1 for every x >= 0 with
    a x = b."""
    _, _, a, b = ns_program(n)
    return bool(np.all(f <= a.T @ y)) and int(b @ y) == 1


def ns_box_holds(n, nx):
    """Whether nx is n times a box: nonnegative integers, normalised to n
    for every setting, zero per-party gaps, zero terms and n p = 1."""
    p, zs, a, b = ns_program(n)
    return bool(np.all(nx >= 0) and np.array_equal(a @ nx, n * b)
                and not np.any(zs.T @ nx) and p @ nx == 1)


NS_PARTIES = range(2, NS_MAX_PARTIES + 1)


class TestNoSignalingCertificate:
    @pytest.mark.parametrize("n", NS_PARTIES)
    def test_dual(self, n):
        y, _ = ns_certificate(n)
        assert ns_dual_holds(n, y, ns_objective(n))

    @pytest.mark.parametrize("n", NS_PARTIES)
    def test_box(self, n):
        _, nx = ns_certificate(n)
        assert ns_box_holds(n, nx)
        assert set(np.unique(nx)) <= {0, 1, 2}

    @pytest.mark.parametrize("n", NS_PARTIES)
    def test_mixture_attains_the_formula_exactly(self, n):
        # eps = k/m: D x = (m - (n + 1) k) (n box) + n k (sum of the single
        # violators), with D = n m, all in integers
        p, zs, a, b = ns_program(n)
        _, nx = ns_certificate(n)
        violators = deterministic_tables(n)[single_violators(n)].reshape(n + 1, -1)
        spike = violators.sum(axis=0, dtype=np.int64)
        for k, m in ((0, 1), (1, 100), (1, 20), (1, 12), (1, n + 1)):
            dx = (m - (n + 1) * k) * nx + n * k * spike
            assert np.all(dx >= 0)
            assert np.array_equal(a @ dx, n * m * b)
            assert np.all(zs.T @ dx <= n * k)
            assert p @ dx == m + (n * n - 1) * k
            want = Fraction(m + (n * n - 1) * k, n * m)
            assert abs(nosignaling_max(n, k / m) - float(want)) <= 1e-15

    @pytest.mark.parametrize("n", NS_PARTIES)
    def test_zeroed_normalisation_multipliers_fail(self, n):
        y, _ = ns_certificate(n)
        y = y.copy()
        y[:2 ** n] = 0
        assert not ns_dual_holds(n, y, ns_objective(n))

    @pytest.mark.parametrize("n", NS_PARTIES)
    def test_dropping_a_term_fails(self, n):
        y, _ = ns_certificate(n)
        _, zs, _, _ = ns_program(n)
        for j in range(n + 1):
            assert not ns_dual_holds(n, y, ns_objective(n) + (n - 1) * zs[:, j])

    @pytest.mark.parametrize("n", NS_PARTIES)
    def test_moved_box_entry_fails(self, n):
        _, nx = ns_certificate(n)
        rng = np.random.default_rng(n)
        entries = np.concatenate((np.flatnonzero(nx)[:4], rng.choice(nx.size, 4)))
        for k in entries:
            for step in (-1, 1):
                moved = nx.copy()
                moved[k] += step
                assert not ns_box_holds(n, moved)


@lru_cache(maxsize=None)
def redundant_rows(n):
    """The marginal equalities of every party subset against every pair of
    complement settings, the row family the package posed before the
    per-party rows, with the per-setting normalisation first."""
    shape = (2,) * (2 * n)
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
    return np.array(a_eq), np.array(b_eq)


def highs_max(linprog, c, a_eq, b_eq, a_ub, b_ub):
    res = linprog(-np.asarray(c, dtype=float), A_eq=a_eq, b_eq=b_eq,
                  A_ub=a_ub, b_ub=b_ub, method="highs")
    assert res.status == 0
    return -res.fun


class TestLocalMax:
    def test_zero_epsilon(self):
        for eps in (0, 0.0, np.float64(0.0), -0.0):
            value = local_max(3, eps)
            assert value == 0.0 and type(value) is float
            assert math.copysign(1.0, value) == 1.0  # no "-0.000000" line

    def test_four_epsilon(self):
        assert abs(local_max(3, 0.05) - 0.2) < 1e-15

    def test_saturation(self):
        assert local_max(3, 0.30) == 1.0

    def test_matches_min_4eps_on_grid(self):
        for eps in np.arange(0.0, 0.301, 0.01):
            assert abs(local_max(3, float(eps)) - min(4.0 * eps, 1.0)) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_highs_on_the_vertex_lp(self, n, linprog):
        p, zs = vertex_values(n)
        for eps in GRID:
            want = highs_max(linprog, p, np.ones((1, len(p))), [1.0], zs.T,
                             np.full(n + 1, eps))
            assert abs(local_max(n, eps) - want) <= 1e-12

    def test_explicit_witness_mixture(self):
        # four strategies each violating exactly one constraint, weight eps
        # apiece, remainder on a silent strategy: p = 4 eps is feasible.
        eps = 0.07
        p, zeros = hardy_statistics(BehaviorTensor(witness_table(3, eps)))
        assert abs(p - 4 * eps) < 1e-12
        assert np.all(zeros <= eps + 1e-12)

    def test_rejects_unsupported_n(self):
        assert local_max(MAX_PARTIES, 0.05) == pytest.approx(0.65, abs=1e-15)
        for n in (1, MAX_PARTIES + 1):
            with pytest.raises(ValidationError, match=rf"n={n} outside \[2, {MAX_PARTIES}\]"):
                local_max(n, 0.1)

    @pytest.mark.parametrize("eps", [-0.1, 1.5, float("nan")])
    def test_rejects_epsilon_outside_unit_interval(self, eps):
        for solve in (local_max, nosignaling_max):
            with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
                solve(3, eps)


class TestNoSignalingMax:
    def test_eps0_golden_and_sandwich(self):
        value = nosignaling_max(3, 0.0)
        assert 0.0181940 <= value <= 1.0
        assert abs(value - NS_TRIPARTITE_EPS0) < 1e-15

    def test_bipartite_literature_value(self):
        for eps in (0, 0.0, np.float64(0.0)):
            value = nosignaling_max(2, eps)
            assert value == 0.5 and type(value) is float

    def test_quarter_epsilon_saturates(self):
        assert nosignaling_max(3, 0.25) == 1.0

    def test_rejects_unsupported_n(self):
        assert nosignaling_max(NS_MAX_PARTIES, 0.1) == pytest.approx(0.68, abs=1e-15)
        for n in (1, NS_MAX_PARTIES + 1):
            with pytest.raises(ValidationError, match=rf"n={n} outside \[2, {NS_MAX_PARTIES}\]"):
                nosignaling_max(n, 0.1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_redundant_row_family(self, n, linprog):
        # HiGHS on the per-party rows and on the redundant rows, whose
        # objective and terms come from the dense coefficient tensors
        p, zs, a, b = ns_program(n)
        p_coeff, z_coeffs = hardy_functionals(n)
        a_red, b_red = redundant_rows(n)
        z_red = np.array([z.reshape(-1) for z in z_coeffs])
        for eps in GRID:
            bound = np.full(n + 1, eps)
            per_party = highs_max(linprog, p, a, b, zs.T, bound)
            redundant = highs_max(linprog, p_coeff.reshape(-1), a_red, b_red, z_red, bound)
            assert abs(nosignaling_max(n, eps) - per_party) <= 1e-12
            assert abs(nosignaling_max(n, eps) - redundant) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_rows_match_marginal_differences(self, n):
        # Oracle: party i's outcome summed out of the unit batch and its
        # two settings subtracted, the rows as built before they came from
        # behavior.signaling_gaps
        p, zs, a, b = ns_program(n)
        unit = np.eye(4 ** n).reshape((4 ** n,) + (2,) * (2 * n))
        want = [unit.sum(axis=tuple(range(n + 1, 2 * n + 1))).reshape(4 ** n, -1).T]
        for i in range(n):
            marg = unit.sum(axis=n + 1 + i)
            gaps = marg.take(0, axis=1 + i) - marg.take(1, axis=1 + i)
            want.append(gaps.reshape(4 ** n, -1).T)
        assert np.array_equal(a, np.vstack(want))
        assert np.array_equal(b, [1] * 2 ** n + [0] * (len(b) - 2 ** n))
        want_p, want_zs = hardy_values(unit, n)
        assert np.array_equal(p, want_p) and np.array_equal(zs, want_zs)

    def test_per_party_row_count(self):
        counts = [len(ns_program(n)[2]) + n + 1 for n in (2, 3)]
        # normalisation 2^n, no-signaling n 4^(n-1), Hardy terms n + 1
        assert counts == [4 + 8 + 3, 8 + 48 + 4]

    def test_monotone_and_dominates_local(self):
        for n in NS_PARTIES:
            prev = -1.0
            for eps in (0.0, 0.05, 0.10, 0.20, 0.25):
                ns = nosignaling_max(n, eps)
                assert ns >= prev
                assert ns >= local_max(n, eps)
                prev = ns


def quantum_violations(n, rng, count):
    """Sampled qubit realisations whose p exceeds ``nosignaling_max`` at
    their largest Hardy term: half Haar-random, half the Hardy state of
    random pairs pushed off it by a random amount."""
    bad = []
    for k in range(count):
        pairs = random_pairs(rng, n)
        if k % 2:
            state = random_state(rng, (2,) * n)
        else:
            push = random_state(rng, (2,) * n).amps * rng.uniform(0.0, 0.3)
            amps = hardy_state(n, pairs).amps + push
            state = StateVector((2,) * n, amps / np.linalg.norm(amps))
        p, zs = hardy_statistics(joint_distribution(state, measurements_from_pairs(pairs)))
        if p > polytope.nosignaling_max(n, float(zs.max())) + 1e-12:
            bad.append((p, zs))
    return bad


def local_violations(n, rng, count):
    """Sampled local behaviors whose p exceeds ``local_max`` at their
    largest Hardy term: the witness at random eps, and mixtures of a few
    random strategies with the silent one."""
    tables = deterministic_tables(n).reshape(4 ** n, -1)
    weights = np.zeros((count, 4 ** n))
    for k, row in enumerate(weights):
        if k % 4 == 0:
            for v, w in local_witness(n, rng.uniform(0.0, 0.3)).items():
                row[v] = float(w)
        else:
            picks = rng.choice(4 ** n, size=rng.integers(1, 6))
            row[picks] += rng.dirichlet(np.ones(len(picks))) * rng.uniform(0.0, 0.5)
            row[silent_strategy(n)] += 1.0 - row.sum()
    p, zs = hardy_values((weights @ tables).reshape((count,) + (2,) * (2 * n)), n)
    return [(pk, zk) for pk, zk in zip(p, zs)
            if pk > polytope.local_max(n, float(zk.max())) + 1e-12]


class TestSampledSoundness:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quantum_points_obey_nosignaling_max(self, n):
        assert quantum_violations(n, np.random.default_rng(40 + n), 250) == []

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_local_points_obey_local_max(self, n):
        assert local_violations(n, np.random.default_rng(50 + n), 400) == []

    def test_a_lowered_local_formula_fails(self, monkeypatch):
        lowered = lambda n, eps: 0.99 * local_max(n, eps)
        monkeypatch.setattr(polytope, "local_max", lowered)
        for n in (2, 3, 4):
            assert local_violations(n, np.random.default_rng(50 + n), 400) != []
