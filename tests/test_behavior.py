import tracemalloc
from itertools import product

import numpy as np
import pytest

from conftest import random_pairs, random_state
from dense_hardy import hardy_functionals
from sum_gaps import sum_axis_gaps

from hardylab.behavior import (BehaviorTensor, MeasurementSet,
                               _joint_general, check_no_signaling,
                               hardy_statistics, hardy_values,
                               joint_distribution,
                               measurements_from_observables,
                               measurements_from_pairs, signaling_gaps)
from hardylab.errors import ValidationError
from hardylab.linalg import StateVector
from hardylab.states import MeasurementPair, hardy_state, pmax


def computational_state(n, index=0):
    amps = np.zeros(2 ** n, dtype=complex)
    amps[index] = 1.0
    return StateVector((2,) * n, amps)


def random_projectors(dims, rng):
    """Per party and setting, a projector of random rank onto a Haar-ish
    subspace and its complement."""
    projs = []
    for d in dims:
        settings = []
        for _ in range(2):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(g)
            k = int(rng.integers(1, d))
            plus = q[:, :k] @ q[:, :k].conj().T
            settings.append((plus, np.eye(d) - plus))
        projs.append(tuple(settings))
    return MeasurementSet(projectors=tuple(projs), dims=tuple(dims))


def reduction_walk_marginals(marg, n, keep, start):
    """Depth-first subset marginals, each summed over one outcome axis."""
    if len(keep) == 1:
        return
    for pos, party in enumerate(keep):
        if party >= start:
            sub = keep[:pos] + keep[pos + 1:]
            child = marg.sum(axis=n + pos)
            yield sub, child
            yield from reduction_walk_marginals(child, n, sub, party + 1)


def reduction_walk_report(b):
    """Subset oracle for the no-signaling audit: for every proper nonempty
    subset of kept parties, the largest spread (max - min over the
    settings of the parties left out) of its outcome marginal, keyed by
    the kept parties."""
    n = b.n
    spreads = {}
    for keep, marg in reduction_walk_marginals(b.probs, n, list(range(n)), 0):
        drop = [i for i in range(n) if i not in keep]
        flat = np.moveaxis(marg, drop, range(len(drop))).reshape(2 ** len(drop), -1)
        spreads[tuple(keep)] = float((flat.max(axis=0) - flat.min(axis=0)).max())
    return spreads


def direct_marginal_spreads(probs, n):
    """The same spreads with each subset's marginal summed straight from
    the table."""
    spreads = {}
    for mask in range(1, 2 ** n - 1):
        keep = tuple(i for i in range(n) if (mask >> i) & 1)
        drop = [i for i in range(n) if not (mask >> i) & 1]
        marg = probs.sum(axis=tuple(n + i for i in drop))
        flat = np.moveaxis(marg, drop, range(len(drop))).reshape(2 ** len(drop), -1)
        spreads[keep] = float((flat.max(axis=0) - flat.min(axis=0)).max())
    return spreads


def assert_audit_matches_subsets(gap, spreads, n):
    """The per-party audit against subset spreads: it equals the largest
    spread over the n subsets of n - 1 parties, bounds every subset with k
    parties dropped by k * 2^(k-1) times itself, and is zero exactly when
    every spread is."""
    assert gap == max(v for keep, v in spreads.items() if len(keep) == n - 1)
    for keep, spread in spreads.items():
        k = n - len(keep)
        assert spread <= k * 2 ** (k - 1) * gap
    assert (gap == 0.0) == (max(spreads.values()) == 0.0)


def optimal_setup(n):
    pairs = [MeasurementPair.from_alpha_sq(pmax(n).t)] * n
    return hardy_state(n, pairs), measurements_from_pairs(pairs)


class TestMeasurementsFromPairs:
    def test_hadamard_like(self):
        m = measurements_from_pairs([MeasurementPair.from_alpha_sq(0.5)] * 2)
        plus = m.projectors[0][1][0]
        assert abs(plus[0, 0].real - 0.5) < 1e-12

    def test_completeness(self):
        rng = np.random.default_rng(0)
        for pair in random_pairs(rng, 5):
            m = measurements_from_pairs([pair, pair])
            for setting in range(2):
                a, b = m.projectors[0][setting]
                assert np.linalg.norm(a + b - np.eye(2)) < 1e-12

    def test_overlap_trace(self):
        rng = np.random.default_rng(1)
        for pair in random_pairs(rng, 5):
            m = measurements_from_pairs([pair, pair])
            plus_d = m.projectors[0][1][0]
            plus_u = m.projectors[0][0][0]
            assert abs(np.trace(plus_d @ plus_u).real - abs(pair.alpha) ** 2) < 1e-12


    def test_matches_outer_product_oracle(self):
        # the construction every pair was built with before it moved to
        # MeasurementPair.projectors
        def oracle(pair):
            u0 = np.diag([1.0, 0.0]).astype(complex)
            u1 = np.diag([0.0, 1.0]).astype(complex)
            return ((u0, u1), (np.outer(pair.ket_plus, pair.ket_plus.conj()),
                               np.outer(pair.ket_minus, pair.ket_minus.conj())))

        rng = np.random.default_rng(41)
        for phases in (False, True):
            pairs = random_pairs(rng, 6, complex_phases=phases)
            m = measurements_from_pairs(pairs)
            for got, pair in zip(m.projectors, pairs):
                want = oracle(pair)
                for s in range(2):
                    for o in range(2):
                        assert np.array_equal(got[s][o], want[s][o])

    def test_rejects_other_types(self):
        with pytest.raises(ValidationError):
            measurements_from_pairs([MeasurementPair.from_alpha_sq(0.5), (0.6, 0.8)])


class TestJointDistribution:
    def test_computational_basis(self):
        psi = computational_state(2)
        m = measurements_from_pairs([MeasurementPair.from_alpha_sq(0.5)] * 2)
        b = joint_distribution(psi, m)
        assert abs(b.probs[0, 0, 0, 0] - 1.0) < 1e-12

    def test_bipartite_optimum(self):
        psi, m = optimal_setup(2)
        b = joint_distribution(psi, m)
        assert abs(b.probs[0, 0, 0, 0] - 0.0901699) < 1e-6

    def test_maximally_mixed(self):
        # cross-check of the density kernel, called directly
        rng = np.random.default_rng(2)
        m = measurements_from_pairs(random_pairs(rng, 2))
        assert np.allclose(_joint_general(np.eye(4) / 4.0, m), 0.25, atol=1e-12)

    def test_rejects_density_matrix(self):
        m = measurements_from_pairs([MeasurementPair.from_alpha_sq(0.5)] * 2)
        with pytest.raises(ValidationError, match="expected a StateVector"):
            joint_distribution(np.eye(4) / 4.0, m)

    def test_pure_rank1_path_matches_general_path(self):
        # the rank-1 path's axis bookkeeping and its chunking of the first
        # party depend on n
        rng = np.random.default_rng(3)
        for n, _ in product(range(2, 9), range(3)):
            psi = random_state(rng, (2,) * n)
            m = measurements_from_pairs(random_pairs(rng, n))
            assert m.is_rank1_qubits()
            fast = joint_distribution(psi, m)
            # cross-check: the density kernel, called directly
            slow = _joint_general(psi.density(), m)
            assert np.max(np.abs(fast.probs - slow)) <= 1e-12

    def test_pure_rank1_memory(self):
        # The first three parties are finished one (setting, outcome) at a
        # time from a quarter-table complex block; contracting them like
        # the others would leave a full-table block beside the table
        psi, m = optimal_setup(8)
        table = 8 * 4 ** 8
        tracemalloc.start()
        try:
            joint_distribution(psi, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * table

    def test_behavior_memory(self):
        # the table, the quarter-table block it is squared from and that
        # block's halves; the behavior keeps the table, since nothing in a
        # Born-rule table is negative and so nothing is clipped
        psi, m = optimal_setup(10)
        tracemalloc.start()
        try:
            b = joint_distribution(psi, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * b.probs.nbytes

    @pytest.mark.parametrize("dims", [(2, 3, 4), (4, 4, 4)])
    def test_general_path_matches_kron_trace(self, dims):
        # Oracle: Tr[rho (P1 x P2 x P3)] with the full operator built by
        # kron; unequal dims catch a wrong party or row/column order.  The
        # density kernel is called directly, as a cross-check
        rng = np.random.default_rng(sum(dims))
        total = int(np.prod(dims))
        g = rng.standard_normal((total, 3)) + 1j * rng.standard_normal((total, 3))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        m = random_projectors(dims, rng)
        probs = _joint_general(rho, m)
        for settings in product(range(2), repeat=3):
            for outcomes in product(range(2), repeat=3):
                op = np.ones((1, 1))
                for party in range(3):
                    op = np.kron(op, m.projectors[party][settings[party]][outcomes[party]])
                want = np.trace(rho @ op).real
                assert abs(probs[settings + outcomes] - want) <= 1e-12

    def test_normalisation_and_no_signaling(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4):
            psi = random_state(rng, (2,) * n)
            b = joint_distribution(psi, measurements_from_pairs(random_pairs(rng, n)))
            sums = b.probs.sum(axis=tuple(range(n, 2 * n)))
            assert np.max(np.abs(sums - 1.0)) < 1e-10
            assert check_no_signaling(b) <= 1e-14

    def test_dimension_mismatch(self):
        m = measurements_from_pairs([MeasurementPair.from_alpha_sq(0.5)] * 3)
        with pytest.raises(ValidationError):
            joint_distribution(computational_state(2), m)


class TestHardyStatistics:
    def test_optimal_tripartite(self):
        psi, m = optimal_setup(3)
        p, zeros = hardy_statistics(joint_distribution(psi, m))
        assert abs(p - 0.0181940) < 1e-6
        assert np.all(zeros <= 1e-10)

    def test_zero_conditions_random_pairs(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5, 6):
            pairs = random_pairs(rng, n)
            psi = hardy_state(n, pairs)
            p, zeros = hardy_statistics(joint_distribution(psi, measurements_from_pairs(pairs)))
            assert np.all(zeros <= 1e-10)
            assert p > 0

    def test_product_state_not_a_hardy_point(self):
        pair = MeasurementPair.from_alpha_sq(0.543689)
        psi = computational_state(3)
        p, zeros = hardy_statistics(joint_distribution(psi, measurements_from_pairs([pair] * 3)))
        a2 = abs(pair.alpha) ** 2
        b2 = abs(pair.beta) ** 2
        assert abs(p - 1.0) < 1e-12
        assert np.allclose(zeros[:3], a2, atol=1e-12)
        assert abs(zeros[3] - b2 ** 3) < 1e-12

    def test_uniform_behavior_zeros_nonnegative(self):
        b = BehaviorTensor(np.full((2, 2, 2, 2), 0.25))
        p, zeros = hardy_statistics(b)
        assert np.all(zeros >= 0)

    def test_rejects_signaling_behavior(self):
        probs = np.zeros((2, 2, 2, 2))
        # party 1 outputs + iff party 2 measured U
        probs[:, 0, 0, 0] = 1.0
        probs[:, 1, 1, 0] = 1.0
        b = BehaviorTensor(probs)
        with pytest.raises(ValidationError):
            hardy_statistics(b)


    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_functionals(self, n):
        rng = np.random.default_rng(40 + n)
        p_coeff, zs = hardy_functionals(n)
        tables = rng.random((3, 2) + (2,) * (2 * n))
        p, terms = hardy_values(tables, n)
        assert p.shape == (3, 2) and terms.shape == (3, 2, n + 1)
        for idx in np.ndindex(3, 2):
            table = tables[idx]
            assert p[idx] == np.tensordot(p_coeff, table, axes=2 * n)
            want = [np.tensordot(z, table, axes=2 * n) for z in zs]
            assert np.max(np.abs(terms[idx] - want)) <= 1e-15

    def test_statistics_match_dense_functionals(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4, 5):
            pairs = random_pairs(rng, n)
            psi = random_state(rng, (2,) * n)
            b = joint_distribution(psi, measurements_from_pairs(pairs))
            p, zeros = hardy_statistics(b)
            p_coeff, zs = hardy_functionals(n)
            assert p == float(np.tensordot(p_coeff, b.probs, axes=2 * n))
            want = [float(np.tensordot(z, b.probs, axes=2 * n)) for z in zs]
            assert np.max(np.abs(zeros - want)) <= 1e-15


class TestBehaviorShape:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_party_count_is_half_the_rank(self, n):
        assert BehaviorTensor(np.full((2,) * (2 * n), 0.5 ** n)).n == n

    @pytest.mark.parametrize("shape", [(2, 2), (2, 2, 2), (2, 2, 2, 3), (4, 4), ()])
    def test_rejects_other_shapes(self, shape):
        # one party, an odd rank and a non-binary axis are all refused
        with pytest.raises(ValidationError, match="expected"):
            BehaviorTensor(np.ones(shape))


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_behavior_rejects_non_finite_entry(self, bad):
        probs = np.full((2,) * 6, 0.125)
        probs[0, 1, 0, 1, 1, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            BehaviorTensor(probs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_measurement_set_rejects_non_finite_entry(self, bad):
        m = measurements_from_pairs([MeasurementPair.from_alpha_sq(0.4)] * 2)
        plus = m.projectors[1][0][0].copy()
        plus[1, 0] = bad
        projectors = (m.projectors[0], ((plus, m.projectors[1][0][1]), m.projectors[1][1]))
        with pytest.raises(ValidationError, match="non-finite"):
            MeasurementSet(projectors=projectors, dims=(2, 2))


def faulty_measurements(fault):
    """Three qubit parties whose middle one, party 2 counting from 1, has
    ``fault`` at setting 1; party 3 has a different fault, which must not
    be reported."""
    (u, d) = MeasurementPair.from_alpha_sq(0.4).projectors
    z0, z1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    oblique = np.array([[1.0, 2.0], [0.0, -1.0]])  # squares to I, not Hermitian
    bad = {"non-finite": (np.array([[np.inf, 0.0], [0.0, 0.0]]), z1),
           "sum": (z0, z0),
           "hermitian": ((np.eye(2) + oblique) / 2, (np.eye(2) - oblique) / 2),
           "idempotent": (np.eye(2) / 2, np.eye(2) / 2)}[fault]
    later = (u, (z0, z0))
    return ((u, d), (u, bad), later)


class TestMeasurementSetFaults:
    @pytest.mark.parametrize("fault,message", [
        ("non-finite", "party 2: projector has non-finite entries"),
        ("sum", "party 2: projectors do not sum to identity"),
        ("hermitian", "party 2: projector not Hermitian"),
        ("idempotent", "party 2: projector not idempotent"),
    ])
    def test_first_fault_reported(self, fault, message):
        with pytest.raises(ValidationError) as info:
            MeasurementSet(projectors=faulty_measurements(fault), dims=(2, 2, 2))
        assert str(info.value) == message

    def test_value_fault_before_later_shape_fault(self):
        # party 2's setting 0 is checked in full before its setting 1's shape
        (u, d) = MeasurementPair.from_alpha_sq(0.4).projectors
        skew = np.array([[0.0, 1e-3], [0.0, 0.0]])
        skewed = (d[0] + skew, d[1] - skew)
        projectors = ((u, d), (skewed, (np.eye(3), np.eye(3))), (u, d))
        with pytest.raises(ValidationError) as info:
            MeasurementSet(projectors=projectors, dims=(2, 2, 2))
        assert str(info.value) == "party 2: projector not Hermitian"
        projectors = ((u, d), (u, (np.eye(3), np.eye(3))), (u, d))
        with pytest.raises(ValidationError) as info:
            MeasurementSet(projectors=projectors, dims=(2, 2, 2))
        assert str(info.value) == "party 2: projector shape mismatch"

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2)])
    def test_party_count_must_match_dims(self, dims):
        # an extra party was dropped (a 2-party table from 3 parties' projectors)
        # and a missing one raised IndexError in joint_distribution
        pairs = measurements_from_pairs(random_pairs(np.random.default_rng(3), 3))
        with pytest.raises(ValidationError, match=f"3 parties' projectors for {len(dims)} dims"):
            MeasurementSet(projectors=pairs.projectors, dims=dims)

    def test_mixed_dimensions(self):
        # stacks of different local dimensions are checked apart
        rng = np.random.default_rng(75)
        m = random_projectors((2, 3, 4), rng)
        projectors = list(m.projectors)
        plus, minus = projectors[1][1]
        projectors[1] = (projectors[1][0], (plus, 0.5 * (minus + plus)))
        with pytest.raises(ValidationError) as info:
            MeasurementSet(projectors=tuple(projectors), dims=(2, 3, 4))
        assert str(info.value) == "party 2: projectors do not sum to identity"


class TestNoSignaling:
    def test_uniform_zero(self):
        b = BehaviorTensor(np.full((2, 2, 2, 2), 0.25))
        assert check_no_signaling(b) == 0.0

    def test_designed_violation(self):
        eps = 0.37
        probs = np.zeros((2, 2, 2, 2))
        # party 1 marginal moves by eps when party 2 flips setting
        probs[:, 0, 0, 0] = 1.0
        probs[:, 1, 0, 0] = 1.0 - eps
        probs[:, 1, 1, 0] = eps
        b = BehaviorTensor(probs)
        assert abs(check_no_signaling(b) - eps) < 1e-12

    def test_detects_joint_marginal_signaling(self):
        # Parties 1 and 2 output equal bits when party 3 measures U and
        # opposite bits when it measures D: every single-party marginal is
        # uniform, only the pair (1, 2) signals, and party 3's gap sees it
        probs = np.zeros((2,) * 6)
        for s1, s2, s3, o1, o3 in product(range(2), repeat=5):
            probs[s1, s2, s3, o1, o1 ^ s3, o3] = 0.25
        assert abs(check_no_signaling(BehaviorTensor(probs)) - 0.5) < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_direct_marginal_oracle(self, n):
        # Oracle: each subset's marginal summed straight from the table
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            probs = rng.random((2,) * (2 * n)) ** 3
            probs /= probs.sum(axis=tuple(range(n, 2 * n)), keepdims=True)
            gap = check_no_signaling(BehaviorTensor(probs))
            assert gap > 0.0
            assert_audit_matches_subsets(gap, direct_marginal_spreads(probs, n), n)

    def test_audit_memory(self):
        # one party's gap and its second outcome sum, a quarter table
        # each, plus the ufunc buffers of the strided additions
        psi, m = optimal_setup(8)
        b = joint_distribution(psi, m)
        tracemalloc.start()
        try:
            check_no_signaling(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * b.probs.nbytes

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)], ids=["table", "batch", "batch2d"])
    def test_gaps_match_sum_reference(self, n, lead):
        # bit for bit, shapes and yield order included: the no-signaling LP
        # takes its rows from these gaps
        rng = np.random.default_rng([70, n, len(lead)])
        probs = rng.random(lead + (2,) * (2 * n))
        got = list(signaling_gaps(probs, n))
        want = sum_axis_gaps(probs, n)
        assert len(got) == len(want) == n
        for g, w in zip(got, want):
            assert g.shape == w.shape == lead + (2,) * (2 * n - 2)
            assert np.array_equal(g, w)

    def test_quantum_behaviors_pass(self):
        psi, m = optimal_setup(3)
        b = joint_distribution(psi, m)
        assert check_no_signaling(b) <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_reduction_walk(self, n):
        # cross-check against the depth-first subset walk with numpy
        # reductions over the length-2 axes
        rng = np.random.default_rng(60 + n)
        psi = random_state(rng, (2,) * n)
        exact = joint_distribution(psi, measurements_from_pairs(random_pairs(rng, n))).probs
        behaviors = [exact, np.full((2,) * (2 * n), 0.5 ** n)]
        for scale in (1e-12, 1e-3):
            probs = exact * (1.0 + scale * rng.random(exact.shape))
            behaviors.append(probs / probs.sum(axis=tuple(range(n, 2 * n)), keepdims=True))
        # one signaling entry: several subsets reach the same violation
        tied = np.full((2,) * (2 * n), 0.5 ** n)
        tied[(1,) * n + (0,) * n] += 0.5 ** (n + 1)
        tied[(1,) * n + (1,) * n] -= 0.5 ** (n + 1)
        behaviors.append(tied)
        for probs in behaviors:
            b = BehaviorTensor(probs)
            gap = check_no_signaling(b)
            assert_audit_matches_subsets(gap, reduction_walk_report(b), n)
        assert check_no_signaling(BehaviorTensor(exact)) <= 1e-14


class TestMeasurementsFromObservables:
    def test_qubit_observables_match_pairs(self):
        pair = MeasurementPair.from_alpha_sq(0.6)
        u = np.diag([1.0, -1.0]).astype(complex)
        d = 2.0 * np.outer(pair.ket_plus, pair.ket_plus.conj()) - np.eye(2)
        m_obs = measurements_from_observables([(u, d)])
        m_pair = measurements_from_pairs([pair])
        for s in range(2):
            for o in range(2):
                assert np.allclose(m_obs.projectors[0][s][o],
                                   m_pair.projectors[0][s][o], atol=1e-12)

    def test_rejects_oblique_projectors(self):
        # A = [[1, 2], [0, -1]] squares to I, so (I +/- A)/2 are complete
        # idempotents, but they are not Hermitian: no quantum measurement
        z = np.diag([1.0, -1.0])
        oblique = np.array([[1.0, 2.0], [0.0, -1.0]])
        amps = np.array([0.0, 0.6, 0.0, 0.8]) + 0j
        psi = StateVector((2, 2), amps)
        with pytest.raises(ValidationError, match="not Hermitian"):
            joint_distribution(psi, measurements_from_observables([(z, oblique)] * 2))
        # the same idempotents as rank-1 qubit projectors, given directly
        plus, minus = (np.eye(2) + oblique) / 2, (np.eye(2) - oblique) / 2
        u = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        with pytest.raises(ValidationError, match="not Hermitian"):
            MeasurementSet(projectors=((u, (plus, minus)),) * 2, dims=(2, 2))

    def test_accepts_round_off_asymmetry(self):
        # Hermitian within the 1e-12 * max(1, dim) tolerance is accepted
        pair = MeasurementPair.from_alpha_sq(0.3)
        (u0, u1), (plus, minus) = pair.projectors
        skew = np.array([[0.0, 1e-13], [-1e-13, 0.0]])
        m = MeasurementSet(projectors=(((u0, u1), (plus + skew, minus - skew)),) * 2,
                           dims=(2, 2))
        assert m.is_rank1_qubits()

    def test_rejects_non_dichotomic(self):
        with pytest.raises(ValidationError):
            measurements_from_observables([(np.diag([1.0, 0.5]), np.eye(2))])

    @pytest.mark.parametrize("a2", [np.eye(3), np.ones(2), np.eye(2)[None]])
    def test_rejects_shape_mismatch(self, a2):
        with pytest.raises(ValidationError, match="observable shape mismatch"):
            measurements_from_observables([(np.diag([1.0, -1.0]), a2)])
