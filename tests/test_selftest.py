import math

import numpy as np
import pytest

from hardylab.errors import HypothesisUnmetError, ValidationError
from hardylab.linalg import StateVector
from hardylab.selftest import (JordanDecomposition, ObservablePair,
                               canonical_observables, jordan_blocks,
                               selftest_report)
from hardylab.states import MeasurementPair, hardy_state, pmax


def haar_unitary(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def qubit_pair_observables(alpha_sq):
    pair = MeasurementPair.from_alpha_sq(alpha_sq)
    z = np.diag([1.0, -1.0]).astype(complex)
    d = 2.0 * np.outer(pair.ket_plus, pair.ket_plus.conj()) - np.eye(2)
    return z, d


def embedded_hardy_setup(rng, junk_dims, junk=None, unitaries=None):
    """Reference Hardy state tensored with junk, hidden by local unitaries.

    Party p holds (qubit_p (x) junk_p); observables act on the qubit
    factor only; everything is conjugated by a Haar-random local unitary.
    Returns (state, observables, unitaries).
    """
    n = 3
    t = pmax(n).t
    psi_h = hardy_state(n, [MeasurementPair.from_alpha_sq(t)] * n).tensor()
    jdim = int(np.prod(junk_dims))
    if junk is None:
        junk = rng.standard_normal(jdim) + 1j * rng.standard_normal(jdim)
    junk = np.asarray(junk, dtype=complex) / np.linalg.norm(junk)
    full = np.tensordot(psi_h, junk.reshape(junk_dims), axes=0)
    # axes (q1,q2,q3,j1,j2,j3) -> (q1,j1,q2,j2,q3,j3)
    full = full.transpose(0, 3, 1, 4, 2, 5)
    dims = tuple(2 * j for j in junk_dims)
    amps = full.reshape(-1)

    z, d = qubit_pair_observables(t)
    if unitaries is None:
        unitaries = [haar_unitary(dims[p], rng) for p in range(n)]
    observables = []
    tensor = amps.reshape(dims)
    for p in range(n):
        u = unitaries[p]
        a1 = u @ np.kron(z, np.eye(junk_dims[p])) @ u.conj().T
        a2 = u @ np.kron(d, np.eye(junk_dims[p])) @ u.conj().T
        observables.append(ObservablePair(a1=a1, a2=a2))
        tensor = np.tensordot(u, tensor, axes=([1], [p]))
        tensor = np.moveaxis(tensor, 0, p)
    return StateVector(dims, tensor.reshape(-1)), observables, unitaries


class TestObservablePair:
    def test_rejects_non_dichotomic(self):
        with pytest.raises(ValidationError):
            ObservablePair(a1=np.diag([1.0, 0.5]), a2=np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            ObservablePair(a1=a, a2=np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["a1", "a2"])
    def test_rejects_non_finite(self, bad, which):
        # NaN fails both norm comparisons, so only an explicit check stops it
        mats = {"a1": np.diag([1.0, -1.0]), "a2": np.array([[0.0, 1.0], [1.0, 0.0]])}
        mats[which] = np.full((2, 2), bad)
        with pytest.raises(ValidationError, match="finite"):
            ObservablePair(**mats)


class TestCanonicalObservables:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_match_outer_product_oracle(self, n):
        # Z and 2|+><+| - I, as built before they read
        # MeasurementPair.projectors
        pair = MeasurementPair.from_alpha_sq(pmax(n).t)
        z = np.diag([1.0, -1.0]).astype(complex)
        d = 2.0 * np.outer(pair.ket_plus, pair.ket_plus.conj()) - np.eye(2)
        obs = canonical_observables(n)
        assert len(obs) == n
        for o in obs:
            assert np.array_equal(o.a1, z)
            assert np.array_equal(o.a2, d)


class TestJordanBlocks:
    def test_single_qubit_block(self):
        z, d = qubit_pair_observables(0.6)
        decomp = jordan_blocks(ObservablePair(a1=z, a2=d))
        assert len(decomp.blocks) == 1
        block = decomp.blocks[0]
        assert not block.degenerate
        assert abs(math.cos(block.angle) - (2 * 0.6 - 1)) < 1e-12

    def test_direct_sum_recovers_both_angles(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a2_1, a2_2 = 0.3, 0.75
            z1, d1 = qubit_pair_observables(a2_1)
            z2, d2 = qubit_pair_observables(a2_2)
            a1 = np.zeros((4, 4), dtype=complex)
            a2 = np.zeros((4, 4), dtype=complex)
            a1[:2, :2], a1[2:, 2:] = z1, z2
            a2[:2, :2], a2[2:, 2:] = d1, d2
            u = haar_unitary(4, rng)
            pair = ObservablePair(a1=u @ a1 @ u.conj().T, a2=u @ a2 @ u.conj().T)
            decomp = jordan_blocks(pair)
            angles = sorted(b.angle for b in decomp.blocks)
            want = sorted(math.acos(2 * a - 1) for a in (a2_1, a2_2))
            assert len(angles) == 2
            assert max(abs(a - b) for a, b in zip(angles, want)) < 1e-9

    def test_commuting_pair_degenerate(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        decomp = jordan_blocks(ObservablePair(a1=z, a2=z))
        assert len(decomp.blocks) == 2
        assert all(b.degenerate for b in decomp.blocks)
        signs = sorted(b.signs for b in decomp.blocks)
        assert signs == [(-1, -1), (1, 1)]

    def test_block_completeness(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            _, obs, _ = embedded_hardy_setup(rng, (2, 2, 2))
            for pair in obs:
                decomp = jordan_blocks(pair)
                total = sum(b.basis @ b.basis.conj().T for b in decomp.blocks)
                assert np.linalg.norm(total - np.eye(pair.dim)) < 1e-9

    def test_canonical_frame_inside_blocks(self):
        rng = np.random.default_rng(8)
        _, obs, _ = embedded_hardy_setup(rng, (2, 1, 2))
        for pair in obs:
            for block in jordan_blocks(pair).two_dim_blocks():
                b = block.basis
                a1r = b.conj().T @ pair.a1 @ b
                a2r = b.conj().T @ pair.a2 @ b
                c, s = math.cos(block.angle), math.sin(block.angle)
                assert np.linalg.norm(a1r - np.diag([1.0, -1.0])) < 1e-9
                assert np.linalg.norm(a2r - np.array([[c, s], [s, -c]])) < 1e-9


class TestSelfTestReport:
    def test_exact_state_canonical_observables(self):
        psi = hardy_state(3, [MeasurementPair.from_alpha_sq(pmax(3).t)] * 3)
        report = selftest_report(psi, canonical_observables(3))
        assert abs(report.total_fidelity - 1.0) < 1e-9
        assert report.junk_dims == (1, 1, 1)
        assert report.degenerate_weight == 0.0

    def test_embedded_junk_certified(self):
        rng = np.random.default_rng(11)
        for junk_dims in ((2, 2, 2), (1, 2, 1), (2, 1, 2)):
            state, obs, _ = embedded_hardy_setup(rng, junk_dims)
            report = selftest_report(state, obs)
            assert report.total_fidelity >= 1.0 - 1e-6
            assert report.junk_dims == junk_dims
            assert abs(report.block_weights.sum() - 1.0) < 1e-8

    def test_mixed_junk_certified(self):
        # classically mixed junk under the same hidden unitaries, certified
        # through its purification: an ancilla qubit held by party 1
        rng = np.random.default_rng(13)
        state_a, obs, us = embedded_hardy_setup(rng, (2, 2, 2))
        junk_b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state_b, _, _ = embedded_hardy_setup(rng, (2, 2, 2), junk=junk_b,
                                             unitaries=us)
        rho = 0.6 * state_a.density() + 0.4 * state_b.density()
        with pytest.raises(ValidationError):
            selftest_report(rho, obs)
        # sqrt(0.6) |a>|0> + sqrt(0.4) |b>|1>, the ancilla beside party 1
        full = np.stack([math.sqrt(0.6) * state_a.tensor(),
                         math.sqrt(0.4) * state_b.tensor()], axis=1)
        purified = StateVector((8, 4, 4), full.reshape(-1))
        eye = np.eye(2)
        obs = [ObservablePair(a1=np.kron(obs[0].a1, eye),
                              a2=np.kron(obs[0].a2, eye))] + obs[1:]
        report = selftest_report(purified, obs)
        assert report.total_fidelity >= 1.0 - 1e-6
        assert report.junk_dims == (4, 2, 2)

    def test_qubit_report_forms_no_density(self, monkeypatch):
        # rank-1 qubit statistics and the block projections both work on
        # the state vector
        def no_density(self):
            raise AssertionError("density matrix formed")

        n = 8
        psi = hardy_state(n, [MeasurementPair.from_alpha_sq(pmax(n).t)] * n)
        monkeypatch.setattr(StateVector, "density", no_density)
        report = selftest_report(psi, canonical_observables(n))
        assert abs(report.total_fidelity - 1.0) < 1e-9

    def test_product_state_rejected(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        psi = StateVector((2, 2, 2), amps)
        with pytest.raises(HypothesisUnmetError):
            selftest_report(psi, canonical_observables(3))

    def test_weight_consistency_full_space_traces(self):
        rng = np.random.default_rng(17)
        state, obs, _ = embedded_hardy_setup(rng, (2, 2, 2))
        report = selftest_report(state, obs)
        rho = state.density()
        decomps = report.decompositions
        # weights recomputed as Tr(rho P1 x P2 x P3) over block projectors
        for i, bi in enumerate(decomps[0].blocks):
            for j, bj in enumerate(decomps[1].blocks):
                for k, bk in enumerate(decomps[2].blocks):
                    proj = np.kron(np.kron(bi.basis @ bi.basis.conj().T,
                                           bj.basis @ bj.basis.conj().T),
                                   bk.basis @ bk.basis.conj().T)
                    want = float(np.trace(rho @ proj).real)
                    assert abs(report.block_weights[i, j, k] - want) < 1e-8

    def test_fidelity_invariant_under_extra_unitaries(self):
        rng = np.random.default_rng(19)
        state, obs, _ = embedded_hardy_setup(rng, (2, 2, 2))
        base = selftest_report(state, obs).total_fidelity
        tensor = state.tensor()
        new_obs = []
        for p, pair in enumerate(obs):
            u = haar_unitary(4, rng)
            new_obs.append(ObservablePair(a1=u @ pair.a1 @ u.conj().T,
                                          a2=u @ pair.a2 @ u.conj().T))
            tensor = np.tensordot(u, tensor, axes=([1], [p]))
            tensor = np.moveaxis(tensor, 0, p)
        rotated = StateVector(state.dims, tensor.reshape(-1))
        again = selftest_report(rotated, new_obs).total_fidelity
        assert abs(base - again) < 1e-9

    def test_twenty_random_trials(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            junk_dims = tuple(int(d) for d in rng.integers(1, 3, size=3))
            state, obs, _ = embedded_hardy_setup(rng, junk_dims)
            report = selftest_report(state, obs)
            assert report.total_fidelity >= 1.0 - 1e-6, (trial, junk_dims)
