import json
import math

import numpy as np
import pytest

from hardylab.behavior import MeasurementSet, measurements_from_observables
from hardylab.cli import main
from hardylab.errors import HypothesisUnmetError, ValidationError
from hardylab.linalg import StateVector
from hardylab.selftest import (canonical_measurements, jordan_blocks,
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
    Returns (state, measurements, unitaries).
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
        observables.append((a1, a2))
        tensor = np.tensordot(u, tensor, axes=([1], [p]))
        tensor = np.moveaxis(tensor, 0, p)
    return (StateVector(dims, tensor.reshape(-1)),
            measurements_from_observables(observables), unitaries)


def observable_pair(ms, party):
    """A party's observables a = P(+) - P(-) of each setting."""
    return tuple(plus - minus for plus, minus in ms.projectors[party])


class TestObservablePair:
    """A party's observable pair (a1, a2) reaches the self-test as the
    projectors (I +/- A)/2, which MeasurementSet validates."""

    def test_rejects_non_dichotomic(self):
        with pytest.raises(ValidationError, match="party 1: projector not idempotent"):
            measurements_from_observables([(np.diag([1.0, 0.5]), np.diag([1.0, -1.0]))])

    def test_rejects_non_hermitian(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="party 1: projector not Hermitian"):
            measurements_from_observables([(a, np.diag([1.0, -1.0]))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["a1", "a2"])
    def test_rejects_non_finite(self, bad, which):
        # NaN fails every norm comparison, so only an explicit check stops it
        mats = {"a1": np.diag([1.0, -1.0]), "a2": np.array([[0.0, 1.0], [1.0, 0.0]])}
        mats[which] = np.full((2, 2), bad)
        with pytest.raises(ValidationError, match="finite"):
            measurements_from_observables([(mats["a1"], mats["a2"])])


class TestCanonicalObservables:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_match_outer_product_oracle(self, n):
        # the canonical measurements' observables 2 P(+) - I are Z and
        # 2|+><+| - I, as built from outer products
        pair = MeasurementPair.from_alpha_sq(pmax(n).t)
        z = np.diag([1.0, -1.0]).astype(complex)
        d = 2.0 * np.outer(pair.ket_plus, pair.ket_plus.conj()) - np.eye(2)
        ms = canonical_measurements(n)
        assert isinstance(ms, MeasurementSet)
        assert ms.dims == (2,) * n
        for settings in ms.projectors:
            (u_plus, _), (d_plus, _) = settings
            assert np.array_equal(2.0 * u_plus - np.eye(2), z)
            assert np.array_equal(2.0 * d_plus - np.eye(2), d)


class TestJordanBlocks:
    def test_single_qubit_block(self):
        z, d = qubit_pair_observables(0.6)
        (block,) = jordan_blocks(measurements_from_observables([(z, d)]), 0)
        assert block.angle is not None
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
            ms = measurements_from_observables([(u @ a1 @ u.conj().T,
                                                 u @ a2 @ u.conj().T)])
            angles = sorted(b.angle for b in jordan_blocks(ms, 0))
            want = sorted(math.acos(2 * a - 1) for a in (a2_1, a2_2))
            assert len(angles) == 2
            assert max(abs(a - b) for a, b in zip(angles, want)) < 1e-9

    def test_reads_the_named_party(self):
        z, d = qubit_pair_observables(0.6)
        ms = measurements_from_observables([(z, z), (z, d)])
        assert all(b.angle is None for b in jordan_blocks(ms, 0))
        (block,) = jordan_blocks(ms, 1)
        assert abs(math.cos(block.angle) - (2 * 0.6 - 1)) < 1e-12

    def test_commuting_pair_degenerate(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        blocks = jordan_blocks(measurements_from_observables([(z, z)]), 0)
        assert len(blocks) == 2
        assert all(b.angle is None for b in blocks)
        signs = sorted(b.signs for b in blocks)
        assert signs == [(-1, -1), (1, 1)]

    def test_block_completeness(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            _, ms, _ = embedded_hardy_setup(rng, (2, 2, 2))
            for party, dim in enumerate(ms.dims):
                blocks = jordan_blocks(ms, party)
                total = sum(b.basis @ b.basis.conj().T for b in blocks)
                assert np.linalg.norm(total - np.eye(dim)) < 1e-9

    def test_canonical_frame_inside_blocks(self):
        rng = np.random.default_rng(8)
        _, ms, _ = embedded_hardy_setup(rng, (2, 1, 2))
        for party in range(3):
            a1, a2 = observable_pair(ms, party)
            for block in jordan_blocks(ms, party):
                if block.angle is None:
                    continue
                b = block.basis
                a1r = b.conj().T @ a1 @ b
                a2r = b.conj().T @ a2 @ b
                c, s = math.cos(block.angle), math.sin(block.angle)
                assert np.linalg.norm(a1r - np.diag([1.0, -1.0])) < 1e-9
                assert np.linalg.norm(a2r - np.array([[c, s], [s, -c]])) < 1e-9


class TestSelfTestReport:
    def test_exact_state_canonical_observables(self):
        psi = hardy_state(3, [MeasurementPair.from_alpha_sq(pmax(3).t)] * 3)
        report = selftest_report(psi, canonical_measurements(3))
        assert abs(report.total_fidelity - 1.0) < 1e-9
        assert report.junk_dims == (1, 1, 1)
        assert report.degenerate_weight == 0.0

    def test_degenerate_block_weight(self, tmp_path):
        # each party holds a qutrit: the canonical qubit pair on span{|0>,
        # |1>} and a third direction on which both observables are +1; a
        # weight delta on |222> moves the statistics by at most delta
        delta = 1e-9
        t = pmax(3).t
        qubit = hardy_state(3, [MeasurementPair.from_alpha_sq(t)] * 3).tensor()
        amps = np.zeros((3, 3, 3), dtype=complex)
        amps[:2, :2, :2] = math.sqrt(1.0 - delta) * qubit
        amps[2, 2, 2] = math.sqrt(delta)
        observables = []
        for a in qubit_pair_observables(t):
            full = np.eye(3, dtype=complex)
            full[:2, :2] = a
            observables.append(full)
        state = StateVector((3, 3, 3), amps.reshape(-1))
        report = selftest_report(state, measurements_from_observables([observables] * 3))
        assert abs(report.degenerate_weight - delta) < 1e-12
        assert abs(report.total_fidelity - (1.0 - delta)) < 1e-12

        def matrix(a):
            return {"re": a.real.tolist(), "im": a.imag.tolist()}

        spec, obs, out = (tmp_path / name for name in ("spec.json", "obs.json", "report.txt"))
        spec.write_text(json.dumps({"schema": 1, "n": 3, "amplitudes": dict(
            matrix(state.amps), dims=[3, 3, 3])}))
        obs.write_text(json.dumps({"schema": 1, "parties": [
            {"a1": matrix(observables[0]), "a2": matrix(observables[1])}] * 3}))
        assert main(["selftest", "--state", str(spec), "--observables", str(obs),
                     "--out", str(out)]) == 0
        assert "degenerate_weight 0.000000001000" in out.read_text().splitlines()

    def test_embedded_junk_certified(self):
        rng = np.random.default_rng(11)
        for junk_dims in ((2, 2, 2), (1, 2, 1), (2, 1, 2)):
            state, ms, _ = embedded_hardy_setup(rng, junk_dims)
            report = selftest_report(state, ms)
            assert report.total_fidelity >= 1.0 - 1e-6
            assert report.junk_dims == junk_dims
            assert abs(report.block_weights.sum() - 1.0) < 1e-8

    def test_mixed_junk_certified(self):
        # classically mixed junk under the same hidden unitaries, certified
        # through its purification: an ancilla qubit held by party 1
        rng = np.random.default_rng(13)
        state_a, ms, us = embedded_hardy_setup(rng, (2, 2, 2))
        junk_b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        state_b, _, _ = embedded_hardy_setup(rng, (2, 2, 2), junk=junk_b,
                                             unitaries=us)
        rho = 0.6 * state_a.density() + 0.4 * state_b.density()
        with pytest.raises(ValidationError):
            selftest_report(rho, ms)
        # sqrt(0.6) |a>|0> + sqrt(0.4) |b>|1>, the ancilla beside party 1
        full = np.stack([math.sqrt(0.6) * state_a.tensor(),
                         math.sqrt(0.4) * state_b.tensor()], axis=1)
        purified = StateVector((8, 4, 4), full.reshape(-1))
        eye = np.eye(2)
        obs = [observable_pair(ms, party) for party in range(3)]
        obs[0] = tuple(np.kron(a, eye) for a in obs[0])
        report = selftest_report(purified, measurements_from_observables(obs))
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
        report = selftest_report(psi, canonical_measurements(n))
        assert abs(report.total_fidelity - 1.0) < 1e-9

    def test_requires_a_measurement_set(self):
        # raw observable pairs are not validated input
        psi = hardy_state(3, [MeasurementPair.from_alpha_sq(pmax(3).t)] * 3)
        pairs = [observable_pair(canonical_measurements(3), p) for p in range(3)]
        with pytest.raises(ValidationError, match="expected a MeasurementSet, got list"):
            selftest_report(psi, pairs)

    def test_product_state_rejected(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        psi = StateVector((2, 2, 2), amps)
        with pytest.raises(HypothesisUnmetError):
            selftest_report(psi, canonical_measurements(3))

    def test_weight_consistency_full_space_traces(self):
        rng = np.random.default_rng(17)
        state, ms, _ = embedded_hardy_setup(rng, (2, 2, 2))
        report = selftest_report(state, ms)
        rho = state.density()
        decomps = report.decompositions
        # weights recomputed as Tr(rho P1 x P2 x P3) over block projectors
        for i, bi in enumerate(decomps[0]):
            for j, bj in enumerate(decomps[1]):
                for k, bk in enumerate(decomps[2]):
                    proj = np.kron(np.kron(bi.basis @ bi.basis.conj().T,
                                           bj.basis @ bj.basis.conj().T),
                                   bk.basis @ bk.basis.conj().T)
                    want = float(np.trace(rho @ proj).real)
                    assert abs(report.block_weights[i, j, k] - want) < 1e-8

    def test_fidelity_invariant_under_extra_unitaries(self):
        rng = np.random.default_rng(19)
        state, ms, _ = embedded_hardy_setup(rng, (2, 2, 2))
        base = selftest_report(state, ms).total_fidelity
        tensor = state.tensor()
        new_obs = []
        for p in range(3):
            u = haar_unitary(4, rng)
            new_obs.append(tuple(u @ a @ u.conj().T for a in observable_pair(ms, p)))
            tensor = np.tensordot(u, tensor, axes=([1], [p]))
            tensor = np.moveaxis(tensor, 0, p)
        rotated = StateVector(state.dims, tensor.reshape(-1))
        again = selftest_report(rotated, measurements_from_observables(new_obs)).total_fidelity
        assert abs(base - again) < 1e-9

    def test_twenty_random_trials(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            junk_dims = tuple(int(d) for d in rng.integers(1, 3, size=3))
            state, ms, _ = embedded_hardy_setup(rng, junk_dims)
            report = selftest_report(state, ms)
            assert report.total_fidelity >= 1.0 - 1e-6, (trial, junk_dims)
