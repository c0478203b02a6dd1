import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from closed_forms import optimal_alpha_sq_tripartite, success_prob_closed
from conftest import random_pairs, random_state
from gram_schmidt import hardy_state as gram_schmidt_state
from gram_schmidt import product_basis
from schmidt_spectrum import schmidt_spectrum
from tripartite import tripartite_explicit
from hardylab.behavior import measurements_from_pairs
from hardylab.cli import load_observables, load_state_spec
from hardylab.errors import ValidationError
from hardylab.linalg import StateVector
from hardylab.npa import check_level, monomial_list
from hardylab.polytope import NS_MAX_PARTIES, local_max, nosignaling_max
from hardylab.selftest import selftest_report
from hardylab.states import (CUT_BATCH, MAX_PARTIES, MeasurementPair, hardy_state,
                             is_genuinely_entangled, pmax)

# Bipartite optimum, analytic: t = (sqrt(5)-1)/2, p = (5*sqrt(5)-11)/2.
T2 = (math.sqrt(5.0) - 1.0) / 2.0
P2 = (5.0 * math.sqrt(5.0) - 11.0) / 2.0


def cuts(n):
    """(kept parties, the rest) for every bipartition, the last party in the rest."""
    for mask in range(1, 2 ** (n - 1)):
        yield ([i for i in range(n) if (mask >> i) & 1],
               [i for i in range(n) if not (mask >> i) & 1])


def per_cut_genuinely_entangled(psi, tol):
    """Cross-check for ``is_genuinely_entangled``: the loop it replaced, one
    ``schmidt_spectrum`` of the kept side per bipartition."""
    for keep, _ in cuts(psi.n_parties):
        spec = schmidt_spectrum(psi, keep)
        if len(spec) < 2 or spec[1] <= tol:
            return False
    return True


def second_schmidt_coefficients(psi):
    return [schmidt_spectrum(psi, keep)[1] for keep, _ in cuts(psi.n_parties)]


def joined_state(dims, keep, rest, t):
    """State on ``dims`` from a tensor whose axes run over ``keep + rest``."""
    t = t.reshape([dims[i] for i in keep + rest]).transpose(np.argsort(keep + rest))
    return StateVector(dims, t)


def orthonormal_pair(rng, d):
    g = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    return np.linalg.qr(g)[0].T


def three_qubit_closed_form(pair):
    """Independent evaluation of the symmetric closed-form amplitudes."""
    a = abs(pair.alpha)
    b = abs(pair.beta)
    beta = pair.beta
    norm = math.sqrt(1.0 - a ** 6)
    ph = np.conj(pair.alpha) / a
    c = [a ** 3 * b ** 3 / norm,
         -beta * a ** 4 * b / norm * ph,
         beta ** 2 * a ** 5 / (b * norm) * ph ** 2,
         beta ** 3 * norm / b ** 3 * ph ** 3]
    amps = np.array([c[bin(i).count("1")] for i in range(8)], dtype=complex)
    return amps


class TestMeasurementPair:
    def test_rejects_unnormalised(self):
        with pytest.raises(ValidationError):
            MeasurementPair(0.9, 0.9)

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError, match="commute"):
            MeasurementPair(1.0, 0.0)
        with pytest.raises(ValidationError, match="commute"):
            MeasurementPair(0.0, 1.0)

    def test_kets_orthonormal(self):
        p = MeasurementPair(0.6 * np.exp(0.3j), 0.8 * np.exp(-1.1j))
        assert abs(np.vdot(p.ket_plus, p.ket_minus)) < 1e-15
        assert abs(np.linalg.norm(p.ket_minus) - 1.0) < 1e-15

    def test_projectors_are_rank1_projections(self):
        rng = np.random.default_rng(31)
        pairs = random_pairs(rng, 20) + random_pairs(rng, 5, complex_phases=False)
        pairs += [MeasurementPair.from_alpha_sq(pmax(n).t) for n in range(2, 9)]
        for pair in pairs:
            for plus, minus in pair.projectors:
                assert np.linalg.norm(plus + minus - np.eye(2)) < 1e-15
                for proj in (plus, minus):
                    assert proj.shape == (2, 2) and proj.dtype == complex
                    assert np.linalg.norm(proj - proj.conj().T) < 1e-15
                    assert np.linalg.norm(proj @ proj - proj) < 1e-15
                    assert abs(np.trace(proj) - 1.0) < 1e-15
                    assert np.linalg.matrix_rank(proj) == 1
            # D's '+' projector is |+><+|, U's is |0><0|
            plus_d = pair.projectors[1][0]
            assert np.linalg.norm(plus_d @ pair.ket_plus - pair.ket_plus) < 1e-15
            assert np.array_equal(pair.projectors[0][0], np.diag([1.0, 0.0]))


class TestProductBasis:
    """The Gram-Schmidt oracle's basis (tests/gram_schmidt.py) stays right."""

    def test_all_bits_one_is_computational_zero(self):
        pairs = [MeasurementPair.from_alpha_sq(0.5)] * 2
        basis = product_basis(2, pairs)
        want = np.zeros(4)
        want[0] = 1.0
        assert np.allclose(basis.phi(3).amps, want)

    def test_phi_minus_orthogonality(self):
        pairs = [MeasurementPair.from_alpha_sq(0.5)] * 2
        basis = product_basis(2, pairs)
        phi0 = np.kron(pairs[0].ket_plus, pairs[1].ket_plus)
        for vec in (phi0, basis.phi(1).amps, basis.phi(2).amps):
            assert abs(np.vdot(basis.phi_minus.amps, vec)) < 1e-12

    def test_gram_determinant_nonzero(self):
        pairs = [MeasurementPair.from_alpha_sq(0.543689)] * 3
        basis = product_basis(3, pairs)
        mat = np.stack([v.amps for v in basis.vectors], axis=1)
        gram = mat.conj().T @ mat
        assert abs(np.linalg.det(gram)) > 1e-6

    def test_scenario_guard(self):
        with pytest.raises(ValidationError, match=r"n=1 outside"):
            product_basis(1, [MeasurementPair.from_alpha_sq(0.5)])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matrix_matches_per_vector_kron_loop(self, n):
        # Cross-check: one kron chain per basis vector, party i supplying
        # bit 2^(i-1) of k; the matrix must agree bit for bit
        rng = np.random.default_rng(100 + n)
        pairs = random_pairs(rng, n)
        assert all(p.alpha.imag != 0.0 and p.beta.imag != 0.0 for p in pairs)
        ket0 = np.array([1.0, 0.0], dtype=complex)

        def chain(factors):
            amps = np.ones(1, dtype=complex)
            for f in factors:
                amps = np.kron(amps, f)
            return amps

        want = [chain(p.ket_minus for p in pairs)]
        for k in range(1, 2 ** n):
            want.append(chain(ket0 if (k >> i) & 1 else pairs[i].ket_plus
                              for i in range(n)))
        basis = product_basis(n, pairs)
        assert basis.matrix.shape == (2 ** n, 2 ** n)
        assert not basis.matrix.flags.writeable
        for k, vec in enumerate(want):
            assert basis.matrix[:, k].tobytes() == vec.tobytes()
        assert basis.phi_minus.amps.tobytes() == want[0].tobytes()
        for k in range(1, 2 ** n):
            assert basis.phi(k).amps.tobytes() == want[k].tobytes()
        vectors = basis.vectors
        assert len(vectors) == 2 ** n
        for vec, w in zip(vectors, want):
            assert vec.dims == (2,) * n and vec.amps.tobytes() == w.tobytes()


class TestHardyState:
    def test_bipartite_optimum_overlap(self):
        pairs = [MeasurementPair.from_alpha_sq(0.618034)] * 2
        psi = hardy_state(2, pairs)
        ket00 = np.zeros(4)
        ket00[0] = 1.0
        assert abs(abs(np.vdot(psi.amps, ket00)) ** 2 - 0.0901699) < 1e-6

    def test_tripartite_matches_closed_form(self):
        pairs = [MeasurementPair.from_alpha_sq(0.543689)] * 3
        psi = hardy_state(3, pairs)
        want = three_qubit_closed_form(pairs[0])
        # same global phase convention: <psi|000> real positive
        assert np.linalg.norm(psi.amps - want) < 1e-9

    def test_orthogonality_to_excluded_subspace(self):
        rng = np.random.default_rng(42)
        for n in range(2, 9):
            pairs = random_pairs(rng, n)
            psi = hardy_state(n, pairs)
            basis = product_basis(n, pairs)
            assert abs(np.vdot(basis.phi_minus.amps, psi.amps)) <= 1e-12
            overlaps = basis.matrix[:, 1:-1].conj().T @ psi.amps
            assert np.max(np.abs(overlaps)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_gram_schmidt_oracle(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(6):
            pairs = random_pairs(rng, n, complex_phases=True)
            psi = hardy_state(n, pairs)
            assert psi.dims == (2,) * n
            assert np.max(np.abs(psi.amps - gram_schmidt_state(n, pairs).amps)) <= 1e-13

    def test_large_n_allocates_no_square_matrix(self):
        # the 2^n x 2^n basis at n = 12 would be 256 MiB; allow eight vectors
        pairs = [MeasurementPair.from_alpha_sq(pmax(12).t)] * 12
        tracemalloc.start()
        try:
            hardy_state(12, pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * 2 ** 12

    def test_phase_convention(self):
        rng = np.random.default_rng(1)
        for n in (3, 2, 4, 5):
            pairs = random_pairs(rng, n)
            psi = hardy_state(n, pairs)
            overlap = psi.amps[0]  # <0..0|psi>; phi_{2^n - 1} is |0..0>
            assert overlap.real > 0 and abs(overlap.imag) < 1e-12


class TestSuccessProbClosed:
    def test_half_half(self):
        pairs = [MeasurementPair.from_alpha_sq(0.5)] * 2
        assert abs(success_prob_closed(pairs) - 1.0 / 12.0) < 1e-12

    def test_bipartite_golden_ratio(self):
        pairs = [MeasurementPair.from_alpha_sq(0.618034)] * 2
        assert abs(success_prob_closed(pairs) - 0.0901699) < 1e-6

    def test_tripartite_value(self):
        pairs = [MeasurementPair.from_alpha_sq(0.543689)] * 3
        assert abs(success_prob_closed(pairs) - 0.0181940) < 1e-6

    def test_matches_construction_overlap(self):
        rng = np.random.default_rng(5)
        for n in range(2, 13):
            for _ in range(20):
                pairs = random_pairs(rng, n)
                psi = hardy_state(n, pairs)
                ket = np.zeros(2 ** n)
                ket[0] = 1.0
                overlap = abs(np.vdot(psi.amps, ket)) ** 2
                assert abs(success_prob_closed(pairs) - overlap) < 1e-10


class TestPmax:
    def test_bipartite_analytic(self):
        res = pmax(2)
        assert abs(res.t - T2) < 1e-12
        assert abs(res.p_max - P2) < 1e-12

    def test_tripartite(self):
        res = pmax(3)
        assert abs(res.t ** 4 - 2 * res.t + 1) < 1e-12
        assert f"{res.p_max:.6f}".startswith("0.018")
        assert abs(res.p_max - 0.0181940) < 1e-6

    def test_four_parties(self):
        res = pmax(4)
        assert abs(res.t ** 5 - 2 * res.t + 1) < 1e-12
        assert res.p_max < pmax(3).p_max

    def test_strictly_decreasing(self):
        vals = [pmax(n).p_max for n in range(2, 7)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_upper_bounds_random_pairs(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4):
            bound = pmax(n).p_max
            for _ in range(50):
                pairs = random_pairs(rng, n)
                assert success_prob_closed(pairs) <= bound + 1e-12

    def test_scenario_guard(self):
        with pytest.raises(ValidationError, match=r"n=1 outside"):
            pmax(1)
        with pytest.raises(ValidationError, match=r"n=13 outside"):
            pmax(13)


class TestOptimalAlphaSq:
    def test_equals_pmax_root(self):
        assert abs(optimal_alpha_sq_tripartite() - pmax(3).t) < 1e-9

    def test_cubic_residual(self):
        x = optimal_alpha_sq_tripartite()
        assert abs(x ** 3 + x ** 2 + x - 1.0) < 1e-12

    def test_range(self):
        assert 0.0 < optimal_alpha_sq_tripartite() < 1.0


class TestTripartiteExplicit:
    def test_reference_coefficients(self):
        pair = MeasurementPair.from_alpha_sq(0.543689)
        amps = tripartite_explicit(pair).amps
        assert abs(amps[0] - 0.134883) < 1e-5
        assert abs(amps[7] - 0.916126) < 1e-5

    def test_c0_squared_is_success_probability(self):
        pair = MeasurementPair.from_alpha_sq(0.543689)
        psi = tripartite_explicit(pair)
        assert abs(abs(psi.amps[0]) ** 2 - 0.0181934) < 1e-5
        assert abs(abs(psi.amps[0]) ** 2 - success_prob_closed([pair] * 3)) < 1e-12

    def test_matches_gram_schmidt_construction(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            pair = random_pairs(rng, 1)[0]
            psi = tripartite_explicit(pair)
            ref = gram_schmidt_state(3, [pair] * 3)
            phase = np.vdot(ref.amps, psi.amps)
            phase /= abs(phase)
            assert np.linalg.norm(psi.amps - phase * ref.amps) < 1e-9


class TestGenuineEntanglement:
    def test_product_state_false(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        assert not is_genuinely_entangled(StateVector((2, 2, 2), amps))

    def test_ghz_true(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = 1 / np.sqrt(2)
        assert is_genuinely_entangled(StateVector((2, 2, 2), amps))

    def test_biseparable_false(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        amps = np.kron(bell, np.array([1.0, 0.0], dtype=complex))
        assert not is_genuinely_entangled(StateVector((2, 2, 2), amps))

    def test_hardy_states_true(self):
        for n in (2, 3, 4):
            pairs = [MeasurementPair.from_alpha_sq(pmax(n).t)] * n
            assert is_genuinely_entangled(hardy_state(n, pairs), tol=1e-3)

    def test_single_party_rejected(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValidationError):
            is_genuinely_entangled(StateVector((2,), amps))

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_non_finite_tol(self, tol):
        # such a tol decides every cut the same way, so a product state
        # would read as genuinely entangled (NaN, negative) or a GHZ state
        # as not (inf)
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            is_genuinely_entangled(StateVector((2, 2, 2), amps), tol)

    def test_zero_tol_allowed(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = 1 / np.sqrt(2)
        assert is_genuinely_entangled(StateVector((2, 2, 2), amps), 0.0)


class TestBatchedCutSpectra:
    @pytest.mark.parametrize("dims", [(2,) * n for n in range(2, 8)]
                             + [(2, 3, 4), (3, 2, 2, 2)])
    def test_random_states_match_per_cut_oracle(self, dims):
        # tol just below and just above the weakest cut's second Schmidt
        # coefficient puts that cut on each side of the threshold
        rng = np.random.default_rng([400, *dims])
        for _ in range(3):
            psi = random_state(rng, dims)
            weakest = min(second_schmidt_coefficients(psi))
            for tol, want in ((1e-9, True), (weakest * (1 - 1e-6), True),
                              (weakest * (1 + 1e-6), False)):
                assert per_cut_genuinely_entangled(psi, tol) is want
                assert is_genuinely_entangled(psi, tol) is want

    @pytest.mark.parametrize("dims", [(2,) * 5, (3, 2, 2, 2), (2, 3, 4)])
    def test_product_across_one_cut(self, dims):
        rng = np.random.default_rng([410, *dims])
        for keep, rest in cuts(len(dims)):
            a = random_state(rng, [dims[i] for i in keep])
            b = random_state(rng, [dims[i] for i in rest])
            psi = joined_state(dims, keep, rest, np.outer(a.amps, b.amps))
            # every other cut stays entangled
            assert sum(c <= 1e-9 for c in second_schmidt_coefficients(psi)) == 1
            assert not per_cut_genuinely_entangled(psi, 1e-9)
            assert not is_genuinely_entangled(psi)

    @pytest.mark.parametrize("dims", [(2,) * 4, (2, 3, 4)])
    def test_second_coefficient_at_tol(self, dims):
        # sqrt(1 - s) a0 b0 + sqrt(s) a1 b1 has Schmidt coefficients
        # (1 - s, s) across the cut; s misses tol by 1e-12, far above the
        # round-off of either spectrum
        tol = 1e-6
        rng = np.random.default_rng([420, *dims])
        for keep, rest in cuts(len(dims)):
            a = orthonormal_pair(rng, math.prod(dims[i] for i in keep))
            b = orthonormal_pair(rng, math.prod(dims[i] for i in rest))
            for s, want in ((tol * (1 + 1e-6), True), (tol * (1 - 1e-6), False)):
                t = (math.sqrt(1 - s) * np.outer(a[0], b[0])
                     + math.sqrt(s) * np.outer(a[1], b[1]))
                psi = joined_state(dims, keep, rest, t)
                assert per_cut_genuinely_entangled(psi, tol) is want
                assert is_genuinely_entangled(psi, tol) is want

    def test_one_dimensional_side_is_product(self):
        psi = random_state(np.random.default_rng(430), (2, 1, 3))
        assert not per_cut_genuinely_entangled(psi, 1e-9)
        assert not is_genuinely_entangled(psi)

    def test_hardy_state_needs_no_spectrum(self, monkeypatch):
        # every cut's purity is far from 1, which rules out a second Schmidt
        # coefficient below tol without an eigensolver
        psi = hardy_state(10, [MeasurementPair.from_alpha_sq(pmax(10).t)] * 10)

        def no_spectrum(a):
            raise AssertionError("eigvalsh called for a genuinely entangled state")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_spectrum)
        assert is_genuinely_entangled(psi)

    def test_memory_bounded_by_batch(self):
        # one batch of CUT_BATCH cuts holds their blocks, the blocks'
        # conjugates and Gram matrices of at most the state's size each
        psi = hardy_state(10, [MeasurementPair.from_alpha_sq(pmax(10).t)] * 10)
        tracemalloc.start()
        try:
            assert is_genuinely_entangled(psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (3 * CUT_BATCH + 8) * psi.amps.nbytes


def written(tmp_path, doc) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return str(path)


HALF = MeasurementPair.from_alpha_sq(0.5)
# every entry point that reads a party count n: (call at n, top of its range)
PARTY_COUNT_ENTRIES = {
    "hardy_state": (lambda n, tmp: hardy_state(n, [HALF] * n), MAX_PARTIES),
    "pmax": (lambda n, tmp: pmax(n), MAX_PARTIES),
    "monomial_list": (lambda n, tmp: monomial_list(n, 1), MAX_PARTIES),
    "check_level": (lambda n, tmp: check_level(n, n), MAX_PARTIES),
    "selftest_report": (lambda n, tmp: selftest_report(
        None, measurements_from_pairs([HALF] * n)), MAX_PARTIES),
    "load_state_spec": (lambda n, tmp: load_state_spec(
        written(tmp, {"schema": 1, "n": n})), MAX_PARTIES),
    "load_observables": (lambda n, tmp: load_observables(
        written(tmp, {"schema": 1, "parties": [{}] * n})), MAX_PARTIES),
    "local_max": (lambda n, tmp: local_max(n, 0.1), MAX_PARTIES),
    "nosignaling_max": (lambda n, tmp: nosignaling_max(n, 0.1), NS_MAX_PARTIES),
}


class TestScenarioChecks:
    @pytest.mark.parametrize("entry", PARTY_COUNT_ENTRIES)
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_party_count_one_message(self, tmp_path, entry, side):
        call, top = PARTY_COUNT_ENTRIES[entry]
        n = 1 if side == "below" else top + 1
        # the file readers prefix the path
        with pytest.raises(ValidationError, match=re.escape(f"n={n} outside [2, {top}]") + "$"):
            call(n, tmp_path)
