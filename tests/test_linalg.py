import numpy as np
import pytest

from conftest import random_state
from eig_certificate import certified_error
from partial_trace import partial_trace
from schmidt_spectrum import schmidt_spectrum

from hardylab.errors import ValidationError
from hardylab.linalg import StateVector, eig_herm


def random_orthogonal_from_givens(n, n_rotations, rng):
    """Oracle helper: product of random Givens rotations."""
    q = np.eye(n)
    for _ in range(n_rotations):
        i, j = rng.choice(n, size=2, replace=False)
        theta = rng.uniform(0, 2 * np.pi)
        g = np.eye(n)
        g[i, i] = g[j, j] = np.cos(theta)
        g[i, j] = np.sin(theta)
        g[j, i] = -np.sin(theta)
        q = q @ g
    return q


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def bell_state():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[3] = 1 / np.sqrt(2)
    return StateVector((2, 2), amps)


class TestEigSym:
    """``eig_herm`` on real symmetric matrices with known spectra."""

    # identity and Pauli X are exact in floating point, so their known
    # spectra must lie within the certified bound itself
    def test_identity(self):
        vals, vecs = eig_herm(np.eye(3))
        bound = certified_error(np.eye(3), vals, vecs)
        assert np.max(np.abs(vals - [1.0, 1.0, 1.0])) <= bound

    def test_pauli_x(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        vals, vecs = eig_herm(x)
        bound = certified_error(x, vals, vecs)
        assert np.max(np.abs(vals - [-1.0, 1.0])) <= bound

    def test_conjugated_diagonal(self):
        # Oracle: spectrum is invariant under orthogonal conjugation, so the
        # known diagonal fixes the expected eigenvalues exactly.
        rng = np.random.default_rng(11)
        diag = np.diag([5.0, -2.0, 0.0])
        q = random_orthogonal_from_givens(3, 20, rng)
        a = q @ diag @ q.T
        vals, vecs = eig_herm(a)
        certified_error(a, vals, vecs)
        assert np.allclose(vals, [-2.0, 0.0, 5.0], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 17, 60, 200])
    def test_reconstruction_and_orthonormality(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        a = a + a.T
        w, v = eig_herm(a)
        certified_error(a, w, v)
        scale = np.linalg.norm(a)
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-10 * scale
        for i in range(n):
            assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) <= 1e-10 * scale

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValidationError):
            eig_herm(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEigHerm:
    def test_matches_reconstruction(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        h = h + h.conj().T
        vals, vecs = eig_herm(h)
        assert np.linalg.norm((vecs * vals) @ vecs.conj().T - h) <= 1e-9 * np.linalg.norm(h)
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(12)) <= 1e-9

    def test_degenerate_clusters(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        q, _ = np.linalg.qr(g)
        want = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        h = (q * want) @ q.conj().T
        vals, vecs = eig_herm(h)
        assert np.allclose(vals, want, atol=1e-9)
        assert np.linalg.norm((vecs * vals) @ vecs.conj().T - h) <= 1e-9

    @pytest.mark.parametrize("d", [1, 2, 7, 16])
    def test_residual_certificate(self, d):
        # the certificate bounds the true spectrum, so it also bounds the
        # error of the eigenvalue-only LAPACK driver, up to that driver's
        # own round-off
        rng = np.random.default_rng(20 + d)
        h = random_hermitian(d, rng)
        vals, vecs = eig_herm(h)
        bound = certified_error(h, vals, vecs)
        assert bound <= 1e-12 * np.linalg.norm(h)
        only = np.linalg.eigvalsh(h)
        assert np.max(np.abs(only - vals)) <= bound + 1e-13 * np.linalg.norm(h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(1, 1), (0, 2)])
    def test_rejects_non_finite(self, bad, where):
        # NaN compares false, so only a finiteness check stops it before
        # LAPACK returns it as an eigenvalue
        h = random_hermitian(3, np.random.default_rng(8))
        h[where] = bad
        h[where[::-1]] = bad
        with pytest.raises(ValidationError):
            eig_herm(h)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eig_herm(np.array([[0.0, 1j], [1j, 0.0]]))


class TestPartialTrace:
    def test_product_state(self):
        ket = np.zeros(4)
        ket[0] = 1.0
        rho = np.outer(ket, ket)
        out = partial_trace(rho, [2, 2], keep=[0])
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_bell_state(self):
        rho = bell_state().density()
        out = partial_trace(rho, [2, 2], keep=[0])
        assert np.allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved_and_linear(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            rho = g @ g.conj().T
            rho /= np.trace(rho)
            g2 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            sig = g2 @ g2.conj().T
            sig /= np.trace(sig)
            for keep in ([0], [1], [2], [0, 2]):
                a = partial_trace(rho, [2, 2, 2], keep)
                assert abs(np.trace(a) - 1.0) < 1e-12
                b = partial_trace(sig, [2, 2, 2], keep)
                mix = partial_trace(0.25 * rho + 0.75 * sig, [2, 2, 2], keep)
                assert np.allclose(mix, 0.25 * a + 0.75 * b, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(4), [2, 3], keep=[0])


class TestSchmidtSpectrum:
    def test_product_state(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        spec = schmidt_spectrum(StateVector((2, 2, 2), amps), [0])
        assert np.allclose(spec, [1.0, 0.0], atol=1e-12)

    def test_ghz(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = amps[7] = 1 / np.sqrt(2)
        spec = schmidt_spectrum(StateVector((2, 2, 2), amps), [0])
        assert np.allclose(spec, [0.5, 0.5], atol=1e-12)

    def test_against_partial_trace_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            psi = random_state(rng, (2, 2, 2))
            for keep in ([0], [1], [0, 1]):
                spec = schmidt_spectrum(psi, keep)
                rho = partial_trace(psi.density(), psi.dims, keep)
                oracle = np.sort(np.linalg.eigvalsh(rho))[::-1]
                assert np.allclose(spec, oracle, atol=1e-10)
                assert abs(spec.sum() - 1.0) <= 1e-10

    @pytest.mark.parametrize("keep", [[2], [0, 3], [1, 2], [0, 1, 3]])
    def test_four_parties_against_partial_trace_oracle(self, keep):
        # the kept block has 2, 4 or 8 rows, so the Gram matrix is smaller,
        # equal to or larger than its complement's
        rng = np.random.default_rng(17 + len(keep))
        psi = random_state(rng, (2, 2, 2, 2))
        spec = schmidt_spectrum(psi, keep)
        rho = partial_trace(psi.density(), psi.dims, keep)
        oracle = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert spec.shape == (2 ** len(keep),)
        assert np.allclose(spec, oracle, rtol=0, atol=1e-12)

    def test_rejects_trivial_bipartition(self):
        psi = bell_state()
        with pytest.raises(ValidationError):
            schmidt_spectrum(psi, [])
        with pytest.raises(ValidationError):
            schmidt_spectrum(psi, [0, 1])


class TestStateVector:
    def test_rejects_unnormalised(self):
        with pytest.raises(ValidationError):
            StateVector((2,), np.array([1.0, 1.0]))

    def test_rejects_nan_amplitude(self):
        # a NaN norm passes any ordered comparison with the tolerance
        with pytest.raises(ValidationError):
            StateVector((2,), np.array([np.nan, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            StateVector((2, 2), np.array([1.0, 0.0]))
