"""Dense linear-algebra kernels used by every other module.

Hermitian spectra come from LAPACK through ``numpy.linalg.eigh`` and
``eigvalsh``.  The tests check each decomposition by its own residual
certificate rather than against a second eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError


@dataclass(frozen=True)
class StateVector:
    """Pure multipartite state: per-party dimensions plus flat amplitudes.

    Amplitudes are stored in C order over ``dims`` and must be normalised.
    Instances are treated as immutable.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        object.__setattr__(self, "amps", amps)
        if any(d < 1 for d in dims):
            raise ValidationError(f"bad local dimensions {dims}")
        size = int(np.prod(dims))
        if amps.size != size:
            raise ValidationError(
                f"amplitude length {amps.size} != product of dims {size}")
        nrm2 = float(np.vdot(amps, amps).real)
        # a NaN amplitude makes nrm2 NaN, which no comparison rejects
        if not abs(nrm2 - 1.0) <= 1e-12:
            raise ValidationError(f"state not normalised: |psi|^2 = {nrm2!r}")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def tensor(self) -> np.ndarray:
        return self.amps.reshape(self.dims)

    def density(self) -> np.ndarray:
        return np.outer(self.amps, self.amps.conj())


def _lapack(fn, a: np.ndarray):
    """Call a ``numpy.linalg`` routine, reporting its failure as NumericError."""
    try:
        return fn(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"LAPACK {fn.__name__} failed: {exc}") from exc


def eig_herm(h: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a complex Hermitian matrix by LAPACK ``eigh``.

    ``h`` must be square, finite and Hermitian within ``tol`` relative to
    max(||h||_F, 1); its Hermitian part is decomposed.  NaN compares
    false, so it would pass the Hermitian check, and LAPACK returns a
    spectrum for it without error.  Returns (eigenvalues ascending,
    orthonormal complex eigenvector columns).
    """
    h = np.array(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValidationError("matrix has non-finite entries")
    if np.linalg.norm(h - h.conj().T) > tol * max(float(np.linalg.norm(h)), 1.0):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return _lapack(np.linalg.eigh, 0.5 * (h + h.conj().T))
