"""Dense linear-algebra kernels used by every other module.

Hermitian and real symmetric spectra come from LAPACK through
``numpy.linalg.eigh`` and ``eigvalsh``.  The cyclic Jacobi solver
``eig_sym`` (round-robin rounds of disjoint index pairs, each round
applied as one dense orthogonal factor) is kept only as the labelled
cross-check that the tests compare LAPACK's spectra with; no production
path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, SizeError, ValidationError

# Sweep convergence: off-diagonal Frobenius mass relative to ||a||_F.
OFF_DIAG_TARGET = 1e-12
MAX_SWEEPS = 60
MAX_KRON_ENTRIES = 1 << 26


@dataclass(frozen=True)
class SymEigResult:
    """Eigenvalues in ascending order, eigenvectors as orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def round_robin_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition all index pairs of range(n) into rounds of disjoint pairs.

    Circle-method schedule: n-1 rounds for even n (n rounds for odd n via
    a dummy seat), every pair appearing exactly once.
    """
    seats = list(range(n))
    if n % 2 == 1:
        seats.append(-1)
    m = len(seats)
    rounds = []
    arr = seats[:]
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = arr[i], arr[m - 1 - i]
            if a != -1 and b != -1:
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.array(ps, dtype=int), np.array(qs, dtype=int)))
        arr = [arr[0]] + [arr[-1]] + arr[1:-1]
    return rounds


def _off_diag_norm(a: np.ndarray) -> float:
    # Summing a*a and subtracting the diagonal cancels catastrophically
    # near convergence, so zero the diagonal out instead.
    m = a.copy()
    np.fill_diagonal(m, 0.0)
    return float(np.linalg.norm(m))


def jacobi_rotate(a: np.ndarray, v: np.ndarray, rounds, target: float,
                  max_sweeps: int = MAX_SWEEPS) -> bool:
    """Run Jacobi sweeps in place on ``a`` accumulating rotations into ``v``.

    Returns True once the off-diagonal Frobenius mass is at most ``target``.
    """
    n = a.shape[0]
    if n < 2:
        return True
    for _ in range(max_sweeps):
        off = _off_diag_norm(a)
        if off <= target:
            return True
        # Entries below this cannot delay convergence within one sweep.
        skip = off / (n * n) * 1e-2
        for ps, qs in rounds:
            apq = a[ps, qs]
            act = np.abs(apq) > skip
            if not np.any(act):
                continue
            p, q = ps[act], qs[act]
            apq = a[p, q]
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t = np.where(theta == 0.0, 1.0, t)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            jrot = np.eye(n)
            jrot[p, p] = c
            jrot[q, q] = c
            jrot[p, q] = s
            jrot[q, p] = -s
            np.matmul(jrot.T @ a, jrot, out=a)
            np.matmul(v, jrot, out=v)
        # Rotations only approximately preserve symmetry in floats.
        a += a.T
        a *= 0.5
    return _off_diag_norm(a) <= target


def _symmetrised(a: np.ndarray, tol: float, dtype) -> tuple[np.ndarray, float]:
    """(a + a^H)/2 and ||a||_F after checking ``a`` is square, finite and
    Hermitian within ``tol``.  NaN compares false, so it would pass the
    Hermitian check, and LAPACK returns a spectrum for it without error."""
    a = np.array(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    scale = float(np.linalg.norm(a))
    if np.linalg.norm(a - a.conj().T) > tol * max(scale, 1.0):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return 0.5 * (a + a.conj().T), scale


def _lapack(fn, a: np.ndarray):
    """Call a ``numpy.linalg`` routine, reporting its failure as NumericError."""
    try:
        return fn(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"LAPACK {fn.__name__} failed: {exc}") from exc


def eig_sym(a: np.ndarray, tol: float = 1e-10) -> SymEigResult:
    """Eigendecomposition of a real symmetric matrix by cyclic Jacobi.

    Cross-check only: production spectra come from ``numpy.linalg``, and
    the tests compare them with this independent solver.
    """
    a, scale = _symmetrised(a, tol, float)
    n = a.shape[0]
    v = np.eye(n)
    if not jacobi_rotate(a, v, round_robin_rounds(n), OFF_DIAG_TARGET * max(scale, 1e-300)):
        raise NumericError(f"Jacobi did not converge in {MAX_SWEEPS} sweeps (n={n})")
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return SymEigResult(eigenvalues=w[order], eigenvectors=v[:, order])


def psd_project(a: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) positive semidefinite matrix to a symmetric ``a``."""
    w, v = _lapack(np.linalg.eigh, _symmetrised(a, 1e-10, float)[0])
    return (v * np.maximum(w, 0.0)) @ v.T


def eig_herm(h: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a complex Hermitian matrix by LAPACK ``eigh``.

    Returns (eigenvalues ascending, orthonormal complex eigenvector columns).
    """
    return _lapack(np.linalg.eigh, _symmetrised(h, tol, complex)[0])


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product with a desk-scale size guard."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size * b.size > MAX_KRON_ENTRIES:
        raise SizeError(
            f"kron result would hold {a.size * b.size} entries "
            f"(cap {MAX_KRON_ENTRIES})")
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all parties not listed in ``keep`` (0-based indices)."""
    dims = tuple(int(d) for d in dims)
    rho = np.asarray(rho)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValidationError(
            f"density matrix shape {rho.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValidationError(f"keep indices {keep} out of range for {len(dims)} parties")
    n = len(dims)
    t = rho.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for off, i in enumerate(sorted(traced, reverse=True)):
        cur = n - off
        t = np.trace(t, axis1=i, axis2=cur + i)
    dk = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(dk, dk)


def schmidt_spectrum(psi: StateVector, bipartition) -> np.ndarray:
    """Eigenvalues (descending) of the reduced state on ``bipartition``.

    Computed from the Gram matrix of the reshaped amplitude matrix; the
    ``partial_trace`` route is the independent cross-check used in tests.
    """
    keep = sorted(set(int(k) for k in bipartition))
    n = psi.n_parties
    if any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"bipartition {keep} out of range")
    if len(keep) == 0 or len(keep) == n:
        raise ValidationError("bipartition must be a proper nonempty subset")
    rest = [i for i in range(n) if i not in keep]
    t = psi.tensor().transpose(keep + rest)
    da = int(np.prod([psi.dims[k] for k in keep]))
    m = t.reshape(da, -1)
    vals = _lapack(np.linalg.eigvalsh, m @ m.conj().T)
    vals = np.clip(vals[::-1], 0.0, None)
    s = vals.sum()
    if abs(s - 1.0) > 1e-10:
        raise NumericError(f"Schmidt spectrum sums to {s!r}, not 1")
    return vals
