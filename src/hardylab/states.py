"""Construction of n-qubit Hardy states and their success probabilities.

Each party j measures one of two non-commuting dichotomic observables.
The first has eigenbasis {|0>, |1>}, the second {|+>, |->} with

    |+> = alpha|0> + beta|1>,      |-> = beta*|0> - alpha*|1>,

|alpha|^2 + |beta|^2 = 1 and 0 < |alpha| < 1.  The Hardy point asks for
P(+..+|U..U) = p > 0 while the cyclic pair terms P(++|D_i, U_{i+1}) and
the all-minus term P(-..-|D..D) vanish.  A unique pure state satisfies
these conditions for every valid choice of observables; it is recovered
here by Gram-Schmidt orthogonalisation of an explicit product basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateMeasurementError, NumericError, ScenarioError,
                     ValidationError)
from .linalg import StateVector, schmidt_spectrum

MAX_PARTIES = 12


@dataclass(frozen=True)
class MeasurementPair:
    """One party's two dichotomic observables, encoded by (alpha, beta)."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        a = complex(self.alpha)
        b = complex(self.beta)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        if not (math.isfinite(a.real) and math.isfinite(a.imag)
                and math.isfinite(b.real) and math.isfinite(b.imag)):
            raise ValidationError("non-finite amplitudes")
        if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-12:
            raise ValidationError(
                f"|alpha|^2 + |beta|^2 = {abs(a)**2 + abs(b)**2!r}, expected 1")
        if abs(a) < 1e-7 or abs(a) > 1.0 - 1e-7:
            raise DegenerateMeasurementError(
                f"|alpha| = {abs(a)!r} makes the two observables commute")

    @classmethod
    def from_alpha_sq(cls, alpha_sq: float) -> "MeasurementPair":
        """Real pair with |alpha|^2 = alpha_sq, both amplitudes positive."""
        if not 0.0 < alpha_sq < 1.0:
            raise DegenerateMeasurementError(f"alpha_sq = {alpha_sq!r} not in (0, 1)")
        return cls(math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq))

    @property
    def ket_plus(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    @property
    def ket_minus(self) -> np.ndarray:
        return np.array([np.conj(self.beta), -np.conj(self.alpha)], dtype=complex)

    @property
    def projectors(self) -> tuple:
        """((|0><0|, |1><1|), (|+><+|, |-><-|)): projectors[setting][outcome]."""
        plus, minus = self.ket_plus, self.ket_minus
        return ((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
                (np.outer(plus, plus.conj()), np.outer(minus, minus.conj())))


@dataclass(frozen=True)
class ProductBasis:
    """The 2^n product vectors (phi_minus, phi_1, ..., phi_{2^n - 1}).

    phi_k tensors |0> (bit 1) or |+> (bit 0) per party, with party i
    supplying bit 2^(i-1) of k; phi_minus is |--...->.  phi_minus is
    orthogonal to phi_k for every k < 2^n - 1 and the listed vectors are
    linearly independent, so together they form a (non-orthogonal) basis.

    ``matrix`` is stored, read-only, as the 2^n x 2^n array whose column
    k is phi_k for k >= 1 and whose column 0 is phi_minus.
    """

    n: int
    matrix: np.ndarray

    def phi(self, k: int) -> StateVector:
        """phi_k for k in 1..2^n-1 (column 0 of ``matrix`` is phi_minus)."""
        if not 1 <= k <= 2 ** self.n - 1:
            raise ValidationError(f"k = {k} out of range")
        return StateVector((2,) * self.n, self.matrix[:, k])

    @property
    def phi_minus(self) -> StateVector:
        return StateVector((2,) * self.n, self.matrix[:, 0])

    @property
    def vectors(self) -> tuple[StateVector, ...]:
        """(phi_minus, phi_1, ..., phi_{2^n - 1}), one StateVector per column."""
        return tuple(StateVector((2,) * self.n, col) for col in self.matrix.T)


@dataclass(frozen=True)
class PmaxResult:
    """Optimal uniform |alpha|^2 = t and the maximal success probability."""

    n: int
    t: float
    p_max: float


@dataclass(frozen=True)
class TripartiteCoefficients:
    """Coefficients (c0, c1, c2, c3) of the symmetric three-qubit closed form."""

    c0: complex
    c1: complex
    c2: complex
    c3: complex

    def __post_init__(self):
        total = (abs(self.c0) ** 2 + 3 * abs(self.c1) ** 2
                 + 3 * abs(self.c2) ** 2 + abs(self.c3) ** 2)
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"coefficient norm {total!r}, expected 1")


def _check_scenario(n: int, pairs) -> list[MeasurementPair]:
    if n < 2:
        raise ScenarioError(f"need at least two parties, got n={n}")
    if n > MAX_PARTIES:
        raise ScenarioError(f"n={n} exceeds the dense-construction cap {MAX_PARTIES}")
    pairs = list(pairs)
    if len(pairs) != n:
        raise ValidationError(f"expected {n} measurement pairs, got {len(pairs)}")
    return pairs


def product_basis(n: int, pairs) -> ProductBasis:
    """Build the product basis used to pin down the Hardy state.

    One running Kronecker product of the per-party column pairs
    [|+>_i, |0>] gives every phi_k at once.  Each step makes party i's
    row bit the least significant and, unlike ``np.kron``, its column bit
    the most significant, so column k takes bit 2^(i-1) from party i
    while the rows keep party 1 most significant.  Column 0 (all |+>) is
    then overwritten with phi_minus.
    """
    pairs = _check_scenario(n, pairs)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    mat = np.ones((1, 1), dtype=complex)
    minus = np.ones(1, dtype=complex)
    for p in pairs:
        cols = np.stack([p.ket_plus, ket0], axis=1)
        rows = mat.shape[0]
        mat = (mat[:, None, None, :] * cols[None, :, :, None]).reshape(2 * rows, 2 * rows)
        minus = np.kron(minus, p.ket_minus)
    mat[:, 0] = minus
    mat.flags.writeable = False
    return ProductBasis(n=n, matrix=mat)


def hardy_state(n: int, pairs) -> StateVector:
    """The unique state satisfying all Hardy conditions for ``pairs``.

    Modified Gram-Schmidt (with one re-orthogonalisation pass) over
    (phi_minus, phi_1, ..., phi_{2^n - 2}) spans the excluded subspace;
    the state is the normalised residual of phi_{2^n - 1}, multiplied by
    overlap/|overlap| with overlap = <psi|phi_{2^n - 1}>, so that the
    overlap of the returned state is real and positive.
    """
    basis = product_basis(n, pairs)
    dim = 2 ** n
    # rows of qh are the conjugated orthonormal vectors, so a projection
    # sum_k q_k <q_k|v> is conj(conj(qh v) @ qh) and conjugates only
    # vectors, never the growing basis block
    qh = np.empty((dim - 1, dim), dtype=complex)
    for k in range(dim - 1):
        v = basis.matrix[:, k].copy()
        for _ in range(2):
            if k:
                v -= ((qh[:k] @ v).conj() @ qh[:k]).conj()
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            raise NumericError("product basis numerically degenerate")
        qh[k] = v.conj() / nrm
    target = basis.matrix[:, dim - 1]
    resid = target.copy()
    for _ in range(2):
        resid -= ((qh @ resid).conj() @ qh).conj()
    nrm = np.linalg.norm(resid)
    if nrm < 1e-12:
        raise NumericError("Hardy residual vanished; basis numerically degenerate")
    psi = resid / nrm
    overlap = np.vdot(psi, target)
    psi = psi * (overlap / abs(overlap))
    worst = float(np.max(np.abs(qh @ psi)))
    if worst > 1e-10:
        raise NumericError(f"orthogonality loss {worst:.2e} exceeds 1e-10")
    return StateVector((2,) * n, psi)


def success_prob_closed(pairs) -> float:
    """Closed-form Hardy probability prod|a_i b_i|^2 / (1 - prod|a_i|^2)."""
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ScenarioError("need at least two parties")
    prod_a = 1.0
    prod_ab = 1.0
    for p in pairs:
        prod_a *= abs(p.alpha) ** 2
        prod_ab *= abs(p.alpha) ** 2 * abs(p.beta) ** 2
    return prod_ab / (1.0 - prod_a)


def pmax(n: int) -> PmaxResult:
    """Maximal Hardy probability over n-qubit strategies.

    t is the root in (0, 1) of x^(n+1) - 2x + 1 (other than 1), located by
    bisection on the deflated polynomial x^n + ... + x - 1, which is
    strictly increasing on (0, 1).
    """
    if n < 2:
        raise ScenarioError(f"need at least two parties, got n={n}")
    if n > MAX_PARTIES:
        raise ScenarioError(f"n={n} exceeds the supported cap {MAX_PARTIES}")

    def q(x: float) -> float:
        acc = 0.0
        xp = 1.0
        for _ in range(n):
            xp *= x
            acc += xp
        return acc - 1.0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15:
            break
        if q(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    p = (t * (1.0 - t)) ** n / (1.0 - t ** n)
    return PmaxResult(n=n, t=t, p_max=p)


def optimal_alpha_sq_tripartite() -> float:
    """Closed-form optimal |alpha|^2 for three parties.

    ((17 + 3*sqrt(33))^(2/3) - (17 + 3*sqrt(33))^(1/3) - 2)
        / (3 * (17 + 3*sqrt(33))^(1/3)),
    the real root of x^3 + x^2 + x - 1.
    """
    c = (17.0 + 3.0 * math.sqrt(33.0)) ** (1.0 / 3.0)
    return (c * c - c - 2.0) / (3.0 * c)


def tripartite_explicit(pair: MeasurementPair) -> tuple[TripartiteCoefficients, StateVector]:
    """Three-qubit Hardy state in its symmetric closed form.

    With a = |alpha|, b = |beta| and N = sqrt(1 - a^6):

        c0 = a^3 b^3 / N              on |000>
        c1 = -beta a^4 b / N          on |001> + |010> + |100>
        c2 = beta^2 a^5 / (b N)       on |011> + |101> + |110>
        c3 = beta^3 N / b^3           on |111>

    The displayed formulas take alpha real; a complex alpha contributes an
    extra factor (conj(alpha)/|alpha|)^w on the weight-w coefficients,
    which keeps the overall phase convention <psi|000> > 0.
    """
    a = abs(pair.alpha)
    b = abs(pair.beta)
    beta = pair.beta
    norm = math.sqrt(1.0 - a ** 6)
    ph = np.conj(pair.alpha) / a
    c0 = complex(a ** 3 * b ** 3 / norm)
    c1 = -beta * a ** 4 * b / norm * ph
    c2 = beta ** 2 * a ** 5 / (b * norm) * ph ** 2
    c3 = beta ** 3 * norm / b ** 3 * ph ** 3
    coeffs = TripartiteCoefficients(c0=c0, c1=c1, c2=c2, c3=c3)
    amps = np.zeros(8, dtype=complex)
    for idx in range(8):
        weight = bin(idx).count("1")
        amps[idx] = (c0, c1, c2, c3)[weight]
    return coeffs, StateVector((2, 2, 2), amps)


def is_genuinely_entangled(psi: StateVector, tol: float = 1e-9) -> bool:
    """True iff every nontrivial bipartition has Schmidt rank at least 2."""
    n = psi.n_parties
    if n < 2:
        raise ValidationError("genuine entanglement needs at least two parties")
    for mask in range(1, 2 ** (n - 1)):
        keep = [i for i in range(n) if (mask >> i) & 1]
        spec = schmidt_spectrum(psi, keep)
        if len(spec) < 2 or spec[1] <= tol:
            return False
    return True
