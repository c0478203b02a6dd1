"""Construction of n-qubit Hardy states and their success probabilities.

Each party j measures one of two non-commuting dichotomic observables.
The first has eigenbasis {|0>, |1>}, the second {|+>, |->} with

    |+> = alpha|0> + beta|1>,      |-> = beta*|0> - alpha*|1>,

|alpha|^2 + |beta|^2 = 1 and 0 < |alpha| < 1.  The Hardy point asks for
P(+..+|U..U) = p > 0 while the cyclic pair terms P(++|D_i, U_{i+1}) and
the all-minus term P(-..-|D..D) vanish.  A unique pure state satisfies
these conditions for every valid choice of observables; it is built
here in closed form, as |1..1> with its component along |-..-> removed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateMeasurementError, NumericError, ScenarioError,
                     ValidationError)
from .linalg import StateVector, _lapack

MAX_PARTIES = 12
# bipartitions whose Gram matrices are formed together
CUT_BATCH = 16
# allowance for the round-off of a d x d cut's purity and spectrum, per
# d^2: both err by a small multiple of d^2 * 2.2e-16
PURITY_MARGIN = 1e-13


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
class PmaxResult:
    """Optimal uniform |alpha|^2 = t and the maximal success probability."""

    n: int
    t: float
    p_max: float


def _check_scenario(n: int, pairs) -> list[MeasurementPair]:
    if n < 2:
        raise ScenarioError(f"need at least two parties, got n={n}")
    if n > MAX_PARTIES:
        raise ScenarioError(f"n={n} exceeds the dense-construction cap {MAX_PARTIES}")
    pairs = list(pairs)
    if len(pairs) != n:
        raise ValidationError(f"expected {n} measurement pairs, got {len(pairs)}")
    return pairs


def hardy_state(n: int, pairs) -> StateVector:
    """The unique state satisfying all Hardy conditions for ``pairs``.

    It is orthogonal to M = |-..-> and to every product vector phi_k,
    1 <= k <= 2^n - 2, holding |0> on some parties and |+> on the others.
    Each phi_k has a |0> factor, so <phi_k|1..1> = 0, and a |+> factor, so
    <phi_k|M> = 0.  Projecting |1..1> off M thus leaves the state:

        psi = (|1..1> - conj(M[-1]) M) / sqrt(1 - prod |alpha_i|^2),

    multiplied by a phase that makes <0..0|psi> real and positive.
    """
    pairs = _check_scenario(n, pairs)
    minus = np.ones(1, dtype=complex)
    for p in pairs:
        minus = np.kron(minus, p.ket_minus)
    psi = -np.conj(minus[-1]) * minus
    psi[-1] += 1.0
    psi /= np.linalg.norm(psi)
    psi *= np.conj(psi[0]) / abs(psi[0])
    leak = abs(np.vdot(minus, psi))
    if leak > 1e-10:
        raise NumericError(f"overlap {leak:.2e} with |-..-> exceeds 1e-10")
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


def tripartite_explicit(pair: MeasurementPair) -> StateVector:
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
    coeffs = np.array([a ** 3 * b ** 3 / norm,
                       -beta * a ** 4 * b / norm * ph,
                       beta ** 2 * a ** 5 / (b * norm) * ph ** 2,
                       beta ** 3 * norm / b ** 3 * ph ** 3])
    return StateVector((2, 2, 2), coeffs[[bin(idx).count("1") for idx in range(8)]])


def _has_weak_cut(t: np.ndarray, dim: int, orders, tol: float) -> bool:
    """True iff some cut, given as an axis order of ``t`` whose leading
    axes span ``dim`` rows, has second Schmidt coefficient at most ``tol``
    (see ``is_genuinely_entangled``)."""
    blocks = np.stack([t.transpose(order).reshape(dim, -1) for order in orders])
    grams = blocks @ blocks.conj().transpose(0, 2, 1)
    del blocks
    sums = np.einsum("kii->k", grams).real
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-10)
    if bad.size:
        raise NumericError(f"Schmidt spectrum sums to {sums[bad[0]]!r}, not 1")
    purity = (np.einsum("kij,kij->k", grams.real, grams.real)
              + np.einsum("kij,kij->k", grams.imag, grams.imag))
    near = (1.0 - purity <= 2 * (dim - 1) * tol + 2 * np.abs(1.0 - sums)
            + PURITY_MARGIN * dim * dim)
    if not near.any():
        return False
    vals = _lapack(np.linalg.eigvalsh, grams[near])
    return bool((vals[:, -2] <= tol).any())


def is_genuinely_entangled(psi: StateVector, tol: float = 1e-9) -> bool:
    """True iff every nontrivial bipartition has Schmidt rank at least 2,
    i.e. its second Schmidt coefficient exceeds ``tol``.

    Each cut's spectrum is that of the Gram matrix G of the amplitude
    block reshaped with the side of smaller dimension d first, whose
    nonzero eigenvalues are those of either reduced state.  Cuts with
    equal Gram dimension are taken ``CUT_BATCH`` at a time; a batch's
    blocks, their conjugates and its Gram matrices hold at most
    3 * CUT_BATCH copies of the state.  A cut with a one-dimensional side
    has rank 1.

    Most cuts are settled by their purity Tr G^2 alone.  With eigenvalues
    l_1 >= l_2 >= ... summing to s = Tr G, l_2 <= tol gives
    l_1 >= s - (d - 1) tol, so

        1 - Tr G^2 <= 1 - l_1^2 <= 2 (d - 1) tol + 2 |1 - s|.

    A cut whose 1 - Tr G^2 exceeds that, plus ``PURITY_MARGIN`` * d^2 for
    the round-off of the purity and of the spectrum, has l_2 > tol; only the
    other cuts go to one batched ``eigvalsh``.  A genuinely entangled
    state far from the threshold needs no spectrum at all.
    """
    n = psi.n_parties
    if n < 2:
        raise ValidationError("genuine entanglement needs at least two parties")
    if not 0.0 <= tol < math.inf:
        raise ValidationError(f"tol = {tol!r} must be finite and nonnegative")
    t = psi.tensor()
    groups: dict[int, list[list[int]]] = {}  # Gram dimension -> axis orders
    for mask in range(1, 2 ** (n - 1)):
        keep = [i for i in range(n) if (mask >> i) & 1]
        rest = [i for i in range(n) if not (mask >> i) & 1]
        da = math.prod(psi.dims[i] for i in keep)
        db = t.size // da
        groups.setdefault(min(da, db), []).append(keep + rest if da <= db else rest + keep)
    if 1 in groups:
        return False
    return not any(_has_weak_cut(t, dim, orders[start:start + CUT_BATCH], tol)
                   for dim, orders in groups.items()
                   for start in range(0, len(orders), CUT_BATCH))
