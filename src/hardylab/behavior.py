"""Joint probability behaviors from states and measurements.

Index layout, fixed across the package: ``probs`` has shape (2,)*2n with
the first n axes holding the settings (0 = U, 1 = D) of parties 1..n and
the last n axes the outcomes (0 = +1, 1 = -1).  ``hardy_values`` reads
the success probability and the n+1 Hardy terms off such a table, or off
a batch of them.  The moment problem's objective and Hardy rows come
from it too (``npa``, off a table of linear forms over the moments).
Two-party Hardy terms marginalise the remaining parties over their
outcomes at setting U; that choice is immaterial for no-signaling
behaviors and no-signaling is verified at use.  Tables and projectors
with non-finite entries are rejected.

No-signaling is defined once, by ``signaling_gaps``: summed over a
party's outcome, the table must not depend on that party's setting;
``check_no_signaling`` reads its largest entry.  These n conditions
imply no-signaling for every subset: flipping k dropped parties'
settings one at a time moves the kept parties' marginal by at most
k * 2^(k-1) times the largest gap.

The Born rule of a pure qubit state contracts one party at a time with
complex multiply-adds, never with BLAS: the products have inner
dimension 2 and are just large enough (from about eight qubits) to wake
the OpenBLAS thread pool, whose helper thread then spins through the
rest of the run and doubles its CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ValidationError
from .linalg import StateVector
from .states import MeasurementPair

NEGATIVITY_FLOOR = -1e-12
# Largest per-party gap ``hardy_statistics`` accepts; a marginal with k
# parties dropped then moves by at most k * 2^(k-1) * NS_TOL.
NS_TOL = 1e-6
# parties left to ``_square_into``; two would keep a half-table block alive
_OPEN_PARTIES = 3


@dataclass(frozen=True)
class MeasurementSet:
    """Per-party projector pairs: projectors[party][setting][outcome],
    one party for each entry of ``dims``.

    Every projector must be Hermitian and idempotent and each pair must
    sum to the identity, all within 1e-12 * max(1, dim) in Frobenius norm.
    Errors name the failing party, counting from 1 as the paper does.
    """

    projectors: tuple
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.projectors) != len(self.dims):
            raise ValidationError(f"{len(self.projectors)} parties' projectors "
                                  f"for {len(self.dims)} dims")
        # each (party, setting) pair of the right shape joins the stack of
        # its local dimension, whose checks run as one batched call each
        keys: dict[int, list] = {}
        for party, (dim, settings) in enumerate(zip(self.dims, self.projectors)):
            if len(settings) == 2:
                for setting, (plus, minus) in enumerate(settings):
                    if plus.shape == minus.shape == (dim, dim):
                        keys.setdefault(dim, []).append((party, setting))
        faults = {}
        for dim, group in keys.items():
            stack = np.array([self.projectors[party][setting] for party, setting in group])
            faults.update(zip(group, _projector_faults(stack)))
        # the first fault in party, setting, check order
        for party, settings in enumerate(self.projectors):
            if len(settings) != 2:
                raise ValidationError(f"party {party + 1}: expected two settings")
            for setting in range(2):
                fault = faults.get((party, setting), "projector shape mismatch")
                if fault:
                    raise ValidationError(f"party {party + 1}: {fault}")

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def is_rank1_qubits(self) -> bool:
        return all(d == 2 for d in self.dims) and all(
            abs(np.trace(pair[0]).real - 1.0) < 1e-9
            for settings in self.projectors for pair in settings)


@dataclass(frozen=True)
class BehaviorTensor:
    """Full table P(outcomes | settings) of n = probs.ndim // 2 >= 2 parties."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        n = probs.ndim // 2
        if n < 2 or probs.shape != (2,) * (2 * n):
            raise ValidationError(
                f"probs shape {probs.shape}, expected (2,) * 2n with n >= 2")
        if not np.isfinite(probs).all():
            raise ValidationError("probs has non-finite entries")
        low = probs.min()
        if low < NEGATIVITY_FLOOR:
            raise ValidationError(
                f"negative probability {low!r} below the clamp floor")
        if low < 0.0:
            probs = np.clip(probs, 0.0, None)
        sums = probs.sum(axis=tuple(range(n, 2 * n)))
        if np.max(np.abs(sums - 1.0)) > 1e-10:
            raise ValidationError("per-setting outcome sums deviate from 1")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return self.probs.ndim // 2


_PROJECTOR_FAULTS = ("projector has non-finite entries",
                     "projectors do not sum to identity",
                     "projector not Hermitian", "projector not idempotent",
                     "projector not Hermitian", "projector not idempotent")


def _projector_faults(stack: np.ndarray) -> list:
    """First failed check of each (plus, minus) pair in a (pairs, 2, d, d)
    stack, in ``_PROJECTOR_FAULTS`` order, or None for a valid pair.

    Non-finite pairs are zeroed before any norm is taken, so no check
    computes inf - inf; they fail the first check anyway.
    """
    dim = stack.shape[-1]
    tol = 1e-12 * max(1.0, dim)
    finite = np.isfinite(stack).all(axis=(1, 2, 3))
    if not finite.all():
        stack = np.where(finite[:, None, None, None], stack, 0.0)
    hermitian = np.linalg.norm(stack - stack.conj().swapaxes(-1, -2), axis=(-2, -1)) <= tol
    idempotent = np.linalg.norm(stack @ stack - stack, axis=(-2, -1)) <= tol
    complete = np.linalg.norm(stack[:, 0] + stack[:, 1] - np.eye(dim), axis=(-2, -1)) <= tol
    passed = np.stack([finite, complete, hermitian[:, 0], idempotent[:, 0],
                       hermitian[:, 1], idempotent[:, 1]], axis=1)
    return [None if ok else _PROJECTOR_FAULTS[first]
            for ok, first in zip(passed.all(axis=1).tolist(), passed.argmin(axis=1).tolist())]


def measurements_from_pairs(pairs) -> MeasurementSet:
    """Rank-1 qubit projectors onto {|0>,|1>} (U) and {|+>,|->} (D)."""
    pairs = list(pairs)
    if not all(isinstance(pair, MeasurementPair) for pair in pairs):
        raise ValidationError("expected MeasurementPair instances")
    return MeasurementSet(projectors=tuple(pair.projectors for pair in pairs),
                          dims=(2,) * len(pairs))


def measurements_from_observables(observables) -> MeasurementSet:
    """Projector pairs (I +/- A)/2 from per-party observables (a1, a2); the
    shapes are checked here, everything else by MeasurementSet."""
    projs = []
    for pair in observables:
        a1, a2 = (np.asarray(a, dtype=complex) for a in pair)
        d = a1.shape[0]
        if a1.shape != (d, d) or a2.shape != (d, d):
            raise ValidationError("observable shape mismatch")
        eye = np.eye(d)
        # an infinite entry halves to a NaN part; MeasurementSet rejects both
        with np.errstate(invalid="ignore"):
            projs.append(tuple(((eye + a) / 2, (eye - a) / 2) for a in (a1, a2)))
    return MeasurementSet(projectors=tuple(projs),
                          dims=tuple(len(settings[0][0]) for settings in projs))


def _joint_pure_rank1(psi: StateVector, m: MeasurementSet) -> np.ndarray:
    """All Born probabilities of a pure qubit state, one party at a time.

    Party i's conjugated eigenvectors are stacked as rows of shape
    (setting, outcome, 2).  The parties are contracted from the last to
    the first, each against the trailing open qubit of a block laid out
    as (open qubits, settings, outcomes); the new setting goes in front
    of the settings and the new outcome in front of the outcomes, so the
    block ends in the table's own order and needs no transpose.  The
    first ``_OPEN_PARTIES`` parties stay open, a quarter-table block
    that ``_square_into`` finishes, so about 1.5 tables are alive at the end.
    """
    n = m.n_parties
    rows = [np.array([[_rank1_vector(proj).conj() for proj in setting]
                      for setting in m.projectors[party]])
            for party in range(n)]
    k = min(n, _OPEN_PARTIES)
    amp = psi.amps.reshape(-1, 2, 1, 1)
    for party in range(n - 1, k - 1, -1):
        block = _contract(rows[party], amp)
        amp = block.reshape(block.shape[0] // 2, 2, -1, 2 * block.shape[-1])
    side = 2 ** (n - k)
    probs = np.empty((2,) * (2 * n))
    _square_into(probs.reshape((2,) * k + (side,) + (2,) * k + (side,)),
                 amp.reshape(2 ** k, side, side), rows[:k])
    return probs


def _square_into(table: np.ndarray, amp: np.ndarray, rows: list) -> None:
    """Square ``amp`` (open qubits, settings, outcomes), contracted with the
    open parties' ``rows``, into ``table`` (open settings, settings, open
    outcomes, outcomes): the last open party one (setting, outcome) at a
    time with ``_contract``'s multiply-adds, the rest recursively."""
    k = len(rows)
    amp = amp.reshape(-1, 2, *amp.shape[1:])
    for s, o in product(range(2), repeat=2):
        c0, c1 = rows[-1][s, o]
        block = amp[:, 0] * c0
        block += amp[:, 1] * c1
        out = table[(slice(None),) * (k - 1) + (s,) + (slice(None),) * k + (o,)]
        if k > 1:
            _square_into(out, block, rows[:-1])
        else:
            np.abs(block[0], out=out)
            np.square(out, out=out)


def _contract(rows: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """One party's (setting, outcome, 2) rows against axis 1 of an
    (open, 2, settings, outcomes) block, giving (open, setting, settings,
    outcome, outcomes).

    Each (setting, outcome) slice is two complex multiply-adds over
    contiguous runs of the outcome axis (see the module notes on BLAS).
    """
    lead, _, settings, outcomes = amp.shape
    out = np.empty((lead, 2, settings, 2, outcomes), dtype=complex)
    term = np.empty((lead, settings, outcomes), dtype=complex)
    for s, o in product(range(2), repeat=2):
        view = out[:, s, :, o]
        np.multiply(amp[:, 0], rows[s, o, 0], out=view)
        view += np.multiply(amp[:, 1], rows[s, o, 1], out=term)
    return out


def _rank1_vector(proj: np.ndarray) -> np.ndarray:
    col = np.argmax(np.abs(np.diag(proj)))
    v = proj[:, col]
    return v / np.linalg.norm(v)


def _joint_general(rho: np.ndarray, m: MeasurementSet) -> np.ndarray:
    # The one place a density matrix is formed: for projectors that are
    # not rank-1 qubit ones, its D^2 entries bound the memory, where a
    # pure-state contraction would carry 4^n copies of the D amplitudes.
    # Tr[rho (P_1 x ... x P_n)] contracts each party's row index with
    # axis 1 of its projector and column index with axis 0.  One tensordot
    # per party against its stacked (setting, outcome, d, d) projectors
    # consumes that party's two leading axes and appends (setting, outcome).
    n = m.n_parties
    t = rho.reshape(m.dims + m.dims)
    for party in range(n):
        stacked = np.array(m.projectors[party], dtype=complex)
        t = np.tensordot(t, stacked, axes=([0, n - party], [3, 2]))
    # (s_1, o_1, ..., s_n, o_n) -> settings then outcomes
    return np.ascontiguousarray(t.real.transpose(
        list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))))


def joint_distribution(state: StateVector, m: MeasurementSet) -> BehaviorTensor:
    """Born-rule behavior of a pure state under ``m``."""
    if not isinstance(state, StateVector):
        raise ValidationError(f"expected a StateVector, got {type(state).__name__}")
    if state.dims != m.dims:
        raise ValidationError(
            f"state dims {state.dims} do not match measurement dims {m.dims}")
    if m.is_rank1_qubits():
        probs = _joint_pure_rank1(state, m)
    else:
        probs = _joint_general(state.density(), m)
    return BehaviorTensor(probs)


def hardy_values(probs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Success probability and Hardy terms of behavior tables.

    The trailing 2n axes of ``probs`` are one table each; any leading axes
    are kept.  Returns p and the terms [z_1, ..., z_n, z_minus] stacked on
    a last axis; z_i marginalises the parties other than (i, i+1 cyclic)
    at setting U.
    """
    probs = np.asarray(probs)
    zs = []
    for i in range(n):
        settings = [0] * n
        settings[i] = 1
        outcomes = [slice(None)] * n
        outcomes[i] = outcomes[(i + 1) % n] = 0
        zs.append(probs[(..., *settings, *outcomes)].sum(axis=tuple(range(2 - n, 0))))
    zs.append(probs[(...,) + (1,) * (2 * n)])
    return probs[(...,) + (0,) * (2 * n)], np.stack(zs, axis=-1)


def hardy_statistics(b: BehaviorTensor) -> tuple[float, np.ndarray]:
    """The pair (p, Hardy terms) of ``hardy_values`` for one behavior.

    Marginal terms are only meaningful for no-signaling behaviors, so the
    no-signaling property is asserted within ``NS_TOL``.
    """
    gap = check_no_signaling(b)
    if gap > NS_TOL:
        raise ValidationError(
            f"behavior signals (violation {gap:.3e}); "
            "Hardy marginals would be convention-dependent")
    p, zeros = hardy_values(b.probs, b.n)
    return float(p), zeros


def signaling_gaps(probs: np.ndarray, n: int):
    """Per-party no-signaling gaps of behavior tables.

    The trailing 2n axes of ``probs`` are one table each; any leading axes
    are kept.  Yields, for parties i = 0..n-1 in turn, the table summed
    over party i's outcome at setting U minus the same at setting D, with
    shape (..., settings of the other parties, their outcomes).  A table
    is no-signaling exactly when every gap is zero.

    Each table is viewed as (2^i, setting, 2^(n-1), outcome, 2^(n-1-i)),
    party i's setting and outcome split out, and the gap is formed from
    four strided quarter-table slices as (P[U, +] + P[U, -]) - (P[D, +] +
    P[D, -]).  A ``.sum`` over a length-2 axis in the middle of the table
    gives the same numbers but walks it two elements at a time; the
    additions here are the same and in the same order.  Forming a gap
    takes two quarter tables; the previous gap is released first unless
    the caller still holds it.
    """
    probs = np.ascontiguousarray(probs)
    lead = probs.shape[:probs.ndim - 2 * n]
    for i in range(n):
        view = probs.reshape(lead + (2 ** i, 2, 2 ** (n - 1), 2, 2 ** (n - 1 - i)))
        gap = np.add(view[..., 0, :, 0, :], view[..., 0, :, 1, :])
        gap -= np.add(view[..., 1, :, 0, :], view[..., 1, :, 1, :])
        yield gap.reshape(lead + (2,) * (2 * n - 2))
        del gap  # freed before the next gap unless the caller keeps it


def check_no_signaling(b: BehaviorTensor) -> float:
    """Largest absolute per-party gap of a behavior (see ``signaling_gaps``)."""
    # map drops each gap before asking for the next, so at most two
    # quarter tables are alive at a time
    return max(map(lambda gap: float(np.abs(gap, out=gap).max()),
                   signaling_gaps(b.probs, b.n)))
