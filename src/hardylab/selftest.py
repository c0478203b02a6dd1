"""Certification of near-optimal Hardy statistics.

By Jordan's lemma, two projections decompose the local space into
invariant blocks of dimension at most two; ``jordan_blocks`` returns
them as a tuple, a one-dimensional block having no angle.  A party's two
projections are read off its two settings in a validated MeasurementSet,
as the observables a = P(+) - P(-).  The anticommutator a1 a2 + a2 a1 is
constant on each block, equal to twice the cosine of the block angle;
inside a non-commuting block the pair acts, in a canonical basis, as the
computational observable and the rotated one with that angle.  When the
observed statistics sit at the Hardy optimum, projecting the state into
every combination of blocks and rotating each block to the canonical
frame must recover the reference Hardy state on the qubit factors, up to
the uncharacterised junk carried by the block multiplicities.  The
report quantifies exactly that: per-combination weights, and the total
of per-combination fidelities against the reference state weighted by
them.

The state is a pure state psi (a mixed state is certified through a
purification held by one party), projected directly: contracting each
party's axis with the conjugate of its block basis gives phi, whose
squared norm is the weight and |<psi_ref|phi>|^2 the weight times the
fidelity, summed as is.  These are einsums, not BLAS products: BLAS
would hand products of these sizes to its thread pool, whose helper
thread then spins through the rest of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .behavior import (MeasurementSet, hardy_statistics, joint_distribution,
                       measurements_from_pairs)
from .errors import HypothesisUnmetError, NumericError, ValidationError
from .linalg import StateVector, eig_herm
from .states import check_parties, hardy_state, optimal_pairs, pmax

BLOCK_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class JordanBlock:
    """Invariant subspace of a party's two observables a1 and a2.

    Two-dimensional blocks store an orthonormal basis (columns) in which
    a1 = diag(1, -1) and a2 = [[c, s], [s, -c]] with s > 0 and
    c = cos(angle); commuting directions appear as one-dimensional
    degenerate blocks, with ``angle`` None and both eigenvalue signs.
    """

    basis: np.ndarray
    angle: float | None
    signs: tuple[int, int] | None = None


def jordan_blocks(measurements: MeasurementSet, party: int,
                  tol: float = 1e-9) -> tuple[JordanBlock, ...]:
    """Simultaneous block decomposition of one party's two settings.

    The observables are a = P(+) - P(-) of each setting.  Blocks are read
    off the eigenspaces of the anticommutator; within an eigenspace of
    value 2c with |c| < 1 every +1 eigenvector v of a1 pairs with the
    normalised component of a2 v orthogonal to v.
    """
    a1, a2 = (plus - minus for plus, minus in measurements.projectors[party])
    d = measurements.dims[party]
    vals, vecs = eig_herm(a1 @ a2 + a2 @ a1, tol=max(tol, 1e-10))
    blocks: list[JordanBlock] = []
    gap = 1e-8 * max(2.0, float(np.max(np.abs(vals))))
    i = 0
    while i < d:
        j = i + 1
        while j < d and vals[j] - vals[i] <= gap:
            j += 1
        space = vecs[:, i:j]
        c = min(1.0, max(-1.0, float(np.mean(vals[i:j])) / 2.0))
        sin_sq = 1.0 - c * c
        sub_vals, sub_vecs = eig_herm(space.conj().T @ a1 @ space, tol=max(tol, 1e-9))
        if sin_sq <= max(tol, 1e-12):
            # commuting sector: a2 = +/- a1 here, one-dimensional blocks
            for k in range(j - i):
                v = space @ sub_vecs[:, k]
                s1 = 1 if sub_vals[k] > 0 else -1
                s2 = 1 if float(np.vdot(v, a2 @ v).real) > 0 else -1
                blocks.append(JordanBlock(basis=v[:, None], angle=None, signs=(s1, s2)))
        else:
            plus = [space @ sub_vecs[:, k] for k in range(j - i) if sub_vals[k] > 0]
            if 2 * len(plus) != j - i:
                raise NumericError(
                    "anticommutator eigenspace has unbalanced observable signs; "
                    "eigenvalue clusters may be merged, adjust tol")
            s = math.sqrt(sin_sq)
            for v in plus:
                u = a2 @ v - c * v
                nrm = float(np.linalg.norm(u))
                if abs(nrm - s) > 1e-7 * max(1.0, s):
                    raise NumericError("block companion vector has inconsistent norm")
                blocks.append(JordanBlock(basis=np.column_stack([v, u / nrm]),
                                          angle=math.acos(c)))
        i = j
    # each eigenvalue cluster's blocks span as many columns as it has
    full = np.column_stack([b.basis for b in blocks])
    if np.linalg.norm(full.conj().T @ full - np.eye(d)) > BLOCK_ORTHO_TOL * d:
        raise NumericError("recovered blocks are not jointly orthonormal")
    return tuple(blocks)


@dataclass(frozen=True)
class SelfTestReport:
    """Blockwise certification result.

    ``block_weights[b1, ..., bn]`` is the probability mass on the block
    combination; ``total_fidelity`` the sum over combinations of that
    weight times the overlap of its normalised qubit part with the
    reference Hardy state (zero for combinations touching a degenerate
    block, which cannot host it); ``junk_dims`` count the 2-dim blocks
    per party; ``decompositions`` hold each party's ``jordan_blocks``.
    """

    block_weights: np.ndarray
    total_fidelity: float
    junk_dims: tuple[int, ...]
    degenerate_weight: float
    observed_p: float
    observed_zeros: np.ndarray
    decompositions: tuple[tuple[JordanBlock, ...], ...]


def canonical_measurements(n: int) -> MeasurementSet:
    """Qubit measurements realising the optimal Hardy point."""
    return measurements_from_pairs(optimal_pairs(n))


def selftest_report(state: StateVector, measurements: MeasurementSet,
                    tol: float = 1e-6) -> SelfTestReport:
    """Blockwise fidelity of a near-optimal realization to the Hardy state.

    ``state`` is a StateVector over the measurements' dimensions; a mixed
    state is certified through a purification held by one party.  The
    observed statistics must sit at the Hardy point within ``tol`` (all
    constrained terms at most tol, success probability within tol of the
    optimum); otherwise the certification hypothesis is unmet and
    HypothesisUnmetError is raised.
    """
    if not isinstance(measurements, MeasurementSet):
        raise ValidationError(f"expected a MeasurementSet, got {type(measurements).__name__}")
    n = measurements.n_parties
    check_parties(n)

    # joint_distribution rejects all but a StateVector of these dims
    p, zeros = hardy_statistics(joint_distribution(state, measurements))
    ref = pmax(n)
    worst_zero = float(np.max(zeros))
    p_gap = abs(p - ref.p_max)
    if worst_zero > tol or p_gap > tol:
        raise HypothesisUnmetError(
            f"statistics are not a near-optimal Hardy point: "
            f"max constrained term {worst_zero:.3e}, "
            f"|p - p_max| = {p_gap:.3e} (tol {tol:.1e})")

    decomps = tuple(jordan_blocks(measurements, k, tol=min(tol, 1e-8)) for k in range(n))
    psi_ref = hardy_state(n, optimal_pairs(n)).amps

    counts = tuple(len(dc) for dc in decomps)
    weights = np.zeros(counts)
    degenerate_weight = 0.0
    total = 0.0
    for combo in product(*(range(c) for c in counts)):
        blocks = [decomps[k][combo[k]] for k in range(n)]
        # contract the parties' axes in turn, each appending its block
        # axis, so phi ends in the order of psi_ref
        phi = state.amps
        for b in blocks:
            phi = np.einsum("dr,dk->rk", phi.reshape(b.basis.shape[0], -1),
                            b.basis.conj())
        phi = phi.reshape(-1)
        weight = float(np.einsum("i,i->", phi.conj(), phi).real)
        weights[combo] = weight
        if any(b.angle is None for b in blocks):
            degenerate_weight += weight
        else:
            total += abs(np.einsum("i,i->", psi_ref.conj(), phi)) ** 2

    wsum = float(weights.sum())
    if abs(wsum - 1.0) > 1e-8:
        raise NumericError(f"block weights sum to {wsum!r}, expected 1")

    return SelfTestReport(block_weights=weights, total_fidelity=float(total),
                          junk_dims=tuple(sum(b.angle is not None for b in dc)
                                          for dc in decomps),
                          degenerate_weight=float(degenerate_weight), observed_p=p,
                          observed_zeros=zeros, decompositions=decomps)
