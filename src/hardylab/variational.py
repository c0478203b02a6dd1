"""Quantum lower bound from a three-qubit ansatz and projective measurements.

The state family carries four real amplitudes, one per Hamming weight of
the computational pattern, and three phases (phi, xi, theta), one per
party, attached to every basis state through the parties showing |0>:

    c000 e^{-i(phi+xi+theta)} |000>
  + c001 (e^{-i(phi+theta)} |010> + e^{-i(xi+theta)} |100> + e^{-i(phi+xi)} |001>)
  + c011 (e^{-i phi} |011> + e^{-i xi} |101> + e^{-i theta} |110>)
  + c111 |111>

Party j's first observable is computational; the second has eigenvectors
cos(a_j/2)|0> + e^{i phase_j} sin(a_j/2)|1> and its orthogonal
complement, with the phases shared with the state by default (a
decoupled-phase variant widens the family to 13 parameters).

The search is a penalised multistart simplex reflection (Nelder-Mead)
over the parameter box; amplitudes are projected onto the weighted unit
sphere after every proposal.  The first restart always starts from the
exact noiseless optimum, so the feasible incumbent never regresses below
the ideal Hardy point.

The search loop runs on plain Python floats: the simplex is a list of
lists, and each objective evaluation builds the eight amplitudes with
``cmath`` and evaluates the success probability and the four Hardy
terms in closed form (``hardy_terms``).  On vectors this short a numpy
call costs more than the arithmetic it does, so numpy is used only to
draw the restart points and to re-validate the incumbent through the
behavior module, which stays the independent cross-check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .behavior import MeasurementSet, hardy_statistics, joint_distribution
from .errors import DegenerateMeasurementError, NumericError, ValidationError
from .linalg import StateVector
from .states import pmax, tripartite_explicit, MeasurementPair

FEAS_SLACK = 1e-8
ANGLE_MARGIN = 1e-3
PENALTY_STAGES = (1e4, 1e5, 1e6)
SIMPLEX_SCALES = (0.25, 0.08, 0.02)
# lower_bound accepts error bounds in [0, EPSILON_MAX]
EPSILON_MAX = 0.25


def _norm_sq(c) -> float:
    """Squared norm of the state carrying Hamming-weight amplitudes ``c``."""
    return c[0] * c[0] + 3.0 * c[1] * c[1] + 3.0 * c[2] * c[2] + c[3] * c[3]


@dataclass(frozen=True)
class AnsatzParams:
    """Parameters of the three-qubit state family and its measurements."""

    c000: float
    c001: float
    c011: float
    c111: float
    phi: float
    xi: float
    theta: float
    meas_alpha: float
    meas_beta: float
    meas_gamma: float
    meas_phases: tuple[float, float, float] | None = None

    def __post_init__(self):
        total = _norm_sq((self.c000, self.c001, self.c011, self.c111))
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"amplitude norm {total!r}, expected 1")
        for ang in (self.meas_alpha, self.meas_beta, self.meas_gamma):
            if not 0.0 < ang < math.pi:
                raise DegenerateMeasurementError(
                    f"measurement angle {ang!r} outside (0, pi)")

    @property
    def state_phases(self) -> tuple[float, float, float]:
        return (self.phi, self.xi, self.theta)

    @property
    def measurement_phases(self) -> tuple[float, float, float]:
        if self.meas_phases is not None:
            return self.meas_phases
        return self.state_phases


@dataclass(frozen=True)
class LowerBoundResult:
    value: float
    params: AnsatzParams
    constraint_values: np.ndarray
    restarts_used: int
    seed: int


def _amplitudes(c, phases) -> list[complex]:
    """The eight amplitudes c_w e^{-i (phases of the parties showing |0>)},
    basis state |abc> at index 4a + 2b + c."""
    c0, c1, c2, c3 = c
    pa, pb, pc = phases
    ea, eb, ec = cmath.exp(-1j * pa), cmath.exp(-1j * pb), cmath.exp(-1j * pc)
    eab = ea * eb
    return [c0 * eab * ec, c1 * eab, c1 * ea * ec, c2 * ea,
            c1 * eb * ec, c2 * eb, c2 * ec, complex(c3)]


def ansatz_state(p: AnsatzParams) -> StateVector:
    c = (p.c000, p.c001, p.c011, p.c111)
    return StateVector((2, 2, 2), np.array(_amplitudes(c, p.state_phases)))


def _d_vectors(angle: float, phase: float):
    half = 0.5 * angle
    plus = np.array([math.cos(half), math.sin(half) * np.exp(1j * phase)])
    minus = np.array([-math.sin(half), math.cos(half) * np.exp(1j * phase)])
    return plus, minus


def ansatz_measurements(p: AnsatzParams) -> MeasurementSet:
    projs = []
    for angle, phase in zip((p.meas_alpha, p.meas_beta, p.meas_gamma),
                            p.measurement_phases):
        if not ANGLE_MARGIN / 10 < angle < math.pi - ANGLE_MARGIN / 10:
            raise DegenerateMeasurementError(
                f"angle {angle!r} too close to the boundary")
        plus, minus = _d_vectors(angle, phase)
        u0 = np.diag([1.0, 0.0]).astype(complex)
        u1 = np.diag([0.0, 1.0]).astype(complex)
        projs.append(((u0, u1),
                      (np.outer(plus, plus.conj()), np.outer(minus, minus.conj()))))
    return MeasurementSet(projectors=tuple(projs), dims=(2, 2, 2))


def hardy_terms(psi, angles, phases) -> tuple[float, tuple[float, float, float, float]]:
    """Success probability and the four constraint terms of a three-qubit state.

    ``psi`` holds the eight amplitudes (|abc> at index 4a + 2b + c);
    party j's second-setting outcome vectors are the ``_d_vectors`` of
    ``angles[j]`` and ``phases[j]``.  Returns P(0, 0, 0) and the four
    terms P_AB(d+, 0), P_BC(d+, 0), P_AC(0, d+), P(d-, d-, d-), where 0
    is the computational first-setting outcome and each two-party term
    is marginalised over the third party.  Closed-form rank-1 overlaps
    on Python complex numbers; the behavior-module route is the
    independent cross-check used at result validation.
    """
    t000, t001, t010, t011, t100, t101, t110, t111 = psi
    aa, ab, ac = angles
    ca, sa = math.cos(0.5 * aa), math.sin(0.5 * aa)
    cb, sb = math.cos(0.5 * ab), math.sin(0.5 * ab)
    cc, sc = math.cos(0.5 * ac), math.sin(0.5 * ac)
    pa, pb, pc = phases
    ea, eb, ec = cmath.exp(-1j * pa), cmath.exp(-1j * pb), cmath.exp(-1j * pc)
    # conjugated outcome vectors: <d+| = (c, s e), <d-| = (-s, c e)
    # with c = cos(angle/2), s = sin(angle/2), e = e^{-i phase}
    qa, qb, qc = sa * ea, sb * eb, sc * ec
    z1 = abs(ca * t000 + qa * t100) ** 2 + abs(ca * t001 + qa * t101) ** 2
    z2 = abs(cb * t000 + qb * t010) ** 2 + abs(cb * t100 + qb * t110) ** 2
    z3 = abs(cc * t000 + qc * t001) ** 2 + abs(cc * t010 + qc * t011) ** 2
    # <d-|<d-|<d-|psi>: contract party C, then B, then A
    mc = cc * ec
    w00 = mc * t001 - sc * t000
    w01 = mc * t011 - sc * t010
    w10 = mc * t101 - sc * t100
    w11 = mc * t111 - sc * t110
    mb = cb * eb
    y0 = mb * w01 - sb * w00
    y1 = mb * w11 - sb * w10
    z4 = abs(ca * ea * y1 - sa * y0) ** 2
    return abs(t000) ** 2, (z1, z2, z3, z4)


def _decode(x, decoupled: bool):
    """Split a parameter vector into normalised amplitudes, state phases,
    angles and measurement phases; None for a degenerate amplitude part."""
    nrm = math.sqrt(_norm_sq(x))
    if nrm < 1e-12:
        return None
    c = [x[0] / nrm, x[1] / nrm, x[2] / nrm, x[3] / nrm]
    phases = x[4:7]
    angles = x[7:10]
    meas_phases = x[10:13] if decoupled else phases
    return c, phases, angles, meas_phases


def _params_from_vector(x, decoupled: bool) -> AnsatzParams:
    decoded = _decode(x, decoupled)
    if decoded is None:
        raise NumericError("degenerate amplitude vector")
    c, phases, angles, meas_phases = decoded
    return AnsatzParams(c000=float(c[0]), c001=float(c[1]), c011=float(c[2]),
                        c111=float(c[3]),
                        phi=float(phases[0]), xi=float(phases[1]),
                        theta=float(phases[2]),
                        meas_alpha=float(angles[0]), meas_beta=float(angles[1]),
                        meas_gamma=float(angles[2]),
                        meas_phases=(tuple(float(v) for v in meas_phases)
                                     if decoupled else None))


def canonical_start() -> np.ndarray:
    """Parameter vector of the exact noiseless optimum."""
    t = pmax(3).t
    coeffs, _ = tripartite_explicit(MeasurementPair.from_alpha_sq(t))
    angle = 2.0 * math.acos(math.sqrt(t))
    return np.array([coeffs.c0.real, coeffs.c1.real, coeffs.c2.real,
                     coeffs.c3.real, 0.0, 0.0, 0.0, angle, angle, angle])


def nelder_mead(f, x0, scale: float, max_iter: int = 400,
                ftol: float = 1e-12, xtol: float = 1e-10):
    """Plain simplex reflection minimiser (reflect/expand/contract/shrink).

    The simplex is a list of Python float lists and ``f`` is called with
    one such list; returns the best vertex (a list) and its value.
    """
    x0 = [float(v) for v in x0]
    n = len(x0)
    pts = [x0]
    for i in range(n):
        step = x0[:]
        step[i] += scale
        pts.append(step)
    vals = [f(p) for p in pts]
    for _ in range(max_iter):
        order = sorted(range(n + 1), key=vals.__getitem__)
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        best = pts[0]
        if (vals[-1] - vals[0] <= ftol
                and max(abs(a - b) for p in pts[1:]
                        for a, b in zip(p, best)) <= xtol):
            break
        centroid = [sum(col) / n for col in zip(*pts[:-1])]
        worst = pts[-1]
        refl = [c + (c - w) for c, w in zip(centroid, worst)]
        f_refl = f(refl)
        if f_refl < vals[0]:
            expd = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            f_expd = f(expd)
            if f_expd < f_refl:
                pts[-1], vals[-1] = expd, f_expd
            else:
                pts[-1], vals[-1] = refl, f_refl
        elif f_refl < vals[-2]:
            pts[-1], vals[-1] = refl, f_refl
        else:
            toward = refl if f_refl < vals[-1] else worst
            contr = [c + 0.5 * (t - c) for c, t in zip(centroid, toward)]
            f_contr = f(contr)
            if f_contr < min(f_refl, vals[-1]):
                pts[-1], vals[-1] = contr, f_contr
            else:
                for i in range(1, n + 1):
                    pts[i] = [b + 0.5 * (v - b) for b, v in zip(best, pts[i])]
                    vals[i] = f(pts[i])
    k = min(range(n + 1), key=vals.__getitem__)
    return pts[k], vals[k]


class _Tracker:
    """Remembers the best hard-feasible point seen during a search."""

    def __init__(self, epsilon: float, decoupled: bool):
        self.epsilon = epsilon
        self.decoupled = decoupled
        self.best_p = -1.0
        self.best_x = None

    def penalised(self, mu: float, eps_target: float | None = None):
        """Penalised objective at ``eps_target`` (defaults to the full
        error bound); incumbents are always filtered at the full bound.
        The returned function takes a parameter vector as a float list."""
        eps = self.epsilon if eps_target is None else eps_target

        def f(x):
            decoded = _decode(x, self.decoupled)
            if decoded is None:
                return 1e9
            c, phases, angles, meas_phases = decoded
            pen = 0.0
            for ang in angles:
                if ang < ANGLE_MARGIN:
                    pen += (ANGLE_MARGIN - ang) ** 2
                elif ang > math.pi - ANGLE_MARGIN:
                    pen += (ang - math.pi + ANGLE_MARGIN) ** 2
            if pen:
                return 1e6 * (1.0 + pen)
            p, zs = hardy_terms(_amplitudes(c, phases), angles, meas_phases)
            if max(zs) - self.epsilon <= FEAS_SLACK and p > self.best_p:
                self.best_p = p
                self.best_x = list(x)
            excess = 0.0
            for z in zs:
                if z > eps:
                    excess += (z - eps) ** 2
            return -p + mu * excess
        return f


def lower_bound(epsilon: float, restarts: int = 50, *, seed: int,
                decouple_phases: bool = False) -> LowerBoundResult:
    """Best feasible Hardy probability found over the ansatz family.

    Multistart penalised Nelder-Mead: restart 0 tracks the optimum from
    the exact noiseless point through intermediate error targets, the
    rest sample the parameter box from per-restart substreams of
    ``seed``.  The returned parameters are re-validated through the
    behavior module before reporting.
    """
    if not 0.0 <= epsilon <= EPSILON_MAX:
        raise ValidationError(
            f"epsilon = {epsilon!r} outside [0, {EPSILON_MAX}]")
    if restarts < 1:
        raise ValidationError("need at least one restart")
    tracker = _Tracker(epsilon, decouple_phases)
    ndim = 13 if decouple_phases else 10
    streams = np.random.SeedSequence(seed).spawn(restarts)
    for r in range(restarts):
        if r == 0:
            # continuation from the exact noiseless optimum: track the
            # drifting maximiser through intermediate error targets
            x = canonical_start()
            if decouple_phases:
                x = np.concatenate([x, [0.0, 0.0, 0.0]])
            if epsilon > 0.0:
                for frac in (0.25, 0.5, 0.75):
                    x, _ = nelder_mead(
                        tracker.penalised(PENALTY_STAGES[-1], frac * epsilon),
                        x, 0.1, max_iter=120 * ndim)
        else:
            rng = np.random.default_rng(streams[r])
            x = np.empty(ndim)
            x[:4] = rng.standard_normal(4)
            x[4:7] = rng.uniform(0.0, 2.0 * math.pi, 3)
            x[7:10] = rng.uniform(0.3, math.pi - 0.3, 3)
            if decouple_phases:
                x[10:13] = rng.uniform(0.0, 2.0 * math.pi, 3)
        for mu, scale in zip(PENALTY_STAGES, SIMPLEX_SCALES):
            x, _ = nelder_mead(tracker.penalised(mu), x, scale,
                               max_iter=120 * ndim)
    if tracker.best_x is None:
        raise NumericError("no feasible ansatz point found (unexpected)")
    # final polish around the incumbent with the stiffest penalty; the
    # tracker itself captures any improvement found along the way
    nelder_mead(tracker.penalised(PENALTY_STAGES[-1]), tracker.best_x,
                0.004, max_iter=200 * ndim)
    params = _params_from_vector(tracker.best_x, decouple_phases)

    behavior = joint_distribution(ansatz_state(params), ansatz_measurements(params))
    stats = hardy_statistics(behavior)
    if float(np.max(stats.zeros - epsilon)) > FEAS_SLACK:
        raise NumericError("re-validation found the incumbent infeasible")
    if abs(stats.p - tracker.best_p) > 1e-10:
        raise NumericError("fast evaluator disagrees with the behavior module")
    return LowerBoundResult(value=float(stats.p), params=params,
                            constraint_values=np.array(stats.zeros),
                            restarts_used=restarts, seed=seed)
