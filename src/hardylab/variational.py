"""Quantum lower bound from a three-qubit ansatz and projective measurements.

The ansatz is one gauge-fixed seven-vector x: four real amplitudes, one
per Hamming weight of the computational pattern, and three measurement
angles, one per party.  ``ansatz(x)`` builds the state

    x0 |000> + x1 (|001> + |010> + |100>) + x2 (|011> + |101> + |110>) + x3 |111>

and, for party j, a computational first observable and a second one
with eigenvectors cos(a_j/2)|0> + sin(a_j/2)|1> and its orthogonal
complement, a_j = x[4 + j].

The vector carries no phases because phases are gauge.  Give party j's
D eigenvectors a phase, cos(a_j/2)|0> + e^{i p_j} sin(a_j/2)|1>, and
attach the same p_j to every basis state through the parties showing
|0>:

    x0 e^{-i(p1+p2+p3)} |000>
  + x1 (e^{-i(p1+p3)} |010> + e^{-i(p2+p3)} |100> + e^{-i(p1+p2)} |001>)
  + x2 (e^{-i p1} |011> + e^{-i p2} |101> + e^{-i p3} |110>)
  + x3 |111>

This state is (U_1 (x) U_2 (x) U_3) applied to its zero-phase version,
with U_j = diag(e^{-i p_j}, 1), and U_j maps party j's zero-phase
outcome vectors to its phased ones up to a global phase, while it
commutes with the computational projectors.  Every probability is
therefore independent of the phases, and so is every Hardy statistic.
The amplitudes enter only through their normalised values, so their
scale is flat as well.  The search therefore runs over unnormalised
seven-vectors; there ``hardy_terms`` is a real closed form that also
returns analytic gradients, carried through the weighted normalisation
c = x / N, N^2 = x0^2 + 3 x1^2 + 3 x2^2 + x3^2.  The reported point is
normalised, N = 1.

The local solver is an augmented Lagrangian (Powell-Hestenes-Rockafellar
form) for max p subject to z_j <= eps, with a smooth quadratic penalty
keeping the angles inside (ANGLE_MARGIN, pi - ANGLE_MARGIN).  Its inner
minimiser is BFGS with Armijo backtracking on Python floats: the vectors
have seven entries, and at that size a numpy call costs more than the
arithmetic it does.  The inner solves are inexact while the multipliers
are still far off: outer iteration k stops BFGS at the gradient
max(BFGS_GTOL, min(GTOL_START, GTOL_FACTOR * kkt_{k-1})), with kkt the
complementarity measure, so the first solve stops at GTOL_START and the
solves are exact to BFGS_GTOL once that measure falls to
BFGS_GTOL / GTOL_FACTOR.  Every value+gradient call is offered to an
incumbent tracker, which keeps the best point whose terms stay within
FEAS_SLACK of the bound.  Restart 0 starts at the exact noiseless
optimum, ``states.hardy_state`` at |alpha|^2 = pmax(3).t, and offers it
before any step, so the result never falls below the ideal Hardy point;
restart r >= 1 draws its start from its own stdlib ``random.Random``
stream, seeded by the pair (seed, r) alone, so the starts of a run are a
prefix of those of a longer one at the same seed.  At epsilon = 0 the
multistart stops after the first restart whose incumbent is within
PMAX_ROUNDOFF of pmax(3), the maximum over the noiseless constraints,
since no later restart can exceed that beyond round-off.  The incumbent
is re-validated through the behavior module, which stays the independent
cross-check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import mul

import numpy as np

from .behavior import (MeasurementSet, hardy_statistics, joint_distribution,
                       measurements_from_pairs)
from .errors import NumericError, ValidationError
from .linalg import StateVector
from .states import MeasurementPair, check_noise, hardy_state, pmax

FEAS_SLACK = 1e-8
# at epsilon = 0 an incumbent this close to pmax(3) ends the multistart
PMAX_ROUNDOFF = 1e-12
ANGLE_MARGIN = 1e-3
# lower_bound accepts error bounds in [0, EPSILON_MAX]
EPSILON_MAX = 0.25
# lower_bound accepts restart counts in [1, MAX_RESTARTS]; a restart
# takes about 6 ms over the default scan grid and 8.5 ms at eps = 0.05,
# so the cap bounds one call near 10 s.  Restart r's stream is seeded
# with (seed << 10) | r, which is injective in (seed, r) only because
# MAX_RESTARTS <= 1024
MAX_RESTARTS = 1_000
# weight of the quadratic penalty on angles past the margin
ANGLE_PENALTY = 1e4
# augmented-Lagrangian schedule: initial and largest penalty parameter,
# outer iterations per restart, and the stopping tolerance on the
# complementarity measure max_j max(z_j - eps, -lambda_j / mu)
MU_START = 10.0
MU_MAX = 1e8
OUTER_ITER = 12
KKT_TOL = 1e-10
# BFGS iterations per outer iteration, its gradient and relative
# decrease tolerances, and the step halvings allowed per line search
BFGS_ITER = 200
BFGS_GTOL = 1e-10
FTOL = 1e-15
BACKTRACKS = 30
# inexact inner solves (Nocedal & Wright, Numerical Optimization,
# Algorithm 17.4): outer iteration k stops BFGS at the gradient
# max(BFGS_GTOL, min(GTOL_START, GTOL_FACTOR * kkt_{k-1}))
GTOL_START = 1e-3
GTOL_FACTOR = 0.1


def _norm_sq(c) -> float:
    """Squared norm of the state carrying Hamming-weight amplitudes ``c``."""
    return c[0] * c[0] + 3.0 * c[1] * c[1] + 3.0 * c[2] * c[2] + c[3] * c[3]


@dataclass(frozen=True)
class LowerBoundResult:
    value: float
    x: tuple  # normalised gauge-fixed vector: four amplitudes, three angles
    constraint_values: np.ndarray
    restarts_used: int  # restarts run; fewer than requested at epsilon = 0
    seed: int
    evaluations: int  # value+gradient calls of hardy_terms
    iterations: int  # BFGS iterations over all restarts


# Hamming weight of the basis state at index 4a + 2b + c
_WEIGHTS = [0, 1, 1, 2, 1, 2, 2, 3]


def ansatz(x) -> tuple[StateVector, MeasurementSet]:
    """State and measurements of the normalised gauge-fixed vector ``x``:
    amplitude x[w] on every basis state of Hamming weight w, and party j's
    pair (cos(a/2), sin(a/2)) at angle a = x[4 + j]."""
    psi = StateVector((2, 2, 2), np.array(x[:4])[_WEIGHTS])
    pairs = [MeasurementPair(math.cos(0.5 * a), math.sin(0.5 * a)) for a in x[4:]]
    return psi, measurements_from_pairs(pairs)


def _pair_term(co, si, c0, c1, c2):
    """One two-party term at zero phases, (co c0 + si c1)^2 + (co c1 + si c2)^2,
    with its derivatives in c0, c1, c2 and in the angle (co, si = cos, sin
    of half the angle)."""
    u = co * c0 + si * c1
    v = co * c1 + si * c2
    return (u * u + v * v, 2.0 * u * co, 2.0 * (u * si + v * co), 2.0 * v * si,
            u * (co * c1 - si * c0) + v * (co * c2 - si * c1))


def hardy_terms(x):
    """Success probability, the four Hardy terms and their gradients.

    ``x`` is the gauge-fixed parameter vector: the four Hamming-weight
    amplitudes at any scale (they are normalised with weights 1, 3, 3, 1)
    and the three measurement angles, all phases 0.  Returns
    ``(p, zs, dp, dzs)``: P(0, 0, 0), the four terms P_AB(d+, 0),
    P_BC(d+, 0), P_AC(0, d+), P(d-, d-, d-), where 0 is the computational
    first-setting outcome and each two-party term is marginalised over
    the third party, and the gradients of p and of each term with
    respect to ``x`` as seven-element lists.  With real amplitudes each
    two-party term takes the same closed form in its own angle.  The
    behavior-module route is the independent cross-check used at result
    validation.
    """
    x0, x1, x2, x3, aa, ab, ac = x
    nrm = math.sqrt(x0 * x0 + 3.0 * x1 * x1 + 3.0 * x2 * x2 + x3 * x3)
    c0, c1, c2, c3 = x0 / nrm, x1 / nrm, x2 / nrm, x3 / nrm
    ca, sa = math.cos(0.5 * aa), math.sin(0.5 * aa)
    cb, sb = math.cos(0.5 * ab), math.sin(0.5 * ab)
    cc, sc = math.cos(0.5 * ac), math.sin(0.5 * ac)
    z1, g10, g11, g12, g1a = _pair_term(ca, sa, c0, c1, c2)
    z2, g20, g21, g22, g2a = _pair_term(cb, sb, c0, c1, c2)
    z3, g30, g31, g32, g3a = _pair_term(cc, sc, c0, c1, c2)
    # <d-|<d-|<d-|psi> = r: contract party C (e), then B (f), then A;
    # <d-| = (-s, c) for each party at zero phase
    e0 = cc * c1 - sc * c0
    e1 = cc * c2 - sc * c1
    e2 = cc * c3 - sc * c2
    f0 = cb * e1 - sb * e0
    f1 = cb * e2 - sb * e1
    r = ca * f1 - sa * f0
    # r = k0 e0 + k1 e1 + k2 e2
    k0, k1, k2 = sa * sb, -(ca * sb + sa * cb), ca * cb
    t = 2.0 * r
    g4 = (-t * sc * k0, t * (cc * k0 - sc * k1), t * (cc * k1 - sc * k2), t * cc * k2)
    g4a = -0.5 * t * (sa * f1 + ca * f0)
    g4b = 0.5 * t * (sa * (sb * e1 + cb * e0) - ca * (sb * e2 + cb * e1))
    g4c = -0.5 * t * (k0 * (sc * c1 + cc * c0) + k1 * (sc * c2 + cc * c1)
                      + k2 * (sc * c3 + cc * c2))
    # chain rule through c = x / N: dg/dx_j = (G_j - w_j c_j sum_i G_i c_i) / N
    w0, w1, w2, w3 = c0 / nrm, 3.0 * c1 / nrm, 3.0 * c2 / nrm, c3 / nrm
    inv = 1.0 / nrm
    p = c0 * c0
    s = 2.0 * p
    dp = [(2.0 * c0 - c0 * s) * inv, -w1 * s, -w2 * s, -w3 * s, 0.0, 0.0, 0.0]
    s = g10 * c0 + g11 * c1 + g12 * c2
    dz1 = [g10 * inv - w0 * s, g11 * inv - w1 * s, g12 * inv - w2 * s, -w3 * s,
           g1a, 0.0, 0.0]
    s = g20 * c0 + g21 * c1 + g22 * c2
    dz2 = [g20 * inv - w0 * s, g21 * inv - w1 * s, g22 * inv - w2 * s, -w3 * s,
           0.0, g2a, 0.0]
    s = g30 * c0 + g31 * c1 + g32 * c2
    dz3 = [g30 * inv - w0 * s, g31 * inv - w1 * s, g32 * inv - w2 * s, -w3 * s,
           0.0, 0.0, g3a]
    s = g4[0] * c0 + g4[1] * c1 + g4[2] * c2 + g4[3] * c3
    dz4 = [g4[0] * inv - w0 * s, g4[1] * inv - w1 * s, g4[2] * inv - w2 * s,
           g4[3] * inv - w3 * s, g4a, g4b, g4c]
    return p, (z1, z2, z3, r * r), dp, (dz1, dz2, dz3, dz4)


def canonical_start() -> np.ndarray:
    """Gauge-fixed parameter vector of the exact noiseless optimum:
    ``hardy_state`` at |alpha|^2 = pmax(3).t read at |000>, |001>, |011>
    and |111>, one per Hamming weight, and angles with cos(a/2) = alpha."""
    t = pmax(3).t
    amps = hardy_state(3, [MeasurementPair.from_alpha_sq(t)] * 3).amps
    angle = 2.0 * math.acos(math.sqrt(t))
    return np.concatenate([amps[[0, 1, 3, 7]].real, [angle, angle, angle]])


class _Tracker:
    """Counts value+gradient calls and remembers the best hard-feasible
    point among them."""

    def __init__(self, epsilon: float):
        self.epsilon = epsilon
        self.best_p = -1.0
        self.best_x = None
        self.evaluations = 0
        self.iterations = 0

    def merit(self, lam, mu: float):
        """Augmented Lagrangian of min -p s.t. z_j <= eps at multipliers
        ``lam`` and penalty parameter ``mu``, plus the angle penalty.

        The returned function maps a parameter list x to (value, gradient,
        terms); every call is offered to the incumbent, which is filtered
        at the full error bound and the angle margins.
        """
        eps = self.epsilon
        lo, hi = ANGLE_MARGIN, math.pi - ANGLE_MARGIN
        half_inv_mu = 0.5 / mu

        def f(x):
            p, zs, dp, dzs = hardy_terms(x)
            self.evaluations += 1
            inside = lo <= x[4] <= hi and lo <= x[5] <= hi and lo <= x[6] <= hi
            if inside and max(zs) - eps <= FEAS_SLACK and p > self.best_p:
                self.best_p = p
                self.best_x = list(x)
            val = -p
            grad = [-g for g in dp]
            for z, lj, dz in zip(zs, lam, dzs):
                m = lj + mu * (z - eps)
                if m > 0.0:
                    val += (m * m - lj * lj) * half_inv_mu
                    for k in range(7):
                        grad[k] += m * dz[k]
                else:
                    val -= lj * lj * half_inv_mu
            for k in (4, 5, 6):
                a = x[k]
                over = a - hi if a > hi else (a - lo if a < lo else 0.0)
                if over:
                    val += ANGLE_PENALTY * over * over
                    grad[k] += 2.0 * ANGLE_PENALTY * over
            return val, grad, zs
        return f


def _dot(a, b) -> float:
    return sum(map(mul, a, b))


def _bfgs(f, x, h, max_iter: int, gtol: float = BFGS_GTOL):
    """Minimise ``f`` (x -> value, gradient, aux) from ``x`` by BFGS on the
    inverse Hessian, starting from ``h`` (None: a scaled identity after the
    first step), with Armijo backtracking; steps are capped at unit length
    per coordinate.  Stops when the largest gradient entry falls to
    ``gtol`` (the augmented Lagrangian passes a looser one while its
    multipliers are still far off) or an accepted decrease falls to
    rounding level.  Returns the last accepted point, its aux, the
    updated inverse Hessian and the iteration count."""
    n = len(x)
    val, g, aux = f(x)
    it = 0
    while it < max_iter and max(abs(v) for v in g) > gtol:
        it += 1
        d = ([-v for v in g] if h is None
             else [-_dot(row, g) for row in h])
        slope = _dot(d, g)
        if slope >= 0.0:  # lost descent: restart from steepest descent
            h = None
            d = [-v for v in g]
            slope = -_dot(g, g)
        t = min(1.0, 1.0 / max(abs(v) for v in d))
        for _ in range(BACKTRACKS):
            xn = [a + t * b for a, b in zip(x, d)]
            vn, gn, auxn = f(xn)
            if vn <= val + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        s = [a - b for a, b in zip(xn, x)]
        y = [a - b for a, b in zip(gn, g)]
        sy = _dot(s, y)
        if sy > 0.0:
            if h is None:  # Shanno-Phua scaling of the first inverse Hessian
                scale = sy / _dot(y, y)
                h = [[scale * (i == j) for j in range(n)] for i in range(n)]
            # H + coef s s^T - (Hy s^T + s (Hy)^T) / sy, row by row
            hy = [_dot(row, y) for row in h]
            coef = (sy + _dot(y, hy)) / (sy * sy)
            h = [[hij + a * sj - b * hyj for hij, sj, hyj in zip(row, s, hy)]
                 for row, a, b in zip(h, [coef * si - hyi / sy for si, hyi in zip(s, hy)],
                                      [si / sy for si in s])]
        done = val - vn <= FTOL * (1.0 + abs(val))
        x, val, g, aux = xn, vn, gn, auxn
        if done:
            break
    return x, aux, h, it


def _local_search(tracker: _Tracker, x) -> None:
    """Augmented-Lagrangian local search from ``x``; the tracker keeps
    every feasible improvement found along the way."""
    eps = tracker.epsilon
    lam = [0.0, 0.0, 0.0, 0.0]
    mu = MU_START
    prev = math.inf
    h = None
    # the value is flat in the amplitude scale: start at N = 1
    nrm = math.sqrt(_norm_sq(x))
    x = [float(v / nrm) for v in x[:4]] + [float(v) for v in x[4:]]
    for _ in range(OUTER_ITER):
        gtol = max(BFGS_GTOL, min(GTOL_START, GTOL_FACTOR * prev))
        x, zs, h, it = _bfgs(tracker.merit(lam, mu), x, h, BFGS_ITER, gtol)
        tracker.iterations += it
        kkt = max(max(z - eps, -lj / mu) for z, lj in zip(zs, lam))
        lam = [max(0.0, lj + mu * (z - eps)) for z, lj in zip(zs, lam)]
        if kkt <= KKT_TOL:
            return
        if kkt > 0.25 * prev and mu < MU_MAX:
            mu *= 10.0
            h = None
        prev = kkt


def _start(r: int, seed: int):
    """Start of restart ``r``: the exact noiseless point for r = 0, else
    four standard-normal amplitudes and three angles uniform in
    [0.3, pi - 0.3], drawn from the stream seeded by (seed, r)."""
    if r == 0:
        return canonical_start()
    rng = random.Random((seed << 10) | r)
    return ([rng.gauss(0.0, 1.0) for _ in range(4)]
            + [rng.uniform(0.3, math.pi - 0.3) for _ in range(3)])


def lower_bound(epsilon: float, restarts: int = 50, *, seed: int) -> LowerBoundResult:
    """Best feasible Hardy probability found over the ansatz family.

    Multistart augmented-Lagrangian BFGS over the gauge-fixed parameters:
    restart 0 starts at the exact noiseless point, restart r >= 1 at a
    random point that ``_start`` draws from the stdlib stream seeded by
    (``seed``, r), where ``seed`` is a nonnegative integer.  At
    ``epsilon == 0`` the remaining restarts are skipped once a finished
    restart leaves the incumbent within PMAX_ROUNDOFF of pmax(3), so
    ``restarts_used`` reports the restarts actually run.  The incumbent is
    normalised and re-validated through the behavior module before
    reporting.
    """
    check_noise(epsilon, EPSILON_MAX)
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ValidationError(
            f"restarts = {restarts} outside [1, {MAX_RESTARTS}]")
    if seed < 0:
        raise ValidationError(f"seed = {seed} must be nonnegative")
    tracker = _Tracker(epsilon)
    target = pmax(3).p_max - PMAX_ROUNDOFF if epsilon == 0.0 else math.inf
    for r in range(restarts):
        _local_search(tracker, _start(r, seed))
        if tracker.best_p >= target:
            break
    return _validated_result(tracker, r + 1, seed)


def _validated_result(tracker: _Tracker, restarts_used: int,
                      seed: int) -> LowerBoundResult:
    """The incumbent, re-validated through the behavior module."""
    if tracker.best_x is None:
        raise NumericError("no feasible ansatz point found (unexpected)")
    nrm = math.sqrt(_norm_sq(tracker.best_x))
    x = tuple([v / nrm for v in tracker.best_x[:4]] + tracker.best_x[4:])
    p, zeros = hardy_statistics(joint_distribution(*ansatz(x)))
    if float(np.max(zeros - tracker.epsilon)) > FEAS_SLACK:
        raise NumericError("re-validation found the incumbent infeasible")
    if abs(p - tracker.best_p) > 1e-10:
        raise NumericError("fast evaluator disagrees with the behavior module")
    return LowerBoundResult(value=p, x=x, constraint_values=zeros,
                            restarts_used=restarts_used, seed=seed,
                            evaluations=tracker.evaluations,
                            iterations=tracker.iterations)
