import math
import re

import numpy as np
import pytest

from hardylab import variational
from hardylab.behavior import MeasurementSet, hardy_statistics, joint_distribution
from hardylab.errors import NumericError, ValidationError
from hardylab.linalg import StateVector
from hardylab.states import MeasurementPair, hardy_state, pmax
from hardylab.variational import (ANGLE_MARGIN, ANGLE_PENALTY, FEAS_SLACK, _bfgs,
                                  _local_search, _norm_sq, _start, _Tracker,
                                  _validated_result, ansatz, canonical_start,
                                  check_search, hardy_terms, lower_bound)


def symmetric_x(c, angle=None):
    """Gauge-fixed vector with amplitudes ``c`` and the parties' shared
    angle, by default the noiseless optimum's."""
    if angle is None:
        angle = 2.0 * math.acos(math.sqrt(pmax(3).t))
    return list(c) + [angle]


def normalised(x):
    nrm = math.sqrt(_norm_sq(x))
    return [v / nrm for v in x[:4]] + list(x[4:])


def random_vector(rng, margin=0.3):
    """Random gauge-fixed search-space point as a float list: four
    unnormalised amplitudes and an angle in (margin, pi - margin)."""
    return rng.standard_normal(4).tolist() + [float(rng.uniform(margin, math.pi - margin))]


def full_multistart(epsilon, restarts, seed):
    """Cross-check for ``lower_bound``: the same multistart with every
    restart run to the end, never stopped early."""
    tracker = _Tracker(epsilon)
    for r in range(restarts):
        _local_search(tracker, _start(r, seed))
    return _validated_result(tracker, restarts, seed)


def phased(x, phases):
    """Test-only cross-check of the gauge claim: ``ansatz(x)`` with the
    local unitaries U_j = diag(e^{-i p_j}, 1) applied to its state and to
    every party's D kets (so each D projector P becomes U_j P U_j^H), as
    (StateVector, MeasurementSet)."""
    psi, meas = ansatz(x)
    units = [np.diag([np.exp(-1j * p), 1.0]) for p in phases]
    amps = np.einsum("ai,bj,ck,ijk->abc", *units, psi.tensor())
    projectors = []
    for u, (comp, d_pair) in zip(units, meas.projectors):
        projectors.append((comp, tuple(u @ proj @ u.conj().T for proj in d_pair)))
    return (StateVector((2, 2, 2), amps.reshape(-1)),
            MeasurementSet(tuple(projectors)))


def behavior_stats(x, phases=None):
    psi, meas = ansatz(x) if phases is None else phased(x, phases)
    return hardy_statistics(joint_distribution(psi, meas))


class TestAnsatzState:
    def test_basis_state(self):
        psi, _ = ansatz(symmetric_x([0.0, 0.0, 0.0, 1.0]))
        want = np.zeros(8)
        want[7] = 1.0
        assert np.array_equal(psi.amps, want)

    def test_phase_pattern(self):
        # the phased family of the module docstring is the gauge transform
        # of the zero-phase state
        phi, xi, theta = 0.4, 1.2, 2.5
        c = np.array([0.4, 0.3, 0.2, math.sqrt(1 - 0.16 - 3 * 0.09 - 3 * 0.04)])
        amps = phased(symmetric_x(c), (phi, xi, theta))[0].amps
        # |010>: parties 1 and 3 show |0>, so phases phi + theta
        assert np.allclose(amps[0b010], c[1] * np.exp(-1j * (phi + theta)))
        # |100>: parties 2 and 3 show |0>
        assert np.allclose(amps[0b100], c[1] * np.exp(-1j * (xi + theta)))
        # |001>: parties 1 and 2 show |0>
        assert np.allclose(amps[0b001], c[1] * np.exp(-1j * (phi + xi)))
        # |011>, |101>, |110> carry single phases phi, xi, theta
        assert np.allclose(amps[0b011], c[2] * np.exp(-1j * phi))
        assert np.allclose(amps[0b101], c[2] * np.exp(-1j * xi))
        assert np.allclose(amps[0b110], c[2] * np.exp(-1j * theta))
        assert np.allclose(amps[0b000], c[0] * np.exp(-1j * (phi + xi + theta)))
        assert np.allclose(amps[0b111], c[3])

    def test_rejects_unnormalised(self):
        with pytest.raises(ValidationError):
            ansatz(symmetric_x([1.0, 1.0, 0.0, 0.0]))

    def test_optimum_matches_construction(self):
        t = pmax(3).t
        psi, _ = ansatz(canonical_start())
        ref = hardy_state(3, [MeasurementPair.from_alpha_sq(t)] * 3)
        assert np.linalg.norm(psi.amps - ref.amps) < 1e-12
        assert abs(abs(psi.amps[0]) ** 2 - 0.0181934) < 1e-4


class TestAnsatzMeasurements:
    def test_half_angle(self):
        _, m = ansatz(symmetric_x([0.0, 0.0, 0.0, 1.0], angle=math.pi / 2))
        plus = m.projectors[0][1][0]
        vec = np.full(2, 1 / math.sqrt(2))
        assert np.allclose(plus, np.outer(vec, vec), atol=1e-12)

    def test_completeness(self):
        for angle in (1.1, 0.4, 2.9):
            _, m = ansatz([0.0, 0.0, 0.0, 1.0, angle])
            for party in range(3):
                for setting in range(2):
                    a, b = m.projectors[party][setting]
                    assert np.linalg.norm(a + b - np.eye(2)) < 1e-12

    def test_overlap_from_optimal_angle(self):
        t = pmax(3).t
        angle = 2.0 * math.acos(math.sqrt(t))
        _, m = ansatz(symmetric_x([0.0, 0.0, 0.0, 1.0], angle=angle))
        plus_d = m.projectors[0][1][0]
        assert abs(plus_d[0, 0].real - t) < 1e-12

    def test_matches_d_vector_oracle(self):
        # the D eigenvectors cos(a/2)|0> + e^{ip} sin(a/2)|1> and
        # -sin(a/2)|0> + e^{ip} cos(a/2)|1>: at p = 0 those of ansatz(x),
        # otherwise those of its gauge transform
        def oracle(angle, phase):
            half = 0.5 * angle
            plus = np.array([math.cos(half), math.sin(half) * np.exp(1j * phase)])
            minus = np.array([-math.sin(half), math.cos(half) * np.exp(1j * phase)])
            return np.outer(plus, plus.conj()), np.outer(minus, minus.conj())

        rng = np.random.default_rng(43)
        angles = np.concatenate([[ANGLE_MARGIN, math.pi - ANGLE_MARGIN, math.pi / 2],
                                 rng.uniform(ANGLE_MARGIN, math.pi - ANGLE_MARGIN, 297)])
        for angle in angles.tolist():
            x = [0.0, 0.0, 0.0, 1.0, angle]
            for phases in ((0.0, 0.0, 0.0), tuple(rng.uniform(-math.pi, math.pi, 3))):
                m = ansatz(x)[1] if phases == (0.0, 0.0, 0.0) else phased(x, phases)[1]
                for party, phase in enumerate(phases):
                    assert np.array_equal(m.projectors[party][0][0], np.diag([1.0, 0.0]))
                    assert np.array_equal(m.projectors[party][0][1], np.diag([0.0, 1.0]))
                    for got, want in zip(m.projectors[party][1], oracle(angle, phase)):
                        if phase == 0.0:
                            assert np.array_equal(got, want)
                        else:
                            assert np.max(np.abs(got - want)) <= 1e-15

    def test_rejects_boundary_angle(self):
        with pytest.raises(ValidationError, match="commute"):
            ansatz(symmetric_x([0.0, 0.0, 0.0, 1.0], angle=0.0))
        # below about 8.9e-4, cos(a/2) is within 1e-7 of 1 and
        # MeasurementPair calls the two observables commuting
        with pytest.raises(ValidationError, match="commute"):
            ansatz(symmetric_x([0.0, 0.0, 0.0, 1.0], angle=0.5 * ANGLE_MARGIN))


class TestHardyTerms:
    def test_matches_behavior_module(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = random_vector(rng)
            want_p, want_zs = behavior_stats(normalised(x))
            p, (z, z_minus), _, _ = hardy_terms(x)
            assert abs(p - want_p) < 1e-12
            # one pair term stands for all three two-party terms
            assert max(abs(a - b) for a, b in zip((z, z, z, z_minus), want_zs)) < 1e-12

    def test_phases_are_gauge(self):
        # cross-check of the module docstring's gauge argument: the
        # phased family, built here from the local unitaries, has the
        # Hardy statistics of the zero-phase ansatz
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = normalised(random_vector(rng))
            phases = rng.uniform(0.0, 2.0 * math.pi, 3)
            psi, _ = ansatz(x)
            assert np.linalg.norm(phased(x, phases)[0].amps - psi.amps) > 1e-3
            (want_p, want_zs), (got_p, got_zs) = behavior_stats(x), behavior_stats(x, phases)
            assert abs(got_p - want_p) < 1e-12
            assert np.max(np.abs(got_zs - want_zs)) < 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        points = [random_vector(rng) for _ in range(10)]
        # angles just inside either margin
        for lo_side in (True, False):
            for _ in range(3):
                x = random_vector(rng)
                near = float(rng.uniform(ANGLE_MARGIN, 2.0 * ANGLE_MARGIN))
                x[4] = near if lo_side else math.pi - near
                points.append(x)
        h = 1e-6
        for x in points:
            p, zs, dp, dzs = hardy_terms(x)
            assert len(dp) == len(x) == 5
            for k in range(5):
                up, down = list(x), list(x)
                up[k] += h
                down[k] -= h
                pu, zu, _, _ = hardy_terms(up)
                pd, zd, _, _ = hardy_terms(down)
                assert abs((pu - pd) / (2 * h) - dp[k]) < 1e-7
                for j in range(2):
                    assert abs((zu[j] - zd[j]) / (2 * h) - dzs[j][k]) < 1e-7

    def test_value_flat_in_amplitude_scale(self):
        rng = np.random.default_rng(13)
        x = random_vector(rng)
        p, zs, dp, dzs = hardy_terms(x)
        scaled = [3.7 * v for v in x[:4]] + x[4:]
        ps, zss, _, _ = hardy_terms(scaled)
        assert abs(ps - p) < 1e-15
        assert max(abs(a - b) for a, b in zip(zs, zss)) < 1e-15
        # so every gradient is orthogonal to the amplitude part of x
        for g in [dp, *dzs]:
            assert abs(sum(a * b for a, b in zip(g[:4], x[:4]))) < 1e-13

    def test_hardy_state_is_feasible_point(self):
        p, zs, _, _ = hardy_terms(canonical_start().tolist())
        assert abs(p - pmax(3).p_max) < 1e-12
        assert max(zs) < 1e-15

    def test_penalised_objective_matches_behavior_module(self):
        rng = np.random.default_rng(77)
        start = canonical_start().tolist()
        for k in range(21):
            x = start if k == 0 else random_vector(rng)
            p, zeros = behavior_stats(normalised(x))
            # random points are mostly infeasible at a random bound, so
            # every other one gets a bound just above its largest term
            if k % 2:
                eps = float(np.max(zeros)) + 1e-9
            else:
                eps = float(rng.uniform(0.0, 0.25))
            lam = [float(v) if rng.random() < 0.7 else 0.0
                   for v in rng.uniform(0.0, 2.0, 2)]
            mu = float(rng.choice([10.0, 1e3, 1e6]))
            tracker = _Tracker(eps)
            f = tracker.merit(lam, mu)
            val, grad, zs = f(x)
            # the two constraints: the pair term, equal to all three
            # two-party terms, and the all-minus term
            assert max(zeros[:3]) - min(zeros[:3]) < 1e-12
            terms = (zeros[0], zeros[3])
            want = -p + sum(
                (max(lj + mu * (z - eps), 0.0) ** 2 - lj ** 2) / (2 * mu)
                for lj, z in zip(lam, terms))
            assert abs(val - want) <= 1e-12 * max(1.0, abs(want))
            assert max(abs(a - b) for a, b in zip(zs, terms)) < 1e-12
            feasible = float(np.max(zeros)) - eps <= 1e-8
            assert (tracker.best_x == x) == feasible
            if feasible:
                assert abs(tracker.best_p - p) < 1e-12
            assert tracker.evaluations == 1
            if k % 2:
                continue  # the largest term sits at the kink of its penalty
            # the gradient matches central differences of the merit; the
            # penalty parameter enters linearly, so a moderate one suffices
            f = _Tracker(eps).merit(lam, 10.0)
            grad = f(x)[1]
            h = 1e-6
            for j in range(5):
                up, down = list(x), list(x)
                up[j] += h
                down[j] -= h
                fd = (f(up)[0] - f(down)[0]) / (2 * h)
                assert abs(fd - grad[j]) <= 1e-6 * max(1.0, abs(grad[j]))

    def test_angle_penalty(self):
        for angle in (0.5 * ANGLE_MARGIN, -0.5, math.pi - 0.5 * ANGLE_MARGIN):
            x = canonical_start().tolist()
            x[4] = angle
            p, zs, dp, _ = hardy_terms(x)
            # feasible but for the angle, so only the margin rejects it
            tracker = _Tracker(max(zs) + 1e-9)
            val, grad, _ = tracker.merit([0.0] * 2, 10.0)(x)
            over = (angle - ANGLE_MARGIN if angle < 1.0
                    else angle - math.pi + ANGLE_MARGIN)
            assert abs(val - (-p + ANGLE_PENALTY * over ** 2)) < 1e-12
            assert abs(grad[4] - (-dp[4] + 2.0 * ANGLE_PENALTY * over)) < 1e-9
            assert tracker.best_x is None


class TestBFGS:
    def test_quadratic(self):
        target = [0.1 * (i - 3) for i in range(7)]
        weights = [1.0 + 0.5 * i for i in range(7)]

        def f(x):
            val = sum(w * (a - t) ** 2 for w, a, t in zip(weights, x, target))
            grad = [2.0 * w * (a - t) for w, a, t in zip(weights, x, target)]
            return val, grad, val

        x, aux, h, it = _bfgs(f, [0.0] * 7, None, 200)
        assert isinstance(x, list) and len(x) == 7
        assert aux == f(x)[0] < 1e-15
        assert max(abs(a - t) for a, t in zip(x, target)) < 1e-9
        assert 0 < it < 50
        assert all(abs(h[i][j] - h[j][i]) < 1e-15 for i in range(7) for j in range(7))

    def test_rosenbrock(self):
        def f(x):
            a, b = x
            val = (1 - a) ** 2 + 100 * (b - a * a) ** 2
            return val, [-2 * (1 - a) - 400 * a * (b - a * a),
                         200 * (b - a * a)], None

        x, _, _, it = _bfgs(f, [-1.2, 1.0], None, 500)
        assert max(abs(x[0] - 1.0), abs(x[1] - 1.0)) < 1e-6
        assert it < 500


class TestLowerBound:
    def test_warm_start_at_zero(self):
        res = lower_bound(0.0, restarts=1, seed=123)
        assert abs(res.value - pmax(3).p_max) < 1e-6
        assert np.all(res.constraint_values <= 1e-8)

    def test_deterministic(self):
        a = lower_bound(0.01, restarts=3, seed=42)
        b = lower_bound(0.01, restarts=3, seed=42)
        assert a.value == b.value
        assert (a.evaluations, a.iterations) == (b.evaluations, b.iterations)

    def test_monotone_in_epsilon(self):
        vals = [lower_bound(e, restarts=3, seed=5).value
                for e in (0.0, 0.03, 0.06)]
        assert vals[0] <= vals[1] + 1e-6 <= vals[2] + 2e-6

    def test_reported_values_reproducible(self):
        res = lower_bound(0.05, restarts=3, seed=17)
        p, zeros = behavior_stats(res.x)
        assert abs(p - res.value) < 1e-10
        assert np.allclose(zeros, res.constraint_values, atol=1e-8)
        assert np.all(res.constraint_values <= 0.05 + 1e-8)
        assert len(res.x) == 5
        assert abs(_norm_sq(res.x) - 1.0) < 1e-15
        assert res.evaluations > res.iterations > 0

    def test_reaches_ansatz_optimum(self):
        # the penalised simplex search stopped at 0.4541297 and 0.7856434
        assert lower_bound(0.1, restarts=2, seed=3).value >= 0.4541425
        assert lower_bound(0.2, restarts=2, seed=3).value >= 0.7856530

    @pytest.mark.parametrize("eps, floor", [
        (0.05, 0.26625998239584203),
        (0.1, 0.45414339817005084),
        (0.2, 0.7856537297766196)])
    def test_no_lower_than_three_angle_search(self, eps, floor):
        # floor: the value of the search over three separate angles at the
        # same restarts and seed; one shared angle stays within 3e-8 of it
        assert lower_bound(eps, 8, seed=0).value >= floor - 3e-8

    @pytest.mark.parametrize("term", [0, 1], ids=["pair", "all-minus"])
    def test_overstated_term_rejected(self, monkeypatch, term):
        # a closed form that overstates a term only weakens the bound, so
        # re-validation compares every term with the behavior module too
        exact = hardy_terms

        def overstated(x):
            p, zs, dp, dzs = exact(x)
            zs = list(zs)
            zs[term] *= 1.01
            return p, tuple(zs), dp, dzs

        monkeypatch.setattr(variational, "hardy_terms", overstated)
        with pytest.raises(NumericError, match="disagrees with the behavior module"):
            lower_bound(0.1, restarts=2, seed=0)

    def test_rejects_bad_epsilon(self, monkeypatch):
        def no_search(tracker, x):
            raise AssertionError("restart run for a rejected epsilon")

        monkeypatch.setattr(variational, "_local_search", no_search)
        for eps in (1.5, -0.1, math.nan, math.inf):
            with pytest.raises(ValidationError,
                               match=re.escape(f"epsilon = {eps!r} outside [0, 1]") + "$"):
                lower_bound(eps, restarts=1, seed=0)

    @pytest.mark.parametrize("eps,floor", [(0.26, 0.9408), (0.3, 0.9941), (1.0, 1.0 - 1e-6)])
    def test_past_the_local_saturation(self, eps, floor):
        # the search takes every epsilon in [0, 1], the range of every method
        res = lower_bound(eps, restarts=2, seed=0)
        assert floor <= res.value <= 1.0
        assert float(np.max(res.constraint_values)) <= eps + FEAS_SLACK

    def test_check_search(self):
        check_search(1, 0)
        check_search(variational.MAX_RESTARTS, 2 ** 62)
        for restarts, seed, message in ((0, 0, "restarts = 0 outside [1, 1000]"),
                                        (1001, 0, "restarts = 1001 outside [1, 1000]"),
                                        (1, -1, "seed = -1 must be nonnegative")):
            with pytest.raises(ValidationError, match=re.escape(message) + "$"):
                check_search(restarts, seed)

    def test_rejects_negative_seed(self, monkeypatch):
        def no_search(tracker, x):
            raise AssertionError("restart run for a rejected seed")

        monkeypatch.setattr(variational, "_local_search", no_search)
        with pytest.raises(ValidationError, match=r"seed = -1 must be nonnegative"):
            lower_bound(0.05, restarts=1, seed=-1)

    def test_restart_streams(self, monkeypatch):
        # restart r >= 1 starts from the stream of (seed, r) alone: the
        # search passes _start(r, seed), so a shorter run's starts are a
        # prefix of a longer one's, and the seed encoding (seed << 10) | r
        # stays injective while the restart cap is below 1024
        assert variational.MAX_RESTARTS <= 1 << 10
        starts = []

        def recording(tracker, x):
            starts.append([float(v) for v in x])
            _local_search(tracker, x)

        monkeypatch.setattr(variational, "_local_search", recording)
        runs = {}
        for seed in (7, 2 ** 62 + 3):
            for count in (3, 5):
                starts.clear()
                lower_bound(0.05, restarts=count, seed=seed)
                assert starts == [[float(v) for v in _start(r, seed)]
                                  for r in range(count)]
                runs[seed, count] = list(starts)
            assert runs[seed, 3] == runs[seed, 5][:3]
            assert starts[0] == canonical_start().tolist()
        # every (seed, r) up to the cap gives its own start, angles inside
        random_starts = {tuple(_start(r, seed)) for seed in (7, 2 ** 62 + 3)
                         for r in range(1, variational.MAX_RESTARTS)}
        assert len(random_starts) == 2 * (variational.MAX_RESTARTS - 1)
        for x in random_starts:
            assert all(0.3 <= a <= math.pi - 0.3 for a in x[4:])


class TestNoiselessStop:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_stopped_search_matches_full_multistart(self, seed):
        # no later restart beats the noiseless start, not even inside the
        # incumbent filter's FEAS_SLACK
        stopped = lower_bound(0.0, restarts=8, seed=seed)
        full = full_multistart(0.0, 8, seed)
        assert stopped.value == full.value
        assert stopped.x == full.x
        assert stopped.restarts_used == 1
        assert full.restarts_used == 8
        assert stopped.evaluations < full.evaluations
        assert abs(stopped.value - pmax(3).p_max) <= variational.PMAX_ROUNDOFF

    @pytest.mark.parametrize("eps", [0.05, 0.1])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_noisy_search_runs_every_restart(self, eps, seed):
        stopped = lower_bound(eps, restarts=4, seed=seed)
        full = full_multistart(eps, 4, seed)
        assert stopped.value == full.value
        assert stopped.x == full.x
        assert stopped.evaluations == full.evaluations
        assert stopped.iterations == full.iterations
        assert stopped.restarts_used == 4

    def test_unreached_target_runs_every_restart(self, monkeypatch):
        monkeypatch.setattr(variational, "PMAX_ROUNDOFF", -1.0)
        res = lower_bound(0.0, restarts=3, seed=1)
        full = full_multistart(0.0, 3, 1)
        assert res.restarts_used == 3
        assert (res.value, res.evaluations) == (full.value, full.evaluations)


INSTANCE_EPS = (0.02, 0.1, 0.2, 0.25)
INSTANCE_SEEDS = (1, 2)


class TestInexactInnerSolves:
    """Cross-check for the inexact inner solves: the same search with every
    BFGS subproblem solved to BFGS_GTOL, as before the tolerance schedule."""

    @staticmethod
    def exact(monkeypatch, eps, seed):
        with monkeypatch.context() as m:
            m.setattr(variational, "GTOL_START", variational.BFGS_GTOL)
            return lower_bound(eps, restarts=4, seed=seed)

    @pytest.mark.parametrize("eps", INSTANCE_EPS)
    @pytest.mark.parametrize("seed", INSTANCE_SEEDS)
    def test_agrees_with_exact_solves(self, monkeypatch, eps, seed):
        inexact = lower_bound(eps, restarts=4, seed=seed)
        exact = self.exact(monkeypatch, eps, seed)
        assert abs(inexact.value - exact.value) <= 5e-8

    def test_fewer_evaluations_in_total(self, monkeypatch):
        # One instance's count moves by a few percent with the search's
        # floating-point order, either way, so the gain is asserted over
        # all of them: 0.68 of the exact solves' total when written.
        inexact = exact = 0
        for eps in INSTANCE_EPS:
            for seed in INSTANCE_SEEDS:
                inexact += lower_bound(eps, restarts=4, seed=seed).evaluations
                exact += self.exact(monkeypatch, eps, seed).evaluations
        assert inexact <= 0.85 * exact

    @pytest.mark.parametrize("seed", [1, 2])
    def test_noiseless_point_unchanged(self, monkeypatch, seed):
        # restart 0 offers the exact noiseless point before any step
        inexact = lower_bound(0.0, restarts=4, seed=seed)
        exact = self.exact(monkeypatch, 0.0, seed)
        assert (inexact.value, inexact.x, inexact.restarts_used) == (
            exact.value, exact.x, exact.restarts_used)
        assert np.array_equal(inexact.constraint_values, exact.constraint_values)
        assert inexact.evaluations < exact.evaluations
