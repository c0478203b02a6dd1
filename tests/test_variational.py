import math

import numpy as np
import pytest

from hardylab.behavior import (hardy_statistics, joint_distribution,
                               measurements_from_pairs)
from hardylab.errors import DegenerateMeasurementError, ValidationError
from hardylab.states import MeasurementPair, hardy_state, pmax
from hardylab.variational import (AnsatzParams, _params_from_vector,
                                  _Tracker, ansatz_measurements,
                                  ansatz_state, canonical_start, hardy_terms,
                                  lower_bound, nelder_mead)


def symmetric_params(c, phases=(0.0, 0.0, 0.0), angle=None):
    if angle is None:
        angle = 2.0 * math.acos(math.sqrt(pmax(3).t))
    return AnsatzParams(c000=c[0], c001=c[1], c011=c[2], c111=c[3],
                        phi=phases[0], xi=phases[1], theta=phases[2],
                        meas_alpha=angle, meas_beta=angle, meas_gamma=angle)


def random_vector(rng, decoupled):
    """Random search-space point as a float list (10 or 13 parameters)."""
    x = (rng.standard_normal(4).tolist()
         + rng.uniform(0, 2 * math.pi, 3).tolist()
         + rng.uniform(0.3, math.pi - 0.3, 3).tolist())
    if decoupled:
        x += rng.uniform(0, 2 * math.pi, 3).tolist()
    return x


class TestAnsatzState:
    def test_basis_state(self):
        p = symmetric_params([0.0, 0.0, 0.0, 1.0], phases=(0.3, 1.1, 2.0))
        psi = ansatz_state(p)
        want = np.zeros(8)
        want[7] = 1.0
        assert np.allclose(psi.amps, want)

    def test_phase_pattern(self):
        phi, xi, theta = 0.4, 1.2, 2.5
        c = np.array([0.4, 0.3, 0.2, math.sqrt(1 - 0.16 - 3 * 0.09 - 3 * 0.04)])
        p = symmetric_params(c, phases=(phi, xi, theta))
        amps = ansatz_state(p).amps
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
            symmetric_params([1.0, 1.0, 0.0, 0.0])

    def test_optimum_matches_construction(self):
        t = pmax(3).t
        x = canonical_start()
        p = symmetric_params(x[:4])
        psi = ansatz_state(p)
        ref = hardy_state(3, [MeasurementPair.from_alpha_sq(t)] * 3)
        assert np.linalg.norm(psi.amps - ref.amps) < 1e-12
        assert abs(abs(psi.amps[0]) ** 2 - 0.0181934) < 1e-4


class TestAnsatzMeasurements:
    def test_half_angle(self):
        p = symmetric_params([0.0, 0.0, 0.0, 1.0], angle=math.pi / 2)
        m = ansatz_measurements(p)
        plus = m.projectors[0][1][0]
        vec = np.full(2, 1 / math.sqrt(2))
        assert np.allclose(plus, np.outer(vec, vec), atol=1e-12)

    def test_completeness(self):
        p = symmetric_params([0.0, 0.0, 0.0, 1.0], phases=(0.2, 0.9, 1.7),
                             angle=1.1)
        m = ansatz_measurements(p)
        for party in range(3):
            for setting in range(2):
                a, b = m.projectors[party][setting]
                assert np.linalg.norm(a + b - np.eye(2)) < 1e-12

    def test_overlap_from_optimal_angle(self):
        t = pmax(3).t
        angle = 2.0 * math.acos(math.sqrt(t))
        p = symmetric_params([0.0, 0.0, 0.0, 1.0], angle=angle)
        m = ansatz_measurements(p)
        plus_d = m.projectors[0][1][0]
        assert abs(plus_d[0, 0].real - t) < 1e-12

    def test_rejects_boundary_angle(self):
        with pytest.raises(DegenerateMeasurementError):
            symmetric_params([0.0, 0.0, 0.0, 1.0], angle=0.0)


class TestHardyTerms:
    def test_matches_behavior_module(self):
        rng = np.random.default_rng(9)
        for decoupled in (False, True):
            for _ in range(10):
                c = rng.standard_normal(4)
                c /= math.sqrt(c[0] ** 2 + 3 * c[1] ** 2 + 3 * c[2] ** 2 + c[3] ** 2)
                phases = rng.uniform(0, 2 * math.pi, 3)
                angles = rng.uniform(0.3, math.pi - 0.3, 3)
                meas_phases = (tuple(rng.uniform(0, 2 * math.pi, 3).tolist())
                               if decoupled else None)
                p = AnsatzParams(c000=c[0], c001=c[1], c011=c[2], c111=c[3],
                                 phi=phases[0], xi=phases[1], theta=phases[2],
                                 meas_alpha=angles[0], meas_beta=angles[1],
                                 meas_gamma=angles[2], meas_phases=meas_phases)
                psi = ansatz_state(p)
                fast_p, fast_z = hardy_terms(psi.amps.tolist(), angles.tolist(),
                                             p.measurement_phases)
                stats = hardy_statistics(joint_distribution(psi, ansatz_measurements(p)))
                assert abs(fast_p - stats.p) < 1e-12
                assert max(abs(a - b) for a, b in zip(fast_z, stats.zeros)) < 1e-12

    def test_hardy_state_is_feasible_point(self):
        t = pmax(3).t
        angle = 2.0 * math.acos(math.sqrt(t))
        x = canonical_start()
        fast_p, fast_z = hardy_terms(
            ansatz_state(symmetric_params(x[:4])).amps,
            (angle,) * 3, (0.0,) * 3)
        assert abs(fast_p - pmax(3).p_max) < 1e-12
        assert max(fast_z) < 1e-15

    def test_penalised_objective_matches_behavior_module(self):
        rng = np.random.default_rng(77)
        for decoupled in (False, True):
            start = canonical_start().tolist() + [0.0, 0.0, 0.0] * decoupled
            for k in range(21):
                x = start if k == 0 else random_vector(rng, decoupled)
                params = _params_from_vector(x, decoupled)
                stats = hardy_statistics(joint_distribution(
                    ansatz_state(params), ansatz_measurements(params)))
                # random points are mostly infeasible at a random bound, so
                # every other one gets a bound just above its largest term;
                # the penalty then targets half of it, while incumbents are
                # still filtered at the full bound
                if k % 2:
                    eps = float(np.max(stats.zeros)) + 1e-9
                    target = 0.5 * eps
                else:
                    eps = float(rng.uniform(0.0, 0.25))
                    target = eps
                mu = float(rng.choice([1e4, 1e5, 1e6]))
                want = -stats.p + mu * sum(max(z - target, 0.0) ** 2
                                           for z in stats.zeros)
                tracker = _Tracker(eps, decoupled)
                got = tracker.penalised(mu, target)(x)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
                feasible = float(np.max(stats.zeros)) - eps <= 1e-8
                assert (tracker.best_x == x) == feasible
                if feasible:
                    assert abs(tracker.best_p - stats.p) < 1e-12


class TestNelderMead:
    def test_quadratic(self):
        f = lambda x: float((x[0] - 1) ** 2 + 2 * (x[1] + 0.5) ** 2)
        x, val = nelder_mead(f, np.zeros(2), 0.5, max_iter=500)
        assert val < 1e-10
        assert np.allclose(x, [1.0, -0.5], atol=1e-4)

    def test_quadratic_ten_dims_list_input(self):
        target = [0.1 * (i - 4) for i in range(10)]
        weights = [1.0 + 0.5 * i for i in range(10)]

        def f(x):
            assert isinstance(x, list)
            return sum(w * (a - t) ** 2 for w, a, t in zip(weights, x, target))

        x, val = nelder_mead(f, [0.0] * 10, 0.5, max_iter=20000)
        assert isinstance(x, list) and len(x) == 10
        assert val == f(x)
        assert val < 1e-10
        assert max(abs(a - t) for a, t in zip(x, target)) < 1e-4


class TestLowerBound:
    def test_warm_start_at_zero(self):
        res = lower_bound(0.0, restarts=1, seed=123)
        assert abs(res.value - pmax(3).p_max) < 1e-6
        assert np.all(res.constraint_values <= 1e-8)

    def test_deterministic(self):
        a = lower_bound(0.01, restarts=3, seed=42)
        b = lower_bound(0.01, restarts=3, seed=42)
        assert a.value == b.value

    def test_monotone_in_epsilon(self):
        vals = [lower_bound(e, restarts=3, seed=5).value
                for e in (0.0, 0.03, 0.06)]
        assert vals[0] <= vals[1] + 1e-6 <= vals[2] + 2e-6

    def test_reported_values_reproducible(self):
        res = lower_bound(0.05, restarts=3, seed=17)
        psi = ansatz_state(res.params)
        stats = hardy_statistics(joint_distribution(psi, ansatz_measurements(res.params)))
        assert abs(stats.p - res.value) < 1e-10
        assert np.allclose(stats.zeros, res.constraint_values, atol=1e-8)
        assert np.all(res.constraint_values <= 0.05 + 1e-8)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValidationError):
            lower_bound(0.3, restarts=1, seed=0)

    def test_decoupled_phases_not_worse(self):
        shared = lower_bound(0.02, restarts=2, seed=3)
        wide = lower_bound(0.02, restarts=2, seed=3, decouple_phases=True)
        assert wide.value >= shared.value - 5e-4
