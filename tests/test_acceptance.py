"""Acceptance suite: one test per exit criterion, with pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  The scan-based criteria share a single cached noise scan.
"""

import json
import math

import numpy as np
import pytest

from closed_forms import optimal_alpha_sq_tripartite, success_prob_closed
from conftest import random_pairs
from hardylab.behavior import (BehaviorTensor, hardy_statistics, hardy_values,
                               joint_distribution, measurements_from_pairs)
from hardylab.cli import SCAN_HEADER, main
from hardylab.errors import HypothesisUnmetError
from hardylab.linalg import StateVector
from hardylab.npa import npa_upper_bound
from hardylab.polytope import local_max
from hardylab.sdp import TOL
from hardylab.selftest import canonical_measurements, selftest_report
from hardylab.states import (MeasurementPair, hardy_state,
                             is_genuinely_entangled, pmax)
from hardylab.variational import lower_bound
from test_polytope import deterministic_tables, witness_table
from test_selftest import embedded_hardy_setup
from tripartite import tripartite_explicit

EPS_GRID = (0.0, 0.02, 0.04, 0.06, 0.08)


def report(criterion, text):
    print(f"\n[PASS] criterion {criterion}: {text}")


@pytest.fixture(scope="module")
def npa_level3(request):
    cache = {}

    def get(eps):
        if eps not in cache:
            cache[eps] = npa_upper_bound(3, 3, eps)
        return cache[eps]

    return get


@pytest.fixture(scope="module")
def scan_rows(tmp_path_factory):
    """Full default noise scan (26 points, level 2, 50 restarts)."""
    out = tmp_path_factory.mktemp("scan") / "scan.csv"
    rc = main(["scan", "--eps-from", "0", "--eps-to", "0.25", "--steps", "26",
               "--level", "2", "--restarts", "50", "--seed", "2026",
               "--out", str(out)])
    assert rc == 0, "scan reported an invariant violation"
    lines = out.read_text().strip().split("\n")
    assert lines[0] == SCAN_HEADER
    rows = []
    for line in lines[1:]:
        eps, loc, ns, npa, level, var, restarts, seed = line.split(",")
        rows.append({"epsilon": float(eps), "local": float(loc),
                     "no_signaling": float(ns), "npa_upper": float(npa),
                     "npa_level": int(level), "variational_lower": float(var),
                     "restarts": int(restarts), "seed": int(seed)})
    return rows


def test_criterion_01_bipartite_optimum():
    golden_p = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
    golden_t = (math.sqrt(5.0) - 1.0) / 2.0
    res = pmax(2)
    assert abs(res.p_max - golden_p) <= 1e-9
    assert abs(res.t - golden_t) <= 1e-9
    pairs = [MeasurementPair.from_alpha_sq(golden_t)] * 2
    psi = hardy_state(2, pairs)
    born = joint_distribution(psi, measurements_from_pairs(pairs))
    p_born, _ = hardy_statistics(born)
    assert abs(p_born - golden_p) <= 1e-6
    report(1, f"pmax(2) = {res.p_max:.10f}, Born-rule check {p_born:.10f}")


def test_criterion_02_tripartite_optimum(capsys):
    res = pmax(3)
    assert abs(res.p_max - 0.018194) <= 1e-6
    assert main(["pmax", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "p=0.018" in out
    alpha_sq = optimal_alpha_sq_tripartite()
    assert abs(alpha_sq - res.t) <= 1e-9
    report(2, f"pmax(3) = {res.p_max:.10f}, closed-form |alpha|^2 matches t")


def test_criterion_03_construction_consistency():
    rng = np.random.default_rng(12345)
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            pairs = random_pairs(rng, n)
            psi = hardy_state(n, pairs)
            ket = np.zeros(2 ** n)
            ket[0] = 1.0
            overlap = abs(np.vdot(psi.amps, ket)) ** 2
            assert abs(success_prob_closed(pairs) - overlap) <= 1e-10
            p, zeros = hardy_statistics(
                joint_distribution(psi, measurements_from_pairs(pairs)))
            assert float(np.max(zeros)) <= 1e-10
    for _ in range(20):
        pair = random_pairs(rng, 1)[0]
        explicit = tripartite_explicit(pair)
        ref = hardy_state(3, [pair] * 3)
        phase = np.vdot(ref.amps, explicit.amps)
        phase /= abs(phase)
        assert np.linalg.norm(explicit.amps - phase * ref.amps) <= 1e-9
    report(3, "closed form, zero conditions and explicit three-party form agree")


def test_criterion_04_local_bound():
    # the bound: p <= sum of the Hardy terms on every deterministic strategy
    p, zs = hardy_values(deterministic_tables(3), 3)
    assert len(p) == 64 and np.all(p <= zs.sum(axis=-1))
    # the witness meets it
    worst = 0.0
    for k in range(31):
        eps = 0.01 * k
        value, terms = hardy_statistics(BehaviorTensor(witness_table(3, eps)))
        assert np.all(terms <= eps + 1e-12)
        worst = max(worst, abs(value - local_max(3, eps)))
    assert worst <= 1e-12
    report(4, "p <= sum of terms on the 64 strategies; the witness meets "
              f"local_max on the grid (worst dev {worst:.1e})")


def test_criterion_05_npa_bipartite():
    value = npa_upper_bound(2, 2, 0.0)
    assert abs(value - 0.0901699) <= 5e-4
    report(5, f"bipartite level-2 bound {value:.7f} (target 0.0901699 +- 5e-4)")


def test_criterion_06_npa_tripartite(npa_level3):
    value0 = npa_level3(0.0)
    assert 0.018194 <= value0 <= 0.018694
    for eps in EPS_GRID:
        l2 = npa_upper_bound(3, 2, eps)
        l3 = npa_level3(eps)
        assert l3 <= l2 + 2.0 * TOL
    report(6, f"level-3 bound at eps=0 is {value0:.7f}; level monotone on the grid")


def test_criterion_07_variational(npa_level3):
    res0 = lower_bound(0.0, restarts=50, seed=424242)
    assert res0.value >= 0.018184
    worst_gap = 0.0
    for eps in EPS_GRID:
        upper = npa_level3(eps)
        lower = lower_bound(eps, restarts=50, seed=424242).value
        gap = upper - lower
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-3
    report(7, f"lower_bound(0) = {res0.value:.7f}; worst upper-lower gap {worst_gap:.2e}")


def test_criterion_08_sandwich_scan(scan_rows):
    prev = None
    for row in scan_rows:
        assert row["local"] <= row["npa_upper"] + 2e-3
        assert row["variational_lower"] <= row["npa_upper"] + 2e-3
        assert row["npa_upper"] <= row["no_signaling"] + 2e-3
        if prev is not None:
            for col in ("no_signaling", "npa_upper", "variational_lower"):
                assert row[col] >= prev[col] - 2e-3
        prev = row
    report(8, f"sandwich and monotonicity hold on all {len(scan_rows)} scan rows")


def test_criterion_09_selftesting():
    rng = np.random.default_rng(777)
    worst = 1.0
    for _ in range(20):
        junk_dims = tuple(int(d) for d in rng.integers(1, 3, size=3))
        state, obs, _ = embedded_hardy_setup(rng, junk_dims)
        rep = selftest_report(state, obs)
        worst = min(worst, rep.total_fidelity)
        assert rep.total_fidelity >= 1.0 - 1e-6
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0
    with pytest.raises(HypothesisUnmetError):
        selftest_report(StateVector((2, 2, 2), amps), canonical_measurements(3))
    report(9, f"20 embedded-junk trials certified (worst fidelity {worst:.9f})")


def test_criterion_10_genuineness():
    for n in (2, 3, 4):
        pairs = [MeasurementPair.from_alpha_sq(pmax(n).t)] * n
        assert is_genuinely_entangled(hardy_state(n, pairs), tol=1e-6)
    rng = np.random.default_rng(99)
    cases = 0
    for n in (2, 3, 4):
        for _ in range(3):
            amps = np.ones(1, dtype=complex)
            for _ in range(n):
                local = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                local /= np.linalg.norm(local)
                amps = np.kron(amps, local)
            assert not is_genuinely_entangled(StateVector((2,) * n, amps))
            cases += 1
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    bisep = np.kron(bell, np.array([1.0, 0.0], dtype=complex))
    assert not is_genuinely_entangled(StateVector((2, 2, 2), bisep))
    cases += 1
    report(10, f"Hardy states genuine for n=2..4; {cases} separable cases rejected")


def test_criterion_11_determinism(tmp_path):
    args = ["scan", "--eps-from", "0", "--eps-to", "0.12", "--steps", "4",
            "--level", "2", "--restarts", "3", "--seed", "31415"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report(11, "repeated scans with identical flags and seed are byte-identical")
