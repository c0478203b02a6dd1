import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hardylab
from hardylab import cli, variational
from hardylab.cli import SCAN_HEADER, load_observables, load_state_spec, main
from hardylab.npa import MAX_BASIS
from hardylab.selftest import canonical_observables
from hardylab.states import pmax


@pytest.fixture(autouse=True)
def serial_scan(monkeypatch):
    monkeypatch.setenv("HARDYLAB_WORKERS", "1")


def die_in_worker(task):
    """Stands in for ``cli._scan_point``: the pool worker exits at once,
    as one killed by the operating system would."""
    if multiprocessing.parent_process() is None:
        raise AssertionError("scan point run outside a pool worker")
    os._exit(1)


def constant_point(task):
    """Stands in for ``cli._scan_point``: a valid row, with no solve."""
    return task[0], (0.1, 0.3, 0.2, 0.15), None


class TestPmax:
    def test_bipartite_digits(self, capsys):
        assert main(["pmax", "--n", "2"]) == 0
        assert capsys.readouterr().out.strip() == "t=0.618033988750, p=0.090169943749"

    def test_tripartite_prefix(self, capsys):
        assert main(["pmax", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "p=0.018" in out

    def test_out_of_range(self):
        assert main(["pmax", "--n", "13"]) == 2


class TestState:
    def test_tripartite_optimum(self, tmp_path, capsys):
        out = tmp_path / "state.json"
        rc = main(["state", "--n", "3", "--alpha-sq", "0.543689",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert abs(doc["success_probability"] - 0.018194) < 1e-6
        assert doc["genuinely_entangled"] is True
        assert max(doc["zero_residuals"]) < 1e-10

    def test_bipartite_optimum(self, tmp_path):
        out = tmp_path / "state.json"
        assert main(["state", "--n", "2", "--alpha-sq", "0.618034",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["success_probability"] - 0.090170) < 1e-6

    def test_single_party_rejected(self):
        assert main(["state", "--n", "1", "--alpha-sq", "0.5"]) == 2

    def test_spec_round_trip(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["state", "--n", "2", "--alpha-sq", "0.4",
                     "--out", str(first)]) == 0
        assert main(["state", "--spec", str(first), "--out", str(second)]) == 0
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        assert np.allclose(a["amplitudes"]["re"], b["amplitudes"]["re"])
        assert abs(a["success_probability"] - b["success_probability"]) < 1e-12


class TestBounds:
    def test_local(self, capsys):
        assert main(["bounds", "--method", "local", "--epsilon", "0.05"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "0.200000"
        diag = json.loads(lines[1])
        assert diag["status"] == "optimal"

    def test_ns(self, capsys):
        assert main(["bounds", "--method", "ns", "--epsilon", "0.25"]) == 0
        assert capsys.readouterr().out.startswith("1.000000")

    def test_npa_bipartite(self, capsys):
        rc = main(["bounds", "--method", "npa", "--level", "2",
                   "--epsilon", "0", "--n", "2"])
        assert rc == 0
        value = float(capsys.readouterr().out.split("\n")[0])
        assert abs(value - 0.09017) < 5e-4

    def test_variational(self, capsys):
        rc = main(["bounds", "--method", "variational", "--epsilon", "0",
                   "--restarts", "2", "--seed", "7"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert float(lines[0]) >= 0.018184
        # the noiseless search stops once restart 0 reaches pmax(3)
        assert json.loads(lines[-1])["restarts"] == 1

    def test_variational_diagnostics(self, capsys):
        rc = main(["bounds", "--method", "variational", "--epsilon", "0.05",
                   "--restarts", "2", "--seed", "7"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert isinstance(doc["evaluations"], int)
        assert isinstance(doc["iterations"], int)
        assert doc["evaluations"] > doc["iterations"] > 0
        assert doc["restarts"] == 2

    @pytest.mark.parametrize("method", ["local", "ns"])
    def test_lp_pivots(self, method, capsys):
        from hardylab.polytope import BoundQuery, local_max, nosignaling_max

        assert main(["bounds", "--method", method, "--epsilon", "0.05"]) == 0
        doc = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        solve = local_max if method == "local" else nosignaling_max
        assert doc["pivots"] == solve(BoundQuery(3, 0.05)).pivots > 0

    def test_epsilon_range(self):
        assert main(["bounds", "--method", "local", "--epsilon", "0.4"]) == 2

    def test_npa_party_cap_fails_fast(self, capsys):
        start = time.perf_counter()
        assert main(["bounds", "--method", "npa", "--n", "20", "--level", "1",
                     "--epsilon", "0"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "exceeds the supported cap 12" in capsys.readouterr().err

    def test_variational_epsilon_range(self, capsys):
        assert main(["bounds", "--method", "local", "--epsilon", "0.28"]) == 0
        capsys.readouterr()
        assert main(["bounds", "--method", "variational", "--epsilon", "0.28",
                     "--restarts", "1"]) == 2
        assert "outside [0, 0.25]" in capsys.readouterr().err

    def test_variational_restarts_capped(self, monkeypatch, capsys):
        def no_search(tracker, x):
            raise AssertionError("restart run for a rejected restart count")

        monkeypatch.setattr(variational, "_local_search", no_search)
        assert main(["bounds", "--method", "variational", "--epsilon", "0.05",
                     "--restarts", "1001"]) == 2
        assert "restarts = 1001 outside [1, 1000]" in capsys.readouterr().err


class TestScan:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--eps-from", "0", "--eps-to", "0.1", "--steps", "3",
                   "--level", "2", "--restarts", "2", "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == SCAN_HEADER
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        local = [float(r[1]) for r in rows]
        assert np.allclose(local, [0.0, 0.2, 0.4], atol=1e-9)
        for r in rows:
            eps, loc, ns, npa, level, var, restarts, seed = r
            assert float(loc) <= float(npa) + 2e-3
            assert float(var) <= float(npa) + 2e-3
            assert float(npa) <= float(ns) + 2e-3
            # the requested restarts, also on the eps=0 row that stops early
            assert (level, restarts, seed) == ("2", "2", "3")

    def test_byte_identical(self, tmp_path):
        args = ["scan", "--eps-from", "0", "--eps-to", "0.08", "--steps", "2",
                "--level", "2", "--restarts", "2", "--seed", "11"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_grid(self):
        assert main(["scan", "--eps-from", "0.2", "--eps-to", "0.1"]) == 2

    def test_steps_cap_checked_before_the_grid(self, monkeypatch, capsys):
        def no_grid(*args):
            raise AssertionError("grid built for a rejected step count")

        monkeypatch.setattr(cli, "_scan_grid", no_grid)
        tracemalloc.start()
        try:
            rc = main(["scan", "--steps", str(10 ** 12), "--restarts", "1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert f"outside [2, {cli.MAX_SCAN_STEPS}]" in capsys.readouterr().err
        assert peak < 1 << 20
        assert main(["scan", "--steps", str(cli.MAX_SCAN_STEPS + 1)]) == 2
        assert main(["scan", "--steps", "1"]) == 2

    def test_steps_cap_is_accepted(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_scan_point",
                            lambda task: (task[0], (0.0, 0.0, 0.0, 0.0), None))
        assert main(["scan", "--steps", str(cli.MAX_SCAN_STEPS), "--restarts", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == cli.MAX_SCAN_STEPS + 1

    def test_level_cap_fails_fast(self, monkeypatch, capsys):
        def no_point(task):
            raise AssertionError("scan point run for a rejected level")

        monkeypatch.setattr(cli, "_scan_point", no_point)
        start = time.perf_counter()
        assert main(["scan", "--level", "1000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert f"cap of {MAX_BASIS} monomials" in capsys.readouterr().err

    def test_level_too_low_fails_before_any_point(self, monkeypatch, capsys):
        def no_point(task):
            raise AssertionError("scan point run for a level that cannot express p")

        monkeypatch.setattr(cli, "_scan_point", no_point)
        assert main(["scan", "--level", "1", "--steps", "3", "--restarts", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "moment p1:U.p2:U.p3:U is not expressible at level 1" in captured.err

    @pytest.mark.parametrize("restarts", ["0", "-3", "1001"])
    def test_restarts_checked_before_any_point(self, monkeypatch, capsys, restarts):
        def no_point(task):
            raise AssertionError("scan point run for a rejected restart count")

        monkeypatch.setattr(cli, "_scan_point", no_point)
        assert main(["scan", "--steps", "3", "--restarts", restarts]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--restarts = {restarts} outside [1, 1000]" in captured.err

    def test_restart_product_capped_before_any_point(self, monkeypatch, capsys):
        def no_point(task):
            raise AssertionError("scan point run past the restart product cap")

        monkeypatch.setattr(cli, "_scan_point", no_point)
        assert main(["scan", "--steps", "27", "--restarts", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("--steps x --restarts = 27000 passes the cap of 26000 restarts"
                in captured.err)

    def test_restart_product_cap_is_accepted(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_scan_point",
                            lambda task: calls.append(task) or constant_point(task))
        assert cli.MAX_SCAN_RESTARTS == 26 * variational.MAX_RESTARTS
        assert main(["scan", "--steps", "26", "--restarts", "1000"]) == 0
        assert len(calls) == 26
        assert len(capsys.readouterr().out.splitlines()) == 27

    def test_dead_worker_fails_its_rows(self, tmp_path, monkeypatch, capsys):
        # a worker that exits abruptly breaks the pool; the scan reports
        # the pool layer for every point without a result and exits 3
        monkeypatch.setattr(cli, "_scan_point", die_in_worker)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("HARDYLAB_WORKERS", "2")
        out = tmp_path / "scan.csv"
        assert main(["scan", "--steps", "2", "--restarts", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        for eps in ("0.000000", "0.250000"):
            assert f"scan check failed: epsilon={eps}: pool layer: worker died" in err
        assert "Traceback" not in err
        rows = out.read_text().strip().split("\n")[1:]
        assert [r.split(",")[1:4] for r in rows] == [["nan"] * 3] * 2

    def test_unwritable_out_fails_before_any_point(self, tmp_path, monkeypatch,
                                                   capsys):
        def no_point(task):
            raise AssertionError("scan point run with an unwritable --out")

        monkeypatch.setattr(cli, "_scan_point", no_point)
        out = tmp_path / "missing" / "scan.csv"
        assert main(["scan", "--steps", "3", "--restarts", "1",
                     "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    def test_grid_range_is_variational_range(self, capsys):
        assert main(["scan", "--eps-from", "0", "--eps-to", "0.3"]) == 2
        assert "<= 0.25" in capsys.readouterr().err

    def test_byte_identical_across_worker_counts(self, tmp_path, monkeypatch):
        args = ["scan", "--eps-from", "0", "--eps-to", "0.1", "--steps", "3",
                "--level", "2", "--restarts", "2", "--seed", "5"]
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("HARDYLAB_WORKERS", workers)
            out = tmp_path / f"scan{workers}.csv"
            assert main(args + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("raw,steps,expected", [
        ("100000", 6, 4), ("100000", 3, 3), ("3", 6, 3), ("0", 6, 1), ("-4", 6, 1)])
    def test_worker_count_clamped(self, monkeypatch, raw, steps, expected):
        pools = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor and starts no process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(cli, "_scan_point",
                            lambda task: (task[0], (0.0, 0.0, 0.0, 0.0), None))
        monkeypatch.setenv("HARDYLAB_WORKERS", raw)
        assert main(["scan", "--steps", str(steps), "--restarts", "1"]) == 0
        # one worker runs in-process, without a pool
        assert pools == ([] if expected == 1 else [expected])

    def test_worker_count_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("HARDYLAB_WORKERS", "two")
        assert main(["scan", "--steps", "3", "--restarts", "1"]) == 2
        assert "HARDYLAB_WORKERS" in capsys.readouterr().err

    def test_unexpected_error_names_layer_and_epsilon(self, tmp_path,
                                                      monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("moment solver exploded")

        monkeypatch.setattr(cli, "npa_upper_bound", broken)
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--eps-from", "0", "--eps-to", "0.1", "--steps", "2",
                   "--restarts", "1", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        for eps in ("0.000000", "0.100000"):
            assert (f"scan check failed: epsilon={eps}: npa layer: "
                    "RuntimeError: moment solver exploded") in err
        rows = out.read_text().strip().split("\n")[1:]
        assert [r.split(",")[1] for r in rows] == ["nan", "nan"]

    def test_rows_revalidate_through_library(self, tmp_path):
        from hardylab.behavior import Scenario
        from hardylab.cli import scan_point_seed
        from hardylab.npa import npa_upper_bound
        from hardylab.polytope import BoundQuery, local_max, nosignaling_max
        from hardylab.variational import lower_bound

        out = tmp_path / "scan.csv"
        assert main(["scan", "--eps-from", "0.02", "--eps-to", "0.1",
                     "--steps", "2", "--level", "2", "--restarts", "2",
                     "--seed", "9", "--out", str(out)]) == 0
        for idx, line in enumerate(out.read_text().strip().split("\n")[1:]):
            eps, loc, ns, npa, _, var, restarts, seed = line.split(",")
            eps = float(eps)
            q = BoundQuery(3, eps)
            assert abs(local_max(q).value - float(loc)) < 1e-9
            assert abs(nosignaling_max(q).value - float(ns)) < 1e-9
            assert abs(npa_upper_bound(Scenario(3), 2, eps, tol=1e-6)
                       - float(npa)) < 1e-9
            redo = lower_bound(eps, restarts=int(restarts),
                               seed=scan_point_seed(int(seed), idx))
            assert abs(redo.value - float(var)) < 1e-9


class TestSelftest:
    def test_canonical_passes(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        rc = main(["selftest", "--canonical", "3", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("selftest-report/1")
        assert "verdict PASS" in text

    def test_product_state_hypothesis_unmet(self, tmp_path):
        from hardylab.states import pmax
        t = pmax(3).t
        spec = {
            "schema": 1,
            "n": 3,
            "pairs": [{"alpha": [t ** 0.5, 0.0],
                       "beta": [(1 - t) ** 0.5, 0.0]}] * 3,
            "amplitudes": {"re": [1, 0, 0, 0, 0, 0, 0, 0],
                           "im": [0, 0, 0, 0, 0, 0, 0, 0],
                           "dims": [2, 2, 2]},
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(spec))
        assert main(["selftest", "--state", str(path)]) == 4

    def test_observable_file(self, tmp_path):
        obs = canonical_observables(3)
        doc = {"schema": 1, "parties": [
            {"a1": {"re": o.a1.real.tolist(), "im": o.a1.imag.tolist()},
             "a2": {"re": o.a2.real.tolist(), "im": o.a2.imag.tolist()}}
            for o in obs]}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(doc))
        loaded = load_observables(str(path))
        assert np.allclose(loaded[0].a2, obs[0].a2)
        rc = main(["selftest", "--canonical", "3", "--observables", str(path)])
        assert rc == 0

    def test_missing_input(self):
        assert main(["selftest"]) == 2


def product_spec(n, dims=None):
    """State spec of |0..0> with n pairs at |alpha|^2 = 1/2; ``dims``
    overrides the amplitude layout (default n qubits)."""
    dims = [2] * n if dims is None else dims
    size = int(np.prod(dims))
    pair = {"alpha": [0.5 ** 0.5, 0.0], "beta": [0.5 ** 0.5, 0.0]}
    return {"schema": 1, "n": n, "pairs": [pair] * n,
            "amplitudes": {"re": [1.0] + [0.0] * (size - 1), "im": [0.0] * size,
                           "dims": dims}}


class TestTol:
    BAD = ["-1", "nan", "0", "inf", "-inf"]

    @pytest.mark.parametrize("tol", BAD)
    @pytest.mark.parametrize("argv", [
        ["state", "--n", "3", "--alpha-sq", "0.5"],
        ["bounds", "--method", "npa", "--epsilon", "0.05"],
        ["bounds", "--method", "local", "--epsilon", "0.05"],
        ["scan", "--steps", "2", "--restarts", "1"],
        ["selftest", "--canonical", "3"],
    ], ids=["state", "bounds-npa", "bounds-local", "scan", "selftest"])
    def test_rejected_before_any_work(self, argv, tol, capsys):
        assert main(argv + ["--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_product_spec_not_reported_entangled(self, tmp_path, tol, capsys):
        # a negative or NaN tol passed every cut's "second coefficient <=
        # tol" test, so the product state read as genuinely entangled
        path = tmp_path / "product.json"
        path.write_text(json.dumps(product_spec(3)))
        assert main(["state", "--spec", str(path), "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err
        assert main(["state", "--spec", str(path), "--tol", "1e-9"]) == 0
        assert json.loads(capsys.readouterr().out)["genuinely_entangled"] is False

    def test_small_positive_tol_accepted(self, capsys):
        assert main(["state", "--n", "3", "--alpha-sq", "0.5", "--tol", "1e-300"]) == 0
        assert json.loads(capsys.readouterr().out)["genuinely_entangled"] is True


class TestUsage:
    def test_unknown_flag_returns_2(self, capsys):
        assert main(["state", "--n", "3", "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: hardylab" in capsys.readouterr().out


class TestSpecPartyCount:
    @pytest.fixture
    def hardy_spec(self, capsys):
        assert main(["state", "--n", "3", "--alpha-sq", repr(pmax(3).t)]) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("command", ["state", "selftest"])
    def test_consistent_spec_accepted(self, tmp_path, hardy_spec, command):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(hardy_spec))
        flag = "--spec" if command == "state" else "--state"
        assert main([command, flag, str(path)]) == 0

    @pytest.mark.parametrize("command", ["state", "selftest"])
    @pytest.mark.parametrize("edit,message", [
        ("n", "n=5 but 3 measurement pairs"),
        ("pairs", "n=3 but 4 measurement pairs"),
        ("dims", "n=3 but 2 amplitude dims"),
        ("n-no-pairs", "n=5 but 3 amplitude dims"),
    ])
    def test_mismatch_exits_2(self, tmp_path, hardy_spec, command, edit,
                              message, capsys):
        # a spec saying n=5 around the 3-qubit Hardy state passed the
        # self-test, which reads the party count off the amplitudes
        spec = dict(hardy_spec)
        if edit.startswith("n"):
            spec["n"] = 5
        if edit == "n-no-pairs":
            del spec["pairs"]
        if edit == "pairs":
            spec["pairs"] = spec["pairs"] + spec["pairs"][:1]
        if edit == "dims":
            spec["amplitudes"] = dict(spec["amplitudes"], dims=[4, 2])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        flag = "--spec" if command == "state" else "--state"
        assert main([command, flag, str(path)]) == 2
        assert message in capsys.readouterr().err


# Runs ``state --n 8`` and ``selftest --canonical 6`` in a loop and prints
# the best loop's wall and process CPU seconds (every thread counts).
BLAS_POOL_LOOP = """
import io, sys, time
from contextlib import redirect_stdout
from hardylab.cli import main
from hardylab.states import pmax
jobs = [["state", "--n", "8", "--alpha-sq", repr(pmax(8).t)],
        ["selftest", "--canonical", "6"]]
best = None
for _ in range(4):
    c0, t0 = time.process_time(), time.perf_counter()
    for _ in range(10):
        for job in jobs:
            with redirect_stdout(io.StringIO()):
                assert main(job) == 0
    run = (time.perf_counter() - t0, time.process_time() - c0)
    best = run if best is None or run[0] < best[0] else best
print(*best)
"""


def test_certify_path_keeps_off_the_blas_pool():
    # State construction and the self-test make only small products; a
    # BLAS call above the threading threshold wakes the pool, whose helper
    # thread then spins through the job and doubles the CPU time.  Within
    # one process CPU then reads about twice the wall time on two cores,
    # a ratio that host load lowers rather than raises.
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    src = str(Path(hardylab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    times = {}
    for threads in (None, "1"):
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", BLAS_POOL_LOOP], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        times[threads] = [float(v) for v in done.stdout.split()]
    (wall, cpu), (_, cpu_1) = times[None], times["1"]
    assert cpu <= 1.3 * wall
    assert cpu <= 1.5 * cpu_1


class TestSpecCaps:
    @pytest.mark.parametrize("command", ["state", "selftest"])
    @pytest.mark.parametrize("n,dims", [(13, None), (3, [2] * 13), (3, [4096, 2]),
                                        (1, None)],
                             ids=["13-parties", "13-dims", "8192-dim", "1-party"])
    def test_spec_rejected_fast(self, tmp_path, command, n, dims, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(product_spec(n, dims)))
        flag = "--spec" if command == "state" else "--state"
        start = time.perf_counter()
        assert main([command, flag, str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "error:" in capsys.readouterr().err

    def test_largest_dims_accepted(self, tmp_path):
        # 2^MAX_PARTIES amplitudes on fewer parties pass the cap
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(product_spec(3, [16, 16, 16])))
        n, pairs, state = load_state_spec(str(path))
        assert (n, len(pairs), state.dims) == (3, 3, (16, 16, 16))

    def test_observables_party_cap(self, tmp_path, capsys):
        o = canonical_observables(2)[0]
        party = {"a1": {"re": o.a1.real.tolist(), "im": o.a1.imag.tolist()},
                 "a2": {"re": o.a2.real.tolist(), "im": o.a2.imag.tolist()}}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({"schema": 1, "parties": [party] * 13}))
        assert main(["selftest", "--canonical", "3", "--observables", str(path)]) == 2
        assert "13 parties exceed 12" in capsys.readouterr().err


class TestMalformedFiles:
    # each shape once raised out of main (TypeError, IndexError,
    # AttributeError) and the console script exited 1, a self-test FAIL
    def test_scalar_pair_amplitude(self, tmp_path, capsys):
        spec = product_spec(2)
        spec["pairs"][0] = dict(spec["pairs"][0], alpha=0.5)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["state", "--spec", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_scalar_observable(self, tmp_path, capsys):
        o = canonical_observables(2)[0]
        party = {"a1": {"re": 1, "im": 0},
                 "a2": {"re": o.a2.real.tolist(), "im": o.a2.imag.tolist()}}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({"schema": 1, "parties": [party] * 2}))
        assert main(["selftest", "--canonical", "2", "--observables", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["state", "--spec"],
                                      ["selftest", "--state"],
                                      ["selftest", "--canonical", "2", "--observables"]])
    def test_top_level_list(self, tmp_path, argv, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps([product_spec(2)]))
        assert main(argv + [str(path)]) == 2
        assert str(path) in capsys.readouterr().err
