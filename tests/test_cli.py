import dataclasses
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
from hardylab.behavior import measurements_from_observables
from hardylab.cli import SCAN_HEADER, load_observables, load_state_spec, main
from hardylab.errors import NumericError
from hardylab.npa import MAX_BASIS
from hardylab.polytope import local_max
from hardylab.selftest import canonical_measurements, jordan_blocks
from hardylab.states import MeasurementPair, pmax


@pytest.fixture(autouse=True)
def serial_scan(monkeypatch):
    monkeypatch.setenv("HARDYLAB_WORKERS", "1")


def die_in_worker(task):
    """Stands in for ``cli._scan_point``: the pool worker exits at once,
    as one killed by the operating system would."""
    if multiprocessing.parent_process() is None:
        raise AssertionError("scan point run outside a pool worker")
    os._exit(1)


def src_env() -> dict:
    """This environment with the tested hardylab's sources on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(hardylab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def feasible_point(task):
    """Stands in for ``cli._scan_point``: an npa or variational value that
    passes every row check, with no solve."""
    return local_max(3, task[1]), None


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
        assert set(diag) == {"method", "epsilon", "n", "value"}

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

    @pytest.mark.parametrize("method,n,eps,want", [
        ("local", 12, "0.05", "0.650000"), ("ns", 5, "0.1", "0.680000")])
    def test_polytope_party_ranges(self, capsys, method, n, eps, want):
        assert main(["bounds", "--method", method, "--n", str(n), "--epsilon", eps]) == 0
        first, doc = capsys.readouterr().out.strip().split("\n")
        assert first == want
        doc = json.loads(doc)
        assert doc == {"method": method, "epsilon": float(eps), "n": n,
                       "value": pytest.approx(float(want), abs=1e-15)}

    @pytest.mark.parametrize("method,n,top", [("local", 13, 12), ("ns", 6, 5)])
    def test_polytope_party_range_exits_2(self, capsys, method, n, top):
        assert main(["bounds", "--method", method, "--n", str(n), "--epsilon", "0.1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"n={n} outside [2, {top}]" in err

    def test_epsilon_range(self, capsys):
        # every method takes [0, 1] through the one check, the command none
        for method in ("local", "ns", "npa", "variational"):
            args = ["bounds", "--method", method, "--restarts", "2", "--epsilon"]
            for eps in ("0", "1"):
                assert main(args + [eps]) == 0, (method, eps)
                assert 0.0 <= float(capsys.readouterr().out.split("\n")[0]) <= 1.0
            for eps in ("1.5", "-0.1", "nan"):
                assert main(args + [eps]) == 2, (method, eps)
                assert capsys.readouterr() == (
                    "", f"error: epsilon = {eps} outside [0, 1]\n")

    @pytest.mark.parametrize("eps", ["0.31", "0.32"])
    def test_bipartite_bounds_past_three_tenths(self, capsys, eps):
        # at n = 2 the three bounds stay below 1 past epsilon = 0.3
        values = {}
        for method in ("local", "ns", "npa"):
            assert main(["bounds", "--method", method, "--n", "2", "--epsilon", eps]) == 0
            values[method] = json.loads(capsys.readouterr().out.split("\n")[1])["value"]
        assert values["local"] <= values["npa"] <= values["ns"] < 1.0

    def test_npa_party_cap_fails_fast(self, capsys):
        start = time.perf_counter()
        assert main(["bounds", "--method", "npa", "--n", "20", "--level", "1",
                     "--epsilon", "0"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "n=20 outside [2, 12]" in capsys.readouterr().err

    def test_variational_epsilon_range(self, capsys):
        # the variational search takes the range of the other methods,
        # past the local bound's saturation at 0.25 too
        for eps in ("0.28", "1"):
            assert main(["bounds", "--method", "local", "--epsilon", eps]) == 0
            local = json.loads(capsys.readouterr().out.split("\n")[1])["value"]
            assert main(["bounds", "--method", "variational", "--epsilon", eps,
                         "--restarts", "1"]) == 0
            doc = json.loads(capsys.readouterr().out.split("\n")[1])
            assert max(doc["constraints"]) <= float(eps) + variational.FEAS_SLACK
            assert 0.0 < doc["value"] <= local + 1e-9
        assert main(["bounds", "--method", "variational", "--epsilon", "1.01",
                     "--restarts", "1"]) == 2
        assert capsys.readouterr().err == "error: epsilon = 1.01 outside [0, 1]\n"

    def test_variational_restarts_capped(self, monkeypatch, capsys):
        def no_search(tracker, x):
            raise AssertionError("restart run for a rejected restart count")

        monkeypatch.setattr(variational, "_local_search", no_search)
        assert main(["bounds", "--method", "variational", "--epsilon", "0.05",
                     "--restarts", "1001"]) == 2
        assert "restarts = 1001 outside [1, 1000]" in capsys.readouterr().err

    def test_variational_negative_seed_named(self, capsys):
        assert main(["bounds", "--method", "variational", "--epsilon", "0.05",
                     "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: seed = -1 must be nonnegative\n"


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

    def test_bad_grid(self, capsys):
        for lo, hi in (("0.2", "0.1"), ("0.1", "0.1")):
            assert main(["scan", "--eps-from", lo, "--eps-to", hi]) == 2
            assert capsys.readouterr().err == "error: grid must satisfy from < to\n"

    # (npa, variational) at epsilon 0 and 0.05, where local is 0 and 0.2
    # and no-signaling 1/3 and 0.466667; each case breaks one check
    @pytest.mark.parametrize("points,ns,line", [
        (((0.05, 0.0), (0.1, 0.0)), None,
         "epsilon=0.050000: local 0.200000 exceeds npa 0.100000"),
        (((0.2, 0.25), (0.3, 0.25)), None,
         "epsilon=0.000000: variational 0.250000 exceeds npa 0.200000"),
        (((0.4, 0.0), (0.45, 0.0)), None,
         "epsilon=0.000000: npa 0.400000 exceeds no-signaling 0.333333"),
        (((0.3, 0.0), (0.3, 0.0)), (0.5, 0.4),
         "epsilon=0.050000: no_signaling decreased from 0.500000 to 0.400000"),
        (((0.3, 0.0), (0.25, 0.0)), None,
         "epsilon=0.050000: npa_upper decreased from 0.300000 to 0.250000"),
        (((0.3, 0.2), (0.3, 0.1)), None,
         "epsilon=0.050000: variational_lower decreased from 0.200000 to 0.100000"),
    ], ids=["local-npa", "variational-npa", "npa-ns", "ns-monotone",
            "npa-monotone", "variational-monotone"])
    def test_row_checks_fire(self, monkeypatch, capsys, points, ns, line):
        grid = (0.0, 0.05)
        monkeypatch.setattr(cli, "_scan_point", lambda task: (
            points[grid.index(task[1])][cli.SCAN_LAYERS.index(task[0])], None))
        if ns is not None:
            monkeypatch.setattr(cli, "nosignaling_max",
                                lambda n, eps: ns[grid.index(eps)])
        assert main(["scan", "--eps-to", "0.05", "--steps", "2", "--restarts", "1"]) == 3
        assert capsys.readouterr().err == f"scan check failed: {line}\n"

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
        monkeypatch.setattr(cli, "_scan_point", feasible_point)
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
        assert capsys.readouterr() == (
            "", f"error: restarts = {restarts} outside [1, 1000]\n")

    def test_negative_seed_checked_before_any_point(self, monkeypatch, capsys):
        # scan checks --seed as bounds does, with its message
        def no_point(task):
            raise AssertionError("scan point run for a rejected seed")

        monkeypatch.setattr(cli, "_scan_point", no_point)
        assert main(["scan", "--steps", "3", "--restarts", "1", "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: seed = -1 must be nonnegative\n")

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
                            lambda task: calls.append(task) or feasible_point(task))
        assert cli.MAX_SCAN_RESTARTS == 26 * variational.MAX_RESTARTS
        assert main(["scan", "--steps", "26", "--restarts", "1000"]) == 0
        assert len(calls) == len(cli.SCAN_LAYERS) * 26
        assert len(capsys.readouterr().out.splitlines()) == 27

    def test_dead_worker_fails_its_rows(self, tmp_path, monkeypatch, capsys):
        # a worker that exits abruptly breaks the pool; the scan reports
        # the pool layer for every point without a result and exits 3
        monkeypatch.setattr(cli, "_scan_point", die_in_worker)
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
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

    def test_grid_range_is_variational_range(self, monkeypatch, capsys):
        # both grid ends take the one noise check of every method
        def no_point(task):
            raise AssertionError("scan point run for a rejected grid")

        monkeypatch.setattr(cli, "_scan_point", no_point)
        for lo, hi, shown in (("0", "1.5", "1.5"), ("-0.1", "0.1", "-0.1"),
                              ("nan", "0.1", "nan"), ("0", "nan", "nan")):
            assert main(["scan", "--eps-from", lo, "--eps-to", hi,
                         "--steps", "3", "--restarts", "1"]) == 2
            assert capsys.readouterr() == (
                "", f"error: epsilon = {shown} outside [0, 1]\n")

    def test_grid_to_one(self, capsys):
        # points past the local bound's saturation pass every row check
        assert main(["scan", "--eps-to", "1", "--steps", "5", "--restarts", "2"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        for eps, loc, ns, npa, _, var, _, _ in rows[2:]:
            assert loc == ns == 1.0
            assert 1.0 - 1e-6 < var <= npa + 1e-7

    @pytest.mark.parametrize("eps_from", [0.0, 0.02, 0.05])
    def test_grid_ends_at_eps_to(self, eps_from):
        # the evenly spaced formula's last point rounds above 0.25 for
        # 16 of these step counts from 0.05 and 27 from 0.02
        for steps in range(2, 201):
            grid = cli._scan_grid(eps_from, 0.25, steps)
            assert len(grid) == steps
            assert grid[-1] == 0.25
            assert grid[:-1] == [eps_from + k * (0.25 - eps_from) / (steps - 1)
                                 for k in range(steps - 1)]
            assert grid == sorted(grid)

    def test_grid_end_in_the_variational_range(self, capsys):
        # the evenly spaced formula puts this grid's last point at
        # 0.25000000000000006, outside the variational range
        assert main(["scan", "--eps-from", "0.05", "--eps-to", "0.25",
                     "--steps", "4", "--restarts", "1"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[-1].startswith("0.250000,1.000000000,1.000000000,")

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
        ("100000", 6, 4), ("100000", 3, 4), ("3", 6, 3), ("0", 6, 1), ("-4", 6, 1)])
    def test_worker_count_clamped(self, monkeypatch, raw, steps, expected):
        pools, mapped, run = [], [], []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor and starts no process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                mapped.extend(tasks)
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_usable_cores", lambda: 4)
        # every worker count maps its tasks to _scan_point: one worker by
        # the builtin map, a pool by RecordingPool.map in process
        monkeypatch.setattr(cli, "_scan_point",
                            lambda task: run.append(task) or feasible_point(task))
        monkeypatch.setenv("HARDYLAB_WORKERS", raw)
        assert main(["scan", "--steps", str(steps), "--restarts", "1"]) == 0
        # one worker runs in-process, without a pool
        assert pools == ([] if expected == 1 else [expected])
        assert mapped == ([] if expected == 1 else run)
        # one task list for every worker count: only the two solvers, the
        # variational searches first; the closed-form columns are computed
        # in the row
        grid = cli._scan_grid(0.0, 0.25, steps)
        assert run == [(layer, eps, 2, 1, cli.scan_point_seed(0, k))
                       for layer in ("variational", "npa") for k, eps in enumerate(grid)]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    @pytest.mark.parametrize("raw", [None, "26"])
    def test_worker_count_follows_cpu_affinity(self, raw):
        # a process pinned to one core gets one worker, however many cores
        # the machine has
        env = src_env()
        env.pop("HARDYLAB_WORKERS", None)
        if raw is not None:
            env["HARDYLAB_WORKERS"] = raw
        code = ("import os\n"
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "from hardylab.cli import _scan_workers\n"
                "print(_scan_workers(26))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "1\n"

    def test_scan_layers_import_nothing(self):
        # a pool worker forked after `import hardylab.cli` pays for every
        # module its first task imports, on every scan
        code = ("import sys\n"
                "from hardylab import cli\n"
                "before = set(sys.modules)\n"
                "for layer in cli.SCAN_LAYERS:\n"
                "    assert cli._scan_point((layer, 0.1, 2, 3, 1))[1] is None\n"
                "print(sorted(set(sys.modules) - before))\n")
        out = subprocess.run([sys.executable, "-c", code], env=src_env(), check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"

    def test_worker_count_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("HARDYLAB_WORKERS", "two")
        assert main(["scan", "--steps", "3", "--restarts", "1"]) == 2
        assert "HARDYLAB_WORKERS" in capsys.readouterr().err

    def scan_by_worker_count(self, tmp_path, monkeypatch, capsys, argv):
        """(exit code, stderr lines, CSV bytes) of ``scan argv`` with one
        worker and with two, the pool path, on a host of two cores."""
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        runs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("HARDYLAB_WORKERS", workers)
            out = tmp_path / f"scan{workers}.csv"
            rc = main(["scan", *argv, "--out", str(out)])
            err = capsys.readouterr().err
            lines = [ln for ln in err.splitlines() if ln.startswith("scan check failed")]
            runs.append((rc, lines, out.read_bytes()))
        assert runs[0] == runs[1]
        return runs[0]

    def test_unexpected_error_names_layer_and_epsilon(self, tmp_path,
                                                      monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("moment solver exploded")

        monkeypatch.setattr(cli, "npa_upper_bound", broken)
        rc, err, csv = self.scan_by_worker_count(
            tmp_path, monkeypatch, capsys,
            ["--eps-from", "0", "--eps-to", "0.1", "--steps", "2", "--restarts", "1"])
        assert rc == 3
        assert err == [f"scan check failed: epsilon={eps}: npa layer: "
                       "RuntimeError: moment solver exploded"
                       for eps in ("0.000000", "0.100000")]
        rows = csv.decode().strip().split("\n")[1:]
        assert [r.split(",")[1] for r in rows] == ["nan", "nan"]

    @pytest.mark.parametrize("layer,solver", [
        ("npa", "npa_upper_bound"), ("variational", "lower_bound")])
    def test_scan_point_names_each_layer(self, tmp_path, monkeypatch, capsys,
                                         layer, solver):
        def stalled(*args, **kwargs):
            raise NumericError("stalled")

        monkeypatch.setattr(cli, solver, stalled)
        rc, err, csv = self.scan_by_worker_count(
            tmp_path, monkeypatch, capsys,
            ["--eps-from", "0.05", "--eps-to", "0.1", "--steps", "2", "--restarts", "1"])
        assert rc == 3
        assert err == [f"scan check failed: epsilon={eps}: {layer} layer: "
                       "NumericError: stalled" for eps in ("0.050000", "0.100000")]
        rows = csv.decode().strip().split("\n")[1:]
        assert [r.split(",")[1:6] for r in rows] == [["nan"] * 3 + ["2", "nan"]] * 2

    def test_rows_revalidate_through_library(self, tmp_path):
        from hardylab.cli import scan_point_seed
        from hardylab.npa import npa_upper_bound
        from hardylab.polytope import local_max, nosignaling_max
        from hardylab.variational import lower_bound

        out = tmp_path / "scan.csv"
        assert main(["scan", "--eps-from", "0.02", "--eps-to", "0.1",
                     "--steps", "2", "--level", "2", "--restarts", "2",
                     "--seed", "9", "--out", str(out)]) == 0
        for idx, line in enumerate(out.read_text().strip().split("\n")[1:]):
            eps, loc, ns, npa, _, var, restarts, seed = line.split(",")
            eps = float(eps)
            assert abs(local_max(3, eps) - float(loc)) < 1e-9
            assert abs(nosignaling_max(3, eps) - float(ns)) < 1e-9
            assert abs(npa_upper_bound(3, 2, eps) - float(npa)) < 1e-9
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

    def test_spec_pairs_are_the_measurements(self, tmp_path, capsys):
        # a spec without amplitudes is the Hardy state of its pairs, here
        # phased ones, and its pairs are also the self-test's measurements
        t = pmax(3).t
        alpha = t ** 0.5 * np.exp(0.7j)
        pair = {"alpha": [alpha.real, alpha.imag], "beta": [(1 - t) ** 0.5, 0.0]}
        path = tmp_path / "phased.json"
        path.write_text(json.dumps({"schema": 1, "n": 3, "pairs": [pair] * 3}))
        assert main(["state", "--spec", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["success_probability"] - pmax(3).p_max) < 1e-12
        assert max(doc["zero_residuals"]) < 1e-15
        assert main(["selftest", "--state", str(path)]) == 0
        assert capsys.readouterr().out == "total_fidelity 1.000000000000\n"

    def test_observable_file(self, tmp_path):
        ms = canonical_measurements(3)
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(observables_doc([canonical_pair()] * 3)))
        loaded = load_observables(str(path))
        assert loaded.dims == ms.dims
        assert np.allclose(loaded.projectors[0][1], ms.projectors[0][1])
        rc = main(["selftest", "--canonical", "3", "--observables", str(path)])
        assert rc == 0

    def test_observables_for_another_party_count_canonical(self, tmp_path, capsys):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(observables_doc([canonical_pair(2)] * 2)))
        assert main(["selftest", "--canonical", "3", "--observables", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: measurement dims (2, 2) do not match the dims "
            f"(2, 2, 2) of the state from --canonical 3\n")

    def test_observables_for_another_party_count_state(self, tmp_path, capsys):
        obs = tmp_path / "obs.json"
        obs.write_text(json.dumps(observables_doc([canonical_pair(3)] * 3)))
        spec = tmp_path / "product.json"
        spec.write_text(json.dumps(product_spec(2)))
        assert main(["selftest", "--state", str(spec), "--observables", str(obs)]) == 2
        assert capsys.readouterr().err == (
            f"error: {obs}: measurement dims (2, 2, 2) do not match the dims "
            f"(2, 2) of the state from {spec}\n")

    @pytest.mark.parametrize("a1,fault", [
        (np.diag([1.0, 0.5]), "projector not idempotent"),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), "projector not Hermitian"),
        # ||A^2 - I|| = 4.2e-11 fails the projectors' idempotence test,
        # ||P^2 - P|| = ||A^2 - I|| / 4 <= 1e-12 * max(1, d)
        (np.diag([1.0, -1.0]) * (1 + 1.5e-11), "projector not idempotent")])
    def test_bad_observable_file_exits_2(self, tmp_path, capsys, a1, fault):
        _, d = canonical_pair()
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(observables_doc([(a1, d)] + [canonical_pair()] * 2)))
        assert main(["selftest", "--canonical", "3", "--observables", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: party 1: {fault}\n"

    def test_block_lines_for_a_commuting_party(self, tmp_path, monkeypatch):
        # a commuting party has one-dimensional blocks only; no passing
        # report has one, so its blocks replace party 3's in a passing one
        z = np.diag([1.0, -1.0])
        commuting = jordan_blocks(measurements_from_observables([(z, z)]), 0)
        real = cli.selftest_report

        def with_commuting_party(state, measurements, tol):
            report = real(state, measurements, tol=tol)
            return dataclasses.replace(
                report, decompositions=report.decompositions[:2] + (commuting,))

        monkeypatch.setattr(cli, "selftest_report", with_commuting_party)
        out = tmp_path / "report.txt"
        assert main(["selftest", "--canonical", "3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-3:] == [
            "party 1 blocks2d 1 angles 1.483306730 degenerate 0",
            "party 2 blocks2d 1 angles 1.483306730 degenerate 0",
            "party 3 blocks2d 0 angles - degenerate 2"]

    def test_missing_input(self):
        assert main(["selftest"]) == 2

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_canonical_party_count_checked(self, capsys, n):
        # --canonical 0 was taken for an absent flag
        assert main(["selftest", "--canonical", n]) == 2
        assert f"n={n} outside [2, 12]" in capsys.readouterr().err


def canonical_pair(n=3):
    """Z and 2|+><+| - I, the observables of the optimal n-party point."""
    (u_plus, _), (d_plus, _) = MeasurementPair.from_alpha_sq(pmax(n).t).projectors
    return 2.0 * u_plus - np.eye(2), 2.0 * d_plus - np.eye(2)


def observables_doc(pairs):
    """An observables file's JSON object for per-party observables (a1, a2)."""
    def matrix(a):
        a = np.asarray(a, dtype=complex)
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    return {"schema": 1,
            "parties": [{"a1": matrix(a1), "a2": matrix(a2)} for a1, a2 in pairs]}


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

    @pytest.mark.parametrize("argv", [
        ["bounds", "--method", "npa", "--epsilon", "0.05"],
        ["scan", "--steps", "2", "--restarts", "1"],
    ], ids=["bounds", "scan"])
    def test_bounds_and_scan_take_no_tol(self, argv, capsys):
        # the moment solver's tolerance is the constant sdp.TOL
        assert main(argv + ["--tol", "1e-6"]) == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

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

    def test_unexpected_exception_exits_3(self, monkeypatch, capsys):
        # it escaped main, and the console script exited 1, a self-test FAIL
        def broken(n):
            raise RuntimeError("pmax exploded")

        monkeypatch.setattr(cli, "pmax", broken)
        assert main(["pmax", "--n", "3"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: pmax exploded\n")

    @pytest.mark.parametrize("exc", [ValueError("math domain error"),
                                     np.linalg.LinAlgError("Singular matrix")],
                             ids=["ValueError", "LinAlgError"])
    def test_program_value_error_exits_3(self, monkeypatch, capsys, exc):
        # only a ValidationError is bad input: a ValueError from the code
        # or from numpy, LinAlgError included, is a fault in the program
        def broken(n):
            raise exc

        monkeypatch.setattr(cli, "pmax", broken)
        assert main(["pmax", "--n", "3"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith(f"{type(exc).__name__}: {exc}\n")

    def test_unexpected_key_error_exits_3(self, monkeypatch, capsys):
        # input files map their missing keys to ValidationError, so any
        # other KeyError is a fault in the program
        def broken(n):
            raise KeyError("pmax")

        monkeypatch.setattr(cli, "pmax", broken)
        assert main(["pmax", "--n", "3"]) == 3
        assert capsys.readouterr().err.endswith("KeyError: 'pmax'\n")


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

    @pytest.mark.parametrize("command", ["state", "selftest"])
    @pytest.mark.parametrize("field,value", [
        ("n", 3.7), ("n", 3.0), ("n", "3"), ("n", True),
        ("dims", [2, 2, 2.0]), ("dims", [2, "2", 2]), ("dims", [2, 2, True])])
    def test_non_integer_count_exits_2(self, tmp_path, hardy_spec, command,
                                       field, value, capsys):
        # int() made "n": 3.7 a 3-party spec and accepted "n": "3"
        spec = dict(hardy_spec)
        if field == "n":
            spec["n"] = value
        else:
            spec["amplitudes"] = dict(spec["amplitudes"], dims=value)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        flag = "--spec" if command == "state" else "--state"
        assert main([command, flag, str(path)]) == 2
        assert "must be an integer" in capsys.readouterr().err


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["pmax", "--n", "3"],
        ["bounds", "--method", "local", "--epsilon", "0.05"],
        ["scan", "--steps", "2", "--restarts", "1"],
    ], ids=["pmax", "bounds", "scan"])
    def test_exits_141_quietly(self, argv):
        # stdout is a pipe whose reader has already closed it, as in
        # ``hardylab pmax --n 3 | true``
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run([sys.executable, "-m", "hardylab.cli", *argv],
                                  stdout=write, stderr=subprocess.PIPE, env=src_env(),
                                  timeout=300)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_out_pipe_without_reader_exits_2(self, tmp_path, monkeypatch, capsys):
        # a broken pipe on --out is that file's error, not a closed stdout
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # a reader lets --out open at once; it leaves before any row is written
        readers = [os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)]

        def point(task):
            while readers:
                os.close(readers.pop())
            return feasible_point(task)

        monkeypatch.setenv("HARDYLAB_WORKERS", "1")
        monkeypatch.setattr(cli, "_scan_point", point)
        assert main(["scan", "--steps", "2", "--restarts", "1", "--out", str(fifo)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Broken pipe" in err
        print("stdout still open")
        assert capsys.readouterr().out == "stdout still open\n"


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
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
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
        # 2^MAX_PARTIES amplitudes on fewer parties pass the cap; qubit
        # measurement pairs would not fit them
        spec = product_spec(3, [16, 16, 16])
        del spec["pairs"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        n, pairs, state = load_state_spec(str(path))
        assert (n, pairs, state.dims) == (3, None, (16, 16, 16))

    def test_observables_party_cap(self, tmp_path, capsys):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(observables_doc([canonical_pair(2)] * 13)))
        assert main(["selftest", "--canonical", "3", "--observables", str(path)]) == 2
        assert "n=13 outside [2, 12]" in capsys.readouterr().err


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
        _, a2 = canonical_pair(2)
        party = {"a1": {"re": 1, "im": 0},
                 "a2": {"re": a2.real.tolist(), "im": a2.imag.tolist()}}
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({"schema": 1, "parties": [party] * 2}))
        assert main(["selftest", "--canonical", "2", "--observables", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("re,fault", [
        (["x", 0.0, 0.0, 0.0], "could not convert string to float: 'x'"),
        ([[1.0, 0.0], 0.0, 0.0, 0.0], "setting an array element with a sequence")],
        ids=["non-numeric", "ragged"])
    def test_bad_amplitude_entry(self, tmp_path, re, fault, capsys):
        # the ValueError of the array build exited 2 without the file's name
        spec = product_spec(2)
        spec["amplitudes"] = dict(spec["amplitudes"], re=re)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["state", "--spec", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: malformed input file ({fault}")

    def test_validation_error_names_the_file(self, tmp_path, capsys):
        # the spec's own checks named the fault but not the file
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(product_spec(2), n=13)))
        assert main(["state", "--spec", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: n=13 outside [2, 12]\n"

    @pytest.mark.parametrize("argv", [["state", "--spec"],
                                      ["selftest", "--state"],
                                      ["selftest", "--canonical", "2", "--observables"]])
    def test_top_level_list(self, tmp_path, argv, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps([product_spec(2)]))
        assert main(argv + [str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["state", "--spec"],
                                      ["selftest", "--state"],
                                      ["selftest", "--canonical", "2", "--observables"]])
    @pytest.mark.parametrize("content", [b"not json", b"\xff\xfe"])
    def test_not_json(self, tmp_path, argv, content, capsys):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        assert main(argv + [str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not a JSON file")

    @pytest.mark.parametrize("argv,key", [(["state", "--spec"], "n"),
                                          (["selftest", "--state"], "n"),
                                          (["selftest", "--canonical", "2",
                                            "--observables"], "parties")])
    def test_missing_key(self, tmp_path, argv, key, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"schema": 1}))
        assert main(argv + [str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: missing key '{key}'\n"


class TestInputErrors:
    @pytest.mark.parametrize("spec,argv,message", [
        (dict(product_spec(2), schema=2), ["state", "--spec"],
         "{path}: unsupported schema 2"),
        ({"schema": 1, "n": 2}, ["state", "--spec"],
         "{path}: state spec carries neither pairs nor amplitudes"),
        ({k: v for k, v in product_spec(2).items() if k != "pairs"}, ["state", "--spec"],
         "{path}: state spec must carry measurement pairs"),
        (None, ["state", "--n", "3"], "state needs --n and --alpha-sq (or --spec)"),
        (None, ["bounds", "--method", "variational", "--n", "4", "--epsilon", "0.05"],
         "the variational family is three-party only"),
        # qubit measurements on qutrits exited 2 without the file's name
        (product_spec(2, [3, 3]), ["state", "--spec"],
         "{path}: measurement pairs need qubits, but the state dims are (3, 3)"),
        (product_spec(2, [3, 3]), ["selftest", "--state"],
         "{path}: measurement pairs need qubits, but the state dims are (3, 3)"),
        ({k: v for k, v in product_spec(2, [3, 3]).items() if k != "pairs"},
         ["selftest", "--state"],
         "{path}: the canonical measurements need qubits, but the state dims are "
         "(3, 3); pass --observables"),
    ], ids=["schema", "no-state", "no-pairs", "no-alpha-sq", "variational-n",
            "pairs-on-qutrits-state", "pairs-on-qutrits-selftest",
            "canonical-on-qutrits-selftest"])
    def test_exits_2_with_its_message(self, tmp_path, spec, argv, message, capsys):
        path = tmp_path / "spec.json"
        if spec is not None:
            path.write_text(json.dumps(spec))
            argv = argv + [str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
