"""hardylab benchmark: drives ``hardylab.cli.main`` in-process on one workload.

    python3 bench/run.py --workload {scan,moment,certify} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src`` directory.  Each workload is a closed loop with one
client: a pass runs the workload's jobs one after another, and jobs
repeat in pass order until ``--seconds`` have elapsed (at least one
pass).  Every job's output is checked against ``bench/reference.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(a pass's time as the sum of its jobs' medians over the run, set-up time
over several fresh interpreters).  With ``--trace 1`` it carries
per-layer metrics from a separate traced pass, in which every public
hardylab function is wrapped from outside (see ``tracer.py``); the
traced scan runs with one worker so that every call stays in this
process.  The line before the last one is a JSON summary with the
environment, sample counts, tails and the error rate; ``.bench_out/``
receives the same summary and, for traced runs, every span.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402
from workloads import (certify_workload, load_reference,  # noqa: E402
                       moment_workload, scan_workload)

WORKLOADS = ("scan", "moment", "certify")
SETUP_SAMPLES = 7


def import_hardylab():
    """Import hardylab from this checkout's sources, never from elsewhere."""
    if not (SRC / "hardylab" / "__init__.py").is_file():
        sys.exit(f"bench: no hardylab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hardylab
    import hardylab.cli  # noqa: F401
    if Path(hardylab.__file__).resolve().parent != SRC / "hardylab":
        sys.exit(f"bench: imported hardylab from {hardylab.__file__}, not {SRC}")
    return hardylab


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict mode
        blas = None
    return {"nproc": nproc(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "HARDYLAB_WORKERS": os.environ.get("HARDYLAB_WORKERS")}


# ------------------------------------------------------------ measuring

def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of the largest of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_samples(count: int) -> list:
    """Seconds from spawning a fresh interpreter until ``import hardylab``
    returns in it.  One unmeasured spawn first fills the bytecode cache,
    which users pay once, not per invocation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import time, hardylab; print(repr(time.time()))"
    samples = []
    for k in range(count + 1):
        t0 = time.time()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"bench: fresh interpreter failed to import hardylab:\n{done.stderr}")
        if k:
            samples.append(float(done.stdout) - t0)
    return samples


def tail(samples: list) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond
    it (nearest rank; absent below eleven samples), and the sample count."""
    n = len(samples)
    out = {"median": statistics.median(samples) if samples else None,
           "n": n, "pct": None, "value": None, "samples": samples}
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        rank = math.ceil(pct * n / 100)
        out.update(pct=pct, value=sorted(samples)[rank - 1])
    return out


def run_job(cli, job, workers) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("HARDYLAB_WORKERS")
    if workers is not None:
        os.environ["HARDYLAB_WORKERS"] = str(workers)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(job.argv)
    except SystemExit as exc:  # argparse rejects arguments this way
        rc = exc.code
    except Exception:  # a job that raises is a failed job, not a stopped run
        rc = "raised"
        err.write(traceback.format_exc())
    finally:
        if saved is None:
            os.environ.pop("HARDYLAB_WORKERS", None)
        else:
            os.environ["HARDYLAB_WORKERS"] = saved
    wall = time.perf_counter() - t0
    try:
        problems, values = job.check(rc, out.getvalue(), err.getvalue())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems, values = [f"output check raised {exc!r}"], {}
    return {"job": job.name, "wall_s": wall, "problems": problems, "values": values}


def run_pass(cli, workload, workers=None) -> dict:
    """One pass over the workload's jobs; ``workers`` overrides each job's
    HARDYLAB_WORKERS (the traced scan runs serially)."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    jobs = [run_job(cli, job, job.workers if workers is None else workers)
            for job in workload.jobs]
    return {"wall_s": time.perf_counter() - t0, "cpu_s": cpu_seconds() - c0,
            "jobs": jobs}


# ------------------------------------------------------------- workloads

def build_workload(hl, name: str, seed: int, ref: dict, tiny: bool = False):
    if name == "scan":
        return scan_workload(seed, ref, nproc(), tiny)
    if name == "moment":
        return moment_workload(ref, tiny)
    return certify_workload(hl, seed, ref, OUT / "inputs", tiny)


def _outcome(passes: list) -> dict:
    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if j["problems"]]
    gaps = [j["values"]["bound_gap"] for j in jobs if "bound_gap" in j["values"]]
    return {"attempted": len(jobs), "failed": len(failed),
            "error_rate": len(failed) / len(jobs),
            "bound_gap": statistics.median(gaps) if gaps else None,
            "problems": [f"{j['job']}: {p}" for j in failed for p in j["problems"]][:20]}


def measure(hl, workload, warmup, seconds: float) -> dict:
    """End-to-end metrics with tracing off.

    After the set-up samples and one untimed pass of the workload's tiny
    configuration (lazy imports and first-call costs), the jobs run in
    pass order, round and round.  Each job is timed on its own; another
    job starts only while the run is expected to end within half that
    job's median time past ``seconds``, and never before one full pass
    is done.  A pass's wall and CPU time are the sums of the per-job
    medians, so every job's samples from the whole run count."""
    setup = setup_samples(SETUP_SAMPLES)
    warm = run_pass(hl.cli, warmup)
    walls = {job.name: [] for job in workload.jobs}
    cpus = {job.name: [] for job in workload.jobs}
    results = []
    start = time.perf_counter()
    for k in itertools.count():
        job = workload.jobs[k % len(workload.jobs)]
        elapsed = time.perf_counter() - start
        if k >= len(workload.jobs) and (
                elapsed + statistics.median(walls[job.name]) / 2 >= seconds):
            break
        c0 = cpu_seconds()
        result = run_job(hl.cli, job, job.workers)
        cpus[job.name].append(cpu_seconds() - c0)
        walls[job.name].append(result["wall_s"])
        results.append(result)
    wall = sum(statistics.median(v) for v in walls.values())
    cpu = sum(statistics.median(v) for v in cpus.values())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"setup_s": tail(setup),
              "jobs": {name: {"wall_s": tail(walls[name]), "cpu_s": tail(cpus[name])}
                       for name in walls}}
    return {"metrics": metrics, "detail": detail,
            "passes": min(len(v) for v in walls.values()),
            **_outcome([warm, {"jobs": results}])}


def _observers():
    return {
        "sdp.sdp_solve": lambda sol: (sol.iterations, sol.psd_residual,
                                      sol.affine_residual),
        "npa.build_moment_problem": lambda prob: (prob.n_basis, prob.n_vars),
    }


def layer_metrics(tracer, traced_passes: int, serial_wall: float,
                  traced_wall: float, parallel_wall: float, points: list,
                  workers: int, bound_gap) -> dict:
    """Per-layer metrics per traced pass (0 where the layer did no work)."""
    st = tracer.stats()
    k = float(traced_passes)

    def get(name, stat):
        return st.get(name, {}).get(stat, 0) / k

    sdp_runs = tracer.observed.get("sdp.sdp_solve", [])
    problems = tracer.observed.get("npa.build_moment_problem", [])
    iterations = sum(r[0] for r in sdp_runs) / k
    hardy_calls = get("variational.hardy_terms", "calls")
    return {
        "variational.lower_bound.s": (get("variational.lower_bound", "s"), "s"),
        "variational.hardy_terms.calls": (hardy_calls, "count"),
        "variational.hardy_terms.us_per_call": (
            1e6 * get("variational.hardy_terms", "s") / hardy_calls if hardy_calls else 0.0,
            "us"),
        "variational.nelder_mead.calls": (get("variational.nelder_mead", "calls"), "count"),
        "sdp.sdp_solve.s": (get("sdp.sdp_solve", "s"), "s"),
        "sdp.sdp_solve.self_s": (get("sdp.sdp_solve", "self_s"), "s"),
        "sdp.sdp_solve.calls": (get("sdp.sdp_solve", "calls"), "count"),
        "sdp.iterations": (iterations, "count"),
        "sdp.s_per_iteration": (
            get("sdp.sdp_solve", "s") / iterations if iterations else 0.0, "s"),
        "sdp.psd_residual_max": (max((r[1] for r in sdp_runs), default=0.0), "residual"),
        "sdp.affine_residual_max": (max((r[2] for r in sdp_runs), default=0.0), "residual"),
        "npa.npa_upper_bound.s": (get("npa.npa_upper_bound", "s"), "s"),
        "npa.build_moment_problem.s": (get("npa.build_moment_problem", "s"), "s"),
        "npa.start_point.s": (get("npa.hardy_moment_vector", "s")
                              + get("npa.interior_moment_vector", "s"), "s"),
        "npa.n_basis": (sum(p[0] for p in problems) / k, "count"),
        "npa.n_vars": (sum(p[1] for p in problems) / k, "count"),
        "polytope.local_max.s": (get("polytope.local_max", "s"), "s"),
        "polytope.nosignaling_max.s": (get("polytope.nosignaling_max", "s"), "s"),
        "linalg.eig_herm.s": (get("linalg.eig_herm", "s"), "s"),
        "linalg.eig_herm.calls": (get("linalg.eig_herm", "calls"), "count"),
        "linalg.eig_sym.s": (get("linalg.eig_sym", "s"), "s"),
        "linalg.eig_sym.calls": (get("linalg.eig_sym", "calls"), "count"),
        "linalg.schmidt_spectrum.s": (get("linalg.schmidt_spectrum", "s"), "s"),
        "behavior.joint_distribution.s": (get("behavior.joint_distribution", "s"), "s"),
        "behavior.joint_distribution.calls": (
            get("behavior.joint_distribution", "calls"), "count"),
        "behavior._joint_general.s": (get("behavior._joint_general", "s"), "s"),
        "behavior.hardy_statistics.s": (get("behavior.hardy_statistics", "s"), "s"),
        "states.hardy_state.s": (get("states.hardy_state", "s"), "s"),
        "states.is_genuinely_entangled.s": (get("states.is_genuinely_entangled", "s"), "s"),
        "states.pmax.calls": (get("states.pmax", "calls"), "count"),
        "selftest.jordan_blocks.s": (get("selftest.jordan_blocks", "s"), "s"),
        "selftest.selftest_report.self_s": (get("selftest.selftest_report", "self_s"), "s"),
        "cli.scan.pool_efficiency": (
            sum(points) / (workers * parallel_wall) if points else 0.0, "ratio"),
        "cli.scan.straggler_s": (max(points, default=0.0), "s"),
        "cli.scan.bound_gap": (bound_gap or 0.0, "probability"),
        "trace.overhead": (traced_wall / serial_wall, "ratio"),
    }


def measure_traced(hl, workload, seconds: float, tag: str) -> dict:
    """Per-layer metrics.  A round is an untraced pass (as in --trace 0),
    for the scan also an untraced serial pass that times only the grid
    points, then a traced serial pass; rounds repeat until ``seconds``
    have elapsed."""
    is_scan = workload.name == "scan"
    tracer = Tracer(_observers())
    untraced, serial, traced, point_runs = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(hl.cli, workload))
        if is_scan:
            timer = Tracer()
            with timer.installed(hl, only={"cli._scan_point"}):
                serial.append(run_pass(hl.cli, workload, workers=1))
            point_runs.append(timer.durations("cli._scan_point"))
        else:
            serial.append(untraced[-1])
        with tracer.installed(hl):
            tracer.job_id = len(traced)
            traced.append(run_pass(hl.cli, workload, workers=1))
    points = [statistics.median(ts) for ts in zip(*point_runs)]
    outcome = _outcome(untraced + (serial if is_scan else []) + traced)
    metrics = layer_metrics(
        tracer, len(traced),
        serial_wall=statistics.median(p["wall_s"] for p in serial),
        traced_wall=statistics.median(p["wall_s"] for p in traced),
        parallel_wall=statistics.median(p["wall_s"] for p in untraced),
        points=points, workers=workload.config.get("workers", 1),
        bound_gap=outcome["bound_gap"])
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{tag}.csv.gz")
    functions = dict(sorted(tracer.stats().items(), key=lambda kv: -kv[1]["self_s"]))
    return {"metrics": metrics, "passes": len(traced), "functions": functions,
            **outcome}


def run_workload(hl, name: str, seed: int, seconds: float, trace: bool,
                 ref: dict | None = None, tiny: bool = False) -> dict:
    """Run one workload and return its result record (see ``main``)."""
    ref = load_reference() if ref is None else ref
    # the warm-up is built first: certify's tiny and full inputs share files
    warmup = None if trace else build_workload(hl, name, seed, ref, tiny=True)
    workload = build_workload(hl, name, seed, ref, tiny)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    result = (measure_traced(hl, workload, seconds, tag) if trace
              else measure(hl, workload, warmup, seconds))
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  config=workload.config,
                  environment=environment())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    hl = import_hardylab()
    result = run_workload(hl, args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    summary = {k: v for k, v in result.items() if k != "metrics"}
    summary["metrics"] = {k: {"value": v, "unit": u}
                          for k, (v, u) in result["metrics"].items()}
    # reported beside the metrics: the error rate is the result line's
    # failed / attempted, and the bound gap exists for the scan only
    summary["error_rate"] = {"value": result["error_rate"], "unit": "ratio"}
    if result["bound_gap"] is not None:
        summary["bound_gap"] = {"value": result["bound_gap"], "unit": "probability"}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    print(json.dumps({k: v for k, v in summary.items() if k != "functions"}))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
