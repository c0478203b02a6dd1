"""The benchmark's job lists, their inputs and their output checks.

A job is one ``hardylab`` CLI invocation: an argument vector, the
``HARDYLAB_WORKERS`` value it runs with, and a check that turns the exit
code and captured output into a list of problems (empty when the output
matches its reference within tolerance) plus any values the benchmark
reports from it.  Inputs depend only on the workload seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


@dataclass
class Job:
    name: str
    argv: list
    check: Callable  # (rc, stdout, stderr) -> (problems, values)
    workers: int | None = None


@dataclass
class Workload:
    name: str
    jobs: list
    config: dict = field(default_factory=dict)


def _near(label, got, ref, tol) -> list:
    if not math.isfinite(got) or abs(got - ref) > tol:
        return [f"{label} = {got!r}, reference {ref!r} +- {tol:g}"]
    return []


def _exit_ok(rc, stderr) -> list:
    return [] if rc == 0 else [f"exit code {rc}: {stderr.strip()[-300:]}"]


# ---------------------------------------------------------------- scan

def scan_workload(seed: int, ref: dict, workers: int, tiny: bool = False) -> Workload:
    cfg = ref["scan"]["tiny" if tiny else "config"]
    argv = ["scan", "--eps-from", "0", "--eps-to", str(cfg["eps_to"]),
            "--steps", str(cfg["steps"]), "--level", str(cfg["level"]),
            "--restarts", str(cfg["restarts"]), "--seed", str(seed)]
    rows_ref = ref["scan"]["rows"]
    header = ref["scan"]["header"]

    def check(rc, out, err):
        problems = _exit_ok(rc, err)
        lines = out.strip().splitlines()
        if not lines or lines[0] != header:
            return problems + ["scan CSV header differs"], {}
        rows = [dict(zip(header.split(","), ln.split(","))) for ln in lines[1:]]
        if len(rows) != cfg["steps"]:
            problems.append(f"scan CSV has {len(rows)} rows, expected {cfg['steps']}")
        gaps = []
        for row in rows:
            want = rows_ref.get(row["epsilon"])
            if want is None:
                problems.append(f"no reference row for epsilon {row['epsilon']}")
                continue
            for col, (value, tol) in want.items():
                problems += _near(f"eps={row['epsilon']} {col}", float(row[col]),
                                  value, tol)
            gaps.append(float(row["npa_upper"]) - float(row["variational_lower"]))
        values = {"bound_gap": sum(gaps) / len(gaps)} if gaps else {}
        return problems, values

    return Workload("scan", [Job("scan", argv, check, workers)],
                    {**cfg, "seed": seed, "workers": workers})


# -------------------------------------------------------------- moment

def moment_workload(ref: dict, tiny: bool = False) -> Workload:
    tol = ref["tolerances"]["npa_value"]
    jobs = []
    for case in ref["moment"]["tiny" if tiny else "jobs"]:
        n, level, eps, want = case["n"], case["level"], case["epsilon"], case["value"]
        argv = ["bounds", "--method", "npa", "--n", str(n), "--level", str(level),
                "--epsilon", repr(eps)]

        def check(rc, out, err, want=want, label=f"npa n={n} level={level} eps={eps}"):
            problems = _exit_ok(rc, err)
            try:
                got = float(json.loads(out.strip().splitlines()[-1])["value"])
            except (ValueError, KeyError, IndexError) as exc:
                return problems + [f"{label}: unreadable output ({exc})"], {}
            return problems + _near(label, got, want, tol), {}

        jobs.append(Job(f"bounds n={n} level={level} eps={eps}", argv, check))
    return Workload("moment", jobs, {"cases": len(jobs)})


# ------------------------------------------------------------- certify

def haar_unitary(d: int, rng) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def embedded_hardy_inputs(hl, seed: int, junk_dims=(2, 2, 2)):
    """Three-party Hardy state (x) random junk, hidden by Haar-random local
    unitaries drawn from ``seed``; returns (state spec, observables spec).

    Party p holds qubit_p (x) junk_p and its observables act on the qubit
    factor only, so the exact statistics sit at the Hardy point.
    """
    rng = np.random.default_rng(seed)
    n = 3
    pair = hl.MeasurementPair.from_alpha_sq(hl.pmax(n).t)
    psi = hl.hardy_state(n, [pair] * n).tensor()
    jdim = int(np.prod(junk_dims))
    junk = rng.standard_normal(jdim) + 1j * rng.standard_normal(jdim)
    junk /= np.linalg.norm(junk)
    full = np.tensordot(psi, junk.reshape(junk_dims), axes=0)
    full = full.transpose(0, 3, 1, 4, 2, 5)  # (q1,j1,q2,j2,q3,j3)
    dims = tuple(2 * j for j in junk_dims)
    tensor = full.reshape(dims)
    z = np.diag([1.0, -1.0]).astype(complex)
    d = 2.0 * np.outer(pair.ket_plus, pair.ket_plus.conj()) - np.eye(2)
    parties = []
    for p in range(n):
        u = haar_unitary(dims[p], rng)
        mats = {}
        for key, obs in (("a1", z), ("a2", d)):
            a = u @ np.kron(obs, np.eye(junk_dims[p])) @ u.conj().T
            mats[key] = {"re": a.real.tolist(), "im": a.imag.tolist()}
        parties.append(mats)
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [p])), 0, p)
    amps = tensor.reshape(-1)
    state = {"schema": 1, "n": n,
             "amplitudes": {"re": amps.real.tolist(), "im": amps.imag.tolist(),
                            "dims": list(dims)}}
    return state, {"schema": 1, "parties": parties}


def _fidelity_check(min_fid, report_path=None, junk_dims=None):
    def check(rc, out, err):
        problems = _exit_ok(rc, err)
        fid = float("nan")
        for line in out.splitlines():
            if line.startswith("total_fidelity "):
                fid = float(line.split()[1])
        if not fid >= min_fid:
            problems.append(f"total_fidelity {fid!r} below {min_fid!r}")
        if report_path is not None:
            try:
                text = Path(report_path).read_text()
                Path(report_path).unlink()  # the next pass must write its own
            except OSError as exc:
                return problems + [f"no self-test report ({exc})"], {}
            got = next((ln.split()[1] for ln in text.splitlines()
                        if ln.startswith("junk_dims ")), None)
            want = ",".join(str(j) for j in junk_dims)
            if got != want:
                problems.append(f"junk_dims {got!r}, expected {want!r}")
        return problems, {}
    return check


def certify_workload(hl, seed: int, ref: dict, workdir: Path,
                     tiny: bool = False) -> Workload:
    cfg = ref["certify"]["tiny" if tiny else "config"]
    tol = ref["tolerances"]
    state_ref = ref["certify"]["state"][str(cfg["state_n"])]
    min_fid = 1.0 - tol["selftest_fidelity"]

    def state_check(rc, out, err):
        problems = _exit_ok(rc, err)
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return problems + [f"unreadable state JSON ({exc})"], {}
        if doc.get("genuinely_entangled") is not True:
            problems.append("genuinely_entangled is not true")
        problems += _near("success_probability", float(doc["success_probability"]),
                          state_ref["success_probability"], tol["success_probability"])
        worst = max(abs(float(z)) for z in doc["zero_residuals"])
        if worst > tol["zero_residual"]:
            problems.append(f"zero residual {worst:.3e} above {tol['zero_residual']:g}")
        return problems, {}

    junk = tuple(cfg["junk_dims"])
    state, observables = embedded_hardy_inputs(hl, seed, junk)
    workdir.mkdir(parents=True, exist_ok=True)
    state_path = workdir / f"embedded-state-{seed}.json"
    obs_path = workdir / f"embedded-observables-{seed}.json"
    report_path = workdir / f"embedded-report-{seed}.txt"
    state_path.write_text(json.dumps(state))
    obs_path.write_text(json.dumps(observables))

    jobs = [
        Job(f"state n={cfg['state_n']}",
            ["state", "--n", str(cfg["state_n"]), "--alpha-sq",
             repr(state_ref["alpha_sq"])], state_check),
        Job(f"selftest canonical {cfg['canonical_n']}",
            ["selftest", "--canonical", str(cfg["canonical_n"])],
            _fidelity_check(min_fid)),
        Job("selftest embedded",
            ["selftest", "--state", str(state_path), "--observables", str(obs_path),
             "--out", str(report_path)],
            _fidelity_check(min_fid, report_path, junk)),
    ]
    return Workload("certify", jobs, {**cfg, "seed": seed})
