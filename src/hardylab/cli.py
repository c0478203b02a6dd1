"""Command-line interface: state construction, bounds, noise scans, self-tests.

Exit codes: 0 success, 1 self-test verdict FAIL, 2 validation failure,
3 solver nonconvergence or a failed scan point (a worker that died
included), 4 certification hypothesis unmet.  Scan rows
are computed concurrently (HARDYLAB_WORKERS processes, default all
cores, clamped to between one and the smaller of the grid size and the
core count) with per-point seeds derived from the master seed, so the
CSV is byte-identical for identical flags regardless of the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext

import numpy as np

from .behavior import (Scenario, hardy_statistics, joint_distribution,
                       measurements_from_pairs)
from .errors import (HypothesisUnmetError, NumericError, ScenarioError,
                     SizeError, ValidationError)
from .linalg import StateVector
from .npa import check_level, monomial_list, npa_upper_bound
from .polytope import BoundQuery, local_max, nosignaling_max
from .selftest import ObservablePair, canonical_observables, selftest_report
from .states import (MAX_PARTIES, MeasurementPair, hardy_state,
                     is_genuinely_entangled, pmax)
from .variational import EPSILON_MAX, MAX_RESTARTS, lower_bound

SCHEMA = 1
SCAN_HEADER = ("epsilon,local,no_signaling,npa_upper,npa_level,"
               "variational_lower,restarts,seed")
ROW_SLACK = 2e-3
# largest scan grid; checked before the grid and task list are built,
# whose size grows with it
MAX_SCAN_STEPS = 10_000
# largest --steps x --restarts: the default 26-point grid at the
# --restarts cap, about 6 min of variational search at 13 ms a restart
MAX_SCAN_RESTARTS = 26 * MAX_RESTARTS


def _pairs_from_spec(spec: dict) -> list[MeasurementPair]:
    pairs = []
    for entry in spec["pairs"]:
        are, aim = entry["alpha"]
        bre, bim = entry["beta"]
        pairs.append(MeasurementPair(complex(are, aim), complex(bre, bim)))
    return pairs


@contextmanager
def _spec_file(path: str):
    """Yield an input file's JSON object; a structural error in reading it
    (a list for an object, a number for a matrix) is a ValidationError."""
    with open(path) as fh:
        spec = json.load(fh)
    try:
        if spec.get("schema") != SCHEMA:
            raise ValidationError(f"unsupported schema {spec.get('schema')!r}")
        yield spec
    except (AttributeError, IndexError, TypeError) as exc:
        raise ValidationError(f"{path}: malformed input file ({exc})") from exc


def load_state_spec(path: str):
    """Parse a state spec file: measurement pairs, optional amplitudes.

    The party count and the state's dimensions are capped at MAX_PARTIES
    qubits before any array is built, and the spec's ``n`` must equal the
    number of pairs and of amplitude dims.
    """
    with _spec_file(path) as spec:
        n = int(spec["n"])
        if not 2 <= n <= MAX_PARTIES:
            raise ScenarioError(f"n={n} outside [2, {MAX_PARTIES}]")
        pairs = _pairs_from_spec(spec) if "pairs" in spec else None
        if pairs is not None and len(pairs) != n:
            raise ValidationError(f"spec has n={n} but {len(pairs)} measurement pairs")
        state = None
        if "amplitudes" in spec:
            amp = spec["amplitudes"]
            dims = tuple(int(d) for d in amp.get("dims", [2] * n))
            if len(dims) > MAX_PARTIES or math.prod(dims) > 2 ** MAX_PARTIES:
                raise SizeError(f"state dims {dims} exceed {MAX_PARTIES} qubits")
            if len(dims) != n:
                raise ValidationError(f"spec has n={n} but {len(dims)} amplitude dims")
            amps = np.array(amp["re"], dtype=float) + 1j * np.array(amp["im"], dtype=float)
            state = StateVector(dims, amps)
    return n, pairs, state


def load_observables(path: str) -> list[ObservablePair]:
    with _spec_file(path) as spec:
        if len(spec["parties"]) > MAX_PARTIES:
            raise ScenarioError(f"{len(spec['parties'])} parties exceed {MAX_PARTIES}")
        out = []
        for party in spec["parties"]:
            mats = []
            for key in ("a1", "a2"):
                entry = party[key]
                mats.append(np.array(entry["re"], dtype=float)
                            + 1j * np.array(entry["im"], dtype=float))
            out.append(ObservablePair(a1=mats[0], a2=mats[1]))
    return out


def cmd_state(args) -> int:
    if args.spec:
        n, pairs, state = load_state_spec(args.spec)
        if pairs is None:
            raise ValidationError("state spec must carry measurement pairs")
    else:
        if args.n is None or args.alpha_sq is None:
            raise ValidationError("state needs --n and --alpha-sq (or --spec)")
        n = args.n
        pairs = [MeasurementPair.from_alpha_sq(args.alpha_sq)] * n
        state = None
    if state is None:
        state = hardy_state(n, pairs)
    stats = hardy_statistics(joint_distribution(state, measurements_from_pairs(pairs)))
    doc = {
        "schema": SCHEMA,
        "kind": "state",
        "n": n,
        "dims": list(state.dims),
        "pairs": [{"alpha": [p.alpha.real, p.alpha.imag],
                   "beta": [p.beta.real, p.beta.imag]} for p in pairs],
        "amplitudes": {
            "re": [float(v) for v in state.amps.real],
            "im": [float(v) for v in state.amps.imag],
            "dims": list(state.dims),
        },
        "success_probability": stats.p,
        "zero_residuals": [float(z) for z in stats.zeros],
        "genuinely_entangled": bool(is_genuinely_entangled(state, tol=args.tol)),
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_pmax(args) -> int:
    res = pmax(args.n)
    print(f"t={res.t:.12f}, p={res.p_max:.12f}")
    return 0


def _bound_value(method: str, n: int, epsilon: float, level: int,
                 restarts: int, seed: int, tol: float):
    if method in ("local", "ns"):
        solve = local_max if method == "local" else nosignaling_max
        sol = solve(BoundQuery(n, epsilon))
        return sol.value, {"status": sol.status, "pivots": sol.pivots}
    if method == "npa":
        value = npa_upper_bound(Scenario(n), level, epsilon, tol=tol)
        return value, {"level": level, "tol": tol}
    if method == "variational":
        if n != 3:
            raise ValidationError("the variational family is three-party only")
        res = lower_bound(epsilon, restarts=restarts, seed=seed)
        return res.value, {
            "restarts": res.restarts_used,
            "seed": res.seed,
            "constraints": [float(v) for v in res.constraint_values],
            "evaluations": res.evaluations,
            "iterations": res.iterations,
        }
    raise ValidationError(f"unknown method {method!r}")


def cmd_bounds(args) -> int:
    hi = EPSILON_MAX if args.method == "variational" else 0.3
    if not 0.0 <= args.epsilon <= hi:
        raise ValidationError(f"epsilon = {args.epsilon!r} outside [0, {hi}]")
    value, diag = _bound_value(args.method, args.n, args.epsilon, args.level,
                               args.restarts, args.seed, args.tol)
    print(f"{value:.6f}")
    print(json.dumps({"method": args.method, "epsilon": args.epsilon,
                      "n": args.n, "value": value, **diag}))
    return 0


def scan_point_seed(seed: int, idx: int) -> int:
    return (seed * 1_000_003 + idx) % (2 ** 63)


def _scan_point(task):
    """One scan row, or an error naming the layer that failed.

    Runs in a pool worker, so every failure is returned as the row's
    error rather than raised; failures other than validation and solver
    errors also print their traceback to stderr.
    """
    idx, epsilon, level, restarts, seed, tol = task
    layer = "local"
    try:
        q = BoundQuery(3, epsilon)
        loc = local_max(q).value
        layer = "no_signaling"
        ns = nosignaling_max(q).value
        layer = "npa"
        npa = npa_upper_bound(Scenario(3), level, epsilon, tol=tol)
        layer = "variational"
        var = lower_bound(epsilon, restarts=restarts,
                          seed=scan_point_seed(seed, idx)).value
        return idx, (loc, ns, npa, var), None
    except Exception as exc:
        if not isinstance(exc, (ValidationError, NumericError)):
            traceback.print_exc()
        return idx, None, f"{layer} layer: {type(exc).__name__}: {exc}"


def _check_row(epsilon, loc, ns, npa, var) -> list[str]:
    problems = []
    if loc > npa + ROW_SLACK:
        problems.append(f"local {loc:.6f} exceeds npa {npa:.6f}")
    if var > npa + ROW_SLACK:
        problems.append(f"variational {var:.6f} exceeds npa {npa:.6f}")
    if npa > ns + ROW_SLACK:
        problems.append(f"npa {npa:.6f} exceeds no-signaling {ns:.6f}")
    return [f"epsilon={epsilon:.6f}: {p}" for p in problems]


def _scan_workers(n_tasks: int) -> int:
    """Pool size for a scan: HARDYLAB_WORKERS (default: all cores),
    clamped to [1, min(n_tasks, cores)]."""
    cores = os.cpu_count() or 1
    raw = os.environ.get("HARDYLAB_WORKERS")
    try:
        wanted = cores if raw is None else int(raw)
    except ValueError:
        raise ValidationError(
            f"HARDYLAB_WORKERS = {raw!r} is not an integer") from None
    return max(1, min(wanted, n_tasks, cores))


def _scan_grid(eps_from: float, eps_to: float, steps: int) -> list[float]:
    return [eps_from + k * (eps_to - eps_from) / (steps - 1) for k in range(steps)]


def cmd_scan(args) -> int:
    if not 2 <= args.steps <= MAX_SCAN_STEPS:
        raise ValidationError(
            f"--steps = {args.steps} outside [2, {MAX_SCAN_STEPS}]")
    if not 1 <= args.restarts <= MAX_RESTARTS:
        raise ValidationError(
            f"--restarts = {args.restarts} outside [1, {MAX_RESTARTS}]")
    if args.steps * args.restarts > MAX_SCAN_RESTARTS:
        raise ValidationError(
            f"--steps x --restarts = {args.steps * args.restarts} passes the cap "
            f"of {MAX_SCAN_RESTARTS} restarts per scan")
    if not 0.0 <= args.eps_from < args.eps_to <= EPSILON_MAX:
        raise ValidationError(
            f"grid must satisfy 0 <= from < to <= {EPSILON_MAX}")
    # a level whose basis passes the cap, or that cannot express the
    # Hardy moments, exits 2 before any point runs
    monomial_list(Scenario(3), args.level)
    check_level(Scenario(3), args.level)
    grid = _scan_grid(args.eps_from, args.eps_to, args.steps)
    workers = _scan_workers(len(grid))
    # an unwritable --out fails here, before any point runs
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        tasks = [(k, eps, args.level, args.restarts, args.seed, args.tol)
                 for k, eps in enumerate(grid)]
        results = {}
        if workers > 1:
            # a worker that exits abruptly (killed, out of memory) breaks
            # the pool; every point left without a result fails its row
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    for idx, row, err in pool.map(_scan_point, tasks):
                        results[idx] = (row, err)
            except BrokenProcessPool:
                for k in range(len(tasks)):
                    results.setdefault(k, (None, "pool layer: worker died"))
        else:
            for task in tasks:
                idx, row, err = _scan_point(task)
                results[idx] = (row, err)

        problems = []
        prev = None
        lines = [SCAN_HEADER]
        for k, eps in enumerate(grid):
            row, err = results[k]
            if err is not None:
                problems.append(f"epsilon={eps:.6f}: {err}")
                lines.append(f"{eps:.6f},nan,nan,nan,{args.level},nan,"
                             f"{args.restarts},{args.seed}")
                prev = None
                continue
            loc, ns, npa, var = row
            problems += _check_row(eps, loc, ns, npa, var)
            if prev is not None:
                for name, cur, old in (("no_signaling", ns, prev[1]),
                                       ("npa_upper", npa, prev[2]),
                                       ("variational_lower", var, prev[3])):
                    if cur < old - ROW_SLACK:
                        problems.append(
                            f"epsilon={eps:.6f}: {name} decreased from {old:.6f} to {cur:.6f}")
            prev = (loc, ns, npa, var)
            lines.append(f"{eps:.6f},{loc:.9f},{ns:.9f},{npa:.9f},{args.level},"
                         f"{var:.9f},{args.restarts},{args.seed}")
        out.write("\n".join(lines) + "\n")
    if problems:
        for p in problems:
            print(f"scan check failed: {p}", file=sys.stderr)
        return 3
    return 0


def cmd_selftest(args) -> int:
    if args.state:
        n, pairs, state = load_state_spec(args.state)
        if state is None:
            if pairs is None:
                raise ValidationError("state spec carries neither pairs nor amplitudes")
            state = hardy_state(n, pairs)
    elif args.canonical:
        n = args.canonical
        state = hardy_state(n, [MeasurementPair.from_alpha_sq(pmax(n).t)] * n)
    else:
        raise ValidationError("selftest needs --state or --canonical")
    if args.observables:
        observables = load_observables(args.observables)
    else:
        observables = canonical_observables(len(state.dims))
    report = selftest_report(state, observables, tol=args.tol)
    ok = report.total_fidelity >= 1.0 - args.tol
    lines = ["selftest-report/1",
             f"total_fidelity {report.total_fidelity:.12f}",
             f"observed_p {report.observed_p:.12f}",
             f"max_zero_term {float(np.max(report.observed_zeros)):.3e}",
             "junk_dims " + ",".join(str(d) for d in report.junk_dims),
             f"degenerate_weight {report.degenerate_weight:.12f}",
             f"verdict {'PASS' if ok else 'FAIL'} tol {args.tol:.1e}"]
    for party, decomp in enumerate(report.decompositions, start=1):
        angles = ",".join(f"{b.angle:.9f}" for b in decomp.two_dim_blocks())
        degen = sum(1 for b in decomp.blocks if b.degenerate)
        lines.append(f"party {party} blocks2d {len(decomp.two_dim_blocks())} "
                     f"angles {angles or '-'} degenerate {degen}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(f"total_fidelity {report.total_fidelity:.12f}")
    return 0 if ok else 1


def _tol(text: str) -> float:
    """Type of every --tol: a finite number above zero."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="n-party Hardy states, nonlocality bounds and self-tests")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="construct a Hardy state")
    p_state.add_argument("--n", type=int)
    p_state.add_argument("--alpha-sq", dest="alpha_sq", type=float)
    p_state.add_argument("--spec", type=str)
    p_state.add_argument("--out", type=str)
    p_state.add_argument("--tol", type=_tol, default=1e-9)
    p_state.set_defaults(func=cmd_state)

    p_pmax = sub.add_parser("pmax", help="optimal success probability")
    p_pmax.add_argument("--n", type=int, required=True)
    p_pmax.set_defaults(func=cmd_pmax)

    p_bounds = sub.add_parser("bounds", help="one noisy bound value")
    p_bounds.add_argument("--method", required=True,
                          choices=("local", "ns", "npa", "variational"))
    p_bounds.add_argument("--epsilon", type=float, required=True)
    p_bounds.add_argument("--n", type=int, default=3)
    p_bounds.add_argument("--level", type=int, default=2)
    p_bounds.add_argument("--restarts", type=int, default=50)
    p_bounds.add_argument("--seed", type=int, default=0)
    p_bounds.add_argument("--tol", type=_tol, default=1e-6)
    p_bounds.set_defaults(func=cmd_bounds)

    p_scan = sub.add_parser("scan", help="noise scan (CSV)")
    p_scan.add_argument("--eps-from", dest="eps_from", type=float, default=0.0)
    p_scan.add_argument("--eps-to", dest="eps_to", type=float, default=0.25)
    p_scan.add_argument("--steps", type=int, default=26)
    p_scan.add_argument("--level", type=int, default=2)
    p_scan.add_argument("--restarts", type=int, default=50)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--tol", type=_tol, default=1e-6)
    p_scan.add_argument("--out", type=str)
    p_scan.set_defaults(func=cmd_scan)

    p_self = sub.add_parser("selftest", help="blockwise certification report")
    p_self.add_argument("--state", type=str)
    p_self.add_argument("--canonical", type=int)
    p_self.add_argument("--observables", type=str)
    p_self.add_argument("--tol", type=_tol, default=1e-6)
    p_self.add_argument("--out", type=str)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors (2) and --help (0)
        return exc.code
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except HypothesisUnmetError as exc:
        print(f"hypothesis unmet: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KeyError, OSError) as exc:
        # ValidationError and malformed input files (JSON decoding errors
        # subclass ValueError, absent keys raise KeyError) all map to 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
