"""Command-line interface: state construction, bounds, noise scans, self-tests.

Exit codes (``main`` returns them, raising no Exception): 0 success, 1
self-test verdict FAIL, 2 a ValidationError or an OSError on a file, 3
a NumericError, a failed scan point (a worker that died included) or any
other exception (traceback on stderr), 4 HypothesisUnmetError, 141
stdout closed by its reader (the shell's status for SIGPIPE; nothing is
printed).  A scan runs one task list, one task per (grid point, solver
layer), with any worker count (HARDYLAB_WORKERS, default the cores the
process may run on, clamped to between one and the smaller of the task
count and that core count): in process for one worker, else in a pool of
that many processes.  The local and no-signaling columns are closed forms
computed in the row.  Per-point seeds derive from the master seed, and a
row's error is its first failing layer, so the CSV is byte-identical for
identical flags regardless of the worker count.  ``selftest
--observables`` reads each party's a1 and a2 as the projectors
(I +/- A)/2 of a MeasurementSet, whose checks name the failing party.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import select
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext

import numpy as np

from .behavior import (MeasurementSet, hardy_statistics, joint_distribution,
                       measurements_from_observables, measurements_from_pairs)
from .errors import HypothesisUnmetError, NumericError, ValidationError
from .linalg import StateVector
from .npa import check_level, monomial_list, npa_upper_bound
from .polytope import local_max, nosignaling_max
from .sdp import TOL
from .selftest import canonical_measurements, selftest_report
from .states import (MAX_PARTIES, MeasurementPair, check_parties, hardy_state,
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
# --restarts cap, about 3 min of variational search at 6 ms a restart
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
    """Yield an input file's JSON object; a ValidationError in reading it,
    non-JSON text, a missing key and a wrong type or value included, names
    the file."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
        if spec.get("schema") != SCHEMA:
            raise ValidationError(f"unsupported schema {spec.get('schema')!r}")
        yield spec
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: not a JSON file ({exc})") from exc
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc}") from exc
    except ValidationError as exc:  # a ValueError, so caught before the next
        raise ValidationError(f"{path}: {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed input file ({exc})") from exc


def _complex_array(entry: dict) -> np.ndarray:
    return np.array(entry["re"], dtype=float) + 1j * np.array(entry["im"], dtype=float)


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # a JSON integer: no float, string or boolean
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def load_state_spec(path: str):
    """Parse a state spec file into (n, pairs or None, state): its
    amplitudes, or else the Hardy state of its measurement pairs.

    The party count and the state's dimensions are JSON integers, capped
    at MAX_PARTIES qubits before any array is built, and the spec's ``n``
    must equal the number of pairs and of amplitude dims; amplitudes
    measured by pairs must be qubits.
    """
    with _spec_file(path) as spec:
        n = _json_int(spec["n"], "n")
        check_parties(n)
        pairs = _pairs_from_spec(spec) if "pairs" in spec else None
        if pairs is not None and len(pairs) != n:
            raise ValidationError(f"spec has n={n} but {len(pairs)} measurement pairs")
        if "amplitudes" in spec:
            amp = spec["amplitudes"]
            dims = tuple(_json_int(d, "dims entry") for d in amp.get("dims", [2] * n))
            if len(dims) > MAX_PARTIES or math.prod(dims) > 2 ** MAX_PARTIES:
                raise ValidationError(f"state dims {dims} exceed {MAX_PARTIES} qubits")
            if len(dims) != n:
                raise ValidationError(f"spec has n={n} but {len(dims)} amplitude dims")
            if pairs is not None and set(dims) != {2}:
                raise ValidationError(
                    f"measurement pairs need qubits, but the state dims are {dims}")
            state = StateVector(dims, _complex_array(amp))
        elif pairs is None:
            raise ValidationError("state spec carries neither pairs nor amplitudes")
        else:
            state = hardy_state(n, pairs)
    return n, pairs, state


def load_observables(path: str) -> MeasurementSet:
    """An observables file's MeasurementSet, of at most MAX_PARTIES parties."""
    with _spec_file(path) as spec:
        check_parties(len(spec["parties"]))
        return measurements_from_observables(
            (_complex_array(party["a1"]), _complex_array(party["a2"]))
            for party in spec["parties"])


def cmd_state(args) -> int:
    if args.spec:
        n, pairs, state = load_state_spec(args.spec)
        if pairs is None:
            raise ValidationError(f"{args.spec}: state spec must carry measurement pairs")
    else:
        if args.n is None or args.alpha_sq is None:
            raise ValidationError("state needs --n and --alpha-sq (or --spec)")
        n = args.n
        pairs = [MeasurementPair.from_alpha_sq(args.alpha_sq)] * n
        state = hardy_state(n, pairs)
    p, zeros = hardy_statistics(joint_distribution(state, measurements_from_pairs(pairs)))
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
        "success_probability": p,
        "zero_residuals": [float(z) for z in zeros],
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
                 restarts: int, seed: int):
    if method in ("local", "ns"):
        solve = local_max if method == "local" else nosignaling_max
        return solve(n, epsilon), {}
    if method == "npa":
        return npa_upper_bound(n, level, epsilon), {"level": level, "tol": TOL}
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
    value, diag = _bound_value(args.method, args.n, args.epsilon, args.level,
                               args.restarts, args.seed)
    print(f"{value:.6f}")
    print(json.dumps({"method": args.method, "epsilon": args.epsilon,
                      "n": args.n, "value": value, **diag}))
    return 0


def scan_point_seed(seed: int, idx: int) -> int:
    return (seed * 1_000_003 + idx) % (2 ** 63)


# the scan's solver layers, by --method name, in column and merge order
SCAN_LAYERS = ("npa", "variational")


def _scan_point(task):
    """One layer's value at one scan point as (value, None), or (None, an
    error naming the layer), for a task (layer, epsilon, level, restarts,
    point seed).

    May run in a pool worker, so every failure is returned as the error
    rather than raised; failures other than validation and solver errors
    also print their traceback to stderr.
    """
    layer, epsilon, level, restarts, seed = task
    try:
        return _bound_value(layer, 3, epsilon, level, restarts, seed)[0], None
    except Exception as exc:
        if not isinstance(exc, (ValidationError, NumericError)):
            traceback.print_exc()
        return None, f"{layer} layer: {type(exc).__name__}: {exc}"


def _scan_results(points, workers: int):
    """Each point's solver values as (values, None), or (None, the error of
    its first failing layer in SCAN_LAYERS order), for ``points`` of
    (epsilon, level, restarts, point seed).

    Every worker count runs one _scan_point task per (layer, point), the
    variational tasks, the longest, first, so the npa tasks fill the
    workers' idle time at the end: in process for one worker, else in a
    pool.  A worker that exits abruptly (killed, out of memory) breaks the
    pool; every layer left without a result fails its point."""
    keys = [(layer, k) for layer in reversed(SCAN_LAYERS) for k in range(len(points))]
    tasks = [(layer, *points[k]) for layer, k in keys]
    results = []
    try:
        with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
            for result in (pool.map if pool else map)(_scan_point, tasks):
                results.append(result)
    except BrokenProcessPool:
        pass
    done = dict(zip(keys, results))
    died = (None, "pool layer: worker died")
    rows = []
    for k in range(len(points)):
        values, errors = zip(*(done.get((layer, k), died) for layer in SCAN_LAYERS))
        err = next(filter(None, errors), None)
        rows.append((None, err) if err else (values, None))
    return rows


def _check_row(epsilon, loc, ns, npa, var) -> list[str]:
    problems = []
    if loc > npa + ROW_SLACK:
        problems.append(f"local {loc:.6f} exceeds npa {npa:.6f}")
    if var > npa + ROW_SLACK:
        problems.append(f"variational {var:.6f} exceeds npa {npa:.6f}")
    if npa > ns + ROW_SLACK:
        problems.append(f"npa {npa:.6f} exceeds no-signaling {ns:.6f}")
    return [f"epsilon={epsilon:.6f}: {p}" for p in problems]


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where reported."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scan_workers(n_tasks: int) -> int:
    """Pool size for a scan: HARDYLAB_WORKERS (default: the usable cores),
    clamped to [1, min(n_tasks, usable cores)]."""
    cores = _usable_cores()
    raw = os.environ.get("HARDYLAB_WORKERS")
    try:
        wanted = cores if raw is None else int(raw)
    except ValueError:
        raise ValidationError(
            f"HARDYLAB_WORKERS = {raw!r} is not an integer") from None
    return max(1, min(wanted, n_tasks, cores))


def _scan_grid(eps_from: float, eps_to: float, steps: int) -> list[float]:
    # the last point is eps_to itself: the formula's can round above it
    return [eps_from + k * (eps_to - eps_from) / (steps - 1)
            for k in range(steps - 1)] + [eps_to]


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
    monomial_list(3, args.level)
    check_level(3, args.level)
    grid = _scan_grid(args.eps_from, args.eps_to, args.steps)
    workers = _scan_workers(len(SCAN_LAYERS) * len(grid))
    # an unwritable --out fails here, before any point runs
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        results = _scan_results(
            [(eps, args.level, args.restarts, scan_point_seed(args.seed, k))
             for k, eps in enumerate(grid)], workers)

        problems = []
        prev = None
        lines = [SCAN_HEADER]
        for eps, (row, err) in zip(grid, results):
            if err is not None:
                problems.append(f"epsilon={eps:.6f}: {err}")
                lines.append(f"{eps:.6f},nan,nan,nan,{args.level},nan,"
                             f"{args.restarts},{args.seed}")
                prev = None
                continue
            npa, var = row
            loc, ns = local_max(3, eps), nosignaling_max(3, eps)
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
        _, pairs, state = load_state_spec(args.state)
    elif args.canonical is not None:
        n = args.canonical
        pairs = [MeasurementPair.from_alpha_sq(pmax(n).t)] * n
        state = hardy_state(n, pairs)
    else:
        raise ValidationError("selftest needs --state or --canonical")
    if args.observables:
        measurements = load_observables(args.observables)
        if measurements.dims != state.dims:
            source = args.state or f"--canonical {args.canonical}"
            raise ValidationError(
                f"{args.observables}: measurement dims {measurements.dims} do not "
                f"match the dims {state.dims} of the state from {source}")
    elif pairs is not None:
        measurements = measurements_from_pairs(pairs)
    elif set(state.dims) != {2}:
        raise ValidationError(
            f"{args.state}: the canonical measurements need qubits, but the state "
            f"dims are {state.dims}; pass --observables")
    else:
        measurements = canonical_measurements(len(state.dims))
    report = selftest_report(state, measurements, tol=args.tol)
    ok = report.total_fidelity >= 1.0 - args.tol
    lines = ["selftest-report/1",
             f"total_fidelity {report.total_fidelity:.12f}",
             f"observed_p {report.observed_p:.12f}",
             f"max_zero_term {float(np.max(report.observed_zeros)):.3e}",
             "junk_dims " + ",".join(str(d) for d in report.junk_dims),
             f"degenerate_weight {report.degenerate_weight:.12f}",
             f"verdict {'PASS' if ok else 'FAIL'} tol {args.tol:.1e}"]
    for party, blocks in enumerate(report.decompositions, start=1):
        angles = [f"{b.angle:.9f}" for b in blocks if b.angle is not None]
        lines.append(f"party {party} blocks2d {len(angles)} angles {','.join(angles) or '-'} "
                     f"degenerate {len(blocks) - len(angles)}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
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

    p_pmax = sub.add_parser("pmax", help="optimal success probability")
    p_pmax.add_argument("--n", type=int, required=True)

    p_bounds = sub.add_parser("bounds", help="one noisy bound value")
    p_bounds.add_argument("--method", required=True,
                          choices=("local", "ns", "npa", "variational"))
    p_bounds.add_argument("--epsilon", type=float, required=True)
    p_bounds.add_argument("--n", type=int, default=3)
    p_bounds.add_argument("--level", type=int, default=2)
    p_bounds.add_argument("--restarts", type=int, default=50)
    p_bounds.add_argument("--seed", type=int, default=0)

    p_scan = sub.add_parser("scan", help="noise scan (CSV)")
    p_scan.add_argument("--eps-from", dest="eps_from", type=float, default=0.0)
    p_scan.add_argument("--eps-to", dest="eps_to", type=float, default=0.25)
    p_scan.add_argument("--steps", type=int, default=26)
    p_scan.add_argument("--level", type=int, default=2)
    p_scan.add_argument("--restarts", type=int, default=50)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--out", type=str)

    p_self = sub.add_parser("selftest", help="blockwise certification report")
    p_self.add_argument("--state", type=str)
    p_self.add_argument("--canonical", type=int)
    p_self.add_argument("--observables", type=str)
    p_self.add_argument("--tol", type=_tol, default=1e-6)
    p_self.add_argument("--out", type=str)
    return parser


def _stdout_closed() -> bool:
    """Whether poll reports stdout, a pipe or socket, as without a reader."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor, or closed
        return False
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return any(events & (select.POLLERR | select.POLLHUP) for _, events in poller.poll(0))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors (2) and --help (0)
        return exc.code
    try:
        # the handler is looked up at call time, so that a patched one runs
        handler = {"state": cmd_state, "pmax": cmd_pmax, "bounds": cmd_bounds,
                   "scan": cmd_scan, "selftest": cmd_selftest}[args.command]
        rc = handler(args)
        sys.stdout.flush()
        return rc
    except NumericError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except HypothesisUnmetError as exc:
        print(f"hypothesis unmet: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and _stdout_closed():
            # exit quietly, as on SIGPIPE; devnull takes the last flush
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 141
        # bad input (malformed input files included, see _spec_file) and
        # unreadable or unwritable files, a pipe without a reader included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # any other exception, a plain ValueError included, is a fault in the
    # program: its traceback and exit 3, as _scan_point treats it
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
