"""Fast self-check of the benchmark itself.

    python3 bench/selfcheck.py

Runs a tiny configuration of every workload named in BENCHMARK.json,
with tracing off and on, and verifies two things: every metric that
BENCHMARK.json names is emitted with its unit (and nothing else is), and
a deliberately wrong reference value is counted as a failed job, so it
shows in the error rate.  Exits 0 when both hold for every workload.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import run


def corrupt(ref: dict, workload: str) -> dict:
    """A copy of the references with one value of ``workload`` made wrong."""
    wrong = copy.deepcopy(ref)
    if workload == "scan":
        wrong["scan"]["rows"]["0.250000"]["npa_upper"][0] += 1e-3
    elif workload == "moment":
        wrong["moment"]["tiny"][0]["value"] += 1e-3
    else:
        wrong["certify"]["state"]["4"]["success_probability"] += 1e-6
    return wrong


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    hl = run.import_hardylab()
    ref = run.load_reference()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            res = run.run_workload(hl, workload, seed=1, seconds=0.01, trace=trace,
                                   ref=ref, tiny=True)
            got = {name: unit for name, (_, unit) in res["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                problems.append(f"{workload} trace={trace}: missing {missing}, "
                                f"unexpected {extra}, or units differ")
            bad = [n for n, (v, _) in res["metrics"].items()
                   if not isinstance(v, (int, float)) or not math.isfinite(v)]
            if bad:
                problems.append(f"{workload} trace={trace}: non-finite {bad}")
            if res["failed"]:
                problems.append(f"{workload} trace={trace}: {res['problems']}")
            print(f"{workload} trace={trace}: {len(got)} metrics, "
                  f"{res['attempted']} jobs, {res['failed']} failed", flush=True)
        res = run.run_workload(hl, workload, seed=1, seconds=0.01, trace=False,
                               ref=corrupt(ref, workload), tiny=True)
        if not (res["failed"] >= 1 and res["error_rate"] > 0):
            problems.append(f"{workload}: a wrong reference was not counted as a failure")
        print(f"{workload} wrong reference: {res['failed']} of {res['attempted']} "
              f"jobs failed", flush=True)
    for p in problems:
        print(f"selfcheck FAILED: {p}", file=sys.stderr)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
