"""In-memory span tracer that wraps hardylab functions from outside.

A wrapper is installed at every module attribute that holds a traced
function, because that attribute is what a caller looks up at call
time: ``hardylab.sdp.sdp_solve`` is reached from ``npa_upper_bound``,
while ``hardylab.selftest.eig_herm`` is the same function object as
``hardylab.linalg.eig_herm`` under the name the self-test module
imported.  All aliases of one function share one span name,
``<module>.<function>``.  Spans stay in memory (name, start, end, parent
span, job id) and are written out once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "polytope", "npa", "sdp", "variational", "behavior",
          "linalg", "states", "selftest")
# private functions traced in addition to every public one: the scan's
# per-point task (serial point times give the pool efficiency) and the
# two Born-rule paths behind behavior.joint_distribution
EXTRA = ("cli._scan_point", "behavior._joint_general",
         "behavior._joint_pure_rank1")


def traced_functions(package, only=None) -> dict:
    """Map span name -> function for every traced function of ``package``."""
    out = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and (not attr.startswith("_") or name in EXTRA)):
                out[name] = obj
    if only is not None:
        out = {k: v for k, v in out.items() if k in only}
    return out


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, observers=None):
        # observers: span name -> callable(result) -> small record kept
        # for metrics computed from return values (iterations, sizes)
        self.observers = observers or {}
        self.observed = defaultdict(list)
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.job: list[int] = []
        self.job_id = 0
        self._stack = [-1]

    def _wrap(self, name, fn):
        observe = self.observers.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.names.append(name)
            self.parent.append(self._stack[-1])
            self.job.append(self.job_id)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if observe is not None:
                self.observed[name].append(observe(result))
            return result
        return wrapper

    @contextmanager
    def installed(self, package, only=None):
        """Wrap the traced functions at every module attribute holding
        them for the duration of the block; originals are restored after."""
        targets = traced_functions(package, only)
        by_id = {id(fn): name for name, fn in targets.items()}
        wrappers = {name: self._wrap(name, fn) for name, fn in targets.items()}
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        patched = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                name = by_id.get(id(obj))
                if name is not None:
                    setattr(module, attr, wrappers[name])
                    patched.append((module, attr, obj))
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)

    def stats(self) -> dict:
        """Per span name: total seconds, self seconds and call count.

        Self time is the span's duration minus its direct children's
        durations; calls are single-threaded, so children nest inside
        their parent and never overlap each other.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                child[par] += dur[idx]
        out: dict = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for name, d, c in zip(self.names, dur, child):
            rec = out[name]
            rec["s"] += d * 1e-9
            rec["self_s"] += (d - c) * 1e-9
            rec["calls"] += 1
        return dict(out)

    def durations(self, name: str) -> list:
        """Seconds of every span called ``name``, in call order."""
        return [(e - s) * 1e-9 for n, s, e in zip(self.names, self.start, self.end)
                if n == name]

    def write(self, path) -> None:
        """Write every span as gzip CSV: job, span, parent, name, start, end."""
        with gzip.open(path, "wt") as fh:
            fh.write("job,span,parent,name,start_ns,end_ns\n")
            for idx, (name, s, e, par, job) in enumerate(
                    zip(self.names, self.start, self.end, self.parent, self.job)):
                fh.write(f"{job},{idx},{par},{name},{s},{e}\n")
