"""Span tracing of pegrowth from outside the program.

``Tracer.install()`` replaces every function named in the ``__all__`` of the
traced modules (public functions, for a module without ``__all__``) by a
wrapper that records a span, in every ``pegrowth`` namespace that binds the
function: ``validate_pe``, for example, is bound in ``signals``, ``rates``,
``cli`` and the package itself.  The matrix kernels ``scipy.linalg.expm``,
``numpy.linalg.eigvals`` and ``scipy.linalg.svdvals`` are wrapped the same
way under the layer name ``kernel``.  ``uninstall()`` restores everything.

Not traced, on purpose:

* ``matcore``: its helpers are small and are counted in their callers'
  self time.
* ``spinchk``: a 200-draw audit costs about 55 ms, no workload's path uses
  it and no ROADMAP item targets its speed.

Spans stay in memory (name, start, end, parent, job) and are written out
once, at the end of the run.  A function missing from the program records
nothing, so its metrics read 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "signals", "rates", "lie", "control", "projective")
KERNELS = (("scipy.linalg", "expm"), ("numpy.linalg", "eigvals"),
           ("scipy.linalg", "svdvals"))


def _public_functions(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items()
                 if not n.startswith("_") and inspect.isfunction(v)
                 and v.__module__ == mod.__name__]
    return [n for n in names if inspect.isfunction(getattr(mod, n, None))]


# -- counters read from arguments and results --------------------------------


def _count_expm(tr, args, kwargs, out):
    m = args[0] if args else next(iter(kwargs.values()))
    tr.counts["kernel.expm.matrices"] += np.shape(m)[0] if np.ndim(m) == 3 else 1
    return out


def _count_family(tr, args, kwargs, out):
    distinct = set()
    for s in out:
        segs = list(s.period_segments())
        tr.counts["rates.segments_total"] += len(segs)
        distinct.update((float(v), float(dt)) for v, dt in segs)
    tr.counts["rates.segments_distinct"] += len(distinct)
    tr.counts["rates.family_signals"] += len(out)
    return out


def _count_closure(tr, args, kwargs, out):
    tr.counts["lie.closure_depth_sum"] += getattr(out, "depth_reached", 0)
    return out


def _count_plarc(tr, args, kwargs, out):
    tr.counts["lie.plarc_samples"] += getattr(out, "n_samples", 0)
    return out


def _count_steer(tr, args, kwargs, out):
    tr.counts["projective.steer_segments"] += getattr(out.signal, "n_segments", 0)
    return out


def _count_field(tr, args, kwargs, out):
    counts = tr.counts

    def counted(field):
        def wrapper(*args, **kwargs):
            counts["projective.field_evals"] += np.broadcast(*args).size if args else 1
            return field(*args, **kwargs)
        return wrapper

    return tuple(counted(fn) for fn in out)


HOOKS = {
    "kernel.expm": _count_expm,
    "rates.bang_bang_family": _count_family,
    "lie.lie_closure": _count_closure,
    "lie.check_plarc": _count_plarc,
    "projective.steer_d2": _count_steer,
    "projective.angle_dynamics_d2": _count_field,
}


class Tracer:
    """Records spans of wrapped calls; install, run, uninstall, summarise."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, jobs, stack = self.parents, self.jobs, self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                starts[i] = t0
                ends[i] = t1
                stack.pop()
            if hook is None:
                return out
            try:
                return hook(self, args, kwargs, out)
            except (AttributeError, TypeError, ValueError):  # result shape changed
                return out

        return wrapper

    def install(self) -> None:
        originals = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"pegrowth.{layer}")
            except ImportError:
                continue
            for n in _public_functions(mod):
                fn = getattr(mod, n)
                originals.setdefault(id(fn), (fn, self._wrap(f"{layer}.{n}", fn)))
        for modname, attr in KERNELS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            wrapper = self._wrap(f"kernel.{attr}", fn)
            originals[id(fn)] = (fn, wrapper)
            self._patch(mod, attr, wrapper)
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "pegrowth" or n.startswith("pegrowth."))]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def _patch(self, mod, attr, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)

    def summarise(self) -> dict:
        """Per-name call counts and inclusive seconds, per-layer self seconds,
        and the hook counters."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out = defaultdict(float, self.counts)
        in_family = [False] * n
        for i, name in enumerate(self.names):
            p = self.parents[i]
            in_family[i] = p >= 0 and (in_family[p] or self.names[p] == "rates.bang_bang_family")
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur[i]
            out[f"{name.split('.')[0]}.self_s"] += dur[i] - child[i]
            if name == "signals.validate_pe" and in_family[i]:
                out["signals.validate_pe.in_family"] += 1
        return out

    def write(self, path: Path) -> None:
        """Spans as columns; times in seconds from the first span."""
        t0 = min(self.starts, default=0.0)
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "names": table,
            "name": [index[x] for x in self.names],
            "start": [round(x - t0, 7) for x in self.starts],
            "end": [round(x - t0, 7) for x in self.ends],
            "parent": self.parents,
            "job": self.jobs,
        }, separators=(",", ":")))
