"""Tracing of rescoh from outside the package.

``Tracer.install`` replaces the public functions of each traced rescoh
module, three hot methods (and two more the layer table needs), and every
copy of those objects that another rescoh module imported, with timing
wrappers.  ``Tracer.uninstall`` puts every original back.  Nothing inside
``src/`` is changed.

Every wrapped name keeps aggregate statistics (calls, total and self time).
Names outside ``HOT`` also record one span per call: name, start, end,
self time, the span that called it, and the job it belongs to.  Spans stay
in memory until ``dump`` writes them out.  A span's self time is its
duration minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("linalg", "classical", "rescochain", "liealg", "ures", "abelres",
           "interp", "gmod", "dsl", "cli")

METHODS = {
    "liealg": ("RestrictedLieAlgebra", ("p_power", "bracket")),
    "ures": ("Ures", ("mono_times_gen", "multiply")),
}

# Called up to millions of times per pass: aggregate statistics only.
HOT = frozenset({
    "linalg.as_fp", "linalg.zeros", "linalg.identity", "linalg.mat_pow_mod",
    "liealg.bracket", "liealg.p_power", "ures.mono_times_gen",
    "classical.cochain_tuples", "rescochain.pair_tuples", "rescochain.triple_tuples",
})


def _cells(a) -> int:
    shape = np.shape(a)
    return int(np.prod(shape)) if shape else 1


def _shape2(a) -> tuple[int, int]:
    shape = np.shape(a)
    if len(shape) == 2:
        return shape
    return (shape[0], 1) if shape else (1, 1)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent, job, name, start, end, self_s)
        self._stack: list[list] = []  # per active call: [child_s, span_id]
        self._originals: list[tuple] = []  # (owner, attribute, original)
        self._job = None
        self._job_seen: set = set()
        self._next_id = 0

    # -- job boundaries -------------------------------------------------
    def start_job(self, job_id) -> None:
        self._job = job_id
        self._job_seen = set()

    # -- counters -------------------------------------------------------
    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _repeat(self, name: str, key) -> None:
        """Count a request, and a repeat if ``key`` was seen in this job."""
        self._count(f"{name}.requests", 1)
        if key in self._job_seen:
            self._count(f"{name}.repeats", 1)
        else:
            self._job_seen.add(key)

    def _before(self, name: str, args) -> None:
        """Work counters read from a call's arguments."""
        if name == "linalg.rank":
            self._count("linalg.rank.cells", _cells(args[0]))
            self._count("linalg.rank.nnz", int(np.count_nonzero(args[0])))
        elif name == "linalg.rref":
            self._count("linalg.rref.cells", _cells(args[0]))
        elif name == "linalg.matmul_mod":
            (r, k), (_, c) = _shape2(args[0]), _shape2(args[1])
            self._count("linalg.matmul_mod.flops", 2 * r * k * c)
        elif name == "classical.delta_cl_matrix":
            L, M, q = args[0], args[1], args[2]
            self._repeat(name, ("delta_cl", id(L), id(M), q))
        elif name == "ures.mono_times_gen":
            U, mono, g = args[0], args[1], args[2]
            self._repeat(name, ("mono", id(U), mono, g))

    def _after(self, name: str, result) -> None:
        if name == "abelres.build_resolution":
            # The hidden top slice is built too, so it counts.
            slices = list(result.slices) + [getattr(result, "_extra", None)]
            cells = sum(_cells(s.d) for s in slices if s is not None and s.d is not None)
            self._count("abelres.slice_cells", cells)

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        hot = name in HOT
        counted = name in ("linalg.rank", "linalg.rref", "linalg.matmul_mod",
                           "classical.delta_cl_matrix", "ures.mono_times_gen")
        after = name == "abelres.build_resolution"
        tracer = self

        def traced(*args, **kwargs):
            c0 = perf_counter()
            if counted:
                tracer._before(name, args)
            if hot:
                frame = [0.0, None]
            else:
                frame = [0.0, tracer._next_id]
                tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                self_s = dt - frame[0]
                stats[0] += 1
                stats[1] += dt
                stats[2] += self_s
                if parent is not None:
                    # Counter work is charged to no one's self time.
                    parent[0] += t1 - c0
                if not hot:
                    parent_id = _nearest_span(stack)
                    tracer.spans.append((frame[1], parent_id, tracer._job, name,
                                         t0, t1, self_s))
            if after:
                tracer._after(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def targets(self):
        """(name, owner, attribute, original) for every object to wrap."""
        out = []
        for short in MODULES:
            mod = importlib.import_module(f"rescoh.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    out.append((f"{short}.{attr}", mod, attr, obj))
            if short in METHODS:
                cls_name, methods = METHODS[short]
                cls = getattr(mod, cls_name)
                for attr in methods:
                    out.append((f"{short}.{attr}", cls, attr, cls.__dict__[attr]))
        return out

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        wrappers = {id(orig): self._wrap(name, orig) for name, _, _, orig in targets}
        for _, owner, attr, orig in targets:
            self._replace(owner, attr, orig, wrappers[id(orig)])
        # Copies made by ``from .x import name``; home names already hold wrappers.
        packages = [importlib.import_module("rescoh")]
        packages += [importlib.import_module(f"rescoh.{m}") for m in MODULES]
        for mod in packages:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._replace(mod, attr, obj, wrappers[id(obj)])

    def _replace(self, owner, attr, orig, wrapper) -> None:
        self._originals.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals = []

    def wrapped_names(self) -> list[tuple]:
        """(owner, attribute, original) for every replaced name."""
        return list(self._originals)

    # -- reporting ------------------------------------------------------
    def module_self(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def dump(self, path: Path, meta: dict) -> None:
        fields = ("id", "parent", "job", "name", "start", "end", "self_s")
        doc = {
            "meta": meta,
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
            "span_fields": fields,
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def _nearest_span(stack):
    for frame in reversed(stack):
        if frame[1] is not None:
            return frame[1]
    return None
