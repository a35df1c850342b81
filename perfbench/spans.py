"""In-memory span tracing of the engine's public functions.

``Tracer.install`` wraps the public functions of the traced modules, and
two named methods, in every ``delpezzo3`` module namespace that binds
them (``cli`` and ``swaps`` import ``canonical_form`` and friends by
name).  Each call records a span: name, start, end and parent span.  A
tracer serves one job (one process, see job.py); spans stay in flat
arrays until the job ends and are written out with its job id.  Self time
is a span's duration minus the durations of its direct children.

Generator functions are not wrapped (their work runs when the caller
iterates, so it shows as the caller's self time), and neither are the
per-entry accessors such as ``Entry.skeleton``, whose calls outnumber
every layer's by ten to one and would drown the measurement in overhead.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from functools import wraps
from pathlib import Path

TRACED_MODULES = (
    "notation", "chains", "boundary", "swaps", "simulator", "homology", "fixtures", "reports",
)
TRACED_METHODS = {
    "boundary": {"DecoratedType": ("is_admissible",)},
    "reports": {"Report": ("render_csv",)},
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.error = array("b")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, errors = (
            self.name, self.start, self.end, self.parent, self.error,
        )
        stack, clock = self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            errors.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[index] = 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a delpezzo3 module binds it."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"delpezzo3.{short}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[id(obj)] = self.wrap(f"{short}.{attr}", obj)
            for cls_name, methods in TRACED_METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "delpezzo3" and not mod_name.startswith("delpezzo3."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def per_layer(self) -> dict[str, list]:
        """name -> [calls, self seconds, errors]."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        for i, own in enumerate(self.self_times()):
            row = out[self.names[self.name[i]]]
            row[0] += 1
            row[1] += own
            row[2] += self.error[i]
        return dict(out)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above
        them."""
        target, above = self.name_ids.get(name), self.name_ids.get(ancestor)
        count = 0
        for i, n in enumerate(self.name):
            if n != target:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != above:
                p = self.parent[p]
            count += p >= 0
        return count

    def write(self, path: Path, job: int) -> None:
        """Spans as gzipped CSV: name,start,end,parent,job,error."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start_s,end_s,parent,job,error\n")
            for i in range(len(self.name)):
                out.write(
                    f"{self.names[self.name[i]]},{self.start[i] - t0:.7f},"
                    f"{self.end[i] - t0:.7f},{self.parent[i]},{job},{self.error[i]}\n"
                )
