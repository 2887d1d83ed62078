"""Spans around calls into the library's public functions.

While installed, a :class:`Tracer` replaces each traced function by a
wrapper at every place the library binds it: the defining module and
every ``chebcoded`` module (or the package itself) that imported the
name.  Spans are kept in memory as ``(name, start, end, parent, call)``
tuples; a function that no longer exists is reported as absent rather
than traced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "chebcoded"

def _worker_gflop(shard, *args, **kwargs) -> float:
    rows, inner = shard.a_shard.shape
    return 2.0 * rows * inner * shard.b_shard.shape[1] / 1e9


# Work counted from a call's arguments, exactly repeatable.
WORK = {"matmul_codes.worker_compute": _worker_gflop}


class Tracer:
    """Spans of the named functions, each ``"<module>.<function>"`` of
    the package."""

    def __init__(self, names):
        self.names = list(names)
        self.spans: list[tuple | None] = []
        self.work: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.call_id: int | None = None
        self._saved: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.absent = []
        originals = {}
        for name in self.names:
            layer, fn = name.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                module = None
            originals[name] = getattr(module, fn, None)
        sites = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for name, original in originals.items():
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for site in sites:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        self._saved.append((site, attr, original))
                        setattr(site, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            site, attr, original = self._saved.pop()
            setattr(site, attr, original)

    def _wrap(self, name: str, fn):
        count_work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[span_id] = (name, start, end, parent, self.call_id)
                if count_work is not None:
                    self.work[name] += count_work(*args, **kwargs)

        return wrapper

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, call_id: int, fn):
        """Run one benchmark call as a root span tagged with ``call_id``."""
        self.call_id = call_id
        return self._wrap("bench.call", fn)()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: span count, total duration and self time.

        Self time is a span's duration minus the part of its interval
        covered by its child spans.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        done = [s for s in enumerate(self.spans) if s[1] is not None]
        for _, (_, start, end, parent, _) in done:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, (name, start, end, _, _) in done:
            covered, reach = 0.0, start
            for lo, hi in sorted(children[span_id]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return dict(out)

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "call": c}
            for n, s, e, p, c in (x for x in self.spans if x is not None)
        ]
