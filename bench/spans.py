"""In-memory span recorder that wraps library functions from outside.

Each wrapped call is a span with a name and a parent (the innermost
wrapped call open when it started). Spans are folded into per
(parent, name) totals as they close, so memory stays constant over a
long run; the table is written out once, when the run ends. A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self._open: list[list] = []  # [name, child seconds] per open span
        # (parent, name) -> [calls, total seconds, self seconds]
        self.table: dict[tuple[str | None, str], list] = {}

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[[Any], None] | None = None) -> Callable:
        open_spans, table = self._open, self.table

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                open_spans.pop()
                parent = open_spans[-1] if open_spans else None
                if parent is not None:
                    parent[1] += duration
                row = table.setdefault(
                    (parent[0] if parent else None, name), [0, 0.0, 0.0])
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
            if on_result is not None:
                start = perf_counter()
                on_result(result)
                # Counting is tracer work: keep it out of the parent's
                # self time by booking it as child time.
                if open_spans:
                    open_spans[-1][1] += perf_counter() - start
            return result

        return traced

    def calls(self, name: str) -> int:
        return sum(r[0] for (_, n), r in self.table.items() if n == name)

    def total(self, name: str, outermost: bool = False) -> float:
        """Summed duration of spans called `name`; with outermost=True,
        spans nested in a span of the same name are not counted again."""
        return sum(r[1] for (p, n), r in self.table.items()
                   if n == name and not (outermost and p == name))

    def self_time(self, name: str) -> float:
        return sum(r[2] for (_, n), r in self.table.items() if n == name)

    def rows(self) -> list[dict]:
        return [{"parent": p, "name": n, "calls": r[0], "total_s": r[1],
                 "self_s": r[2]} for (p, n), r in sorted(
                     self.table.items(), key=lambda kv: (kv[0][1], str(kv[0][0])))]


@contextmanager
def patched(targets: list[tuple[Any, str, Callable[[Callable], Callable]]],
            ) -> Iterator[list[str]]:
    """Replace obj.path with make(original) for each target, restore on exit.

    `path` is an attribute name, or a dotted one such as
    "SummaryStats.from_samples". Classmethods are unwrapped and re-wrapped
    so that the replacement is still bound to the class. Targets that no
    longer exist are skipped and their names yielded, so a refactor that
    removes a layer reports it missing instead of failing the run.
    """
    saved, missing = [], []
    try:
        for obj, path, make in targets:
            *outer, attr = path.split(".")
            try:
                for name in outer:
                    obj = getattr(obj, name)
                original = inspect.getattr_static(obj, attr)
            except AttributeError:
                missing.append(path)
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(make(original.__func__))
            else:
                replacement = make(original)
            saved.append((obj, attr, original))
            setattr(obj, attr, replacement)
        yield missing
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
