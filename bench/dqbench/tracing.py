"""In-memory spans recorded around calls into the library.

The tracer replaces a function at the name where its caller looks it up
(``dualquant.solvers.analyze``, ``dualquant.cli.load_wav``, ...), so no
library source is edited.  Spans are kept in memory while the benchmark
runs and written out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; the open spans form a stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._sites: list[tuple[str, str, object]] = []
        self.missing: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, self.clock(), 0.0, parent)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            self._stack.pop()
            s.end = self.clock()

    def site(self, where: str, name: str, counts=None) -> None:
        """Register ``module:attr.path`` to be traced as span ``name``.

        ``counts(args, kwargs, result)`` may return a dict of counts to
        attach to the span.
        """
        self._sites.append((where, name, counts))

    def _wrapper(self, original, name, counts):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if counts is not None:
                    s.counts.update(counts(args, kwargs, result))
                return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every registered site for its traced wrapper, then restore."""
        originals = []
        try:
            for where, name, counts in self._sites:
                found = _resolve(where)
                if found is None:
                    if where not in self.missing:
                        self.missing.append(where)
                    continue
                owner, attr, original = found
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name, counts))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )


def _resolve(where: str):
    """``(owner, attr, value)`` for ``module:attr.path``; None if absent."""
    module, _, path = where.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def descendants_of(spans, roots) -> list[Span]:
    """Spans that have one of ``roots`` as an ancestor (roots excluded)."""
    inside = {r.id for r in roots}
    found = []
    for s in spans:  # parents are always recorded before their children
        if s.parent in inside:
            inside.add(s.id)
            found.append(s)
    return found
