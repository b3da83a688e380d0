"""In-memory spans around the benchmark's calls into the program.

A span is (name, start, end, parent, tag).  Spans are appended in call
order into flat arrays, so a traced call costs two clock reads and a few
appends.  ``parent`` is the index of the enclosing span (-1 for a root);
every call made for one input item has that item's root span as parent,
so the item's root index is the identifier its spans share.  ``tag`` is
a small integer filled in after the fact (solver branch, diameter-2
stage, canonical accept), or -1.
"""

from __future__ import annotations

import csv
from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

#: (name, tag) and (name, None) -> [count, total seconds].
SpanStats = dict[tuple[str, "int | None"], list[float]]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.tag = array("b")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span under the innermost open span."""
        nid = self._name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, tags, stack = self.parent, self.tag, self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tags.append(-1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()

        return traced

    def api(self, module, calls: dict[str, str]) -> SimpleNamespace:
        """Namespace of traced module functions: attribute -> span name."""
        return SimpleNamespace(**{attr: self.wrap(span, getattr(module, attr))
                                  for attr, span in calls.items()})

    def under(self, parent: int, name: str, fn, *args):
        """Call fn as a span whose parent is the given span (for probes)."""
        self._stack.append(parent)
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self._stack.pop()

    def children(self, idx: int) -> dict[str, list[int]]:
        """Spans recorded directly under span idx, by name, before any other span."""
        out: dict[str, list[int]] = {}
        j = idx + 1
        while j < len(self.parent) and self.parent[j] == idx:
            out.setdefault(self.names[self.name[j]], []).append(j)
            j += 1
        return out

    def roots(self, since: int, name: str) -> list[int]:
        nid = self._ids[name]
        return [j for j in range(since, len(self.name))
                if self.name[j] == nid and self.parent[j] == -1]

    def stats(self) -> SpanStats:
        """Count and total duration of the spans of each name, and of each tag."""
        acc: SpanStats = {}
        for nid, t0, t1, tag in zip(self.name, self.start, self.end, self.tag):
            name = self.names[nid]
            for key in ((name, None), (name, tag)):
                slot = acc.setdefault(key, [0, 0.0])
                slot[0] += 1
                slot[1] += t1 - t0
        return acc

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self) else 0.0
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "tag"])
            for j, (nid, t0, t1, parent, tag) in enumerate(
                    zip(self.name, self.start, self.end, self.parent, self.tag)):
                out.writerow([j, self.names[nid], f"{t0 - origin:.9f}",
                              f"{t1 - origin:.9f}", parent, tag])
