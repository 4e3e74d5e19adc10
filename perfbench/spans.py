"""In-memory span recorder with class- and module-level call wrapping.

A span is ``(name, start, end, parent, round_id)``: ``parent`` is the index
of the span that was open when this one started (``-1`` at top level) and
``round_id`` the index of the enclosing ``strategy.round`` span (``-1``
outside any round).  Spans live in memory while the workload runs and are
written out once at the end.

Calls are wrapped from outside the program: :meth:`Patcher.replace` swaps an
attribute of a class or module for a wrapper around the original (for
example one from :meth:`Tracer.span_wrapper`), and :meth:`Patcher.restore`
puts every original back.

Forked processes inherit the recorder (copy-on-write).  A child exports the
spans it added since a recorded mark with :meth:`Tracer.export`, and the
parent appends them with :meth:`Tracer.merge`, which re-bases indices that
point past the mark and keeps those before it, because that prefix is shared
by parent and child.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Span name that starts a new round id for every span opened inside it.
ROUND_SPAN = "strategy.round"

Span = List  # [name, start, end, parent, round_id]


class Patcher:
    """Replaces attributes of classes or modules and puts the originals back."""

    def __init__(self) -> None:
        self._originals: List[Tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, make: Callable) -> None:
        """Set ``owner.attribute`` to ``make(original)``.

        On a class only an attribute the class defines itself is replaced, so
        a wrapped base method and a wrapped override stay separate.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
            if isinstance(original, (staticmethod, classmethod, property)):
                raise TypeError(f"cannot wrap {owner.__name__}.{attribute}")
        else:
            original = getattr(owner, attribute)
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, functools.wraps(original)(make(original)))

    def restore(self) -> None:
        """Put back every replaced attribute, newest first."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """Records nested spans on a single thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._round = -1

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if name == ROUND_SPAN:
            self._round = index
        self.spans.append([name, self.clock(), None, parent, self._round])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        if span[0] == ROUND_SPAN:
            self._round = self.spans[span[3]][4] if span[3] >= 0 else -1

    def span_wrapper(self, name: str):
        """A :meth:`Patcher.replace` factory that records a span per call."""

        def make(original):
            def traced(*args, **kwargs):
                index = self.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(index)

            return traced

        return make

    # -- fork hand-off ---------------------------------------------------------

    def mark(self) -> int:
        return len(self.spans)

    def export(self, mark: int, path: str) -> None:
        """Write the spans recorded since ``mark`` (all closed) to ``path``."""
        payload = {"mark": mark, "spans": self.spans[mark:]}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)

    def merge(self, path: str) -> None:
        """Append spans exported by a forked child, re-basing their indices."""
        with open(path) as handle:
            payload = json.load(handle)
        mark = payload["mark"]
        offset = len(self.spans) - mark

        def rebase(index: int) -> int:
            return index + offset if index >= mark else index

        for name, start, end, parent, round_id in payload["spans"]:
            self.spans.append([name, start, end, rebase(parent), rebase(round_id)])


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans on one thread nest strictly, so the children of a span cover
    disjoint parts of its interval.  Spans merged from forked children may
    overlap each other under a shared parent; the parent's self time can then
    go negative, which reads as "work done in parallel under this span".
    """
    result = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            result[span[3]] -= span[2] - span[1]
    return result


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` (inclusive) and ``self_s``."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span, own in zip(spans, selfs):
        entry = table[span[0]]
        entry["calls"] += 1
        entry["total_s"] += span[2] - span[1]
        entry["self_s"] += own
    return dict(table)


def round_coverage(spans: List[Span]) -> Dict[str, float]:
    """How the round spans' wall time splits into self time per span.

    ``round_wall_s`` is the summed duration of every ``strategy.round`` span,
    ``covered_s`` the summed self time of the spans inside rounds, and
    ``uncovered_s`` the rounds' own self time (wall time no wrapped call
    accounts for).  ``covered_s + uncovered_s == round_wall_s`` up to
    floating-point rounding.
    """
    selfs = self_times(spans)
    wall = covered = uncovered = 0.0
    for index, (span, own) in enumerate(zip(spans, selfs)):
        if span[0] == ROUND_SPAN and span[4] == index:
            wall += span[2] - span[1]
            uncovered += own
        elif span[4] >= 0:
            covered += own
    return {"round_wall_s": wall, "covered_s": covered, "uncovered_s": uncovered}


def write_spans(spans: List[Span], path: str) -> None:
    """Write spans as JSON lines: ``[name, start, end, parent, round_id]``."""
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
