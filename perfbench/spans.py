"""Spans and the arithmetic over them.

A span is one timed call at a layer boundary: name, start, end, the span
that was open when it started (its parent), the process it ran in, and a
few attributes read from the model (event counts, entries installed).
Spans are kept in memory and written out when the run ends.

``self_time`` is a span's duration minus the part of its interval that its
child spans cover. ``tail_percentile`` implements the reporting rule for
timings: beside the median, the highest percentile with at least ten
samples beyond it.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles considered for the tail, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "pid", "attrs")

    def __init__(self, sid: int, parent: Optional[int], name: str,
                 start: float, pid: int):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.pid = pid
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_json(self) -> Dict[str, Any]:
        return {
            "sid": self.sid, "parent": self.parent, "name": self.name,
            "start": self.start, "end": self.end, "pid": self.pid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "Span":
        span = cls(d["sid"], d["parent"], d["name"], d["start"], d["pid"])
        span.end = d["end"]
        span.attrs = dict(d.get("attrs") or {})
        return span


class Recorder:
    """Per-process span stack. A forked child starts with an empty record
    (it inherits the parent's list and open stack, which it discards)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self._next = 0

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []
            self.stack = []

    def open(self, name: str) -> Span:
        self._check_fork()
        self._next += 1
        parent = self.stack[-1].sid if self.stack else None
        span = Span(self._next, parent, name, time.perf_counter(), self.pid)
        self.stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # Pop through the span even if an inner span leaked open.
        while self.stack:
            if self.stack.pop() is span:
                break


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def children_index(spans: Sequence[Span]) -> Dict[Tuple[int, int], List[Span]]:
    """``(pid, sid) -> child spans``."""
    index: Dict[Tuple[int, int], List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            index.setdefault((s.pid, s.parent), []).append(s)
    return index


def self_time(span: Span, index: Dict[Tuple[int, int], List[Span]]) -> float:
    """Duration minus the time its children cover."""
    if span.end is None:
        return 0.0
    kids = index.get((span.pid, span.sid), [])
    covered = _covered(((k.start, k.end) for k in kids if k.end is not None),
                       span.start, span.end)
    return span.duration - covered


def ancestry(spans: Sequence[Span]) -> Dict[Tuple[int, int], List[str]]:
    """``(pid, sid) -> names of the span's ancestors, innermost first``."""
    by_id = {(s.pid, s.sid): s for s in spans}
    out: Dict[Tuple[int, int], List[str]] = {}
    for s in spans:
        names = []
        parent = s.parent
        while parent is not None:
            p = by_id.get((s.pid, parent))
            if p is None:
                break
            names.append(p.name)
            parent = p.parent
        out[(s.pid, s.sid)] = names
    return out


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the ``numpy`` default method)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(pct, value)`` for the highest percentile in the ladder with at
    least ``MIN_BEYOND`` samples beyond it, or None if even the median
    has fewer."""
    n = len(samples)
    best = None
    for pct in PERCENTILE_LADDER:
        # (100 - pct) keeps 10.0 exact for pct = 90; the epsilon absorbs
        # the representation error of 99.9.
        if n * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            best = pct
    if best is None:
        return None
    return best, percentile(samples, best)


def timing_summary(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, tail percentile (if any) and sample count of a timing."""
    if not samples:
        return {"n": 0}
    out: Dict[str, Any] = {
        "n": len(samples),
        "median": statistics.median(samples),
        "max": max(samples),
    }
    tail = tail_percentile(samples)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out
