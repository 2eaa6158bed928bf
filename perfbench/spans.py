"""In-memory span recording and self-time arithmetic for traced runs.

A span is one timed call at a layer boundary: a name, a start, an end and
the span that was open when it began (its parent).  The recorder keeps
spans in four flat columns (``array``), so a traced run of a few million
boundary calls costs tens of megabytes, and writes them out once the run
ends.

Self time is exclusive time: a span's duration minus the durations of its
direct children.  Summed over a span tree it telescopes to the root's
duration, which is the invariant :func:`check_accounting` enforces.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

NO_PARENT = -1


class SpanRecorder:
    """A stack of open spans plus the flat columns of every span seen."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.stack: List[int] = [NO_PARENT]

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Open a span by name (for the few spans not tied to a call)."""
        index = len(self.start_col)
        self.name_col.append(self.name_id(name))
        self.parent_col.append(self.stack[-1])
        self.end_col.append(0.0)
        self.stack.append(index)
        self.start_col.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end_col[index] = time.perf_counter()
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.names[self.name_col[index]]!r} "
                               "closed out of order")

    def timed(self, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped so every call records a span called ``name``."""
        if inspect.isgeneratorfunction(fn):
            # A generator's body runs after the call returns, so a call
            # span would time only its creation.
            raise TypeError(f"cannot time generator function {fn.__qualname__}")
        nid = self.name_id(name)
        call = self.call

        def span(*args, **kwargs):
            return call(nid, fn, *args, **kwargs)

        return functools.update_wrapper(span, fn)

    def call(self, nid: int, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span whose name id is ``nid``."""
        starts, ends, stack = self.start_col, self.end_col, self.stack
        index = len(starts)
        self.name_col.append(nid)
        self.parent_col.append(stack[-1])
        ends.append(0.0)
        stack.append(index)
        starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            ends[index] = time.perf_counter()
            stack.pop()

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (np.frombuffer(self.name_col, dtype=np.int32),
                np.frombuffer(self.parent_col, dtype=np.int32),
                np.frombuffer(self.start_col, dtype=np.float64),
                np.frombuffer(self.end_col, dtype=np.float64))

    def write(self, path) -> None:
        """Write every span, with the name table and run id, as ``.npz``."""
        names, parents, starts, ends = self.columns()
        np.savez_compressed(
            path, run_id=np.array(self.run_id), names=np.array(self.names),
            name=names, parent=parents, start=starts, end=ends,
        )


def self_times(parents: Sequence[int], starts: Sequence[float],
               ends: Sequence[float]) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    child = parents != NO_PARENT
    covered = np.bincount(parents[child], weights=durations[child],
                          minlength=len(durations))
    return durations - covered


def check_accounting(parents: Sequence[int], starts: Sequence[float],
                     ends: Sequence[float], tolerance_s: float = 1e-6) -> None:
    """Raise unless every span nests in its parent and self times add up.

    Nesting: a child starts no earlier and ends no later than its parent.
    Accounting: the self times of all spans sum to the summed root
    durations, so no interval is counted twice or dropped.
    """
    parents = np.asarray(parents, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    if np.any(ends < starts):
        raise ValueError("a span ends before it starts")
    child = parents != NO_PARENT
    if np.any(parents[child] >= np.arange(len(parents))[child]):
        raise ValueError("a span's parent was opened after it")
    if np.any(starts[child] < starts[parents[child]]) or np.any(
            ends[child] > ends[parents[child]]):
        raise ValueError("a span is not nested inside its parent")
    selfs = self_times(parents, starts, ends)
    if np.any(selfs < -tolerance_s):
        raise ValueError("children cover more than their parent's duration")
    roots = float(np.sum(ends[~child] - starts[~child]))
    if abs(float(np.sum(selfs)) - roots) > tolerance_s:
        raise ValueError(f"self times sum to {np.sum(selfs)!r}, roots to {roots!r}")


# A hand-built span set: (name, parent index, start, end) and the self
# time each span must get.  Two roots; the first nests two levels deep.
HAND_BUILT = (
    ("A", NO_PARENT, 0.0, 10.0, 3.0),
    ("B", 0, 1.0, 4.0, 2.0),
    ("C", 1, 2.0, 3.0, 1.0),
    ("D", 0, 5.0, 9.0, 1.5),
    ("E", 3, 6.0, 7.0, 1.0),
    ("F", 3, 7.0, 8.5, 1.5),
    ("G", NO_PARENT, 10.0, 12.0, 2.0),
)


def selfcheck() -> None:
    """Raise unless the self-time arithmetic reproduces ``HAND_BUILT``."""
    _, parents, starts, ends, expected = zip(*HAND_BUILT)
    got = self_times(parents, starts, ends)
    if not np.allclose(got, expected, rtol=0.0, atol=1e-12):
        raise ValueError(f"self times {got.tolist()} != {list(expected)}")
    check_accounting(parents, starts, ends)
