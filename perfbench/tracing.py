"""Span recording from outside the program, and the statistics over it.

A :class:`Tracer` replaces a function where its callers look it up (a
module attribute, a class attribute or an instance attribute) with a
wrapper that records one span per call: name, start, end, parent span
and the gossip cycle it ran in.  Spans stay in memory; :func:`write_spans`
writes them out once the benchmark ends.  :meth:`Tracer.restore` puts
every original back.

Spans nest through a stack.  That is exact for synchronous code and for
the live engine's lockstep rounds, where one exchange is in flight at a
time and everything the event loop runs while an exchange awaits its
reply is caused by that exchange.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, CYCLE = range(5)


class Tracer:
    """Records spans around patched calls; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.cycle = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.cycle])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.spans[index][NAME]!r} closed out of order"
            )

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_call: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``on_call(tracer, args, result)`` runs after each call, for the
        counts measured at the same boundary (bytes, descriptors kept).
        Coroutine functions get a coroutine wrapper whose span covers the
        whole await.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer.end(index)
                if on_call is not None:
                    on_call(tracer, args, result)
                return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_call is not None:
                on_call(tracer, args, result)
            return result

        return traced

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_call: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> Callable:
        """Replace ``owner.attr`` by its traced wrapper; returns the wrapper.

        A ``classmethod`` stays a classmethod.  Instance attributes shadow
        the class method for that object only.
        """
        raw = inspect.getattr_static(owner, attr)
        existed = attr in getattr(owner, "__dict__", {})
        if isinstance(raw, classmethod):
            wrapper = self.wrap(raw.__func__, name, on_call)
            setattr(owner, attr, classmethod(wrapper))
        else:
            wrapper = self.wrap(getattr(owner, attr), name, on_call)
            setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw, existed))
        return wrapper

    def install(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Put an already-built wrapper at a second lookup site."""
        raw = inspect.getattr_static(owner, attr)
        existed = attr in getattr(owner, "__dict__", {})
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw, existed))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw, existed = self._patches.pop()
            if existed:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def reset(self) -> None:
        """Forget recorded spans and counts (patches stay)."""
        if self._stack:
            raise RuntimeError("reset with spans still open")
        self.spans = []
        self.counts = {}
        self.cycle = 0

def write_spans(path: str, meta: Dict[str, Any], cells: Sequence[Sequence]) -> None:
    """Write ``meta`` and the spans of every traced cell as gzipped JSON."""
    with gzip.open(path, "wt") as handle:
        json.dump(
            {
                "meta": meta,
                "fields": ["name", "start", "end", "parent", "cycle"],
                "cells": cells,
            },
            handle,
        )


# -- statistics over spans ------------------------------------------------------


def children_of(spans: Sequence[Sequence]) -> List[List[int]]:
    """Direct children of every span, by index."""
    children: List[List[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    return children


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part its direct children cover."""
    children = children_of(spans)
    result = []
    for index, span in enumerate(spans):
        covered = _covered(
            ((spans[c][START], spans[c][END]) for c in children[index]),
            span[START],
            span[END],
        )
        result.append(span[END] - span[START] - covered)
    return result


def totals(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``wall`` and total ``self`` seconds."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span, self_time in zip(spans, own):
        entry = out.setdefault(span[NAME], {"calls": 0, "wall": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["wall"] += span[END] - span[START]
        entry["self"] += self_time
    return out


def child_wall(
    spans: Sequence[Sequence], parent_name: str, child_names: Iterable[str]
) -> float:
    """Total wall of ``child_names`` spans directly under ``parent_name`` spans."""
    wanted = set(child_names)
    return sum(
        span[END] - span[START]
        for span in spans
        if span[PARENT] >= 0
        and spans[span[PARENT]][NAME] == parent_name
        and span[NAME] in wanted
    )


# -- percentiles -------------------------------------------------------------------


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than ten samples beyond it."""


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile (nearest rank) and the sample count.

    Refuses, with :class:`TooFewSamples`, a percentile that has fewer
    than ten samples beyond it: such a tail is one or two outliers, not a
    measurement.
    """
    n = len(samples)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    rank = max(1, math.ceil(q * n / 100))
    if n - rank < 10:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {max(0, n - rank)} beyond it; "
            "need at least 10"
        )
    return sorted(samples)[rank - 1], n
