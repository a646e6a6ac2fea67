"""In-memory span tracer that wraps woesim's layer functions from outside.

The tracer replaces a function attribute where the calling module looks it
up (``woesim.engine.fit_logistic``, ``woesim.cli.summarize``,
``RngStream.generator``) with a wrapper that records one span per call:
name, start, end, parent span and an optional small fact taken from the
result.  ``uninstall`` puts every original attribute back.

Pool workers forked while the tracer is installed inherit the wrappers.  A
worker starts with an empty span list and, each time one of its root spans
closes, appends its spans to a spool file that the driver reads back with
``collect_worker_spans``.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

#: Attribute set on every wrapper; its presence marks a traced function.
MARKER = "_bench_traced_original"


@dataclass(frozen=True)
class Span:
    """One call of a traced function."""

    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    pid: int
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration - _covered(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


class Tracer:
    """Records spans around wrapped functions until ``uninstall``."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.driver_pid = os.getpid()
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, Callable]] = []
        self._adopt(self.driver_pid)

    def _adopt(self, pid: int) -> None:
        # a forked worker inherits the driver's spans and open stack; it
        # starts its own record instead, with ids that cannot collide
        self._pid = pid
        self._ids = itertools.count(pid << 32)
        self._stack: list[int] = []
        self.spans = []

    def wrap(self, owner, attr: str, name: str, info: Callable | None = None) -> bool:
        """Trace calls of ``owner.attr`` as span ``name``; False if it does not exist."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(original):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer._pid:
                tracer._adopt(pid)
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                fact = info(result) if info is not None and result is not None else None
                tracer.spans.append(Span(sid, parent, name, start, end, pid, fact))
                if parent is None and pid != tracer.driver_pid:
                    tracer._spool()

        setattr(traced, MARKER, original)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        return True

    def uninstall(self) -> None:
        """Put every wrapped attribute back to its original."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _spool(self) -> None:
        with open(self.spool_dir / f"spans-{self._pid}.pkl", "ab") as fh:
            pickle.dump(self.spans, fh, protocol=pickle.HIGHEST_PROTOCOL)
        self.spans = []

    def collect_worker_spans(self) -> list[Span]:
        """Read back and delete the spool files pool workers wrote."""
        spans: list[Span] = []
        for path in sorted(self.spool_dir.glob("spans-*.pkl")):
            with open(path, "rb") as fh:
                while True:
                    try:
                        spans.extend(pickle.load(fh))
                    except EOFError:
                        break
            path.unlink()
        return spans

    def take(self) -> list[Span]:
        """All spans recorded so far, driver and workers; clears the record."""
        spans, self.spans = self.spans, []
        return spans + self.collect_worker_spans()


def is_traced(func) -> bool:
    return hasattr(func, MARKER)
