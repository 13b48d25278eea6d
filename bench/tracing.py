"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: the benchmark swaps public
functions and methods of ``rydmis`` for timing wrappers and puts the
originals back when the ``Tracer`` context exits.  Nothing inside the
package changes.

Each span keeps its name, layer, start, end and parent.  Calls that run
hundreds of thousands of times per workload (matvecs, schedule
evaluation, bitstring classification) are "hot": they are folded into
one running count and total time per name instead of one span each, and
their time is still charged to the enclosing span as child time.  A
span's self time is its duration minus the time of its children.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

# no-op calls timed per wrapper when calibrating the wrappers' cost
CALIBRATION_CALLS = 10_000


@dataclass
class HotStat:
    layer: str
    calls: int = 0
    seconds: float = 0.0


@dataclass
class Span:
    id: int
    name: str
    layer: str | None
    parent: int | None
    start: float
    end: float = float("nan")
    tag: str | None = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Span stack plus the wrappers that feed it.

    Use as a context manager: every wrapper installed with ``wrap`` is
    removed on exit, even when the traced code raised.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict[str, HotStat] = {}
        self.missing: set[str] = set()
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str, layer: str | None, tag: str | None = None):
        parent = self._stack[-1] if self._stack else None
        s = Span(
            id=len(self.spans),
            name=name,
            layer=layer,
            parent=None if parent is None else parent.id,
            start=time.perf_counter(),
            tag=tag,
        )
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.duration

    def wrap(self, label: str, owner, attr: str, name: str, layer: str, hot: bool) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``owner`` is a module or a class; only attributes it defines
        itself are wrapped.  A target that does not exist (for example
        after a refactor renamed it) is recorded in ``missing`` under
        ``label`` so that the metrics fed by it are reported as missing
        rather than as zero.
        """
        original = None if owner is None else vars(owner).get(attr)
        if original is None:
            self.missing.add(label)
            return
        wrapper = self._hot_wrapper(name, layer, original) if hot else self._span_wrapper(
            name, layer, original
        )
        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def original(self, owner, attr: str):
        """``owner.attr`` as it was before any wrapper was installed."""
        for installed_owner, installed_attr, original in self._installed:
            if installed_owner is owner and installed_attr == attr:
                return original
        return getattr(owner, attr)

    def wrapper_costs(self) -> tuple[float, float]:
        """Measured extra seconds per call of a span wrapper and of a hot wrapper.

        Both wrap a no-op inside an open span on a scratch tracer; the best
        of three timings is kept, since noise only adds time.
        """

        def noop():
            return None

        probe = Tracer()
        span_w = probe._span_wrapper("calibrate", None, noop)
        hot_w = probe._hot_wrapper("calibrate", "calibrate", noop)

        def per_call(fn) -> float:
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(CALIBRATION_CALLS):
                    fn()
                best = min(best, time.perf_counter() - t0)
            return best / CALIBRATION_CALLS

        with probe.span("calibrate", None):
            base = per_call(noop)
            return per_call(span_w) - base, per_call(hot_w) - base

    def overhead_s(self) -> float:
        """Computed time the wrappers added: calls made times calibrated cost."""
        span_cost, hot_cost = self.wrapper_costs()
        hot_calls = sum(stat.calls for stat in self.hot.values())
        return len(self.spans) * span_cost + hot_calls * hot_cost

    def _span_wrapper(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return wrapper

    def _hot_wrapper(self, name: str, layer: str, fn):
        stat = self.hot.setdefault(name, HotStat(layer))
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.seconds += dt
                if stack:
                    stack[-1].child_s += dt

        return wrapper
