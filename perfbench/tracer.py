"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the program: :meth:`Tracer.patch` replaces a
public name where the calling module binds it (``erlap.spectral.sample_graph``,
``CensusAccumulator.add``, ...) with a wrapper that appends an enter and an exit
event to an in-memory list.  Nothing is written until the run is analysed.

:func:`analyse` turns the event list into self times.  A stage's self time is
the time during which one of its spans is the innermost open span, so the
self times of all stages add up to the wall time of the root spans.  Time is
also split by realization: a realization starts when ``bucket_stage`` (the
sampler) is entered and lasts until the next one starts.
"""

from __future__ import annotations

import functools
import time

import numpy as np

_clock = time.perf_counter_ns


class Tracer:
    """Collects enter/exit events of wrapped calls, one list per tracer."""

    def __init__(self, stages: list[str]):
        self.stages = list(stages)
        self.events: list[tuple[int, int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, stage: str, fn, on_return=None):
        """``fn`` wrapped in a span of ``stage``.

        ``on_return(args, result)`` runs after the span closes, so the cost of
        keeping a counter shows up as the caller's self time, not the stage's.
        """
        enter = self.stages.index(stage) + 1
        events = self.events

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            events.append((_clock(), enter))
            try:
                result = fn(*args, **kwargs)
            finally:
                events.append((_clock(), -enter))
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def patch(self, owner, name: str, stage: str, on_return=None) -> None:
        """Replace ``owner.name`` by its traced wrapper until :meth:`restore`."""
        original = getattr(owner, name)
        self._patched.append((owner, name, original))
        setattr(owner, name, self.wrap(stage, original, on_return))

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


class TraceError(RuntimeError):
    """The event list does not describe properly nested spans."""


def analyse(events: list[tuple[int, int]], n_stages: int, bucket_stage: int):
    """Self times from an event list.

    Returns ``(wall_ns, self_ns, per_rep_ns)``: the summed duration of the root
    spans, the self time of each stage, and an array of shape
    (realizations, n_stages) with each stage's self time per realization.
    Self time before the first realization belongs to no row.  An exit that
    does not close the innermost open span, or a span left open at the end,
    raises :class:`TraceError`.
    """
    bucket_enter = bucket_stage + 1
    n_reps = sum(1 for _, code in events if code == bucket_enter)
    per_rep = np.zeros((n_reps + 1, n_stages), dtype=np.int64)
    self_ns = [0] * n_stages
    wall = 0
    row = 0
    stack: list[tuple[int, int]] = []  # (stage, start) of the open spans
    prev = 0
    for t, code in events:
        if stack:
            top = stack[-1][0]
            self_ns[top] += t - prev
            per_rep[row, top] += t - prev
        if code > 0:
            if code == bucket_enter:
                row += 1
            stack.append((code - 1, t))
        else:
            if not stack or stack[-1][0] != -code - 1:
                raise TraceError(f"unbalanced exit of stage {-code - 1} at t={t}")
            _, start = stack.pop()
            if not stack:
                wall += t - start
        prev = t
    if stack:
        raise TraceError(f"{len(stack)} spans still open at the end of the trace")
    return wall, np.asarray(self_ns, dtype=np.int64), per_rep[1:]


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten values beyond it, and that percentile.

    With ten or fewer values no such percentile exists; the maximum is
    returned with percentile 100.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.shape[0]
    if n == 0:
        return 0.0, 0.0
    if n <= 10:
        return float(x[-1]), 100.0
    return float(x[n - 11]), 100.0 * (n - 10) / n
