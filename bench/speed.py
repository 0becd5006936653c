"""Reference-speed clock for the end-to-end timings.

On a shared host the speed at which one process runs Python changes from
moment to moment: other tenants load the sibling hardware threads and the
shared caches, and a fixed piece of pure-Python work can take half as long
again in one tenth of a second as in the next. Over the minutes between two
runs this drift is larger than the regressions the benchmark must catch, so
raw wall-clock medians of separate runs cannot be compared within a useful
bound.

The benchmark therefore keeps timing a fixed reference task beside the
operations it measures; a :class:`Sampler` runs it and records each run (a
*probe*). For in-process operations the task is :func:`reference_task`,
stdlib-only pure-Python work of the kinds pipevis does (frozen dataclass
construction, dict lookups, a graph walk, float arithmetic, string
formatting and the indenting JSON encoder), and it runs *inside* the
operations, from a ``SIGALRM`` interval timer every ``PERIOD_S`` seconds, so
the probes see the same moments as the code they are set against; the time
spent in probes is taken out of the operation's time. Where an operation
runs in a child process, the caller gives a task of its own kind and probes
between operations.

An operation's time divided by the mean time of the probes during it
(widened to at least ``min_probes`` probes around it) is its cost in
reference tasks; times the task's nominal time it is its *reference-speed*
time, the time it would have taken on a machine that runs the task in its
nominal time. A reference task never calls pipevis, so a change to pipevis
moves reference-speed times exactly as it moves wall times on a machine of
steady speed.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import json
import math
import signal
from dataclasses import dataclass
from time import perf_counter

#: Nominal wall time of one reference task, in milliseconds: its median on a
#: 2-vCPU Xeon 2.1 GHz VM under Python 3.11.7. It only sets the scale.
REF_MS = 2.5
#: Seconds between two timer probes inside in-process operations.
PERIOD_S = 0.02
#: Probes a speed estimate takes at least, by default: an operation shorter
#: than this many periods is set against the nearest probes around it.
MIN_PROBES = 8

_NODES = 300


@dataclass(frozen=True)
class _Node:
    id: str
    quantity: int
    quality: int
    feeds: tuple[str, ...]


_DOCUMENT = {
    f"N{i:03d}": {
        "id": f"N{i:03d}",
        "quantity": 1 + i % 4,
        "quality": 1 + (i * 7) % 4,
        "feeds": [f"N{j:03d}" for j in (3 * i + 1, 5 * i + 2) if j < _NODES],
    }
    for i in range(_NODES)
}


def reference_task() -> int:
    """A fixed amount of pure-Python work; the same on every call."""
    nodes = [_Node(n["id"], n["quantity"], n["quality"], tuple(n["feeds"]))
             for n in _DOCUMENT.values()]
    index = {node.id: node for node in nodes}
    seen: set[str] = set()
    stack = ["N000"]
    while stack:
        node_id = stack.pop()
        if node_id not in seen:
            seen.add(node_id)
            stack.extend(index[node_id].feeds)
    scores = {node.id: math.sqrt(node.quantity * node.quality) for node in nodes}
    mean = sum(scores.values()) / len(scores)
    text = json.dumps(
        {nid: {"visibility": v, "label": f"{nid}: {v:.3f} of {mean:.3f}"}
         for nid, v in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))},
        indent=2,
    )
    return len(text) + len(seen)


class Sampler:
    """Times the reference task beside the operations and scales their times."""

    def __init__(self, task=reference_task, ref_ms: float = REF_MS,
                 min_probes: int = MIN_PROBES) -> None:
        self.task = task
        #: The task's nominal time, in milliseconds; it only sets the scale.
        self.ref_ms = ref_ms
        self.min_probes = min_probes
        #: Start (``perf_counter``) and duration of every probe, in start order.
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._probing = False

    def probe(self, *_signal: object) -> None:
        """Run the task once and record its time.

        Also the ``SIGALRM`` handler. The collector is paused for the task,
        whose objects are all freed before it returns, so that probing does
        not move the collections of the code it interrupts.
        """
        if self._probing:  # a timer signal that arrives during a probe
            return
        self._probing = True
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        try:
            self.task()
        finally:
            seconds = perf_counter() - start
            if enabled:
                gc.enable()
            self.starts.append(start)
            self.durations.append(seconds)
            self._probing = False

    @contextlib.contextmanager
    def timer(self):
        """Probe every ``PERIOD_S`` seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy(self, start: float, end: float) -> float:
        """Seconds between ``start`` and ``end`` not spent in probes.

        A probe that starts inside the interval also ends inside it: the
        timed code does not run while a probe does.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return end - start - sum(self.durations[lo:hi])

    def reference(self, start: float, end: float) -> float:
        """Mean probe seconds over ``[start, end]``, widened to ``min_probes`` probes."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < self.min_probes and (lo > 0 or hi < len(self.starts)):
            # widen towards the nearer of the two neighbouring probes
            if hi == len(self.starts) or (
                lo > 0 and start - self.starts[lo - 1] <= self.starts[hi] - end
            ):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            raise ValueError("no reference probes recorded")
        return sum(self.durations[lo:hi]) / (hi - lo)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of work done between ``start`` and ``end``, at reference speed."""
        return seconds * self.ref_ms / 1e3 / self.reference(start, end)
