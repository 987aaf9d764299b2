"""A frozen reference workload that measures how fast the host is now.

On a shared host the speed of a CPU drifts by tens of percent over
minutes, and a 15-second run cannot average that out. So the timed
loop runs this fixed discrete-event loop after every cell and reports
host times scaled by how fast the loop ran; drift common to both
cancels. The loop imitates the simulator's hot path (generator
processes, a heap calendar, small event objects with callback lists,
dict updates) and imports nothing from ``src/``, so no change to the
simulator can move it.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

__all__ = ["HostSpeed", "REF_NOMINAL_S", "reference_loop"]

#: Nominal seconds of one reference loop: scaled times read as if the
#: host ran the loop this fast (a 2-vCPU Xeon VM at 2.1 GHz, Python 3.11).
REF_NOMINAL_S = 0.055
#: Size of the reference simulation: 300 processes of 60 timeouts each.
_PROCESSES = 300
_STEPS = 60


class _Event:
    __slots__ = ("callbacks",)

    def __init__(self, callback):
        self.callbacks = [callback]


def reference_loop() -> int:
    """Run the reference simulation; returns the events it scheduled."""
    queue = []
    counts = {}
    state = {"now": 0.0, "eid": 0}

    def process(key):
        for step in range(_STEPS):
            counts[key % 64] = counts.get(key % 64, 0) + 1
            yield float((step * 31 + key * 17) % 13 + 1)

    def resume(generator):
        try:
            delay = next(generator)
        except StopIteration:
            return
        schedule(state["now"] + delay, generator)

    def schedule(at, generator):
        state["eid"] += 1
        event = _Event(lambda _event: resume(generator))
        heappush(queue, (at, state["eid"], event))

    for key in range(_PROCESSES):
        schedule(0.0, process(key))
    while queue:
        state["now"], _, event = heappop(queue)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
    return state["eid"]


class HostSpeed:
    """Reference-loop runs interleaved with the work being timed.

    :meth:`run` after each timed piece; :meth:`wall_scale` and
    :meth:`cpu_scale` then convert the pieces' summed host seconds to
    nominal-host seconds.
    """

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.calls = 0

    def run(self, seconds: float) -> None:
        """Run the loop for about ``seconds`` (at least once)."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        while True:
            reference_loop()
            self.calls += 1
            if time.perf_counter() - wall0 >= seconds:
                break
        self.wall += time.perf_counter() - wall0
        self.cpu += time.process_time() - cpu0

    def wall_scale(self) -> float:
        return REF_NOMINAL_S * self.calls / self.wall

    def cpu_scale(self) -> float:
        return REF_NOMINAL_S * self.calls / self.cpu
