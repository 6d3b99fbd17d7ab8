"""A single-threaded open-loop load generator.

Batches fall due at a fixed period from the moment the schedule starts,
whether or not the system has kept up.  Each batch's latency runs from its
due time to the return of the call that processed it, so a stall also
charges the wait it imposes on the batches queued behind it.  When the
system was idle at a due time, any delay in starting the call is the
generator's own lateness, reported so a run can be judged valid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class LoadRun:
    """Timings of one open-loop run, in seconds."""

    period: float
    #: Due time to return, per batch.
    latencies: list[float] = field(default_factory=list)
    #: Due time to the start of the call, per batch (queueing).
    waits: list[float] = field(default_factory=list)
    #: Start delays at due times when the system was idle.
    lateness: list[float] = field(default_factory=list)
    #: Time spent inside the call, per batch.
    services: list[float] = field(default_factory=list)

    @property
    def busy(self) -> float:
        """Time spent inside the calls."""
        return sum(self.services)


def drive(items, run: LoadRun, call) -> None:
    """Offer ``items`` to ``call`` every ``run.period`` seconds from now.

    ``call`` processes one item.  An exception it raises propagates, and
    ``run`` keeps the timings of the items completed before it.
    """
    period = run.period
    origin = time.perf_counter()
    free_at = origin
    for position, item in enumerate(items):
        due = origin + position * period
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        start = time.perf_counter()
        if free_at <= due:
            run.lateness.append(start - due)
        call(item)
        free_at = time.perf_counter()
        run.latencies.append(free_at - due)
        run.waits.append(start - due)
        run.services.append(free_at - start)
