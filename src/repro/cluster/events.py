"""Event queue of the discrete-event simulator.

Events are ordered by simulated time with a monotonically increasing sequence
number as a tie-breaker, which makes the simulation fully deterministic: two
events scheduled for the same instant fire in the order they were scheduled.
Heap entries are ``(time, seq, event)`` tuples: ``seq`` is unique, so the C
tuple comparison orders them and never reaches the :class:`Event`.

Cancelled events are *garbage*: they stay in the heap until popped, but the
queue tracks how many there are so that ``len(queue)`` / ``bool(queue)``
report live events only (a ``Kernel.run`` loop or ``max_events`` budget never
sees phantom work), and the heap is compacted in place whenever garbage
outnumbers the live entries.  The queue also keeps lifetime counters (pushes,
cancellations, compactions, peak size) that feed the kernel's
:class:`~repro.cluster.simulator.KernelStats` diagnostics.

``pushed`` doubles as the source of sequence numbers: the kernel's zero-delay
ready lane (see :mod:`repro.cluster.simulator`) draws its entries' numbers
from it too, so heap and ready entries share one scheduling order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Event", "EventQueue"]

#: Compaction is skipped below this many cancelled entries: rebuilding a tiny
#: heap costs more bookkeeping than the garbage it would reclaim.
_COMPACT_MIN_GARBAGE = 64


@dataclass(slots=True, eq=False)
class Event:
    """A scheduled callback ``callback(*args)`` at simulated ``time``."""

    time: float
    seq: int
    callback: Callable[..., None]
    args: Tuple[Any, ...] = ()
    cancelled: bool = False
    #: The queue currently holding this event (None once popped or when the
    #: event was built outside a queue); lets cancel() report its garbage.
    queue: Optional["EventQueue"] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._note_cancelled()

    def fire(self) -> None:
        """Invoke the callback unless the event has been cancelled."""
        if not self.cancelled:
            self.callback(*self.args)


class EventQueue:
    """A deterministic min-heap of ``(time, seq, event)`` entries."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._garbage = 0  # cancelled events still sitting in the heap
        # Lifetime diagnostics (never reset; see KernelStats).  ``pushed`` is
        # also the next sequence number to hand out.  ``peak_size`` sees only
        # pushes made through push(); the kernel samples its own peak.
        self.pushed = 0
        self.cancelled_total = 0
        self.compactions = 0
        self.peak_size = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return len(self._heap) - self._garbage

    def __bool__(self) -> bool:
        return len(self._heap) > self._garbage

    def push(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < 0:
            raise ValueError("cannot schedule an event at a negative time")
        seq = self.pushed
        self.pushed = seq + 1
        event = Event(time, seq, callback, args, False, self)
        heap = self._heap
        heapq.heappush(heap, (time, seq, event))
        if len(heap) > self.peak_size:
            self.peak_size = len(heap)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event (or ``None``)."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            event.queue = None
            if event.cancelled:
                self._garbage -= 1
                continue
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)[2].queue = None
            self._garbage -= 1
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------ #
    # Garbage accounting
    # ------------------------------------------------------------------ #
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` while the event still sits in the heap."""
        self._garbage += 1
        self.cancelled_total += 1
        if self._garbage >= _COMPACT_MIN_GARBAGE and self._garbage * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (the kernel's run
        loop holds a reference to the heap list).  Ordering is a total order
        on unique ``(time, seq)`` pairs, so compaction cannot perturb event
        order — determinism survives."""
        heap = self._heap
        for entry in heap:
            if entry[2].cancelled:
                entry[2].queue = None
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._garbage = 0
        self.compactions += 1
