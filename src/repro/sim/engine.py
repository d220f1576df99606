"""Event loop and simulation clock.

A minimal, fast discrete-event engine: callbacks are scheduled at
absolute simulated times (milliseconds), stored in a binary heap, and
executed in time order with FIFO tie-breaking.  Cancellation is lazy —
cancelled handles stay in the heap and are skipped when popped — which
keeps scheduling O(log n) with no removal cost.

Two pieces of heap hygiene keep the lazy scheme from degrading under
reschedule-heavy workloads (the server cancels and re-arms its
completion event on almost every submit/check):

* the heap stores ``(time, seq, handle)`` tuples so ordering is decided
  by C-level tuple comparison instead of a Python ``__lt__`` call, and
* a live-event counter makes :attr:`Engine.pending` O(1) and drives
  automatic *compaction* — when cancelled entries outnumber live ones
  the heap is rebuilt without them, bounding both memory and the
  ``O(log n)`` push cost at ``O(log live)``.

Compaction never changes observable behaviour: the pop order of a heap
is a pure function of the ``(time, seq)`` total order, which filtering
and re-heapifying preserves, and skipped cancelled entries were never
counted in :attr:`Engine.events_run`.

Bulk arrivals go through :meth:`Engine.schedule_sequence`: a whole
non-decreasing run of times shares one callback and occupies a single
heap entry.  The call reserves one sequence number per item up front,
and each firing pushes the next item with its reserved number, so the
pop order is the one per-item :meth:`Engine.schedule_at` calls would
give, while every other push and pop works on a heap of live events
only instead of the whole remaining trace.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

from ..errors import SimulationError

__all__ = ["Engine", "EventHandle"]

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


class EventHandle:
    """A scheduled event that can be cancelled.

    Attributes
    ----------
    time:
        Absolute simulated time (ms) the event fires at.
    cancelled:
        True once :meth:`cancel` has been called; the engine skips it.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        engine: "Engine | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback: Callable[[], None] | None = callback
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        A no-op on a handle that already fired (``callback`` is cleared
        on execution) or was already cancelled — either would otherwise
        double-decrement the engine's live-event counter.
        """
        if self.cancelled or self.callback is None:
            return
        self.cancelled = True
        self.callback = None  # break reference cycles early
        engine = self._engine
        if engine is not None:
            engine._on_cancel()

    def __lt__(self, other: "EventHandle") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, seq={self.seq}, {state})"


class Engine:
    """Discrete-event loop with a millisecond clock starting at 0.

    Parameters
    ----------
    compact_min_garbage:
        Minimum number of cancelled-but-unpopped entries before
        automatic compaction is considered.  Raise to effectively
        disable compaction (tests), lower to force it aggressively.
    compact_garbage_ratio:
        Compaction also requires ``garbage > ratio * live`` so rebuilds
        stay amortised O(1) per cancellation.
    """

    def __init__(
        self,
        compact_min_garbage: int = 64,
        compact_garbage_ratio: float = 1.0,
    ) -> None:
        if compact_min_garbage < 0:
            raise SimulationError("compact_min_garbage must be >= 0")
        if compact_garbage_ratio < 0:
            raise SimulationError("compact_garbage_ratio must be >= 0")
        self.now: float = 0.0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._events_run = 0
        self._live = 0
        #: Sequence items reserved but not yet pushed onto the heap.
        self._deferred = 0
        self._compactions = 0
        self.compact_min_garbage = compact_min_garbage
        self.compact_garbage_ratio = compact_garbage_ratio

    @property
    def events_run(self) -> int:
        """Number of callbacks executed so far (cancelled events excluded)."""
        return self._events_run

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still scheduled, every
        unfired sequence item included.  O(1)."""
        return self._live + self._deferred

    @property
    def garbage(self) -> int:
        """Cancelled entries still occupying heap slots."""
        return len(self._heap) - self._live

    @property
    def compactions(self) -> int:
        """Number of automatic/explicit heap compactions performed."""
        return self._compactions

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        now = self.now
        if not now - 1e-9 <= time < _INF:
            raise SimulationError(
                f"cannot schedule event at {time!r}: times must be finite "
                f"and not in the past (now={now:.6f})"
            )
        if time < now:
            time = now
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, self)
        _heappush(self._heap, (time, seq, handle))
        self._live += 1
        return handle

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after ``delay`` ms of simulated time."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        # Inlined schedule_at: now + delay can never round below now for
        # a non-negative delay, so the past-check and clamp are moot.
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, self)
        _heappush(self._heap, (time, seq, handle))
        self._live += 1
        return handle

    def schedule_sequence(
        self, times: Iterable[float], callback: Callable[[int], None]
    ) -> None:
        """Schedule ``callback(i)`` at ``times[i]`` for every item.

        ``times`` must be finite, non-decreasing and not before
        :attr:`now`.  The items reserve consecutive sequence numbers
        now, so they fire exactly when per-item :meth:`schedule_at`
        calls made at this point would, but only the next unfired item
        occupies the heap.  Items cannot be cancelled.
        """
        times = [float(t) for t in times]
        previous = self.now
        for i, t in enumerate(times):
            if not previous <= t < _INF:
                raise SimulationError(
                    f"sequence time {i} is {t!r}: times must be finite, "
                    f"non-decreasing and not before now={self.now:.6f}"
                )
            previous = t
        n = len(times)
        if not n:
            return
        first_seq = self._seq
        self._seq = first_seq + n
        self._deferred += n
        fired = 0

        def fire() -> None:
            nonlocal fired
            i = fired
            fired = i + 1
            if fired < n:
                self._push_reserved(times[fired], first_seq + fired, fire)
            callback(i)

        self._push_reserved(times[0], first_seq, fire)

    def _push_reserved(
        self, time: float, seq: int, callback: Callable[[], None]
    ) -> None:
        """Move one reserved sequence item onto the heap."""
        handle = EventHandle(time, seq, callback, self)
        _heappush(self._heap, (time, seq, handle))
        self._live += 1
        self._deferred -= 1

    def _on_cancel(self) -> None:
        """Bookkeeping hook invoked once per :meth:`EventHandle.cancel`."""
        live = self._live - 1
        self._live = live
        garbage = len(self._heap) - live
        if garbage >= self.compact_min_garbage and (
            garbage > self.compact_garbage_ratio * live
        ):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and rebuild the heap in place.

        Safe at any point: pop order depends only on the ``(time, seq)``
        total order, which any valid heap of the same entries yields.
        """
        heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._heap = heap
        self._compactions += 1

    def step(self) -> bool:
        """Run the next live event.  Returns False when the heap is empty."""
        heap = self._heap
        while heap:
            time, _seq, handle = _heappop(heap)
            if handle.cancelled:
                continue
            self._live -= 1
            self.now = time
            callback = handle.callback
            handle.callback = None
            self._events_run += 1
            assert callback is not None
            callback()
            return True
        return False

    def run(self, max_events: int | None = None) -> int:
        """Run events until the heap drains (or ``max_events`` fire).

        Returns the number of events executed by this call.
        """
        executed = 0
        while max_events is None or executed < max_events:
            if not self.step():
                break
            executed += 1
        return executed

    def run_until(self, time: float) -> None:
        """Run all events scheduled at or before ``time``, then advance
        the clock to ``time`` even if no event lands exactly there."""
        while True:
            # Re-read the heap each iteration: a fired callback may have
            # cancelled events and triggered compaction, which rebinds it.
            heap = self._heap
            if not heap:
                break
            head = heap[0]
            if head[2].cancelled:
                _heappop(heap)
                continue
            if head[0] > time:
                break
            self.step()
        self.now = max(self.now, time)
