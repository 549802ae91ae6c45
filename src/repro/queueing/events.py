"""A minimal discrete-event simulation engine.

The call-level admission-control simulator (:mod:`repro.admission.callsim`)
and the signaling network (:mod:`repro.signaling`) are event-driven: call
arrivals, departures, and renegotiation instants are events on a shared
clock.  This engine is a conventional heap-based scheduler with stable
FIFO ordering for simultaneous events and cancellable handles.  A caller
that keeps far-future events off the heap (the service gateway's
departure calendar) reserves their sequence numbers when it arms them
and pushes them later under those numbers, so they fire exactly where
an immediate ``schedule_at`` would have put them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Dict, List, Optional


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(
        self, time: float, sequence: int, callback: Callable[..., Any], args: tuple
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (safe to call repeatedly)."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        # Hot path of every heap op; avoid building comparison tuples.
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6g}, {state}, {self.callback.__name__})"


class EventScheduler:
    """A discrete-event clock with a priority queue of callbacks."""

    def __init__(self) -> None:
        self._queue: list = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        return sum(1 for event in self._queue if not event.cancelled)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        return self.schedule_reserved(time, next(self._counter), callback, *args)

    def reserve(self, count: int) -> int:
        """Take the next ``count`` sequence numbers, exactly as ``count``
        :meth:`schedule_at` calls would, and return the first.

        An event scheduled later under one of them
        (:meth:`schedule_reserved`) fires where that ``schedule_at``'s
        event would have: after every earlier-sequenced event of its
        timestamp.  ``reserve(0)`` reads the next sequence number without
        taking it.
        """
        first = next(self._counter)
        self._counter = itertools.count(first + count)
        return first

    def schedule_reserved(
        self, time: float, sequence: int, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at ``time`` under a ``sequence``
        number taken earlier by :meth:`reserve`."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past (now={self._now}, requested={time})"
            )
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def run(
        self, until: float = math.inf, max_events: Optional[int] = None
    ) -> None:
        """Process events in time order until the queue empties.

        Stops (without processing) at the first event strictly after
        ``until``; the clock is then advanced to ``until``.  ``max_events``
        bounds runaway simulations.

        Simultaneous events are popped as one batch: the gateway's epoch
        loop lands every renegotiation round trip of an epoch on the
        same timestamp, so re-checking the head against ``until`` for
        each of them is pure overhead (~4% of drain time at 2k
        same-time events on a 50k-event heap — the heap pops themselves
        dominate; see DESIGN.md §14).
        Ordering is unchanged — a batch is popped in heap order, which
        is exactly the (time, sequence) FIFO order of the per-event
        loop, and a callback that schedules a *new* event at the batch
        timestamp sees it processed after the batch in both versions
        (its sequence is larger than every popped event's).  Cancelling
        a later batch member from an earlier callback still works: the
        flag is checked at execution, not at pop.
        """
        queue = self._queue
        heappop = heapq.heappop
        processed = 0
        while queue:
            head = queue[0]
            if head.time > until:
                break
            event = heappop(queue)
            if not (queue and queue[0].time == event.time):
                # Singleton timestamp (departures land on distinct
                # exponential instants): skip the batch list churn.
                if not event.cancelled:
                    self._now = event.time
                    event.callback(*event.args)
                    self._processed += 1
                    processed += 1
                    if max_events is not None and processed >= max_events:
                        return
                continue
            batch_time = event.time
            batch = [event]
            while queue and queue[0].time == batch_time:
                batch.append(heappop(queue))
            for index, event in enumerate(batch):
                if event.cancelled:
                    continue
                self._now = event.time
                event.callback(*event.args)
                self._processed += 1
                processed += 1
                if max_events is not None and processed >= max_events:
                    # Undo the pop-ahead so unprocessed batch members
                    # (cancelled ones included — harmless, they are
                    # discarded unprocessed either way) stay queued.
                    for leftover in batch[index + 1 :]:
                        heapq.heappush(queue, leftover)
                    return
        if until != math.inf and until > self._now:
            self._now = until

    # -- checkpointing --------------------------------------------------
    def state_dict(
        self, encode_callback: Callable[[Callable[..., Any]], Any]
    ) -> Dict[str, Any]:
        """Export the full scheduler state for a checkpoint.

        Callbacks are typically bound methods of the owning gateway and
        cannot be serialized directly; ``encode_callback`` maps each one
        to a picklable token (the gateway uses the method name, checked
        against an allowlist).  Event args must already be plain data.
        Each event is one ``(time, sequence, token, args, cancelled)``
        tuple, in heap order.
        """
        return {
            "now": self._now,
            "processed": self._processed,
            "next_sequence": self.reserve(0),
            "events": [
                (
                    event.time,
                    event.sequence,
                    encode_callback(event.callback),
                    event.args,
                    event.cancelled,
                )
                for event in self._queue
            ],
        }

    def load_state(
        self,
        state: Dict[str, Any],
        decode_callback: Callable[[Any], Callable[..., Any]],
    ) -> List[Event]:
        """Restore a :meth:`state_dict` export; returns the live events.

        The returned list lets the caller rebuild side indexes into the
        heap (the gateway keys its pending departures to the very
        :class:`Event` objects it may later cancel).
        """
        self._now = float(state["now"])
        self._processed = int(state["processed"])
        self._counter = itertools.count(int(state["next_sequence"]))
        self._queue = []
        for time, sequence, token, args, cancelled in state["events"]:
            event = Event(time, sequence, decode_callback(token), args)
            event.cancelled = cancelled
            self._queue.append(event)
        # The export preserved heap order, but heapify anyway: the
        # invariant is cheap to re-establish and load-bearing.
        heapq.heapify(self._queue)
        return list(self._queue)

    def step(self) -> bool:
        """Process exactly one event; returns False if none remain."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback(*event.args)
            self._processed += 1
            return True
        return False
