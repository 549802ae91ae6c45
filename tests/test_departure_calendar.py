"""The departure calendar: exact firing order, and a near-horizon heap.

A live call's departure is two binding columns (time and the event
sequence it took when armed) plus an entry in its epoch's calendar
bucket; :meth:`RcbrGateway._drain` promotes the buckets up to one epoch
past each drain onto the heap.  The oracle is the heap it replaces: one
``schedule_at`` event per departure from the moment it is armed,
cancelled through a call-id map.  Every event must fire in the same
``(time, sequence)`` order, with the same callback and arguments.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.queueing.events import EventScheduler
from repro.server import ServerConfig
from repro.server.gateway import RcbrGateway, build_gateway
from repro.traffic.starwars import generate_starwars_trace
from repro.util.slots import GROUP_STRIDE


@pytest.fixture(scope="module")
def workload():
    return generate_starwars_trace(num_frames=200, seed=1995).as_workload()


class RecordingScheduler(EventScheduler):
    """Logs every event that fires as ``(time, sequence, callback name,
    args)``."""

    def __init__(self) -> None:
        super().__init__()
        self.fired = []

    def schedule_reserved(self, time, sequence, callback, *args):
        def fire(*fire_args):
            self.fired.append((time, sequence, callback.__name__, fire_args))
            callback(*fire_args)

        return super().schedule_reserved(time, sequence, fire, *args)


def landing(epoch: int, nudge: int, slot: float) -> float:
    """``epoch * slot``, one ulp below (-1) or above (+1) it, or half a
    slot past it (2)."""
    time = epoch * slot
    if nudge == 2:
        return time + slot / 2
    if nudge:
        return math.nextafter(time, nudge * math.inf)
    return time


class CalendarProbe(RcbrGateway):
    """The gateway's own departure arming, promotion and eviction; a
    leaving call only frees its pool slot, so a script drives the
    calendar and nothing else.  ``_arrive`` and ``_finish`` stand in for
    arrivals (which arm a departure) and completions (which evict)."""

    def _teardown(self, key, call_id, now):
        self._fleets[key // GROUP_STRIDE].remove(key % GROUP_STRIDE)

    def admit(self, time: float) -> None:
        call_id = next(self.ids)
        slot, _ = self.fleet.admit(call_id, 0, 0)
        self._bind(0, slot, call_id, self.routes[0])
        self._arm_departure(slot, call_id, max(time, self.engine.now))

    def admit_batch(self, times) -> None:
        count = len(times)
        first = next(self.ids)
        self.ids = itertools.count(first + count)
        call_ids = list(range(first, first + count))
        zeros = np.zeros(count, dtype=np.int64)
        slots, _ = self.fleet.admit_batch(call_ids, zeros, zeros)
        self._bind(0, slots, call_ids, self.routes[0])
        self._arm_departures(0, slots, np.array(times, dtype=float))

    def _arrive(self, epochs_ahead: int, nudge: int) -> None:
        slot = self.workload.slot_duration
        epoch = math.floor(self.engine.now / slot) + epochs_ahead
        self.admit(landing(epoch, nudge, slot))

    def _finish(self, victim: int) -> None:
        live = np.flatnonzero(self.fleet.active)
        if live.size:
            self._evict_call(int(live[victim % live.size]), self.engine.now)


class HeapProbe(CalendarProbe):
    """The oracle: one heap event per departure, armed at once."""

    def _arm_departure(self, key, call_id, time):
        self.events[call_id] = self.engine.schedule_at(
            time, self._handle_departure, key, call_id
        )

    def _arm_departures(self, group, slots, times):
        for slot, time in zip(slots.tolist(), times.tolist()):
            self._arm_departure(slot, int(self.fleet.call_id[slot]), time)

    def _handle_departure(self, key, call_id):
        if self.fleet.call_id[key] != call_id:
            return
        del self.events[call_id]
        self._teardown(key, call_id, self.engine.now)

    def _evict_call(self, key, now):
        call_id = int(self.fleet.call_id[key])
        self.events.pop(call_id).cancel()
        self._teardown(key, call_id, now)


def play(probe_cls, workload, preload, epochs):
    """Serve the script on a fresh probe; returns its firing log and
    next sequence number."""
    config = ServerConfig(
        capacity=10 * workload.mean_rate, load=0.0, controller="always",
        initial_calls=0, seed=1,
    )
    probe = probe_cls(workload, config)
    probe.engine = RecordingScheduler()
    probe.ids = itertools.count()
    probe.events = {}
    slot = workload.slot_duration
    probe.admit_batch(
        [max(0.0, landing(epoch, nudge, slot)) for epoch, nudge in preload]
    )
    for tick, ops in enumerate(epochs):
        probe._drain(tick * slot)
        for op, ahead, nudge in ops:
            time = max(probe.engine.now, landing(tick + ahead, nudge, slot))
            if op == "arm":
                probe.admit(time)
            elif op == "arrive":
                probe.engine.schedule_at(time, probe._arrive, ahead, nudge)
            else:
                probe.engine.schedule_at(time, probe._finish, ahead + nudge)
    probe._drain((len(epochs) + 20) * slot)
    return probe.engine.fired, probe.engine.reserve(0)


nudges = st.sampled_from([-1, 0, 1, 2])
ops = st.tuples(
    st.sampled_from(["arm", "arrive", "finish"]), st.integers(0, 5), nudges
)


@settings(max_examples=80, deadline=None)
@given(
    preload=st.lists(st.tuples(st.integers(0, 8), nudges), max_size=40),
    epochs=st.lists(st.lists(ops, max_size=6), min_size=1, max_size=10),
)
def test_calendar_fires_in_heap_order(workload, preload, epochs):
    fired, sequences = play(CalendarProbe, workload, preload, epochs)
    assert (fired, sequences) == play(HeapProbe, workload, preload, epochs)


def test_script_exercises_every_path(workload):
    """A fixed script hits duplicates, ulp neighbours of a boundary,
    arms inside and beyond the horizon, slot reuse after an eviction,
    and evictions of promoted and of far departures."""
    preload = [(2, 0), (2, 0), (2, -1), (2, 1), (3, 2), (7, 0), (7, 1), (8, -1)]
    epochs = [
        [("arm", 0, 2), ("arm", 5, 0), ("finish", 1, 0)],
        [("arrive", 0, 2), ("arrive", 1, -1), ("finish", 0, 1)],
        [("arm", 1, 0), ("finish", 1, -1), ("arrive", 3, 1)],
        [],
        [("finish", 2, 0), ("arm", 2, 0)],
    ]
    fired, sequences = play(CalendarProbe, workload, preload, epochs)
    assert (fired, sequences) == play(HeapProbe, workload, preload, epochs)
    names = [name for _, _, name, _ in fired]
    assert {"_handle_departure", "_arrive", "_finish"} <= set(names)
    departures = [(time, seq) for time, seq, name, _ in fired if name == "_handle_departure"]
    assert len(departures) > 5
    assert departures == sorted(departures)


def test_preload_heap_holds_only_the_near_horizon(workload):
    """A 50k-call preload arms no heap event per call: the only
    ``schedule_at`` is the arrival process, and after serving, the heap
    holds the arrival, the completions in flight and the departures of
    the promoted epochs — not one event per call."""
    calls = 50_000
    config = ServerConfig(
        capacity=calls * workload.mean_rate * 1.1, load=0.5,
        controller="always", mean_holding=4096 / 24.0, seed=3,
        initial_calls=calls,
    )
    with build_gateway(workload, config) as gateway:
        scheduled = []
        schedule_at = gateway.engine.schedule_at

        def counted(time, callback, *args):
            scheduled.append(callback.__name__)
            return schedule_at(time, callback, *args)

        gateway.engine.schedule_at = counted
        gateway.preload()
        assert scheduled == ["_handle_arrival"]
        assert len(gateway.engine._queue) == 1
        assert gateway.fleet.num_active == calls

        slot = workload.slot_duration
        gateway.run(4 * slot)
        queue = gateway.engine._queue
        departures = [
            event for event in queue
            if event.callback.__name__ == "_handle_departure" and not event.cancelled
        ]
        live = gateway.fleet.active
        epochs = np.floor(gateway._depart_at[0] / slot)
        due = live[: epochs.size] & (epochs <= gateway._promoted_through)
        assert len(departures) == int(np.count_nonzero(due)) > 0
        assert len(queue) < 500
