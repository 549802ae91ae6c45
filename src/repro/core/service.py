"""The RCBR service façade (Section III).

Ties the pieces together: sources holding renegotiation schedules attach
to an :class:`~repro.queueing.link.RcbrLink`, renegotiation events are
replayed in time order through the discrete-event engine, and the result
reports renegotiation failures, lost bits, and link utilization.

This is the *detailed* (per-source grant/deny) counterpart of the fast
aggregate computation in :func:`repro.queueing.mux.rcbr_overflow_bits`;
the two agree on lost bits because the link redistributes freed capacity
work-conservingly (verified by the integration tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.online import OnlineParams, OnlineScheduler, OnlineScheduleResult
from repro.core.schedule import RateSchedule
from repro.queueing.events import EventScheduler
from repro.queueing.link import RcbrLink
from repro.traffic.trace import SlottedWorkload


@dataclass(frozen=True)
class LinkSimulationResult:
    """Outcome of replaying schedules on an RCBR link."""

    capacity: float
    offered_bits: float
    lost_bits: float
    requests: int
    increase_requests: int
    failures: int
    mean_utilization: float

    @property
    def loss_fraction(self) -> float:
        if self.offered_bits == 0.0:
            return 0.0
        return self.lost_bits / self.offered_bits

    @property
    def failure_fraction(self) -> float:
        """Fraction of rate-increase requests that could not be fully met."""
        if self.increase_requests == 0:
            return 0.0
        return self.failures / self.increase_requests


def simulate_rcbr_link(
    schedules: Sequence[RateSchedule],
    capacity: float,
    start_times: Optional[Sequence[float]] = None,
) -> LinkSimulationResult:
    """Replay renegotiation schedules against one fixed-capacity link.

    Each schedule becomes a session: a setup request at its start time,
    one renegotiation per rate change, and a release at its end.  Only
    renegotiation events are simulated — the efficiency observation of
    the paper's footnote 4.
    """
    if not schedules:
        raise ValueError("need at least one schedule")
    if start_times is None:
        start_times = [0.0] * len(schedules)
    if len(start_times) != len(schedules):
        raise ValueError("start_times must match schedules")

    link = RcbrLink(capacity)
    engine = EventScheduler()
    horizon = 0.0

    for source_id, (schedule, start) in enumerate(zip(schedules, start_times)):
        if start < 0:
            raise ValueError("start times must be non-negative")
        for seg_start, _, rate in schedule.segments():
            engine.schedule_at(
                start + seg_start,
                lambda sid=source_id, r=rate: link.request(sid, r, engine.now),
            )
        end = start + schedule.duration
        engine.schedule_at(
            end, lambda sid=source_id: link.release(sid, engine.now)
        )
        horizon = max(horizon, end)

    engine.run()
    link.finish(horizon)

    offered = sum(schedule.total_bits() for schedule in schedules)
    return LinkSimulationResult(
        capacity=capacity,
        offered_bits=offered,
        lost_bits=link.lost_bits,
        requests=link.request_count,
        increase_requests=link.increase_count,
        failures=link.failure_count,
        mean_utilization=link.mean_utilization(horizon),
    )


class OnlineRcbrSource:
    """An interactive source running the AR(1) heuristic against a live link.

    The heuristic's requests go through the link's admission check; denied
    increases leave the old rate in place and the source "settles for
    whatever bandwidth remaining" while retrying at the next threshold
    crossing (Section III-A1).  A finite ``buffer_size`` and a
    ``recovery`` policy (:mod:`repro.faults.recovery`) turn the source
    into the hardened variant: overflow is counted as ``bits_lost`` and
    denials are handled by backoff / downgrade / drain instead of the
    naive retry.  ``source_id`` is the source's slot on ``link`` (a
    non-negative integer, unique among the link's live sources).
    """

    def __init__(
        self,
        source_id,
        params: OnlineParams,
        link: RcbrLink,
        buffer_size: Optional[float] = None,
        recovery=None,
    ) -> None:
        self.source_id = source_id
        self.link = link
        self.buffer_size = buffer_size
        self.recovery = recovery
        self._scheduler = OnlineScheduler(params)

    def run(self, workload: SlottedWorkload) -> OnlineScheduleResult:
        """Stream ``workload`` through the link, renegotiating causally."""

        def request(time: float, new_rate: float) -> bool:
            outcome = self.link.request(self.source_id, new_rate, time)
            return outcome.fully_granted

        initial = self._scheduler.quantize(
            workload.bits_per_slot[0] / workload.slot_duration
        )
        setup = self.link.request(self.source_id, initial, 0.0)
        result = self._scheduler.schedule(
            workload,
            initial_rate=setup.granted_rate,
            request_fn=request,
            buffer_size=self.buffer_size,
            recovery=self.recovery,
        )
        self.link.release(self.source_id, workload.duration)
        return result
