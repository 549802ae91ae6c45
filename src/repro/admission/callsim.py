"""Call-level dynamics: Poisson arrivals of RCBR calls (Section VI).

"The simulation set-up is as follows.  Each call is a randomly shifted
version of a Star Wars RCBR schedule.  Calls arrive according to a
Poisson process of rate lambda.  We measure both the average utilization
and the renegotiation failure probability.  Each interval of the length
of the trace provides us with one sample for these probabilities.  We
collect samples until the 95% confidence interval for both probabilities
is sufficiently small with respect to the estimated value (within 20%)."

This module is that simulator, with the admission controller pluggable
(:mod:`repro.admission.controllers`).  As the paper notes in footnote 4,
using RCBR schedules instead of per-frame traces means only renegotiation
events are simulated, which is what makes these long runs tractable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.admission.controllers import AdmissionController
from repro.core.schedule import RateSchedule
from repro.queueing.events import EventScheduler
from repro.queueing.link import RcbrLink
from repro.util.rng import SeedLike, as_generator
from repro.util.slots import SlotInterner
from repro.util.stats import (
    ConfidenceInterval,
    RelativePrecisionStopper,
    mean_confidence_interval,
)


@dataclass(frozen=True)
class IntervalSample:
    """One trace-length measurement interval."""

    failure_fraction: float
    utilization: float
    blocking_fraction: float
    arrivals: int
    increase_attempts: int
    abandoned: int = 0  # calls that departed early under sustained denials


@dataclass(frozen=True)
class CallCounters:
    """Whole-run, per-call lifetime and denial accounting.

    Interval samples (the paper's measurement unit) only keep ratios, so
    absolute call counts were lost after :meth:`CallLevelSimulator.run_interval`.
    The server runtime (:mod:`repro.server`) reports these same counters in
    its snapshots, and the two must agree on definitions:

    * ``arrivals = blocked + admitted`` (every arrival is decided once);
    * ``departed = completed + abandoned`` (every departure has one cause);
    * ``admitted - departed`` is the number of calls still in the system;
    * ``total_call_seconds`` sums the lifetimes of *departed* calls only.
    """

    arrivals: int = 0
    blocked: int = 0
    admitted: int = 0
    departed: int = 0
    completed: int = 0
    abandoned: int = 0
    increase_attempts: int = 0
    increase_denials: int = 0
    injected_denials: int = 0
    total_call_seconds: float = 0.0

    @property
    def active(self) -> int:
        """Calls admitted and not yet departed."""
        return self.admitted - self.departed

    @property
    def blocking_fraction(self) -> float:
        return self.blocked / self.arrivals if self.arrivals else 0.0

    @property
    def denial_fraction(self) -> float:
        if self.increase_attempts == 0:
            return 0.0
        return self.increase_denials / self.increase_attempts

    @property
    def mean_lifetime(self) -> float:
        """Mean lifetime in seconds of the calls that departed."""
        if self.departed == 0:
            return 0.0
        return self.total_call_seconds / self.departed


@dataclass
class CallSimResult:
    """Aggregated call-level simulation output."""

    samples: List[IntervalSample] = field(default_factory=list)
    failure_interval: Optional[ConfidenceInterval] = None
    utilization_interval: Optional[ConfidenceInterval] = None
    counters: Optional[CallCounters] = None

    @property
    def failure_probability(self) -> float:
        return float(np.mean([s.failure_fraction for s in self.samples]))

    @property
    def utilization(self) -> float:
        return float(np.mean([s.utilization for s in self.samples]))

    @property
    def blocking_probability(self) -> float:
        return float(np.mean([s.blocking_fraction for s in self.samples]))

    @property
    def num_intervals(self) -> int:
        return len(self.samples)

    @property
    def total_abandoned(self) -> int:
        return sum(sample.abandoned for sample in self.samples)


class CallLevelSimulator:
    """Poisson arrivals of randomly shifted schedules through a controller."""

    def __init__(
        self,
        base_schedule,
        capacity: float,
        arrival_rate: float,
        controller: AdmissionController,
        seed: SeedLike = None,
        class_weights: Optional[List[float]] = None,
        faults=None,
        abandon_after: Optional[int] = None,
    ) -> None:
        """``base_schedule`` may be one :class:`RateSchedule` or a list of
        them (one per traffic class); arriving calls draw their class
        from ``class_weights`` (uniform by default).

        ``faults`` (a :class:`~repro.faults.injectors.FaultPlan`) injects
        renegotiation denials on top of the link's honest capacity check.
        ``abandon_after``, if set, makes a call depart early once it has
        suffered that many *consecutive* denied increases — an impatient
        user hanging up under sustained faults — freeing its bandwidth
        and cancelling its remaining renegotiations.
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if isinstance(base_schedule, RateSchedule):
            self.class_schedules = [base_schedule]
        else:
            self.class_schedules = list(base_schedule)
            if not self.class_schedules:
                raise ValueError("need at least one schedule class")
        if class_weights is None:
            weights = np.ones(len(self.class_schedules))
        else:
            weights = np.asarray(class_weights, dtype=float)
            if weights.size != len(self.class_schedules):
                raise ValueError("class_weights must match schedule classes")
            if np.any(weights < 0) or weights.sum() <= 0:
                raise ValueError("class_weights must be non-negative, not all 0")
        self.class_probabilities = weights / weights.sum()
        self.base_schedule = self.class_schedules[0]
        self.capacity = capacity
        self.arrival_rate = arrival_rate
        self.controller = controller
        self.rng = as_generator(seed)

        if abandon_after is not None and abandon_after < 1:
            raise ValueError("abandon_after must be >= 1 denial")
        self.faults = faults
        self.abandon_after = abandon_after

        self.engine = EventScheduler()
        self.link = RcbrLink(capacity)
        self._link_slots = SlotInterner()  # call id -> link slot
        self._ids = itertools.count()
        self._call_events: dict = {}
        self._denial_streak: dict = {}

        # Cumulative counters (interval samples take deltas of these).
        self._arrivals = 0
        self._blocked = 0
        self._admitted = 0
        self._departed = 0
        self._increase_attempts = 0
        self._increase_failures = 0
        self._abandoned = 0
        self._injected_denials = 0
        self._allocated_mark = 0.0
        self._admit_time: dict = {}
        self._call_seconds = 0.0

        self._schedule_next_arrival()

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        gap = float(self.rng.exponential(1.0 / self.arrival_rate))
        self.engine.schedule_in(gap, self._handle_arrival)

    def _handle_arrival(self) -> None:
        self._schedule_next_arrival()
        now = self.engine.now
        self._arrivals += 1
        call_class = int(
            self.rng.choice(len(self.class_schedules), p=self.class_probabilities)
        )
        if not self.controller.admit(self.capacity, now, call_class=call_class):
            self._blocked += 1
            return
        call_id = next(self._ids)
        base = self.class_schedules[call_class]
        schedule = base.shifted(float(self.rng.uniform(0.0, base.duration)))
        # A call posts one event per renegotiation, so convert the whole
        # schedule in two batched passes instead of unboxing each rate
        # and absolute time scalar individually.
        rates = schedule.rates.tolist()
        at_times = (now + schedule.start_times).tolist()
        self._request(call_id, rates[0], setup=True)
        self._admitted += 1
        self._admit_time[call_id] = now
        self.controller.on_admit(
            call_id, rates[0], now, call_class=call_class
        )
        schedule_at = self.engine.schedule_at
        renegotiate = self._handle_renegotiation
        events = [
            schedule_at(at_times[index], renegotiate, call_id, rates[index])
            for index in range(1, len(rates))
        ]
        events.append(
            self.engine.schedule_at(
                now + schedule.duration, self._handle_departure, call_id
            )
        )
        self._call_events[call_id] = events

    def _handle_renegotiation(self, call_id, new_rate: float) -> None:
        self._request(call_id, new_rate, setup=False)
        if call_id in self._call_events:  # still alive (may have abandoned)
            self.controller.on_reservation(call_id, new_rate, self.engine.now)

    def _handle_departure(self, call_id) -> None:
        self._call_events.pop(call_id, None)
        self._denial_streak.pop(call_id, None)
        admitted_at = self._admit_time.pop(call_id, None)
        if admitted_at is not None:
            self._departed += 1
            self._call_seconds += self.engine.now - admitted_at
        self.link.release(self._link_slots.release(call_id), self.engine.now)
        self.controller.on_departure(call_id, self.engine.now)

    def _request(self, call_id, new_rate: float, setup: bool) -> None:
        slot = self._link_slots.intern(call_id)
        old = self.link.grant_of(slot)
        is_increase = new_rate > old
        if is_increase and not setup:
            # Injected denial bursts hit renegotiations, not setup (setup
            # admission is the controller's job, already modelled).
            if self.faults is not None and self.faults.should_deny(
                self.engine.now
            ):
                self._increase_attempts += 1
                self._increase_failures += 1
                self._injected_denials += 1
                self._note_denial(call_id)
                return
        outcome = self.link.request(slot, new_rate, self.engine.now)
        if is_increase:
            self._increase_attempts += 1
            if outcome.failed:
                self._increase_failures += 1
                if not setup:
                    self._note_denial(call_id)
            else:
                self._denial_streak.pop(call_id, None)

    def _note_denial(self, call_id) -> None:
        streak = self._denial_streak.get(call_id, 0) + 1
        self._denial_streak[call_id] = streak
        if self.abandon_after is not None and streak >= self.abandon_after:
            self._abandon(call_id)

    def _abandon(self, call_id) -> None:
        """The call gives up: cancel its future events and depart now."""
        for event in self._call_events.get(call_id, ()):
            event.cancel()
        self._abandoned += 1
        self._handle_departure(call_id)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def counters(self) -> CallCounters:
        """Whole-run call accounting (see :class:`CallCounters`)."""
        return CallCounters(
            arrivals=self._arrivals,
            blocked=self._blocked,
            admitted=self._admitted,
            departed=self._departed,
            completed=self._departed - self._abandoned,
            abandoned=self._abandoned,
            increase_attempts=self._increase_attempts,
            increase_denials=self._increase_failures,
            injected_denials=self._injected_denials,
            total_call_seconds=self._call_seconds,
        )

    def run_interval(self, interval_seconds: Optional[float] = None) -> IntervalSample:
        """Advance one measurement interval and return its sample."""
        if interval_seconds is None:
            interval_seconds = self.base_schedule.duration
        if interval_seconds <= 0:
            raise ValueError("interval must be positive")
        arrivals0 = self._arrivals
        blocked0 = self._blocked
        attempts0 = self._increase_attempts
        failures0 = self._increase_failures
        abandoned0 = self._abandoned

        end = self.engine.now + interval_seconds
        self.engine.run(until=end)
        self.link.finish(end)

        arrivals = self._arrivals - arrivals0
        blocked = self._blocked - blocked0
        attempts = self._increase_attempts - attempts0
        failures = self._increase_failures - failures0
        abandoned = self._abandoned - abandoned0
        allocated = self.link.allocated_bit_seconds - self._allocated_mark
        self._allocated_mark = self.link.allocated_bit_seconds

        return IntervalSample(
            failure_fraction=failures / attempts if attempts else 0.0,
            utilization=allocated / (self.capacity * interval_seconds),
            blocking_fraction=blocked / arrivals if arrivals else 0.0,
            arrivals=arrivals,
            increase_attempts=attempts,
            abandoned=abandoned,
        )


def simulate_admission(
    base_schedule: RateSchedule,
    capacity: float,
    arrival_rate: float,
    controller: AdmissionController,
    seed: SeedLike = None,
    warmup_intervals: int = 1,
    min_intervals: int = 5,
    max_intervals: int = 60,
    relative_precision: float = 0.2,
    failure_target: Optional[float] = None,
    faults=None,
    abandon_after: Optional[int] = None,
) -> CallSimResult:
    """Run the Section VI experiment to the paper's stopping rule.

    Collects trace-length interval samples of the renegotiation failure
    fraction and utilization until both 95% confidence intervals are
    within ``relative_precision`` of their estimates — stopping early on
    the failure probability "if the target failure probability lies to
    the right of the confidence interval".
    """
    simulator = CallLevelSimulator(
        base_schedule,
        capacity,
        arrival_rate,
        controller,
        seed,
        faults=faults,
        abandon_after=abandon_after,
    )
    for _ in range(warmup_intervals):
        simulator.run_interval()

    failure_stopper = RelativePrecisionStopper(
        relative_precision=relative_precision,
        min_samples=min_intervals,
        max_samples=max_intervals,
        target_below=failure_target,
    )
    utilization_stopper = RelativePrecisionStopper(
        relative_precision=relative_precision,
        min_samples=min_intervals,
        max_samples=max_intervals,
    )
    result = CallSimResult()
    while True:
        sample = simulator.run_interval()
        result.samples.append(sample)
        failure_stopper.add(sample.failure_fraction)
        utilization_stopper.add(sample.utilization)
        if failure_stopper.should_stop() and utilization_stopper.should_stop():
            break
    result.failure_interval = mean_confidence_interval(failure_stopper.stats)
    result.utilization_interval = mean_confidence_interval(
        utilization_stopper.stats
    )
    result.counters = simulator.counters()
    return result


def arrival_rate_for_load(
    normalized_load: float,
    capacity: float,
    mean_call_rate: float,
    holding_time: float,
) -> float:
    """lambda for a target normalized offered load.

    normalized load = lambda * holding * mean_rate / capacity, so
    lambda = load * capacity / (mean_rate * holding).
    """
    if normalized_load <= 0:
        raise ValueError("normalized_load must be positive")
    if capacity <= 0 or mean_call_rate <= 0 or holding_time <= 0:
        raise ValueError("capacity, mean rate, and holding time must be positive")
    return normalized_load * capacity / (mean_call_rate * holding_time)
