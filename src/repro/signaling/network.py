"""Multi-hop renegotiation over a path of switch ports (Section III-C).

"As the mean number of hops in the network increases, the probability of
renegotiation failure is likely to increase since each hop is a possible
point of failure.  Moreover, the net renegotiation signaling load on the
network also increases."

This module replays renegotiation schedules over an N-hop path: each
renegotiation becomes an RM cell traversing the hops in order with a
per-hop propagation delay; an increase denied at hop ``k`` rolls back the
``k`` upstream hops (mirroring the returning RM cell); optional RM-cell
loss models the delta-drift problem, countered by periodic absolute
resynchronisation (footnote 2).

Hardening (beyond the paper): a path can carry a
:class:`~repro.faults.injectors.FaultPlan` injecting cell loss, delay,
duplication, and transient hop outages.  Requests then run under a
per-request timeout with bounded retries — retries are *absolute*-rate
cells, so a retry can never double-apply a delta that did land — and
every cell is tracked in flight until it resolves, so a lost cell times
out instead of deadlocking the source.  An explicit denial is an answer,
not a fault, and is never retried.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.core.schedule import RateSchedule
from repro.queueing.events import EventScheduler
from repro.signaling.messages import CellKind, RenegotiationRequest, RmCell
from repro.signaling.switch import SwitchPort
from repro.util.rng import SeedLike, as_generator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injectors import FaultPlan


class DeliveryStatus(enum.Enum):
    """How one cell transmission resolved, as seen by the source."""

    ACCEPTED = "accepted"  # every hop committed the request
    DENIED = "denied"  # some hop denied; the returning cell rolled back
    LOST = "lost"  # the cell (or its answer) never came back


@dataclass
class PathStats:
    """Per-run signaling statistics."""

    requests: int = 0
    increase_requests: int = 0
    failures: int = 0
    cells_sent: int = 0
    cells_lost: int = 0
    timeouts: int = 0
    retries: int = 0
    duplicates: int = 0
    outage_drops: int = 0
    failure_hops: List[int] = field(default_factory=list)

    @property
    def failure_fraction(self) -> float:
        if self.increase_requests == 0:
            return 0.0
        return self.failures / self.increase_requests

    def failure_hop_histogram(self) -> Dict[int, int]:
        """How often each hop index was the point of denial."""
        histogram: Dict[int, int] = {}
        for hop in self.failure_hops:
            histogram[hop] = histogram.get(hop, 0) + 1
        return histogram


class SignalingPath:
    """An ordered list of switch ports between a source and its sink."""

    def __init__(
        self,
        ports: Sequence[SwitchPort],
        hop_delay: float = 0.001,
        cell_loss_probability: float = 0.0,
        seed: SeedLike = None,
        faults: Optional["FaultPlan"] = None,
        request_timeout: Optional[float] = None,
        max_retries: int = 0,
        retry_backoff: float = 1.0,
        retry_jitter: float = 0.0,
        retry_seed: SeedLike = None,
    ) -> None:
        if not ports:
            raise ValueError("a path needs at least one port")
        if hop_delay < 0:
            raise ValueError("hop_delay must be non-negative")
        if not 0.0 <= cell_loss_probability < 1.0:
            raise ValueError("cell_loss_probability must be in [0, 1)")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")
        if not 0.0 <= retry_jitter < 1.0:
            raise ValueError("retry_jitter must be in [0, 1)")
        self.ports = list(ports)
        self.hop_delay = hop_delay
        self.cell_loss_probability = cell_loss_probability
        self.rng = as_generator(seed)
        self.faults = faults
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.retry_jitter = float(retry_jitter)
        # Jitter draws come from a dedicated stream, never from the
        # cell-loss ``rng``: enabling jitter must not perturb the loss
        # sample path, and a seeded stream keeps retry timing replayable.
        self._retry_rng = as_generator(retry_seed)
        if request_timeout is None:
            # A source waits a bit over the signaling RTT before declaring
            # a cell lost; floor it so zero-delay test paths still time out.
            request_timeout = max(2.0 * self.round_trip_time, 1e-3)
        self.request_timeout = float(request_timeout)
        self.stats = PathStats()
        self._in_flight: Dict[int, float] = {}  # cell_id -> timeout deadline

    @property
    def num_hops(self) -> int:
        return len(self.ports)

    @property
    def round_trip_time(self) -> float:
        """Source-to-sink-and-back signaling latency."""
        return 2.0 * self.hop_delay * self.num_hops

    @property
    def in_flight(self) -> int:
        """Requests awaiting an answer; must be 0 between transactions
        (anything else is a tracking leak that would strand a source)."""
        return len(self._in_flight)

    # ------------------------------------------------------------------
    def send(self, cell: RmCell) -> bool:
        """Push one RM cell through the path synchronously (no retries).

        Returns True if every hop accepted.  On a denial, accepted
        upstream hops are rolled back.  A lost cell never reaches any hop
        — for delta cells this leaves the source and switches
        disagreeing, i.e. drift.
        """
        return self._transmit(cell, cell.issued_at) is DeliveryStatus.ACCEPTED

    def _transmit(self, cell: RmCell, now: float) -> DeliveryStatus:
        """One transmission attempt, under the fault plan if present."""
        self.stats.cells_sent += 1
        self._in_flight[cell.cell_id] = now + self.request_timeout
        try:
            if (
                self.cell_loss_probability > 0.0
                and self.rng.random() < self.cell_loss_probability
            ):
                self.stats.cells_lost += 1
                return DeliveryStatus.LOST
            delayed_past_timeout = False
            duplicated = False
            if self.faults is not None:
                from repro.faults.injectors import CellFate

                outcome = self.faults.cell_outcome(now)
                if outcome.fate is CellFate.LOSE:
                    self.stats.cells_lost += 1
                    return DeliveryStatus.LOST
                if outcome.fate is CellFate.DELAY:
                    delayed_past_timeout = outcome.delay > self.request_timeout
                elif outcome.fate is CellFate.DUPLICATE:
                    duplicated = True
            status = self._traverse(cell, now)
            if duplicated and status is DeliveryStatus.ACCEPTED:
                # The copy lands right behind the original; a duplicated
                # delta increase over-reserves (drift) until a resync.
                copy = RmCell(
                    vci=cell.vci,
                    kind=cell.kind,
                    er=cell.er,
                    issued_at=now,
                    retry_of=cell.cell_id,
                )
                self.stats.duplicates += 1
                self._traverse(copy, now)
            if delayed_past_timeout:
                # The cell did land (state above is committed) but its
                # answer missed the source's deadline: source-side loss.
                self.stats.cells_lost += 1
                return DeliveryStatus.LOST
            return status
        finally:
            self._in_flight.pop(cell.cell_id, None)

    def _traverse(self, cell: RmCell, now: float) -> DeliveryStatus:
        """Walk the cell hop by hop, honouring outages and denials."""
        accepted: List[SwitchPort] = []
        for hop_index, port in enumerate(self.ports):
            arrival = now + (hop_index + 1) * self.hop_delay
            down = not port.available_at(arrival) or (
                self.faults is not None
                and self.faults.hop_down(arrival, hop_index)
            )
            if down:
                # Silent mid-path drop: upstream hops keep the delta they
                # committed (drift) because no cell returns to roll them
                # back; the source's timeout-and-absolute-retry repairs it.
                self.stats.outage_drops += 1
                self.stats.cells_lost += 1
                return DeliveryStatus.LOST
            if port.process(cell):
                accepted.append(port)
            else:
                cell.deny(hop_index)
                for upstream in accepted:
                    upstream.rollback(cell)
                self.stats.failure_hops.append(hop_index)
                return DeliveryStatus.DENIED
        return DeliveryStatus.ACCEPTED

    def renegotiate(self, request: RenegotiationRequest) -> bool:
        """Issue a renegotiation; returns True if the new rate is granted.

        With ``max_retries > 0``, a transmission that times out (lost,
        over-delayed, or eaten by an outage) is retried up to that many
        times.  Attempt ``k`` waits ``timeout * retry_backoff**(k-1)``,
        optionally stretched by up to ``retry_jitter`` (drawn from the
        dedicated seeded retry stream) so synchronized sources do not
        re-collide — the defaults (backoff 1, jitter 0) reproduce the
        historical fixed-interval retry bit for bit.  Retries carry the
        *absolute* target rate (the paper's resynchronisation cell,
        footnote 2) rather than the delta: if the original — or any
        upstream part of it — actually landed, an absolute retry repairs
        the drift instead of doubling the delta.  Explicit denials are
        answers and are returned immediately.
        """
        self.stats.requests += 1
        if request.delta > 0:
            self.stats.increase_requests += 1
        original = request.as_cell()
        status = self._transmit(original, request.time)
        now = request.time
        attempts = 0
        while status is DeliveryStatus.LOST and attempts < self.max_retries:
            attempts += 1
            delay = self.request_timeout * (
                self.retry_backoff ** (attempts - 1)
            )
            if self.retry_jitter > 0.0:
                delay *= 1.0 + self.retry_jitter * float(
                    self._retry_rng.random()
                )
            now += delay
            self.stats.timeouts += 1
            self.stats.retries += 1
            retry = RmCell(
                vci=request.vci,
                kind=CellKind.ABSOLUTE,
                er=request.new_rate,
                issued_at=now,
                retry_of=original.cell_id,
            )
            status = self._transmit(retry, now)
        if status is DeliveryStatus.LOST and self.max_retries > 0:
            self.stats.timeouts += 1  # the final, unanswered attempt
        granted = status is DeliveryStatus.ACCEPTED
        if not granted and request.delta > 0:
            self.stats.failures += 1
        return granted

    def renegotiate_batch(
        self,
        vcis: Sequence,
        old_rates: np.ndarray,
        new_rates: np.ndarray,
        time: float,
    ) -> np.ndarray:
        """Issue one epoch's renegotiations; returns per-request grants.

        Semantically identical to one :meth:`renegotiate` per entry at
        the same ``time``, in order — this is the gateway's per-epoch
        commit, where the scalar path's ~40k cell traversals per epoch
        would dominate the real-time budget.  The batched
        paths engage only when nothing can perturb the per-cell fold:
        no fault plan, no cell loss, no outage windows on any hop.  A
        single-hop path then resolves the exact denied set by fixpoint
        (:meth:`SwitchPort.delta_batch_apply`) — denials are local, no
        upstream rollback exists to perturb other hops — so a hot link
        denying a few percent of increases every epoch stays fully
        vectorized.  A multi-hop path stays all-or-nothing (checked
        two-phase via :meth:`SwitchPort.delta_batch_total` before
        anything commits) because a mid-batch denial rolls back
        upstream hops, and ``(u + d) - d`` bitwise-perturbs their
        utilizations in a way only the sequential walk reproduces.
        Anything else replays the whole batch through ``renegotiate``,
        which is exact by construction.
        """
        count = int(len(new_rates))
        if count == 0:
            return np.zeros(0, dtype=bool)
        deltas = np.asarray(new_rates, dtype=float) - np.asarray(
            old_rates, dtype=float
        )
        fast = (
            self.faults is None
            and self.cell_loss_probability == 0.0
            and not any(port.has_outages for port in self.ports)
        )
        if fast and self.num_hops == 1:
            granted = self.ports[0].delta_batch_apply(vcis, deltas)
            if granted is not None:
                self.stats.requests += count
                self.stats.increase_requests += int(
                    np.count_nonzero(deltas > 0)
                )
                self.stats.cells_sent += count
                denied_count = count - int(np.count_nonzero(granted))
                if denied_count:
                    # Every denial is an increase refused at hop 0, in
                    # slot order — exactly the scalar path's appends.
                    self.stats.failure_hops.extend([0] * denied_count)
                    self.stats.failures += denied_count
                return granted
            fast = False
        totals: List[float] = []
        if fast:
            for port in self.ports:
                total = port.delta_batch_total(deltas)
                if total is None:
                    fast = False
                    break
                totals.append(total)
        if fast:
            for port, total in zip(self.ports, totals):
                port.commit_delta_batch(vcis, deltas, total)
            self.stats.requests += count
            self.stats.increase_requests += int(np.count_nonzero(deltas > 0))
            self.stats.cells_sent += count
            return np.ones(count, dtype=bool)
        granted = np.empty(count, dtype=bool)
        for index in range(count):
            granted[index] = self.renegotiate(
                RenegotiationRequest(
                    vci=int(vcis[index]),
                    old_rate=float(old_rates[index]),
                    new_rate=float(new_rates[index]),
                    time=time,
                )
            )
        return granted

    def resynchronize(self, vci: int, true_rate: float, time: float) -> bool:
        """Send an absolute-rate RM cell to repair any drift."""
        cell = RmCell(
            vci=vci, kind=CellKind.ABSOLUTE, er=true_rate, issued_at=time
        )
        return self.send(cell)

    def release(self, vci: int) -> None:
        for port in self.ports:
            port.release(vci)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Export RNG streams, statistics, and in-flight bookkeeping.

        Port state is *not* included: the gateway owns the port objects
        (this path holds references to the same instances) and
        checkpoints them itself.  Neither stream here ever spawns
        children, so ``bit_generator.state`` captures them completely.
        """
        return {
            "rng": self.rng.bit_generator.state,
            "retry_rng": self._retry_rng.bit_generator.state,
            "stats": dataclasses.replace(
                self.stats, failure_hops=list(self.stats.failure_hops)
            ),
            "in_flight": dict(self._in_flight),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` export."""
        self.rng.bit_generator.state = state["rng"]
        self._retry_rng.bit_generator.state = state["retry_rng"]
        self.stats = dataclasses.replace(
            state["stats"],  # type: ignore[arg-type]
            failure_hops=list(state["stats"].failure_hops),  # type: ignore[union-attr]
        )
        self._in_flight = dict(state["in_flight"])  # type: ignore[arg-type]


@dataclass(frozen=True)
class PathSimulationResult:
    """Outcome of replaying schedules over a path."""

    stats: PathStats
    horizon: float
    cells_per_second: float
    source_failures: List[int]


def simulate_schedules_on_path(
    schedules: Sequence[RateSchedule],
    path: SignalingPath,
    resync_interval: Optional[float] = None,
    lead_time: float = 0.0,
) -> PathSimulationResult:
    """Replay renegotiation schedules through a multi-hop path.

    ``lead_time`` initiates each renegotiation early, the paper's offline
    compensation for path latency ("offline applications ... can
    compensate for an increased latency by initiating renegotiation
    earlier").  ``resync_interval`` adds periodic absolute-rate cells per
    source.  Per-source believed rates track grants, so statistics match
    what a real NIU would observe.
    """
    if not schedules:
        raise ValueError("need at least one schedule")
    if lead_time < 0:
        raise ValueError("lead_time must be non-negative")
    engine = EventScheduler()
    believed_rates = [0.0] * len(schedules)
    source_failures = [0] * len(schedules)
    horizon = max(schedule.duration for schedule in schedules)

    def issue(vci: int, new_rate: float) -> None:
        request = RenegotiationRequest(
            vci=vci,
            old_rate=believed_rates[vci],
            new_rate=new_rate,
            time=engine.now,
        )
        if path.renegotiate(request):
            believed_rates[vci] = new_rate
        elif request.delta > 0:
            source_failures[vci] += 1
        else:
            # A lost decrease leaves the network over-reserving (drift).
            believed_rates[vci] = new_rate

    def resync(vci: int) -> None:
        path.resynchronize(vci, believed_rates[vci], engine.now)
        if engine.now + resync_interval < horizon:
            engine.schedule_in(resync_interval, resync, vci)

    for vci, schedule in enumerate(schedules):
        for seg_start, _, rate in schedule.segments():
            fire_at = max(0.0, seg_start - lead_time)
            engine.schedule_at(fire_at, issue, vci, rate)
        if resync_interval is not None and resync_interval > 0:
            engine.schedule_at(resync_interval, resync, vci)

    engine.run(until=horizon)
    for vci in range(len(schedules)):
        path.release(vci)

    return PathSimulationResult(
        stats=path.stats,
        horizon=horizon,
        cells_per_second=path.stats.cells_sent / horizon if horizon else 0.0,
        source_failures=source_failures,
    )
