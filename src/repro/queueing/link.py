"""The RCBR link: per-source CBR allocations with renegotiation.

This is the switch-side abstraction of Section III: a link of fixed
capacity carrying one CBR allocation per source.  A renegotiation request
succeeds iff the new total allocation fits ("it checks if the current port
utilization plus the rate difference is less than the port capacity").

Two behaviours from the paper are modelled faithfully:

* "even if the renegotiation fails, the source can keep whatever
  bandwidth it already has" — a denied increase leaves the old grant;
* on failure "the source has to temporarily settle for whatever bandwidth
  remaining in the link until more bandwidth becomes available"
  (Section V-B) — the link grants the spare capacity immediately and
  remembers the outstanding demand; freed capacity is redistributed to
  shortfall sources in FIFO order of their requests.

The link also integrates allocated bandwidth and per-source shortfall over
time, which is how the experiments measure utilization and bits lost to
renegotiation failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.util.slots import grown


@dataclass(frozen=True)
class RequestOutcome:
    """Result of a renegotiation (or setup) request."""

    granted_rate: float
    requested_rate: float

    @property
    def fully_granted(self) -> bool:
        return self.granted_rate >= self.requested_rate - 1e-9

    @property
    def failed(self) -> bool:
        return not self.fully_granted


class RcbrLink:
    """A fixed-capacity link multiplexing renegotiated CBR sources.

    Sources are non-negative integer *slots* — the gateway's call-pool
    slots, or keys a caller interned with
    :class:`~repro.util.slots.SlotInterner`.  Grants and demands are
    float64 columns indexed by slot, grown on demand, so one epoch of
    renegotiations commits through :meth:`request_batch` as a single
    vectorized fold with no per-source hashing.

    Per-source order matters in two places — the :meth:`set_capacity`
    shave tie-break and the order of shortfall appends — and both
    follow first-request order: a slot takes a fresh sequence number
    (``_insert_seq``) each time it turns present.  That order, not the
    slot number, is what an ordered fold replays, so how a caller
    numbers its slots never shows in any observable.
    """

    def __init__(self, capacity: float) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = float(capacity)
        self._grants = np.zeros(16)
        self._demands = np.zeros(16)
        self._present = np.zeros(16, dtype=bool)
        self._insert_seq = np.zeros(16, dtype=np.int64)
        self._insert_counter = 0
        self._num_sources = 0
        # Running sums of the grant and demand columns maintained
        # incrementally: the server gateway advances the accounting clock
        # on every renegotiation of a 50k-call fleet and the overload
        # control plane polls demand pressure every epoch, so both
        # ``allocated`` and ``total_demand`` must be O(1), not sums.
        self._allocated_total = 0.0
        self._demand_total = 0.0
        self._shortfall_order: List[int] = []
        self._clock = 0.0
        self._allocated_integral = 0.0  # bit-seconds of reserved bandwidth
        self._shortfall_integral = 0.0  # bits lost to unmet demand
        self._capacity_integral = 0.0  # bit-seconds of deliverable capacity
        self._capacity_changes = 0
        self.request_count = 0
        self.increase_count = 0
        self.failure_count = 0
        self.downgrade_events = 0

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def allocated(self) -> float:
        """Total granted bandwidth right now."""
        if self._num_sources == 0:
            return 0.0
        return max(0.0, self._allocated_total)

    @property
    def spare(self) -> float:
        return max(0.0, self.capacity - self.allocated)

    @property
    def num_sources(self) -> int:
        return self._num_sources

    @property
    def total_demand(self) -> float:
        if self._num_sources == 0:
            return 0.0
        return max(0.0, self._demand_total)

    def grant_of(self, slot: int) -> float:
        return float(self._grants[slot]) if slot < self._grants.size else 0.0

    def demand_of(self, slot: int) -> float:
        return float(self._demands[slot]) if slot < self._demands.size else 0.0

    @property
    def now(self) -> float:
        return self._clock

    def _reserve(self, num_slots: int) -> None:
        """Grow the columns to cover slots ``0..num_slots-1``."""
        for name in ("_grants", "_demands", "_present", "_insert_seq"):
            setattr(self, name, grown(getattr(self, name), num_slots))

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------
    def _advance(self, time: float) -> None:
        if time < self._clock - 1e-9:
            raise ValueError(
                f"time must not go backwards (now={self._clock}, got={time})"
            )
        elapsed = max(0.0, time - self._clock)
        if elapsed > 0.0:
            allocated = self.allocated
            # float() keeps the integrals Python floats (the np.float64
            # repr would otherwise leak into fingerprint rendering).
            shortfall = float(
                sum(
                    self._demands[slot] - self._grants[slot]
                    for slot in self._shortfall_order
                )
            )
            self._allocated_integral += allocated * elapsed
            self._shortfall_integral += shortfall * elapsed
            self._capacity_integral += self.capacity * elapsed
        self._clock = time

    @property
    def allocated_bit_seconds(self) -> float:
        """Integral of granted bandwidth over time (bits)."""
        return self._allocated_integral

    @property
    def lost_bits(self) -> float:
        """Integral of unmet demand over time (bits lost to failures)."""
        return self._shortfall_integral

    @property
    def delivered_bit_seconds(self) -> float:
        """Integral of link capacity over time (bits deliverable).

        Equals ``capacity * now`` until :meth:`set_capacity` is first
        used; under time-varying capacity (background cross-traffic,
        outages) it is the honest utilization denominator.
        """
        return self._capacity_integral

    def mean_utilization(self, horizon: Optional[float] = None) -> float:
        """Time-average fraction of deliverable capacity reserved.

        With constant capacity this is the classic
        ``allocated_bit_seconds / (capacity * span)``.  Once
        :meth:`set_capacity` has varied the capacity, the denominator
        switches to the capacity *integral* (extrapolating the current
        capacity out to ``horizon``) — normalizing a background-squeezed
        link by its nominal capacity would understate how busy it was.
        """
        span = self._clock if horizon is None else horizon
        if span <= 0:
            return 0.0
        if self._capacity_changes:
            delivered = self._capacity_integral + self.capacity * max(
                0.0, span - self._clock
            )
            return (
                self._allocated_integral / delivered if delivered > 0 else 0.0
            )
        return self._allocated_integral / (self.capacity * span)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def request(self, slot: int, new_rate: float, time: float) -> RequestOutcome:
        """Set up or renegotiate ``slot``'s rate to ``new_rate``.

        Decreases always succeed.  Increases succeed up to the spare
        capacity; the shortfall is tracked and back-filled when capacity
        frees.  A partially granted increase counts as one renegotiation
        failure.
        """
        if new_rate < 0:
            raise ValueError("rates must be non-negative")
        self._advance(time)
        if slot >= self._grants.size:
            self._reserve(slot + 1)
        old_grant = float(self._grants[slot])
        self.request_count += 1
        self._demand_total += new_rate - float(self._demands[slot])
        self._demands[slot] = new_rate
        if not self._present[slot]:
            self._present[slot] = True
            self._num_sources += 1
            self._insert_seq[slot] = self._insert_counter
            self._insert_counter += 1
        if new_rate <= old_grant:
            # Decrease (or no-op): always granted in full, frees capacity.
            self._set_grant(slot, old_grant, new_rate, new_rate)
            self._redistribute()
            return RequestOutcome(granted_rate=new_rate, requested_rate=new_rate)

        self.increase_count += 1
        available = self.spare
        granted = min(new_rate, old_grant + available)
        self._set_grant(slot, old_grant, granted, new_rate)
        if granted < new_rate - 1e-9:
            self.failure_count += 1
            if slot not in self._shortfall_order:
                self._shortfall_order.append(slot)
        else:
            self._clear_shortfall(slot)
        return RequestOutcome(granted_rate=granted, requested_rate=new_rate)

    def request_batch(
        self, slots: Sequence[int], new_rates: np.ndarray, time: float
    ) -> Tuple[np.ndarray, int]:
        """Apply one request per ``(slot, new_rate)`` pair, in order.

        Bit-identical to calling :meth:`request` per entry; returns the
        granted rates and the number of failed (partially granted)
        requests.  The running totals are evolved with ``np.cumsum`` — a
        strict left fold, so every intermediate total equals the scalar
        loop's.  The vectorized commit engages only when no shortfall is
        outstanding and every increase fully fits at its exact prefix
        total; anything else replays the batch through :meth:`request`,
        which is exact by construction.  Batches must not repeat a slot
        (the gateway's ``pending`` mask guarantees this).
        """
        slots = np.asarray(slots, dtype=np.int64)
        rates = np.ascontiguousarray(new_rates, dtype=np.float64)
        if slots.size == 0:
            return np.empty(0), 0
        self._advance(time)
        if self._shortfall_order:
            return self._request_each(slots, rates, time)
        top = int(slots.max())
        if top >= self._grants.size:
            self._reserve(top + 1)
        old_grants = self._grants[slots]
        totals = np.cumsum(
            np.concatenate(([self._allocated_total], rates - old_grants))
        )
        increases = rates > old_grants
        if np.any(increases):
            before = totals[:-1][increases]
            spare = np.maximum(
                0.0, self.capacity - np.maximum(0.0, before)
            )
            if not np.all(rates[increases] <= old_grants[increases] + spare):
                # Some increase would be partially granted (nothing has
                # been committed yet).
                return self._request_each(slots, rates, time)

        demand_totals = np.cumsum(
            np.concatenate(([self._demand_total], rates - self._demands[slots]))
        )
        self.request_count += int(slots.size)
        self.increase_count += int(np.count_nonzero(increases))
        self._grants[slots] = rates
        self._demands[slots] = rates
        self._allocated_total = float(totals[-1])
        self._demand_total = float(demand_totals[-1])
        fresh = ~self._present[slots]
        if np.any(fresh):
            count = int(np.count_nonzero(fresh))
            self._num_sources += count
            self._present[slots] = True
            # Batch order is the scalar request order, so the fresh
            # slots take consecutive sequence numbers in that order.
            self._insert_seq[slots[fresh]] = np.arange(
                self._insert_counter,
                self._insert_counter + count,
                dtype=np.int64,
            )
            self._insert_counter += count
        return rates.copy(), 0

    def _request_each(
        self, slots: np.ndarray, rates: np.ndarray, time: float
    ) -> Tuple[np.ndarray, int]:
        granted = np.empty(rates.size)
        failures = 0
        for index, slot in enumerate(slots.tolist()):
            outcome = self.request(slot, float(rates[index]), time)
            granted[index] = outcome.granted_rate
            if outcome.failed:
                failures += 1
        return granted, failures

    def release(self, slot: int, time: float) -> None:
        """Tear down the source, freeing its bandwidth."""
        self._advance(time)
        if slot < self._present.size and self._present[slot]:
            self._allocated_total -= float(self._grants[slot])
            self._demand_total -= float(self._demands[slot])
            self._grants[slot] = 0.0
            self._demands[slot] = 0.0
            self._present[slot] = False
            self._num_sources -= 1
        if self._num_sources == 0:
            # Empty link: snap away any accumulated float dust.
            self._allocated_total = 0.0
            self._demand_total = 0.0
        self._clear_shortfall(slot)
        self._redistribute()

    def finish(self, time: float) -> None:
        """Advance the accounting clock to ``time`` with no state change."""
        self._advance(time)

    def set_capacity(self, capacity: float, time: float) -> None:
        """Change the link capacity mid-run (e.g. a transient outage).

        Shrinking capacity below the current allocation downgrades every
        grant proportionally — graceful degradation in the spirit of
        Fricker et al.'s downgrading allocation schemes — while demands
        are remembered, so the deficit accrues to ``lost_bits`` and
        restored capacity is redistributed to shortfall sources in FIFO
        order.
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._advance(time)
        if capacity != self.capacity:
            self._capacity_changes += 1
        self.capacity = float(capacity)
        # Scale against the *exact* grant sum, not the incrementally
        # maintained running total: the running total drifts by float
        # accumulation over many requests, and ``sum(g * scale)`` rounds
        # per-term, so scaling alone can leave the link a few ULPs
        # over-committed.  Any residual overshoot is clamped off the
        # largest grants (ties in first-request order) so
        # ``allocated <= capacity`` holds exactly and the shed bandwidth
        # accrues to ``lost_bits`` via the shortfall integral (demands
        # are remembered).
        present = np.nonzero(self._present)[0]
        order = present[
            np.argsort(self._insert_seq[present], kind="stable")
        ].tolist()
        exact_allocated = math.fsum(self._grants[present])
        if exact_allocated > capacity + 1e-9:
            scale = capacity / exact_allocated
            self._grants[present] = self._grants[present] * scale
            excess = math.fsum(self._grants[present]) - capacity
            if excess > 0.0:
                for slot in sorted(
                    order,
                    key=lambda s: float(self._grants[s]),
                    reverse=True,
                ):
                    shave = min(excess, float(self._grants[slot]))
                    self._grants[slot] -= shave
                    excess -= shave
                    if excess <= 0.0:
                        break
            for slot in order:
                if (
                    float(self._demands[slot])
                    > float(self._grants[slot]) + 1e-9
                    and slot not in self._shortfall_order
                ):
                    self._shortfall_order.append(slot)
            self._allocated_total = math.fsum(self._grants[present])
            self.downgrade_events += 1
        else:
            self._redistribute()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _set_grant(
        self, slot: int, old: float, rate: float, demand: float
    ) -> None:
        if rate <= 0.0 and demand <= 0.0:
            rate = 0.0
        self._grants[slot] = rate
        self._allocated_total += rate - old

    def _clear_shortfall(self, slot: int) -> None:
        if slot in self._shortfall_order:
            self._shortfall_order.remove(slot)

    def _redistribute(self) -> None:
        """Hand freed capacity to shortfall sources in FIFO request order."""
        if not self._shortfall_order:
            return
        spare = self.spare
        satisfied = []
        for slot in self._shortfall_order:
            if spare <= 1e-12:
                break
            missing = float(self._demands[slot]) - float(self._grants[slot])
            topup = min(missing, spare)
            self._grants[slot] += topup
            self._allocated_total += topup
            spare -= topup
            if float(self._grants[slot]) >= float(self._demands[slot]) - 1e-9:
                satisfied.append(slot)
        for slot in satisfied:
            self._shortfall_order.remove(slot)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Export allocations, running sums, integrals, and counters.

        The incrementally maintained ``_allocated_total``/``_demand_total``
        are exported verbatim rather than recomputed: their float values
        carry the exact accumulation history, and a recomputed sum would
        diverge from the live gateway by rounding dust — visible in the
        fingerprint.
        """
        return {
            "grants": self._grants.copy(),
            "demands": self._demands.copy(),
            "present": self._present.copy(),
            "insert_seq": self._insert_seq.copy(),
            "insert_counter": self._insert_counter,
            "num_sources": self._num_sources,
            "capacity": self.capacity,
            "allocated_total": self._allocated_total,
            "demand_total": self._demand_total,
            "shortfall_order": list(self._shortfall_order),
            "clock": self._clock,
            "allocated_integral": self._allocated_integral,
            "shortfall_integral": self._shortfall_integral,
            "capacity_integral": self._capacity_integral,
            "capacity_changes": self._capacity_changes,
            "request_count": self.request_count,
            "increase_count": self.increase_count,
            "failure_count": self.failure_count,
            "downgrade_events": self.downgrade_events,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` export."""
        for name in ("grants", "demands", "present", "insert_seq"):
            setattr(self, f"_{name}", np.array(state[name]))
        self._insert_counter = int(state["insert_counter"])  # type: ignore[arg-type]
        self._num_sources = int(state["num_sources"])  # type: ignore[arg-type]
        self.capacity = float(state["capacity"])  # type: ignore[arg-type]
        self._allocated_total = float(state["allocated_total"])  # type: ignore[arg-type]
        self._demand_total = float(state["demand_total"])  # type: ignore[arg-type]
        self._shortfall_order = list(state["shortfall_order"])  # type: ignore[arg-type]
        self._clock = float(state["clock"])  # type: ignore[arg-type]
        self._allocated_integral = float(state["allocated_integral"])  # type: ignore[arg-type]
        self._shortfall_integral = float(state["shortfall_integral"])  # type: ignore[arg-type]
        self._capacity_integral = float(state["capacity_integral"])  # type: ignore[arg-type]
        self._capacity_changes = int(state["capacity_changes"])  # type: ignore[arg-type]
        self.request_count = int(state["request_count"])  # type: ignore[arg-type]
        self.increase_count = int(state["increase_count"])  # type: ignore[arg-type]
        self.failure_count = int(state["failure_count"])  # type: ignore[arg-type]
        self.downgrade_events = int(state["downgrade_events"])  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return (
            f"RcbrLink(capacity={self.capacity:.0f}, sources={self.num_sources}, "
            f"allocated={self.allocated:.0f}, failures={self.failure_count})"
        )
