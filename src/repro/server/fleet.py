"""The vectorized call fleet: batch-stepping every active call per epoch.

The gateway's hot path.  A fleet is a thin adapter between the gateway's
call-pool bookkeeping and the batched renegotiation kernel
(:mod:`repro.core.kernel`): it owns admission (pool slots, LIFO free
list, growth by doubling), the per-call traffic shifts, the in-flight
``pending`` mask, and per-epoch arrival gathering — while the per-slot
arithmetic of eqs. 6-8 (buffer update, AR(1) estimate, eq.-7
quantisation, eq.-8 threshold test) is one
:meth:`~repro.core.kernel.RenegotiationKernel.step` over the kernel's
structure-of-arrays state block.  50k concurrent calls step in well
under a millisecond, which is what makes a real-time gateway on one
core possible.

Bit-identical contract: the kernel is the *same* implementation the
scalar :class:`repro.core.online.OnlineScheduler` drives as a fleet of
one, so a fleet of one call produces exactly the float sequence the
scalar scheduler produces on the same shifted workload.
``tests/test_server_fleet.py`` locks this in.

Each call's traffic is a circular shift of one shared base workload — the
paper's Section VI construction ("each call is a randomly shifted version
of a Star Wars RCBR schedule"), applied at the arrival-process level so
the per-epoch gather is a single fancy-index into the shared array.
Inactive pool slots carry exact zeros everywhere; multiplying the
gathered arrivals by the activity mask keeps them at zero through every
kernel step, so no post-step masking is needed and whole-array
reductions (total buffered bits, total reserved rate) are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.kernel import RenegotiationKernel
from repro.core.online import OnlineParams
from repro.traffic.trace import SlottedWorkload
from repro.util.stats import per_class_counts, per_class_totals


def gather_arrivals(
    bits: np.ndarray,
    shift: np.ndarray,
    active: np.ndarray,
    tick: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One epoch's arrivals per pool slot: ``bits[(shift + tick) % L]``,
    zeroed for inactive slots so their state stays exactly 0.

    The fleet's one gather: :class:`CallFleet` runs it over the whole
    pool, a shard worker over one chunk into its shared column (``out``).
    """
    num_base_slots = bits.size
    index = shift + (tick % num_base_slots)
    np.subtract(
        index, num_base_slots, out=index, where=index >= num_base_slots
    )
    return np.multiply(bits[index], active, out=out)


@dataclass(frozen=True)
class EpochStep:
    """What one vectorized step produced: who wants to renegotiate.

    ``slots`` are pool-slot indices in ascending order (deterministic);
    ``candidates`` the quantized eq.-7 target rate of each.  Calls with a
    renegotiation already in flight are excluded — a source waits for the
    answer to its outstanding RM cell before signaling again.
    """

    tick: int
    slots: np.ndarray
    candidates: np.ndarray

    @property
    def num_requests(self) -> int:
        return int(self.slots.size)


class CallFleet:
    """Structure-of-arrays pool of active calls over one shared workload."""

    def __init__(
        self,
        workload: SlottedWorkload,
        params: OnlineParams,
        buffer_size: Optional[float] = None,
        initial_capacity: int = 256,
    ) -> None:
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        self.workload = workload
        self.params = params
        self.buffer_size = buffer_size
        self._bits = workload.bits_per_slot  # read-only shared base
        self._num_base_slots = int(self._bits.size)
        self._slot = workload.slot_duration
        self._kernel = RenegotiationKernel(
            params, workload.slot_duration, buffer_size=buffer_size
        )

        capacity = int(initial_capacity)
        self._capacity = capacity
        self._state = self._kernel.new_state(capacity)
        self.active = np.zeros(capacity, dtype=bool)
        self.shift = np.zeros(capacity, dtype=np.int64)
        self.pending = np.zeros(capacity, dtype=bool)
        self.streak = np.zeros(capacity, dtype=np.int64)
        self.call_id = np.full(capacity, -1, dtype=np.int64)
        self.call_class = np.zeros(capacity, dtype=np.int64)
        # LIFO free list ordered so the first admissions take slots 0, 1, …
        self._free = list(range(capacity - 1, -1, -1))

        self.num_active = 0
        self.peak_active = 0
        self.epochs_stepped = 0
        self.call_epochs_stepped = 0

    # ------------------------------------------------------------------
    # Kernel-owned state, exposed as the fleet's columns
    # ------------------------------------------------------------------
    @property
    def rate(self) -> np.ndarray:
        """Per-slot reserved rate (kernel state column)."""
        return self._state.rate

    @property
    def estimate(self) -> np.ndarray:
        """Per-slot AR(1) estimate (kernel state column)."""
        return self._state.estimate

    @property
    def buffer(self) -> np.ndarray:
        """Per-slot playout-buffer occupancy in bits (kernel state column)."""
        return self._state.buffer

    @property
    def bits_lost(self) -> float:
        """Cumulative playout-buffer overflow, accounted by the kernel."""
        return self._state.bits_lost

    @property
    def bits_downgraded(self) -> float:
        """Cumulative bits shed by resolution downgrade (kernel-accounted)."""
        return self._state.bits_downgraded

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Allocated pool slots (grows by doubling)."""
        return self._capacity

    def _grow(self) -> None:
        old = self._capacity
        new = old * 2
        self._state.grow(new)
        for name in (
            "active", "shift", "pending", "streak", "call_id", "call_class"
        ):
            column = getattr(self, name)
            grown = np.zeros(new, dtype=column.dtype)
            grown[:old] = column
            setattr(self, name, grown)
        self.call_id[old:] = -1
        self._free.extend(range(new - 1, old - 1, -1))
        self._capacity = new

    def quantize(self, rate_estimate: float) -> float:
        """eq. 7 on this fleet's grid (see :func:`repro.core.kernel.quantize`)."""
        return self._kernel.quantize(rate_estimate)

    def admit(
        self, call_id: int, shift: int, call_class: int = 0
    ) -> "tuple[int, float]":
        """Add a call whose arrivals start ``shift`` base slots in.

        Returns ``(pool_slot, initial_rate)`` where the initial rate is
        the first slot's arrival rate quantized to the grid — the causal
        setup-time choice the scalar scheduler makes.  ``call_class`` is
        the service class the overload control plane downgrades and
        sacrifices by (0 = the most-protected, premium class).
        """
        if call_class < 0:
            raise ValueError("call_class must be non-negative")
        if not 0 <= shift < self._num_base_slots:
            raise ValueError(f"shift must be in [0, {self._num_base_slots})")
        if not self._free:
            self._grow()
        slot = self._free.pop()
        initial_rate = self._kernel.initial_rate(float(self._bits[shift]))
        self.active[slot] = True
        self.shift[slot] = shift
        self._state.rate[slot] = initial_rate
        self._state.estimate[slot] = initial_rate
        self._state.buffer[slot] = 0.0
        self.pending[slot] = False
        self.streak[slot] = 0
        self.call_id[slot] = call_id
        self.call_class[slot] = call_class
        self.num_active += 1
        if self.num_active > self.peak_active:
            self.peak_active = self.num_active
        return slot, initial_rate

    def admit_batch(
        self, call_ids: Sequence[int], shifts: np.ndarray, call_classes: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """:meth:`admit` per entry, in order, as one column write each.

        Slots come off the free list in the scalar path's LIFO order,
        growing the pool exactly when the scalar path would (only ever
        when the free list is empty), and the initial rates are
        :meth:`~repro.core.kernel.RenegotiationKernel.initial_rates`, so
        every column ends bit-identical to a loop of :meth:`admit`.
        Arguments are validated up front: a bad entry raises with
        nothing admitted.  Returns ``(pool_slots, initial_rates)``.
        """
        shifts = np.asarray(shifts, dtype=np.int64)
        call_classes = np.asarray(call_classes, dtype=np.int64)
        count = int(shifts.size)
        if count == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        if int(call_classes.min()) < 0:
            raise ValueError("call_class must be non-negative")
        if int(shifts.min()) < 0 or int(shifts.max()) >= self._num_base_slots:
            raise ValueError(f"shift must be in [0, {self._num_base_slots})")
        taken: list = []
        while len(taken) < count:
            if not self._free:
                self._grow()
            chunk = self._free[len(taken) - count:]
            del self._free[len(taken) - count:]
            taken.extend(reversed(chunk))
        slots = np.asarray(taken, dtype=np.int64)
        initial_rates = self._kernel.initial_rates(self._bits[shifts])
        self.active[slots] = True
        self.shift[slots] = shifts
        self._state.rate[slots] = initial_rates
        self._state.estimate[slots] = initial_rates
        self._state.buffer[slots] = 0.0
        self.pending[slots] = False
        self.streak[slots] = 0
        self.call_id[slots] = call_ids
        self.call_class[slots] = call_classes
        self.num_active += count
        self.peak_active = max(self.peak_active, self.num_active)
        return slots, initial_rates

    def remove(self, slot: int) -> None:
        """Release a pool slot, zeroing its state exactly."""
        if not self.active[slot]:
            raise ValueError(f"slot {slot} is not active")
        self.active[slot] = False
        self.shift[slot] = 0
        self._state.clear_slot(slot)
        self.pending[slot] = False
        self.streak[slot] = 0
        self.call_id[slot] = -1
        self.call_class[slot] = 0
        self.num_active -= 1
        self._free.append(slot)

    def set_rate(self, slot: int, rate: float) -> None:
        self._state.rate[slot] = rate

    def close(self) -> None:
        """Release external resources: none inline (the sharded fleet
        overrides this to stop its worker pool)."""

    # ------------------------------------------------------------------
    # The vectorized epoch step
    # ------------------------------------------------------------------
    def step(
        self, tick: int, downgrade: Optional[np.ndarray] = None
    ) -> EpochStep:
        """Advance every active call through base slot ``tick``.

        One kernel batch step across the whole fleet.  Returns the calls
        whose buffer crossed a threshold in the matching direction
        (eq. 8) and are free to signal.  ``downgrade``, if given, is the
        overload plane's per-slot resolution scale array (see
        :meth:`repro.core.kernel.RenegotiationKernel.step`); ``None``
        keeps the step bit-identical to the undowngraded path.
        """
        wants, candidate = self._advance(tick, downgrade)

        # Eligibility on top of the raw eq.-8 crossings: the call must be
        # active and must not have a renegotiation cell already in flight.
        wants &= self.active
        wants &= ~self.pending

        self.epochs_stepped += 1
        self.call_epochs_stepped += self.num_active
        slots = np.flatnonzero(wants)
        return EpochStep(
            tick=tick, slots=slots, candidates=candidate[slots]
        )

    def _advance(
        self, tick: int, downgrade: Optional[np.ndarray]
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Run eqs. 6-8 over the pool; the kernel's raw
        ``(wants, candidates)``.  The sharded fleet overrides only this."""
        amount = gather_arrivals(self._bits, self.shift, self.active, tick)
        return self._kernel.step(self._state, amount, downgrade=downgrade)

    # ------------------------------------------------------------------
    # Whole-fleet observables (exact: inactive slots are exact zeros)
    # ------------------------------------------------------------------
    def total_buffered_bits(self) -> float:
        return float(self.buffer.sum())

    def total_reserved_rate(self) -> float:
        return float(self.rate.sum())

    def class_counts(self, num_classes: int) -> np.ndarray:
        """Active calls per service class (dense, length ``num_classes``)."""
        return per_class_counts(self.call_class[self.active], num_classes)

    def class_reserved_rates(self, num_classes: int) -> np.ndarray:
        """Total reserved rate per service class."""
        return per_class_totals(
            self.call_class[self.active], self.rate[self.active], num_classes
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Export slot metadata, the free list, counters, and the kernel
        columns.  The workload and parameters are *not* exported: they
        are a pure function of the gateway config, which the checkpoint
        layer hashes and validates instead."""
        return {
            "capacity": self._capacity,
            "kernel": self._state.state_dict(),
            "active": self.active.copy(),
            "shift": self.shift.copy(),
            "pending": self.pending.copy(),
            "streak": self.streak.copy(),
            "call_id": self.call_id.copy(),
            "call_class": self.call_class.copy(),
            "free": list(self._free),
            "num_active": self.num_active,
            "peak_active": self.peak_active,
            "epochs_stepped": self.epochs_stepped,
            "call_epochs_stepped": self.call_epochs_stepped,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` export, growing the pool first.

        Growth happens through :meth:`_grow` so subclasses keep their
        invariants (the sharded fleet re-points columns at a fresh
        shared block).
        Capacities must then match exactly — both sides double from the
        same config-derived initial size, so any mismatch means the
        checkpoint belongs to a different config and is refused.
        """
        saved_capacity = int(state["capacity"])
        while self._capacity < saved_capacity:
            self._grow()
        if self._capacity != saved_capacity:
            raise ValueError(
                f"fleet capacity {self._capacity} cannot match checkpointed "
                f"capacity {saved_capacity} (different initial pool size?)"
            )
        self._state.load_state(state["kernel"])
        for name in (
            "active", "shift", "pending", "streak", "call_id", "call_class"
        ):
            column = getattr(self, name)
            column[:] = np.asarray(state[name])
        self._free = [int(slot) for slot in state["free"]]
        self.num_active = int(state["num_active"])
        self.peak_active = int(state["peak_active"])
        self.epochs_stepped = int(state["epochs_stepped"])
        self.call_epochs_stepped = int(state["call_epochs_stepped"])
