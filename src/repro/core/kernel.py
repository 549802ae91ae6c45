"""The batched renegotiation kernel: the one implementation of eqs. 6-8.

Every consumer of the paper's causal AR(1) + dual-threshold heuristic —
the scalar :class:`~repro.core.online.OnlineScheduler` (a fleet of one),
the vectorized :class:`~repro.server.fleet.CallFleet` (the gateway's
50k-call hot path), and through them every sweep cell and benchmark —
drives this kernel.  It owns, in exactly one place:

* the **AR(1) estimator** with the additive ``q/T`` flush-term
  correction (eq. 6)::

      r_hat(t) = eta * r_hat(t-1) + (1 - eta) * x(t)
      candidate = quantize(r_hat(t) + q(t) / T)

  (the flush term is applied on top of the recursion rather than fed
  back into it, which would inflate its steady-state contribution by
  ``1/(1 - eta)`` and grossly over-allocate);
* the **eq.-7 quantiser** — round the estimate *up* to the bandwidth
  granularity grid, guarded by :data:`QUANTIZE_EPSILON` — in both its
  scalar (:func:`quantize`) and whole-array (inside :meth:`step`) forms;
* the **eq.-8 threshold test** — signal only when the buffer crossed a
  threshold in the direction of the rate change::

      wants = (q > B_h and r_new > r) or (q < B_l and r_new < r)

* finite-buffer **overflow accounting** (``bits_lost``) and the
  panic-**drain** semantics used by the recovery policies
  (:mod:`repro.faults.recovery`): a draining call sheds the slot's
  arrivals at the source (counted as lost) while the buffer keeps
  draining, and the AR(1) estimator still sees the true incoming rate.

The kernel performs one *slot* of the heuristic for a whole
structure-of-arrays state block per call: one buffer update, one AR(1)
update, one quantization, one threshold test, each a fixed number of
whole-array numpy operations with no per-call Python loop.  Bit-identity
is part of the contract: a batch of one stepped slot-by-slot produces
exactly the float sequence the pre-refactor scalar scheduler produced
(``tests/test_core_kernel.py`` locks this against a frozen golden
reference), and calls in a batch never perturb each other's streams.

What the kernel does *not* do is grant rates: it reports who wants to
renegotiate and at what quantized candidate, and the caller — scalar
scheduler, gateway, fault harness — decides what is granted, applying
recovery policies, signaling-path outcomes, or fault injections before
writing the new rate back into :attr:`KernelState.rate`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only (core.online imports us)
    from repro.core.online import OnlineParams

#: Guard subtracted before ``ceil`` in eq. 7's quantiser so an estimate
#: sitting exactly on a grid line is not bumped to the next level by
#: float dust.  This module is the constant's single home.
QUANTIZE_EPSILON = 1e-12


def quantize(
    rate_estimate: float,
    granularity: float,
    max_rate: Optional[float] = None,
) -> float:
    """eq. 7, scalar form: round the estimate *up* to the granularity grid.

    Bit-identical to the whole-array quantiser inside
    :meth:`RenegotiationKernel.step` (same :data:`QUANTIZE_EPSILON`
    guard, same operation order); ``tests/test_core_kernel.py`` checks
    the two agree float-for-float.
    """
    quantized = (
        math.ceil(max(0.0, rate_estimate) / granularity - QUANTIZE_EPSILON)
        * granularity
    )
    if max_rate is not None:
        quantized = min(quantized, max_rate)
    return quantized


class KernelState:
    """Structure-of-arrays per-call state advanced by the kernel.

    Three float64 columns — the currently reserved ``rate``, the AR(1)
    ``estimate``, and the playout ``buffer`` occupancy in bits — plus the
    cumulative ``bits_lost`` accounting (finite-buffer overflow and
    drain-shed arrivals).  Unused pool slots must hold exact zeros in
    every column; a zero row steps to a zero row, so whole-array
    reductions over the block stay exact and no post-step masking is
    needed.  Scratch arrays for the step's intermediates live here too,
    so steady-state stepping allocates nothing.
    """

    __slots__ = (
        "rate",
        "estimate",
        "buffer",
        "bits_lost",
        "bits_downgraded",
        "_candidate",
        "_scratch",
        "_wants",
        "_wants_down",
        "_cmp",
    )

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.rate = np.zeros(capacity)
        self.estimate = np.zeros(capacity)
        self.buffer = np.zeros(capacity)
        self.bits_lost = 0.0
        self.bits_downgraded = 0.0
        self._candidate = np.empty(capacity)
        self._scratch = np.empty(capacity)
        self._wants = np.empty(capacity, dtype=bool)
        self._wants_down = np.empty(capacity, dtype=bool)
        self._cmp = np.empty(capacity, dtype=bool)

    @property
    def capacity(self) -> int:
        return int(self.rate.size)

    def grow(self, new_capacity: int) -> None:
        """Reallocate to ``new_capacity`` slots, zero-filling the tail."""
        if new_capacity < self.capacity:
            raise ValueError("KernelState can only grow")
        for name in ("rate", "estimate", "buffer"):
            column = getattr(self, name)
            grown = np.zeros(new_capacity)
            grown[: column.size] = column
            setattr(self, name, grown)
        self._candidate = np.empty(new_capacity)
        self._scratch = np.empty(new_capacity)
        self._wants = np.empty(new_capacity, dtype=bool)
        self._wants_down = np.empty(new_capacity, dtype=bool)
        self._cmp = np.empty(new_capacity, dtype=bool)

    def clear_slot(self, index: int) -> None:
        """Return one slot to the exact-zero resting state."""
        self.rate[index] = 0.0
        self.estimate[index] = 0.0
        self.buffer[index] = 0.0

    # -- checkpointing --------------------------------------------------
    def state_dict(self) -> dict:
        """Export the persistent columns and ledgers (scratch excluded)."""
        return {
            "rate": self.rate.copy(),
            "estimate": self.estimate.copy(),
            "buffer": self.buffer.copy(),
            "bits_lost": self.bits_lost,
            "bits_downgraded": self.bits_downgraded,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` export, writing columns in place.

        In-place writes matter: the sharded fleet points these columns at
        a process-shared block, and rebinding the attributes would break
        the sharing.  The current capacity must already cover the saved
        columns (the fleet grows itself before delegating here).
        """
        saved = np.asarray(state["rate"])
        if saved.size > self.capacity:
            raise ValueError(
                f"kernel state holds {saved.size} slots but capacity is "
                f"{self.capacity}; grow before loading"
            )
        for name in ("rate", "estimate", "buffer"):
            column = getattr(self, name)
            column[:] = 0.0
            column[: saved.size] = np.asarray(state[name])
        self.bits_lost = float(state["bits_lost"])
        self.bits_downgraded = float(state["bits_downgraded"])


class KernelStateView:
    """A zero-copy window onto a contiguous range of kernel state columns.

    The sharded fleet partitions one full-size :class:`KernelState`
    block across worker processes; each worker steps its own contiguous
    slice through :meth:`RenegotiationKernel.step` via one of these
    views.  Because every step operation is elementwise, stepping a
    slice produces bit-for-bit the floats the whole-array step produces
    for those rows — which is the sharded runtime's determinism anchor.

    The persistent columns (``rate``/``estimate``/``buffer``, plus the
    observable ``_candidate``/``_wants`` outputs) are typically slices
    of process-shared arrays; the private scratch
    (``_scratch``/``_wants_down``/``_cmp``) can be worker-local
    buffers.  Views are meant to be stepped in *deferred accounting*
    mode (``excess_out``/``raw_arrivals_out``/``scaled_arrivals_out``),
    so their ``bits_lost``/``bits_downgraded`` floats stay untouched;
    the coordinator merges the deferred columns into the authoritative
    :class:`KernelState` through :func:`merge_deferred_step`.
    """

    __slots__ = (
        "rate",
        "estimate",
        "buffer",
        "bits_lost",
        "bits_downgraded",
        "_candidate",
        "_scratch",
        "_wants",
        "_wants_down",
        "_cmp",
    )

    def __init__(
        self,
        rate: np.ndarray,
        estimate: np.ndarray,
        buffer: np.ndarray,
        candidate: np.ndarray,
        scratch: np.ndarray,
        wants: np.ndarray,
        wants_down: np.ndarray,
        cmp: np.ndarray,
    ) -> None:
        self.rate = rate
        self.estimate = estimate
        self.buffer = buffer
        self.bits_lost = 0.0
        self.bits_downgraded = 0.0
        self._candidate = candidate
        self._scratch = scratch
        self._wants = wants
        self._wants_down = wants_down
        self._cmp = cmp

    @property
    def capacity(self) -> int:
        return int(self.rate.size)


def merge_deferred_step(
    state: KernelState,
    excess: Optional[np.ndarray] = None,
    raw_arrivals: Optional[np.ndarray] = None,
    scaled_arrivals: Optional[np.ndarray] = None,
) -> None:
    """Fold one epoch's deferred accounting columns into ``state``.

    The counterpart of :meth:`RenegotiationKernel.step`'s
    ``excess_out``/``raw_arrivals_out``/``scaled_arrivals_out`` mode:
    shard workers write the per-slot overflow excess and the raw/scaled
    downgrade arrivals into full-size shared columns, and the
    coordinator calls this once per epoch over the *whole* columns —
    the reductions then run over arrays of exactly the shape and
    content the unsharded step reduces, so ``bits_lost`` and
    ``bits_downgraded`` accumulate bit-identically.  This function
    lives here because the shed-accounting arithmetic, like the rest of
    eqs. 6-8, has exactly one home.
    """
    if excess is not None:
        lost = float(excess.sum())
        if lost > 0.0:
            state.bits_lost += lost
    if raw_arrivals is not None:
        if scaled_arrivals is None:
            raise ValueError(
                "raw_arrivals and scaled_arrivals must be given together"
            )
        state.bits_downgraded += float(
            raw_arrivals.sum() - scaled_arrivals.sum()
        )


class RenegotiationKernel:
    """One vectorized slot-step of the heuristic over a state block."""

    def __init__(
        self,
        params: "OnlineParams",
        slot_duration: float,
        buffer_size: Optional[float] = None,
    ) -> None:
        if slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        if buffer_size is not None and buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        self.params = params
        self.slot_duration = float(slot_duration)
        self.buffer_size = buffer_size
        #: T in seconds: the flush term adds the bandwidth needed to
        #: empty the current buffer within this horizon.
        self.time_constant = params.time_constant_slots * self.slot_duration

    def new_state(self, capacity: int = 1) -> KernelState:
        return KernelState(capacity)

    def quantize(self, rate_estimate: float) -> float:
        """Scalar eq.-7 quantiser with this kernel's grid and cap."""
        return quantize(
            rate_estimate, self.params.granularity, self.params.max_rate
        )

    def initial_rate(self, first_slot_bits: float) -> float:
        """The causal setup-time rate: the first slot's rate, quantised.

        Causal schedulers cannot peek at the mean; the paper's setup
        choice is the opening slot's arrival rate rounded to the grid.
        """
        return self.quantize(first_slot_bits / self.slot_duration)

    def initial_rates(self, first_slot_bits: np.ndarray) -> np.ndarray:
        """:meth:`initial_rate` per entry, float-for-float.

        The same operations in the same order as :func:`quantize`; the
        ``+ 0.0`` turns the ``-0.0`` that ``np.ceil`` gives for a zero
        estimate into the ``0.0`` that the scalar ``math.ceil`` gives.
        """
        params = self.params
        rates = np.divide(first_slot_bits, self.slot_duration, dtype=float)
        np.maximum(rates, 0.0, out=rates)
        rates /= params.granularity
        rates -= QUANTIZE_EPSILON
        np.ceil(rates, out=rates)
        rates *= params.granularity
        rates += 0.0
        if params.max_rate is not None:
            np.minimum(rates, params.max_rate, out=rates)
        return rates

    def step(
        self,
        state: "KernelState | KernelStateView",
        arrivals: np.ndarray,
        drain: Optional[np.ndarray] = None,
        downgrade: Optional[np.ndarray] = None,
        excess_out: Optional[np.ndarray] = None,
        raw_arrivals_out: Optional[np.ndarray] = None,
        scaled_arrivals_out: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Advance every call in ``state`` through one slot of arrivals.

        ``arrivals`` holds bits arriving this slot per pool slot, already
        gathered and masked by the caller (inactive slots must carry
        exact zeros).  ``drain``, if given, is a boolean mask of calls in
        panic-drain mode: their arrivals are shed at the source (counted
        in ``state.bits_lost``) while the buffer keeps draining, but the
        AR(1) estimator still sees the true incoming rate.

        ``downgrade``, if given, is a per-slot array of resolution scale
        factors in ``(0, 1]`` (1.0 = full resolution).  The overload
        control plane uses it to walk classes of calls down a resolution
        ladder: a downgraded source re-encodes at lower fidelity, so its
        arrivals shrink *before* the buffer update and the AR(1)
        estimator tracks the reduced rate — unlike ``drain``, which
        sheds at the source while the estimator still sees the true
        rate.  The bits removed by downgrading are controlled, policy-
        requested shedding and accumulate in ``state.bits_downgraded``,
        separate from the uncontrolled overflow/drain losses in
        ``state.bits_lost``.  ``downgrade=None`` performs zero extra
        array operations, keeping the undowngraded path bit-identical.

        **Deferred accounting** (the sharded runtime's worker mode):
        with ``excess_out``, the per-slot overflow excess is written to
        that array instead of being summed into ``state.bits_lost``
        (the buffer is still clamped — a no-overflow clamp is a
        bit-exact no-op); with ``raw_arrivals_out``/
        ``scaled_arrivals_out``, the pre- and post-downgrade arrivals
        are written out instead of accruing ``state.bits_downgraded``.
        A coordinator holding every shard's columns then performs the
        reductions once, over full-size arrays, via
        :func:`merge_deferred_step` — reproducing the unsharded
        accumulation order bit for bit.  Deferred mode cannot be
        combined with ``drain`` (drain-shed accounting is summed
        in-step).

        Returns ``(wants, candidates)``: the raw eq.-8 crossing mask and
        the full quantised eq.-7 candidate array.  Both are views of
        state-owned scratch, valid until the next ``step`` call; the
        caller layers its own eligibility masks (active calls, requests
        already in flight) on top and writes granted rates back into
        ``state.rate``.  The state block is updated in place and
        ``state.bits_lost`` accumulates overflow plus drain-shed bits.
        """
        params = self.params
        rate = state.rate
        buffer_level = state.buffer
        estimate = state.estimate
        candidate = state._candidate
        scratch = state._scratch
        wants = state._wants
        wants_down = state._wants_down
        compare = state._cmp
        if drain is not None and (
            excess_out is not None or raw_arrivals_out is not None
        ):
            raise ValueError("drain cannot be combined with deferred outputs")

        # Resolution downgrade: the source encodes at a fraction of full
        # fidelity, so every consumer below (buffer, estimator, drain)
        # sees the reduced arrivals.  ``_candidate`` is free scratch
        # until eq. 7 overwrites it, well after the last read of
        # ``arrivals``.
        if downgrade is not None:
            if scaled_arrivals_out is not None:
                raw_arrivals_out[:] = arrivals
                np.multiply(arrivals, downgrade, out=scaled_arrivals_out)
                arrivals = scaled_arrivals_out
            else:
                np.multiply(arrivals, downgrade, out=candidate)
                state.bits_downgraded += float(
                    arrivals.sum() - candidate.sum()
                )
                arrivals = candidate

        # Buffer update: q = max(0, (q + a) - r * slot), the adds and
        # subtracts associating exactly as in the original scalar loop.
        # A draining call adds nothing (its arrivals are shed and
        # counted lost) and keeps serving its backlog.
        if drain is None:
            np.add(buffer_level, arrivals, out=buffer_level)
        else:
            np.multiply(arrivals, drain, out=scratch)
            shed = float(scratch.sum())
            state.bits_lost += shed
            np.subtract(arrivals, scratch, out=scratch)
            np.add(buffer_level, scratch, out=buffer_level)
        np.multiply(rate, self.slot_duration, out=scratch)
        np.subtract(buffer_level, scratch, out=buffer_level)
        np.maximum(buffer_level, 0.0, out=buffer_level)

        # Finite-buffer overflow: bits beyond the playout buffer are
        # lost, not queued (drained calls only shrank, so they clamp to
        # a no-op exactly as the scalar loop's branch structure did).
        if self.buffer_size is not None:
            np.subtract(buffer_level, self.buffer_size, out=scratch)
            np.maximum(scratch, 0.0, out=scratch)
            if excess_out is not None:
                excess_out[:] = scratch
                np.minimum(
                    buffer_level, self.buffer_size, out=buffer_level
                )
            else:
                lost = float(scratch.sum())
                if lost > 0.0:
                    state.bits_lost += lost
                    np.minimum(
                        buffer_level, self.buffer_size, out=buffer_level
                    )

        # eq. 6: the AR(1) update on the true incoming rate.
        np.divide(arrivals, self.slot_duration, out=scratch)
        np.multiply(estimate, params.ar_coefficient, out=estimate)
        scratch *= 1.0 - params.ar_coefficient
        np.add(estimate, scratch, out=estimate)

        # eq. 7: flush-term correction, then quantise up to the grid.
        np.divide(buffer_level, self.time_constant, out=candidate)
        np.add(estimate, candidate, out=candidate)
        np.maximum(candidate, 0.0, out=candidate)
        candidate /= params.granularity
        candidate -= QUANTIZE_EPSILON
        np.ceil(candidate, out=candidate)
        candidate *= params.granularity
        if params.max_rate is not None:
            np.minimum(candidate, params.max_rate, out=candidate)

        # eq. 8: a crossing counts only in the direction of the change.
        np.greater(buffer_level, params.high_threshold, out=wants)
        np.greater(candidate, rate, out=compare)
        wants &= compare
        np.less(buffer_level, params.low_threshold, out=wants_down)
        np.less(candidate, rate, out=compare)
        wants_down &= compare
        wants |= wants_down
        return wants, candidate
