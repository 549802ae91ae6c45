"""The overload policies a link's control plane can drive.

A policy holds no reference to the gateway: each epoch its plane
(:class:`~repro.overload.plane.OverloadControlPlane`) hands itself to
:meth:`OverloadPolicy.on_epoch`, and the policy acts on the plane's
link members through the gateway's per-call actions, by event key
(shrink a call's granted rate, evict a call, readmit a queued one),
and hands the fleet step a per-class resolution factor array.  All
arithmetic on arrivals stays in :mod:`repro.core.kernel`; all bandwidth
bookkeeping stays in the gateway's existing link/port/controller paths.
Policies therefore compose with faults, retries, and every admission
controller without new special cases.  The ``block`` baseline is no
policy at all: :func:`policy_for_config` returns None and the gateway
builds no plane.

Determinism: a policy draws only from its plane's dedicated overload
RNG stream (victim tie-breaks), walks calls in ascending ``(group,
slot)`` order, and keeps plain-integer counters — same seed, same
decisions, bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.util.slots import GROUP_STRIDE

if TYPE_CHECKING:  # pragma: no cover
    from repro.overload.plane import OverloadControlPlane

__all__ = [
    "OVERLOAD_POLICY_NAMES",
    "OverloadPolicy",
    "DowngradePolicy",
    "SacrificePolicy",
    "policy_for_config",
]

#: Policy names accepted by ``ServerConfig.overload_policy`` and the CLI.
OVERLOAD_POLICY_NAMES = ("block", "downgrade", "sacrifice")

#: A sacrificed call waiting for readmission: (call_class, workload
#: shift, remaining holding time in seconds, flow group).  The policy
#: carries the tuple back to the gateway's ``_readmit``.
QueuedCall = Tuple[int, int, float, int]


class OverloadPolicy:
    """Base policy: driven once per epoch by its link's plane,
    contributing a section to the snapshot stream."""

    name = "base"

    def on_epoch(
        self,
        plane: "OverloadControlPlane",
        entered: bool,
        tick: int,
        now: float,
    ) -> Optional[np.ndarray]:
        """One control decision per epoch, on ``plane``'s link (just
        entered overload if ``entered``); returns the per-class
        resolution factors for the fleet step, or ``None`` for the
        bit-identical no-downgrade path."""
        return None

    def section(self) -> Dict[str, Any]:
        """Policy counters for the snapshot's overload section."""
        return {}

    def state_dict(self) -> Dict[str, Any]:
        """Export mutable policy state for a checkpoint.

        The RNG stream the policy draws on is owned (and checkpointed)
        by the gateway.
        """
        return {}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` export."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DowngradePolicy(OverloadPolicy):
    """Walk service classes down a resolution ladder under pressure.

    While the plane is in overload, every ``dwell`` epochs the policy
    escalates one rung: the lowest-priority class (highest index) not
    yet at the ladder floor drops one level.  Escalating a class does
    two things — its future arrivals shrink by the ladder factor (the
    source re-encodes at lower fidelity, applied through the kernel's
    downgrade mask), and its calls' *currently granted* rates shrink
    proportionally right away, freeing link bandwidth this epoch rather
    than an AR(1) time-constant later.  When pressure clears, classes
    are restored premium-first (lowest index), one rung per ``dwell``
    epochs; granted rates recover through ordinary renegotiation as the
    restored arrivals refill the buffers.
    """

    name = "downgrade"

    def __init__(
        self,
        num_classes: int,
        ladder: Sequence[float] = (1.0, 0.75, 0.5, 0.35),
        dwell: int = 8,
    ) -> None:
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        ladder = tuple(float(factor) for factor in ladder)
        if len(ladder) < 2:
            raise ValueError("ladder needs at least two rungs")
        if ladder[0] != 1.0:
            raise ValueError("ladder must start at full resolution (1.0)")
        if any(
            not 0.0 < after < before
            for before, after in zip(ladder, ladder[1:])
        ):
            raise ValueError("ladder must be strictly decreasing in (0, 1]")
        if dwell < 1:
            raise ValueError("dwell must be >= 1")
        self.ladder = ladder
        self.dwell = int(dwell)
        self.levels = [0] * int(num_classes)
        self.escalations = 0
        self.restorations = 0
        self.calls_shrunk = 0
        self._last_action_tick: Optional[int] = None
        self._factors = np.ones(int(num_classes))

    def _due(self, tick: int) -> bool:
        return (
            self._last_action_tick is None
            or tick - self._last_action_tick >= self.dwell
        )

    def on_epoch(self, plane, entered, tick, now):
        if plane.overloaded and (entered or self._due(tick)):
            self._escalate(plane, tick, now)
        elif not plane.overloaded and any(self.levels) and self._due(tick):
            self._restore(tick)
        # The gateway gathers the factors by each call's class.
        return self._factors if any(self.levels) else None

    def _escalate(self, plane, tick: int, now: float) -> None:
        floor = len(self.ladder) - 1
        for call_class in range(len(self.levels) - 1, -1, -1):
            level = self.levels[call_class]
            if level < floor:
                self.levels[call_class] = level + 1
                ratio = self.ladder[level + 1] / self.ladder[level]
                self._factors[call_class] = self.ladder[level + 1]
                self.calls_shrunk += self._shrink_class(
                    plane, call_class, ratio, now
                )
                self.escalations += 1
                self._last_action_tick = tick
                return

    @staticmethod
    def _shrink_class(plane, call_class: int, ratio: float, now: float) -> int:
        """Shrink every link member of ``call_class`` by ``ratio``, in
        ascending (group, slot) order; returns how many moved."""
        gateway = plane.gateway
        shrunk = 0
        for group, (members, fleet) in enumerate(
            zip(plane.members(), gateway._fleets)
        ):
            slots = np.flatnonzero(members & (fleet.call_class == call_class))
            for slot in slots.tolist():
                shrunk += gateway._shrink_call(
                    group * GROUP_STRIDE + slot, ratio, now
                )
        return shrunk

    def _restore(self, tick: int) -> None:
        for call_class in range(len(self.levels)):
            level = self.levels[call_class]
            if level > 0:
                self.levels[call_class] = level - 1
                self._factors[call_class] = self.ladder[level - 1]
                self.restorations += 1
                self._last_action_tick = tick
                return

    def section(self) -> Dict[str, Any]:
        return {
            "levels": list(self.levels),
            "escalations": self.escalations,
            "restorations": self.restorations,
            "calls_shrunk": self.calls_shrunk,
        }

    def state_dict(self) -> Dict[str, Any]:
        return {
            "levels": list(self.levels),
            "escalations": self.escalations,
            "restorations": self.restorations,
            "calls_shrunk": self.calls_shrunk,
            "last_action_tick": self._last_action_tick,
            "factors": self._factors.copy(),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self.levels = [int(level) for level in state["levels"]]
        self.escalations = int(state["escalations"])
        self.restorations = int(state["restorations"])
        self.calls_shrunk = int(state["calls_shrunk"])
        last = state["last_action_tick"]
        self._last_action_tick = None if last is None else int(last)
        self._factors = np.asarray(state["factors"]).copy()


class SacrificePolicy(OverloadPolicy):
    """Temporarily evict the cheapest-to-displace calls under pressure.

    While the plane is in overload, up to ``max_per_epoch`` calls per
    epoch are evicted for as long as pressure sits at or above the
    enter threshold.  The victim is the cheapest to displace: lowest
    priority class first (highest index), largest granted rate within
    the class (frees the most bandwidth per displaced user), exact ties
    broken from the policy's seeded stream.  Evicted calls keep their
    identity — class, workload shift, and *remaining* holding time — in
    a bounded FIFO queue; once the plane returns to normal and pressure
    is at or below the exit threshold they are readmitted (as fresh
    call ids, so stale in-flight renegotiations cannot collide).  A
    full queue drops the evictee outright: sacrifice under a standing
    queue is real loss and is counted as such.
    """

    name = "sacrifice"

    def __init__(self, queue_size: int = 64, max_per_epoch: int = 2) -> None:
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if max_per_epoch < 1:
            raise ValueError("max_per_epoch must be >= 1")
        self.queue_size = int(queue_size)
        self.max_per_epoch = int(max_per_epoch)
        self.queue: "deque[QueuedCall]" = deque()
        self.sacrificed = 0
        self.readmitted = 0
        self.dropped = 0

    def on_epoch(self, plane, entered, tick, now):
        gateway = plane.gateway
        if plane.overloaded:
            for _ in range(self.max_per_epoch):
                if plane.pressure() < plane.enter:
                    break
                key = self._select_victim(plane)
                if key is None:
                    break
                # The entry carries the flow group, so readmission
                # re-routes within the right group.
                entry = (*gateway._evict_call(key, now), key // GROUP_STRIDE)
                self.sacrificed += 1
                if len(self.queue) >= self.queue_size:
                    self.dropped += 1
                else:
                    self.queue.append(entry)
        else:
            for _ in range(self.max_per_epoch):
                if not self.queue:
                    break
                if plane.pressure() > plane.exit:
                    break
                call_class, shift, remaining, group = self.queue.popleft()
                gateway._readmit(group, call_class, shift, remaining, now)
                self.readmitted += 1
        return None

    @staticmethod
    def _select_victim(plane) -> Optional[int]:
        """Event key of the cheapest-to-displace call on the plane's
        link; candidates in ascending (group, slot) order."""
        members = plane.members()
        fleets = plane.gateway._fleets
        keys = np.concatenate([
            np.flatnonzero(mask) + group * GROUP_STRIDE
            for group, mask in enumerate(members)
        ])
        if keys.size == 0:
            return None
        classes = np.concatenate(
            [fleet.call_class[mask] for fleet, mask in zip(fleets, members)]
        )
        rates = np.concatenate(
            [fleet.rate[mask] for fleet, mask in zip(fleets, members)]
        )
        top = classes == classes.max()
        keys, rates = keys[top], rates[top]
        ties = keys[rates == rates.max()]
        if ties.size == 1:
            return int(ties[0])
        return int(ties[int(plane.rng.integers(ties.size))])

    def section(self) -> Dict[str, Any]:
        return {
            "sacrificed": self.sacrificed,
            "readmitted": self.readmitted,
            "dropped": self.dropped,
            "queued": len(self.queue),
        }

    def state_dict(self) -> Dict[str, Any]:
        return {
            "queue": list(self.queue),
            "sacrificed": self.sacrificed,
            "readmitted": self.readmitted,
            "dropped": self.dropped,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self.queue = deque(
            (int(entry[0]), int(entry[1]), float(entry[2]), int(entry[3]))
            for entry in state["queue"]
        )
        self.sacrificed = int(state["sacrificed"])
        self.readmitted = int(state["readmitted"])
        self.dropped = int(state["dropped"])


def policy_for_config(config) -> Optional[OverloadPolicy]:
    """The policy a :class:`~repro.server.config.ServerConfig` asks a
    plane to drive, or None for ``block``: no plane at all, so the
    baseline takes the exact pre-overload code path."""
    if config.overload_policy == "downgrade":
        return DowngradePolicy(
            config.overload_classes,
            ladder=config.downgrade_ladder,
            dwell=config.overload_dwell,
        )
    if config.overload_policy == "sacrifice":
        return SacrificePolicy(
            queue_size=config.sacrifice_queue,
            max_per_epoch=config.sacrifice_max_per_epoch,
        )
    return None
