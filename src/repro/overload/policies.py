"""The three overload policies the control plane can drive.

A policy never touches the link or the fleet directly: it asks its
link's agent (:class:`~repro.overload.linkagent.LinkScopedOverloadAgent`)
for *actions* (shrink a class's granted rates, evict a call, readmit a
queued one) and hands the fleet step a per-slot resolution
scale array.  All arithmetic on arrivals stays in
:mod:`repro.core.kernel`; all bandwidth bookkeeping stays in the
gateway's existing link/port/controller paths.  Policies therefore
compose with faults, retries, and every admission controller without
new special cases.

Determinism: a policy draws only from the dedicated overload RNG stream
the gateway spawns for it (victim tie-breaks), walks pool slots in
ascending order, and keeps plain-integer counters — same seed, same
decisions, bit for bit.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

import numpy as np


if TYPE_CHECKING:  # pragma: no cover
    from repro.overload.linkagent import LinkScopedOverloadAgent

__all__ = [
    "OVERLOAD_POLICY_NAMES",
    "OverloadPolicy",
    "BlockOnlyPolicy",
    "DowngradePolicy",
    "SacrificePolicy",
    "make_overload_policy",
    "policy_for_config",
]

#: Policy names accepted by :func:`make_overload_policy` and the CLI.
OVERLOAD_POLICY_NAMES = ("block", "downgrade", "sacrifice")

#: A sacrificed call waiting for readmission: (call_class, workload
#: shift, remaining holding time in seconds, flow group).  The policy
#: carries the tuple opaquely back to ``overload_readmit``.
QueuedCall = Tuple[int, int, float, int]


class OverloadPolicy:
    """Base policy: bound to a gateway by the control plane, driven once
    per epoch, contributing a section to the snapshot stream."""

    name = "base"

    def __init__(self) -> None:
        self._gateway: Optional["LinkScopedOverloadAgent"] = None
        self._num_classes = 1
        self._rng: Optional[np.random.Generator] = None
        self._enter = 1.0
        self._exit = 1.0

    def bind(
        self,
        gateway: "LinkScopedOverloadAgent",
        num_classes: int,
        rng: np.random.Generator,
        enter: float,
        exit_: float,
    ) -> None:
        self._gateway = gateway
        self._num_classes = int(num_classes)
        self._rng = rng
        self._enter = float(enter)
        self._exit = float(exit_)

    def on_epoch(
        self,
        overloaded: bool,
        entered: bool,
        exited: bool,
        pressure: float,
        tick: int,
        now: float,
    ) -> Optional[np.ndarray]:
        """One control decision per epoch; returns the per-slot
        resolution scale array for the fleet step, or ``None`` for the
        bit-identical no-downgrade path."""
        return None

    def section(self) -> Dict[str, Any]:
        """Policy counters for the snapshot's overload section."""
        return {}

    def state_dict(self) -> Dict[str, Any]:
        """Export mutable policy state for a checkpoint.

        Policies hold live gateway and RNG references through ``bind()``
        and so are never pickled as objects; the checkpoint stores this
        explicit state and replays it into a freshly bound policy.  The
        RNG stream itself is owned (and checkpointed) by the gateway.
        """
        return {}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` export into a bound policy."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BlockOnlyPolicy(OverloadPolicy):
    """The baseline: admission blocking is the only overload control.

    The gateway does not even instantiate a control plane for this
    policy, keeping the snapshot stream byte-identical to pre-overload
    builds; the class exists so comparison sweeps and the fluid model
    can treat "do nothing" as a first-class policy.
    """

    name = "block"


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
        ladder: Sequence[float] = (1.0, 0.75, 0.5, 0.35),
        dwell: int = 8,
    ) -> None:
        super().__init__()
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
        self.levels: "list[int]" = []
        self.escalations = 0
        self.restorations = 0
        self.calls_shrunk = 0
        self._last_action_tick: Optional[int] = None
        self._factors: Optional[np.ndarray] = None

    def bind(self, gateway, num_classes, rng, enter, exit_) -> None:
        super().bind(gateway, num_classes, rng, enter, exit_)
        self.levels = [0] * self._num_classes
        self._factors = np.ones(self._num_classes)

    def _due(self, tick: int) -> bool:
        return (
            self._last_action_tick is None
            or tick - self._last_action_tick >= self.dwell
        )

    def on_epoch(self, overloaded, entered, exited, pressure, tick, now):
        if overloaded and (entered or self._due(tick)):
            self._escalate(tick, now)
        elif not overloaded and any(self.levels) and self._due(tick):
            self._restore(tick)
        if not any(self.levels):
            return None
        # Per-slot scale: class factor fancy-indexed by the class column.
        # Inactive slots carry exact-zero arrivals, so their factor is
        # irrelevant to the kernel's accounting.
        return self._factors[self._gateway.fleet.call_class]

    def _escalate(self, tick: int, now: float) -> None:
        floor = len(self.ladder) - 1
        for call_class in range(self._num_classes - 1, -1, -1):
            level = self.levels[call_class]
            if level < floor:
                self.levels[call_class] = level + 1
                ratio = self.ladder[level + 1] / self.ladder[level]
                self._factors[call_class] = self.ladder[level + 1]
                self.calls_shrunk += self._gateway.overload_shrink_class(
                    call_class, ratio, now
                )
                self.escalations += 1
                self._last_action_tick = tick
                return

    def _restore(self, tick: int) -> None:
        for call_class in range(self._num_classes):
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
            "factors": None if self._factors is None else self._factors.copy(),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        self.levels = [int(level) for level in state["levels"]]
        self.escalations = int(state["escalations"])
        self.restorations = int(state["restorations"])
        self.calls_shrunk = int(state["calls_shrunk"])
        last = state["last_action_tick"]
        self._last_action_tick = None if last is None else int(last)
        factors = state["factors"]
        self._factors = None if factors is None else np.asarray(factors).copy()


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
        super().__init__()
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

    def on_epoch(self, overloaded, entered, exited, pressure, tick, now):
        gateway = self._gateway
        if overloaded:
            for _ in range(self.max_per_epoch):
                if gateway.overload_pressure() < self._enter:
                    break
                victim = self._select_victim()
                if victim is None:
                    break
                entry = gateway.overload_evict(victim, now)
                self.sacrificed += 1
                if len(self.queue) >= self.queue_size:
                    self.dropped += 1
                else:
                    self.queue.append(entry)
        else:
            for _ in range(self.max_per_epoch):
                if not self.queue:
                    break
                if gateway.overload_pressure() > self._exit:
                    break
                gateway.overload_readmit(self.queue.popleft(), now)
                self.readmitted += 1
        return None

    def _select_victim(self) -> Optional[int]:
        """Pool slot of the cheapest-to-displace active call."""
        fleet = self._gateway.fleet
        active = np.flatnonzero(fleet.active)
        if active.size == 0:
            return None
        classes = fleet.call_class[active]
        candidates = active[classes == classes.max()]
        rates = fleet.rate[candidates]
        ties = candidates[rates == rates.max()]
        if ties.size == 1:
            return int(ties[0])
        return int(ties[int(self._rng.integers(ties.size))])

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


def make_overload_policy(name: str, **kwargs) -> OverloadPolicy:
    """Build an overload policy by CLI name."""
    if name == "block":
        return BlockOnlyPolicy()
    if name == "downgrade":
        return DowngradePolicy(**kwargs)
    if name == "sacrifice":
        return SacrificePolicy(**kwargs)
    raise ValueError(
        f"unknown overload policy {name!r}; "
        f"expected one of {OVERLOAD_POLICY_NAMES}"
    )


def policy_for_config(config) -> Optional[OverloadPolicy]:
    """The policy a :class:`~repro.server.config.ServerConfig` asks a
    plane to drive, or None for ``block``: no plane at all, so the
    baseline takes the exact pre-overload code path."""
    if config.overload_policy == "downgrade":
        return DowngradePolicy(
            ladder=config.downgrade_ladder, dwell=config.overload_dwell
        )
    if config.overload_policy == "sacrifice":
        return SacrificePolicy(
            queue_size=config.sacrifice_queue,
            max_per_epoch=config.sacrifice_max_per_epoch,
        )
    return None
