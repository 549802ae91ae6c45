"""The hysteresis state machine watching pressure on one link.

The gateway runs one plane per link, each driving its policy through a
:class:`~repro.overload.linkagent.LinkScopedOverloadAgent` for that
link: the agent reports the pressure, offers the victims and carries
out the policy's actions.

Pressure is ``max(allocated, total demand) / capacity``: allocated
bandwidth measures what the link has committed, total demand includes
the shortfall the link could not grant — the earliest and strongest
overload signal, because a saturated link keeps ``allocated`` pinned
at capacity while demand keeps climbing.

The state machine is deliberately sluggish: pressure must sit at or
above the enter threshold for ``dwell`` consecutive epochs before the
plane declares overload, and at or below the (strictly lower) exit
threshold for ``dwell`` consecutive epochs before it relaxes — the
classic two-threshold-plus-dwell hysteresis that keeps the policy from
flapping on one bursty epoch.  The bound policy is consulted exactly
once per epoch either way, so its counters and RNG draws stay on a
deterministic schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from repro.overload.policies import OverloadPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.overload.linkagent import LinkScopedOverloadAgent


class OverloadControlPlane:
    """Drives one overload policy on one link from the gateway's epoch
    loop; ``gateway`` is the link's agent."""

    def __init__(
        self,
        gateway: "LinkScopedOverloadAgent",
        policy: OverloadPolicy,
        enter: float,
        exit_: float,
        dwell: int,
        num_classes: int,
        rng: np.random.Generator,
    ) -> None:
        if not 0.0 < exit_ < enter:
            raise ValueError("need 0 < exit < enter threshold")
        if dwell < 1:
            raise ValueError("dwell must be >= 1")
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        self.gateway = gateway
        self.policy = policy
        self.enter = float(enter)
        self.exit = float(exit_)
        self.dwell = int(dwell)
        self.num_classes = int(num_classes)
        policy.bind(gateway, num_classes, rng, self.enter, self.exit)

        self.overloaded = False
        self.last_pressure = 0.0
        self.entries = 0
        self.exits = 0
        self.epochs_overloaded = 0
        self._above = 0
        self._below = 0

    def pressure(self) -> float:
        """The watched link's pressure, as its agent reports it:
        max(allocated, demand) / capacity."""
        return self.gateway.overload_pressure()

    def on_epoch(self, tick: int, now: float) -> Optional[np.ndarray]:
        """One hysteresis update + one policy decision; returns the
        policy's downgrade scale array for this epoch's fleet step."""
        pressure = self.pressure()
        self.last_pressure = pressure
        entered = exited = False
        if not self.overloaded:
            self._above = self._above + 1 if pressure >= self.enter else 0
            if self._above >= self.dwell:
                self.overloaded = True
                self.entries += 1
                entered = True
                self._above = 0
        else:
            self._below = self._below + 1 if pressure <= self.exit else 0
            if self._below >= self.dwell:
                self.overloaded = False
                self.exits += 1
                exited = True
                self._below = 0
        if self.overloaded:
            self.epochs_overloaded += 1
        return self.policy.on_epoch(
            self.overloaded, entered, exited, pressure, tick, now
        )

    def section(self) -> Dict[str, Any]:
        """The snapshot stream's overload section (fingerprinted, so
        every value must be deterministically renderable)."""
        section: Dict[str, Any] = {
            "policy": self.policy.name,
            "state": 1 if self.overloaded else 0,
            "pressure": self.last_pressure,
            "entries": self.entries,
            "exits": self.exits,
            "epochs_overloaded": self.epochs_overloaded,
        }
        section.update(self.policy.section())
        return section

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Export hysteresis state plus the bound policy's state.

        The policy holds live references to the gateway and its RNG via
        ``bind()`` and is therefore never pickled wholesale; the restored
        plane's policy is freshly bound to the new gateway and reloaded
        from this explicit state.
        """
        return {
            "overloaded": self.overloaded,
            "last_pressure": self.last_pressure,
            "entries": self.entries,
            "exits": self.exits,
            "epochs_overloaded": self.epochs_overloaded,
            "above": self._above,
            "below": self._below,
            "policy": self.policy.state_dict(),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` export into a bound plane."""
        self.overloaded = bool(state["overloaded"])
        self.last_pressure = float(state["last_pressure"])
        self.entries = int(state["entries"])
        self.exits = int(state["exits"])
        self.epochs_overloaded = int(state["epochs_overloaded"])
        self._above = int(state["above"])
        self._below = int(state["below"])
        self.policy.load_state(state["policy"])

    def __repr__(self) -> str:
        state = "overload" if self.overloaded else "normal"
        return (
            f"OverloadControlPlane({self.policy.name}, {state}, "
            f"pressure={self.last_pressure:.3f})"
        )
