"""The hysteresis state machine watching pressure on one link.

The gateway runs one plane per link.  A plane knows its gateway and
its link's index; it measures the link's pressure itself and hands
itself to its policy, which acts on the gateway's calls by event key
(``group * GROUP_STRIDE + slot``):

* :meth:`OverloadControlPlane.members` — per flow group, the live calls
  routed over the link (the gateway's ``link_members``);
* the gateway's per-call actions ``_shrink_call``, ``_evict_call`` and
  ``_readmit``.  The first two are addressed by event key and applied
  to *every* link on the call's route (shrinking a call on one
  congested edge frees its grant on all of them, exactly like a
  renegotiation); readmission binds a fresh route in the call's flow
  group, which the requeue entry carries.

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
flapping on one bursty epoch.  The policy is consulted exactly once
per epoch either way, so its counters and RNG draws stay on a
deterministic schedule.

Determinism: every plane draws on its gateway's plane stream, the
planes are polled in link order each epoch, and every member walk is
in ascending ``(group, slot)`` order, so same seed still means
byte-identical fingerprints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.overload.policies import OverloadPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.gateway import RcbrGateway


class OverloadControlPlane:
    """Drives one overload policy on link ``index`` of ``gateway`` from
    the gateway's epoch loop."""

    def __init__(
        self,
        gateway: "RcbrGateway",
        index: int,
        policy: OverloadPolicy,
        enter: float,
        exit_: float,
        dwell: int,
        rng: np.random.Generator,
    ) -> None:
        if not 0.0 < exit_ < enter:
            raise ValueError("need 0 < exit < enter threshold")
        if dwell < 1:
            raise ValueError("dwell must be >= 1")
        self.gateway = gateway
        self.index = int(index)
        self.link = gateway.links[self.index]
        self.policy = policy
        self.enter = float(enter)
        self.exit = float(exit_)
        self.dwell = int(dwell)
        self.rng = rng

        self.overloaded = False
        self.last_pressure = 0.0
        self.entries = 0
        self.exits = 0
        self.epochs_overloaded = 0
        self._above = 0
        self._below = 0

    def pressure(self) -> float:
        """The link's max(allocated, demand) / capacity."""
        # RcbrLink rejects non-positive capacity, so the division is safe.
        link = self.link
        return max(link.allocated, link.total_demand) / link.capacity

    def members(self) -> List[np.ndarray]:
        """Per flow group, which pool slots hold a live call routed over
        the link."""
        return self.gateway.link_members(self.index)

    def on_epoch(self, tick: int, now: float) -> Optional[np.ndarray]:
        """One hysteresis update + one policy decision; returns the
        policy's per-class downgrade factors for this epoch's fleet
        step, or None."""
        pressure = self.pressure()
        self.last_pressure = pressure
        entered = False
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
                self._below = 0
        if self.overloaded:
            self.epochs_overloaded += 1
        return self.policy.on_epoch(self, entered, tick, now)

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
        """Export hysteresis state plus the policy's state.

        The plane holds live references to the gateway and its RNG and
        is therefore never pickled wholesale; the restored gateway
        builds a fresh plane and reloads it from this explicit state.
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
        """Restore a :meth:`state_dict` export."""
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
