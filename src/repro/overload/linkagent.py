"""Per-link overload adaptation for multi-bottleneck gateways.

The overload control plane and its policies were written against the
classic single-link gateway: pressure comes from ``gateway.link``, the
victim pool is ``gateway.fleet``, and actions go through
``overload_shrink_class`` / ``overload_evict`` / ``overload_readmit``.
On a route graph there is no single link — each bottleneck edge needs
its own hysteresis state and its own victim pool (the calls whose
routes traverse that edge).

:class:`LinkScopedOverloadAgent` closes that gap without touching the
plane or the policies: it presents one edge of a multi-link host
gateway through the exact gateway protocol the plane drives.  The
host (see :class:`~repro.scenarios.runtime.ScenarioGateway`) supplies:

* ``link_member_mask(key)`` — the live calls whose bound route
  traverses the edge, as a boolean column over the concatenated group
  fleets;
* the gateway's own per-call actions ``_shrink_call``, ``_evict_call``
  and ``_readmit``, which the classic gateway's overload actions use
  too.  The first two are addressed by event key and applied to
  *every* link on the call's route (shrinking a call on one congested
  edge frees its grant on all of them, exactly like a renegotiation);
  readmission binds a fresh route in the call's flow group.

Determinism: all per-link planes share one dedicated RNG stream drawn
in link-spec order each epoch, and every member walk is in ascending
``(group, slot)`` order, so same seed still means byte-identical
fingerprints.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.util.slots import GROUP_STRIDE

__all__ = ["LinkScopedOverloadAgent"]


class _MemberFleetView:
    """The concatenated per-group fleets, masked to one link's calls.

    Quacks like the single ``gateway.fleet`` the overload policies
    read: ``active`` is True only for calls routed over the link (so a
    sacrifice victim search stays on-link), while ``call_class`` and
    ``rate`` are the plain concatenation in fixed group order.
    """

    def __init__(self, host, key: Tuple[str, str]) -> None:
        self._host = host
        self._key = key

    @property
    def active(self) -> np.ndarray:
        mask = self._host.link_member_mask(self._key)
        stacked = np.concatenate(
            [fleet.active for fleet in self._host._fleets]
        )
        return stacked & mask

    @property
    def call_class(self) -> np.ndarray:
        return np.concatenate(
            [fleet.call_class for fleet in self._host._fleets]
        )

    @property
    def rate(self) -> np.ndarray:
        return np.concatenate(
            [fleet.rate for fleet in self._host._fleets]
        )

    def locate(self, view_slot: int) -> int:
        """Map a concatenated-view index back to the call's event key."""
        offset = 0
        for group, fleet in enumerate(self._host._fleets):
            size = int(fleet.active.size)
            if view_slot < offset + size:
                return group * GROUP_STRIDE + view_slot - offset
            offset += size
        raise IndexError(
            f"view slot {view_slot} beyond {offset} pooled slots"
        )


class LinkScopedOverloadAgent:
    """One bottleneck edge of a multi-link gateway, presented through
    the single-link gateway protocol the overload plane drives."""

    def __init__(self, host, key: Tuple[str, str], link) -> None:
        self.host = host
        self.key = key
        self.link = link
        self.fleet = _MemberFleetView(host, key)

    # -- the gateway protocol the policies call -----------------------
    def overload_pressure(self) -> float:
        # RcbrLink rejects non-positive capacity, so the division is safe.
        link = self.link
        return max(link.allocated, link.total_demand) / link.capacity

    def overload_shrink_class(
        self, call_class: int, ratio: float, now: float
    ) -> int:
        # Ascending view order is ascending (group, slot) order.
        fleet = self.fleet
        members = np.flatnonzero(
            fleet.active & (fleet.call_class == call_class)
        )
        return sum(
            self.host._shrink_call(fleet.locate(member), ratio, now)
            for member in members.tolist()
        )

    def overload_evict(self, view_slot: int, now: float):
        """The requeue entry carries the flow group, so readmission
        re-routes within the right group."""
        key = self.fleet.locate(int(view_slot))
        return (*self.host._evict_call(key, now), key // GROUP_STRIDE)

    def overload_readmit(self, entry, now: float) -> int:
        call_class, shift, remaining, group = entry
        return self.host._readmit(
            int(group), int(call_class), int(shift), float(remaining), now
        )
