"""The gateway protocol every overload control plane drives: one link.

An :class:`~repro.overload.plane.OverloadControlPlane` and its policies
act on one link through a small protocol: ``overload_pressure``, a
``fleet`` of victims to choose from, and the actions
``overload_shrink_class`` / ``overload_evict`` / ``overload_readmit``.
:class:`LinkScopedOverloadAgent` presents link ``index`` of the gateway
through that protocol; the gateway runs one plane per link, each on its
own agent, whether the topology is the classic one link (link 0) or a
route graph.  The host gateway (:class:`~repro.server.gateway.RcbrGateway`)
supplies:

* ``link_members(index)`` — per flow group, the live calls whose route
  crosses link ``index`` (one crossing flag per route, built from the
  host's routes on each call and gathered on each group's route
  column, masked by ``active``), concatenated here in fixed group
  order;
* its per-call actions ``_shrink_call``, ``_evict_call`` and
  ``_readmit``.  The first two are addressed by event key and applied
  to *every* link on the call's route (shrinking a call on one
  congested edge frees its grant on all of them, exactly like a
  renegotiation); readmission binds a fresh route in the call's flow
  group, which the requeue entry carries.

Determinism: each plane draws on its gateway's plane stream, the planes
are polled in link order each epoch, and every member walk is in
ascending ``(group, slot)`` order, so same seed still means
byte-identical fingerprints.
"""

from __future__ import annotations

import numpy as np

from repro.util.slots import GROUP_STRIDE

__all__ = ["LinkScopedOverloadAgent"]


class LinkScopedOverloadAgent:
    """Link ``index`` of a gateway, presented through the protocol the
    overload plane and its policies drive.

    The agent is also the victim ``fleet`` the policies read: the
    concatenated per-group fleets in fixed group order, with ``active``
    True only for calls routed over the link (so a sacrifice victim
    search stays on-link).
    """

    def __init__(self, host, index: int) -> None:
        self.host = host
        self.index = index
        self.link = host.links[index]
        self.fleet = self

    @property
    def active(self) -> np.ndarray:
        return np.concatenate(self.host.link_members(self.index))

    @property
    def call_class(self) -> np.ndarray:
        return np.concatenate(
            [fleet.call_class for fleet in self.host._fleets]
        )

    @property
    def rate(self) -> np.ndarray:
        return np.concatenate(
            [fleet.rate for fleet in self.host._fleets]
        )

    def locate(self, view_slot: int) -> int:
        """Map a concatenated-view index back to the call's event key."""
        offset = 0
        for group, fleet in enumerate(self.host._fleets):
            size = int(fleet.active.size)
            if view_slot < offset + size:
                return group * GROUP_STRIDE + view_slot - offset
            offset += size
        raise IndexError(
            f"view slot {view_slot} beyond {offset} pooled slots"
        )

    # -- the gateway protocol the policies call -----------------------
    def overload_pressure(self) -> float:
        # RcbrLink rejects non-positive capacity, so the division is safe.
        link = self.link
        return max(link.allocated, link.total_demand) / link.capacity

    def overload_shrink_class(
        self, call_class: int, ratio: float, now: float
    ) -> int:
        # Ascending view order is ascending (group, slot) order.
        members = np.flatnonzero(
            self.active & (self.call_class == call_class)
        )
        return sum(
            self.host._shrink_call(self.locate(member), ratio, now)
            for member in members.tolist()
        )

    def overload_evict(self, view_slot: int, now: float):
        """The requeue entry carries the flow group, so readmission
        re-routes within the right group."""
        key = self.locate(int(view_slot))
        return (*self.host._evict_call(key, now), key // GROUP_STRIDE)

    def overload_readmit(self, entry, now: float) -> int:
        call_class, shift, remaining, group = entry
        return self.host._readmit(
            int(group), int(call_class), int(shift), float(remaining), now
        )
