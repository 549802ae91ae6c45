"""Per-flow-group and per-route records of the topology-general gateway.

The gateway (:class:`~repro.server.gateway.RcbrGateway`) holds its
topology as plain lists: one :class:`~repro.server.fleet.CallFleet` per
flow group, one :class:`~repro.queueing.link.RcbrLink` per link, and one
:class:`Route` per distinct route, in creation order.  The classic
service is the one-group, one-link, one-route case; the scenario runtime
builds a route graph.  This module holds the two records that ride
alongside those lists: :class:`GroupStats`, one flow group's lifecycle
counters, and :class:`Route`, what every call bound to a route reserves
on and the capacity its admission decision is made against.  A call's
binding is not a record: it is the call's entries in two per-group
integer columns the gateway holds, its route index and its
reservation handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.queueing.link import RcbrLink
from repro.signaling.network import SignalingPath
from repro.signaling.switch import SwitchPort

__all__ = ["GroupStats", "Route"]


@dataclass
class GroupStats:
    """Cumulative per-flow-group lifecycle counters.

    The gateway keeps one per fleet, and every setup and lifecycle step
    counts into it; the classic service is flow group 0, so there it
    equals the gateway's totals.
    """

    arrivals: int = 0
    blocked: int = 0
    admitted: int = 0
    departed: int = 0
    abandoned: int = 0
    reneg_requests: int = 0
    reneg_denied: int = 0


@dataclass(frozen=True, eq=False)
class Route:
    """One distinct route, shared by every call bound to it: its
    ``index`` in the gateway's route list (the value a bound call's
    route column holds), the links and ports (its path's) a call
    reserves on, the signaling path its renegotiations travel, and the
    bottleneck ``capacity`` the CAC decides against.  On a graph,
    ``nodes`` names the route; it is empty on the classic one-link
    service.
    """

    index: int
    links: Tuple[RcbrLink, ...]
    path: SignalingPath
    ports: Tuple[SwitchPort, ...]
    capacity: float
    nodes: Tuple[str, ...] = ()
