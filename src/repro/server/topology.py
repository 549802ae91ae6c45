"""Per-flow-group and per-call records of the topology-general gateway.

The gateway (:class:`~repro.server.gateway.RcbrGateway`) holds its
topology as plain lists: one :class:`~repro.server.fleet.CallFleet` per
flow group, one :class:`~repro.queueing.link.RcbrLink` per link, and one
:class:`~repro.signaling.network.SignalingPath` per route.  The classic
service is the one-group, one-link, one-path case; the scenario runtime
builds a route graph.  This module holds the two records that ride
alongside those lists: :class:`GroupStats`, one flow group's lifecycle
counters, and :class:`CallBinding`, what a routed call reserved on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.queueing.link import RcbrLink
from repro.signaling.network import SignalingPath

__all__ = ["CallBinding", "GroupStats"]


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


@dataclass(frozen=True)
class CallBinding:
    """Everything a live call reserved: its route, path, and links."""

    group: int
    route: Tuple[str, ...]
    path: SignalingPath
    links: Tuple[RcbrLink, ...]
    #: Canonical edge keys along the route, aligned with ``links`` —
    #: cheap membership tests for per-link overload planes and port
    #: lookups without re-deriving the route's edges.
    edge_keys: Tuple[Tuple[str, str], ...] = ()
