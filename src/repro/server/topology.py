"""The records and per-link parts of the gateway's topology lists.

The gateway (:class:`~repro.server.gateway.RcbrGateway`) holds its
topology as plain lists: one :class:`~repro.server.fleet.CallFleet` per
flow group, one :class:`~repro.queueing.link.RcbrLink` per link, and one
:class:`Route` per distinct route, in construction order.  A
:class:`~repro.server.config.ServerConfig` compiles to the one-group,
one-link, one-route case; a multi-bottleneck scenario spec compiles to a
route graph.  This module holds what rides alongside those lists:
:class:`GroupStats`, one flow group's lifecycle counters;
:class:`Route`, what every call bound to a route reserves on and the
capacity its admission decision is made against;
:class:`BackgroundDriver`, one link's non-RCBR cross-traffic; and
:func:`network_section`, the per-link and per-group view of either
shape.  A call's binding is not a record: it is the call's entries in
two per-group integer columns the gateway holds, its route index and
its reservation handle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.queueing.link import RcbrLink
from repro.signaling.network import SignalingPath
from repro.signaling.switch import SwitchPort
from repro.signaling.topology import _edge_key
from repro.traffic.sources import make_source

__all__ = [
    "BACKGROUND_VCI",
    "BackgroundDriver",
    "GroupStats",
    "Route",
    "background_drivers",
    "network_section",
]

#: The reserved port VCI background cross-traffic occupies.
BACKGROUND_VCI = -1


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


class BackgroundDriver:
    """One link's background cross-traffic: a rate series (bits/s per
    epoch) that takes capacity from ``link`` and holds it on ``port``
    under :data:`BACKGROUND_VCI`.

    The gateway applies every driver just before each epoch step, so a
    checkpoint stamped ``next_tick=T`` saw the rate of tick ``T - 1``
    applied; :meth:`sync_to` re-derives it from the series, making
    kill-and-resume bit-exact with no checkpoint state of its own.
    """

    def __init__(self, series: np.ndarray, capacity: float, port, link) -> None:
        self.series = series
        self.capacity = float(capacity)
        self.port = port
        self.link = link
        #: The background rate applied to the link right now.
        self.rate = 0.0

    def apply(self, tick: int, now: float) -> None:
        rate = float(self.series[tick % self.series.size])
        previous = self.rate
        if rate != previous:
            self.rate = rate
            self.port.reprovision(BACKGROUND_VCI, rate - previous)
            self.link.set_capacity(self.capacity - rate, now)

    def sync_to(self, next_tick: int) -> None:
        """Align the applied rate with a gateway restored at ``next_tick``."""
        self.rate = (
            float(self.series[(next_tick - 1) % self.series.size])
            if next_tick > 0
            else 0.0
        )


def background_drivers(
    spec, ports: List[Any], links: List[Any], rng: np.random.Generator
) -> List[BackgroundDriver]:
    """One driver per background process of scenario ``spec``, over the
    bottleneck port and link of its edge (``ports`` and ``links`` in
    link-spec order).

    Every series is sampled on ``rng`` (the gateway's background
    stream), in background order, and clamped at the peak fraction so
    the RCBR side always keeps some capacity.
    """
    index = {
        _edge_key(link.u, link.v): position
        for position, link in enumerate(spec.links)
    }
    drivers = []
    for bg in spec.background:
        position = index[_edge_key(bg.u, bg.v)]
        capacity = spec.links[position].capacity
        source = make_source(
            bg.traffic,
            mean_rate=bg.mean_fraction * capacity,
            slot_duration=spec.slot_duration,
        )
        series = np.minimum(
            source.sample_workload(spec.source_slots, seed=rng).bits_per_slot
            / spec.slot_duration,
            bg.peak_fraction * capacity,
        )
        drivers.append(
            BackgroundDriver(
                series, capacity, ports[position], links[position]
            )
        )
    return drivers


def _link_entry(link, port, backgrounds, plane) -> Dict[str, object]:
    """One link's state: the live link, its bottleneck port, the
    background rate applied to it by any of ``backgrounds``, and its
    overload plane's section when one runs."""
    background = next(
        (driver.rate for driver in backgrounds if driver.link is link), 0.0
    )
    entry: Dict[str, object] = {
        "capacity": float(link.capacity),
        "allocated": float(link.allocated),
        "lost_bits": float(link.lost_bits),
        "failures": int(link.failure_count),
        "port_denied": int(port.requests_denied),
        "background": float(background),
    }
    # Only present when a plane exists, so block-policy snapshot
    # streams keep their pre-overload shape (and fingerprints).
    if plane is not None:
        entry["overload"] = plane.section()
    return entry


def network_section(spec, gateway) -> Dict[str, object]:
    """The per-link and per-flow-group view of ``gateway`` serving
    scenario ``spec``, for either topology shape: one entry per link
    (with its bottleneck port and overload plane) and one per flow group,
    keyed as the spec names them.  It is a route graph's snapshot
    ``network`` section and every scenario result's ``links``/``groups``."""
    links = gateway.links
    bottlenecks = gateway.ports[-len(links):]
    return {
        "links": {
            f"{link_spec.u}~{link_spec.v}": _link_entry(
                link, port, gateway.backgrounds, plane
            )
            for link_spec, link, port, plane in zip(
                spec.links, links, bottlenecks, gateway.link_planes
            )
        },
        "groups": {
            flow.name: {"active": int(fleet.num_active), **asdict(stats)}
            for flow, fleet, stats in zip(
                spec.flows, gateway._fleets, gateway.group_stats
            )
        },
    }
