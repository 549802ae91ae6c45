"""Network-level signaling: alternate routes and call-level load balancing.

Section III-C conjectures: "if there is a simultaneous increase in the
number of alternate routes in the network, then load balancing at the
call level might reduce the load at each hop, thus compensating for
[multi-hop failure growth].  This is still an open area for research."

This module makes the conjecture testable: a :class:`SignalingNetwork`
wraps a (networkx) topology whose edges are switch ports; calls pick
among the ``k`` shortest routes the one with the most bottleneck
headroom at setup, then renegotiate along it for their lifetime.
``benchmarks/test_alternate_routing.py`` measures the failure-probability
reduction as ``k`` grows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.schedule import RateSchedule
from repro.signaling.network import SignalingPath
from repro.signaling.switch import SwitchPort
from repro.util.rng import SeedLike, as_generator


def _edge_key(u, v) -> Tuple:
    """Canonical undirected edge key: ``_edge_key(u, v) == _edge_key(v, u)``.

    Ordering contract (stable across processes and documented so port
    names and dict iteration order are reproducible):

    1. Same-type endpoints order by their own ``<`` when they support it
       — ints numerically, strings lexicographically.
    2. Otherwise (mixed types, or types without a total order) endpoints
       order by ``(type module, qualified name, repr)``.

    The old implementation compared bare ``repr`` strings, which is
    wrong for ints (``repr(10) < repr(9)``) and unstable for objects
    whose default ``repr`` embeds the memory address.
    """
    if type(u) is type(v):
        try:
            return (u, v) if u <= v else (v, u)
        except TypeError:
            pass
    a = (type(u).__module__, type(u).__qualname__, repr(u))
    b = (type(v).__module__, type(v).__qualname__, repr(v))
    return (u, v) if a <= b else (v, u)


class SignalingNetwork:
    """A topology of switch ports supporting alternate-route selection."""

    def __init__(
        self,
        graph: nx.Graph,
        default_capacity: float = 100e6,
        hop_delay: float = 0.001,
        seed: SeedLike = None,
    ) -> None:
        if graph.number_of_edges() == 0:
            raise ValueError("the topology needs at least one link")
        self.graph = graph
        self.hop_delay = hop_delay
        self.rng = as_generator(seed)
        self._ports: Dict[Tuple, SwitchPort] = {}
        for u, v, data in graph.edges(data=True):
            capacity = float(data.get("capacity", default_capacity))
            key = _edge_key(u, v)
            self._ports[key] = SwitchPort(capacity, name=f"{u}<->{v}")

    # ------------------------------------------------------------------
    @property
    def ports(self) -> Dict[Tuple, SwitchPort]:
        return dict(self._ports)

    def port_between(self, u, v) -> SwitchPort:
        return self._ports[_edge_key(u, v)]

    def _path_ports(self, node_path: Sequence) -> List[SwitchPort]:
        return [
            self.port_between(u, v)
            for u, v in zip(node_path[:-1], node_path[1:])
        ]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def k_shortest_paths(self, source, target, k: int) -> List[List]:
        """Up to ``k`` loop-free paths in increasing hop count."""
        if k < 1:
            raise ValueError("k must be >= 1")
        generator = nx.shortest_simple_paths(self.graph, source, target)
        return list(itertools.islice(generator, k))

    def select_route(self, source, target, k: int = 1) -> List:
        """Pick the candidate route with the most bottleneck headroom.

        ``k = 1`` is plain shortest-path routing; larger ``k`` enables
        the call-level load balancing of Section III-C.  Ties go to the
        shorter route.  The choice does not depend on the call's rate:
        when no candidate has room for it, the per-hop admission check
        on the chosen route denies.
        """
        candidates = self.k_shortest_paths(source, target, k)

        def bottleneck(path) -> float:
            return min(port.headroom for port in self._path_ports(path))

        return max(candidates, key=bottleneck)

    def attach(
        self,
        source,
        target,
        k: int = 1,
        cell_loss_probability: float = 0.0,
        faults=None,
        request_timeout: Optional[float] = None,
        max_retries: int = 0,
    ) -> SignalingPath:
        """A :class:`SignalingPath` along the selected route.

        ``faults`` (a :class:`~repro.faults.injectors.FaultPlan`),
        ``request_timeout``, and ``max_retries`` configure the hardened
        signaling behaviour; the defaults reproduce the paper's fragile
        fire-and-forget cells.
        """
        route = self.select_route(source, target, k)
        return SignalingPath(
            self._path_ports(route),
            hop_delay=self.hop_delay,
            cell_loss_probability=cell_loss_probability,
            seed=self.rng,
            faults=faults,
            request_timeout=request_timeout,
            max_retries=max_retries,
        )

    # ------------------------------------------------------------------
    def total_cells_processed(self) -> int:
        return sum(port.cells_processed for port in self._ports.values())

    def max_port_utilization(self) -> float:
        return max(
            port.utilization / port.capacity for port in self._ports.values()
        )


@dataclass
class NetworkSimulationResult:
    """Aggregate outcome of routing many calls through the network."""

    increase_requests: int = 0
    failures: int = 0
    paths: List[SignalingPath] = field(default_factory=list)

    @property
    def failure_fraction(self) -> float:
        if self.increase_requests == 0:
            return 0.0
        return self.failures / self.increase_requests

    def failure_hop_histogram(self) -> Dict[int, int]:
        """Aggregate, across all calls, how often each hop index denied."""
        histogram: Dict[int, int] = {}
        for path in self.paths:
            for hop, count in path.stats.failure_hop_histogram().items():
                histogram[hop] = histogram.get(hop, 0) + count
        return histogram


def simulate_calls_on_network(
    network: SignalingNetwork,
    calls: Sequence[Tuple[object, object, RateSchedule]],
    k: int = 1,
    faults=None,
    max_retries: int = 0,
) -> NetworkSimulationResult:
    """Route and replay the calls concurrently on a shared clock.

    Setup happens in call order — each call's route selection and initial
    reservation see all earlier calls' reservations — then every call's
    renegotiations run interleaved in time on one event clock, so the
    calls genuinely contend for the links.  VCIs are unique per call.
    """
    from repro.queueing.events import EventScheduler
    from repro.signaling.messages import RenegotiationRequest

    if not calls:
        raise ValueError("need at least one call")
    result = NetworkSimulationResult()
    engine = EventScheduler()
    believed: List[float] = []
    paths: List[SignalingPath] = []

    # Setup in order: select route, reserve the initial rate.
    for vci, (source, target, schedule) in enumerate(calls):
        initial = float(schedule.rates[0])
        path = network.attach(
            source,
            target,
            k=k,
            faults=faults,
            max_retries=max_retries,
        )
        request = RenegotiationRequest(
            vci=vci, old_rate=0.0, new_rate=initial, time=0.0
        )
        granted = path.renegotiate(request)
        believed.append(initial if granted else 0.0)
        paths.append(path)

    def issue(vci: int, new_rate: float) -> None:
        request = RenegotiationRequest(
            vci=vci,
            old_rate=believed[vci],
            new_rate=new_rate,
            time=engine.now,
        )
        if paths[vci].renegotiate(request):
            believed[vci] = new_rate

    horizon = 0.0
    for vci, (_, _, schedule) in enumerate(calls):
        for event in schedule.renegotiations():
            engine.schedule_at(event.time, issue, vci, event.new_rate)
        horizon = max(horizon, schedule.duration)
    engine.run(until=horizon)
    for vci, path in enumerate(paths):
        path.release(vci)

    for path in paths:
        result.increase_requests += path.stats.increase_requests
        result.failures += path.stats.failures
        result.paths.append(path)
    return result
