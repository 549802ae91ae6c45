"""Scenario execution: the topology-general gateway and its harness.

Every scenario runs on one serving core.  A **single-bottleneck** spec
(one link, one flow group) builds the classic gateway via
:func:`~repro.server.gateway.build_gateway` — the degenerate one-edge
topology — while a **multi-bottleneck** spec builds
:class:`ScenarioGateway`, a subclass serving one
:class:`~repro.server.fleet.CallFleet` per flow group over per-edge
:class:`~repro.queueing.link.RcbrLink`s and per-route
:class:`~repro.signaling.network.SignalingPath`s through a shared
:class:`~repro.signaling.topology.SignalingNetwork`.  Both shapes hold
their topology as the base gateway's plain lists (fleets, links,
ports, paths, per-link overload planes), which the base snapshot,
report, checkpoint and close fold over, and both are driven through
:class:`ScenarioHarness`, so shards, checkpoint/resume, overload
planes, and MBAC admission work identically on every spec.

The subclass builds its topology once, in its own construction step
(:meth:`ScenarioGateway._build_topology`), and overrides route
selection; everything else a call goes through — the admission
decision, install, preload, readmission, the per-group arrival
process, the epoch step, renegotiation issue and completion, teardown
— is the base gateway's, written once over the call's shared route
record and its per-group binding columns.
Background cross-traffic is one :class:`BackgroundDriver` per link in
both shapes, held and applied by the base gateway.  One function,
:func:`network_section`, gives the per-link and per-group view of
either shape.

Determinism contract.  Four scenario streams are appended to the
classic six via the SeedSequence spawn-prefix property
(``spawn_generators(seed, 10)[6:]`` leaves streams 0-5 identical):
stream 6 samples the per-group workloads in flow order, stream 7 the
background series in background order, stream 8 seeds route signaling
paths (one shared generator threaded through every route path), and
stream 9 drives the per-link overload planes, polled in link-spec
order each epoch.  Per offered call the draw order is the classic
one: service class (overload stream), route choice, the admission
decision, then workload shift (call stream), then — only if admitted —
holding time (call stream).  Per epoch the merge
order is: background capacity updates in background order, then the
per-link overload planes in link-spec order, then one fleet step per
flow group in flow order, renegotiations issuing in ascending
pool-slot order within each group: one batch when no fault plan runs
and the group's stepped calls share a route, else call by call, the
answers landing as one completion batch per distinct round-trip time.
Event-heap callbacks address calls by ``group * GROUP_STRIDE + slot``.
Same seed (and fault seed) => bit-identical snapshot stream for shards
∈ {0, 1, N}, and ``run(T1); save; restore; run(T2)`` equals
``run(T1 + T2)``.

The setup transport is the one call-setup difference from the classic
runtime, by design, and it is topology data (``_setup_travels``): a
call's initial rate travels its route as a real reservation
(``path.renegotiate`` from rate 0), so a hop without headroom *blocks*
the call — on a network, admission is the ports' decision, which is
exactly the back-pressure the multi-hop experiments measure.  An MBAC
controller composes with that: the one
:meth:`~repro.server.gateway.RcbrGateway._offer` vets the call against
its route's bottleneck capacity *before* the setup travels.
Renegotiations then travel the same path under faults, and granted
rates are mirrored onto every traversed link (taking the minimum
grant, equalizing over-grants down), so per-link utilization and loss
integrals stay honest.

Overload beyond blocking: with ``overload_policy`` ≠ ``block`` the
gateway runs one :class:`~repro.overload.plane.OverloadControlPlane`
per bottleneck link, each driving the existing downgrade/sacrifice
policy through a :class:`~repro.overload.linkagent.LinkScopedOverloadAgent`
whose victim pool is the calls routed over that link (the base
gateway's ``link_members``: a crossing flag per route, gathered on each
group's route column).
Downgrade factors from multiple congested links combine per call by
minimum.
With the default ``block`` policy no plane exists and the epoch
sequence is byte-identical to the pre-overload runtime.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import networkx as nx
import numpy as np

from repro.admission.callsim import arrival_rate_for_load
from repro.faults.injectors import FaultPlan
from repro.overload.linkagent import LinkScopedOverloadAgent
from repro.overload.plane import OverloadControlPlane
from repro.overload.policies import policy_for_config
from repro.queueing.link import RcbrLink
from repro.scenarios.registry import resolve_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.server.config import ServerConfig
from repro.server.gateway import RcbrGateway, build_gateway
from repro.server.stats import ServerReport
from repro.server.topology import GroupStats, Route
from repro.signaling.network import SignalingPath
from repro.signaling.topology import SignalingNetwork, _edge_key
from repro.traffic.sources import make_source
from repro.util.rng import spawn_generators
from repro.util.slots import SlotInterner

#: The reserved port VCI background cross-traffic occupies.
BACKGROUND_VCI = -1

#: The classic gateway's stream count; scenario streams append after it.
_BASE_STREAMS = 6

#: Scenario streams appended after the classic six (see module docstring).
_SCENARIO_STREAMS = 4


def _route_edges(route: Tuple[str, ...]) -> List[Tuple[str, str]]:
    return list(zip(route[:-1], route[1:]))


def _link_entry(link, port, backgrounds, plane) -> Dict[str, object]:
    """One link's state as both runtime shapes report it: the live link,
    its bottleneck port, the background rate applied to it by any of
    ``backgrounds``, and its overload plane's section when one runs."""
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


def _group_entry(active: int, stats: GroupStats) -> Dict[str, object]:
    """One flow group's state as both runtime shapes report it."""
    return {"active": int(active), **asdict(stats)}


def network_section(
    spec: ScenarioSpec, gateway: RcbrGateway
) -> Dict[str, object]:
    """The per-link and per-flow-group view of ``gateway`` serving
    ``spec``, for either runtime shape: one :func:`_link_entry` per link
    (with its bottleneck port and overload plane) and one
    :func:`_group_entry` per flow group, keyed as the spec names them.
    It is the multi-bottleneck snapshot's ``network`` section and every
    :class:`ScenarioResult`'s ``links``/``groups``."""
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
            flow.name: _group_entry(fleet.num_active, stats)
            for flow, fleet, stats in zip(
                spec.flows, gateway._fleets, gateway.group_stats
            )
        },
    }


def scenario_fingerprint(spec: ScenarioSpec) -> str:
    """A stable hash of the spec's *simulation identity*, stamped into
    checkpoints so a resume cannot cross scenarios whose derived
    configs collide (e.g. dumbbell-lrd vs dumbbell-poisson, which
    differ only in background burst structure).  ``duration`` and
    ``snapshot_every`` are run-time arguments — like ``repro serve``'s
    ``--duration``, a resume may extend the end time — so they are
    excluded."""
    identity = spec.to_dict()
    identity.pop("duration", None)
    identity.pop("snapshot_every", None)
    payload = json.dumps(identity, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ScenarioGateway(RcbrGateway):
    """The multi-bottleneck RCBR gateway (see the module docstring)."""

    def __init__(
        self,
        spec: ScenarioSpec,
        faults: Optional[FaultPlan] = None,
        shards: int = 0,
        shard_chunk: int = 4096,
    ) -> None:
        if spec.single_bottleneck:
            raise ValueError(
                "single-bottleneck scenarios run on the classic gateway"
                " (use run_scenario)"
            )
        self.spec = spec
        config = ServerConfig(
            capacity=spec.total_capacity,
            load=0.0,  # arrival rates are per flow group (_build_topology)
            controller=spec.controller,
            mean_holding=spec.mean_holding,
            abandon_after=spec.abandon_after,
            hop_delay=spec.links[0].delay,
            initial_calls=0,
            seed=spec.seed,
            source_slots=spec.source_slots,
            shards=shards,
            shard_chunk=shard_chunk,
            overload_policy=spec.overload_policy,
            overload_classes=spec.overload_classes,
            class_weights=spec.class_weights,
        )
        # Scenario streams 6..9; the spawn-prefix property keeps the
        # classic streams 0..5 identical to a same-seed classic run
        # (and streams 6..8 identical to pre-overload scenario runs).
        # The background stream (7) is drawn by background_drivers.
        (
            self._workload_rng,
            _,
            self._path_rng,
            self._link_overload_rng,
        ) = spawn_generators(
            config.seed, _BASE_STREAMS + _SCENARIO_STREAMS
        )[_BASE_STREAMS:]

        source = make_source(
            spec.traffic,
            mean_rate=spec.mean_rate,
            slot_duration=spec.slot_duration,
        )
        self._group_workloads = [
            source.sample_workload(spec.source_slots, seed=self._workload_rng)
            for _ in spec.flows
        ]
        super().__init__(self._group_workloads[0], config, faults=faults)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_topology(self, path_rng, retry_rng) -> None:
        """Build the route graph: one fleet per flow group, one link and
        one switch port per link spec, one background driver per
        background process, one overload plane per link unless the
        policy is block, and one Poisson arrival rate and initial-call
        count per flow group.  Every call's setup travels its route.
        Route records are created lazily, one per distinct route, each
        with its signaling path on the scenario path stream (the
        classic ``path_rng``/``retry_rng`` go unused)."""
        spec, config = self.spec, self.config
        graph = nx.Graph()
        for link in spec.links:
            graph.add_edge(link.u, link.v, capacity=link.capacity)
        self.network = SignalingNetwork(graph, seed=0)
        #: Canonical edge key -> its link spec's index in link order.
        self._edge_index = {
            _edge_key(link.u, link.v): index
            for index, link in enumerate(spec.links)
        }

        self._fleets = [
            self._new_fleet(workload, config, 256)
            for workload in self._group_workloads
        ]
        self.links = [RcbrLink(link.capacity) for link in spec.links]
        self.ports = [
            self.network.port_between(link.u, link.v) for link in spec.links
        ]
        #: Route nodes -> its shared record (creation order).
        self._route_index: Dict[Tuple[str, ...], Route] = {}
        # Call id -> the slot a call holds on every per-edge link, port
        # and path: call ids grow without bound, slots are reused.
        self._net_slots = SlotInterner()
        self.backgrounds = background_drivers(spec, self.ports, self.links)
        self._setup_travels = True
        self._initial_calls = [flow.initial_calls for flow in spec.flows]

        # One plane per bottleneck link, each driving the configured
        # policy over the calls routed across that link; all planes
        # share the dedicated link-overload stream, polled in link-spec
        # order.  With the default "block" policy there are no planes
        # and the epoch sequence (and fingerprint) is unchanged.
        self.link_planes = []
        for index in range(len(self.links)):
            policy = policy_for_config(config)
            self.link_planes.append(
                None
                if policy is None
                else OverloadControlPlane(
                    LinkScopedOverloadAgent(self, index),
                    policy,
                    enter=config.overload_enter,
                    exit_=config.overload_exit,
                    dwell=config.overload_dwell,
                    num_classes=self.num_classes,
                    rng=self._link_overload_rng,
                )
            )

        # Per-group Poisson arrival rates against the (k=1) shortest
        # route's bottleneck capacity — the same Erlang identity the
        # classic config uses, so per-link offered loads are additive.
        self._arrival_rates = []
        for flow, workload in zip(spec.flows, self._group_workloads):
            if flow.load <= 0:
                self._arrival_rates.append(0.0)
                continue
            route = self.network.k_shortest_paths(
                flow.source, flow.target, 1
            )[0]
            self._arrival_rates.append(
                arrival_rate_for_load(
                    flow.load,
                    self._bottleneck_capacity(route),
                    workload.mean_rate,
                    self.mean_holding,
                )
            )

    def _bottleneck_capacity(self, nodes) -> float:
        """The smallest configured link capacity along route ``nodes``."""
        return min(
            self.spec.links[self._edge_index[_edge_key(u, v)]].capacity
            for u, v in _route_edges(nodes)
        )

    def _route_for(self, nodes: Tuple[str, ...]) -> Route:
        """The shared record of the route through ``nodes``, created on
        first use with its signaling path on the scenario path stream."""
        route = self._route_index.get(nodes)
        if route is None:
            indices = [self._edge_index[_edge_key(u, v)] for u, v in _route_edges(nodes)]
            delays = [self.spec.links[index].delay for index in indices]
            path = SignalingPath(
                [self.ports[index] for index in indices],
                # SignalingPath models one scalar per-hop delay; the
                # mean preserves the route's total round-trip time
                # (2 * sum of link delays).
                hop_delay=sum(delays) / len(delays),
                seed=self._path_rng,
                faults=self.faults,
                request_timeout=self.config.request_timeout,
                max_retries=self.config.max_retries,
                retry_backoff=self.config.retry_backoff,
                retry_jitter=self.config.retry_jitter,
                retry_seed=self._path_rng,
            )
            route = Route(
                index=len(self.routes),
                links=tuple(self.links[index] for index in indices),
                path=path,
                ports=tuple(path.ports),
                capacity=self._bottleneck_capacity(nodes),
                nodes=nodes,
            )
            self._route_index[nodes] = route
            self.routes.append(route)
        return route

    # ------------------------------------------------------------------
    # Route selection
    # ------------------------------------------------------------------
    def _select_route(self, group: int) -> Route:
        """Choose the entering call's route among its flow's ``k``
        shortest (the one with the most bottleneck headroom)."""
        flow = self.spec.flows[group]
        k = flow.route_k if flow.route_k is not None else self.spec.route_k
        nodes = self.network.select_route(flow.source, flow.target, k=k)
        return self._route_for(tuple(nodes))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _network_section(self) -> Dict[str, object]:
        return network_section(self.spec, self)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The base export (fleets, call bindings, links, ports, paths
        and per-link planes, each in topology order) plus the
        scenario-only state: the routes in creation order, the network
        slots and the two live scenario streams.

        The workload stream (6) and background stream (7) are consumed
        only during ``__init__`` — a restoring gateway re-draws them
        identically from the spec — so like the classic workload
        stream, they are not captured; the base restore re-derives the
        applied background rates from the series.
        """
        state = super().state_dict()
        state["scenario"] = {
            "routes": [list(route.nodes) for route in self.routes],
            "net_slots": self._net_slots.state_dict(),
            "rng": {
                "path": self._path_rng.bit_generator.state,
                "link_overload": (
                    self._link_overload_rng.bit_generator.state
                ),
            },
        }
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        scenario = state["scenario"]  # type: ignore[index]
        # Recreate every route record in creation order, so the base
        # restore loads each path's state into the right path and the
        # restored route columns index the live records.
        for nodes in scenario["routes"]:  # type: ignore[index]
            self._route_for(tuple(nodes))
        super().load_state(state)
        self._net_slots.load_state(scenario["net_slots"])  # type: ignore[index]
        rng_states = scenario["rng"]  # type: ignore[index]
        self._path_rng.bit_generator.state = rng_states["path"]
        self._link_overload_rng.bit_generator.state = (
            rng_states["link_overload"]
        )


# ----------------------------------------------------------------------
# The harness and dispatcher
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioResult:
    """A scenario run: the classic report plus scenario-shaped views."""

    spec: ScenarioSpec
    report: ServerReport
    #: Per-flow-group and per-link final state, with the same keys in
    #: both runtime shapes (a single-bottleneck scenario's group entry
    #: is its classic counters).
    groups: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    links: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        return self.report.fingerprint

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.spec.to_dict(),
            "groups": self.groups,
            "links": self.links,
            **self.report.to_dict(),
        }

    def summary_lines(self) -> List[str]:
        final = self.report.final
        denial = (
            final.reneg_denied / final.reneg_requests
            if final.reneg_requests
            else 0.0
        )
        blocking = final.blocked / final.arrivals if final.arrivals else 0.0
        lines = [
            f"scenario:        {self.spec.name}",
            f"duration:        {self.report.duration:g} s "
            f"({self.report.epochs} epochs)",
            f"calls:           {final.arrivals} offered, "
            f"{final.admitted} admitted, {final.blocked} blocked "
            f"({blocking:.1%}), {final.abandoned} abandoned",
            f"renegotiations:  {final.reneg_requests} requests, "
            f"{final.reneg_denied} denied ({denial:.1%})",
            f"bits lost:       {final.bits_lost_overflow:.0f} overflow, "
            f"{final.bits_lost_link:.0f} link",
            f"mean utilization: {self.report.mean_utilization:.3f}",
        ]
        for name, group in self.groups.items():
            requests = group.get("reneg_requests", 0)
            denied = group.get("reneg_denied", 0)
            fraction = denied / requests if requests else 0.0
            lines.append(
                f"  group {name}: active={group.get('active', 0)} "
                f"blocked={group.get('blocked', 0)} "
                f"denied={denied}/{requests} ({fraction:.1%}) "
                f"abandoned={group.get('abandoned', 0)}"
            )
        for name, link in self.links.items():
            lines.append(
                f"  link {name}: lost_bits={link.get('lost_bits', 0.0):.0f} "
                f"failures={link.get('failures', 0)} "
                f"port_denied={link.get('port_denied', 0)}"
            )
        lines.append(f"fingerprint:     {self.fingerprint}")
        return lines


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
    spec: ScenarioSpec, ports: List[Any], links: List[Any]
) -> List[BackgroundDriver]:
    """One driver per background process of ``spec``, over the
    bottleneck port and link of its edge (``ports`` and ``links`` in
    link-spec order).

    Every series is sampled on stream 7, the scenario background stream
    of both runtime shapes (see the module docstring), in background
    order, and clamped at the peak fraction so the RCBR side always
    keeps some capacity.
    """
    rng = spawn_generators(spec.seed, _BASE_STREAMS + 2)[_BASE_STREAMS + 1]
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


class ScenarioHarness:
    """One scenario, fully armed: run, checkpoint, restore, report.

    Builds the right gateway for the spec's shape — the classic
    (optionally sharded) gateway for a single-bottleneck spec, the
    :class:`ScenarioGateway` otherwise — and exposes the uniform
    lifecycle ``repro serve`` drives: :meth:`run` with an epoch hook,
    :meth:`save`/:meth:`restore` with scenario-stamped checkpoints, and
    :meth:`result` to shape the final report.  Construction and draw
    order are byte-identical to the pre-harness dispatcher.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        shards: int = 0,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.spec = spec
        self.shards = int(shards)
        self._section: Optional[Dict[str, object]] = None
        if spec.single_bottleneck:
            link = spec.links[0]
            flow = spec.flows[0]
            config = ServerConfig(
                capacity=link.capacity,
                load=flow.load,
                controller=spec.controller,
                mean_holding=spec.mean_holding,
                abandon_after=spec.abandon_after,
                num_hops=spec.num_hops,
                hop_delay=link.delay,
                initial_calls=flow.initial_calls,
                seed=spec.seed,
                source_slots=spec.source_slots,
                shards=shards,
                overload_policy=spec.overload_policy,
                overload_classes=spec.overload_classes,
                class_weights=spec.class_weights,
            )
            source = make_source(
                spec.traffic,
                mean_rate=spec.mean_rate,
                slot_duration=spec.slot_duration,
            )
            gateway = build_gateway(None, config, faults=faults, source=source)
            gateway.backgrounds = background_drivers(
                spec, gateway.ports[-1:], gateway.links
            )
        else:
            gateway = ScenarioGateway(spec, faults=faults, shards=shards)
        # Stamp checkpoints with the scenario identity: two specs can
        # derive identical configs and workloads (the dumbbell twins
        # differ only in background structure), and a resume across
        # them must refuse, not drift.
        gateway.identity_stamps = {"scenario_hash": scenario_fingerprint(spec)}
        self.gateway = gateway

    def run(
        self,
        duration: Optional[float] = None,
        snapshot_every: Optional[float] = None,
        epoch_hook=None,
    ) -> ServerReport:
        spec = self.spec
        report = self.gateway.run(
            spec.duration if duration is None else duration,
            snapshot_every=(
                spec.snapshot_every
                if snapshot_every is None
                else snapshot_every
            ),
            epoch_hook=epoch_hook,
        )
        # Captured while the gateway is open: sharded fleet columns
        # live in shared memory that close() unlinks.
        self._section = network_section(spec, self.gateway)
        return report

    def save(self, path, defer: bool = False) -> Dict[str, Any]:
        return self.gateway.save(path, defer=defer)

    def checkpoint_sync(self) -> None:
        self.gateway.checkpoint_sync()

    def restore(self, path) -> None:
        """Resume from a checkpoint of the *same scenario* (the gateway
        enforces the scenario hash on top of the config/workload/code
        stamps)."""
        self.gateway.restore(path)

    def result(self, report: ServerReport) -> ScenarioResult:
        section = self._section
        if section is None:
            section = network_section(self.spec, self.gateway)
        return ScenarioResult(
            spec=self.spec,
            report=report,
            groups=section["groups"],  # type: ignore[arg-type]
            links=section["links"],  # type: ignore[arg-type]
        )

    def __enter__(self) -> "ScenarioHarness":
        self.gateway.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.gateway.__exit__(exc_type, exc, tb)


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    *,
    seed: Optional[int] = None,
    duration: Optional[float] = None,
    snapshot_every: Optional[float] = None,
    route_k: Optional[int] = None,
    shards: int = 0,
    faults: Optional[FaultPlan] = None,
) -> ScenarioResult:
    """Run a scenario (by name or spec) and return its result.

    Keyword overrides replace the spec's defaults.  ``shards`` applies
    to every scenario shape — the single-bottleneck specs run the
    classic gateway on a sharded fleet, the multi-bottleneck specs shard
    each flow group's fleet.  Same spec and seed => byte-identical fingerprint
    for shards ∈ {0, 1, N}.
    """
    spec = resolve_scenario(
        scenario,
        seed=seed,
        duration=duration,
        snapshot_every=snapshot_every,
        route_k=route_k,
    )
    harness = ScenarioHarness(spec, shards=shards, faults=faults)
    with harness:
        report = harness.run()
    return harness.result(report)
