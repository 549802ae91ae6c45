"""Scenario execution: the topology-general gateway and its harness.

Every scenario runs on one serving core.  A **single-bottleneck** spec
(one link, one flow group) builds the classic gateway via
:func:`~repro.server.gateway.build_gateway` — the degenerate one-edge
topology — while a **multi-bottleneck** spec builds
:class:`ScenarioGateway`, a subclass serving one
:class:`~repro.server.fleet.CallFleet` per flow group over per-edge
:class:`~repro.queueing.link.RcbrLink`s and per-route
:class:`~repro.signaling.network.SignalingPath`s through a shared
:class:`~repro.signaling.topology.SignalingNetwork`, aggregated through
the :mod:`repro.server.topology` stacks.  Both shapes are driven
through :class:`ScenarioHarness`, so shards, checkpoint/resume,
overload planes, and MBAC admission work identically on every spec.

The subclass overrides construction (fleets, links, ports, per-link
overload planes), the epoch step, route binding, and the admission
decision; everything else a call goes through — install, readmission,
the per-group arrival process, renegotiation completion, teardown —
is the base gateway's, written once over the call's route.  Background
cross-traffic is one :class:`BackgroundDriver` per link in both
shapes, held and applied by the base gateway.

Determinism contract.  Four scenario streams are appended to the
classic six via the SeedSequence spawn-prefix property
(``spawn_generators(seed, 10)[6:]`` leaves streams 0-5 identical):
stream 6 samples the per-group workloads in flow order, stream 7 the
background series in background order, stream 8 seeds route signaling
paths (one shared generator threaded through every route path), and
stream 9 drives the per-link overload planes, polled in link-spec
order each epoch.  Per offered call the draw order is fixed: service
class (overload stream), then workload shift (call stream), then —
only if admitted — holding time (call stream).  Per epoch the merge
order is: background capacity updates in background order, then the
per-link overload planes in link-spec order, then one fleet step per
flow group in flow order, renegotiations issuing in ascending
pool-slot order within each group.  Event-heap callbacks address calls
by ``group * GROUP_STRIDE + slot``.  Same seed (and fault seed) =>
bit-identical snapshot stream for shards ∈ {0, 1, N}, and
``run(T1); save; restore; run(T2)`` equals ``run(T1 + T2)``.

The admission decision, :meth:`ScenarioGateway._offer`, is the one
setup step that differs from the classic runtime, by design: a call's
initial rate travels its route as a real reservation
(``path.renegotiate`` from rate 0), so a hop without headroom *blocks*
the call — on a network, admission is the ports' decision, which is
exactly the back-pressure the multi-hop experiments measure.  An MBAC
controller composes with that: it vets the call against its route's
bottleneck capacity *before* the setup reservation travels.
Renegotiations then travel the same path under faults, and granted
rates are mirrored onto every traversed link (taking the minimum
grant, equalizing over-grants down), so per-link utilization and loss
integrals stay honest.

Overload beyond blocking: with ``overload_policy`` ≠ ``block`` the
gateway runs one :class:`~repro.overload.plane.OverloadControlPlane`
per bottleneck link, each driving the existing downgrade/sacrifice
policy through a :class:`~repro.overload.linkagent.LinkScopedOverloadAgent`
whose victim pool is the calls routed over that link.  Downgrade
factors from multiple congested links combine per call by minimum.
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
from repro.server.topology import (
    CallBinding,
    FleetStack,
    GroupStats,
    LinkStack,
    PathStack,
)
from repro.signaling.messages import RenegotiationRequest
from repro.signaling.network import SignalingPath
from repro.signaling.topology import SignalingNetwork, _edge_key
from repro.traffic.sources import make_source
from repro.traffic.trace import SlottedWorkload
from repro.util.rng import spawn_generators
from repro.util.slots import GROUP_STRIDE, SlotInterner

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
            load=0.0,  # arrivals are scheduled per flow group below
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

        graph = nx.Graph()
        for link in spec.links:
            graph.add_edge(link.u, link.v, capacity=link.capacity)
        self.network = SignalingNetwork(graph, seed=0)
        self._edge_keys = [
            _edge_key(link.u, link.v) for link in spec.links
        ]
        self._edge_capacity = {
            key: link.capacity
            for key, link in zip(self._edge_keys, spec.links)
        }
        self._edge_delay = {
            key: link.delay for key, link in zip(self._edge_keys, spec.links)
        }
        self._edge_ports = {
            key: self.network.port_between(link.u, link.v)
            for key, link in zip(self._edge_keys, spec.links)
        }

        super().__init__(self._group_workloads[0], config, faults=faults)
        self.backgrounds = background_drivers(
            spec, self._edge_ports, self._edge_links
        )

        # The base class built a single plane over the whole-topology
        # LinkStack — meaningless pressure.  Replace it with one plane
        # per bottleneck link, each driving the configured policy over
        # the calls routed across that link; all planes share the
        # dedicated link-overload stream, polled in link-spec order.
        # With the default "block" policy there are no planes and the
        # epoch sequence (and fingerprint) is unchanged.
        self.overload_plane = None
        self._link_planes: List[Tuple[Tuple[str, str], Any]] = []
        for key in self._edge_keys:
            policy = policy_for_config(config)
            if policy is None:
                break
            plane = OverloadControlPlane(
                LinkScopedOverloadAgent(self, key, self._edge_links[key]),
                policy,
                enter=config.overload_enter,
                exit_=config.overload_exit,
                dwell=config.overload_dwell,
                num_classes=self.num_classes,
                rng=self._link_overload_rng,
            )
            self._link_planes.append((key, plane))

        # Per-route shared signaling paths, created lazily in call
        # order; the stack view feeds the base snapshot fields and
        # recreates the routes on restore via the factory.
        self._route_paths: Dict[Tuple[str, ...], SignalingPath] = {}
        self.path = PathStack(  # type: ignore[assignment]
            self._route_paths, factory=self._path_for_route
        )
        self._bindings: Dict[int, CallBinding] = {}
        # Call id -> the slot a call holds on every per-edge link, port
        # and path: call ids grow without bound, slots are reused.
        self._net_slots = SlotInterner()

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
            bottleneck = min(
                self._edge_capacity[_edge_key(u, v)]
                for u, v in _route_edges(tuple(route))
            )
            self._arrival_rates.append(
                arrival_rate_for_load(
                    flow.load,
                    bottleneck,
                    workload.mean_rate,
                    self.mean_holding,
                )
            )

    # ------------------------------------------------------------------
    # Construction seams
    # ------------------------------------------------------------------
    def _build_fleet(
        self, workload: SlottedWorkload, config: ServerConfig
    ) -> FleetStack:
        return FleetStack(  # type: ignore[return-value]
            [
                self._new_fleet(group_workload, config, 256)
                for group_workload in self._group_workloads
            ]
        )

    def _build_link(self, config: ServerConfig) -> LinkStack:
        self._edge_links = {
            key: RcbrLink(self._edge_capacity[key])
            for key in self._edge_keys
        }
        return LinkStack(  # type: ignore[return-value]
            [self._edge_links[key] for key in self._edge_keys],
            config.capacity,
        )

    def _build_ports(self, config: ServerConfig):
        return [self._edge_ports[key] for key in self._edge_keys]

    def _path_for_route(self, route: Tuple[str, ...]) -> SignalingPath:
        path = self._route_paths.get(route)
        if path is None:
            edges = _route_edges(route)
            delays = [self._edge_delay[_edge_key(u, v)] for u, v in edges]
            path = SignalingPath(
                [self._edge_ports[_edge_key(u, v)] for u, v in edges],
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
            self._route_paths[route] = path
        return path

    # ------------------------------------------------------------------
    # Call setup
    # ------------------------------------------------------------------
    def preload(self) -> None:
        """Offer every flow group's initial calls one by one (setup is
        route signaling, so there is no batch admission), then arm one
        arrival process per group."""
        if self._preloaded:
            return
        self._preloaded = True
        for group, flow in enumerate(self.spec.flows):
            for _ in range(flow.initial_calls):
                self._offer(group, 0.0)
        for group in range(len(self.spec.flows)):
            self._schedule_arrival(group)

    def _offer(self, group: int, now: float) -> Optional[int]:
        """Offer one call to ``group``; admission is route setup.

        Unlike the classic decision, the workload shift is drawn before
        it, and the initial reservation travels the bound route for
        real: any hop without headroom denies (and rolls back upstream
        commits), blocking the call.
        """
        stats = self.group_stats[group]
        fleet = self._fleets[group]
        self.arrivals += 1
        stats.arrivals += 1
        call_class = self._draw_class()
        self.offered.on_arrival(call_class)
        shift = int(
            self._call_rng.integers(self._group_workloads[group].num_slots)
        )
        call_id = next(self._call_ids)
        slot, rate = fleet.admit(call_id, shift, call_class)
        key = group * GROUP_STRIDE + slot
        self._bind(key, call_id, rate)
        vci, _, path, ports = self._route(key, call_id)
        bottleneck = min(
            self._edge_capacity[edge] for edge in self._bindings[key].edge_keys
        )
        admitted = self.controller.admit(
            bottleneck, now, call_class=call_class
        ) and path.renegotiate(
            RenegotiationRequest(
                vci=vci, old_rate=0.0, new_rate=rate, time=now
            )
        )
        if not admitted:
            if any(port.rate_of(vci) for port in ports):
                # A setup cell lost after upstream hops committed leaves
                # them holding its rate (drift no teardown repairs);
                # that slot stays out of reuse so no later call
                # inherits the stale reservation.
                del self._bindings[key]
            else:
                self._unbind(key, call_id)
            fleet.remove(slot)
            self.blocked += 1
            stats.blocked += 1
            self.offered.on_blocked(call_class)
            return None
        holding = float(self._call_rng.exponential(self.mean_holding))
        return self._install_call(
            key, call_id, rate, holding, call_class, now, provision=False
        )

    def _bind(self, key: int, call_id: int, rate: float) -> None:
        """Select the entering call's route (``rate`` breaks ties toward
        feasibility), bind it, and intern the call's network slot."""
        flow = self.spec.flows[key // GROUP_STRIDE]
        k = flow.route_k if flow.route_k is not None else self.spec.route_k
        self._bind_route(
            key,
            tuple(
                self.network.select_route(
                    flow.source, flow.target, k=k, rate_hint=rate
                )
            ),
        )
        self._net_slots.intern(call_id)

    def _bind_route(self, key: int, route: Tuple[str, ...]) -> None:
        edge_keys = tuple(_edge_key(u, v) for u, v in _route_edges(route))
        self._bindings[key] = CallBinding(
            group=key // GROUP_STRIDE,
            route=route,
            path=self._path_for_route(route),
            links=tuple(self._edge_links[edge] for edge in edge_keys),
            edge_keys=edge_keys,
        )

    def _route(self, key: int, call_id: int):
        """A routed call reserves under its network slot on its route."""
        binding = self._bindings[key]
        return (
            self._net_slots.slot_of[call_id],
            binding.links,
            binding.path,
            binding.path.ports,
        )

    def _unbind(self, key: int, call_id: int) -> None:
        del self._bindings[key]
        self._net_slots.release(call_id)

    # ------------------------------------------------------------------
    # Per-link overload protocol (driven by LinkScopedOverloadAgent)
    # ------------------------------------------------------------------
    def link_member_mask(self, key: Tuple[str, str]) -> np.ndarray:
        """Live calls routed over ``key``, as a boolean column over the
        concatenated group fleets (fixed group order)."""
        sizes = [int(fleet.active.size) for fleet in self._fleets]
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        mask = np.zeros(int(offsets[-1]), dtype=bool)
        for gslot, binding in self._bindings.items():
            if key in binding.edge_keys:
                group, slot = divmod(gslot, GROUP_STRIDE)
                mask[int(offsets[group]) + slot] = True
        return mask

    # ------------------------------------------------------------------
    # The epoch step
    # ------------------------------------------------------------------
    def _step_epoch(self, tick: int, now: float, end_of_slot: float) -> None:
        downgrade = self._poll_link_planes(tick, now)
        for group, fleet in enumerate(self._fleets):
            step = fleet.step(
                tick,
                downgrade=None if downgrade is None else downgrade[group],
            )
            if step.num_requests:
                self._issue_group_epoch(group, step, end_of_slot)

    def _poll_link_planes(
        self, tick: int, now: float
    ) -> Optional[List[Optional[np.ndarray]]]:
        """Drive each per-link plane once; fold their downgrade factors
        (masked to each link's member calls) into per-group columns by
        minimum.  Returns None when no plane asked for a downgrade —
        including always, when the policy is ``block`` (no planes)."""
        if not self._link_planes:
            return None
        combined: Optional[List[np.ndarray]] = None
        sizes = [int(fleet.active.size) for fleet in self._fleets]
        for key, plane in self._link_planes:
            factors = plane.on_epoch(tick, now)
            if factors is None:
                continue
            mask = self.link_member_mask(key)
            if combined is None:
                combined = [np.ones(size) for size in sizes]
            offset = 0
            for group, size in enumerate(sizes):
                member = mask[offset:offset + size]
                np.minimum(
                    combined[group],
                    np.where(member, factors[offset:offset + size], 1.0),
                    out=combined[group],
                )
                offset += size
        if combined is None:
            return None
        return combined  # type: ignore[return-value]

    def _issue_group_epoch(self, group: int, step, end_of_slot: float) -> None:
        """Issue one flow group's renegotiations in ascending slot order,
        one round trip per call over its own route (routes differ in
        RTT); each answer lands through :meth:`_complete`."""
        fleet = self._fleets[group]
        stats = self.group_stats[group]
        base = group * GROUP_STRIDE
        for slot, call_id, new_rate in zip(
            step.slots.tolist(),
            fleet.call_id[step.slots].tolist(),
            step.candidates.tolist(),
        ):
            key = base + slot
            vci, _, path, _ = self._route(key, call_id)
            old_rate = float(fleet.rate[slot])
            fleet.pending[slot] = True
            self.reneg_requests += 1
            stats.reneg_requests += 1
            granted = self._signal(path, vci, old_rate, new_rate, end_of_slot)
            self.engine.schedule_at(
                end_of_slot + path.round_trip_time,
                self._complete,
                key,
                call_id,
                new_rate,
                granted or not new_rate > old_rate,
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _network_section(self) -> Dict[str, object]:
        planes = dict(self._link_planes)
        links = {
            f"{link_spec.u}~{link_spec.v}": _link_entry(
                self._edge_links[key],
                self._edge_ports[key],
                self.backgrounds,
                planes.get(key),
            )
            for link_spec, key in zip(self.spec.links, self._edge_keys)
        }
        groups = {
            flow.name: _group_entry(fleet.num_active, stats)
            for flow, fleet, stats in zip(
                self.spec.flows, self._fleets, self.group_stats
            )
        }
        return {"links": links, "groups": groups}

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """The base export (the stacks serialize per group/edge/route)
        plus the scenario-only state: call-route bindings, the two live
        scenario streams, and the per-link overload planes.

        The workload stream (6) and background stream (7) are consumed
        only during ``__init__`` — a restoring gateway re-draws them
        identically from the spec — so like the classic workload
        stream, they are not captured; the base restore re-derives the
        applied background rates from the series.
        """
        state = super().state_dict()
        state["scenario"] = {
            "bindings": [
                [gslot, list(binding.route)]
                for gslot, binding in self._bindings.items()
            ],
            "net_slots": self._net_slots.state_dict(),
            "rng": {
                "path": self._path_rng.bit_generator.state,
                "link_overload": (
                    self._link_overload_rng.bit_generator.state
                ),
            },
            "link_planes": [
                plane.state_dict() for _, plane in self._link_planes
            ],
        }
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        scenario = state["scenario"]  # type: ignore[index]
        super().load_state(state)
        # The PathStack restore above recreated every route's path (in
        # creation order) through the factory; bindings can now resolve
        # routes back to live paths and links.
        self._bindings = {}
        for key, route in scenario["bindings"]:  # type: ignore[index]
            self._bind_route(int(key), tuple(route))
        self._net_slots.load_state(scenario["net_slots"])  # type: ignore[index]
        rng_states = scenario["rng"]  # type: ignore[index]
        self._path_rng.bit_generator.state = rng_states["path"]
        self._link_overload_rng.bit_generator.state = (
            rng_states["link_overload"]
        )
        plane_states = scenario["link_planes"]  # type: ignore[index]
        if len(plane_states) != len(self._link_planes):
            raise ValueError(
                f"checkpoint carries {len(plane_states)} link planes, "
                f"this gateway runs {len(self._link_planes)}"
            )
        for (_, plane), plane_state in zip(
            self._link_planes, plane_states
        ):
            plane.load_state(plane_state)


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
    spec: ScenarioSpec,
    ports: Dict[Tuple[str, str], Any],
    links: Dict[Tuple[str, str], Any],
) -> List[BackgroundDriver]:
    """One driver per background process of ``spec``, over the port and
    link of its edge (both keyed by canonical edge key).

    Every series is sampled on stream 7, the scenario background stream
    of both runtime shapes (see the module docstring), in background
    order, and clamped at the peak fraction so the RCBR side always
    keeps some capacity.
    """
    rng = spawn_generators(spec.seed, _BASE_STREAMS + 2)[_BASE_STREAMS + 1]
    capacities = {
        _edge_key(link.u, link.v): link.capacity for link in spec.links
    }
    drivers = []
    for bg in spec.background:
        key = _edge_key(bg.u, bg.v)
        capacity = capacities[key]
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
        drivers.append(BackgroundDriver(series, capacity, ports[key], links[key]))
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
        from repro.server.checkpoint import (
            checkpoint_code_version,
            config_fingerprint,
            workload_fingerprint,
        )

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
            self.gateway = build_gateway(
                None, config, faults=faults, source=source
            )
            key = _edge_key(link.u, link.v)
            self.gateway.backgrounds = background_drivers(
                spec, {key: self.gateway.ports[-1]}, {key: self.gateway.link}
            )
        else:
            self.gateway = ScenarioGateway(
                spec, faults=faults, shards=shards
            )
        # Stamp checkpoints with the scenario identity up front: two
        # specs can derive identical configs and workloads (the
        # dumbbell twins differ only in background structure), and a
        # resume across them must refuse, not drift.
        config = self.gateway.config
        self.gateway._checkpoint_stamps = {
            "code_version": checkpoint_code_version(),
            "config_hash": config_fingerprint(config),
            "workload_hash": workload_fingerprint(self.gateway.workload),
            "config": config.to_dict(),
            "scenario_hash": scenario_fingerprint(spec),
            "scenario": spec.to_dict(),
        }

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
        if isinstance(self.gateway, ScenarioGateway):
            # Captured while the gateway is open: sharded fleet columns
            # live in shared memory that close() unlinks.
            self._section = self.gateway._network_section()
        return report

    def save(self, path, defer: bool = False) -> Dict[str, Any]:
        return self.gateway.save(path, defer=defer)

    def checkpoint_sync(self) -> None:
        self.gateway.checkpoint_sync()

    def restore(self, path) -> None:
        """Resume from a checkpoint of the *same scenario* (spec hash
        enforced on top of the config/workload/code stamps)."""
        from repro.server.checkpoint import (
            read_checkpoint,
            workload_fingerprint,
        )

        self.gateway.checkpoint_sync()
        state = read_checkpoint(
            path,
            self.gateway.config,
            workload_hash=workload_fingerprint(self.gateway.workload),
            expected_stamps={
                "scenario_hash": scenario_fingerprint(self.spec)
            },
        )
        self.gateway.load_state(state)

    def result(self, report: ServerReport) -> ScenarioResult:
        spec = self.spec
        if isinstance(self.gateway, ScenarioGateway):
            section = self._section
            if section is None:
                section = self.gateway._network_section()
            return ScenarioResult(
                spec=spec,
                report=report,
                groups=section["groups"],  # type: ignore[arg-type]
                links=section["links"],  # type: ignore[arg-type]
            )
        link = spec.links[0]
        gateway = self.gateway
        groups = {
            spec.flows[0].name: _group_entry(
                report.final.active_calls, gateway.group_stats[0]
            )
        }
        links = {
            f"{link.u}~{link.v}": _link_entry(
                gateway.link,
                gateway.ports[-1],
                gateway.backgrounds,
                gateway.overload_plane,
            )
        }
        return ScenarioResult(
            spec=spec, report=report, groups=groups, links=links
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
