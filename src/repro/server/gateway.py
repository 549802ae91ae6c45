"""The RCBR gateway: an event-driven service runtime over a topology.

This ties the whole library together as a long-lived service loop.  An
open-loop Poisson load generator offers calls to an admission controller
(:mod:`repro.admission.controllers`); each admitted call joins the
vectorized :class:`~repro.server.fleet.CallFleet` and runs the causal
AR(1) heuristic against its own circularly-shifted copy of the base
workload; threshold crossings become RM cells on a
:class:`~repro.signaling.network.SignalingPath` (where a
:class:`~repro.faults.injectors.FaultPlan` can lose, delay, duplicate, or
outage them); granted rates are reserved on a shared
:class:`~repro.queueing.link.RcbrLink` whose integrals yield utilization
and bits lost.

The loop is a hybrid: per-epoch vector stepping for the data plane (one
numpy pass over all active calls per slot — the 50k-call hot path) and a
conventional event heap for the control plane (arrivals, departures,
abandonments, renegotiation round-trips).  A departure is two binding
columns (its time and the event sequence number it took when armed)
and waits in a per-epoch calendar bucket until its epoch is near; each
drain first promotes the buckets up to one epoch past it onto the heap
(:meth:`RcbrGateway._drain`), so the heap holds arrivals, completions
and the near horizon, not one event per call.  Event ordering per epoch
``k``::

    1. drain the heap up to t = k * slot   (arrivals, departures, and
       renegotiation completions whose round trip ended by t)
    2. poll the overload planes, then per flow group vector-step every
       active call through base slot k
    3. issue that group's renegotiations with request time (k+1) * slot;
       their outcomes apply at (k+1) * slot + route RTT via the heap

so with zero hop delay an answer lands before the next step and the
fleet reproduces the scalar :class:`~repro.core.online.OnlineScheduler`
exactly (rates take effect the following slot, as in the paper).

Step 3 issues a group's calls on one route as one batch; a fault plan
or calls on several routes make it walk the calls one by one.  The
answers land as one completion event per landing time.  Calls reserve
under a handle — the pool slot, or on a route graph an interned network
slot — so links and ports are flat columns.  ``config.shards`` chooses
only where step 2 runs: inline (0) or on a worker pool
(:mod:`repro.server.sharded`).

The per-call control plane — admission, install, readmission,
renegotiation, teardown, abandonment, eviction and shrink — is written
once, over a call's shared :class:`~repro.server.topology.Route`: the
links, signaling path and switch ports it reserves on and the
bottleneck capacity the CAC decides against.  A call's binding is its
route index and handle in two per-group columns.  Heap events address a
call by the key ``group * GROUP_STRIDE + slot``.  One class serves
every topology, and one construction step
(:meth:`RcbrGateway._build_topology`) turns either input into the same
plain lists — fleets, links, ports, routes, each flow group's candidate
routes, per-link overload planes: a :class:`ServerConfig` becomes one
link with ``num_hops`` ports and one route (the classic service is flow
group 0 on it), a multi-bottleneck scenario spec
(:mod:`repro.scenarios`) a route graph whose flow groups each get their
``route_k`` shortest routes.  An entering call takes the candidate with
the most bottleneck headroom (:meth:`RcbrGateway._select_route`).  The
snapshot, report, checkpoint and close fold over the lists in their
order.  The arrival process is one Poisson stream per flow group, and
background cross-traffic is one
:class:`~repro.server.topology.BackgroundDriver` per background process,
applied before every epoch step.

Dual bandwidth authority, by design.  Every call takes one admission
decision, :meth:`RcbrGateway._offer`, drawing class, route, CAC
verdict, workload shift and — only if admitted — holding time in that
order on both shapes; the setup transport is the one difference, and
it is topology data.  Here the accepted call's setup provisions the
switch ports directly (admission is the CAC's decision, not the ER fast
path's — and it mirrors
:mod:`repro.admission.callsim`, which models no setup signaling); on a
route graph the setup reservation travels the route instead.
Renegotiations travel the path under faults.  Lost decreases,
duplicated increases, and partial outage commits therefore leave the
*ports* over-reserving relative to the *link* — the paper's drift
story — and a conservative bottleneck port means a path-granted
increase also fits on the link.  The one way round that is
over-admission: a setup the link grants only in part
(``setup_shortfalls``) leaves the call's unmet demand in the link's
shortfall FIFO, and the link back-fills it as capacity frees without the
ports or the fleet seeing it, so the bottleneck port under-counts the
link and can pass increases the link then grants only in part
(``link_shortfalls``).  With no setup shortfall there is no link
shortfall.

The base workload can be handed in directly or sampled from any
:class:`~repro.traffic.sources.TrafficSource` (``config.source`` names a
registry model; a ``source`` instance overrides it), so the runtime can
carry Star-Wars-like, Markov, multi-timescale, on/off, or trace-playback
fleets through one code path.

When offered load stays above capacity, an optional overload control
plane per link (:mod:`repro.overload`) watches pressure on its link
with hysteresis and applies the configured policy to the calls routed
across that link, by event key — downgrade walks service
classes down a resolution ladder (granted rates shrink immediately,
future arrivals shrink through the kernel's downgrade mask), sacrifice
evicts the cheapest-to-displace calls into a bounded requeue.  The
block policy instantiates no plane at all, so baseline runs remain
byte-identical to pre-overload builds.

Determinism contract: a fixed config seed spawns the arrival-process,
call-property, cell-loss, retry-jitter, workload-sampling, and overload
streams, then four route-graph streams (see :meth:`RcbrGateway.__init__`;
each was appended after the last, so seeded runs predating it are
unchanged); the event heap is FIFO-stable;
renegotiation issue order is ascending pool-slot order, and every
overload action walks slots in ascending order too.  Same seed (and
same fault plan seed) ⇒ bit-identical snapshot stream, enforced via
:func:`~repro.server.stats.snapshot_fingerprint`.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from bisect import bisect_right
from typing import Callable, Dict, List, Optional

import networkx as nx
import numpy as np

from repro.admission.callsim import arrival_rate_for_load
from repro.admission.controllers import AdmissionController
from repro.admission.offered import OfferedLoadAccountant
from repro.faults.injectors import FaultPlan
from repro.overload.plane import OverloadControlPlane
from repro.overload.policies import policy_for_config
from repro.queueing.events import Event, EventScheduler
from repro.queueing.link import RcbrLink
from repro.server.config import ServerConfig, build_controller
from repro.server.fleet import CallFleet, EpochStep
from repro.server.sharded import ShardedFleet
from repro.server.stats import (
    ServerReport,
    ServerSnapshot,
    snapshot_fingerprint,
)
from repro.server.topology import (
    GroupStats,
    Route,
    background_drivers,
    network_section,
)
from repro.signaling.messages import RenegotiationRequest
from repro.signaling.network import SignalingPath
from repro.signaling.switch import SwitchPort
from repro.traffic.sources import TrafficSource, make_source
from repro.traffic.trace import SlottedWorkload
from repro.util.rng import spawn_generators
from repro.util.slots import GROUP_STRIDE, SlotInterner, grown
from repro.util.stats import jain_fairness

#: Tolerance when comparing epoch boundaries against snapshot deadlines.
_TIME_EPSILON = 1e-9

EpochHook = Callable[[int, "RcbrGateway"], Optional[bool]]

class RcbrGateway:
    """A long-lived RCBR service instance over one link or a route graph.

    ``spec``, a scenario spec, adds its background processes and, when
    it is multi-bottleneck, replaces the config's one link with its
    route graph (see :meth:`_build_topology`).
    """

    #: Event-heap callbacks a checkpoint may carry (encoded by method
    #: name, decoded by ``getattr`` on the restoring gateway).  Anything
    #: else in the heap at save time is a bug — refuse rather than
    #: guess.  Subclasses with extra callbacks extend this.
    EVENT_CALLBACK_ALLOWLIST = frozenset(
        {"_handle_arrival", "_handle_departure", "_complete_batch"}
    )

    def __init__(
        self,
        workload: Optional[SlottedWorkload],
        config: ServerConfig,
        controller: Optional[AdmissionController] = None,
        faults: Optional[FaultPlan] = None,
        source: Optional[TrafficSource] = None,
        spec=None,
    ) -> None:
        # Ten streams, spawned once; the spawn-prefix property keeps
        # streams 0-5 those of a six-stream spawn.  A config-compiled
        # topology draws 2 (cell loss), 3 (retries) and 5 (its plane); a
        # route graph 6 (workloads), 8 (every route path) and 9 (its
        # planes); 7 samples any scenario background.
        streams = spawn_generators(config.seed, 10)
        (
            self._arrival_rng,
            self._call_rng,
            _,
            _,
            source_rng,
            self._overload_rng,
        ) = streams[:6]
        # A multi-bottleneck scenario spec compiles to a route graph; a
        # single-bottleneck one compiles through its config, like a
        # plain ServerConfig, and adds only its background.
        graph = None if spec is None or spec.single_bottleneck else spec
        self._graph = graph

        # Resolve the base workload: an explicit TrafficSource instance
        # wins, then a registry name in config.source (sampled on the
        # dedicated stream so runs stay seed-deterministic), then the
        # workload handed in directly.  A route graph samples one per
        # flow group, in flow order, and serves the first as the base.
        if source is None and config.source is not None:
            source = make_source(config.source, workload=workload)
        self.source = source
        if graph is not None:
            workloads = [
                source.sample_workload(config.source_slots, seed=streams[6])
                for _ in graph.flows
            ]
            workload = workloads[0]
        elif source is not None:
            workload = source.sample_workload(
                config.source_slots, seed=source_rng
            )
        if workload is None:
            raise ValueError(
                "RcbrGateway needs a workload or a traffic source"
            )
        self.workload = workload
        self.config = config
        self.faults = faults
        self.params = config.resolve_online_params()
        self.controller = (
            controller
            if controller is not None
            else build_controller(config, workload, self.params)
        )

        self.engine = EventScheduler()
        self.mean_holding = (
            config.mean_holding
            if config.mean_holding is not None
            else workload.duration
        )
        #: Identity stamps beyond config, workload and code version that
        #: every checkpoint of this gateway carries and every restore
        #: requires (the scenario harness adds the scenario hash).
        self.identity_stamps: Dict[str, object] = {}

        self._call_ids = itertools.count()
        # The departure calendar (see :meth:`_arm_departure`): per epoch
        # beyond the promoted horizon, the event keys of the departures
        # armed into it; the promoted departures' events by key; and the
        # last promoted epoch.
        self._calendar: Dict[int, List[int]] = {}
        self._promoted: Dict[int, Event] = {}
        self._promoted_through = -1

        # Service classes + class-aware offered-load accounting: classes
        # are drawn from the dedicated overload stream, so the legacy
        # streams (and hence block-only fingerprints) are untouched.
        # The draw is numpy's own ``Generator.choice(k, p=...)``
        # algorithm on a CDF built once: one ``random()`` per call,
        # bisected on the right, without choice's per-call validation.
        self.num_classes = config.overload_classes
        weights = (
            np.asarray(config.class_weights, dtype=float)
            if config.class_weights is not None
            else np.ones(self.num_classes)
        )
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        self._class_cdf = cdf.tolist()
        self.offered = OfferedLoadAccountant(self.num_classes)

        # Cumulative counters (snapshot definitions match
        # repro.admission.callsim.CallCounters).
        self.arrivals = 0
        self.blocked = 0
        self.admitted = 0
        self.departed = 0
        self.abandoned = 0
        self.setup_shortfalls = 0
        self.reneg_requests = 0
        self.reneg_denied = 0
        self.injected_denials = 0
        self.link_shortfalls = 0

        self.snapshots: List[ServerSnapshot] = []
        self._last_snapshot_time = 0.0
        self._last_allocated_bit_seconds = 0.0
        self._last_reneg_requests = 0

        self._next_tick = 0
        self._preloaded = False

        # The topology, built once from either input as the plain lists
        # the snapshot, report, checkpoint and close fold over:
        # ``_fleets`` (flow-group order; event keys index it), ``links``
        # (link order), ``ports`` (every switch port; the last
        # ``len(links)`` are the links' bottleneck ports, in link
        # order), ``routes`` (construction order; a route's index is its
        # position), ``_candidates`` (each flow group's routes),
        # ``link_planes`` (each link's overload plane, None where none
        # runs), ``backgrounds`` (one driver per background process),
        # ``_arrival_rates`` and ``_initial_calls`` (per flow group),
        # ``_setup_travels`` (see :meth:`_offer`) and ``_net_slots``
        # (see :meth:`_bind`).
        self._build_topology(
            graph, streams, [workload] if graph is None else workloads
        )
        self._plane_rng = streams[5] if graph is None else streams[9]
        self.link_planes = [
            self._new_plane(index) for index in range(len(self.links))
        ]
        self.backgrounds = (
            []
            if spec is None
            else background_drivers(
                spec, self.ports[-len(self.links):], self.links, streams[7]
            )
        )
        # Views of the lists: the config-compiled topology's one fleet,
        # link and path, and its plane (whose section is the snapshot's
        # ``overload`` payload; a route graph reports its planes in the
        # ``network`` section instead).
        self.fleet = self._fleets[0]
        self.link = self.links[0]
        self.path = self.routes[0].path
        self.overload_plane = self.link_planes[0] if graph is None else None
        self.group_stats = [GroupStats() for _ in self._fleets]
        # A call's binding, per flow group and pool slot: its route's
        # index and the handle (vci) it reserves under on that route,
        # then its departure's time and event sequence number.
        self._route_of = [np.zeros(f.capacity, dtype=np.int64) for f in self._fleets]
        self._vci_of = [np.zeros(f.capacity, dtype=np.int64) for f in self._fleets]
        self._depart_at = [np.zeros(f.capacity) for f in self._fleets]
        self._depart_seq = [np.zeros(f.capacity, dtype=np.int64) for f in self._fleets]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_topology(self, graph, streams, workloads) -> None:
        """Turn either input into the topology lists.

        A config (``graph`` None) is one link with ``num_hops`` switch
        ports, the last the bottleneck, and one route over them whose
        signaling path runs on streams 2 (cell loss) and 3 (retries);
        its one flow group's fleet starts at ``max(256,
        initial_calls)`` slots and its calls reserve under their pool
        slots.  A route graph is one link and bottleneck port per link
        spec and, per flow group in flow order, its ``route_k`` shortest
        routes as its candidates, each distinct route built once with
        its signaling path on stream 8; every group's fleet starts at
        256 slots, calls reserve under interned network slots, and a
        call's setup travels its route.  Either way a group's Poisson
        arrival rate is its load against its first candidate's
        bottleneck capacity."""
        config = self.config
        signaling = dict(
            faults=self.faults,
            request_timeout=config.request_timeout,
            max_retries=config.max_retries,
            retry_backoff=config.retry_backoff,
            retry_jitter=config.retry_jitter,
        )
        if graph is None:
            self.links = [RcbrLink(config.capacity)]
            # Upstream hops get headroom so the bottleneck stays binding.
            self.ports = [
                SwitchPort(
                    config.capacity * config.upstream_headroom,
                    name=f"hop{index}",
                )
                for index in range(config.num_hops - 1)
            ]
            self.ports.append(SwitchPort(config.capacity, name="bottleneck"))
            path = SignalingPath(
                self.ports,
                hop_delay=config.hop_delay,
                seed=streams[2],
                retry_seed=streams[3],
                **signaling,
            )
            self.routes = [
                Route(0, tuple(self.links), path, tuple(self.ports), config.capacity)
            ]
            self._candidates = [self.routes]
            groups = [(config.load, config.initial_calls, max(256, config.initial_calls))]
            self._net_slots = None
        else:
            network = nx.Graph()
            network.add_edges_from((link.u, link.v) for link in graph.links)
            edge_index = {
                frozenset((link.u, link.v)): index
                for index, link in enumerate(graph.links)
            }
            self.links = [RcbrLink(link.capacity) for link in graph.links]
            self.ports = [
                SwitchPort(link.capacity, name=f"{link.u}<->{link.v}")
                for link in graph.links
            ]
            routes: Dict[tuple, Route] = {}
            self._candidates = []
            for flow in graph.flows:
                k = flow.route_k if flow.route_k is not None else graph.route_k
                shortest = nx.shortest_simple_paths(network, flow.source, flow.target)
                candidates = [tuple(nodes) for nodes in itertools.islice(shortest, k)]
                for nodes in candidates:
                    if nodes in routes:
                        continue
                    hops = [edge_index[frozenset(edge)] for edge in zip(nodes, nodes[1:])]
                    delays = [graph.links[hop].delay for hop in hops]
                    path = SignalingPath(
                        [self.ports[hop] for hop in hops],
                        # One scalar per-hop delay; the mean keeps the
                        # route's round trip (2 * sum of link delays).
                        hop_delay=sum(delays) / len(delays),
                        seed=streams[8],
                        retry_seed=streams[8],
                        **signaling,
                    )
                    routes[nodes] = Route(
                        len(routes),
                        tuple(self.links[hop] for hop in hops),
                        path,
                        tuple(path.ports),
                        min(graph.links[hop].capacity for hop in hops),
                        nodes,
                    )
                self._candidates.append([routes[nodes] for nodes in candidates])
            self.routes = list(routes.values())
            groups = [(flow.load, flow.initial_calls, 256) for flow in graph.flows]
            self._net_slots = SlotInterner()
        self._setup_travels = graph is not None
        self._fleets = [
            self._new_fleet(workload, config, capacity)
            for workload, (_, _, capacity) in zip(workloads, groups)
        ]
        self._initial_calls = [initial for _, initial, _ in groups]
        self._arrival_rates = [
            0.0
            if load <= 0
            else arrival_rate_for_load(
                load, candidates[0].capacity, workload.mean_rate, self.mean_holding
            )
            for (load, _, _), candidates, workload in zip(
                groups, self._candidates, workloads
            )
        ]

    def _new_plane(self, index: int) -> Optional[OverloadControlPlane]:
        """Link ``index``'s overload plane, driving the configured policy
        over the calls routed across that link; None under block, so the
        baseline takes the exact pre-overload code path."""
        config = self.config
        policy = policy_for_config(config)
        if policy is None:
            return None
        return OverloadControlPlane(
            self,
            index,
            policy,
            enter=config.overload_enter,
            exit_=config.overload_exit,
            dwell=config.overload_dwell,
            rng=self._plane_rng,
        )

    @property
    def paths(self) -> List[SignalingPath]:
        """Every route's signaling path, in route order."""
        return [route.path for route in self.routes]

    def _new_fleet(
        self,
        workload: SlottedWorkload,
        config: ServerConfig,
        initial_capacity: int,
    ) -> CallFleet:
        """``config.shards`` picks the fleet's executor and nothing else:
        0 steps the kernel inline, >= 1 on a worker pool."""
        if config.shards:
            return ShardedFleet(
                workload,
                self.params,
                buffer_size=config.buffer_bits,
                initial_capacity=initial_capacity,
                num_shards=config.shards,
                chunk_size=config.shard_chunk,
            )
        return CallFleet(
            workload,
            self.params,
            buffer_size=config.buffer_bits,
            initial_capacity=initial_capacity,
        )

    # ------------------------------------------------------------------
    # Call lifecycle
    # ------------------------------------------------------------------
    def _draw_class(self) -> int:
        """One arriving call's service class (``Generator.choice`` exactly)."""
        return bisect_right(self._class_cdf, self._overload_rng.random())

    def _offer(self, group: int, now: float) -> Optional[int]:
        """Offer one call to ``group``; returns its id if admitted, None
        if blocked.

        Draws the class (overload stream), then the route and the CAC
        verdict against its bottleneck capacity, then the shift (call
        stream) and — only if admitted — the holding time.  Where the
        setup travels the route (``_setup_travels``) the initial rate
        is reserved hop by hop from rate 0, so a hop without headroom
        blocks the call; otherwise install provisions the ports.
        """
        stats = self.group_stats[group]
        self.arrivals += 1
        stats.arrivals += 1
        call_class = self._draw_class()
        self.offered.on_arrival(call_class)
        route = self._select_route(group)
        if self.controller.admit(route.capacity, now, call_class=call_class):
            fleet = self._fleets[group]
            shift = int(self._call_rng.integers(fleet.workload.num_slots))
            call_id = next(self._call_ids)
            slot, rate = fleet.admit(call_id, shift, call_class)
            key = group * GROUP_STRIDE + slot
            vci = self._bind(group, slot, call_id, route)
            if not self._setup_travels or route.path.renegotiate(
                RenegotiationRequest(vci, 0.0, rate, now)
            ):
                holding = float(self._call_rng.exponential(self.mean_holding))
                return self._install_call(
                    key, call_id, rate, holding, call_class, now,
                    provision=not self._setup_travels,
                )
            # A setup cell lost after upstream hops committed leaves
            # them holding its rate (drift no teardown repairs); that
            # handle stays out of reuse so no later call inherits the
            # stale reservation.
            if not any(port.rate_of(vci) for port in route.ports):
                self._unbind(call_id)
            fleet.remove(slot)
        self.blocked += 1
        stats.blocked += 1
        self.offered.on_blocked(call_class)
        return None

    def _install_call(
        self,
        key: int,
        call_id: int,
        rate: float,
        holding: float,
        call_class: int,
        now: float,
        provision: bool,
    ) -> int:
        """Put an accepted, bound call in service: reserve its initial
        ``rate`` on every link of its route, provision the route's ports
        when ``provision`` is set (a setup that did not travel the route
        itself), and arm its departure ``holding`` seconds from ``now``."""
        group, slot = divmod(key, GROUP_STRIDE)
        vci, route = self._route(key)
        granted, failed = self._reserve(vci, route.links, rate, now)
        if failed:
            self.setup_shortfalls += 1
        self._fleets[group].set_rate(slot, granted)
        if provision:
            for port in route.ports:
                port.provision(vci, granted)
        self.controller.on_admit(call_id, granted, now, call_class=call_class)
        self.admitted += 1
        self.group_stats[group].admitted += 1
        self.offered.on_admitted(call_class)
        self._arm_departure(key, call_id, now + holding)
        return call_id

    def _readmit(
        self,
        group: int,
        call_class: int,
        shift: int,
        remaining: float,
        now: float,
    ) -> int:
        """Put a sacrificed call back in service for its remaining
        holding time, under a fresh call id and a freshly bound route.
        Counted as a new arrival plus admission so the lifecycle
        identities keep balancing; the admission controller is *not*
        consulted — readmission is the plane's decision, made only when
        pressure is back below the exit threshold — so the reservation
        is installed and the ports provisioned directly."""
        self.arrivals += 1
        self.group_stats[group].arrivals += 1
        self.offered.on_arrival(call_class)
        route = self._select_route(group)
        call_id = next(self._call_ids)
        slot, rate = self._fleets[group].admit(call_id, shift, call_class)
        self._bind(group, slot, call_id, route)
        key = group * GROUP_STRIDE + slot
        return self._install_call(
            key, call_id, rate, remaining, call_class, now, provision=True
        )

    def _admit_batch(self, count: int, now: float) -> None:
        """``count`` x :meth:`_offer` to classic group 0 at ``now``,
        bit-identical, as one vector admission (see :meth:`preload`)."""
        route = self.routes[0]
        stats = self.group_stats[0]
        self.arrivals += count
        stats.arrivals += count
        classes = np.searchsorted(
            self._class_cdf, self._overload_rng.random(count), side="right"
        )
        self.offered.record_batch("arrivals", classes)
        admitted = self.controller.admit_batch(route.capacity, now, classes)
        if not bool(admitted.all()):
            blocked = int(np.count_nonzero(~admitted))
            self.blocked += blocked
            stats.blocked += blocked
            self.offered.record_batch("blocked", classes[~admitted])
            classes = classes[admitted]
        count = int(classes.size)
        shifts = np.empty(count, dtype=np.int64)
        holdings: List[float] = []
        draw_shift = self._call_rng.integers
        draw_holding = self._call_rng.exponential
        num_slots = self.workload.num_slots
        mean_holding = self.mean_holding
        for index in range(count):
            shifts[index] = draw_shift(num_slots)
            holdings.append(draw_holding(mean_holding))

        first_id = next(self._call_ids)
        self._call_ids = itertools.count(first_id + count)
        call_ids = list(range(first_id, first_id + count))
        slots, initial_rates = self.fleet.admit_batch(call_ids, shifts, classes)
        self._bind(0, slots, call_ids, route)
        granted, failures = self.link.request_batch(slots, initial_rates, now)
        self.setup_shortfalls += failures
        self.fleet.rate[slots] = granted
        for port in route.ports:
            port.provision_batch(slots, granted)
        self.controller.on_admit_batch(
            call_ids, granted.tolist(), now, call_classes=classes
        )
        self.admitted += count
        stats.admitted += count
        self.offered.record_batch("admitted", classes)
        self._arm_departures(0, slots, now + np.array(holdings))

    def _handle_arrival(self, group: int) -> None:
        self._offer(group, self.engine.now)
        self._schedule_arrival(group)

    def _schedule_arrival(self, group: int) -> None:
        rate = self._arrival_rates[group]
        if rate <= 0:
            return
        gap = float(self._arrival_rng.exponential(1.0 / rate))
        self.engine.schedule_in(gap, self._handle_arrival, group)

    def _handle_departure(self, key: int, call_id: int) -> None:
        group, slot = divmod(key, GROUP_STRIDE)
        if self._fleets[group].call_id[slot] != call_id:
            return  # stale event: the call already left this pool slot
        del self._promoted[key]
        self._teardown(key, call_id, self.engine.now)

    # ------------------------------------------------------------------
    # The departure calendar
    # ------------------------------------------------------------------
    def _arm_departure(self, key: int, call_id: int, time: float) -> None:
        """Arm the departure of the call at event key ``key`` for
        ``time``.

        The call takes its event sequence number now, exactly as an
        immediate ``schedule_at`` would, and the time and sequence go in
        its group's departure columns.  The heap event exists only once
        the departure's epoch is promoted: armed inside the promoted
        horizon it goes straight onto the heap, beyond it into that
        epoch's calendar bucket, which :meth:`_drain` promotes before
        the heap reaches it.  Either way it fires in exact ``(time,
        sequence)`` order among arrivals and completions.
        """
        group, slot = divmod(key, GROUP_STRIDE)
        epoch = math.floor(time / self.workload.slot_duration)
        if epoch <= self._promoted_through:
            event = self.engine.schedule_at(
                time, self._handle_departure, key, call_id
            )
            self._promoted[key] = event
            sequence = event.sequence
        else:
            sequence = self.engine.reserve(1)
            self._calendar.setdefault(epoch, []).append(key)
        self._depart_at[group][slot] = time
        self._depart_seq[group][slot] = sequence

    def _arm_departures(self, group: int, slots: np.ndarray, times: np.ndarray) -> None:
        """:meth:`_arm_departure` for a vector of one group's calls, in
        slot-vector order: one reserved sequence range, two column
        writes and the calendar filed by epoch.  Only the preload arms
        a batch, before the first drain, so every epoch lies beyond the
        promoted horizon."""
        first = self.engine.reserve(int(slots.size))
        self._depart_at[group][slots] = times
        self._depart_seq[group][slots] = np.arange(first, first + slots.size)
        self._file_departures(slots + group * GROUP_STRIDE, times)

    def _file_departures(self, keys: np.ndarray, times: np.ndarray) -> None:
        """Append departures beyond the promoted horizon to their epochs'
        calendar buckets: one sort by epoch, one slice per epoch."""
        epochs = np.floor(times / self.workload.slot_duration).astype(np.int64)
        order = np.argsort(epochs, kind="stable")
        epochs = epochs[order]
        keys = keys[order].tolist()
        # Times are non-negative, so the -1 makes position 0 a start.
        starts = np.flatnonzero(np.diff(epochs, prepend=-1)).tolist()
        calendar = self._calendar
        for epoch, start, stop in zip(
            epochs[starts].tolist(), starts, starts[1:] + [len(keys)]
        ):
            calendar.setdefault(epoch, []).extend(keys[start:stop])

    def _drain(self, until: float) -> None:
        """Run the heap up to ``until``, first promoting every calendar
        bucket up to one epoch past it.

        A bucket may still list a call that left early (abandonment,
        eviction) or whose slot a later call took; only a slot's live
        departure whose epoch is among those promoted now goes on the
        heap, once, under its stored time and sequence, in ``(time,
        sequence)`` order so the heap's layout is the same however the
        departures were armed.
        """
        slot_duration = self.workload.slot_duration
        horizon = math.floor(until / slot_duration) + 1
        promoted = self._promoted_through
        if horizon > promoted:
            due = []
            for epoch in range(promoted + 1, horizon + 1):
                due.extend(self._calendar.pop(epoch, ()))
            self._promoted_through = horizon
            entries = []
            for key in set(due):
                group, slot = divmod(key, GROUP_STRIDE)
                fleet = self._fleets[group]
                if not fleet.active[slot]:
                    continue
                time = float(self._depart_at[group][slot])
                if promoted < math.floor(time / slot_duration) <= horizon:
                    sequence = int(self._depart_seq[group][slot])
                    entries.append((time, sequence, key, int(fleet.call_id[slot])))
            entries.sort()
            for time, sequence, key, call_id in entries:
                self._promoted[key] = self.engine.schedule_reserved(
                    time, sequence, self._handle_departure, key, call_id
                )
        self.engine.run(until=until)

    def _select_route(self, group: int) -> Route:
        """An entering call's route, chosen before the CAC: of its flow
        group's candidates, the one with the most bottleneck headroom,
        the first winning ties (as
        :meth:`~repro.signaling.topology.SignalingNetwork.select_route`
        picks)."""
        candidates = self._candidates[group]
        if len(candidates) == 1:
            return candidates[0]
        return max(
            candidates,
            key=lambda route: min(port.headroom for port in route.ports),
        )

    def _bind(self, group: int, slot, call_id, route: Route):
        """Bind fleet-admitted calls (one, or a vector of classic ones)
        to ``route`` in the group's columns, grown with its pool, and
        return the handle each reserves under: its pool slot, unless the
        topology interns a network slot per call (``_net_slots``) so
        every flow group shares the links' columns."""
        size = self._fleets[group].capacity
        if self._route_of[group].size < size:  # the four grow together
            for columns in (self._route_of, self._vci_of, self._depart_at, self._depart_seq):
                columns[group] = grown(columns[group], size)
        vci = slot if self._net_slots is None else self._net_slots.intern(call_id)
        self._route_of[group][slot] = route.index
        self._vci_of[group][slot] = vci
        return vci

    def _route(self, key: int) -> "tuple[int, Route]":
        """The live call at event key ``key``'s handle and route."""
        group, slot = divmod(key, GROUP_STRIDE)
        return int(self._vci_of[group][slot]), self.routes[self._route_of[group][slot]]

    def _unbind(self, call_id: int) -> None:
        """Return a leaving call's interned handle to reuse."""
        if self._net_slots is not None:
            self._net_slots.release(call_id)

    @staticmethod
    def _reserve(vci: int, links, rate: float, now: float):
        """Request ``rate`` for ``vci`` on every link of a route.  Returns
        the route's grant (its tightest link's; on one link, that link's
        own) and whether any link granted only in part, after which the
        over-granting links are equalized down to the grant so per-link
        utilization stays honest; the binding link keeps the unmet demand
        (-> lost_bits).  A decrease never fails."""
        granted = rate
        failed = False
        for link in links:
            outcome = link.request(vci, rate, now)
            granted = min(granted, outcome.granted_rate)
            failed = failed or outcome.failed
        if failed:
            for link in links:
                if link.grant_of(vci) > granted + 1e-12:
                    link.request(vci, granted, now)
        return granted, failed

    def _teardown(self, key: int, call_id: int, now: float) -> None:
        """Free every hop of a live call's route and take it out of
        service: the end of a departure, abandonment or eviction."""
        group, slot = divmod(key, GROUP_STRIDE)
        fleet = self._fleets[group]
        vci, route = self._route(key)
        self._unbind(call_id)
        self.offered.on_departure(int(fleet.call_class[slot]))
        for link in route.links:
            link.release(vci, now)
        route.path.release(vci)
        self.controller.on_departure(call_id, now)
        fleet.remove(slot)
        self.departed += 1
        self.group_stats[group].departed += 1

    def _evict_call(self, key: int, now: float) -> "tuple[int, int, float]":
        """End a live call before its holding time: the user abandons
        after too many consecutive denials, or an overload plane evicts.

        Returns ``(call_class, shift, remaining_holding)`` so the
        sacrifice policy can requeue it.  Accounted as a departure plus
        an abandonment — the call was forcibly ended — with the
        sacrifice-specific truth kept in the snapshot's overload
        section.  A renegotiation in flight for the call is neutralised
        by the stale-completion guard (the slot's call id changes).
        """
        group, slot = divmod(key, GROUP_STRIDE)
        fleet = self._fleets[group]
        call_id = int(fleet.call_id[slot])
        event = self._promoted.pop(key, None)
        if event is not None:
            event.cancel()
        remaining = max(0.0, float(self._depart_at[group][slot]) - now)
        entry = (int(fleet.call_class[slot]), int(fleet.shift[slot]), remaining)
        self.abandoned += 1
        self.group_stats[group].abandoned += 1
        self._teardown(key, call_id, now)
        return entry

    def _shrink_call(self, key: int, ratio: float, now: float) -> bool:
        """Shrink one call's granted rate by ``ratio`` (re-quantised to
        the grid) on every link of its route, moving the ports and the
        admission controller with it.  A decrease always succeeds.
        Returns whether the rate moved."""
        group, slot = divmod(key, GROUP_STRIDE)
        fleet = self._fleets[group]
        old_rate = float(fleet.rate[slot])
        new_rate = fleet.quantize(old_rate * ratio)
        if new_rate >= old_rate:
            return False
        vci, route = self._route(key)
        granted, _ = self._reserve(vci, route.links, new_rate, now)
        for port in route.ports:
            port.reprovision(vci, granted - old_rate)
        self.controller.on_reservation(int(fleet.call_id[slot]), granted, now)
        fleet.set_rate(slot, granted)
        return True

    # ------------------------------------------------------------------
    # The epoch step and its renegotiation round trips
    # ------------------------------------------------------------------
    def _step_epoch(self, tick: int, now: float, end_of_slot: float) -> None:
        """One data-plane epoch: overload poll, then per flow group in
        flow order a vector step and its renegotiation issue.
        :meth:`run` applies the background drivers just before it."""
        downgrade = self._poll_link_planes(tick, now)
        for group, fleet in enumerate(self._fleets):
            step = fleet.step(
                tick, downgrade=None if downgrade is None else downgrade[group]
            )
            if step.num_requests:
                self._issue_epoch(group, step, end_of_slot)

    def _poll_link_planes(self, tick: int, now: float) -> Optional[List[np.ndarray]]:
        """Drive each link's overload plane once, in link order, and fold
        the per-class downgrade factors of those that ask, gathered by
        each call's class and masked to the link's calls, into per-group
        columns by minimum.  A call on the link keeps the plane's factor
        bit for bit; the mask only resets other slots to 1.0, and an
        inactive slot's factor scales zero arrivals.  None when no plane
        asks (always under block)."""
        combined: Optional[List[np.ndarray]] = None
        for plane in self.link_planes:
            factors = None if plane is None else plane.on_epoch(tick, now)
            if factors is None:
                continue
            parts = [
                np.where(member, factors[fleet.call_class], 1.0)
                for member, fleet in zip(plane.members(), self._fleets)
            ]
            combined = parts if combined is None else list(map(np.minimum, combined, parts))
        return combined

    def link_members(self, index: int) -> List[np.ndarray]:
        """Per flow group, which pool slots hold a live call routed over
        link ``index``: one crossing flag per route, built from
        :attr:`routes` on each call, gathered on the group's route
        column and masked by ``active``."""
        link = self.links[index]
        crosses = np.array([link in route.links for route in self.routes], dtype=bool)
        return [
            crosses[routes] & fleet.active
            for routes, fleet in zip(self._route_of, self._fleets)
        ]

    def _shared_route(self, group: int, slots: np.ndarray) -> Optional[Route]:
        """The route every call at ``slots`` of ``group`` is bound to, or
        None when they span several (they then signal and reserve call
        by call)."""
        if len(self.routes) == 1:  # the classic service: no gather
            return self.routes[0]
        route_ids = self._route_of[group][slots]
        first = int(route_ids[0])
        return self.routes[first] if bool((route_ids == first).all()) else None

    def _issue_epoch(self, group: int, step: EpochStep, end_of_slot: float) -> None:
        """Issue every renegotiation flow group ``group``'s epoch step
        produced.

        ``step.slots`` is in ascending pool-slot order — the documented
        issue order of the determinism contract.  Unfaulted, calls on
        one route travel as one :meth:`SignalingPath.renegotiate_batch`
        (vectorized denials on a single hop, the exact scalar walk for
        multi-hop rollback).  A fault plan draws its injected denial per
        increase, interleaved with each call's own path walk, and calls
        on several routes walk their own paths, so those epochs walk
        the calls one by one.  The answers land as one
        :meth:`_complete_batch` per distinct landing time ``end_of_slot
        + route RTT``, pushed in order of each time's first call with
        the calls in slot order: just where one event per call popped.
        """
        fleet = self._fleets[group]
        slots = step.slots
        keys = slots + group * GROUP_STRIDE
        call_ids = fleet.call_id[slots]
        new_rates = step.candidates
        old_rates = fleet.rate[slots]
        count = int(slots.size)
        fleet.pending[slots] = True
        self.reneg_requests += count
        self.group_stats[group].reneg_requests += count
        increases = new_rates > old_rates
        vcis = self._vci_of[group][slots]
        route = None if self.faults is not None else self._shared_route(group, slots)
        if route is not None:
            granted = route.path.renegotiate_batch(vcis, old_rates, new_rates, end_of_slot)
            landings = {end_of_slot + route.path.round_trip_time: slice(None)}
        else:
            route_ids = self._route_of[group][slots]
            granted = np.array(
                [
                    self._signal(self.routes[index].path, vci, old_rate, new_rate, end_of_slot)
                    for index, vci, old_rate, new_rate in zip(
                        route_ids.tolist(), vcis.tolist(), old_rates.tolist(), new_rates.tolist()
                    )
                ],
                dtype=bool,
            )
            rtts = np.array([known.path.round_trip_time for known in self.routes])
            times = end_of_slot + rtts[route_ids]
            landings = {time: times == time for time in dict.fromkeys(times.tolist())}
        # A lost decrease still applies at the source (it believes the new
        # rate), leaving the network over-reserving until resync — drift.
        apply = granted | ~increases
        for time, members in landings.items():
            self.engine.schedule_at(
                time,
                self._complete_batch,
                keys[members],
                call_ids[members],
                new_rates[members],
                apply[members],
            )

    def _signal(
        self,
        path: SignalingPath,
        vci: int,
        old_rate: float,
        new_rate: float,
        time: float,
    ) -> bool:
        """One renegotiation's signaling, call by call: a fault plan's
        injected denial for an increase, else the walk down ``path``.
        Returns whether the path granted the new rate."""
        if (
            new_rate > old_rate
            and self.faults is not None
            and self.faults.should_deny(time)
        ):
            self.injected_denials += 1
            return False
        return path.renegotiate(
            RenegotiationRequest(
                vci=vci, old_rate=old_rate, new_rate=new_rate, time=time
            )
        )

    def _complete(
        self, key: int, call_id: int, new_rate: float, apply: bool
    ) -> None:
        """Land one renegotiation answer on every link of the call's
        route (see :meth:`_reserve`)."""
        group, slot = divmod(key, GROUP_STRIDE)
        fleet = self._fleets[group]
        if fleet.call_id[slot] != call_id:
            return  # the call departed while its cell was in flight
        fleet.pending[slot] = False
        now = self.engine.now
        if apply:
            vci, route = self._route(key)
            granted, failed = self._reserve(vci, route.links, new_rate, now)
            if failed:
                self.link_shortfalls += 1
            fleet.set_rate(slot, granted)
            self.controller.on_reservation(call_id, granted, now)
            fleet.streak[slot] = 0
            return
        self.reneg_denied += 1
        self.group_stats[group].reneg_denied += 1
        streak = int(fleet.streak[slot]) + 1
        fleet.streak[slot] = streak
        if (
            self.config.abandon_after is not None
            and streak >= self.config.abandon_after
        ):
            self._evict_call(key, now)

    def _complete_batch(
        self,
        keys: np.ndarray,
        call_ids: np.ndarray,
        new_rates: np.ndarray,
        apply: np.ndarray,
    ) -> None:
        """Land one flow group's renegotiation answers due at one time,
        exactly as :meth:`_complete` per call in ascending slot order
        would."""
        group = int(keys[0]) // GROUP_STRIDE
        fleet = self._fleets[group]
        slots = keys - group * GROUP_STRIDE
        all_applied = bool(np.all(apply))
        if not all_applied and self.config.abandon_after is not None:
            # An abandonment mid-batch mutates the free list (and can
            # release link and port state) between completions; only
            # the scalar replay, in ascending slot order, is exact there.
            # Slots are unique, so each gets at most one streak bump
            # this batch and the pre-check sees the decisive value.
            denied_mask = ~apply
            denied_slots = slots[denied_mask]
            live = fleet.call_id[denied_slots] == call_ids[denied_mask]
            streaks = fleet.streak[denied_slots[live]]
            if bool(np.any(streaks + 1 >= self.config.abandon_after)):
                for index in range(keys.size):
                    self._complete(
                        int(keys[index]),
                        int(call_ids[index]),
                        float(new_rates[index]),
                        bool(apply[index]),
                    )
                return
        valid = fleet.call_id[slots] == call_ids
        if not bool(valid.all()):
            slots = slots[valid]
            call_ids = call_ids[valid]
            new_rates = new_rates[valid]
            apply = apply[valid]
            if slots.size == 0:
                return
        fleet.pending[slots] = False
        now = self.engine.now
        if not all_applied:
            # Denied completions never touch the link, so splitting
            # them out of the ascending-order commit is exact; the
            # streak bumps and grant resets land on disjoint slots.
            denied_slots = slots[~apply]
            if denied_slots.size:
                self.reneg_denied += int(denied_slots.size)
                self.group_stats[group].reneg_denied += int(denied_slots.size)
                fleet.streak[denied_slots] += 1
            slots = slots[apply]
            call_ids = call_ids[apply]
            new_rates = new_rates[apply]
            if slots.size == 0:
                return
        granted_rates, failures = self._commit(group, slots, new_rates, now)
        self.link_shortfalls += failures
        fleet.rate[slots] = granted_rates
        on_batch = getattr(self.controller, "on_reservation_batch", None)
        if on_batch is not None:
            on_batch(call_ids, granted_rates, now)
        else:
            on_reservation = self.controller.on_reservation
            for call_id, rate in zip(
                call_ids.tolist(), granted_rates.tolist()
            ):
                on_reservation(call_id, rate, now)
        fleet.streak[slots] = 0

    def _commit(self, group: int, slots: np.ndarray, rates: np.ndarray, now: float):
        """Reserve applied answers on their routes' links, exactly as
        :meth:`_reserve` per call in slot order would; returns the grants
        and how many were partial.  Calls on one single-link route commit
        as one :meth:`RcbrLink.request_batch`, exact on its own; anything
        else (a multi-link route, mixed routes) replays :meth:`_reserve`."""
        vcis = self._vci_of[group][slots]
        route = self._shared_route(group, slots)
        if route is not None and len(route.links) == 1:
            return route.links[0].request_batch(vcis, rates, now)
        outcomes = [
            self._reserve(vci, self.routes[index].links, rate, now)
            for vci, rate, index in zip(
                vcis.tolist(), rates.tolist(), self._route_of[group][slots].tolist()
            )
        ]
        return np.array([grant for grant, _ in outcomes]), sum(f for _, f in outcomes)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _take_snapshot(self, time: float) -> ServerSnapshot:
        # Every fold runs in the topology's fixed list order (see
        # __init__), so the floats feeding the fingerprint reproduce.
        links = self.links
        fleets = self._fleets
        for link in links:
            link.finish(time)
        allocated = sum(link.allocated_bit_seconds for link in links)
        window = time - self._last_snapshot_time
        allocated_delta = allocated - self._last_allocated_bit_seconds
        requests_delta = self.reneg_requests - self._last_reneg_requests
        if window > 0:
            utilization = allocated_delta / (self.config.capacity * window)
            renegotiation_rate = requests_delta / window
        else:
            utilization = 0.0
            renegotiation_rate = 0.0
        stats = [path.stats for path in self.paths]
        increase_requests = sum(s.increase_requests for s in stats)
        overload = (
            self._overload_section()
            if self.overload_plane is not None
            else None
        )
        snapshot = ServerSnapshot(
            time=time,
            active_calls=sum(fleet.num_active for fleet in fleets),
            arrivals=self.arrivals,
            blocked=self.blocked,
            admitted=self.admitted,
            departed=self.departed,
            completed=self.departed - self.abandoned,
            abandoned=self.abandoned,
            reneg_requests=self.reneg_requests,
            reneg_denied=self.reneg_denied,
            injected_denials=self.injected_denials,
            link_shortfalls=self.link_shortfalls,
            cells_sent=sum(s.cells_sent for s in stats),
            cells_lost=sum(s.cells_lost for s in stats),
            retries=sum(s.retries for s in stats),
            timeouts=sum(s.timeouts for s in stats),
            signaling_failure_fraction=(
                sum(s.failures for s in stats) / increase_requests
                if increase_requests
                else 0.0
            ),
            bits_lost_overflow=sum(fleet.bits_lost for fleet in fleets),
            bits_lost_link=sum(link.lost_bits for link in links),
            utilization=utilization,
            renegotiation_rate=renegotiation_rate,
            buffer_bits=sum(fleet.total_buffered_bits() for fleet in fleets),
            reserved_rate=sum(
                fleet.total_reserved_rate() for fleet in fleets
            ),
            overload=overload,
            network=self._network_section(),
        )
        self.snapshots.append(snapshot)
        self._last_snapshot_time = time
        self._last_allocated_bit_seconds = allocated
        self._last_reneg_requests = self.reneg_requests
        return snapshot

    def _mean_utilization(self, horizon: float) -> float:
        """Time-average fraction of deliverable capacity reserved, up to
        ``horizon``.  One link reports its own
        :meth:`~repro.queueing.link.RcbrLink.mean_utilization`; several
        fold allocated over deliverable bit-seconds in link order."""
        if len(self.links) == 1:
            return self.links[0].mean_utilization(horizon)
        delivered = sum(
            link.delivered_bit_seconds
            + link.capacity * max(0.0, horizon - link.now)
            for link in self.links
        )
        if delivered <= 0:
            return 0.0
        allocated = sum(link.allocated_bit_seconds for link in self.links)
        return allocated / delivered

    def _network_section(self) -> Optional[Dict[str, object]]:
        """The fingerprinted route-graph payload (per-link and
        per-flow-group state).  None on a config-compiled topology, which
        keeps classic snapshot streams byte-identical — the same
        omission rule as the ``overload`` section."""
        if self._graph is None:
            return None
        return network_section(self._graph, self)

    def _overload_section(self) -> Dict[str, object]:
        """The fingerprinted per-snapshot overload payload: plane state,
        policy counters, and per-class treatment (occupancy, reserved
        rate, fairness, offered-load tallies)."""
        section = self.overload_plane.section()
        counts = self.fleet.class_counts(self.num_classes)
        rates = self.fleet.class_reserved_rates(self.num_classes)
        occupied = counts > 0
        fairness = (
            jain_fairness(rates[occupied] / counts[occupied])
            if bool(occupied.any())
            else 1.0
        )
        section.update(
            {
                "class_active": counts.tolist(),
                "class_reserved_rate": rates.tolist(),
                "class_fairness": fairness,
                "bits_downgraded": self.fleet.bits_downgraded,
                "class_arrivals": list(self.offered.arrivals),
                "class_blocked": list(self.offered.blocked),
                "class_admitted": list(self.offered.admitted),
            }
        )
        return section

    # ------------------------------------------------------------------
    # The service loop
    # ------------------------------------------------------------------
    def preload(self) -> None:
        """Admit the configured initial fleet and arm the arrival process.

        Idempotent; :meth:`run` calls it automatically on first use.  The
        throughput benchmark calls it explicitly so fleet construction is
        not charged against the timed steady-state serving loop.

        Flow groups offer their initial calls in order, then each arms
        its arrival process.  Where the setup does not travel the route
        and the controller has ``admit_batch`` (classic always-admit),
        a group takes one vector admission, :meth:`_admit_batch`, which
        leaves every byte of :meth:`state_dict` as the per-call loop of
        :meth:`_offer` would; every other group takes that loop.  The
        batch is exact because:

        * the classes are one ``random(n)`` draw on the overload stream,
          searched on the right in the class CDF — ``Generator.choice``'s
          own algorithm, stream-identical to n scalar draws;
        * shift and holding time stay interleaved per-call scalar draws
          on the call stream (two array draws would reorder it: PCG64
          keeps the unused half of a 64-bit output for the next 32-bit
          draw);
        * the fleet pops slots in the scalar LIFO order and grows when
          the scalar path would; the link's ``request_batch`` and the
          ports' ``provision_batch`` evolve their running sums as
          ``np.cumsum`` left folds (the link falls back to per-call
          requests when a setup would be granted only in part);
        * departures take one reserved sequence range, which is the
          per-call sequence numbers in call order, and land in the
          departure columns and calendar buckets (no heap event each), so
          the checkpoint is the per-call one.
        """
        if self._preloaded:
            return
        self._preloaded = True
        batch = not self._setup_travels and hasattr(
            self.controller, "admit_batch"
        )
        for group, count in enumerate(self._initial_calls):
            if batch:
                self._admit_batch(count, 0.0)
            else:
                for _ in range(count):
                    self._offer(group, 0.0)
        for group in range(len(self._fleets)):
            self._schedule_arrival(group)

    def run(
        self,
        duration: float,
        snapshot_every: Optional[float] = None,
        epoch_hook: Optional[EpochHook] = None,
    ) -> ServerReport:
        """Serve for ``duration`` more simulated seconds and report.

        ``duration`` is rounded up to whole epochs (slot durations).
        ``run`` is resumable: calling it again continues the same service
        from where the previous call stopped, with counters, snapshots,
        and the fingerprint accumulating — which is how a warm-up period
        is excluded from benchmark timing.

        ``snapshot_every`` emits a :class:`ServerSnapshot` at that period
        (rounded to epoch boundaries); the final snapshot at the end of
        the run is always taken.  ``epoch_hook(tick, gateway)`` runs after
        the heap drain and before the background drivers and the vector
        step of each epoch; a hook returning a truthy value stops the run
        *at that epoch boundary* (the tick it saw is not stepped, and its
        background does not apply) — the graceful-shutdown path of
        ``repro serve``, where the hook writes a final checkpoint before
        the boundary snapshot so a resumed run stays bit-identical to an
        uninterrupted one.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if snapshot_every is not None and snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive")
        slot = self.workload.slot_duration
        epochs = int(math.ceil(duration / slot - _TIME_EPSILON))
        start_tick = self._next_tick

        self.preload()

        next_snapshot = (
            self._last_snapshot_time + snapshot_every
            if snapshot_every is not None
            else math.inf
        )
        completed = 0
        for tick in range(start_tick, start_tick + epochs):
            now = tick * slot
            # Keep "the gateway is at boundary _next_tick" true *inside*
            # the loop, not just between runs: the epoch hook below may
            # checkpoint, and a checkpoint stamped with a stale start
            # tick would resume by replaying epochs already served.
            self._next_tick = tick
            self._drain(now)
            while now >= next_snapshot - _TIME_EPSILON:
                self._take_snapshot(now)
                next_snapshot += snapshot_every  # type: ignore[operator]
            if epoch_hook is not None and epoch_hook(tick, self):
                break
            for background in self.backgrounds:
                background.apply(tick, now)
            self._step_epoch(tick, now, (tick + 1) * slot)
            completed += 1
        self._next_tick = start_tick + completed
        end_time = self._next_tick * slot

        self._drain(end_time)
        final = self._take_snapshot(end_time)
        return ServerReport(
            config=self.config.to_dict(),
            duration=completed * slot,
            epochs=completed,
            final=final,
            snapshots=list(self.snapshots),
            fingerprint=snapshot_fingerprint(self.snapshots),
            # Per-group peaks summed: an upper bound on the concurrent
            # peak of a multi-group topology (the report gauge only).
            peak_active=sum(fleet.peak_active for fleet in self._fleets),
            call_epochs_stepped=sum(
                fleet.call_epochs_stepped for fleet in self._fleets
            ),
            mean_utilization=self._mean_utilization(end_time),
            overload=(
                dict(
                    self._overload_section(),
                    class_blocking=self.offered.blocking_fractions(),
                )
                if self.overload_plane is not None
                else None
            ),
        )


    # ------------------------------------------------------------------
    # Checkpointing (see repro.server.checkpoint and DESIGN.md §15)
    # ------------------------------------------------------------------
    def _encode_callback(self, callback: Callable) -> str:
        name = getattr(callback, "__name__", None)
        if name not in type(self).EVENT_CALLBACK_ALLOWLIST:
            raise ValueError(
                f"cannot checkpoint event callback {callback!r}; "
                f"allowed: {sorted(type(self).EVENT_CALLBACK_ALLOWLIST)}"
            )
        if getattr(callback, "__self__", None) is not self:
            raise ValueError(
                f"event callback {callback!r} is not bound to this gateway"
            )
        return name

    def _decode_callback(self, token: str) -> Callable:
        if token not in type(self).EVENT_CALLBACK_ALLOWLIST:
            raise ValueError(f"unknown checkpointed event callback {token!r}")
        return getattr(self, token)

    def state_dict(self) -> Dict[str, object]:
        """Export the complete mutable runtime state of this gateway.

        Everything a resumed run's fingerprint can depend on is here:
        kernel/fleet columns, call bindings (route and handle columns),
        the departure columns (time and sequence) and promoted horizon,
        link allocations and compensated sums, per-hop port state, the
        event heap (callbacks encoded by method name), all live RNG
        streams, overload-plane hysteresis, fault injectors, counters
        (totals and per flow group), and the accumulated snapshot
        stream.  The workload-sampling stream is *not* captured: it is
        consumed only during ``__init__``, and a restoring gateway
        reconstructs from the identical config, re-drawing it
        identically.  Nor is the departure calendar: its buckets are the
        live calls' unpromoted departures, filed again on restore.

        The returned structure shares arrays and objects with the live
        gateway; :func:`repro.server.checkpoint.write_checkpoint`
        pickles it immediately.  Call this only at an epoch boundary
        (after the heap drain, before the vector step) — the documented
        quiescent point where ``path.in_flight`` is empty and no
        renegotiation is torn.
        """
        return {
            "engine": self.engine.state_dict(self._encode_callback),
            "fleets": [fleet.state_dict() for fleet in self._fleets],
            "links": [link.state_dict() for link in self.links],
            "ports": [port.state_dict() for port in self.ports],
            "paths": [path.state_dict() for path in self.paths],
            "bindings": [self._route_of, self._vci_of],
            "departures": [self._depart_at, self._depart_seq, self._promoted_through],
            "net_slots": (
                None if self._net_slots is None else self._net_slots.state_dict()
            ),
            "faults": (
                self.faults.state_dict() if self.faults is not None else None
            ),
            "controller": self.controller,
            "offered": self.offered,
            "link_planes": [
                plane.state_dict() if plane is not None else None
                for plane in self.link_planes
            ],
            "rng": {
                "arrival": self._arrival_rng.bit_generator.state,
                "call": self._call_rng.bit_generator.state,
                "overload": self._overload_rng.bit_generator.state,
                "plane": self._plane_rng.bit_generator.state,
            },
            "next_call_id": self._peek_call_ids(),
            "counters": {
                "arrivals": self.arrivals,
                "blocked": self.blocked,
                "admitted": self.admitted,
                "departed": self.departed,
                "abandoned": self.abandoned,
                "setup_shortfalls": self.setup_shortfalls,
                "reneg_requests": self.reneg_requests,
                "reneg_denied": self.reneg_denied,
                "injected_denials": self.injected_denials,
                "link_shortfalls": self.link_shortfalls,
            },
            "group_stats": [
                dataclasses.asdict(stats) for stats in self.group_stats
            ],
            "snapshots": list(self.snapshots),
            "last_snapshot_time": self._last_snapshot_time,
            "last_allocated_bit_seconds": self._last_allocated_bit_seconds,
            "last_reneg_requests": self._last_reneg_requests,
            "next_tick": self._next_tick,
            "preloaded": self._preloaded,
        }

    def _peek_call_ids(self) -> int:
        """Read the next call id without net side effects (consume one,
        recreate the counter at the observed value)."""
        next_id = next(self._call_ids)
        self._call_ids = itertools.count(next_id)
        return next_id

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` export into this (fresh) gateway.

        The caller (:meth:`restore` via ``repro.server.checkpoint``) has
        already verified the checkpoint was taken under this exact
        config, so every structural attribute — workload, params, plane
        presence, hop count, shard layout — is already right; this
        method only replays the mutable state.  Restoring into a
        gateway that has already served traffic is unsupported.
        """
        for kind, parts in (
            ("fleets", self._fleets),
            ("links", self.links),
            ("ports", self.ports),
            ("paths", self.paths),
        ):
            states: list = state[kind]  # type: ignore[assignment]
            if len(states) != len(parts):
                raise ValueError(
                    f"checkpoint has {len(states)} {kind}, "
                    f"gateway has {len(parts)}"
                )
            for part, part_state in zip(parts, states):
                part.load_state(part_state)
        routes, vcis = state["bindings"]  # type: ignore[misc]
        self._route_of = [np.array(column) for column in routes]
        self._vci_of = [np.array(column) for column in vcis]
        times, sequences, self._promoted_through = state["departures"]  # type: ignore[misc]
        self._depart_at = [np.array(column) for column in times]
        self._depart_seq = [np.array(column) for column in sequences]
        if self._net_slots is not None:
            self._net_slots.load_state(state["net_slots"])  # type: ignore[arg-type]
        faults_state = state["faults"]
        if (faults_state is None) != (self.faults is None):
            raise ValueError(
                "checkpoint and gateway disagree about fault injection"
            )
        if self.faults is not None:
            self.faults.load_state(faults_state)  # type: ignore[arg-type]
        self.controller = state["controller"]  # type: ignore[assignment]
        self.offered = state["offered"]  # type: ignore[assignment]
        plane_states: list = state["link_planes"]  # type: ignore[assignment]
        if [plane is None for plane in plane_states] != [
            plane is None for plane in self.link_planes
        ]:
            raise ValueError(
                "checkpoint and gateway disagree about the overload planes"
            )
        for plane, plane_state in zip(self.link_planes, plane_states):
            if plane is not None:
                plane.load_state(plane_state)
        rng_states = state["rng"]
        self._arrival_rng.bit_generator.state = rng_states["arrival"]  # type: ignore[index]
        self._call_rng.bit_generator.state = rng_states["call"]  # type: ignore[index]
        self._overload_rng.bit_generator.state = rng_states["overload"]  # type: ignore[index]
        self._plane_rng.bit_generator.state = rng_states["plane"]  # type: ignore[index]
        self._call_ids = itertools.count(int(state["next_call_id"]))  # type: ignore[arg-type]
        events = self.engine.load_state(
            state["engine"], self._decode_callback  # type: ignore[arg-type]
        )
        self._promoted = {
            event.args[0]: event
            for event in events
            if not event.cancelled
            and event.callback.__name__ == "_handle_departure"
        }
        self._calendar = {}
        for group, fleet in enumerate(self._fleets):
            slots = np.flatnonzero(fleet.active)
            keys = slots + group * GROUP_STRIDE
            waiting = ~np.isin(keys, list(self._promoted))
            self._file_departures(keys[waiting], self._depart_at[group][slots[waiting]])
        counters = state["counters"]
        self.arrivals = int(counters["arrivals"])  # type: ignore[index]
        self.blocked = int(counters["blocked"])  # type: ignore[index]
        self.admitted = int(counters["admitted"])  # type: ignore[index]
        self.departed = int(counters["departed"])  # type: ignore[index]
        self.abandoned = int(counters["abandoned"])  # type: ignore[index]
        self.setup_shortfalls = int(counters["setup_shortfalls"])  # type: ignore[index]
        self.reneg_requests = int(counters["reneg_requests"])  # type: ignore[index]
        self.reneg_denied = int(counters["reneg_denied"])  # type: ignore[index]
        self.injected_denials = int(counters["injected_denials"])  # type: ignore[index]
        self.link_shortfalls = int(counters["link_shortfalls"])  # type: ignore[index]
        self.group_stats = [
            GroupStats(**stats)
            for stats in state["group_stats"]  # type: ignore[union-attr]
        ]
        self.snapshots = list(state["snapshots"])  # type: ignore[arg-type]
        self._last_snapshot_time = float(state["last_snapshot_time"])  # type: ignore[arg-type]
        self._last_allocated_bit_seconds = float(
            state["last_allocated_bit_seconds"]  # type: ignore[arg-type]
        )
        self._last_reneg_requests = int(state["last_reneg_requests"])  # type: ignore[arg-type]
        self._next_tick = int(state["next_tick"])  # type: ignore[arg-type]
        self._preloaded = bool(state["preloaded"])
        for background in self.backgrounds:
            background.sync_to(self._next_tick)

    def save(self, path, defer: bool = False) -> Dict[str, object]:
        """Write an atomic, stamped checkpoint of this gateway to ``path``.

        Returns the checkpoint metadata (code version, config hash,
        simulated time, byte size).  ``defer=True`` moves the file write
        to a background thread (serialization stays inline) — the mode
        for periodic checkpoints on a hot serve loop; the final save of
        a run should stay synchronous.  See
        :mod:`repro.server.checkpoint` for the format, the staleness
        rules, and the deferred-write ordering guarantee.
        """
        from repro.server.checkpoint import write_checkpoint

        return write_checkpoint(path, self, defer=defer)

    def checkpoint_sync(self) -> None:
        """Block until any deferred checkpoint write has landed on disk.

        Raises :class:`repro.server.checkpoint.CheckpointError` if a
        background write failed; a no-op when nothing is pending.
        """
        writer = getattr(self, "_checkpoint_writer", None)
        if writer is not None:
            writer.flush()

    def restore(self, path) -> None:
        """Load a checkpoint written by :meth:`save` into this gateway.

        The gateway must have been freshly built from the *same config*
        the checkpoint was taken under (enforced by canonical config
        hash), stepping the *same workload* (enforced by workload hash —
        the trace is built outside the config), by the *same code
        version* (enforced by version stamp); mismatches raise
        :class:`repro.server.checkpoint.StaleCheckpointError` rather
        than resuming a run that could not be bit-exact.  Every extra
        stamp in :attr:`identity_stamps` must match too.
        """
        from repro.server.checkpoint import read_checkpoint, workload_fingerprint

        # A deferred write to this very path may still be in flight.
        self.checkpoint_sync()
        state = read_checkpoint(
            path,
            self.config,
            workload_hash=workload_fingerprint(self.workload),
            expected_stamps=self.identity_stamps,
        )
        self.load_state(state)

    def close(self) -> None:
        """Release external resources (a sharded fleet's worker pool
        and shared memory).  Idempotent."""
        for fleet in self._fleets:
            fleet.close()

    def __enter__(self) -> "RcbrGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            # Don't let a pending background checkpoint be abandoned by
            # process exit; but never mask an in-flight exception with a
            # flush failure.
            self.checkpoint_sync()
        except Exception:
            if exc_type is None:
                raise
        finally:
            self.close()


def serve(
    workload: Optional[SlottedWorkload],
    config: ServerConfig,
    duration: float,
    snapshot_every: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    source: Optional[TrafficSource] = None,
) -> ServerReport:
    """One-shot convenience wrapper: build a gateway and run it."""
    gateway = build_gateway(workload, config, faults=faults, source=source)
    with gateway:
        return gateway.run(duration, snapshot_every=snapshot_every)


def build_gateway(
    workload: Optional[SlottedWorkload],
    config: ServerConfig,
    controller: Optional[AdmissionController] = None,
    faults: Optional[FaultPlan] = None,
    source: Optional[TrafficSource] = None,
) -> RcbrGateway:
    """Build the gateway ``serve`` and the CLI run (one construction
    point; ``config.shards`` only picks the fleet executor)."""
    return RcbrGateway(
        workload, config, controller=controller, faults=faults, source=source
    )
