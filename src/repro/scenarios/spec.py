"""The declarative scenario schema: topology + flows + hostile background.

A :class:`ScenarioSpec` composes everything a named stress scenario
needs — a topology graph with per-link capacity and one-way propagation
delay (:class:`LinkSpec`), RCBR flow groups binding a calibrated
:mod:`repro.traffic.sources` model to a route through that topology
(:class:`FlowGroupSpec`), and non-RCBR background cross-traffic that
consumes link capacity as a time-varying process
(:class:`BackgroundSpec`) — plus the service-policy knobs the classic
:class:`~repro.server.config.ServerConfig` exposes (controller,
overload policy, abandonment).

Validation is eager, like ``ServerConfig``: a registry typo or an
impossible topology fails at spec construction, not mid-run.

Every spec runs on the one :class:`~repro.server.gateway.RcbrGateway`
(see :mod:`repro.scenarios.runtime`), configured by
:meth:`ScenarioSpec.server_config`: a **single-bottleneck** spec (one
link, one flow group) compiles through that config to the classic
one-link topology, while anything else compiles to a route graph.
Shards, checkpoint/resume, MBAC controllers, and overload policies
beyond blocking apply to both shapes; on a multi-bottleneck topology an
MBAC controller vets each call against its route's bottleneck capacity,
and a non-``block`` overload policy runs one control plane per
bottleneck link, as it runs one on the classic link.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.server.config import CONTROLLER_NAMES, ServerConfig
from repro.traffic.sources import SOURCE_NAMES
from repro.traffic.starwars import STAR_WARS_MEAN_RATE

#: Source models a scenario may name: anything in the registry except
#: trace playback (scenarios are synthetic and self-contained).
SCENARIO_SOURCE_NAMES = tuple(
    name for name in SOURCE_NAMES if name != "trace"
)


@dataclass(frozen=True)
class LinkSpec:
    """One undirected link: endpoints, capacity (bits/s), one-way delay."""

    u: str
    v: str
    capacity: float
    delay: float = 0.001

    def __post_init__(self) -> None:
        for node in (self.u, self.v):
            if not node or not node.isascii():
                raise ValueError("node names must be non-empty ASCII")
        if self.u == self.v:
            raise ValueError("links must join two distinct nodes")
        if self.capacity <= 0:
            raise ValueError("link capacity must be positive")
        if self.delay < 0:
            raise ValueError("link delay must be non-negative")


@dataclass(frozen=True)
class FlowGroupSpec:
    """A group of RCBR calls between two nodes.

    ``load`` is the group's normalized offered load relative to the
    bottleneck capacity of its (k=1) shortest route — the same Erlang
    identity ``ServerConfig.load`` uses, so per-link totals are additive
    across the groups sharing a link.  ``route_k`` overrides the
    spec-wide alternate-route count for this group (``None`` inherits).
    """

    name: str
    source: str
    target: str
    load: float = 0.0
    initial_calls: int = 0
    route_k: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isascii():
            raise ValueError("flow-group names must be non-empty ASCII")
        if self.source == self.target:
            raise ValueError("flow groups need distinct endpoints")
        if self.load < 0:
            raise ValueError("load must be non-negative")
        if self.initial_calls < 0:
            raise ValueError("initial_calls must be non-negative")
        if self.route_k is not None and self.route_k < 1:
            raise ValueError("route_k must be >= 1")


@dataclass(frozen=True)
class BackgroundSpec:
    """Non-RCBR cross-traffic riding one link.

    The named source model is calibrated to a stationary mean of
    ``mean_fraction`` of the link capacity and clamped at
    ``peak_fraction`` (so the RCBR side always keeps at least
    ``1 - peak_fraction`` of the link).  Background outranks RCBR: each
    epoch the link's RCBR-usable capacity becomes ``capacity -
    background(t)`` (grants are downgraded proportionally when squeezed,
    the deficit accruing to ``lost_bits``) and the matching switch port
    carries the background as a reserved non-RCBR VCI, so the ER fast
    path denies increases that no longer fit.
    """

    u: str
    v: str
    traffic: str = "poisson"
    mean_fraction: float = 0.3
    peak_fraction: float = 0.85

    def __post_init__(self) -> None:
        if self.traffic not in SCENARIO_SOURCE_NAMES:
            raise ValueError(
                f"unknown background source {self.traffic!r}; choose "
                f"from {', '.join(SCENARIO_SOURCE_NAMES)}"
            )
        if not 0.0 < self.mean_fraction < 1.0:
            raise ValueError("mean_fraction must be in (0, 1)")
        if not self.mean_fraction <= self.peak_fraction < 1.0:
            raise ValueError(
                "peak_fraction must be in [mean_fraction, 1)"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete named scenario (see the module docstring)."""

    name: str
    description: str
    links: Tuple[LinkSpec, ...]
    flows: Tuple[FlowGroupSpec, ...]
    background: Tuple[BackgroundSpec, ...] = ()
    #: RCBR call traffic model (registry name) and its calibration.
    traffic: str = "markov"
    mean_rate: float = STAR_WARS_MEAN_RATE
    slot_duration: float = 1.0 / 24.0
    source_slots: int = 480
    #: Run shape.
    duration: float = 20.0
    snapshot_every: float = 5.0
    seed: int = 0
    #: Routing and service policy.
    route_k: int = 1
    mean_holding: float = 6.0
    abandon_after: Optional[int] = None
    controller: str = "always"
    overload_policy: str = "block"
    overload_classes: int = 3
    class_weights: Optional[Tuple[float, ...]] = None
    #: Single-bottleneck only: modelled signaling hops along the path.
    num_hops: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "flows", tuple(self.flows))
        object.__setattr__(self, "background", tuple(self.background))
        if not self.name or not self.name.isascii():
            raise ValueError("scenario names must be non-empty ASCII")
        if not self.links:
            raise ValueError("a scenario needs at least one link")
        if not self.flows:
            raise ValueError("a scenario needs at least one flow group")
        edges = {frozenset((link.u, link.v)) for link in self.links}
        if len(edges) != len(self.links):
            raise ValueError("duplicate links in topology")
        if len({flow.name for flow in self.flows}) != len(self.flows):
            raise ValueError("duplicate flow-group names")
        nodes = self.nodes
        for flow in self.flows:
            for node in (flow.source, flow.target):
                if node not in nodes:
                    raise ValueError(
                        f"flow {flow.name!r} references unknown node "
                        f"{node!r}"
                    )
        for bg in self.background:
            if frozenset((bg.u, bg.v)) not in edges:
                raise ValueError(
                    f"background on unknown link {bg.u!r}~{bg.v!r}"
                )
        bg_edges = [frozenset((bg.u, bg.v)) for bg in self.background]
        if len(set(bg_edges)) != len(bg_edges):
            raise ValueError("at most one background process per link")
        if self.traffic not in SCENARIO_SOURCE_NAMES:
            raise ValueError(
                f"unknown traffic source {self.traffic!r}; choose from "
                f"{', '.join(SCENARIO_SOURCE_NAMES)}"
            )
        if self.mean_rate <= 0:
            raise ValueError("mean_rate must be positive")
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        if self.source_slots < 1:
            raise ValueError("source_slots must be >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.snapshot_every <= 0:
            raise ValueError("snapshot_every must be positive")
        if self.route_k < 1:
            raise ValueError("route_k must be >= 1")
        if self.mean_holding <= 0:
            raise ValueError("mean_holding must be positive")
        if self.abandon_after is not None and self.abandon_after < 1:
            raise ValueError("abandon_after must be >= 1")
        if self.controller not in CONTROLLER_NAMES:
            raise ValueError(
                f"unknown controller {self.controller!r}; expected one "
                f"of {CONTROLLER_NAMES}"
            )
        if self.num_hops < 1:
            raise ValueError("num_hops must be >= 1")
        if self.num_hops != 1 and not self.single_bottleneck:
            raise ValueError(
                "num_hops applies to single-bottleneck scenarios only; a "
                "multi-bottleneck route has one hop per link"
            )

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[str, ...]:
        """All nodes, in first-appearance order over the link list."""
        seen: Dict[str, None] = {}
        for link in self.links:
            seen.setdefault(link.u)
            seen.setdefault(link.v)
        return tuple(seen)

    @property
    def single_bottleneck(self) -> bool:
        """One link, one flow group: runs on the classic gateway stack."""
        return len(self.links) == 1 and len(self.flows) == 1

    @property
    def total_capacity(self) -> float:
        return sum(link.capacity for link in self.links)

    def server_config(self, shards: int = 0) -> ServerConfig:
        """The gateway config this spec runs under.  A single-bottleneck
        spec's is its one link and flow group; a route graph's capacity
        is the links' total, and its offered load and initial calls are
        per flow group, so the config's are zero."""
        single = self.single_bottleneck
        flow = self.flows[0]
        return ServerConfig(
            capacity=self.total_capacity,
            load=flow.load if single else 0.0,
            controller=self.controller,
            mean_holding=self.mean_holding,
            abandon_after=self.abandon_after,
            num_hops=self.num_hops,
            hop_delay=self.links[0].delay,
            initial_calls=flow.initial_calls if single else 0,
            seed=self.seed,
            source_slots=self.source_slots,
            shards=shards,
            overload_policy=self.overload_policy,
            overload_classes=self.overload_classes,
            class_weights=self.class_weights,
        )

    def replace(self, **overrides: Any) -> "ScenarioSpec":
        """A copy with fields replaced (re-validated)."""
        return dataclasses.replace(self, **overrides)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-representable echo (reports, sweep cache payloads)."""
        return {
            "name": self.name,
            "description": self.description,
            "links": [dataclasses.asdict(link) for link in self.links],
            "flows": [dataclasses.asdict(flow) for flow in self.flows],
            "background": [
                dataclasses.asdict(bg) for bg in self.background
            ],
            "traffic": self.traffic,
            "mean_rate": self.mean_rate,
            "slot_duration": self.slot_duration,
            "source_slots": self.source_slots,
            "duration": self.duration,
            "snapshot_every": self.snapshot_every,
            "seed": self.seed,
            "route_k": self.route_k,
            "mean_holding": self.mean_holding,
            "abandon_after": self.abandon_after,
            "controller": self.controller,
            "overload_policy": self.overload_policy,
            "overload_classes": self.overload_classes,
            "class_weights": (
                list(self.class_weights)
                if self.class_weights is not None
                else None
            ),
            "num_hops": self.num_hops,
        }

    def describe(self) -> str:
        """Human-readable multi-line summary for ``repro scenario
        describe``."""
        lines = [
            f"{self.name}: {self.description}",
            "",
            f"  topology      {len(self.nodes)} nodes, "
            f"{len(self.links)} links "
            f"({'single' if self.single_bottleneck else 'multi'}-"
            "bottleneck)",
        ]
        for link in self.links:
            lines.append(
                f"    {link.u} ~ {link.v}  "
                f"{link.capacity / 1e6:.2f} Mb/s, "
                f"{link.delay * 1e3:g} ms"
            )
        lines.append(
            f"  calls         {self.traffic} source, mean "
            f"{self.mean_rate / 1e3:.0f} kb/s, holding "
            f"{self.mean_holding:g} s"
            + (
                f", abandon after {self.abandon_after} denials"
                if self.abandon_after is not None
                else ""
            )
        )
        for flow in self.flows:
            k = flow.route_k if flow.route_k is not None else self.route_k
            lines.append(
                f"    {flow.name}: {flow.source} -> {flow.target}, "
                f"load {flow.load:g}, {flow.initial_calls} initial, "
                f"k={k}"
            )
        if self.background:
            lines.append("  background")
            for bg in self.background:
                lines.append(
                    f"    {bg.u} ~ {bg.v}: {bg.traffic}, mean "
                    f"{bg.mean_fraction:.0%} of capacity (peak "
                    f"{bg.peak_fraction:.0%})"
                )
        lines.append(
            f"  policy        controller={self.controller}, "
            f"overload={self.overload_policy}, route_k={self.route_k}"
        )
        overload = (
            self.overload_policy
            if self.overload_policy != "block"
            else "block-only"
        )
        if not self.single_bottleneck and self.overload_policy != "block":
            overload += " (per-link planes)"
        lines.append(
            "  capability    "
            "shards=yes, checkpoint=yes, "
            f"overload={overload}, "
            f"mbac={'yes' if self.controller != 'always' else 'no'}"
        )
        lines.append(
            f"  run           {self.duration:g} s, snapshot every "
            f"{self.snapshot_every:g} s, seed {self.seed}"
        )
        return "\n".join(lines)
