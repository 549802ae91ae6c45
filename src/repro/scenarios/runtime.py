"""Scenario execution: the harness that runs a spec on the gateway.

Every scenario runs on one serving core, a plain
:class:`~repro.server.gateway.RcbrGateway` built by one construction
call from the spec and its compiled config
(:meth:`~repro.scenarios.spec.ScenarioSpec.server_config`).  A
**single-bottleneck** spec (one link, one flow group) compiles through
that config to the classic one-link topology with ``num_hops`` ports,
plus its background; a **multi-bottleneck** spec compiles to a route
graph: one :class:`~repro.server.fleet.CallFleet` per flow group, one
:class:`~repro.queueing.link.RcbrLink` per edge, and per flow group its
``route_k`` shortest routes, each with its
:class:`~repro.signaling.network.SignalingPath` through the edges'
switch ports, all built at construction.  Both shapes are the gateway's
plain lists (fleets, links, ports, routes, per-link overload planes,
background drivers), which the snapshot, report, checkpoint and close
fold over, and both are driven through :class:`ScenarioHarness`, so
shards, checkpoint/resume, overload planes, and MBAC admission work
identically on every spec.  One function,
:func:`~repro.server.topology.network_section`, gives the per-link and
per-group view of either shape.

Determinism contract.  The gateway spawns ten streams; the
spawn-prefix property keeps streams 0-5 those of the classic six-stream
runtime.  A route graph samples its per-group workloads in flow order
on stream 6, and every route path signals on stream 8 (cell loss and
retries alike); any spec samples its background series on stream 7, in
background order; the per-link overload planes draw on stream 9 on a
graph (polled in link-spec order each epoch) and on stream 5 on the
classic link.  Per offered call the draw order is the classic one:
service class (overload stream), route choice, the admission decision,
then workload shift (call stream), then — only if admitted — holding
time (call stream).  Per epoch the merge order is: background capacity
updates in background order, then the per-link overload planes in
link-spec order, then one fleet step per flow group in flow order,
renegotiations issuing in ascending pool-slot order within each group:
one batch when no fault plan runs and the group's stepped calls share a
route, else call by call, the answers landing as one completion batch
per distinct round-trip time.  Event-heap callbacks address calls by
``group * GROUP_STRIDE + slot``.  Same seed (and fault seed) =>
bit-identical snapshot stream for shards ∈ {0, 1, N}, and ``run(T1);
save; restore; run(T2)`` equals ``run(T1 + T2)``.

The setup transport is the one call-setup difference between the two
shapes, by design, and it is topology data (``_setup_travels``): on a
route graph a call's initial rate travels its route as a real
reservation (``path.renegotiate`` from rate 0), so a hop without
headroom *blocks* the call — on a network, admission is the ports'
decision, which is exactly the back-pressure the multi-hop experiments
measure.  An MBAC controller composes with that: the one
:meth:`~repro.server.gateway.RcbrGateway._offer` vets the call against
its route's bottleneck capacity *before* the setup travels.
Renegotiations then travel the same path under faults, and granted
rates are mirrored onto every traversed link (taking the minimum
grant, equalizing over-grants down), so per-link utilization and loss
integrals stay honest.

Overload beyond blocking: with ``overload_policy`` ≠ ``block`` the
gateway runs one :class:`~repro.overload.plane.OverloadControlPlane`
per link, each driving the downgrade/sacrifice policy through a
:class:`~repro.overload.linkagent.LinkScopedOverloadAgent` whose victim
pool is the calls routed over that link.  Downgrade factors from
multiple congested links combine per call by minimum.  With the default
``block`` policy no plane exists and the epoch sequence is
byte-identical to the pre-overload runtime.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.faults.injectors import FaultPlan
from repro.scenarios.registry import resolve_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.server.gateway import RcbrGateway
from repro.server.stats import ServerReport
from repro.server.topology import (  # noqa: F401 - re-exported
    BACKGROUND_VCI,
    BackgroundDriver,
    background_drivers,
    network_section,
)
from repro.traffic.sources import make_source


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


class ScenarioHarness:
    """One scenario, fully armed: run, checkpoint, restore, report.

    Builds the one gateway for either spec shape in one construction
    call (the spec compiles to a route graph or, single-bottleneck,
    through its config to the classic link; ``shards`` picks only the
    fleet executor) and exposes the uniform lifecycle ``repro serve``
    drives: :meth:`run` with an epoch hook, :meth:`save`/:meth:`restore`
    with scenario-stamped checkpoints, and :meth:`result` to shape the
    final report.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        shards: int = 0,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.spec = spec
        self._section: Optional[Dict[str, object]] = None
        source = make_source(
            spec.traffic,
            mean_rate=spec.mean_rate,
            slot_duration=spec.slot_duration,
        )
        gateway = RcbrGateway(
            None,
            spec.server_config(int(shards)),
            faults=faults,
            source=source,
            spec=spec,
        )
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
