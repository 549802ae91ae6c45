"""The RCBR service runtime: an event-driven gateway at production scale.

Everything before this package simulates one experiment at a time; this
package runs RCBR as a *service*: an open-loop call arrival process, an
admission controller at the door, a vectorized fleet of online schedulers
(50k+ concurrent calls stepped per epoch with whole-array numpy), RM-cell
renegotiation over a fault-injectable signaling path, and a shared link
whose integrals yield the utilization/loss story of the paper — all under
a deterministic seed with periodic snapshots and a replay fingerprint.
Under sustained saturation the optional link-level overload control
plane (:mod:`repro.overload`) downgrades or sacrifices calls instead of
only blocking at the door.  One gateway serves every shard count:
``config.shards >= 1`` only swaps the fleet's inline kernel step for a
worker pool (:mod:`repro.server.sharded`, DESIGN.md §14) — 1M+
concurrent calls at realtime with a byte-identical fingerprint.
"""

from repro.overload import OVERLOAD_POLICY_NAMES
from repro.server.config import CONTROLLER_NAMES, ServerConfig, build_controller
from repro.server.fleet import CallFleet, EpochStep
from repro.server.gateway import RcbrGateway, build_gateway, serve
from repro.server.sharded import ShardedFleet, shard_of_slot
from repro.server.stats import (
    ServerReport,
    ServerSnapshot,
    snapshot_fingerprint,
)
from repro.server.bench import check_perf_regression, run_server_benchmark

__all__ = [
    "CONTROLLER_NAMES",
    "OVERLOAD_POLICY_NAMES",
    "ServerConfig",
    "build_controller",
    "CallFleet",
    "EpochStep",
    "RcbrGateway",
    "build_gateway",
    "serve",
    "ShardedFleet",
    "shard_of_slot",
    "ServerReport",
    "ServerSnapshot",
    "snapshot_fingerprint",
    "check_perf_regression",
    "run_server_benchmark",
]
