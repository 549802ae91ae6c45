"""Gateway configuration and controller wiring.

:class:`ServerConfig` bundles every knob of the service runtime — link
capacity, offered load, the admission controller, the signaling path
geometry, fault handling, and the determinism seed — and validates them
eagerly so a bad CLI flag fails at startup, not twenty simulated minutes
in.  :func:`build_controller` maps the CLI's controller names onto the
:mod:`repro.admission` classes, running the offline heuristic once to
derive the perfect-knowledge marginal when asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.admission.controllers import (
    AdmissionController,
    AlwaysAdmit,
    MemoryMBAC,
    MemorylessMBAC,
    PerfectKnowledgeCAC,
)
from repro.core.online import OnlineParams, OnlineScheduler
from repro.core.schedule import empirical_rate_distribution
from repro.overload.policies import OVERLOAD_POLICY_NAMES
from repro.traffic.sources import SOURCE_NAMES
from repro.traffic.trace import SlottedWorkload
from repro.util.units import kbits, kbps

#: Controller names accepted by :func:`build_controller` and the CLI.
CONTROLLER_NAMES = ("always", "memoryless", "memory", "perfect")


@dataclass(frozen=True)
class ServerConfig:
    """Everything the gateway needs besides the workload itself.

    ``capacity`` is the bottleneck link/port bandwidth in bits/s.  ``load``
    is the normalized offered load (arrival rate is derived via the
    Erlang identity ``lambda = load * capacity / (mean_rate * holding)``);
    zero means no open-loop arrivals, only ``initial_calls``.
    ``buffer_bits`` of ``None`` models an infinite playout buffer.
    ``abandon_after`` tears a call down after that many *consecutive*
    failed renegotiations, modelling a user giving up on a degraded
    stream; ``None`` disables abandonment.  ``upstream_headroom``
    over-provisions the non-bottleneck hops of a multi-hop path by that
    factor, keeping the bottleneck port the binding constraint.

    ``source`` names a :mod:`repro.traffic.sources` traffic model for the
    gateway to sample its base workload from (``None`` = use the workload
    handed to the gateway directly); ``source_slots`` is how many slots
    to sample.  The sample is drawn from a dedicated stream spawned from
    ``seed``, so sourced runs inherit the same determinism contract.

    ``shards`` selects where the fleet's kernel step runs
    (:mod:`repro.server.sharded`): 0 steps it inline in the gateway
    process, ``N >= 1`` partitions the call fleet's kernel state across
    ``N`` worker processes in contiguous ``shard_chunk``-slot chunks
    (shard of a slot = ``(slot // shard_chunk) % shards``, a pure
    function of the pool slot, so a call never migrates shards).  The
    snapshot fingerprint is byte-identical for any shard count,
    including 0.

    The ``overload_*`` knobs configure the link-level overload control
    plane (:mod:`repro.overload`).  ``overload_policy`` selects block
    (the baseline — no plane is even instantiated, so the snapshot
    stream stays byte-identical to pre-overload builds), downgrade, or
    sacrifice.  ``overload_enter``/``overload_exit`` are the hysteresis
    pressure thresholds (fractions of link capacity; exit must be
    strictly below enter) and ``overload_dwell`` the number of
    consecutive epochs a threshold must hold before the plane changes
    state.  Arriving calls are assigned one of ``overload_classes``
    service classes (class 0 is the most protected), drawn from a
    dedicated seeded stream with probabilities proportional to
    ``class_weights`` (``None`` = uniform).  ``downgrade_ladder`` is
    the resolution ladder walked by the downgrade policy;
    ``sacrifice_queue``/``sacrifice_max_per_epoch`` bound the sacrifice
    policy's requeue depth and per-epoch eviction budget.
    """

    capacity: float
    load: float = 0.0
    controller: str = "always"
    failure_target: float = 1e-3
    granularity: float = field(default_factory=lambda: kbps(64))
    online_params: Optional[OnlineParams] = None
    buffer_bits: Optional[float] = field(default_factory=lambda: kbits(300))
    mean_holding: Optional[float] = None  # None -> one workload duration
    abandon_after: Optional[int] = None
    num_hops: int = 1
    hop_delay: float = 0.001
    upstream_headroom: float = 4.0
    request_timeout: Optional[float] = None
    max_retries: int = 2
    retry_backoff: float = 1.0
    retry_jitter: float = 0.0
    initial_calls: int = 0
    seed: int = 0
    source: Optional[str] = None
    source_slots: int = 2400
    shards: int = 0
    shard_chunk: int = 4096
    overload_policy: str = "block"
    overload_enter: float = 0.95
    overload_exit: float = 0.85
    overload_dwell: int = 8
    overload_classes: int = 3
    class_weights: Optional[Tuple[float, ...]] = None
    downgrade_ladder: Tuple[float, ...] = (1.0, 0.75, 0.5, 0.35)
    sacrifice_queue: int = 64
    sacrifice_max_per_epoch: int = 2

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.load < 0:
            raise ValueError("load must be non-negative")
        if self.controller not in CONTROLLER_NAMES:
            raise ValueError(
                f"unknown controller {self.controller!r}; "
                f"expected one of {CONTROLLER_NAMES}"
            )
        if not 0.0 < self.failure_target < 1.0:
            raise ValueError("failure_target must be in (0, 1)")
        if self.granularity <= 0:
            raise ValueError("granularity must be positive")
        if self.buffer_bits is not None and self.buffer_bits <= 0:
            raise ValueError("buffer_bits must be positive (None = infinite)")
        if self.mean_holding is not None and self.mean_holding <= 0:
            raise ValueError("mean_holding must be positive")
        if self.abandon_after is not None and self.abandon_after < 1:
            raise ValueError("abandon_after must be >= 1")
        if self.num_hops < 1:
            raise ValueError("num_hops must be >= 1")
        if self.hop_delay < 0:
            raise ValueError("hop_delay must be non-negative")
        if self.upstream_headroom < 1.0:
            raise ValueError("upstream_headroom must be >= 1")
        if self.initial_calls < 0:
            raise ValueError("initial_calls must be non-negative")
        if self.source is not None and self.source not in SOURCE_NAMES:
            raise ValueError(
                f"unknown source {self.source!r}; "
                f"expected one of {SOURCE_NAMES}"
            )
        if self.source_slots < 1:
            raise ValueError("source_slots must be >= 1")
        if self.shards < 0:
            raise ValueError("shards must be non-negative (0 = unsharded)")
        if self.shard_chunk < 1:
            raise ValueError("shard_chunk must be >= 1")
        if self.overload_policy not in OVERLOAD_POLICY_NAMES:
            raise ValueError(
                f"unknown overload policy {self.overload_policy!r}; "
                f"expected one of {OVERLOAD_POLICY_NAMES}"
            )
        if not 0.0 < self.overload_exit < self.overload_enter:
            raise ValueError(
                "need 0 < overload_exit < overload_enter"
            )
        if self.overload_dwell < 1:
            raise ValueError("overload_dwell must be >= 1")
        if self.overload_classes < 1:
            raise ValueError("overload_classes must be >= 1")
        if self.class_weights is not None:
            if len(self.class_weights) != self.overload_classes:
                raise ValueError(
                    "class_weights must have one entry per overload class"
                )
            if any(weight <= 0 for weight in self.class_weights):
                raise ValueError("class_weights must be positive")
        ladder = self.downgrade_ladder
        if len(ladder) < 2 or ladder[0] != 1.0 or any(
            not 0.0 < after < before
            for before, after in zip(ladder, ladder[1:])
        ):
            raise ValueError(
                "downgrade_ladder must start at 1.0 and be strictly "
                "decreasing in (0, 1]"
            )
        if self.sacrifice_queue < 1:
            raise ValueError("sacrifice_queue must be >= 1")
        if self.sacrifice_max_per_epoch < 1:
            raise ValueError("sacrifice_max_per_epoch must be >= 1")

    def resolve_online_params(self) -> OnlineParams:
        """The heuristic's parameters, capped at the link capacity."""
        if self.online_params is not None:
            return self.online_params
        return OnlineParams(
            granularity=self.granularity, max_rate=self.capacity
        )

    def to_dict(self) -> Dict[str, Any]:
        """Config echo for reports; only JSON-representable fields."""
        return {
            "capacity": self.capacity,
            "load": self.load,
            "controller": self.controller,
            "failure_target": self.failure_target,
            "granularity": self.granularity,
            "buffer_bits": self.buffer_bits,
            "mean_holding": self.mean_holding,
            "abandon_after": self.abandon_after,
            "num_hops": self.num_hops,
            "hop_delay": self.hop_delay,
            "upstream_headroom": self.upstream_headroom,
            "request_timeout": self.request_timeout,
            "max_retries": self.max_retries,
            "retry_backoff": self.retry_backoff,
            "retry_jitter": self.retry_jitter,
            "initial_calls": self.initial_calls,
            "seed": self.seed,
            "source": self.source,
            "source_slots": self.source_slots,
            "shards": self.shards,
            "shard_chunk": self.shard_chunk,
            "overload_policy": self.overload_policy,
            "overload_enter": self.overload_enter,
            "overload_exit": self.overload_exit,
            "overload_dwell": self.overload_dwell,
            "overload_classes": self.overload_classes,
            "class_weights": (
                list(self.class_weights)
                if self.class_weights is not None
                else None
            ),
            "downgrade_ladder": list(self.downgrade_ladder),
            "sacrifice_queue": self.sacrifice_queue,
            "sacrifice_max_per_epoch": self.sacrifice_max_per_epoch,
        }


def build_controller(
    config: ServerConfig,
    workload: SlottedWorkload,
    params: Optional[OnlineParams] = None,
) -> AdmissionController:
    """Instantiate the configured admission controller.

    ``perfect`` derives the true per-call marginal the way the paper's
    Section VI does: run the online heuristic once over the base workload
    and histogram the resulting RCBR schedule.  Every served call is a
    circular shift of that workload, so the histogram *is* the per-call
    marginal (up to edge effects of the shift).
    """
    name = config.controller
    if name == "always":
        return AlwaysAdmit()
    if name == "memoryless":
        return MemorylessMBAC(failure_target=config.failure_target)
    if name == "memory":
        return MemoryMBAC(failure_target=config.failure_target)
    if name == "perfect":
        if params is None:
            params = config.resolve_online_params()
        result = OnlineScheduler(params).schedule(workload)
        levels, fractions = empirical_rate_distribution(result.schedule)
        return PerfectKnowledgeCAC(
            levels=levels,
            fractions=fractions,
            failure_target=config.failure_target,
        )
    raise ValueError(f"unknown controller {name!r}")
