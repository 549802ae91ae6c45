"""Workload shapes and the measured serving run.

Each workload is a :class:`Shape`: a gateway configuration derived
from the seed (the seed drives both ``ServerConfig.seed`` and the Star
Wars trace generator), plus the run plan — how many times to set up,
how long to warm up, and how many epochs to time per second of
``--seconds``.  :func:`serve` performs one measured run on one gateway:
build and preload (timed as set-up), an untimed warm-up, then the timed
window with an epoch hook that stamps every epoch boundary and, where
the shape asks for it, writes a deferred checkpoint.

Runs are unpaced: the gateway serves epochs as fast as it can, and the
number of epochs is fixed by the arguments, so every counter and
fingerprint is a pure function of (workload, seed, seconds).
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import resource
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.perf.sweeps import GRANULARITY
from repro.server.config import ServerConfig
from repro.server.gateway import build_gateway
from repro.server.stats import snapshot_fingerprint
from repro.traffic.starwars import generate_starwars_trace
from repro.traffic.trace import SlottedWorkload

from tracing import Tracer, clock, install_layer_wrappers

#: Frames of the per-seed base trace every call plays a shift of.  A
#: long trace (45 min at 24 frames/s) keeps the fleet's renegotiation
#: rate, and so the work per epoch, close to equal across seeds.
TRACE_FRAMES = 65536
#: Mean holding time of the preloaded fleets: the duration of the
#: 4096-frame trace ``repro serve --bench`` uses, which is its default.
BENCH_HOLDING_S = 4096 / 24.0
#: Epochs between periodic snapshots (and the fingerprint prefix unit).
SNAPSHOT_EPOCHS = 48
#: Fewest timed epochs: p95 needs ten epochs beyond it.
MIN_WINDOW_EPOCHS = 240


@dataclass(frozen=True)
class Shape:
    """One benchmark workload: gateway shape plus run plan."""

    name: str
    #: Capacity in calls: capacity = calls * mean rate * headroom.
    calls: int
    headroom: float
    initial_calls: int
    shards: int
    controller: str = "always"
    load: float = 0.0
    num_hops: int = 1
    overload_policy: str = "block"
    abandon_after: Optional[int] = None
    mean_holding: Optional[float] = None
    #: Deferred checkpoint every N timed epochs (0 = none).
    checkpoint_every: int = 0
    warmup_epochs: int = 48
    #: Timed epochs per second of ``--seconds`` (sized on a 2-core
    #: x86-64 container so a window lasts about ``--seconds``).
    epochs_per_second: float = 20.0
    #: Set-ups per served gateway (``setup_s`` is their median).
    setup_repeats: int = 3
    #: Independent gateways served one after another in a run, each on
    #: its own seed derived from the run's seed; the timed window is
    #: split evenly between them and the metrics pool over all of them.
    sub_runs: int = 1
    #: Runtime (``shards``) that computes the fingerprint reference.
    reference_shards: int = 0

    def config(self, seed: int, workload: SlottedWorkload,
               shards: Optional[int] = None) -> ServerConfig:
        return ServerConfig(
            capacity=self.calls * workload.mean_rate * self.headroom,
            load=self.load,
            controller=self.controller,
            granularity=GRANULARITY,
            mean_holding=self.mean_holding,
            abandon_after=self.abandon_after,
            num_hops=self.num_hops,
            initial_calls=self.initial_calls,
            seed=seed,
            shards=self.shards if shards is None else shards,
            overload_policy=self.overload_policy,
        )

    def window_epochs(self, seconds: float) -> int:
        """Timed epochs of each sub-run."""
        epochs = max(MIN_WINDOW_EPOCHS, round(seconds * self.epochs_per_second))
        epochs = -(-epochs // SNAPSHOT_EPOCHS) * SNAPSHOT_EPOCHS
        return -(-epochs // self.sub_runs)

    def sub_seeds(self, seed: int) -> List[int]:
        """The config and trace seed of each sub-run of a run."""
        if self.sub_runs == 1:
            return [seed]
        return [seed * self.sub_runs + index for index in range(self.sub_runs)]

    def behaviour_key(self) -> str:
        """Hash of the fields that decide the fingerprint prefix (not the
        run plan), so recorded fingerprints apply only to this shape."""
        fields = asdict(self)
        for timing_only in ("epochs_per_second", "setup_repeats", "sub_runs",
                            "checkpoint_every", "reference_shards", "shards"):
            fields.pop(timing_only)
        blob = json.dumps(fields, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


WORKLOADS: Dict[str, Shape] = {
    shape.name: shape
    for shape in (
        Shape(
            name="serve-50k",
            calls=50_000,
            headroom=1.1,
            initial_calls=50_000,
            shards=0,
            mean_holding=BENCH_HOLDING_S,
            epochs_per_second=20.0,
            reference_shards=2,
        ),
        Shape(
            name="sharded-100k-ckpt",
            calls=100_000,
            headroom=1.1,
            initial_calls=100_000,
            shards=2,
            mean_holding=BENCH_HOLDING_S,
            checkpoint_every=48,
            epochs_per_second=80.0,
            reference_shards=0,
        ),
        Shape(
            name="churn-mbac",
            calls=1_000,
            headroom=1.0,
            initial_calls=800,
            shards=2,
            controller="memory",
            load=1.2,
            num_hops=3,
            overload_policy="downgrade",
            abandon_after=4,
            mean_holding=6.0,
            checkpoint_every=48,
            warmup_epochs=96,
            epochs_per_second=30.0,
            setup_repeats=1,
            sub_runs=3,
            reference_shards=0,
        ),
    )
}


def base_workload(seed: int) -> SlottedWorkload:
    return generate_starwars_trace(
        num_frames=TRACE_FRAMES, seed=seed
    ).as_workload()


def _proc_kib(pid: Any, field: str, source: str) -> int:
    """A ``kB`` field of /proc/<pid>/<source>, 0 when unreadable."""
    try:
        text = Path(f"/proc/{pid}/{source}").read_text()
    except OSError:
        return 0
    total = 0
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in field.split("+"):
            total += int(value.split()[0])
    return total


def footprint_mb() -> float:
    """Peak RSS of this process plus the private memory of its live
    children (shard workers).  Workers are forked, so the pages they
    share with the coordinator are counted once, in the coordinator."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
    children = sum(
        _proc_kib(child.pid, "Private_Clean+Private_Dirty", "smaps_rollup")
        for child in multiprocessing.active_children()
    )
    return (own + children) / 1024.0


def prefix_fingerprint(snapshots, until: float) -> str:
    """Fingerprint of the snapshots taken at or before ``until``."""
    return snapshot_fingerprint([s for s in snapshots if s.time <= until + 1e-9])


def check_time(shape: Shape, workload: SlottedWorkload) -> float:
    """Simulated time that closes the fingerprint-checked prefix."""
    epochs = shape.warmup_epochs + SNAPSHOT_EPOCHS
    return epochs * workload.slot_duration


def setup_gateway(shape: Shape, seed: int, workload: SlottedWorkload,
                  tracer: Optional[Tracer] = None, shards: Optional[int] = None):
    """Build and preload one gateway; returns ``(gateway, setup seconds,
    detail)``.  With a tracer, its wrappers go in between the build and
    the preload, untimed, and the preload runs as a root span."""
    gc.collect()
    start = clock()
    gateway = build_gateway(workload, shape.config(seed, workload, shards))
    build_s = clock() - start
    detail: Dict[str, float] = {"build_s": build_s}
    if tracer is not None:
        install_layer_wrappers(tracer, gateway)
        with tracer.root("setup") as span:
            gateway.preload()
        detail.update(preload_s=span["wall_s"], preload_self_s=span["self_s"])
        return gateway, build_s + span["wall_s"], detail
    start = clock()
    gateway.preload()
    detail["preload_s"] = clock() - start
    return gateway, build_s + detail["preload_s"], detail


def reference_fingerprint(shape: Shape, seed: int,
                          workload: SlottedWorkload) -> Dict[str, Any]:
    """The fingerprint prefix computed on ``shape.reference_shards``.

    The determinism contract says every runtime (``shards`` = 0, 1, 2,
    ...) yields the same snapshot stream for a seed, so this is an
    independent reference for the measured run's prefix.
    """
    slot = workload.slot_duration
    gateway, _, _ = setup_gateway(
        shape, seed, workload, shards=shape.reference_shards
    )
    with gateway:
        every = SNAPSHOT_EPOCHS * slot
        gateway.run(shape.warmup_epochs * slot, snapshot_every=every)
        report = gateway.run(SNAPSHOT_EPOCHS * slot, snapshot_every=every)
    return {
        "fingerprint": prefix_fingerprint(
            report.snapshots, check_time(shape, workload)
        ),
        "final": report.final.to_dict(),
    }


def serve(shape: Shape, seed: int, workload: SlottedWorkload, epochs: int,
          out_dir: Path, tracer: Optional[Tracer] = None,
          setup_repeats: int = 1) -> Dict[str, Any]:
    """One measured run: set up ``setup_repeats`` times (serving on the
    last gateway), warm up, then time ``epochs`` epochs."""
    setups: List[float] = []
    for _ in range(setup_repeats - 1):
        gateway, seconds, _ = setup_gateway(shape, seed, workload)
        setups.append(seconds)
        gateway.close()
        del gateway
    gateway, seconds, setup_detail = setup_gateway(
        shape, seed, workload, tracer
    )
    setups.append(seconds)

    slot = workload.slot_duration
    every = SNAPSHOT_EPOCHS * slot
    ckpt_path = out_dir / f"{shape.name}-{seed}.ckpt"
    stamps: List[float] = []
    pending_max = [0]

    def sample_pending() -> None:
        # ``pending_events`` walks the whole heap (100k events on the
        # sharded workload), so sample it once per snapshot period.
        if len(tracer.epochs) % SNAPSHOT_EPOCHS == 0:
            pending_max[0] = max(pending_max[0], gateway.engine.pending_events)

    def hook(tick: int, gw) -> bool:
        if tracer is None:
            stamps.append(clock())
        else:
            if not stamps:
                stamps.append(clock())
            tracer.epoch_boundary(tick, sample_pending)
        if shape.checkpoint_every and tick % shape.checkpoint_every == 0:
            gw.save(ckpt_path, defer=True)
        return False

    with gateway:
        if tracer is not None:
            tracer.phase = "warmup"
        warm = gateway.run(shape.warmup_epochs * slot, snapshot_every=every)
        before = warm.final
        call_epochs_before = gateway.fleet.call_epochs_stepped
        gc.collect()
        report = gateway.run(epochs * slot, snapshot_every=every,
                             epoch_hook=hook)
        gateway.checkpoint_sync()
        end = clock()
        if tracer is not None:
            tracer.close_epoch(end)
            tracer.phase = "idle"
        footprint = footprint_mb()
    if ckpt_path.exists():
        ckpt_path.unlink()

    window_s = end - stamps[0]
    epoch_ms = [
        (later - earlier) * 1e3
        for earlier, later in zip(stamps, stamps[1:] + [end])
    ] if tracer is None else []
    final = report.final
    return {
        "setup_s": setups,
        "setup_detail": setup_detail,
        "window_s": window_s,
        "epochs": report.epochs,
        "planned_epochs": epochs,
        "slot_s": slot,
        "epoch_ms": epoch_ms,
        "call_epochs": report.call_epochs_stepped - call_epochs_before,
        "reneg_requests": final.reneg_requests - before.reneg_requests,
        "arrivals": final.arrivals - before.arrivals,
        "link_shortfalls": final.link_shortfalls - before.link_shortfalls,
        "final": final.to_dict(),
        "mean_utilization": report.mean_utilization,
        "fingerprint": report.fingerprint,
        "prefix_fingerprint": prefix_fingerprint(
            report.snapshots, check_time(shape, workload)
        ),
        "pending_max": pending_max[0],
        "footprint_mb": footprint,
    }


#: Final-snapshot counters that add up across sub-runs.
_COUNTERS = ("arrivals", "blocked", "admitted", "departed", "completed",
             "abandoned", "active_calls", "reneg_requests", "reneg_denied")


def pool(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine the records of a run's sub-runs into one of the same form."""
    if len(runs) == 1:
        return runs[0]

    def total(key):
        return sum(run[key] for run in runs)

    return {
        "setup_s": [s for run in runs for s in run["setup_s"]],
        "setup_detail": {
            key: sum(run["setup_detail"][key] for run in runs)
            for key in runs[0]["setup_detail"]
        },
        "window_s": total("window_s"),
        "epochs": total("epochs"),
        "planned_epochs": total("planned_epochs"),
        "slot_s": runs[0]["slot_s"],
        "epoch_ms": [ms for run in runs for ms in run["epoch_ms"]],
        "call_epochs": total("call_epochs"),
        "reneg_requests": total("reneg_requests"),
        "arrivals": total("arrivals"),
        "link_shortfalls": total("link_shortfalls"),
        "final": {
            key: sum(run["final"][key] for run in runs) for key in _COUNTERS
        },
        "mean_utilization": total("mean_utilization") / len(runs),
        "pending_max": max(run["pending_max"] for run in runs),
        "footprint_mb": max(run["footprint_mb"] for run in runs),
    }
