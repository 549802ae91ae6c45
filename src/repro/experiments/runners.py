"""The experiment runners (see the package docstring)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.empirical import sigma_rho_for_loss
from repro.core import OptimalScheduler
from repro.core.schedule import RateSchedule
from repro.perf.cache import ResultCache
from repro.perf.engine import SweepEngine
from repro.perf.recorder import BenchRecorder
from repro.perf.sweeps import (
    BUFFER_BITS,
    GRANULARITY,
    dp_rate_levels,
    mbac_grid_cells,
    smg_cells,
    tradeoff_cells,
)
from repro.queueing.mux import scenario_a_rate
from repro.traffic.trace import FrameTrace
from repro.util.rng import SeedLike
from repro.util.units import kbits, kbps


def compute_optimal_schedule(
    trace: FrameTrace,
    alpha: float,
    buffer_bits: float = BUFFER_BITS,
    granularity: float = GRANULARITY,
    frames_per_slot: int = 2,
) -> RateSchedule:
    """The trace's optimal RCBR schedule at the paper's parameters."""
    workload = (
        trace.aggregate(frames_per_slot)
        if frames_per_slot > 1
        else trace.as_workload()
    )
    levels = dp_rate_levels(trace, granularity)
    result = OptimalScheduler(levels, alpha=alpha, beta=1.0).solve(
        workload, buffer_bits=buffer_bits
    )
    return result.schedule


# ----------------------------------------------------------------------
# Fig. 2: the efficiency / renegotiation-interval tradeoff
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TradeoffPoint:
    """One point on a Fig. 2 curve."""

    parameter: float  # alpha for OPT, delta for the heuristic
    mean_interval: float
    efficiency: float
    max_buffer: float


@dataclass
class TradeoffResult:
    optimal: List[TradeoffPoint] = field(default_factory=list)
    heuristic: List[TradeoffPoint] = field(default_factory=list)


def run_tradeoff(
    trace: FrameTrace,
    alphas: Sequence[float] = (2e5, 1e6, 6e6, 3e7),
    deltas: Sequence[float] = (kbps(25), kbps(50), kbps(100), kbps(400)),
    buffer_bits: float = BUFFER_BITS,
    granularity: float = GRANULARITY,
    frames_per_slot: int = 2,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    recorder: Optional[BenchRecorder] = None,
) -> TradeoffResult:
    """Fig. 2: sweep the OPT cost ratio and the heuristic granularity.

    Each alpha (DP solve) and each delta (heuristic run) is an
    independent cell of a :class:`~repro.perf.engine.SweepEngine` sweep:
    ``workers`` fans them out, ``cache`` memoizes them on disk, and
    ``recorder`` collects per-cell timings.  The serial defaults
    reproduce the historical results exactly.
    """
    cells = tradeoff_cells(
        trace, alphas, deltas, buffer_bits, granularity, frames_per_slot
    )
    engine = SweepEngine(
        workers=workers, cache=cache, recorder=recorder, namespace="tradeoff"
    )
    values = [cell_result.value for cell_result in engine.run(cells)]
    result = TradeoffResult()
    for value in values:
        point = TradeoffPoint(
            parameter=value["parameter"],
            mean_interval=value["mean_interval"],
            efficiency=value["efficiency"],
            max_buffer=value["max_buffer"],
        )
        if "nodes_expanded" in value:
            result.optimal.append(point)
        else:
            result.heuristic.append(point)
    return result


# ----------------------------------------------------------------------
# Fig. 5: the (sigma, rho) curve
# ----------------------------------------------------------------------
@dataclass
class SigmaRhoResult:
    buffers: np.ndarray
    rates: np.ndarray
    mean_rate: float

    def normalized(self) -> np.ndarray:
        """rho / mean for each buffer."""
        return self.rates / self.mean_rate


def run_sigma_rho(
    trace: FrameTrace,
    buffers: Sequence[float] = (
        kbits(50), kbits(100), kbits(300), kbits(1000), kbits(3000),
        kbits(10_000),
    ),
    loss_target: float = 1e-6,
) -> SigmaRhoResult:
    """Fig. 5: min CBR rate vs buffer size at the loss target."""
    curve = sigma_rho_for_loss(trace.as_workload(), buffers, loss_target)
    return SigmaRhoResult(
        buffers=curve[:, 0], rates=curve[:, 1], mean_rate=trace.mean_rate
    )


# ----------------------------------------------------------------------
# Fig. 6: statistical multiplexing gain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SmgPoint:
    num_sources: int
    cbr_rate: float
    shared_rate: float
    rcbr_rate: float


@dataclass
class SmgResult:
    points: List[SmgPoint]
    mean_rate: float
    schedule_efficiency: float


def run_smg(
    trace: FrameTrace,
    schedule: RateSchedule,
    source_counts: Sequence[int] = (1, 2, 4, 8, 16),
    loss_target: float = 1e-6,
    buffer_bits: float = BUFFER_BITS,
    seed: SeedLike = 0,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    recorder: Optional[BenchRecorder] = None,
) -> SmgResult:
    """Fig. 6: per-stream capacity under scenarios (a), (b), (c).

    The per-source-count cells run through the sweep engine with the
    historical per-index seeds, so serial and parallel runs match the
    old serial loop bit for bit; scenario (a) is N-independent and
    computed once inline.
    """
    workload = trace.as_workload()
    cbr = scenario_a_rate(workload, buffer_bits, loss_target)
    cells = smg_cells(
        trace, schedule, source_counts, buffer_bits, loss_target, seed=seed
    )
    engine = SweepEngine(
        workers=workers, cache=cache, recorder=recorder, namespace="smg"
    )
    points = [
        SmgPoint(
            num_sources=cell_result.value["num_sources"],
            cbr_rate=cbr,
            shared_rate=cell_result.value["shared_rate"],
            rcbr_rate=cell_result.value["rcbr_rate"],
        )
        for cell_result in engine.run(cells)
    ]
    return SmgResult(
        points=points,
        mean_rate=trace.mean_rate,
        schedule_efficiency=schedule.bandwidth_efficiency(trace.mean_rate),
    )


# ----------------------------------------------------------------------
# Section VI: MBAC comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MbacPoint:
    controller: str
    capacity_multiple: float
    load: float
    failure_probability: float
    utilization: float
    blocking_probability: float


@dataclass
class MbacResult:
    points: List[MbacPoint]
    failure_target: float

    def by_controller(self, name: str) -> List[MbacPoint]:
        return [point for point in self.points if point.controller == name]


def run_mbac_comparison(
    schedule: RateSchedule,
    capacity_multiples: Sequence[float] = (6.0, 12.0),
    loads: Sequence[float] = (0.6, 1.0),
    failure_target: float = 1e-3,
    controllers: Sequence[str] = ("memoryless", "memory", "perfect"),
    seed_base: int = 10_000,
    min_intervals: int = 5,
    max_intervals: int = 10,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    recorder: Optional[BenchRecorder] = None,
) -> MbacResult:
    """Figs. 7-8 and the memory fix: failure probability and utilization.

    The (capacity, load, controller) grid runs through the sweep
    engine; per-point seeds follow the historical
    ``seed_base + int(100 * capacity + 10 * load)`` scheme (shared by
    every controller at a point), so any worker count reproduces the
    old serial loop exactly.
    """
    cells = mbac_grid_cells(
        schedule,
        capacity_multiples,
        loads,
        controllers,
        seed_base=seed_base,
        failure_target=failure_target,
        min_intervals=min_intervals,
        max_intervals=max_intervals,
    )
    engine = SweepEngine(
        workers=workers, cache=cache, recorder=recorder, namespace="mbac"
    )
    points = [
        MbacPoint(
            controller=cell_result.value["controller"],
            capacity_multiple=cell_result.value["capacity_multiple"],
            load=cell_result.value["load"],
            failure_probability=cell_result.value["failure_probability"],
            utilization=cell_result.value["utilization"],
            blocking_probability=cell_result.value["blocking_probability"],
        )
        for cell_result in engine.run(cells)
    ]
    return MbacResult(points=points, failure_target=failure_target)
