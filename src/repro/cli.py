"""Command-line interface: ``python -m repro <command>``.

Operational entry points for the library:

* ``generate`` — synthesize a Star-Wars-like VBR trace to a file;
* ``analyze``  — print a trace's multiple time-scale statistics and its
  (sigma, rho) curve;
* ``schedule`` — compute an optimal or online RCBR schedule for a trace;
* ``admit``    — the Chernoff admission calculator (max calls for a link);
* ``fit``      — fit the generative model to an observed trace.

Traces are ``.npz`` (:meth:`FrameTrace.save`) or one-frame-per-line text
files; schedules are JSON (:meth:`RateSchedule.save`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.chernoff import max_admissible_calls
from repro.analysis.empirical import sigma_rho_for_loss, windowed_peak_rate
from repro.core import (
    GopAwareOnlineScheduler,
    GopAwareParams,
    OnlineParams,
    OnlineScheduler,
    OptimalScheduler,
    granular_rate_levels,
)
from repro.core.schedule import RateSchedule, empirical_rate_distribution
from repro.overload.policies import OVERLOAD_POLICY_NAMES
from repro.scenarios.registry import SCENARIO_NAMES
from repro.server.config import CONTROLLER_NAMES
from repro.traffic import (
    FrameTrace,
    SOURCE_NAMES,
    fit_starwars_model,
    generate_starwars_trace,
    make_source,
)
from repro.util.units import format_bits, format_rate, kbits, kbps


def _load_trace(path: str) -> FrameTrace:
    file_path = Path(path)
    if not file_path.exists():
        raise SystemExit(f"trace file not found: {path}")
    if file_path.suffix == ".npz":
        return FrameTrace.load(file_path)
    return FrameTrace.load_text(file_path)


def _save_trace(trace: FrameTrace, path: str) -> None:
    if Path(path).suffix == ".npz":
        trace.save(path)
    else:
        trace.save_text(path)


def _parse_float_list(spec: Optional[str], flag: str) -> Optional[tuple]:
    """Parse a comma-separated float list CLI value (None passes through)."""
    if spec is None:
        return None
    try:
        return tuple(float(item) for item in spec.split(","))
    except ValueError:
        raise SystemExit(f"{flag} expects comma-separated numbers: {spec!r}")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    trace = generate_starwars_trace(
        num_frames=args.frames,
        seed=args.seed,
        mean_rate=kbps(args.mean_kbps),
    )
    _save_trace(trace, args.output)
    print(
        f"wrote {trace.num_frames} frames ({trace.duration:.0f} s) at "
        f"{format_rate(trace.mean_rate)} to {args.output}"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    print(f"trace: {trace.name}")
    print(f"  frames:          {trace.num_frames} ({trace.duration:.1f} s "
          f"at {trace.frames_per_second:g} fps)")
    print(f"  mean rate:       {format_rate(trace.mean_rate)}")
    print(f"  peak frame rate: {format_rate(trace.peak_rate)} "
          f"({trace.peak_rate / trace.mean_rate:.1f}x mean)")
    for window in (1.0, 10.0, 60.0):
        if window < trace.duration:
            peak = windowed_peak_rate(trace, window)
            print(f"  peak {window:>4.0f}s rate:  {format_rate(peak)} "
                  f"({peak / trace.mean_rate:.2f}x mean)")
    if args.sigma_rho:
        buffers = [kbits(value) for value in (50, 100, 300, 1000, 3000, 10000)]
        buffers = [b for b in buffers if b < trace.total_bits]
        curve = sigma_rho_for_loss(
            trace.as_workload(), buffers, args.loss_target
        )
        print(f"\n  (sigma, rho) curve at loss {args.loss_target:g}:")
        for sigma, rho in curve:
            print(f"    {format_bits(sigma):>10}  ->  {format_rate(rho)} "
                  f"({rho / trace.mean_rate:.2f}x mean)")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    workload = (
        trace.aggregate(args.frames_per_slot)
        if args.frames_per_slot > 1
        else trace.as_workload()
    )
    buffer_bits = kbits(args.buffer_kbits)
    granularity = kbps(args.granularity_kbps)

    if args.method == "optimal":
        top = max(kbps(2400), 1.2 * windowed_peak_rate(trace, 1.0))
        levels = granular_rate_levels(granularity, top)
        result = OptimalScheduler(levels, alpha=args.alpha).solve(
            workload, buffer_bits=buffer_bits
        )
        schedule = result.schedule
        max_buffer = schedule.max_buffer(workload)
        requests = schedule.num_renegotiations
    else:
        params = OnlineParams(granularity=granularity)
        if args.method == "gop":
            online = GopAwareOnlineScheduler(GopAwareParams(params))
        else:
            online = OnlineScheduler(params)
        outcome = online.schedule(workload)
        schedule = outcome.schedule
        max_buffer = outcome.max_buffer
        requests = outcome.requests_made

    print(f"method:                  {args.method}")
    print(f"segments:                {schedule.num_segments}")
    print(f"renegotiations:          {schedule.num_renegotiations} "
          f"(requests: {requests})")
    print(f"mean interval:           "
          f"{schedule.mean_renegotiation_interval():.2f} s")
    print(f"average reserved rate:   {format_rate(schedule.average_rate())}")
    print(f"bandwidth efficiency:    "
          f"{schedule.bandwidth_efficiency(trace.mean_rate):.2%}")
    print(f"peak buffer:             {format_bits(max_buffer)} "
          f"(bound {format_bits(buffer_bits)})")
    if args.output:
        schedule.save(args.output)
        print(f"schedule written to {args.output}")
    return 0


def cmd_admit(args: argparse.Namespace) -> int:
    schedule = RateSchedule.load(args.schedule)
    levels, fractions = empirical_rate_distribution(schedule)
    capacity = kbps(args.capacity_kbps)
    max_calls = max_admissible_calls(
        levels, fractions, capacity, args.failure_target
    )
    mean = float(levels @ fractions)
    print(f"per-call marginal: {levels.size} levels, "
          f"mean {format_rate(mean)}")
    print(f"link capacity:     {format_rate(capacity)} "
          f"({capacity / mean:.1f}x call mean)")
    print(f"failure target:    {args.failure_target:g}")
    print(f"max calls:         {max_calls}")
    if max_calls:
        print(f"admitted load:     "
              f"{max_calls * mean / capacity:.1%} of capacity")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import run_sigma_rho, run_smg, run_tradeoff
    from repro.experiments.runners import compute_optimal_schedule

    trace = (
        _load_trace(args.trace)
        if args.trace
        else generate_starwars_trace(num_frames=args.frames, seed=args.seed)
    )
    mean = trace.mean_rate
    if args.name == "tradeoff":
        result = run_tradeoff(trace)
        print("OPT (alpha sweep):")
        for point in result.optimal:
            print(f"  alpha={point.parameter:>10.3g}  "
                  f"interval={point.mean_interval:6.1f}s  "
                  f"efficiency={point.efficiency:.4f}")
        print("AR(1) heuristic (delta sweep):")
        for point in result.heuristic:
            print(f"  delta={format_rate(point.parameter):>12}  "
                  f"interval={point.mean_interval:6.2f}s  "
                  f"efficiency={point.efficiency:.4f}")
    elif args.name == "sigma-rho":
        result = run_sigma_rho(trace)
        for sigma, rho in zip(result.buffers, result.rates):
            print(f"  {format_bits(sigma):>10}  ->  {format_rate(rho)} "
                  f"({rho / mean:.2f}x mean)")
    elif args.name == "smg":
        schedule = compute_optimal_schedule(trace, alpha=4e6)
        result = run_smg(trace, schedule, loss_target=args.loss_target)
        print(f"{'N':>4} {'CBR':>7} {'shared':>7} {'RCBR':>7}  (x mean)")
        for point in result.points:
            print(f"{point.num_sources:>4} "
                  f"{point.cbr_rate / mean:>7.2f} "
                  f"{point.shared_rate / mean:>7.2f} "
                  f"{point.rcbr_rate / mean:>7.2f}")
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown experiment {args.name}")
    return 0


# ----------------------------------------------------------------------
# The sweep engine commands
# ----------------------------------------------------------------------
def _sweep_workers(args: argparse.Namespace) -> int:
    import os

    if args.workers is not None:
        return args.workers
    return int(os.environ.get("REPRO_SWEEP_WORKERS", "1"))


def _sweep_scale(args: argparse.Namespace):
    from repro.perf.sweeps import SWEEP_SCALES, current_scale

    if args.scale is not None:
        return SWEEP_SCALES[args.scale]
    return current_scale()


def _sweep_cache(args: argparse.Namespace):
    from repro.perf.cache import ResultCache

    return ResultCache(
        root=args.cache_dir, enabled=False if args.no_cache else None
    )


def _sweep_cells(name: str, scale, cache, recorder, loss_target: float):
    """Build the cell list for one sweep family (shared with ``bench``)."""
    from repro.perf.sweeps import (
        BUFFER_BITS,
        GRANULARITY,
        figs7_9_cells,
        optimal_schedule_for,
        overload_cells,
        scenario_cells,
        smg_cells,
        starwars_trace_for,
        tradeoff_cells,
    )

    if name == "overload":
        return overload_cells(scale=scale)
    if name == "scenarios":
        return scenario_cells(scale=scale)
    if name == "mbac":
        schedule = optimal_schedule_for(scale, cache=cache, recorder=recorder)
        return figs7_9_cells(schedule, scale)
    if name == "smg":
        trace = starwars_trace_for(scale, cache=cache, recorder=recorder)
        schedule = optimal_schedule_for(scale, cache=cache, recorder=recorder)
        return smg_cells(
            trace, schedule, scale.smg_sources, BUFFER_BITS, loss_target
        )
    if name == "tradeoff":
        trace = starwars_trace_for(scale, cache=cache, recorder=recorder)
        return tradeoff_cells(
            trace,
            alphas=(2e5, 1e6, 6e6, 3e7),
            deltas=(kbps(25), kbps(50), kbps(100), kbps(400)),
            buffer_bits=BUFFER_BITS,
            granularity=GRANULARITY,
            frames_per_slot=scale.dp_frames_per_slot,
        )
    raise SystemExit(f"unknown sweep {name}")  # pragma: no cover


def _print_overload_table(rows) -> None:
    """The block/downgrade/sacrifice comparison, one line per cell."""
    print("overload comparison (per offered load):")
    print(f"  {'load':>5} {'policy':>10} {'blocking':>9} "
          f"{'bits lost':>12} {'downgraded':>12} {'fairness':>9}")
    for row in sorted(rows, key=lambda r: (r["load"], r["policy"])):
        print(
            f"  {row['load']:>5g} {row['policy']:>10} "
            f"{row['blocking_probability']:>9.4f} "
            f"{format_bits(row['bits_lost']):>12} "
            f"{format_bits(row['bits_downgraded']):>12} "
            f"{row['class_fairness']:>9.3f}"
        )


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep {mbac,smg,tradeoff,overload}``: one figure grid,
    supervised."""
    import json
    import time

    from repro.perf import BenchRecorder, SupervisorPolicy, SweepEngine

    workers = _sweep_workers(args)
    scale = _sweep_scale(args)
    cache = _sweep_cache(args)
    recorder = BenchRecorder(
        context={
            "sweep": args.sweep_name,
            "scale": scale.name,
            "workers": workers,
            "cache": cache.stats()["root"] if cache.enabled else None,
        }
    )
    journal = args.journal
    if journal is None and args.resume:
        journal = f"sweep-{args.sweep_name}.journal.jsonl"
    policy = SupervisorPolicy(
        timeout=args.timeout, max_attempts=args.retries + 1
    )
    start = time.perf_counter()
    cells = _sweep_cells(
        args.sweep_name, scale, cache, recorder, args.loss_target
    )
    engine = SweepEngine(
        workers=workers, cache=cache, recorder=recorder,
        namespace=args.sweep_name, policy=policy,
        journal_path=journal, resume=args.resume,
    )
    run = engine.run_supervised(cells)
    results, report = run.results, run.report
    elapsed = time.perf_counter() - start

    for cell_report in report.cells:
        if cell_report.status == "quarantined":
            print(f"  [ FAILED] {cell_report.name}: {cell_report.error} "
                  f"({cell_report.attempts} attempts)")
    for result in results:
        tag = "cached" if result.cached else f"{result.seconds:6.2f}s"
        print(f"  [{tag:>7}] {result.name}")
        for key, value in sorted(result.value.items()):
            if isinstance(value, float):
                print(f"            {key} = {value:.6g}")
    if args.sweep_name == "overload":
        _print_overload_table([result.value for result in results])
    summary = recorder.summary()
    counts = report.counts()
    print(
        f"{args.sweep_name}: {len(results)} cells in {elapsed:.2f}s "
        f"(workers={workers}, cache hits {summary['cache_hits']}/"
        f"{summary['records']})"
    )
    print(
        "supervision: "
        + ", ".join(f"{status}={count}" for status, count
                    in sorted(counts.items()))
        + (f", pool rebuilds={report.pool_rebuilds}"
           if report.pool_rebuilds else "")
        + (", degraded to serial" if report.degraded_to_serial else "")
        + (", stale journal recomputed" if report.stale_journal else "")
    )
    if journal:
        print(f"journal: {journal}")
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"sweep report written to {args.report}")
    if args.out:
        recorder.write(args.out)
        print(f"bench records written to {args.out}")
    return 1 if report.quarantined else 0


def cmd_sweep_bench(args: argparse.Namespace) -> int:
    """``repro sweep bench``: the before/after perf demonstration.

    Runs the MBAC figure sweep (Figs. 7-9 cells plus the trace and DP
    intermediates) three ways — serial with no cache, engine-cold
    (populating a fresh cache), engine-warm (all hits) — checks the
    three produce identical values, and writes ``BENCH_sweeps.json``
    including the recorded seed baseline and the resulting speedups.
    """
    import json
    import shutil
    import tempfile
    import time

    from repro.perf import BenchRecorder, ResultCache, SweepEngine
    from repro.perf.recorder import BENCH_SCHEMA

    workers = _sweep_workers(args)
    scale = _sweep_scale(args)

    def run_leg(label: str, cache, leg_workers: int):
        recorder = BenchRecorder(
            context={"leg": label, "workers": leg_workers}
        )
        start = time.perf_counter()
        cells = _sweep_cells("mbac", scale, cache, recorder, args.loss_target)
        engine = SweepEngine(
            workers=leg_workers, cache=cache, recorder=recorder,
            namespace="mbac",
        )
        results = engine.run(cells)
        elapsed = time.perf_counter() - start
        values = [result.value for result in results]
        summary = recorder.summary()
        print(
            f"  {label}: {elapsed:7.2f}s  "
            f"(cache hits {summary['cache_hits']}/{summary['records']})"
        )
        return {
            "label": label,
            "workers": leg_workers,
            "wall_seconds": round(elapsed, 3),
            "cache_hits": summary["cache_hits"],
            "records": recorder.records,
        }, values

    cache_root = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        print(f"sweep bench at scale={scale.name}, workers={workers}:")
        serial, serial_values = run_leg(
            "serial-no-cache", ResultCache(root=cache_root, enabled=False), 1
        )
        cold, cold_values = run_leg(
            "engine-cold", ResultCache(root=cache_root), workers
        )
        warm, warm_values = run_leg(
            "engine-warm", ResultCache(root=cache_root), workers
        )
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    identical = serial_values == cold_values == warm_values
    print(f"  serial/cold/warm results identical: {identical}")
    if not identical:
        raise SystemExit("engine legs disagree with the serial reference")

    baseline = None
    if args.baseline and Path(args.baseline).exists():
        baseline = json.loads(Path(args.baseline).read_text())

    def speedup(reference: Optional[float], seconds: float):
        if reference is None or seconds <= 0:
            return None
        return round(reference / seconds, 2)

    reference = baseline.get("total_seconds") if baseline else None
    report = {
        "schema": BENCH_SCHEMA,
        "scale": scale.name,
        "workers": workers,
        "baseline": baseline,
        "legs": [serial, cold, warm],
        "results_identical": identical,
        "speedups_vs_baseline": {
            "serial_no_cache": speedup(reference, serial["wall_seconds"]),
            "engine_cold": speedup(reference, cold["wall_seconds"]),
            "engine_warm": speedup(reference, warm["wall_seconds"]),
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"bench report written to {args.out}")
    if reference is not None:
        for key, value in report["speedups_vs_baseline"].items():
            print(f"  {key}: {value}x vs baseline {reference:.2f}s")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: one seeded trial of the faulted renegotiation
    pipeline, with the signaling timeout/retry knobs on the command line
    instead of hard-coded in :class:`ChaosConfig`."""
    from repro.faults.harness import ChaosConfig, run_chaos_trial

    config = ChaosConfig(
        policy=args.policy,
        deny_rate=args.deny_rate,
        cell_loss=args.cell_loss,
        num_slots=args.slots,
        num_hops=args.hops,
        max_retries=args.retries,
        request_timeout=args.timeout,
        retry_backoff=args.retry_backoff,
        retry_jitter=args.retry_jitter,
        seed=args.seed,
    )
    result = run_chaos_trial(config)
    print(f"chaos trial (policy={result.policy}, seed={result.seed}):")
    print(f"  offered:          {format_bits(result.offered_bits)}")
    print(f"  bits lost:        {format_bits(result.bits_lost)} "
          f"({result.loss_fraction:.4%})")
    print(f"  requests:         {result.requests} "
          f"(denied {result.denied}, suppressed {result.suppressed})")
    print(f"  failure fraction: {result.failure_fraction:.4%}")
    print(f"  signaling:        {result.cells_sent} cells, "
          f"{result.cells_lost} lost, {result.retries} retries, "
          f"{result.timeouts} timeouts")
    print(f"  recovery:         {result.recovery_episodes} episodes, "
          f"mean {result.mean_time_to_recover:.2f}s, "
          f"max {result.max_time_to_recover:.2f}s")
    print(f"  fingerprint:      {result.fingerprint}")
    if result.in_flight_leaks:
        print(f"  WARNING: {result.in_flight_leaks} requests leaked in flight")
        return 1
    return 0


# ----------------------------------------------------------------------
# The checkpointed run driver shared by `serve` and `scenario run`
# ----------------------------------------------------------------------
def _fault_plan(args: argparse.Namespace):
    """``--fault-plan`` as a :class:`FaultPlan` (inline JSON or a file)."""
    from repro.faults.injectors import FaultPlan

    if not args.fault_plan:
        return None
    if args.fault_plan.lstrip().startswith("{"):
        return FaultPlan.from_json(args.fault_plan, seed=args.fault_seed)
    return FaultPlan.from_file(args.fault_plan, seed=args.fault_seed)


def _checkpoint_hook(args: argparse.Namespace, lifecycle, target):
    """The epoch hook: graceful stop and periodic checkpoints.

    It runs at each epoch boundary *before* the epoch is stepped (and,
    for a scenario, before this tick's background capacity update), so
    a checkpoint written here resumes bit-exactly: it contains every
    snapshot due at this boundary and nothing later.  A stop request
    saves synchronously and ends the run.  The periodic save is
    deferred: it serializes inline (boundary-consistent) and writes in
    the background, so the cadence tax is serialization-only.
    """
    path = args.checkpoint_path

    def hook(tick: int, _gateway) -> bool:
        if lifecycle.stop_requested:
            meta = target.save(path)
            print(f"\n{lifecycle.signal_name}: stopping at epoch boundary "
                  f"t={meta['time']:.1f} s; checkpoint "
                  f"({meta['bytes']:,} bytes) -> {path}",
                  flush=True)
            return True
        if (
            args.checkpoint_every
            and tick
            and tick % args.checkpoint_every == 0
        ):
            target.save(path, defer=True)
        return False

    return hook


def _run_checkpointed(
    args: argparse.Namespace, lifecycle, target, gateway, end_time: float,
    run, verbs,
):
    """Run ``target`` (a gateway or scenario harness) to ``end_time``.

    Handles ``--resume-from`` (``end_time`` is the absolute end, so a
    checkpoint already past it exits 1) and a second stop signal or
    Ctrl-C (a partial fingerprint, exit 130).  ``run(remaining, hook)``
    runs the epochs; ``verbs`` words the messages, e.g. ``("serve",
    "serving", "served")``.  Returns ``(exit_code, None)`` on an early
    exit, else ``(None, report)``.
    """
    from repro.server.stats import snapshot_fingerprint

    verb, gerund, past = verbs
    try:
        with target, lifecycle:
            if args.resume_from:
                target.restore(args.resume_from)
                resumed_at = gateway.engine.now
                remaining = end_time - resumed_at
                if remaining <= 0:
                    print(f"checkpoint {args.resume_from} is already at "
                          f"t={resumed_at:.1f} s; nothing left of "
                          f"--duration {end_time:.1f} s to {verb}")
                    return 1, None
                print(f"resumed from {args.resume_from} at "
                      f"t={resumed_at:.1f} s; {gerund} {remaining:.1f} s "
                      f"more (--duration is the absolute end time)")
            else:
                remaining = end_time
            report = run(
                remaining, _checkpoint_hook(args, lifecycle, target)
            )
    except KeyboardInterrupt:
        # Second signal (or a Ctrl-C the lifecycle never saw): abandon
        # the epoch in progress, report what completed, exit 130.
        print(f"\ninterrupted: {past} {gateway.engine.now:.1f} s, "
              f"{len(gateway.snapshots)} snapshots, partial fingerprint "
              f"{snapshot_fingerprint(gateway.snapshots)}")
        return 130, None
    return None, report


def _stop_exit_code(args: argparse.Namespace, lifecycle) -> int:
    """``128 + signum`` after a graceful stop, else 0."""
    if lifecycle.stop_requested:
        print(f"stopped early by {lifecycle.signal_name}; continue with "
              f"--resume-from {args.checkpoint_path}")
        return 128 + (lifecycle.signum or 2)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the long-lived event-driven RCBR gateway.

    Builds a gateway over a synthesized (or loaded) trace and serves
    open-loop arrivals through the configured admission controller for
    ``--duration`` simulated seconds, printing the final accounting.
    ``--shards N`` selects the multi-process sharded runtime (same
    fingerprint for any shard count).  ``--bench`` instead times the
    vectorized service loop on a preloaded fleet and writes
    ``BENCH_server.json`` (appending a history leg); with
    ``--perf-baseline`` the run is gated against the committed
    artifact's history and a >20% call-epochs/s regression fails the
    command.
    """
    import json

    from repro.server import ServerConfig, build_gateway, run_server_benchmark
    from repro.server.bench import check_perf_regression
    from repro.server.checkpoint import ServeLifecycle

    if args.bench:
        result = run_server_benchmark(
            num_calls=args.bench_calls,
            epochs=args.bench_epochs,
            warmup_epochs=args.bench_warmup,
            seed=args.seed,
            shards=args.shards,
            shard_chunk=args.shard_chunk,
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint_path,
            out=args.out,
        )
        if args.checkpoint_every:
            print(f"benchmark ran with --checkpoint-every "
                  f"{args.checkpoint_every} (deferred writes to "
                  f"{args.checkpoint_path}); the perf gate measures the "
                  f"cadence overhead against the clean baseline")
        runtime = (
            f"sharded x{result['shards']}" if result["shards"] else "plain"
        )
        print(f"server benchmark ({result['num_calls']} concurrent calls, "
              f"{runtime}):")
        print(f"  startup:         {result['startup_seconds']:.2f} s "
              f"(preload {result['build_seconds']:.2f} s)")
        print(f"  simulated:       {result['simulated_seconds']:.2f} s in "
              f"{result['run_seconds']:.2f} s wall "
              f"({result['epochs']} epochs)")
        print(f"  realtime factor: {result['realtime_factor']:.3f}x")
        print(f"  throughput:      "
              f"{result['call_epochs_per_second']:,.0f} call-epochs/s")
        print(f"  utilization:     {result['mean_utilization']:.3f}")
        print(f"  fingerprint:     {result['fingerprint']}")
        print(f"bench records written to {args.out} "
              f"({result['history_legs']} history legs)")
        if result["realtime_factor"] < 1.0:
            print("  WARNING: gateway fell behind real time on this host")
        if args.perf_baseline:
            gate = check_perf_regression(
                result, args.perf_baseline, threshold=args.perf_threshold
            )
            verdict = "pass" if gate["ok"] else "FAIL"
            print(f"perf gate ({verdict}): {gate['reason']}")
            if not gate["ok"]:
                return 1
        return 0

    trace = (
        _load_trace(args.trace)
        if args.trace
        else generate_starwars_trace(
            num_frames=args.frames, seed=args.trace_seed
        )
    )
    workload = trace.as_workload()
    source = None
    if args.source:
        # Build the calibrated source here (the registry needs the target
        # mean rate); the gateway samples its base workload from it on
        # the seeded sampling stream.
        source = make_source(
            args.source,
            mean_rate=kbps(args.source_mean_kbps),
            workload=workload if args.source == "trace" else None,
        )
        nominal_mean = (
            workload.mean_rate
            if args.source == "trace"
            else kbps(args.source_mean_kbps)
        )
    else:
        nominal_mean = workload.mean_rate
    capacity = (
        kbps(args.capacity_kbps)
        if args.capacity_kbps is not None
        else args.capacity_multiple * nominal_mean
    )
    config = ServerConfig(
        capacity=capacity,
        load=args.load,
        controller=args.controller,
        failure_target=args.failure_target,
        granularity=kbps(args.granularity_kbps),
        buffer_bits=kbits(args.buffer_kbits) if args.buffer_kbits else None,
        mean_holding=args.mean_holding,
        abandon_after=args.abandon_after,
        num_hops=args.hops,
        request_timeout=args.timeout,
        max_retries=args.retries,
        initial_calls=args.initial_calls,
        seed=args.seed,
        source=args.source or None,
        source_slots=args.source_slots,
        shards=args.shards,
        shard_chunk=args.shard_chunk,
        overload_policy=args.overload_policy,
        overload_enter=args.overload_enter,
        overload_exit=args.overload_exit,
        overload_dwell=args.overload_dwell,
        overload_classes=args.overload_classes,
        class_weights=_parse_float_list(
            args.class_weights, "--class-weights"
        ),
        **(
            {
                "downgrade_ladder": _parse_float_list(
                    args.downgrade_ladder, "--downgrade-ladder"
                )
            }
            if args.downgrade_ladder
            else {}
        ),
        sacrifice_queue=args.sacrifice_queue,
        sacrifice_max_per_epoch=args.sacrifice_max_per_epoch,
    )
    gateway = build_gateway(
        workload, config, faults=_fault_plan(args), source=source
    )
    lifecycle = ServeLifecycle()
    code, report = _run_checkpointed(
        args, lifecycle, gateway, gateway, args.duration,
        lambda remaining, hook: gateway.run(
            remaining, snapshot_every=args.snapshot_every, epoch_hook=hook
        ),
        verbs=("serve", "serving", "served"),
    )
    if code is not None:
        return code
    final = report.final
    print(f"RCBR gateway (controller={config.controller}, "
          f"source={gateway.workload.name}, seed={config.seed}):")
    print(f"  capacity:        {format_rate(capacity)} "
          f"({capacity / gateway.workload.mean_rate:.1f}x call mean)")
    print(f"  served:          {report.duration:.1f} s "
          f"({report.epochs} epochs), peak {report.peak_active} calls")
    print(f"  calls:           {final.arrivals} arrivals "
          f"({final.blocked} blocked), {final.departed} departed "
          f"({final.abandoned} abandoned), {final.active_calls} active")
    print(f"  renegotiations:  {final.reneg_requests} requests, "
          f"{final.reneg_denied} denied "
          f"({final.injected_denials} injected)")
    print(f"  signaling:       {final.cells_sent} cells, "
          f"{final.cells_lost} lost, {final.retries} retries, "
          f"{final.timeouts} timeouts")
    print(f"  utilization:     {report.mean_utilization:.3f} mean")
    print(f"  bits lost:       {format_bits(final.bits_lost_overflow)} "
          f"overflow, {format_bits(final.bits_lost_link)} link")
    if report.overload is not None:
        section = report.overload
        print(f"  overload plane:  policy={section['policy']}, "
              f"{section['entries']} entries, "
              f"{section['epochs_overloaded']} epochs overloaded")
        print(f"  class treatment: fairness {section['class_fairness']:.3f}, "
              f"{format_bits(section['bits_downgraded'])} downgraded, "
              f"active per class {section['class_active']}")
    print(f"  fingerprint:     {report.fingerprint}")
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"server report written to {args.report}")
    return _stop_exit_code(args, lifecycle)


def cmd_scenario(args: argparse.Namespace) -> int:
    """``repro scenario {list,describe,run}``: the declarative scenario
    suite — competing RCBR flow groups over multi-bottleneck topologies
    with hostile background cross-traffic (DESIGN.md §16)."""
    import json

    from repro.scenarios import get_scenario

    if args.scenario_cmd == "list":
        for name in SCENARIO_NAMES:
            spec = get_scenario(name)
            background = (
                ",".join(bg.traffic for bg in spec.background) or "-"
            )
            print(
                f"{name:20s} links={len(spec.links)} "
                f"groups={len(spec.flows)} background={background}"
            )
            print(f"{'':20s} {spec.description}")
        return 0

    if args.scenario_cmd == "describe":
        print(get_scenario(args.name).describe())
        return 0

    from repro.scenarios.registry import resolve_scenario
    from repro.scenarios.runtime import ScenarioHarness
    from repro.server.checkpoint import ServeLifecycle

    spec = resolve_scenario(
        args.name,
        seed=args.seed,
        duration=args.duration,
        snapshot_every=args.snapshot_every,
        route_k=args.route_k,
    )

    harness = ScenarioHarness(
        spec, shards=args.shards, faults=_fault_plan(args)
    )
    lifecycle = ServeLifecycle()
    code, report = _run_checkpointed(
        args, lifecycle, harness, harness.gateway, spec.duration,
        lambda remaining, hook: harness.run(
            duration=remaining, epoch_hook=hook
        ),
        verbs=("run", "running", "ran"),
    )
    if code is not None:
        return code
    result = harness.result(report)
    for line in result.summary_lines():
        print(line)
    if args.report:
        Path(args.report).write_text(
            json.dumps(result.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"scenario report written to {args.report}")
    return _stop_exit_code(args, lifecycle)


def cmd_fit(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    model = fit_starwars_model(trace, num_classes=args.classes)
    print(f"fitted model for {trace.name}:")
    print(f"  mean rate:   {format_rate(model.mean_rate)}")
    print(f"  GOP length:  {model.gop.gop_length}")
    print(f"  noise sigma: {model.frame_noise_sigma:.3f}")
    print("  scene classes:")
    for scene in model.scene_classes:
        print(f"    {scene.name:>8}: x{scene.rate_multiplier:5.2f} mean, "
              f"~{scene.mean_duration:5.1f} s dwell, "
              f"entry p={scene.probability:.3f}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RCBR: renegotiated CBR service toolkit (SIGCOMM '95 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesize a Star-Wars-like VBR trace"
    )
    generate.add_argument("output", help="output file (.npz or .txt)")
    generate.add_argument("--frames", type=int, default=24_000)
    generate.add_argument("--seed", type=int, default=1995)
    generate.add_argument("--mean-kbps", type=float, default=374.0)
    generate.set_defaults(handler=cmd_generate)

    analyze = commands.add_parser("analyze", help="trace statistics")
    analyze.add_argument("trace")
    analyze.add_argument("--sigma-rho", action="store_true",
                         help="also compute the (sigma, rho) curve")
    analyze.add_argument("--loss-target", type=float, default=1e-6)
    analyze.set_defaults(handler=cmd_analyze)

    schedule = commands.add_parser(
        "schedule", help="compute an RCBR renegotiation schedule"
    )
    schedule.add_argument("trace")
    schedule.add_argument(
        "--method", choices=("optimal", "online", "gop"), default="optimal"
    )
    schedule.add_argument("--buffer-kbits", type=float, default=300.0)
    schedule.add_argument("--granularity-kbps", type=float, default=64.0)
    schedule.add_argument("--alpha", type=float, default=4e6,
                          help="renegotiation cost (optimal method)")
    schedule.add_argument("--frames-per-slot", type=int, default=2,
                          help="DP slot aggregation (optimal method)")
    schedule.add_argument("--output", help="write the schedule JSON here")
    schedule.set_defaults(handler=cmd_schedule)

    admit = commands.add_parser(
        "admit", help="Chernoff admission calculator for a schedule"
    )
    admit.add_argument("schedule", help="schedule JSON from `repro schedule`")
    admit.add_argument("--capacity-kbps", type=float, required=True)
    admit.add_argument("--failure-target", type=float, default=1e-3)
    admit.set_defaults(handler=cmd_admit)

    fit = commands.add_parser(
        "fit", help="fit the multiple time-scale model to a trace"
    )
    fit.add_argument("trace")
    fit.add_argument("--classes", type=int, default=5)
    fit.set_defaults(handler=cmd_fit)

    experiment = commands.add_parser(
        "experiment", help="run one of the paper's studies"
    )
    experiment.add_argument(
        "name", choices=("tradeoff", "sigma-rho", "smg")
    )
    experiment.add_argument("--trace", help="trace file (default: synthesize)")
    experiment.add_argument("--frames", type=int, default=14_400)
    experiment.add_argument("--seed", type=int, default=1995)
    experiment.add_argument("--loss-target", type=float, default=1e-3)
    experiment.set_defaults(handler=cmd_experiment)

    sweep = commands.add_parser(
        "sweep",
        help="run a figure grid through the parallel sweep engine",
    )
    sweep_commands = sweep.add_subparsers(dest="sweep_name", required=True)

    def add_sweep_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--workers", type=int, default=None,
            help="worker processes (default: $REPRO_SWEEP_WORKERS or 1)",
        )
        sub.add_argument(
            "--scale", choices=("small", "paper"), default=None,
            help="experiment scale (default: $REPRO_SCALE or small)",
        )
        sub.add_argument(
            "--no-cache", action="store_true",
            help="compute everything; read and write no cache entries",
        )
        sub.add_argument(
            "--cache-dir", default=None,
            help="cache root (default: $REPRO_CACHE_DIR or "
                 "~/.cache/repro-rcbr)",
        )
        sub.add_argument("--loss-target", type=float, default=1e-3)

    for sweep_name, sweep_help in (
        ("mbac", "the Figs. 7-9 admission-control grid"),
        ("smg", "the Fig. 6 multiplexing-gain cells (scenarios b, c)"),
        ("tradeoff", "the Fig. 2 alpha/delta tradeoff cells"),
        ("overload", "the block/downgrade/sacrifice overload-plane "
                     "comparison under saturation"),
        ("scenarios", "the hostile-neighborhood scenario roster "
                      "(one cell per registered scenario)"),
    ):
        sub = sweep_commands.add_parser(sweep_name, help=sweep_help)
        add_sweep_options(sub)
        sub.add_argument(
            "--out", default=None, help="also write bench records JSON here"
        )
        sub.add_argument(
            "--timeout", type=float, default=None,
            help="per-cell wall-clock timeout in seconds "
                 "(enforced with workers > 1)",
        )
        sub.add_argument(
            "--retries", type=int, default=2,
            help="retry attempts per failed/hung cell before quarantine "
                 "(default 2)",
        )
        sub.add_argument(
            "--journal", default=None,
            help="append completed cells to this crash-safe JSONL journal",
        )
        sub.add_argument(
            "--resume", action="store_true",
            help="skip cells already completed in the journal "
                 "(default journal: sweep-<name>.journal.jsonl)",
        )
        sub.add_argument(
            "--report", default=None,
            help="write the per-cell supervision report JSON here",
        )
        sub.set_defaults(handler=cmd_sweep)

    bench = sweep_commands.add_parser(
        "bench",
        help="before/after perf report: serial vs engine-cold vs engine-warm",
    )
    add_sweep_options(bench)
    bench.add_argument(
        "--out", default="BENCH_sweeps.json",
        help="report path (default: BENCH_sweeps.json)",
    )
    bench.add_argument(
        "--baseline", default="benchmarks/seed_baseline.json",
        help="recorded pre-engine serial baseline to compare against",
    )
    bench.set_defaults(handler=cmd_sweep_bench)

    chaos = commands.add_parser(
        "chaos",
        help="run one seeded chaos trial of the faulted renegotiation "
             "pipeline",
    )
    chaos.add_argument(
        "--policy", default="backoff",
        choices=("naive", "backoff", "downgrade", "drain"),
        help="recovery policy name (default: backoff)",
    )
    chaos.add_argument("--deny-rate", type=float, default=0.2)
    chaos.add_argument("--cell-loss", type=float, default=0.0)
    chaos.add_argument("--slots", type=int, default=2000)
    chaos.add_argument("--hops", type=int, default=3)
    chaos.add_argument(
        "--timeout", type=float, default=None,
        help="per-request signaling timeout in seconds "
             "(default: twice the path RTT)",
    )
    chaos.add_argument(
        "--retries", type=int, default=2,
        help="absolute-cell retries per lost request (default 2)",
    )
    chaos.add_argument(
        "--retry-backoff", type=float, default=1.0,
        help="retry-interval growth factor (default 1 = fixed interval)",
    )
    chaos.add_argument(
        "--retry-jitter", type=float, default=0.0,
        help="random per-retry stretch in [0, 1), seeded (default 0)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.set_defaults(handler=cmd_chaos)

    serve = commands.add_parser(
        "serve",
        help="run the long-lived event-driven RCBR service gateway",
    )
    serve.add_argument(
        "--duration", type=float, default=30.0,
        help="simulated seconds to serve (default 30)",
    )
    serve.add_argument(
        "--load", type=float, default=0.8,
        help="normalized offered load (0 = only --initial-calls)",
    )
    serve.add_argument(
        "--controller", choices=CONTROLLER_NAMES, default="always",
        help="admission controller (default: always)",
    )
    serve.add_argument(
        "--capacity-kbps", type=float, default=None,
        help="bottleneck capacity "
             "(default: --capacity-multiple x call mean)",
    )
    serve.add_argument(
        "--capacity-multiple", type=float, default=40.0,
        help="capacity as a multiple of the per-call mean rate "
             "(default 40)",
    )
    serve.add_argument("--failure-target", type=float, default=1e-3)
    serve.add_argument("--granularity-kbps", type=float, default=64.0)
    serve.add_argument(
        "--buffer-kbits", type=float, default=300.0,
        help="per-call playout buffer (0 = infinite)",
    )
    serve.add_argument("--trace", help="trace file (default: synthesize)")
    serve.add_argument("--frames", type=int, default=2_400)
    serve.add_argument("--trace-seed", type=int, default=1995)
    serve.add_argument(
        "--source", choices=SOURCE_NAMES, default=None,
        help="sample the base workload from this traffic model instead "
             "of using the trace directly ('trace' plays the trace back "
             "through the source path); one of: " + ", ".join(SOURCE_NAMES),
    )
    serve.add_argument(
        "--source-mean-kbps", type=float, default=374.0,
        help="target stationary mean rate for synthetic --source models "
             "(default 374, the Star Wars mean)",
    )
    serve.add_argument(
        "--source-slots", type=int, default=2_400,
        help="slots to sample from --source (default 2400)",
    )
    serve.add_argument("--seed", type=int, default=0,
                       help="determinism seed for arrivals/calls/faults")
    serve.add_argument(
        "--mean-holding", type=float, default=None,
        help="mean call holding time in seconds "
             "(default: one workload duration)",
    )
    serve.add_argument(
        "--abandon-after", type=int, default=None,
        help="tear a call down after this many consecutive denied "
             "renegotiations",
    )
    serve.add_argument("--hops", type=int, default=1)
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="per-request signaling timeout in seconds "
             "(default: twice the path RTT)",
    )
    serve.add_argument("--retries", type=int, default=2)
    serve.add_argument(
        "--initial-calls", type=int, default=0,
        help="calls preloaded at t=0 before open-loop arrivals start",
    )
    serve.add_argument(
        "--shards", type=int, default=0,
        help="worker processes for the fleet's kernel step (0 = inline "
             "in the gateway process; the fingerprint is identical "
             "either way)",
    )
    serve.add_argument(
        "--shard-chunk", type=int, default=4_096,
        help="contiguous pool slots per shard chunk (default 4096)",
    )
    serve.add_argument(
        "--overload-policy", choices=OVERLOAD_POLICY_NAMES, default="block",
        help="link-level overload control policy (default: block — "
             "admission blocking only, no control plane)",
    )
    serve.add_argument(
        "--overload-enter", type=float, default=0.95,
        help="pressure threshold to enter overload (default 0.95)",
    )
    serve.add_argument(
        "--overload-exit", type=float, default=0.85,
        help="pressure threshold to leave overload (default 0.85)",
    )
    serve.add_argument(
        "--overload-dwell", type=int, default=8,
        help="consecutive epochs a threshold must hold (default 8)",
    )
    serve.add_argument(
        "--overload-classes", type=int, default=3,
        help="service classes for arriving calls (default 3; class 0 "
             "is the most protected)",
    )
    serve.add_argument(
        "--class-weights", default=None,
        help="comma-separated class draw weights (default: uniform)",
    )
    serve.add_argument(
        "--downgrade-ladder", default=None,
        help="comma-separated resolution ladder starting at 1.0 "
             "(default 1.0,0.75,0.5,0.35)",
    )
    serve.add_argument(
        "--sacrifice-queue", type=int, default=64,
        help="readmission queue depth for the sacrifice policy "
             "(default 64)",
    )
    serve.add_argument(
        "--sacrifice-max-per-epoch", type=int, default=2,
        help="eviction budget per overloaded epoch (default 2)",
    )
    serve.add_argument(
        "--fault-plan", default=None,
        help="fault-plan spec: a JSON file path, or an inline JSON "
             'object like \'{"denial": {"rate": 0.2}}\'',
    )
    serve.add_argument("--fault-seed", type=int, default=0)
    serve.add_argument(
        "--snapshot-every", type=float, default=None,
        help="periodic ServerSnapshot interval in simulated seconds",
    )
    serve.add_argument(
        "--report", default=None,
        help="write the full ServerReport JSON here",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="write a crash-safe checkpoint every N epochs (0 = off); "
             "SIGTERM/SIGINT also writes one at the next epoch boundary",
    )
    serve.add_argument(
        "--checkpoint-path", default="repro-serve.ckpt",
        help="where periodic and shutdown checkpoints are written "
             "(atomic replace; default: repro-serve.ckpt)",
    )
    serve.add_argument(
        "--resume-from", default=None,
        help="restore this checkpoint and continue serving; --duration "
             "stays the absolute end time, so the resumed run serves "
             "duration minus checkpoint time and reproduces the "
             "uninterrupted run's fingerprint bit-exactly",
    )
    serve.add_argument(
        "--bench", action="store_true",
        help="time the vectorized service loop on a preloaded fleet "
             "instead of serving open-loop arrivals",
    )
    serve.add_argument("--bench-calls", type=int, default=50_000)
    serve.add_argument("--bench-epochs", type=int, default=48)
    serve.add_argument("--bench-warmup", type=int, default=48)
    serve.add_argument(
        "--out", default="BENCH_server.json",
        help="bench records path with --bench (default: BENCH_server.json)",
    )
    serve.add_argument(
        "--perf-baseline", default=None,
        help="with --bench: gate call-epochs/s against this committed "
             "bench artifact's history; a regression fails the command",
    )
    serve.add_argument(
        "--perf-threshold", type=float, default=0.2,
        help="relative throughput drop that fails the perf gate "
             "(default 0.2)",
    )
    serve.set_defaults(handler=cmd_serve)

    scenario = commands.add_parser(
        "scenario",
        help="the declarative scenario suite: competing RCBR flows over "
             "multi-bottleneck topologies with hostile cross-traffic",
    )
    scenario_commands = scenario.add_subparsers(
        dest="scenario_cmd", required=True
    )

    sc_list = scenario_commands.add_parser(
        "list", help="list the registered scenarios"
    )
    sc_list.set_defaults(handler=cmd_scenario)

    sc_describe = scenario_commands.add_parser(
        "describe",
        help="print one scenario's full spec; one of: "
             + ", ".join(SCENARIO_NAMES),
    )
    sc_describe.add_argument(
        "name", metavar="NAME", choices=SCENARIO_NAMES,
        help="scenario name (one of: " + ", ".join(SCENARIO_NAMES) + ")",
    )
    sc_describe.set_defaults(handler=cmd_scenario)

    sc_run = scenario_commands.add_parser(
        "run",
        help="run one scenario; one of: " + ", ".join(SCENARIO_NAMES),
    )
    sc_run.add_argument(
        "name", metavar="NAME", choices=SCENARIO_NAMES,
        help="scenario name (one of: " + ", ".join(SCENARIO_NAMES) + ")",
    )
    sc_run.add_argument(
        "--seed", type=int, default=None,
        help="override the spec's determinism seed (same seed => "
             "byte-identical fingerprint)",
    )
    sc_run.add_argument(
        "--duration", type=float, default=None,
        help="override the spec's simulated duration in seconds",
    )
    sc_run.add_argument(
        "--snapshot-every", type=float, default=None,
        help="override the spec's snapshot period in simulated seconds",
    )
    sc_run.add_argument(
        "--route-k", type=int, default=None,
        help="candidate routes per call (k-shortest, most-headroom wins)",
    )
    sc_run.add_argument(
        "--shards", type=int, default=0,
        help="worker processes for the fleet's kernel step (any "
             "scenario shape; multi-bottleneck specs shard each flow "
             "group's fleet; 0 = inline, fingerprint-identical)",
    )
    sc_run.add_argument(
        "--fault-plan", default=None,
        help="fault-plan spec: a JSON file path, or an inline JSON "
             'object like \'{"denial": {"rate": 0.2}}\'',
    )
    sc_run.add_argument("--fault-seed", type=int, default=0)
    sc_run.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="EPOCHS",
        help="write a deferred checkpoint every N epochs (0 = only on "
             "SIGINT/SIGTERM)",
    )
    sc_run.add_argument(
        "--checkpoint-path", default="scenario.ckpt",
        help="where checkpoints are written (periodic and on-signal)",
    )
    sc_run.add_argument(
        "--resume-from", default=None, metavar="CHECKPOINT",
        help="resume from a checkpoint of the same scenario and seed; "
             "--duration stays the absolute end time of the whole run",
    )
    sc_run.add_argument(
        "--report", default=None,
        help="write the full scenario report JSON here",
    )
    sc_run.set_defaults(handler=cmd_scenario)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
