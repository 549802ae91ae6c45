"""Serving benchmark for the RCBR gateway.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-50k --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload; ``--trace 1``
serves the workload twice, untraced and then with per-layer wrappers
installed, and prints the per-layer breakdown plus the tracing overhead.
Both modes check the run's outputs (conservation identities on every
final snapshot, and the fingerprint against a recorded or independently
computed reference) and exit non-zero, naming the failed check, on any
mismatch.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The workloads, what each stresses, and measured starting figures are
described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    # Measure the checkout's own gateway, never an installed copy.
    sys.exit(f"perfbench: no gateway source under {ROOT / 'src'}")
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

from checks import check_result, load_recorded, recorded_fingerprint  # noqa: E402
from tracing import Tracer, percentile  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Shape,
    base_workload,
    pool,
    reference_fingerprint,
    serve,
)

#: End-to-end metric units, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "realtime_factor": "s/s",
    "call_epochs_per_s": "1/s",
    "epoch_ms_p50": "ms",
    "call_admitted_frac": "fraction",
    "reneg_granted_frac": "fraction",
    "mean_utilization": "fraction",
    "peak_rss_mb": "MB",
}


def end_to_end_metrics(run: Dict[str, Any]) -> Dict[str, float]:
    final = run["final"]
    window = run["window_s"]
    requested = final["reneg_requests"]
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "realtime_factor": run["epochs"] * run["slot_s"] / window,
        "call_epochs_per_s": run["call_epochs"] / window,
        "epoch_ms_p50": percentile(run["epoch_ms"], 50),
        "call_admitted_frac": final["admitted"] / max(final["arrivals"], 1),
        "reneg_granted_frac": (
            1.0 - final["reneg_denied"] / requested if requested else 1.0
        ),
        "mean_utilization": run["mean_utilization"],
        "peak_rss_mb": run["footprint_mb"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, traced: Dict[str, Any], untraced: Dict[str, Any]
) -> Dict[str, tuple]:
    """The per-layer breakdown of one traced run, as name -> (value, unit).

    ``*_s`` are self times in the traced window (epoch spans); the
    ``setup.*`` family splits the traced preload the same way.
    """

    def busy(layer: str, phase: str = "serve") -> List[float]:
        return tracer.busy.get((phase, layer), [0.0, 0])

    def count(name: str, phase: str = "serve") -> float:
        return tracer.counts.get((phase, name), 0)

    admit_us = [s * 1e6 for s in tracer.samples.get(("serve", "admit"), [])]
    save_ms = [s * 1e3 for s in tracer.samples.get(("serve", "save"), [])]
    saves = len(save_ms)
    reneg_calls = busy("signaling.renegotiate")[1]
    batch_items = count("signaling.batch_items")
    link_calls = busy("link.request")[1]
    link_items = count("link.batch_items")
    step_calls = busy("fleet.step")[1]
    epochs = tracer.epochs
    gateway_self = sum(epoch["self_s"] for epoch in epochs)
    layers_self = sum(
        value[0] for (phase, _), value in tracer.busy.items() if phase == "serve"
    )
    detail = traced["setup_detail"]
    setup_layers = {
        "setup.admission_s": busy("admission.admit", "setup")[0]
        + busy("admission.update", "setup")[0],
        "setup.fleet_admit_s": busy("fleet.admit", "setup")[0],
        "setup.link_s": busy("link.request", "setup")[0],
        "setup.port_provision_s": busy("port.provision", "setup")[0],
    }
    metrics = {
        "admission.admit_s": (busy("admission.admit")[0], "s"),
        "admission.admit_calls": (busy("admission.admit")[1], "count"),
        "admission.admit_us_p50": (percentile(admit_us, 50), "us"),
        "admission.admit_us_p95": (percentile(admit_us, 95), "us"),
        "admission.accept_ratio": (
            _ratio(count("admission.accepted"), busy("admission.admit")[1]),
            "fraction",
        ),
        "admission.on_reservation_s": (busy("admission.on_reservation")[0], "s"),
        "admission.update_s": (busy("admission.update")[0], "s"),
        "signaling.renegotiate_s": (busy("signaling.renegotiate")[0], "s"),
        "signaling.renegotiate_calls": (reneg_calls, "count"),
        "signaling.batch_s": (busy("signaling.batch")[0], "s"),
        "signaling.batch_items": (batch_items, "count"),
        "signaling.grant_ratio": (
            _ratio(count("signaling.granted"), reneg_calls + batch_items),
            "fraction",
        ),
        "signaling.release_s": (busy("signaling.release")[0], "s"),
        "signaling.release_calls": (busy("signaling.release")[1], "count"),
        "link.request_s": (busy("link.request")[0], "s"),
        "link.request_calls": (link_calls, "count"),
        "link.batch_s": (busy("link.batch")[0], "s"),
        "link.batch_items": (link_items, "count"),
        "link.shortfall_ratio": (
            _ratio(count("link.shortfalls"), link_calls + link_items),
            "fraction",
        ),
        "link.release_s": (busy("link.release")[0], "s"),
        "port.provision_s": (busy("port.provision")[0], "s"),
        "port.provision_calls": (busy("port.provision")[1], "count"),
        "events.drain_s": (busy("events.drain")[0], "s"),
        "events.fired": (count("events.fired"), "count"),
        "events.pending_max": (traced["pending_max"], "count"),
        "fleet.step_s": (busy("fleet.step")[0], "s"),
        "fleet.call_epochs": (traced["call_epochs"], "count"),
        "fleet.requests": (count("fleet.requests"), "count"),
        "fleet.request_ratio": (
            _ratio(count("fleet.requests"), traced["call_epochs"]),
            "fraction",
        ),
        "fleet.step_calls": (step_calls, "count"),
        "fleet.admit_s": (busy("fleet.admit")[0], "s"),
        "fleet.admit_calls": (busy("fleet.admit")[1], "count"),
        "overload.poll_s": (busy("overload.poll")[0], "s"),
        "overload.poll_calls": (busy("overload.poll")[1], "count"),
        "checkpoint.save_s": (busy("checkpoint.save")[0], "s"),
        "checkpoint.saves": (saves, "count"),
        "checkpoint.save_ms_p50": (percentile(save_ms, 50), "ms"),
        "checkpoint.bytes": (_ratio(count("checkpoint.bytes"), saves), "B"),
        "checkpoint.sync_s": (busy("checkpoint.sync")[0], "s"),
        "gateway.self_s": (gateway_self, "s"),
        "trace.window_s": (traced["window_s"], "s"),
        "trace.epochs": (len(epochs), "count"),
        # Epoch spans tile the window except for the tracer's own
        # sampling between them, so this stays just under 1.
        "trace.accounted_frac": (
            _ratio(layers_self + gateway_self, traced["window_s"]),
            "fraction",
        ),
        "trace.overhead_frac": (
            traced["window_s"] / untraced["window_s"] - 1.0,
            "fraction",
        ),
        "setup.build_s": (detail["build_s"], "s"),
        "setup.preload_s": (detail["preload_s"], "s"),
        "setup.self_s": (detail["preload_self_s"], "s"),
    }
    metrics.update({name: (value, "s") for name, value in setup_layers.items()})
    return metrics


def run_benchmark(
    shape: Shape,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    recorded: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run one workload and build its result record (metrics + checks)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if recorded is None:
        recorded = load_recorded()
    epochs = shape.window_epochs(seconds)
    tracer = Tracer() if trace else None
    runs: Dict[str, Dict[str, Any]] = {}
    finals: Dict[str, Dict[str, Any]] = {}
    fingerprint_checks = []
    measured_runs, traced_runs = [], []
    for sub_seed in shape.sub_seeds(seed):
        label = "" if shape.sub_runs == 1 else f" of seed {sub_seed}"
        workload = base_workload(sub_seed)
        measured = serve(
            shape, sub_seed, workload, epochs, out_dir,
            setup_repeats=1 if trace else shape.setup_repeats,
        )
        measured_runs.append(measured)
        runs["measured" + label] = measured
        if tracer is not None:
            traced = serve(shape, sub_seed, workload, epochs, out_dir, tracer)
            traced_runs.append(traced)
            runs["traced" + label] = traced
            fingerprint_checks.append(
                {
                    "what": "the traced run" + label,
                    "got": traced["fingerprint"],
                    "want": measured["fingerprint"],
                    "source": "the untraced run of the same seed",
                }
            )
        want = recorded_fingerprint(
            recorded, shape.name, shape.behaviour_key(), sub_seed
        )
        source = f"recorded for seed {sub_seed}"
        if want is None:
            reference = reference_fingerprint(shape, sub_seed, workload)
            want = reference["fingerprint"]
            finals["reference" + label] = reference["final"]
            source = f"shards={shape.reference_shards} run of the same seed"
        fingerprint_checks.append(
            {
                "what": f"the measured run{label}, first "
                f"{shape.warmup_epochs} + 48 epochs",
                "got": measured["prefix_fingerprint"],
                "want": want,
                "source": source,
            }
        )
    finals.update({label: run["final"] for label, run in runs.items()})
    measured = pool(measured_runs)

    result: Dict[str, Any] = {
        "workload": shape.name,
        "seed": seed,
        "trace": trace,
        "warmup_epochs": shape.warmup_epochs,
        "runs": runs,
        "measured": measured,
        "finals": finals,
        "fingerprint_checks": fingerprint_checks,
        # Operations driven in the timed window.  Blocked calls and denied
        # renegotiations are outcomes, reported by the *_frac metrics; an
        # operation fails only if the gateway raises, which ends the run.
        "attempted": measured["arrivals"] + measured["reneg_requests"],
        "failed": 0,
    }
    if tracer is not None:
        result["metrics"] = layer_metrics(tracer, pool(traced_runs), measured)
        tracer.dump(
            out_dir / f"trace-{shape.name}-{seed}.json",
            {"workload": shape.name, "seed": seed,
             "metrics": {k: v[0] for k, v in result["metrics"].items()}},
        )
    else:
        values = end_to_end_metrics(measured)
        result["metrics"] = {
            name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()
        }
    return result


def summary_lines(result: Dict[str, Any]) -> List[str]:
    """Human-readable lines printed before the JSON result."""
    measured = result["measured"]
    final = measured["final"]
    sub_runs = len(result["runs"]) // (2 if result["trace"] else 1)
    lines = [
        f"workload {result['workload']} seed {result['seed']}: "
        f"{sub_runs} gateway(s), {measured['epochs']} timed epochs in all, "
        f"each after {result['warmup_epochs']} warm-up epochs; "
        f"timed wall {measured['window_s']:.3f} s",
        f"  epoch_ms percentiles over {len(measured['epoch_ms'])} epochs: "
        f"p50 {percentile(measured['epoch_ms'], 50):.2f}, "
        f"p95 {percentile(measured['epoch_ms'], 95):.2f}; "
        f"setup_s is the median of {len(measured['setup_s'])} set-ups "
        f"{[round(s, 3) for s in measured['setup_s']]}",
        f"  calls: {final['arrivals']} arrivals, {final['blocked']} blocked "
        f"(call_blocked_frac {final['blocked'] / max(final['arrivals'], 1):.5f}); "
        f"renegotiations: {final['reneg_requests']} requested, "
        f"{final['reneg_denied']} denied (reneg_denied_frac "
        f"{final['reneg_denied'] / max(final['reneg_requests'], 1):.5f}); "
        f"link shortfalls in the timed window: {measured['link_shortfalls']}",
    ]
    for check in result["fingerprint_checks"]:
        lines.append(
            f"  fingerprint of {check['what']}: {check['got'][:16]} "
            f"vs {check['source']}: {check['want'][:16]}"
        )
    if result["trace"]:
        metrics = result["metrics"]
        window = metrics["trace.window_s"][0]
        lines.append(f"  per-layer self time, share of the {window:.3f} s traced window:")
        for name, (value, unit) in metrics.items():
            if unit == "s" and not name.startswith(("setup.", "trace.")):
                lines.append(f"    {name:<28} {value:9.4f} s  {value / window:7.2%}")
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    return lines


def result_line(result: Dict[str, Any], failures: List[str]) -> str:
    """The final JSON line of the benchmark's output."""
    return json.dumps(
        {
            "correct": not failures,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in result["metrics"].items()
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out-dir", type=Path, default=ROOT / ".bench_out",
        help="where checkpoints and trace dumps go (default: .bench_out)",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        args.out_dir,
    )
    failures = check_result(result)
    for line in summary_lines(result):
        print(line)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(result_line(result, failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
