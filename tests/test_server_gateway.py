"""The RCBR gateway: determinism, accounting, and overload behaviour."""

import math

import pytest

from repro.server import RcbrGateway, ServerConfig, serve
from repro.server.bench import run_server_benchmark
from repro.traffic.starwars import generate_starwars_trace


@pytest.fixture(scope="module")
def workload():
    return generate_starwars_trace(num_frames=400, seed=1995).as_workload()


def config(workload, **overrides):
    defaults = dict(
        capacity=40 * workload.mean_rate,
        load=0.8,
        controller="always",
        seed=11,
        initial_calls=8,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestDeterminism:
    def test_same_seed_bit_identical(self, workload):
        def fingerprint():
            report = serve(
                workload,
                config(workload),
                duration=6.0,
                snapshot_every=1.0,
            )
            return report.fingerprint, report.final.canonical()

        assert fingerprint() == fingerprint()

    def test_different_seed_diverges(self, workload):
        reports = [
            serve(workload, config(workload, seed=seed), duration=6.0,
                  snapshot_every=1.0)
            for seed in (1, 2)
        ]
        assert reports[0].fingerprint != reports[1].fingerprint

    def test_resumed_run_matches_single_run(self, workload):
        single = serve(workload, config(workload), duration=8.0)

        gateway = RcbrGateway(workload, config(workload))
        gateway.run(4.0)
        resumed = gateway.run(4.0)

        one, two = single.final, resumed.final
        assert one.time == two.time
        for field in (
            "active_calls", "arrivals", "blocked", "admitted", "departed",
            "abandoned", "reneg_requests", "reneg_denied", "cells_sent",
            "buffer_bits", "reserved_rate", "bits_lost_link",
        ):
            assert getattr(one, field) == getattr(two, field), field


class TestAccounting:
    def test_counter_invariants(self, workload):
        report = serve(
            workload, config(workload, seed=3), duration=10.0,
            snapshot_every=2.0,
        )
        previous = None
        for snapshot in report.snapshots:
            assert snapshot.arrivals == snapshot.blocked + snapshot.admitted
            assert snapshot.departed == snapshot.completed + snapshot.abandoned
            assert (
                snapshot.active_calls
                == snapshot.admitted - snapshot.departed
            )
            assert snapshot.reneg_denied <= snapshot.reneg_requests
            assert snapshot.injected_denials <= snapshot.reneg_denied
            assert 0.0 <= snapshot.utilization <= 1.0 + 1e-9
            if previous is not None:
                assert snapshot.time > previous.time
                for field in ("arrivals", "admitted", "departed",
                              "reneg_requests", "cells_sent"):
                    assert getattr(snapshot, field) >= getattr(previous, field)
            previous = snapshot

    def test_snapshot_cadence(self, workload):
        report = serve(
            workload, config(workload), duration=5.0, snapshot_every=1.0
        )
        assert len(report.snapshots) == 5
        times = [snapshot.time for snapshot in report.snapshots]
        for expected, actual in zip([1.0, 2.0, 3.0, 4.0, 5.0], times):
            assert actual == pytest.approx(expected, abs=workload.slot_duration)
        assert report.epochs == int(
            math.ceil(5.0 / workload.slot_duration - 1e-9)
        )

    def test_unconstrained_link_never_denies(self, workload):
        report = serve(
            workload,
            config(workload, capacity=5_000 * workload.mean_rate, load=0.0,
                   initial_calls=12),
            duration=6.0,
        )
        final = report.final
        assert final.reneg_requests > 0
        assert final.reneg_denied == 0
        assert final.link_shortfalls == 0
        assert final.bits_lost_link == 0.0


class TestOverload:
    def test_always_admit_overload_produces_shortfalls(self, workload):
        report = serve(
            workload,
            config(workload, capacity=3 * workload.mean_rate, load=0.0,
                   initial_calls=30, seed=5),
            duration=6.0,
        )
        gateway_final = report.final
        assert gateway_final.reneg_denied > 0
        assert gateway_final.bits_lost_link > 0.0
        assert gateway_final.utilization <= 1.0 + 1e-9

    def test_cac_blocks_under_overload(self, workload):
        report = serve(
            workload,
            config(workload, capacity=5 * workload.mean_rate, load=3.0,
                   controller="perfect", initial_calls=0, seed=9,
                   mean_holding=4.0),
            duration=20.0,
        )
        final = report.final
        assert final.blocked > 0
        assert final.arrivals == final.blocked + final.admitted

    def test_memoryless_admits_empty_system(self, workload):
        report = serve(
            workload,
            config(workload, controller="memoryless", load=1.0,
                   initial_calls=0, seed=4, mean_holding=4.0),
            duration=8.0,
        )
        assert report.final.admitted > 0


class TestConfig:
    def test_validation(self, workload):
        with pytest.raises(ValueError):
            ServerConfig(capacity=0.0)
        with pytest.raises(ValueError):
            ServerConfig(capacity=1e6, controller="nope")
        with pytest.raises(ValueError):
            ServerConfig(capacity=1e6, load=-0.1)
        with pytest.raises(ValueError):
            ServerConfig(capacity=1e6, abandon_after=0)
        with pytest.raises(ValueError):
            ServerConfig(capacity=1e6, upstream_headroom=0.5)

    def test_run_validation(self, workload):
        gateway = RcbrGateway(workload, config(workload))
        with pytest.raises(ValueError):
            gateway.run(0.0)
        with pytest.raises(ValueError):
            gateway.run(1.0, snapshot_every=-1.0)

    def test_report_round_trips_to_dict(self, workload):
        report = serve(workload, config(workload), duration=2.0,
                       snapshot_every=1.0)
        payload = report.to_dict()
        assert payload["config"]["controller"] == "always"
        assert payload["fingerprint"] == report.fingerprint
        assert len(payload["snapshots"]) == len(report.snapshots)
        assert payload["final"]["active_calls"] == report.final.active_calls


class TestBenchmark:
    def test_small_benchmark_records(self, workload, tmp_path):
        out = tmp_path / "BENCH_server.json"
        result = run_server_benchmark(
            num_calls=200, epochs=4, warmup_epochs=2, seed=0,
            workload=workload, out=out,
        )
        assert result["num_calls"] == 200
        assert result["run_seconds"] > 0
        assert result["call_epochs_per_second"] > 0
        assert out.exists()
        text = out.read_text()
        assert "realtime_factor" in text
        assert "server/run" in text

    def test_benchmark_validation(self, workload):
        with pytest.raises(ValueError):
            run_server_benchmark(num_calls=0, workload=workload)
        with pytest.raises(ValueError):
            run_server_benchmark(num_calls=1, epochs=0, workload=workload)

    def test_history_appends_across_runs(self, workload, tmp_path):
        import json

        from repro.server.bench import load_bench_history

        out = tmp_path / "BENCH_server.json"
        for _ in range(2):
            run_server_benchmark(
                num_calls=200, epochs=4, warmup_epochs=2, seed=0,
                workload=workload, out=out,
            )
        history = load_bench_history(out)
        assert len(history) == 2
        for leg in history:
            assert leg["num_calls"] == 200
            assert leg["shards"] == 0
            assert leg["call_epochs_per_second"] > 0
            assert leg["startup_seconds"] >= 0
        # A pre-history artifact (single run in "context") still yields
        # a one-leg history, so old committed baselines keep gating.
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({
            "context": {"num_calls": 200, "shards": 0,
                        "call_epochs_per_second": 1000.0},
        }))
        assert len(load_bench_history(legacy)) == 1

    def test_perf_gate(self, workload, tmp_path):
        from repro.server.bench import check_perf_regression

        out = tmp_path / "BENCH_server.json"
        result = run_server_benchmark(
            num_calls=200, epochs=4, warmup_epochs=2, seed=0,
            workload=workload, out=out,
        )
        # Same run vs its own leg: ratio 1.0, passes.
        gate = check_perf_regression(result, out, threshold=0.2)
        assert gate["ok"] and gate["ratio"] == pytest.approx(1.0)
        # A >20% drop against the committed leg fails.
        slow = dict(result)
        slow["call_epochs_per_second"] = (
            result["call_epochs_per_second"] * 0.5
        )
        gate = check_perf_regression(slow, out, threshold=0.2)
        assert not gate["ok"]
        assert gate["ratio"] == pytest.approx(0.5)
        # No leg of the same (num_calls, shards) shape: vacuous pass.
        other = dict(result)
        other["num_calls"] = 999
        gate = check_perf_regression(other, out, threshold=0.2)
        assert gate["ok"] and gate["baseline"] is None
