"""The sharded fleet: fingerprint identity, recovery, and partitioning.

The contract under test (DESIGN.md §14): same seed => byte-identical
snapshot fingerprint for any shard count, including the inline
``shards=0`` fleet, under every configuration — hot links with steady
denials, buffer overflow, overload planes, fleet growth, fault plans,
worker crashes, and the degrade-to-inline path.  The frozen per-call
round trip (``tests/golden_gateway.py``) is the oracle of the batched
one.
"""

import os
import signal
from fractions import Fraction

import numpy as np
import pytest

from repro.faults.injectors import FaultPlan
from repro.perf.supervise import SupervisorPolicy
from repro.server import ServerConfig, build_gateway, shard_of_slot
from repro.server.sharded import _num_chunks
from repro.signaling.messages import CellKind, RmCell
from repro.signaling.switch import SwitchPort
from repro.traffic.starwars import generate_starwars_trace
from tests.golden_gateway import GoldenScalarGateway


@pytest.fixture(scope="module")
def workload():
    return generate_starwars_trace(num_frames=400, seed=1995).as_workload()


def config(workload, shards, **overrides):
    defaults = dict(
        capacity=40 * workload.mean_rate,
        load=0.8,
        controller="always",
        seed=11,
        initial_calls=8,
        shards=shards,
        shard_chunk=16,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def run_report(workload, shards, duration=5.0, faults=None, **overrides):
    return run_gateway(workload, shards, duration, faults, **overrides)[0]


def run_gateway(workload, shards, duration=5.0, faults=None, **overrides):
    """Serve one config; returns the report and the (closed) gateway."""
    cfg = config(workload, shards, **overrides)
    with build_gateway(workload, cfg, faults=faults) as gateway:
        return gateway.run(duration, snapshot_every=1.0), gateway


def case_overrides(workload, name):
    overrides = dict(IDENTITY_CASES[name])
    if overrides.get("capacity", "unset") is None:
        overrides["capacity"] = overrides["initial_calls"] * workload.mean_rate
    return overrides


def fault_plan():
    return FaultPlan.from_spec(
        {
            "denial": {"rate": 0.1},
            "cell_loss": {"probability": 0.05},
            "duplication": {"probability": 0.05},
        },
        seed=42,
    )


IDENTITY_CASES = {
    "baseline": {},
    # Capacity at the fleet's aggregate mean: the link runs hot and the
    # bottleneck port denies a steady stream of increases, exercising
    # the batched denial fixpoint every epoch.
    "hot-denials": dict(capacity=None, load=0.0, initial_calls=60),
    "abandonment": dict(
        capacity=None, load=0.0, initial_calls=60, abandon_after=2
    ),
    "tiny-buffer": dict(buffer_bits=2_000.0),
    "overload-downgrade": dict(
        capacity=None,
        load=0.0,
        initial_calls=60,
        overload_policy="downgrade",
        overload_enter=0.7,
        overload_exit=0.5,
        overload_dwell=2,
    ),
    "multihop": dict(
        capacity=None,
        load=0.0,
        initial_calls=60,
        num_hops=3,
        upstream_headroom=1.05,
    ),
    "growth": dict(load=3.0, initial_calls=2, mean_holding=2.0),
}


class TestFingerprintIdentity:
    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
    def test_plain_and_sharded_fingerprints_match(self, workload, name):
        overrides = case_overrides(workload, name)
        reports = [
            run_report(workload, shards, **overrides) for shards in (0, 1, 3)
        ]
        fingerprints = [report.fingerprint for report in reports]
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]
        assert (
            reports[0].final.canonical()
            == reports[1].final.canonical()
            == reports[2].final.canonical()
        )

    def test_hot_link_actually_denies(self, workload):
        report = run_report(
            workload,
            shards=2,
            capacity=60 * workload.mean_rate,
            load=0.0,
            initial_calls=60,
        )
        assert report.final.reneg_denied > 0

    def test_fault_plan_fingerprints_match(self, workload):
        def run(shards):
            return run_report(
                workload, shards, duration=4.0, faults=fault_plan()
            ).fingerprint

        assert run(0) == run(1) == run(3)

    def test_shards_one_matches_plain_counters(self, workload):
        plain = run_report(workload, 0)
        sharded = run_report(workload, 1)
        for field in (
            "active_calls", "arrivals", "admitted", "departed", "abandoned",
            "reneg_requests", "reneg_denied", "cells_sent", "reserved_rate",
            "bits_lost_link",
        ):
            assert getattr(plain.final, field) == getattr(
                sharded.final, field
            ), field


class TestScalarOracle:
    """An empty fault plan injects nothing but walks every
    renegotiation through the per-call issue loop of a faulted epoch —
    it must commit exactly what the batched path commits."""

    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
    def test_batched_path_matches_scalar_oracle(self, workload, name):
        overrides = case_overrides(workload, name)
        batched = run_report(workload, 0, **overrides)
        scalar = run_report(workload, 0, faults=FaultPlan({}), **overrides)
        assert scalar.final.injected_denials == 0
        assert batched.fingerprint == scalar.fingerprint


#: Faulted configs for the golden oracle: abandonment and sacrifice
#: evictions on a hot link, on one hop and with multi-hop rollback.
FAULTED_GOLDEN_CASES = {
    "abandonment": dict(
        capacity=None, load=0.0, initial_calls=60, abandon_after=2
    ),
    "sacrifice": dict(
        capacity=None,
        load=1.2,
        initial_calls=20,
        mean_holding=3.0,
        overload_policy="sacrifice",
        overload_enter=0.9,
        overload_exit=0.8,
        overload_dwell=2,
    ),
    "sacrifice-abandonment-multihop": dict(
        capacity=None,
        load=1.2,
        initial_calls=20,
        mean_holding=3.0,
        abandon_after=2,
        num_hops=3,
        upstream_headroom=1.05,
        overload_policy="sacrifice",
        overload_enter=0.9,
        overload_exit=0.8,
        overload_dwell=2,
    ),
    "downgrade": IDENTITY_CASES["overload-downgrade"],
}


def count_calls(monkeypatch, names):
    """Wrap ``GoldenScalarGateway`` methods ``names`` with call counters;
    returns the live counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(GoldenScalarGateway, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        counted.__name__ = name
        monkeypatch.setattr(GoldenScalarGateway, name, counted)
    return calls


def golden_pair(workload, overrides, faults):
    """The same config served by the gateway and by the frozen oracle;
    returns ``(report, counters)`` for each."""
    runs = []
    for cls in (None, GoldenScalarGateway):
        cfg = config(workload, 0, **overrides)
        plan = faults() if faults is not None else None
        if cls is None:
            gateway = build_gateway(workload, cfg, faults=plan)
        else:
            gateway = cls(workload, cfg, faults=plan)
        with gateway:
            report = gateway.run(5.0, snapshot_every=1.0)
            runs.append((report, gateway.state_dict()["counters"]))
    return runs


class TestGoldenOracle:
    """The batched epoch and the route-generic lifecycle reproduce the
    frozen per-call round trip: fingerprint and every counter."""

    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
    def test_matches_golden(self, workload, name):
        (report, counters), (golden, golden_counters) = golden_pair(
            workload, case_overrides(workload, name), None
        )
        assert report.fingerprint == golden.fingerprint
        assert counters == golden_counters

    @pytest.mark.parametrize("name", sorted(FAULTED_GOLDEN_CASES))
    def test_faulted_matches_golden(self, workload, name, monkeypatch):
        overrides = dict(FAULTED_GOLDEN_CASES[name])
        overrides["capacity"] = overrides["initial_calls"] * workload.mean_rate
        # The overload planes act through the per-call actions; count
        # the oracle's, so its shrink and evict are shown to be the
        # ones that ran, not the gateway's they are checked against.
        actions = ("_shrink_call", "_evict_call")
        assert set(actions) <= set(vars(GoldenScalarGateway))
        ran = count_calls(monkeypatch, actions)
        (report, counters), (golden, golden_counters) = golden_pair(
            workload, overrides, fault_plan
        )
        assert golden.final.injected_denials > 0
        assert report.fingerprint == golden.fingerprint
        assert counters == golden_counters
        if overrides.get("abandon_after") is not None:
            assert golden.final.abandoned > 0
        if overrides.get("overload_policy") == "sacrifice":
            assert golden.overload["readmitted"] > 0
            assert ran["_evict_call"] > 0
        if overrides.get("overload_policy") == "downgrade":
            assert ran["_shrink_call"] > 0

    def test_golden_lands_its_own_completions(self, workload, monkeypatch):
        # The oracle is live only while its per-call issue override is
        # the one the epoch step calls: its answers must land through
        # ``_golden_complete``, never through the batch it is checking.
        fired = count_calls(monkeypatch, ("_golden_complete", "_complete_batch"))
        golden_pair(workload, case_overrides(workload, "hot-denials"), None)
        assert fired["_golden_complete"] > 0
        assert fired["_complete_batch"] == 0

    def test_golden_fires_its_own_departures(self, workload, monkeypatch):
        # Every departure the oracle serves must fire through the heap
        # event it armed for that call, never through the calendar it is
        # checking, which stays empty.
        own = {"fired": 0, "foreign": 0}
        original = GoldenScalarGateway._handle_departure

        def counted(self, slot, call_id):
            own["fired" if call_id in self._departure_events else "foreign"] += 1
            return original(self, slot, call_id)

        monkeypatch.setattr(GoldenScalarGateway, "_handle_departure", counted)
        cfg = config(workload, 0, **case_overrides(workload, "growth"))
        with GoldenScalarGateway(workload, cfg) as golden:
            report = golden.run(5.0, snapshot_every=1.0)
            assert not golden._calendar and not golden._promoted
        assert own["fired"] == report.final.departed > 0
        assert own["foreign"] == 0


class TestLinkShortfalls:
    """Renegotiations run short at the link only after a partially
    granted setup: the link back-fills that call's missing setup rate
    as capacity frees, which the ports never see, so the bottleneck
    port admits increases the link can then only partially grant."""

    @pytest.mark.parametrize("name", sorted(IDENTITY_CASES) + ["faults"])
    def test_no_setup_shortfall_means_no_link_shortfall(self, workload, name):
        if name == "faults":
            _, gateway = run_gateway(workload, 0, 4.0, faults=fault_plan())
        else:
            _, gateway = run_gateway(
                workload, 0, **case_overrides(workload, name)
            )
        if gateway.setup_shortfalls == 0:
            assert gateway.link_shortfalls == 0

    def test_hot_link_without_over_admission(self, workload):
        # Every setup fits, yet increases are denied: the implication
        # above is exercised on a contended link, not just a quiet one.
        report, gateway = run_gateway(
            workload, 0, capacity=12 * workload.mean_rate, load=0.0,
            initial_calls=10,
        )
        assert gateway.setup_shortfalls == 0
        assert report.final.reneg_denied > 0
        assert gateway.link_shortfalls == 0

    def test_over_admission_shows_both(self, workload):
        _, gateway = run_gateway(
            workload, 0, capacity=40 * workload.mean_rate, load=0.0,
            initial_calls=60,
        )
        assert gateway.setup_shortfalls > 0
        assert gateway.link_shortfalls > 0


class TestRecovery:
    def test_worker_kill_mid_run_preserves_fingerprint(self, workload):
        cfg = config(workload, shards=2)
        baseline = run_report(workload, 2)

        with build_gateway(workload, cfg) as gateway:
            gateway.run(2.0, snapshot_every=1.0)
            pool = gateway.fleet._pool
            assert pool is not None
            os.kill(pool._workers[0].pid, signal.SIGKILL)
            report = gateway.run(3.0, snapshot_every=1.0)

        assert gateway.fleet.pool_rebuilds >= 1
        assert not gateway.fleet.degraded
        assert report.fingerprint == baseline.fingerprint

    def test_sustained_kills_degrade_to_inline(self, workload):
        cfg = config(workload, shards=2)
        baseline = run_report(workload, 2)

        supervisor = SupervisorPolicy(max_pool_rebuilds=0)
        with build_gateway(workload, cfg) as gateway:
            gateway.fleet.supervisor = supervisor
            gateway.run(2.0, snapshot_every=1.0)
            pool = gateway.fleet._pool
            os.kill(pool._workers[1].pid, signal.SIGKILL)
            report = gateway.run(3.0, snapshot_every=1.0)

        assert gateway.fleet.degraded
        assert gateway.fleet._pool is None
        assert report.fingerprint == baseline.fingerprint


class TestShardPartitioning:
    def test_assignment_is_pure_and_total(self):
        for chunk_size in (1, 16, 4096):
            for num_shards in (1, 2, 7):
                shards = [
                    shard_of_slot(slot, chunk_size, num_shards)
                    for slot in range(3 * chunk_size * num_shards)
                ]
                assert all(0 <= shard < num_shards for shard in shards)
                # Chunks are dealt round-robin: slot and its chunk agree.
                for slot, shard in enumerate(shards):
                    assert shard == (slot // chunk_size) % num_shards

    def test_call_never_migrates_under_growth(self, workload):
        """Growth appends chunks; existing slots keep their shard."""
        cfg = config(
            workload, shards=3, load=4.0, initial_calls=4, mean_holding=2.0
        )
        with build_gateway(workload, cfg) as gateway:
            fleet = gateway.fleet
            chunk = fleet.chunk_size
            before = {
                slot: shard_of_slot(slot, chunk, 3)
                for slot in np.flatnonzero(fleet.active)
            }
            capacity_before = fleet.capacity
            gateway.run(6.0)
            assert fleet.capacity >= capacity_before  # churn happened
            for slot, shard in before.items():
                assert shard_of_slot(slot, chunk, 3) == shard

    def test_per_shard_demand_sums_partition_link_demand(self, workload):
        """Shards partition the slots, so exact per-shard demand sums
        (rationals, no float rounding) add up to the link's total."""
        cfg = config(
            workload,
            shards=3,
            load=0.0,
            initial_calls=60,
            capacity=60 * workload.mean_rate,
        )
        with build_gateway(workload, cfg) as gateway:
            gateway.run(3.0)
            fleet = gateway.fleet
            demands = [
                gateway.link.demand_of(slot) for slot in range(fleet.capacity)
            ]
            num_shards = cfg.shards
            per_shard = [Fraction(0)] * num_shards
            for slot in range(fleet.capacity):
                shard = shard_of_slot(slot, fleet.chunk_size, num_shards)
                per_shard[shard] += Fraction(demands[slot])
            total = sum(per_shard, Fraction(0))
            assert total == sum(
                (Fraction(d) for d in demands), Fraction(0)
            )
            # And the float running total the link maintains agrees to
            # within accumulated rounding of the exact partition sum.
            assert float(total) == pytest.approx(
                gateway.link.total_demand, rel=1e-9
            )

    def test_chunk_count_covers_capacity(self):
        assert _num_chunks(100, 16) == 7
        assert _num_chunks(96, 16) == 6
        assert _num_chunks(1, 16) == 1


def _hot_epoch(rng, count, headroom=0.5):
    """One epoch of a hot link: stationary per-call rates, aggregate a
    hair under capacity — the regime the denial fixpoint exists for."""
    old = rng.uniform(0.5, 1.5, size=count)
    new = np.maximum(0.0, old + rng.normal(0.05, 0.2, size=count))
    utilization = float(old.sum())
    capacity = utilization + headroom
    return capacity, utilization, new - old


class TestDenialFixpoint:
    """switch.delta_batch_apply == the scalar per-cell loop, bit for bit."""

    def _scalar_reference(self, capacity, utilization, deltas):
        port = SwitchPort(capacity, track_per_vci=False)
        port.utilization = utilization
        granted = []
        for index, delta in enumerate(deltas):
            cell = RmCell(vci=index, kind=CellKind.DELTA, er=float(delta),
                          issued_at=0.0)
            granted.append(port.process(cell))
        return port, np.asarray(granted, dtype=bool)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_under_contention(self, seed):
        rng = np.random.default_rng(seed)
        capacity, utilization, deltas = _hot_epoch(rng, 400)
        port = SwitchPort(capacity, track_per_vci=False)
        port.utilization = utilization
        granted = port.delta_batch_apply(np.arange(400), deltas)
        reference, expected = self._scalar_reference(
            capacity, utilization, deltas
        )
        assert granted is not None
        assert bool(np.any(~expected))  # contention really denies
        assert np.array_equal(granted, expected)
        assert port.utilization == reference.utilization
        assert port.requests_denied == reference.requests_denied
        assert port.cells_processed == reference.cells_processed

    def test_matches_scalar_when_fixpoint_declines(self):
        """Deltas that walk the aggregate toward zero engage the
        ``max(0.0, ...)`` clamp; the fixpoint must refuse (commit
        nothing) rather than commit a fold the scalar loop would have
        clamped differently."""
        rng = np.random.default_rng(7)
        deltas = rng.normal(0.0, 2.0, size=300)  # drains 45 -> clamp
        port = SwitchPort(50.0, track_per_vci=False)
        port.utilization = 45.0
        before = port.utilization
        assert port.delta_batch_apply(np.arange(300), deltas) is None
        assert port.utilization == before
        assert port.cells_processed == 0

    def test_contended_batches_resolve_without_fallback(self):
        """The bracketing fixpoint must not oscillate on contended
        epochs — that is the regime it exists for."""
        rng = np.random.default_rng(123)
        for _ in range(20):
            capacity, utilization, deltas = _hot_epoch(rng, 1000)
            port = SwitchPort(capacity, track_per_vci=False)
            port.utilization = utilization
            granted = port.delta_batch_apply(np.arange(1000), deltas)
            assert granted is not None
            assert bool(np.any(~granted))  # contention really denied

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_apply_matches_process_loop(self, seed):
        """The per-VCI table too: provisioned VCIs, VCIs the batch
        creates, VCIs a decrease drops out of the table, and the
        background's reserved negative VCI beside them."""
        rng = np.random.default_rng(seed)
        capacity, utilization, deltas = _hot_epoch(rng, 300)
        vcis = rng.permutation(300)
        ports = [SwitchPort(capacity), SwitchPort(capacity)]
        for port in ports:
            for vci in vcis[::3].tolist():
                port.provision(vci, 0.5)
            port.reprovision(-1, 2.0)
            port.utilization = utilization
        deltas[0] = -ports[0].rate_of(int(vcis[0]))  # drops out of the table
        batch, loop = ports
        granted = batch.delta_batch_apply(vcis, deltas)
        expected = [
            loop.process(
                RmCell(vci=vci, kind=CellKind.DELTA, er=delta, issued_at=0.0)
            )
            for vci, delta in zip(vcis.tolist(), deltas.tolist())
        ]
        assert granted is not None
        assert bool(np.any(~granted))
        assert granted.tolist() == expected
        assert batch.utilization == loop.utilization
        assert batch.requests_denied == loop.requests_denied
        assert batch.cells_processed == loop.cells_processed
        assert batch.rate_of(int(vcis[0])) is None
        for vci in range(-1, 300):
            assert batch.rate_of(vci) == loop.rate_of(vci)

    def test_clean_batch_denies_nothing(self):
        port = SwitchPort(1000.0)
        deltas = np.asarray([5.0, -2.0, 3.0])
        granted = port.delta_batch_apply([1, 2, 3], deltas)
        assert granted is not None and bool(np.all(granted))
        assert port.utilization == 6.0
