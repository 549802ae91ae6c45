"""The link-level overload control plane: hysteresis, policies, and the
block/downgrade/sacrifice comparison under saturation.

The comparison regime mirrors ``repro sweep overload``: an always-admit
gateway (so the plane is the only overload control) offered 1.3-1.5x
the capacity of a link sized at 20 mean rates.
"""

import os
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.overload import (
    OVERLOAD_POLICY_NAMES,
    BlockOnlyPolicy,
    DowngradePolicy,
    OverloadControlPlane,
    SacrificePolicy,
    make_overload_policy,
)
from repro.perf.sweeps import overload_cell
from repro.queueing.fluid import simulate_downgrade_fluid
from repro.server import RcbrGateway, ServerConfig, serve
from repro.traffic.starwars import generate_starwars_trace


@pytest.fixture(scope="module")
def workload():
    return generate_starwars_trace(num_frames=400, seed=1995).as_workload()


def saturated_config(workload, **overrides):
    """The sweep's comparison regime at test duration."""
    defaults = dict(
        capacity=20 * workload.mean_rate,
        load=1.5,
        controller="always",
        seed=13,
        initial_calls=25,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def fake_gateway(capacity=100.0):
    """A pressure source the plane can poll without a full gateway: a
    link whose fields the tests set, read through the gateway
    protocol's ``overload_pressure`` exactly as ``RcbrGateway`` does."""
    link = SimpleNamespace(allocated=0.0, total_demand=0.0, capacity=capacity)
    gateway = SimpleNamespace(link=link, fleet=None)
    gateway.overload_pressure = partial(RcbrGateway.overload_pressure, gateway)
    return gateway


def make_plane(gateway, policy=None, enter=0.9, exit_=0.7, dwell=3):
    return OverloadControlPlane(
        gateway,
        policy or BlockOnlyPolicy(),
        enter=enter,
        exit_=exit_,
        dwell=dwell,
        num_classes=2,
        rng=np.random.default_rng(0),
    )


class TestHysteresis:
    def test_stays_normal_below_enter(self):
        gateway = fake_gateway()
        plane = make_plane(gateway)
        gateway.link.allocated = 80.0  # pressure 0.8 < 0.9
        for tick in range(20):
            plane.on_epoch(tick, float(tick))
        assert not plane.overloaded
        assert plane.entries == 0

    def test_enters_only_after_dwell_epochs(self):
        gateway = fake_gateway()
        plane = make_plane(gateway, dwell=3)
        gateway.link.allocated = 95.0
        plane.on_epoch(0, 0.0)
        plane.on_epoch(1, 1.0)
        assert not plane.overloaded
        plane.on_epoch(2, 2.0)
        assert plane.overloaded
        assert plane.entries == 1

    def test_dip_below_enter_resets_the_count(self):
        gateway = fake_gateway()
        plane = make_plane(gateway, dwell=3)
        gateway.link.allocated = 95.0
        plane.on_epoch(0, 0.0)
        plane.on_epoch(1, 1.0)
        gateway.link.allocated = 50.0  # one calm epoch
        plane.on_epoch(2, 2.0)
        gateway.link.allocated = 95.0
        plane.on_epoch(3, 3.0)
        plane.on_epoch(4, 4.0)
        assert not plane.overloaded

    def test_exits_only_after_dwell_below_exit(self):
        gateway = fake_gateway()
        plane = make_plane(gateway, dwell=2)
        gateway.link.allocated = 95.0
        plane.on_epoch(0, 0.0)
        plane.on_epoch(1, 1.0)
        assert plane.overloaded
        # Pressure in the dead band (between exit and enter) holds state.
        gateway.link.allocated = 80.0
        for tick in range(2, 8):
            plane.on_epoch(tick, float(tick))
        assert plane.overloaded
        gateway.link.allocated = 60.0
        plane.on_epoch(8, 8.0)
        assert plane.overloaded
        plane.on_epoch(9, 9.0)
        assert not plane.overloaded
        assert plane.exits == 1

    def test_demand_counts_toward_pressure(self):
        """A saturated link pins allocated at capacity; unmet demand must
        still push pressure past 1."""
        gateway = fake_gateway()
        plane = make_plane(gateway)
        gateway.link.allocated = 100.0
        gateway.link.total_demand = 150.0
        plane.on_epoch(0, 0.0)
        assert plane.last_pressure == pytest.approx(1.5)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            make_plane(fake_gateway(), enter=0.8, exit_=0.9)
        with pytest.raises(ValueError):
            make_plane(fake_gateway(), dwell=0)


class TestPolicyConstruction:
    def test_factory_covers_all_names(self):
        for name in OVERLOAD_POLICY_NAMES:
            assert make_overload_policy(name).name == name

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_overload_policy("shrug")

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            DowngradePolicy(ladder=(1.0,))
        with pytest.raises(ValueError):
            DowngradePolicy(ladder=(0.9, 0.5))
        with pytest.raises(ValueError):
            DowngradePolicy(ladder=(1.0, 0.5, 0.7))
        with pytest.raises(ValueError):
            DowngradePolicy(dwell=0)

    def test_sacrifice_validation(self):
        with pytest.raises(ValueError):
            SacrificePolicy(queue_size=0)
        with pytest.raises(ValueError):
            SacrificePolicy(max_per_epoch=0)


class TestSacrificeVictimSelection:
    def _policy_with_fleet(self, active, call_class, rate, seed=0):
        policy = SacrificePolicy()
        fleet = SimpleNamespace(
            active=np.asarray(active, dtype=bool),
            call_class=np.asarray(call_class),
            rate=np.asarray(rate, dtype=float),
        )
        policy.bind(
            SimpleNamespace(fleet=fleet), 3,
            np.random.default_rng(seed), 0.95, 0.85,
        )
        return policy

    def test_lowest_priority_class_goes_first(self):
        policy = self._policy_with_fleet(
            [True, True, True], [0, 2, 1], [9.0, 1.0, 5.0]
        )
        assert policy._select_victim() == 1

    def test_largest_rate_within_class_goes_first(self):
        policy = self._policy_with_fleet(
            [True, True, True], [2, 2, 2], [1.0, 7.0, 3.0]
        )
        assert policy._select_victim() == 1

    def test_ties_break_deterministically_by_seed(self):
        picks = {
            seed: self._policy_with_fleet(
                [True] * 4, [1, 1, 1, 1], [2.0] * 4, seed=seed
            )._select_victim()
            for seed in (0, 0)
        }
        assert len(set(picks.values())) == 1

    def test_no_active_calls_yields_none(self):
        policy = self._policy_with_fleet([False, False], [0, 0], [1.0, 1.0])
        assert policy._select_victim() is None


class TestBlockIdentity:
    def test_block_instantiates_no_plane(self, workload):
        gateway = RcbrGateway(workload, saturated_config(workload))
        assert gateway.overload_plane is None

    def test_block_snapshots_omit_overload_section(self, workload):
        report = serve(
            workload, saturated_config(workload), duration=6.0,
            snapshot_every=2.0,
        )
        assert report.overload is None
        for snapshot in report.snapshots:
            assert snapshot.overload is None
            assert "overload" not in snapshot.canonical()

    def test_plane_policies_fingerprint_the_section(self, workload):
        report = serve(
            workload,
            saturated_config(workload, overload_policy="downgrade"),
            duration=6.0,
            snapshot_every=2.0,
        )
        assert report.overload is not None
        assert "overload=" in report.final.canonical()

    @pytest.mark.skipif(
        not os.environ.get("REPRO_FULL_BENCH"),
        reason="full 50k-call benchmark; set REPRO_FULL_BENCH=1 to run",
    )
    def test_block_reproduces_recorded_bench_fingerprint(self):
        import json
        from pathlib import Path

        from repro.server.bench import run_server_benchmark

        recorded = json.loads(
            Path(__file__).resolve().parent.parent.joinpath(
                "BENCH_server.json"
            ).read_text()
        )

        # Pin against the committed history legs *of this shape* (50k
        # calls, 48 epochs, any shard count — sharding must not change
        # the fingerprint).  The artifact's top-level context is
        # whatever shape was benchmarked most recently, so matching on
        # shape is what keeps this test meaningful as legs accumulate.
        pinned = {
            leg["fingerprint"]
            for leg in recorded["history"]
            if leg.get("num_calls") == 50_000
            and leg.get("epochs") == 48
            and leg.get("warmup_epochs") == 48
        }
        assert len(pinned) == 1, (
            f"committed 50k-call history legs disagree: {sorted(pinned)}"
        )

        result = run_server_benchmark(num_calls=50_000, epochs=48,
                                      warmup_epochs=48, seed=0)
        assert result["fingerprint"] == pinned.pop()


class TestGatewayActions:
    def test_shrink_class_reduces_rates_and_link_share(self, workload):
        gateway = RcbrGateway(
            workload,
            saturated_config(
                workload, load=0.0, capacity=40 * workload.mean_rate
            ),
        )
        gateway.preload()
        before = gateway.link.allocated
        target = int(gateway.fleet.call_class[0])
        slots = np.flatnonzero(
            gateway.fleet.active
            & (gateway.fleet.call_class == target)
        )
        old_rates = gateway.fleet.rate[slots].copy()
        shrunk = gateway.overload_shrink_class(target, 0.5, 0.0)
        assert shrunk > 0
        assert gateway.link.allocated < before
        assert np.all(gateway.fleet.rate[slots] <= old_rates)

    def test_evict_then_readmit_balances_counters(self, workload):
        gateway = RcbrGateway(
            workload,
            saturated_config(
                workload, load=0.0, capacity=40 * workload.mean_rate
            ),
        )
        gateway.preload()
        active_before = int(gateway.fleet.active.sum())
        slot = int(np.flatnonzero(gateway.fleet.active)[0])
        entry = gateway.overload_evict(slot, 1.0)
        assert int(gateway.fleet.active.sum()) == active_before - 1
        assert gateway.departed == 1
        assert gateway.abandoned == 1
        call_class, shift, remaining = entry
        assert remaining > 0.0
        gateway.overload_readmit(entry, 2.0)
        assert int(gateway.fleet.active.sum()) == active_before
        assert gateway.arrivals == gateway.blocked + gateway.admitted
        assert gateway.offered.consistent()

    def test_sacrifice_ledger_balances(self, workload):
        gateway = RcbrGateway(
            workload, saturated_config(workload, overload_policy="sacrifice")
        )
        report = gateway.run(15.0, snapshot_every=5.0)
        section = report.overload
        assert section["sacrificed"] == (
            section["readmitted"] + section["dropped"] + section["queued"]
        )
        final = report.final
        assert final.arrivals == final.blocked + final.admitted
        assert final.departed == final.completed + final.abandoned
        assert final.active_calls == final.admitted - final.departed

    def test_downgrade_sheds_bits_and_restores(self, workload):
        report = serve(
            workload,
            saturated_config(workload, overload_policy="downgrade"),
            duration=15.0,
            snapshot_every=5.0,
        )
        section = report.overload
        assert section["escalations"] > 0
        assert section["bits_downgraded"] > 0
        assert all(
            0 <= level <= 3 for level in section["levels"]
        )
        final = report.final
        assert final.arrivals == final.blocked + final.admitted
        assert final.active_calls == final.admitted - final.departed


class TestPolicyComparison:
    @pytest.fixture(scope="class")
    def cells(self):
        return {
            policy: overload_cell(policy, load=1.5, duration=30.0,
                                  snapshot_every=10.0)
            for policy in OVERLOAD_POLICY_NAMES
        }

    def test_downgrade_strictly_beats_block_on_bits_lost(self, cells):
        assert cells["downgrade"]["bits_lost"] < cells["block"]["bits_lost"]

    def test_sacrifice_strictly_beats_block_on_bits_lost(self, cells):
        assert cells["sacrifice"]["bits_lost"] < cells["block"]["bits_lost"]

    def test_blocking_no_worse_than_block_only(self, cells):
        for policy in ("downgrade", "sacrifice"):
            assert (
                cells[policy]["blocking_probability"]
                <= cells["block"]["blocking_probability"]
            )

    def test_paired_arrival_streams(self, cells):
        """All policies at one (load, seed) share identical offered
        traffic, so the comparison is paired, not distributional."""
        arrivals = {cells[p]["arrivals"] for p in ("block", "downgrade")}
        assert len(arrivals) == 1

    def test_fairness_stays_in_range(self, cells):
        for cell in cells.values():
            assert 0.0 < cell["class_fairness"] <= 1.0


class TestRerunDeterminism:
    @pytest.mark.parametrize("policy", OVERLOAD_POLICY_NAMES)
    def test_same_seed_same_fingerprint(self, policy):
        first = overload_cell(policy, load=1.5, duration=10.0)
        second = overload_cell(policy, load=1.5, duration=10.0)
        assert first["fingerprint"] == second["fingerprint"]
        assert first["bits_lost"] == second["bits_lost"]


class TestFluidValidation:
    """Acceptance: downgrade-ladder steady-state class occupancies from
    the gateway match the fluid-ODE within a documented tolerance.

    Regime (documented in EXPERIMENTS.md): always-admit at load 1.5 on
    a 20-mean-rate link, three uniform classes.  The fluid runs with
    ``demand_overshoot=3`` — the empirically calibrated factor by which
    the kernel's renegotiation demand (eq.-6 flush catch-up plus
    dual-threshold headroom) exceeds the carried rate under sustained
    denial — which pins both models at the ladder floor.  Tolerances:
    35% per class, 15% on the total (the gateway's occupancy is a
    stochastic M/G/inf process with ~10 calls per class, so per-class
    tails are Poisson-noisy; the total averages over classes and
    snapshots).
    """

    def test_steady_state_occupancies_match(self, workload):
        config = saturated_config(workload, overload_policy="downgrade")
        report = serve(workload, config, duration=120.0, snapshot_every=2.0)
        tail = report.snapshots[len(report.snapshots) // 2:]
        gateway_occupancy = np.mean(
            [snapshot.overload["class_active"] for snapshot in tail], axis=0
        )
        # Tail-averaged ladder levels: the plane occasionally restores a
        # rung during a stochastic lull, so the instantaneous final
        # levels are noisy; the tail mean is the steady-state statistic.
        gateway_levels = np.mean(
            [snapshot.overload["levels"] for snapshot in tail], axis=0
        )

        holding = workload.duration  # mean_holding default
        arrival_rate = (
            config.load * config.capacity / (workload.mean_rate * holding)
        )
        fluid = simulate_downgrade_fluid(
            arrival_rates=np.full(3, arrival_rate / 3.0),
            mean_holding=holding,
            call_bandwidth=workload.mean_rate,
            capacity=config.capacity,
            dwell=config.overload_dwell * workload.slot_duration,
            enter=config.overload_enter,
            exit_=config.overload_exit,
            admit_threshold=1e9,  # always-admit: the gate never binds
            demand_overshoot=3.0,
            dt=workload.slot_duration,
            duration=120.0,
            tail_fraction=0.5,
        )
        # Both models sit (on tail average) at the ladder floor.
        assert np.all(np.abs(gateway_levels - fluid.steady_levels) <= 0.75)
        assert np.allclose(
            gateway_occupancy, fluid.steady_occupancy, rtol=0.35
        )
        assert gateway_occupancy.sum() == pytest.approx(
            fluid.steady_occupancy.sum(), rel=0.15
        )
