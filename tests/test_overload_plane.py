"""The link-level overload control plane: hysteresis, policies, and the
block/downgrade/sacrifice comparison under saturation.

The comparison regime mirrors ``repro sweep overload``: an always-admit
gateway (so the plane is the only overload control) offered 1.3-1.5x
the capacity of a link sized at 20 mean rates.
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.overload import (
    OVERLOAD_POLICY_NAMES,
    DowngradePolicy,
    OverloadControlPlane,
    OverloadPolicy,
    SacrificePolicy,
    policy_for_config,
)
from repro.perf.sweeps import overload_cell
from repro.queueing.fluid import simulate_downgrade_fluid
from repro.server import RcbrGateway, ServerConfig, serve
from repro.traffic.starwars import generate_starwars_trace
from repro.util.slots import GROUP_STRIDE


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


def fake_gateway(capacity=100.0, fleets=()):
    """A gateway the plane can poll without building one: a single link
    whose fields the tests set, and flow-group fleets whose ``active``
    calls all cross it."""
    link = SimpleNamespace(allocated=0.0, total_demand=0.0, capacity=capacity)
    fleets = list(fleets)
    return SimpleNamespace(
        links=[link],
        link=link,
        _fleets=fleets,
        link_members=lambda index: [fleet.active for fleet in fleets],
    )


def make_plane(gateway, policy=None, enter=0.9, exit_=0.7, dwell=3, seed=0):
    return OverloadControlPlane(
        gateway,
        0,
        policy or OverloadPolicy(),
        enter=enter,
        exit_=exit_,
        dwell=dwell,
        rng=np.random.default_rng(seed),
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
    """:func:`policy_for_config` is the one factory."""

    def test_factory_covers_all_names(self, workload):
        for name in OVERLOAD_POLICY_NAMES:
            policy = policy_for_config(
                saturated_config(workload, overload_policy=name)
            )
            if name == "block":
                assert policy is None
            else:
                assert policy.name == name

    def test_factory_rejects_unknown(self, workload):
        with pytest.raises(ValueError):
            policy_for_config(saturated_config(workload, overload_policy="shrug"))

    def test_factory_carries_the_config(self, workload):
        downgrade = policy_for_config(
            saturated_config(
                workload,
                overload_policy="downgrade",
                downgrade_ladder=(1.0, 0.6, 0.3),
                overload_dwell=5,
                overload_classes=4,
            )
        )
        assert isinstance(downgrade, DowngradePolicy)
        assert downgrade.ladder == (1.0, 0.6, 0.3)
        assert downgrade.dwell == 5
        assert downgrade.levels == [0, 0, 0, 0]
        assert downgrade.state_dict()["factors"].tolist() == [1.0] * 4
        sacrifice = policy_for_config(
            saturated_config(
                workload,
                overload_policy="sacrifice",
                sacrifice_queue=7,
                sacrifice_max_per_epoch=3,
            )
        )
        assert isinstance(sacrifice, SacrificePolicy)
        assert sacrifice.queue_size == 7
        assert sacrifice.max_per_epoch == 3

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            DowngradePolicy(3, ladder=(1.0,))
        with pytest.raises(ValueError):
            DowngradePolicy(3, ladder=(0.9, 0.5))
        with pytest.raises(ValueError):
            DowngradePolicy(3, ladder=(1.0, 0.5, 0.7))
        with pytest.raises(ValueError):
            DowngradePolicy(3, dwell=0)
        with pytest.raises(ValueError):
            DowngradePolicy(0)

    def test_sacrifice_validation(self):
        with pytest.raises(ValueError):
            SacrificePolicy(queue_size=0)
        with pytest.raises(ValueError):
            SacrificePolicy(max_per_epoch=0)


def frozen_concatenated_victim(fleets, rng):
    """The victim search as it ran over one concatenated view of every
    flow group's fleet, frozen here as the reference: the pick as an
    event key."""
    active = np.flatnonzero(np.concatenate([f.active for f in fleets]))
    if active.size == 0:
        return None
    call_class = np.concatenate([f.call_class for f in fleets])
    rate = np.concatenate([f.rate for f in fleets])
    classes = call_class[active]
    candidates = active[classes == classes.max()]
    rates = rate[candidates]
    ties = candidates[rates == rates.max()]
    view = int(ties[0]) if ties.size == 1 else int(
        ties[int(rng.integers(ties.size))]
    )
    for group, fleet in enumerate(fleets):
        if view < fleet.active.size:
            return group * GROUP_STRIDE + view
        view -= fleet.active.size
    raise AssertionError("view slot beyond the pooled slots")


class TestSacrificeVictimSelection:
    @staticmethod
    def fleet(active, call_class, rate):
        return SimpleNamespace(
            active=np.asarray(active, dtype=bool),
            call_class=np.asarray(call_class),
            rate=np.asarray(rate, dtype=float),
        )

    def _plane_with_fleet(self, active, call_class, rate, seed=0):
        fleets = [self.fleet(active, call_class, rate)]
        return make_plane(
            fake_gateway(fleets=fleets), SacrificePolicy(), 0.95, 0.85,
            seed=seed,
        )

    def test_lowest_priority_class_goes_first(self):
        plane = self._plane_with_fleet(
            [True, True, True], [0, 2, 1], [9.0, 1.0, 5.0]
        )
        assert SacrificePolicy._select_victim(plane) == 1

    def test_largest_rate_within_class_goes_first(self):
        plane = self._plane_with_fleet(
            [True, True, True], [2, 2, 2], [1.0, 7.0, 3.0]
        )
        assert SacrificePolicy._select_victim(plane) == 1

    def test_ties_break_deterministically_by_seed(self):
        picks = {
            seed: SacrificePolicy._select_victim(
                self._plane_with_fleet(
                    [True] * 4, [1, 1, 1, 1], [2.0] * 4, seed=seed
                )
            )
            for seed in (0, 0)
        }
        assert len(set(picks.values())) == 1

    def test_no_active_calls_yields_none(self):
        plane = self._plane_with_fleet([False, False], [0, 0], [1.0, 1.0])
        assert SacrificePolicy._select_victim(plane) is None

    def test_two_group_ties_match_the_concatenated_view(self):
        """Ties spanning two flow groups draw over the same candidates,
        in the same order, as the search over one concatenated view."""
        fleets = [
            self.fleet([True, False, True, True], [2, 2, 2, 1],
                       [4.0, 9.0, 4.0, 8.0]),
            self.fleet([True, True, False], [2, 2, 2], [4.0, 3.0, 4.0]),
        ]
        picks = set()
        for seed in range(16):
            plane = make_plane(
                fake_gateway(fleets=fleets), SacrificePolicy(), 0.95, 0.85,
                seed=seed,
            )
            pick = SacrificePolicy._select_victim(plane)
            expected = frozen_concatenated_victim(
                fleets, np.random.default_rng(seed)
            )
            assert pick == expected
            picks.add(pick)
        assert picks == {0, 2, GROUP_STRIDE}


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
    """Shrink, evict and readmit, driven through a plane and its policy
    on a live gateway."""

    def test_shrink_class_reduces_rates_and_link_share(self, workload):
        gateway = RcbrGateway(
            workload,
            saturated_config(
                workload,
                load=0.0,
                capacity=40 * workload.mean_rate,
                overload_policy="downgrade",
                overload_enter=0.1,
                overload_exit=0.05,
                overload_dwell=1,
            ),
        )
        gateway.preload()
        plane = gateway.overload_plane
        policy = plane.policy
        before = gateway.link.allocated
        target = gateway.num_classes - 1  # escalation starts at the bottom
        slots = np.flatnonzero(
            gateway.fleet.active
            & (gateway.fleet.call_class == target)
        )
        others = np.flatnonzero(
            gateway.fleet.active
            & (gateway.fleet.call_class != target)
        )
        old_rates = gateway.fleet.rate[slots].copy()
        other_rates = gateway.fleet.rate[others].copy()
        factors = plane.on_epoch(0, 0.0)
        assert plane.overloaded
        assert policy.levels[target] == 1
        assert factors[target] == policy.ladder[1]
        assert policy.calls_shrunk > 0
        assert gateway.link.allocated < before
        assert np.all(gateway.fleet.rate[slots] <= old_rates)
        assert np.array_equal(gateway.fleet.rate[others], other_rates)

    def test_evict_then_readmit_balances_counters(self, workload):
        gateway = RcbrGateway(
            workload,
            saturated_config(
                workload,
                load=0.0,
                capacity=40 * workload.mean_rate,
                overload_policy="sacrifice",
                overload_enter=0.1,
                overload_exit=0.05,
                overload_dwell=1,
                sacrifice_max_per_epoch=1,
            ),
        )
        gateway.preload()
        plane = gateway.overload_plane
        active_before = int(gateway.fleet.active.sum())
        plane.on_epoch(0, 0.0)  # enters overload and evicts one call
        assert plane.overloaded
        assert int(gateway.fleet.active.sum()) == active_before - 1
        assert gateway.departed == 1
        assert gateway.abandoned == 1
        (entry,) = plane.policy.queue
        call_class, shift, remaining, group = entry
        assert remaining > 0.0
        assert group == 0
        plane.pressure = lambda: 0.0  # the link has drained
        plane.on_epoch(1, 0.1)  # leaves overload and readmits it
        assert not plane.overloaded
        assert not plane.policy.queue
        assert plane.policy.readmitted == 1
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


class TestSaturatedServePins:
    """The two unfaulted classic-link overload serves CI's overload
    smoke runs, pinned through the CLI (so the wiring from the overload
    flags to the config is pinned too): sacrifice evicts and then
    readmits, downgrade escalates and restores."""

    PINS = {
        "downgrade": (
            "918c74c25e4999bc87b729ffa37680ce44e9a79f7ed638518057751a7844e89d"
        ),
        "sacrifice": (
            "1335e15ec09a57729483d20c769fe898ac335c44f45eea33b430fc5e3eadda5e"
        ),
    }

    @pytest.mark.parametrize("policy", sorted(PINS))
    def test_fingerprint_is_pinned(self, policy, tmp_path, capsys):
        report = tmp_path / "serve.json"
        assert main([
            "serve", "--duration", "30", "--load", "1.5",
            "--controller", "always", "--capacity-multiple", "20",
            "--initial-calls", "25", "--overload-policy", policy,
            "--snapshot-every", "5", "--seed", "13",
            "--report", str(report),
        ]) == 0
        payload = json.loads(report.read_text())
        assert payload["fingerprint"] == self.PINS[policy]
        section = payload["overload"]
        if policy == "sacrifice":
            assert section["sacrificed"] > 0
            assert section["readmitted"] > 0
        else:
            assert section["escalations"] > 0
            assert section["restorations"] > 0


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
