"""Declarative scenario suite: specs, registry, determinism, and
the hostile-neighborhood effects the roster exists to demonstrate."""

import json

import pytest

from repro.cli import main
from repro.faults.injectors import FaultPlan
from repro.scenarios import (
    SCENARIO_NAMES,
    BackgroundSpec,
    FlowGroupSpec,
    LinkSpec,
    ScenarioHarness,
    ScenarioSpec,
    get_scenario,
    run_scenario,
)

SMOKE = dict(duration=2.0, snapshot_every=1.0)


def spec_kwargs(**overrides):
    base = dict(
        name="unit",
        description="unit-test spec",
        links=(LinkSpec("a", "b", 4e6),),
        flows=(FlowGroupSpec("calls", "a", "b", initial_calls=2),),
    )
    base.update(overrides)
    return base


class TestSpecValidation:
    def test_minimal_spec_builds(self):
        spec = ScenarioSpec(**spec_kwargs())
        assert spec.nodes == ("a", "b")
        assert spec.single_bottleneck

    def test_link_endpoints_must_differ(self):
        with pytest.raises(ValueError, match="distinct"):
            LinkSpec("a", "a", 4e6)

    def test_link_capacity_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            LinkSpec("a", "b", 0.0)

    def test_duplicate_links_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioSpec(
                **spec_kwargs(
                    links=(
                        LinkSpec("a", "b", 4e6),
                        LinkSpec("b", "a", 4e6),
                    )
                )
            )

    def test_duplicate_flow_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioSpec(
                **spec_kwargs(
                    flows=(
                        FlowGroupSpec("calls", "a", "b"),
                        FlowGroupSpec("calls", "b", "a"),
                    )
                )
            )

    def test_flow_endpoints_must_exist(self):
        with pytest.raises(ValueError, match="unknown node"):
            ScenarioSpec(
                **spec_kwargs(flows=(FlowGroupSpec("calls", "a", "z"),))
            )

    def test_background_needs_an_existing_link(self):
        with pytest.raises(ValueError, match="unknown link"):
            ScenarioSpec(
                **spec_kwargs(background=(BackgroundSpec("a", "z"),))
            )

    def test_background_traffic_name_checked(self):
        with pytest.raises(ValueError, match="unknown background source"):
            ScenarioSpec(
                **spec_kwargs(
                    background=(BackgroundSpec("a", "b", traffic="fractal"),)
                )
            )

    def test_background_keeps_shard_compatibility(self):
        # The link carries time-varying background capacity under any
        # fleet executor, so sharding composes with every spec.
        spec = ScenarioSpec(
            **spec_kwargs(background=(BackgroundSpec("a", "b"),))
        )
        assert spec.single_bottleneck

    def test_multi_bottleneck_accepts_full_control_plane(self):
        multi = spec_kwargs(
            links=(LinkSpec("a", "b", 4e6), LinkSpec("b", "c", 4e6)),
            flows=(FlowGroupSpec("calls", "a", "c", initial_calls=2),),
        )
        ScenarioSpec(**multi)  # fine with the defaults
        # Previously-illegal combinations are now first-class: per-link
        # overload planes and MBAC admission on any topology.
        assert (
            ScenarioSpec(
                **dict(multi, overload_policy="downgrade")
            ).overload_policy
            == "downgrade"
        )
        assert (
            ScenarioSpec(**dict(multi, controller="memory")).controller
            == "memory"
        )

    def test_replace_revalidates(self):
        spec = ScenarioSpec(**spec_kwargs())
        assert spec.replace(seed=9).seed == 9
        with pytest.raises(ValueError):
            spec.replace(duration=-1.0)


class TestRegistry:
    def test_roster_has_the_promised_scenarios(self):
        assert len(SCENARIO_NAMES) >= 6
        for required in (
            "parking-lot",
            "dumbbell-lrd",
            "satellite",
            "hotspot-collision",
            "mmpp-storm",
            "mixed-classes",
        ):
            assert required in SCENARIO_NAMES

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_builders_return_valid_named_specs(self, name):
        spec = get_scenario(name)
        assert spec.name == name
        assert spec.description
        # Builders return fresh specs; overrides never leak back.
        assert get_scenario(name, seed=123).seed == 123
        assert get_scenario(name).seed == spec.seed

    def test_unknown_name_lists_the_roster(self):
        with pytest.raises(ValueError, match="parking-lot"):
            get_scenario("does-not-exist")


class TestDeterminism:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_same_seed_same_fingerprint(self, name):
        first = run_scenario(name, seed=3, **SMOKE)
        second = run_scenario(name, seed=3, **SMOKE)
        assert first.fingerprint == second.fingerprint
        assert first.groups == second.groups
        assert first.links == second.links

    # The roster's fingerprints at spec defaults: the safety net for
    # refactors of the serving core, which must keep them byte-identical.
    PINNED = {
        "parking-lot": "2936d82ce3531cd5ccb1da7d3b9f091c"
        "8679e331c182aef1161e8d48f19bf05f",
        "hotspot-collision": "e1e0ed354d50085edb349593d3c8c30b"
        "169a21cd9ba20443578f8b12a680a168",
        "dumbbell-lrd": "d10d0d3b641b04569771becc361fd41f"
        "b0d8da01199ba64d57ee57f761bb90ad",
        "dumbbell-poisson": "095569f0b150914a18cd6db219ac2b71"
        "c758a28ee1c405b929488fb00019c146",
        "mmpp-storm": "20de33f4da2533d8701673575cb7433d"
        "9097396ade0bf44f0dca3111f1885a58",
        "satellite": "e11f5c536e9082e19f5730d1cb85cd23"
        "6f53fa0766b5d06251447ba0359b493d",
        "mixed-classes": "ac71586a174baad0cfca0758e7d760c3"
        "91fe466af14dc8e117631975bbb60eff",
    }

    def test_roster_is_pinned(self):
        assert set(self.PINNED) == set(SCENARIO_NAMES)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_roster_fingerprint_is_pinned(self, name):
        assert run_scenario(name).fingerprint == self.PINNED[name]

    def test_different_seeds_diverge(self):
        assert (
            run_scenario("parking-lot", seed=1, **SMOKE).fingerprint
            != run_scenario("parking-lot", seed=2, **SMOKE).fingerprint
        )

    def test_shard_parity_where_compatible(self):
        # mixed-classes is the roster's shard-compatible scenario: one
        # link, no background, full overload plane.
        plain = run_scenario("mixed-classes", shards=0, **SMOKE)
        sharded = run_scenario("mixed-classes", shards=1, **SMOKE)
        assert plain.fingerprint == sharded.fingerprint

    def test_background_shard_parity(self):
        plain = run_scenario("dumbbell-lrd", shards=0, **SMOKE)
        sharded = run_scenario("dumbbell-lrd", shards=1, **SMOKE)
        assert plain.fingerprint == sharded.fingerprint

    def test_multi_bottleneck_shard_parity(self):
        plain = run_scenario("parking-lot", shards=0, **SMOKE)
        sharded = run_scenario("parking-lot", shards=2, **SMOKE)
        assert plain.fingerprint == sharded.fingerprint
        assert plain.groups == sharded.groups
        assert plain.links == sharded.links

    def test_faulted_run_is_deterministic(self):
        faults = FaultPlan.from_json(
            '{"denial": {"rate": 0.3, "mean_burst": 4.0}}', seed=5
        )
        first = run_scenario("parking-lot", faults=faults, **SMOKE)
        refreshed = FaultPlan.from_json(
            '{"denial": {"rate": 0.3, "mean_burst": 4.0}}', seed=5
        )
        second = run_scenario("parking-lot", faults=refreshed, **SMOKE)
        assert first.fingerprint == second.fingerprint

    def test_blocked_setup_drift_stays_with_its_call(self):
        # Setup cells delayed past their timeout commit on every hop yet
        # block the call.  The stale port reservation must stay with
        # that call's network slot and never pass to a later call that
        # reuses the slot; pinned to the call-id-keyed runtime's value.
        faults = FaultPlan.from_json(
            '{"cell_delay": {"probability": 0.5, "mean_delay": 5.0}}', seed=5
        )
        result = run_scenario(
            "parking-lot", faults=faults, duration=6.0, snapshot_every=1.0
        )
        assert result.fingerprint == (
            "673d05eda2fd9bf736b58e17926641ff"
            "5fa87e45675f540899c10c7dcd71f922"
        )

    def test_snapshots_carry_the_network_section(self):
        result = run_scenario("parking-lot", **SMOKE)
        section = result.report.final.network
        assert section is not None
        assert set(section["groups"]) == {
            flow.name for flow in result.spec.flows
        }
        assert len(section["links"]) == len(result.spec.links)
        # Single-link runs keep the classic snapshot shape (network
        # omitted), so their fingerprints match the classic runtime.
        single = run_scenario("mixed-classes", **SMOKE)
        assert single.report.final.network is None


class TestMultiBottleneckEffects:
    def test_renegotiation_failure_grows_with_hop_count(self):
        # The parking lot: same per-link load everywhere, so the only
        # difference between hop1 and hop3 is how many constrained
        # links a renegotiation must win simultaneously.
        result = run_scenario("parking-lot", duration=20.0)

        def denial(group):
            stats = result.groups[group]
            assert stats["reneg_requests"] > 0
            return stats["reneg_denied"] / stats["reneg_requests"]

        assert denial("hop3") > denial("hop1") + 0.05
        assert denial("hop2") > denial("hop1") + 0.05

    def test_alternate_routing_reduces_denials(self):
        # route_k=2 lets hotspot calls escape to the quiet west side
        # of the ring; the east group's denial fraction must drop.
        congested = run_scenario("hotspot-collision", duration=15.0)
        balanced = run_scenario(
            "hotspot-collision", duration=15.0, route_k=2
        )

        def east_denial(result):
            stats = result.groups["east"]
            assert stats["reneg_requests"] > 0
            return stats["reneg_denied"] / stats["reneg_requests"]

        assert east_denial(balanced) < east_denial(congested) - 0.1

    def test_multi_bottleneck_background_squeezes_a_link(self):
        # ScenarioGateway's own background path: a 2-link chain whose
        # second link loses 60% of its capacity to cross-traffic.
        def chain(background):
            return ScenarioSpec(
                name="chain",
                description="2-hop chain for the background unit test",
                links=(LinkSpec("a", "b", 4e6), LinkSpec("b", "c", 4e6)),
                flows=(
                    FlowGroupSpec("calls", "a", "c", initial_calls=6),
                ),
                background=background,
                duration=4.0,
                snapshot_every=2.0,
            )

        quiet = run_scenario(chain(()))
        squeezed = run_scenario(
            chain(
                (
                    BackgroundSpec(
                        "b", "c", traffic="mmpp", mean_fraction=0.6
                    ),
                )
            )
        )
        assert squeezed.fingerprint != quiet.fingerprint
        assert (
            squeezed.links["b~c"]["lost_bits"]
            > quiet.links["b~c"]["lost_bits"]
        )
        assert squeezed.links["b~c"]["background"] > 0.0


class TestBackgroundHostility:
    def test_bursty_background_differs_from_poisson_at_equal_mean(self):
        # dumbbell-lrd and dumbbell-poisson share the topology, flows,
        # seed, and background *mean*; only the burst structure
        # differs, so any gap in losses or denials is burstiness.
        lrd = run_scenario("dumbbell-lrd", duration=12.0)
        poisson = run_scenario("dumbbell-poisson", duration=12.0)
        mmpp = run_scenario("mmpp-storm", duration=12.0)
        assert lrd.fingerprint != poisson.fingerprint
        assert mmpp.fingerprint != poisson.fingerprint

        def losses(result):
            final = result.report.final
            return final.bits_lost_overflow + final.bits_lost_link

        assert losses(poisson) > 0
        for hostile in (lrd, mmpp):
            ratio = losses(hostile) / losses(poisson)
            assert abs(ratio - 1.0) > 0.1

    def test_satellite_rtt_slows_the_control_loop(self):
        # Identical storm, 135x the propagation delay: the feedback
        # loop reacts six epochs late, so losses grow.
        terrestrial = run_scenario("mmpp-storm", duration=12.0)
        satellite = run_scenario("satellite", duration=12.0)
        assert (
            satellite.report.final.bits_lost_link
            > terrestrial.report.final.bits_lost_link
        )


class TestSingleBottleneckLinkEntry:
    """A single-bottleneck result reports its link from the live link,
    the bottleneck port and the applied background, under the keys of
    the multi-bottleneck entry."""

    def test_link_entry_reads_live_state(self):
        spec = get_scenario("dumbbell-lrd", duration=30.0)
        faults = FaultPlan.from_json('{"denial": {"rate": 0.3}}', seed=1)
        harness = ScenarioHarness(spec, faults=faults)
        with harness:
            report = harness.run()
        entry = harness.result(report).links["a~b"]
        link = harness.gateway.link
        port = harness.gateway.ports[-1]
        assert set(entry) == set(
            run_scenario("parking-lot", **SMOKE).links["n0~n1"]
        )
        assert entry["capacity"] == link.capacity
        assert entry["allocated"] == link.allocated
        assert entry["lost_bits"] == link.lost_bits
        assert entry["failures"] == link.failure_count
        assert entry["port_denied"] == port.requests_denied
        # Link failures, port denials and renegotiation denials differ.
        assert entry["failures"] != report.final.reneg_denied
        assert entry["port_denied"] != report.final.reneg_denied
        # The background actually applied, not the configured mean.
        applied = spec.links[0].capacity - link.capacity
        assert entry["background"] == pytest.approx(applied)
        assert entry["background"] != pytest.approx(
            spec.background[0].mean_fraction * spec.links[0].capacity
        )

    def test_link_entry_carries_the_plane_section(self):
        result = run_scenario("mixed-classes", **SMOKE)
        (entry,) = result.links.values()
        assert entry["overload"]["policy"] == "downgrade"


class TestScenarioCli:
    def test_list_names_every_scenario(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIO_NAMES:
            assert name in out

    def test_describe(self, capsys):
        assert main(["scenario", "describe", "satellite"]) == 0
        out = capsys.readouterr().out
        assert "270" in out or "135" in out

    def test_run_writes_a_report(self, tmp_path, capsys):
        report_path = tmp_path / "scenario.json"
        assert (
            main(
                [
                    "scenario", "run", "mixed-classes",
                    "--duration", "2", "--seed", "4",
                    "--report", str(report_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        payload = json.loads(report_path.read_text())
        assert payload["scenario"]["name"] == "mixed-classes"
        assert payload["fingerprint"] in out

    def test_run_is_reproducible_through_the_cli(self, capsys):
        argv = [
            "scenario", "run", "parking-lot", "--duration", "2",
            "--seed", "6",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


class TestSweepIntegration:
    def test_scenario_cells_cover_the_roster(self):
        from repro.perf.sweeps import scenario_cells

        cells = scenario_cells()
        names = [cell.name for cell in cells]
        for scenario in SCENARIO_NAMES:
            assert f"scenarios/{scenario}" in names
        assert "scenarios/hotspot-collision/k2" in names

    def test_scenario_cell_runs_and_fingerprints(self):
        from repro.perf.sweeps import scenario_cell

        value = scenario_cell("mixed-classes", seed=2, duration=2.0)
        again = scenario_cell("mixed-classes", seed=2, duration=2.0)
        assert value == again
        assert value["fingerprint"]
        assert value["arrivals"] > 0
