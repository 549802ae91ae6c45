"""Call setup, written once for both gateways.

The admission decision, install, preload, readmission, the per-group
arrival process and background cross-traffic live in
:class:`repro.server.gateway.RcbrGateway`, over the same route seam as
the rest of the call lifecycle; the scenario gateway overrides only
route selection and binding.  These
tests pin what that fold must keep: the classic per-group ledger, the
fingerprint and kill-and-resume of background on more than one link,
and checkpoints taken with arrival events pending.
"""

import dataclasses

import pytest

from repro.scenarios import (
    BackgroundSpec,
    FlowGroupSpec,
    LinkSpec,
    ScenarioGateway,
    ScenarioHarness,
    ScenarioSpec,
    get_scenario,
    run_scenario,
)
from repro.server import RcbrGateway, ServerConfig
from repro.traffic.starwars import generate_starwars_trace
from tests.test_scenario_unified import resume_drill


@pytest.fixture(scope="module")
def workload():
    return generate_starwars_trace(num_frames=800, seed=1995).as_workload()


def config(workload, capacity_factor=20, **overrides):
    defaults = dict(
        capacity=capacity_factor * workload.mean_rate,
        load=1.5,
        controller="always",
        seed=13,
        initial_calls=25,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def totals(gateway):
    """The gateway's lifecycle totals under the GroupStats field names."""
    return {
        field.name: getattr(gateway, field.name)
        for field in dataclasses.fields(gateway.group_stats[0])
    }


def pending_arrival_groups(gateway):
    """The flow group of every arrival event waiting on the heap."""
    return sorted(
        event.args
        for event in gateway.engine._queue
        if not event.cancelled
        and event.callback.__name__ == "_handle_arrival"
    )


def chain_spec(**overrides):
    """A 2-link chain with background on both links and a Poisson
    arrival process per flow group."""
    base = dict(
        name="bg-chain",
        description="2-link chain with two background processes",
        links=(LinkSpec("a", "b", 4e6), LinkSpec("b", "c", 4e6)),
        flows=(
            FlowGroupSpec("ac", "a", "c", load=0.5, initial_calls=4),
            FlowGroupSpec("bc", "b", "c", load=0.5, initial_calls=4),
        ),
        background=(
            BackgroundSpec("a", "b", traffic="mmpp", mean_fraction=0.3),
            BackgroundSpec("b", "c", traffic="mmpp", mean_fraction=0.6),
        ),
        duration=4.0,
        snapshot_every=2.0,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestClassicGroupLedger:
    """The classic gateway counts setup into flow group 0 too, so its
    one GroupStats entry equals the gateway's totals."""

    CASES = {
        "mbac-blocking": dict(controller="memory"),
        "sacrifice-readmission": dict(overload_policy="sacrifice"),
        "abandonment": dict(
            abandon_after=2, capacity_factor=12, load=0.0, initial_calls=14
        ),
        "batch-preload": dict(initial_calls=40, load=0.5),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_group_zero_equals_totals(self, workload, name):
        cfg = config(workload, **self.CASES[name])
        with RcbrGateway(workload, cfg) as gateway:
            report = gateway.run(8.0, snapshot_every=2.0)
            assert dataclasses.asdict(gateway.group_stats[0]) == totals(
                gateway
            )
        final = report.final
        assert final.arrivals == final.blocked + final.admitted
        if name == "mbac-blocking":
            assert final.blocked > 0
        if name == "sacrifice-readmission":
            assert report.overload["readmitted"] > 0
        if name == "abandonment":
            assert final.abandoned > 0
        if name == "batch-preload":
            assert hasattr(gateway.controller, "admit_batch")

    @pytest.mark.parametrize("name", ["dumbbell-lrd", "mixed-classes"])
    def test_single_bottleneck_groups_read_the_ledger(self, name):
        result = run_scenario(name, duration=4.0, snapshot_every=2.0)
        final = result.report.final
        (group,) = result.groups.values()
        assert group == {
            "active": final.active_calls,
            "arrivals": final.arrivals,
            "blocked": final.blocked,
            "admitted": final.admitted,
            "departed": final.departed,
            "abandoned": final.abandoned,
            "reneg_requests": final.reneg_requests,
            "reneg_denied": final.reneg_denied,
        }


class TestOneSetupPath:
    def test_scenario_gateway_overrides_only_the_setup_seams(self):
        own = set(vars(ScenarioGateway))
        assert "_select_route" in own
        assert not own & {
            "_bind",
            "_route",
            "_unbind",
            "_step_epoch",
            "_poll_link_planes",
            "_issue_group_epoch",
            "_issue_epoch",
            "_complete_batch",
            "link_member_mask",
            "_offer",
            "preload",
            "_admit_batch",
            "_install_call",
            "_readmit",
            "_handle_arrival",
            "_schedule_arrival",
            "EVENT_CALLBACK_ALLOWLIST",
            "EVENT_ARG_CODECS",
        }

    def test_the_per_call_binding_record_is_gone(self):
        import repro.server.topology as topology

        assert not hasattr(topology, "CallBinding")


class TestMultiLinkBackground:
    # No roster scenario puts background on more than one link.
    PINNED = (
        "88c787cb379dfc66d7601471f2e1e7f0"
        "bcaa8b3a6b6e1210e2f5b5544719f769"
    )

    def test_fingerprint_is_pinned(self):
        result = run_scenario(chain_spec())
        assert result.fingerprint == self.PINNED
        for name in ("a~b", "b~c"):
            assert result.links[name]["background"] > 0.0

    @pytest.mark.parametrize("shards", [0, 2])
    def test_kill_and_resume(self, shards):
        ref, resumed = resume_drill(chain_spec(), shards=shards)
        assert ref == self.PINNED
        assert resumed == ref


class TestArrivalCheckpoints:
    """A checkpoint taken mid-run carries every group's pending
    ``_handle_arrival(group)`` event and resumes bit-exactly."""

    def test_classic_round_trip(self, workload, tmp_path):
        path = tmp_path / "classic.ckpt"
        cfg = config(workload, load=0.9)
        with RcbrGateway(workload, cfg) as reference:
            reference.run(2.0, snapshot_every=1.0)
            expected = reference.run(2.0, snapshot_every=1.0).fingerprint
        with RcbrGateway(workload, cfg) as first:
            first.run(2.0, snapshot_every=1.0)
            assert pending_arrival_groups(first) == [(0,)]
            first.save(path)
        with RcbrGateway(workload, cfg) as resumed:
            resumed.restore(path)
            restored = pending_arrival_groups(resumed)
            assert restored == [(0,)]
            assert type(restored[0][0]) is int
            report = resumed.run(2.0, snapshot_every=1.0)
        assert report.fingerprint == expected

    def test_scenario_round_trip(self, tmp_path):
        path = tmp_path / "scenario.ckpt"
        spec = chain_spec()
        with ScenarioHarness(spec) as reference:
            reference.run(duration=1.0)
            expected = reference.run(duration=3.0).fingerprint
        with ScenarioHarness(spec) as first:
            first.run(duration=1.0)
            assert pending_arrival_groups(first.gateway) == [(0,), (1,)]
            first.save(path)
        with ScenarioHarness(spec) as resumed:
            resumed.restore(path)
            assert pending_arrival_groups(resumed.gateway) == [(0,), (1,)]
            report = resumed.run(duration=3.0)
        assert report.fingerprint == expected

    def test_roster_background_resume(self):
        spec = get_scenario("dumbbell-poisson", duration=3.0,
                            snapshot_every=1.0)
        ref, resumed = resume_drill(spec)
        assert resumed == ref
