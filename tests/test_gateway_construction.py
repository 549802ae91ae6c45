"""One construction step per topology shape.

Each gateway builds its topology exactly once: the classic gateway its
one fleet, link, port chain, signaling path and (unless the policy is
block) whole-gateway overload plane; the scenario gateway one fleet
per flow group, one link per link spec, one overload plane per link and
one signaling path per route, created when a call first binds it.
Nothing is built and then thrown away.
"""

import pytest

from repro.overload.plane import OverloadControlPlane
from repro.scenarios import ScenarioGateway, ScenarioHarness, get_scenario
from repro.server import ServerConfig, build_gateway
from repro.signaling.network import SignalingPath
from repro.traffic.starwars import generate_starwars_trace


def record_constructions(monkeypatch, cls):
    """Every instance of ``cls`` built while the patch is active."""
    built = []
    original = cls.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", init)
    return built


def downgrade_parking_lot():
    return get_scenario("parking-lot", duration=2.0, snapshot_every=1.0).replace(
        overload_policy="downgrade"
    )


class TestScenarioConstruction:
    def test_one_plane_per_link_and_no_path(self, monkeypatch):
        planes = record_constructions(monkeypatch, OverloadControlPlane)
        paths = record_constructions(monkeypatch, SignalingPath)
        spec = downgrade_parking_lot()
        with ScenarioGateway(spec) as gateway:
            assert len(planes) == len(spec.links)
            assert paths == []
            assert gateway.link_planes == planes
            assert gateway.paths == []
            assert gateway.overload_plane is None

    def test_paths_are_built_once_per_route(self, monkeypatch):
        paths = record_constructions(monkeypatch, SignalingPath)
        with ScenarioGateway(downgrade_parking_lot()) as gateway:
            gateway.run(2.0)
            routes = {binding.route for binding in gateway._bindings.values()}
            assert gateway.paths == paths
            assert len(paths) >= len(routes) > 1

    def test_restore_recreates_the_routes_in_creation_order(self, tmp_path):
        path = tmp_path / "lot.ckpt"
        spec = downgrade_parking_lot()
        with ScenarioHarness(spec) as first:
            first.run(duration=1.0)
            first.save(path)
            routes = list(first.gateway._route_paths)
        with ScenarioHarness(spec) as resumed:
            resumed.restore(path)
            assert list(resumed.gateway._route_paths) == routes
            assert resumed.gateway.paths == list(
                resumed.gateway._route_paths.values()
            )


@pytest.mark.parametrize("policy", ["block", "downgrade"])
def test_classic_builds_one_path_and_at_most_one_plane(monkeypatch, policy):
    planes = record_constructions(monkeypatch, OverloadControlPlane)
    paths = record_constructions(monkeypatch, SignalingPath)
    workload = generate_starwars_trace(num_frames=400, seed=1995).as_workload()
    config = ServerConfig(
        capacity=20 * workload.mean_rate,
        num_hops=3,
        overload_policy=policy,
    )
    with build_gateway(workload, config) as gateway:
        assert paths == [gateway.path] == gateway.paths
        assert gateway.links == [gateway.link]
        assert gateway.link_planes == [gateway.overload_plane]
        assert planes == ([] if policy == "block" else [gateway.overload_plane])
