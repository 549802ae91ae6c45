"""One construction call for both topology inputs.

A gateway builds its topology exactly once, when it is constructed: a
config its one fleet, link, port chain, signaling path and one route
over them; a route graph one fleet per flow group, one link per link
spec and, per flow group in flow order, a route record (with its
signaling path) for each of its ``route_k`` shortest routes.  Either
way every link gets one overload plane (unless the policy is block),
each holding the gateway itself and its own link.  Nothing is built and
then thrown away, and a restore builds nothing.
"""

import pytest

from repro.overload.plane import OverloadControlPlane
from repro.scenarios import ScenarioHarness, get_scenario
from repro.server import RcbrGateway, ServerConfig, build_gateway
from repro.signaling.network import SignalingPath
from repro.signaling.topology import SignalingNetwork
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


def bound_routes(gateway):
    """The route record of every live call, in (group, slot) order,
    read from the gateway's per-group binding columns."""
    return [
        gateway.routes[index]
        for routes, fleet in zip(gateway._route_of, gateway._fleets)
        for index in routes[fleet.active].tolist()
    ]


def downgrade_ring():
    """The 7-node ring with two candidate routes per flow group."""
    return get_scenario(
        "hotspot-collision", duration=2.0, snapshot_every=1.0, route_k=2
    ).replace(overload_policy="downgrade")


def expected_candidates(spec):
    """Each flow's ``route_k`` shortest routes, in flow order, as node
    tuples: what the gateway must build."""
    import networkx as nx

    graph = nx.Graph()
    for link in spec.links:
        graph.add_edge(link.u, link.v, capacity=link.capacity)
    network = SignalingNetwork(graph)
    return [
        [
            tuple(nodes)
            for nodes in network.k_shortest_paths(
                flow.source,
                flow.target,
                flow.route_k if flow.route_k is not None else spec.route_k,
            )
        ]
        for flow in spec.flows
    ]


class TestGraphConstruction:
    def test_one_plane_per_link_each_on_its_link(self, monkeypatch):
        planes = record_constructions(monkeypatch, OverloadControlPlane)
        spec = downgrade_ring()
        with ScenarioHarness(spec) as harness:
            gateway = harness.gateway
            assert type(gateway) is RcbrGateway
            assert len(planes) == len(spec.links)
            assert gateway.link_planes == planes
            for index, plane in enumerate(planes):
                assert plane.gateway is gateway
                assert plane.index == index
                assert plane.link is gateway.links[index]
            assert gateway.overload_plane is None

    def test_routes_are_each_flows_candidates_in_flow_order(self, monkeypatch):
        paths = record_constructions(monkeypatch, SignalingPath)
        spec = downgrade_ring()
        expected = expected_candidates(spec)
        with ScenarioHarness(spec) as harness:
            gateway = harness.gateway
            candidates = [
                [route.nodes for route in group] for group in gateway._candidates
            ]
            assert candidates == expected
            assert all(len(group) == 2 for group in candidates)
            distinct = list(dict.fromkeys(n for group in expected for n in group))
            assert [route.nodes for route in gateway.routes] == distinct
            assert [route.index for route in gateway.routes] == list(
                range(len(gateway.routes))
            )
            assert gateway.paths == paths
            # Built once, at construction: serving builds nothing more.
            harness.run()
            assert gateway.paths == paths
            bound = {route.nodes for route in bound_routes(gateway)}
            assert len(bound) > 1

    def test_restore_builds_no_route(self, monkeypatch, tmp_path):
        path = tmp_path / "ring.ckpt"
        spec = downgrade_ring()
        with ScenarioHarness(spec) as first:
            first.run(duration=1.0)
            first.save(path)
            routes = [route.nodes for route in first.gateway.routes]
            bound = [route.nodes for route in bound_routes(first.gateway)]
        assert bound
        with ScenarioHarness(spec) as resumed:
            paths = record_constructions(monkeypatch, SignalingPath)
            resumed.restore(path)
            gateway = resumed.gateway
            assert paths == []
            assert [route.nodes for route in gateway.routes] == routes
            assert [route.nodes for route in bound_routes(gateway)] == bound


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
        (route,) = gateway.routes
        assert gateway._candidates == [[route]]
        assert route.path is gateway.path
        assert route.links == (gateway.link,)
        assert list(route.ports) == gateway.ports
        assert route.capacity == config.capacity
        assert gateway.links == [gateway.link]
        assert gateway.link_planes == [gateway.overload_plane]
        assert planes == ([] if policy == "block" else [gateway.overload_plane])
        for plane in planes:
            assert plane.gateway is gateway
            assert plane.link is gateway.links[0] is gateway.link
