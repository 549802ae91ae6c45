"""Call-setup draw order, pinned to recorded fingerprints.

Every offered call walks the same setup steps on both gateway shapes:
class draw, route choice, the admission decision, the workload shift,
fleet admission and binding, setup, the holding draw and install.
These runs cover the orderings the fingerprints of the roster do not
reach: route choice on a two-route topology (``route_k=2``), sacrifice
readmission on a chain (a requeued call selects and binds a fresh
route), and a classic serve whose memory-based controller blocks calls
(a slip between the admission decision and the call-stream draws moves
its fingerprint).  Each pin is the snapshot fingerprint plus the report
values no fingerprint covers.
"""

import hashlib

import pytest

from repro.scenarios import run_scenario
from repro.server import ServerConfig, build_gateway
from repro.traffic.starwars import generate_starwars_trace
from tests.test_scenario_unified import hot_spec

SMOKE = dict(duration=2.0, snapshot_every=1.0)


def digest(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def run_case(name):
    """``(report, groups, links)`` of one pinned run (no views for the
    classic serve)."""
    if name == "classic-memory":
        workload = generate_starwars_trace(
            num_frames=400, seed=1995
        ).as_workload()
        config = ServerConfig(
            capacity=12 * workload.mean_rate,
            load=1.5,
            controller="memory",
            seed=21,
            initial_calls=15,
            mean_holding=2.0,
            num_hops=2,
        )
        with build_gateway(workload, config) as gateway:
            return gateway.run(6.0, snapshot_every=1.0), None, None
    if name == "hotspot-collision-k2":
        result = run_scenario("hotspot-collision", route_k=2, **SMOKE)
    else:
        result = run_scenario(hot_spec("sacrifice"), duration=30.0)
    return result.report, result.groups, result.links


PINNED = {
    "hotspot-collision-k2": (
        "bdcd740ec43b9fcb7e55a7306601a268bb6175da01ad52bd6cabbb668b817f1c",
        "0.7539466870181828", "21", "840",
        "0a48dee92a7937004198cdac471f0fea98ed047803eefe3622a7b81e1a242a5b",
        "f1b20d72337ad0ce0d6de880e224317d930c2b03a4bb2945abb28e0df9bdad5a",
    ),
    "hot-chain-sacrifice": (
        "d67f45d5494d69e9649bef1f243de382b737a9e9e0a3cc866dae476b36ff6050",
        "0.5680795042612583", "18", "7526",
        "310af5e5bf63aa2cb1855949aa33e4c93e3edd4857daad4dfac56dc55bfe86c5",
        "ea4845d48ee45e4870bd22dcb4a0db32a1f5760125f540aa1e59199e6124ae6f",
    ),
    "classic-memory": (
        "9d0a8d4e962f6ba4b2004ee41bf95e2b05fd8b21a9fbb5a1504b9c5fcefff9c7",
        "0.5106731392253542", "15", "896",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_setup_is_pinned(name):
    report, groups, links = run_case(name)
    observed = (
        report.fingerprint,
        repr(report.mean_utilization),
        repr(report.peak_active),
        repr(report.call_epochs_stepped),
    )
    if groups is not None:
        observed += (digest(groups), digest(links))
    assert observed == PINNED[name], (groups, links)


def test_pinned_runs_reach_the_orderings_they_guard():
    report, _, _ = run_case("classic-memory")
    final = report.final
    assert 0 < final.blocked < final.arrivals
    _, _, links = run_case("hot-chain-sacrifice")
    assert links["a~b"]["overload"]["readmitted"] > 0
    _, groups, _ = run_case("hotspot-collision-k2")
    assert sum(group["admitted"] for group in groups.values()) > 0
