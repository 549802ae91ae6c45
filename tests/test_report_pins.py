"""Report values no fingerprint covers, pinned to recorded values.

The snapshot fingerprint covers the snapshot stream only.  A run's
report also carries ``mean_utilization``, ``peak_active`` and
``call_epochs_stepped``, and a scenario result carries its per-group
and per-link views; those are folds over the gateway's fleets, links
and signaling paths that no fingerprint sees.  These pins hold the
exact ``repr`` of each (the group and link views by the sha256 of
their ``repr``) for every roster scenario, a multi-bottleneck run with
per-link overload planes, a sharded multi-bottleneck run, and a
classic 3-hop downgrade serve.
"""

import hashlib

import pytest

from repro.scenarios import SCENARIO_NAMES, get_scenario, run_scenario
from repro.server import ServerConfig, build_gateway
from repro.traffic.starwars import generate_starwars_trace

SMOKE = dict(duration=2.0, snapshot_every=1.0)


def digest(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def run_case(name):
    """``(report, groups, links)`` of one pinned run (no views for the
    classic serve)."""
    if name == "classic-3hop-downgrade":
        workload = generate_starwars_trace(
            num_frames=400, seed=1995
        ).as_workload()
        config = ServerConfig(
            capacity=20 * workload.mean_rate,
            load=1.5,
            controller="always",
            seed=13,
            initial_calls=25,
            mean_holding=3.0,
            num_hops=3,
            upstream_headroom=1.05,
            overload_policy="downgrade",
            overload_enter=0.9,
            overload_exit=0.7,
            overload_dwell=2,
        )
        with build_gateway(workload, config) as gateway:
            return gateway.run(6.0, snapshot_every=1.0), None, None
    if name == "parking-lot+downgrade":
        result = run_scenario(
            get_scenario("parking-lot", **SMOKE).replace(
                overload_policy="downgrade"
            )
        )
    elif name == "parking-lot+shards2":
        result = run_scenario("parking-lot", shards=2, **SMOKE)
    else:
        result = run_scenario(name, **SMOKE)
    return result.report, result.groups, result.links


PINNED = {
    "parking-lot": (
        "0.7900568122085214", "21", "852",
        "bf85999a89ec8d9fbbc3e6343880f380dae596c6e57a888300e2d1acedfef88e",
        "60c5b858516e27aebf11a1cfd68339f1b3050e7dc615d60d934d0f8fe9289939",
    ),
    "hotspot-collision": (
        "0.3310498917025672", "19", "800",
        "a242f3a74f1a5feeb0f16ce46847b6f3dd4cbed905a2fbe563c711255dd0a1d1",
        "f974cf9e3adc1b83a5d98a4ff281ff17a03733b90ee3384643e0803db71eacce",
    ),
    "dumbbell-lrd": (
        "0.7596704026039796", "8", "343",
        "c5c90b426318da337f20d94be284fa8439dc39546fc75ab47cd6c9dbb3c13cba",
        "6a3c71b4c1e6d9484d61c4eafe3554c2334e028285f6fb99d41d6d669345b366",
    ),
    "dumbbell-poisson": (
        "0.732895352258764", "8", "333",
        "69e5ffacdcc19a8fd93ed0bf2ce21b2e0e9392379f774c1fca1961dd293b8506",
        "52a98ec161fdb430a795ad0fd7c90c51b0bec1f1641a2af333ea20a728b01937",
    ),
    "mmpp-storm": (
        "0.7330653253899875", "8", "359",
        "c2a9e4be75b0f8f8d60a2046f4748faad81a9a699a23d6ef8da8c9e8529f7cd8",
        "f6ab4102618dbb600b69c4d76fec640d697616e435ca3e976902281b4f3750ad",
    ),
    "satellite": (
        "0.7211446168394889", "8", "382",
        "e665521b75c34008450178f57e90039ae83a906d23534b876ff45bd048b23133",
        "de662d2aae06c8554aba37a93e1551a774c228b1b77857bda716e55f86ea7784",
    ),
    "mixed-classes": (
        "0.7140401204373655", "16", "549",
        "c9bf2de9b2936842130bb339729d737683fc8c31aff388559529fb157de80205",
        "2ce70e8729c61ea1b27688603f52773b3981519985d47f46d65c0f56b51da397",
    ),
    "parking-lot+downgrade": (
        "0.7900568122085214", "21", "852",
        "bf85999a89ec8d9fbbc3e6343880f380dae596c6e57a888300e2d1acedfef88e",
        "90db5fda39cf1e88cc04fa1237083f4e398df59441bfbc16ba5a1cac09a38760",
    ),
    "parking-lot+shards2": (
        "0.7900568122085214", "21", "852",
        "bf85999a89ec8d9fbbc3e6343880f380dae596c6e57a888300e2d1acedfef88e",
        "60c5b858516e27aebf11a1cfd68339f1b3050e7dc615d60d934d0f8fe9289939",
    ),
    "classic-3hop-downgrade": ("0.9993610900440382", "36", "4405"),
}


def test_every_roster_scenario_is_pinned():
    assert set(SCENARIO_NAMES) <= set(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_values_are_pinned(name):
    report, groups, links = run_case(name)
    observed = (
        repr(report.mean_utilization),
        repr(report.peak_active),
        repr(report.call_epochs_stepped),
    )
    if groups is not None:
        observed += (digest(groups), digest(links))
    assert observed == PINNED[name], (groups, links)
