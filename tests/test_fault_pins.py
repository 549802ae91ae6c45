"""Faulted serving runs pinned to recorded fingerprints.

The shard-parity tests compare two shard counts of the same code, so a
change that moves every faulted run the same way passes them; these
recorded values do not.  One fault plan with injected denials, cell
loss and duplication runs over the classic gateway (1 and 3 hops, with
and without abandonment, under each overload policy) and over every
roster scenario, plus variants that engage the per-link overload
planes and abandonment on multi-bottleneck routes.  Refactors of the
serving core must keep every pin byte-identical.
"""

import itertools

import pytest

from repro.faults.injectors import FaultPlan
from repro.scenarios import SCENARIO_NAMES, get_scenario, run_scenario
from repro.server import ServerConfig, build_gateway
from repro.traffic.starwars import generate_starwars_trace

PLAN = {
    "denial": {"rate": 0.2},
    "cell_loss": {"probability": 0.05},
    "duplication": {"probability": 0.05},
}


def fault_plan():
    return FaultPlan.from_spec(PLAN, seed=42)


@pytest.fixture(scope="module")
def workload():
    return generate_starwars_trace(num_frames=400, seed=1995).as_workload()


def classic_config(workload, num_hops, abandon_after, policy):
    """A hot link offered 1.5x its capacity, so every policy acts."""
    return ServerConfig(
        capacity=20 * workload.mean_rate,
        load=1.5,
        controller="always",
        seed=13,
        initial_calls=25,
        mean_holding=3.0,
        num_hops=num_hops,
        upstream_headroom=1.05,
        abandon_after=abandon_after,
        overload_policy=policy,
        overload_enter=0.9,
        overload_exit=0.7,
        overload_dwell=2,
    )


def run_classic(workload, num_hops, abandon_after, policy):
    config = classic_config(workload, num_hops, abandon_after, policy)
    with build_gateway(workload, config, faults=fault_plan()) as gateway:
        return gateway.run(6.0, snapshot_every=1.0)


#: Roster variants that drive the multi-bottleneck teardown, shrink
#: and evict paths under the plan: per-link planes that engage on the
#: hotspot link, and abandonment on the parking lot.
SCENARIO_VARIANTS = {
    "hotspot-collision+downgrade": (
        "hotspot-collision", dict(overload_policy="downgrade")
    ),
    "hotspot-collision+sacrifice": (
        "hotspot-collision", dict(overload_policy="sacrifice")
    ),
    "parking-lot+abandon2": ("parking-lot", dict(abandon_after=2)),
}


def run_faulted_scenario(key):
    name, overrides = SCENARIO_VARIANTS.get(key, (key, {}))
    spec = get_scenario(name).replace(
        duration=6.0, snapshot_every=1.0, **overrides
    )
    return run_scenario(spec, faults=fault_plan())


CLASSIC_CASES = list(
    itertools.product((1, 3), (None, 2), ("block", "downgrade", "sacrifice"))
)


def classic_key(num_hops, abandon_after, policy):
    return f"{num_hops}hop-abandon{abandon_after}-{policy}"


CLASSIC_PINNED = {
    "1hop-abandonNone-block": "13ea6d140925f23e545668fecd635542"
    "018ff17ea5a1b8e7150b847079218c8c",
    "1hop-abandonNone-downgrade": "80680467b1243196da28063d6ecfd95e"
    "369607d217e40b1b60b8caa8a97da371",
    "1hop-abandonNone-sacrifice": "7cd14c573a741f041ca89bd505217a92"
    "63cb88fcb1dcdd7c6d80f1b7330940a8",
    "1hop-abandon2-block": "77a6aaea8276ae48d1f20b463222a69a"
    "249dcf9c81359bee1cd5f6190c08fc78",
    "1hop-abandon2-downgrade": "b8416013bde457172cfae7f0a42b1279"
    "6e19fc25812fa8b10d1a19a301a8e13d",
    "1hop-abandon2-sacrifice": "49504cb19ae788ccb290fbf88defad4e"
    "2c3769595ea0fc62996043d465afdc1a",
    "3hop-abandonNone-block": "8b0654725c1c39a6d9874fe2f83c47d6"
    "03e6df8201b34033ed05a819b4a40076",
    "3hop-abandonNone-downgrade": "1b3f5687e530965179e3c83157e04975"
    "a065124afb94e4061bde74ee25a2802d",
    "3hop-abandonNone-sacrifice": "6094d8f5549e0aa89f670e5f8daa2536"
    "635d0718dbb1279fe5f64d1c5cef8bd9",
    "3hop-abandon2-block": "e3e96dcaabe42c4ece880fc0871e8b03"
    "f1b7d3061e2b4ace351e007c14043d6c",
    "3hop-abandon2-downgrade": "2990448e0ec9292ded49e7f223863dc0"
    "6cea6736108d8d32450a667782c20b24",
    "3hop-abandon2-sacrifice": "26466f9a4569f4bf7417e4bb6524b5b8"
    "413c670d5e918cfeb7e98b359a24b3ad",
}

SCENARIO_PINNED = {
    "parking-lot": "0a6380c5517754d7d53cf3f613780b32"
    "02124d455533114b162bb1b21665fc64",
    "hotspot-collision": "aa879651a82f34b16c935904ae2b37ca"
    "c1a0eb30f1201a8326a8291e115f758e",
    "dumbbell-lrd": "fd5f03c7fb998ef577fea802f13643a4"
    "e45e670f7294e7f52cf51e6658facfa7",
    "dumbbell-poisson": "9d3d679eb32589caa2d288124602f51a"
    "bcc59b7244b8c67a5c7dabf46e19a75c",
    "mmpp-storm": "4146627d32187debe4f6174f361419b2"
    "987856eb1642eee680d4f3ded5144348",
    "satellite": "b66f48c65000a1bab6a6bfe73166b75c"
    "ccbfa33e89ef9f2b5d72c4adf7acf663",
    "mixed-classes": "218a4f8628f9cf90832d3572183acad2"
    "e1f54c3ffb8b6f0e22cc87475e70c33b",
    "hotspot-collision+downgrade": "63402943882b0f63bc697c5074b293e9"
    "76d529ccd555bc85ffe342fe4b64e506",
    "hotspot-collision+sacrifice": "96cae84fecfd190b10a428493eca8247"
    "54287d5bbf9ce2c147b1fe12a54d5792",
    "parking-lot+abandon2": "2a3c5d69c689963f92a2f5b17a12fad6"
    "14dcccf4716eab86a24c1d60fd709280",
}


class TestClassicFaultPins:
    @pytest.mark.parametrize(
        "num_hops,abandon_after,policy",
        CLASSIC_CASES,
        ids=[classic_key(*case) for case in CLASSIC_CASES],
    )
    def test_fingerprint_is_pinned(
        self, workload, num_hops, abandon_after, policy
    ):
        report = run_classic(workload, num_hops, abandon_after, policy)
        assert report.final.injected_denials > 0
        assert report.fingerprint == CLASSIC_PINNED[
            classic_key(num_hops, abandon_after, policy)
        ]


class TestScenarioFaultPins:
    def test_roster_is_pinned(self):
        assert set(SCENARIO_PINNED) == set(SCENARIO_NAMES) | set(
            SCENARIO_VARIANTS
        )

    @pytest.mark.parametrize(
        "name", list(SCENARIO_NAMES) + sorted(SCENARIO_VARIANTS)
    )
    def test_fingerprint_is_pinned(self, name):
        result = run_faulted_scenario(name)
        assert result.report.final.injected_denials > 0
        assert result.fingerprint == SCENARIO_PINNED[name]
