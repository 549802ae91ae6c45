"""The built-in scenario roster.

Each entry is a zero-argument builder returning a fresh
:class:`~repro.scenarios.spec.ScenarioSpec`; :func:`get_scenario`
resolves a name (with a dynamic error listing, mirroring
``make_source``) and applies overrides.  Capacities are expressed as
multiples of the nominal per-call mean rate so the rosters stay
meaningful if the calibration constant moves.

The roster covers the stress axes of ISSUE/ROADMAP item 3:

* ``parking-lot`` — multi-hop failure growth: an end-to-end group must
  win simultaneous grants at every hop of a 3-link chain whose links
  are each ~90% offered, against groups crossing only one or two hops.
* ``hotspot-collision`` — Section III-C's conjecture: the shortest
  route to the hotspot is congested by three colliding cross groups;
  ``route_k > 1`` lets calls balance onto the quiet side of the ring.
* ``dumbbell-lrd`` / ``dumbbell-poisson`` — long-range-dependent
  background vs a memoryless control at the *same mean load*, so any
  difference in denial rate or bits lost is burst structure alone.
* ``mmpp-storm`` — two-state bursty storms against terrestrial
  signaling latency; ``satellite`` — the identical storm with ~270 ms
  renegotiation RTT, isolating feedback delay.
* ``mixed-classes`` — sustained overload with three service classes
  under the downgrade ladder on the classic single-link stack (the
  shard-parity scenario).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Union

from repro.scenarios.spec import (
    BackgroundSpec,
    FlowGroupSpec,
    LinkSpec,
    ScenarioSpec,
)
from repro.traffic.starwars import STAR_WARS_MEAN_RATE

_MEAN = STAR_WARS_MEAN_RATE


def _parking_lot() -> ScenarioSpec:
    capacity = 10.0 * _MEAN
    chain = [("n0", "n1"), ("n1", "n2"), ("n2", "n3")]
    return ScenarioSpec(
        name="parking-lot",
        description=(
            "3-hop shared bottleneck chain: an end-to-end group competes "
            "with one- and two-hop groups on every link, measuring "
            "renegotiation-failure growth with hop count"
        ),
        links=tuple(LinkSpec(u, v, capacity) for u, v in chain),
        flows=(
            FlowGroupSpec("hop1", "n0", "n1", load=0.3, initial_calls=3),
            FlowGroupSpec("hop2", "n0", "n2", load=0.3, initial_calls=3),
            FlowGroupSpec("hop3", "n0", "n3", load=0.3, initial_calls=3),
            FlowGroupSpec("cross2", "n1", "n2", load=0.3, initial_calls=3),
            FlowGroupSpec("cross3", "n2", "n3", load=0.6, initial_calls=6),
        ),
        mean_holding=6.0,
    )


def _hotspot_collision() -> ScenarioSpec:
    capacity = 10.0 * _MEAN
    ring = [(f"n{i}", f"n{(i + 1) % 7}") for i in range(7)]
    return ScenarioSpec(
        name="hotspot-collision",
        description=(
            "7-node ring with a congested 3-hop east side: hotspot "
            "cross groups collide with the east-bound group at every "
            "hop; route_k=2 opens the quiet 4-hop west side "
            "(Section III-C's alternate-route conjecture)"
        ),
        links=tuple(LinkSpec(u, v, capacity) for u, v in ring),
        flows=(
            FlowGroupSpec("east", "n0", "n3", load=0.5, initial_calls=5),
            FlowGroupSpec("h01", "n0", "n1", load=0.5, initial_calls=4),
            FlowGroupSpec("h12", "n1", "n2", load=0.5, initial_calls=4),
            FlowGroupSpec("h23", "n2", "n3", load=0.5, initial_calls=4),
        ),
        route_k=1,
        mean_holding=6.0,
    )


def _dumbbell(traffic: str) -> ScenarioSpec:
    capacity = 12.0 * _MEAN
    return ScenarioSpec(
        name=f"dumbbell-{traffic}",
        description=(
            f"shared dumbbell bottleneck with {traffic} background at "
            "35% mean load: the renegotiation loop fights a "
            + (
                "long-range-dependent (Pareto on/off, H=0.75)"
                if traffic == "lrd"
                else "memoryless (equal-mean control)"
            )
            + " capacity thief"
        ),
        links=(LinkSpec("a", "b", capacity),),
        flows=(FlowGroupSpec("calls", "a", "b", load=0.7, initial_calls=8),),
        background=(
            BackgroundSpec("a", "b", traffic=traffic, mean_fraction=0.35),
        ),
        abandon_after=4,
        num_hops=3,
        mean_holding=6.0,
    )


def _dumbbell_lrd() -> ScenarioSpec:
    return _dumbbell("lrd")


def _dumbbell_poisson() -> ScenarioSpec:
    return _dumbbell("poisson")


def _storm(name: str, delay: float, description: str) -> ScenarioSpec:
    capacity = 12.0 * _MEAN
    return ScenarioSpec(
        name=name,
        description=description,
        links=(LinkSpec("a", "b", capacity, delay=delay),),
        flows=(FlowGroupSpec("calls", "a", "b", load=0.7, initial_calls=8),),
        background=(
            BackgroundSpec("a", "b", traffic="mmpp", mean_fraction=0.35),
        ),
        abandon_after=4,
        num_hops=1,
        mean_holding=6.0,
    )


def _mmpp_storm() -> ScenarioSpec:
    return _storm(
        "mmpp-storm",
        0.001,
        "two-state bursty (MMPP-2) background storms at 35% mean load "
        "over terrestrial signaling latency (2 ms renegotiation RTT)",
    )


def _satellite() -> ScenarioSpec:
    return _storm(
        "satellite",
        0.135,
        "the mmpp-storm scenario over a geostationary hop: ~270 ms "
        "renegotiation RTT makes the control loop six epochs slow to "
        "react to each burst",
    )


def _mixed_classes() -> ScenarioSpec:
    capacity = 16.0 * _MEAN
    return ScenarioSpec(
        name="mixed-classes",
        description=(
            "sustained 1.3x overload with three service classes under "
            "the downgrade ladder (class 0 most protected); runs on the "
            "classic single-link stack, so it is the shard-parity "
            "scenario"
        ),
        links=(LinkSpec("a", "b", capacity),),
        flows=(FlowGroupSpec("calls", "a", "b", load=1.3, initial_calls=10),),
        overload_policy="downgrade",
        overload_classes=3,
        class_weights=(1.0, 2.0, 3.0),
        mean_holding=6.0,
    )


_BUILDERS: Dict[str, Callable[[], ScenarioSpec]] = {
    "parking-lot": _parking_lot,
    "hotspot-collision": _hotspot_collision,
    "dumbbell-lrd": _dumbbell_lrd,
    "dumbbell-poisson": _dumbbell_poisson,
    "mmpp-storm": _mmpp_storm,
    "satellite": _satellite,
    "mixed-classes": _mixed_classes,
}

#: Names accepted by :func:`get_scenario` (and ``repro scenario``).
SCENARIO_NAMES = tuple(_BUILDERS)


def get_scenario(name: str, **overrides: Any) -> ScenarioSpec:
    """Build a registered scenario, optionally overriding spec fields."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise ValueError(
            f"unknown scenario {name!r}; choose from "
            f"{', '.join(SCENARIO_NAMES)}"
        )
    spec = builder()
    if overrides:
        spec = spec.replace(**overrides)
    return spec


def resolve_scenario(
    scenario: Union[str, ScenarioSpec], **overrides: Any
) -> ScenarioSpec:
    """A scenario by name (or a spec as given) with every override that
    is not None applied — the run-time overrides of ``run_scenario``
    and ``repro scenario run``."""
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    given = {key: value for key, value in overrides.items() if value is not None}
    return spec.replace(**given) if given else spec
