"""Declarative scenario suite: competing RCBR flows over
multi-bottleneck topologies with hostile cross-traffic.

A :class:`ScenarioSpec` names a topology (links with capacities and
delays), flow groups binding traffic sources to routes, and background
cross-traffic that consumes link capacity as a time-varying non-RCBR
process.  :func:`get_scenario` resolves the built-in roster
(:data:`SCENARIO_NAMES`); :func:`run_scenario` executes a spec on the
serving stack and returns a :class:`ScenarioResult` whose fingerprint
is byte-identical for the same spec and seed.  See DESIGN.md §16.
"""

from repro.scenarios.registry import SCENARIO_NAMES, get_scenario
from repro.scenarios.runtime import (
    BACKGROUND_VCI,
    ScenarioGateway,
    ScenarioHarness,
    ScenarioResult,
    run_scenario,
    scenario_fingerprint,
)
from repro.scenarios.spec import (
    SCENARIO_SOURCE_NAMES,
    BackgroundSpec,
    FlowGroupSpec,
    LinkSpec,
    ScenarioSpec,
)
from repro.util.slots import GROUP_STRIDE

__all__ = [
    "BACKGROUND_VCI",
    "GROUP_STRIDE",
    "SCENARIO_NAMES",
    "SCENARIO_SOURCE_NAMES",
    "BackgroundSpec",
    "FlowGroupSpec",
    "LinkSpec",
    "ScenarioGateway",
    "ScenarioHarness",
    "ScenarioResult",
    "ScenarioSpec",
    "get_scenario",
    "run_scenario",
    "scenario_fingerprint",
]
