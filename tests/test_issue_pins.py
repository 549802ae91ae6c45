"""Renegotiation issue and landing, pinned to recorded fingerprints.

Every epoch a flow group issues its renegotiations in ascending slot
order and their answers land one round trip later.  These runs cover
the issue and landing orders the roster fingerprints do not reach:

* the parking-lot scaled 300x (5,400 initial calls), under ``block``
  and under ``downgrade`` — thousands of renegotiations per epoch over
  single- and multi-link routes, and per-link downgrade factors folded
  per call;
* hotspot-collision at ``route_k=2`` under ``downgrade`` and under a
  denial fault plan — a group whose calls span two routes, so one
  epoch's answers land at two round-trip times;
* a parking-lot with 0.135 s link delays, killed and resumed from a
  checkpoint saved while answers are still in flight.

Each pin is the snapshot fingerprint plus the report values no
fingerprint covers.
"""

import dataclasses
import hashlib
import os
import tempfile

import pytest

from repro.faults.injectors import FaultPlan
from repro.queueing.link import RcbrLink
from repro.scenarios import ScenarioHarness, get_scenario, run_scenario
from repro.server import RcbrGateway
from repro.signaling.network import SignalingPath

DENIAL_PLAN = '{"denial": {"rate": 0.3, "mean_burst": 4.0}}'


def digest(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def scaled_parking_lot(policy="block", duration=2.0):
    """The parking-lot with capacities and initial calls x300 and a
    600 s mean holding time."""
    base = get_scenario("parking-lot", duration=duration, snapshot_every=1.0)
    return base.replace(
        name="parking-lot-x300",
        links=tuple(
            dataclasses.replace(link, capacity=300 * link.capacity)
            for link in base.links
        ),
        flows=tuple(
            dataclasses.replace(flow, initial_calls=300 * flow.initial_calls)
            for flow in base.flows
        ),
        mean_holding=600.0,
        overload_policy=policy,
    )


def hotspot_k2(duration, **overrides):
    return get_scenario(
        "hotspot-collision", route_k=2, duration=duration, snapshot_every=1.0
    ).replace(**overrides)


def delayed_parking_lot():
    base = get_scenario("parking-lot", duration=6.0, snapshot_every=1.0)
    return base.replace(
        links=tuple(
            dataclasses.replace(link, delay=0.135) for link in base.links
        )
    )


def pending_completions(gateway):
    """Renegotiation answers waiting on the heap."""
    return sum(
        1
        for event in gateway.engine._queue
        if not event.cancelled
        and event.callback.__name__.startswith("_complete")
    )


def resume_in_flight(spec, stop_at=2.4):
    """Serve ``spec`` uninterrupted, then again with a save at the first
    boundary at or past ``stop_at`` and a resume in a fresh harness.
    Returns ``(reference result, resumed fingerprint, answers in flight
    at the save)``."""
    reference = run_scenario(spec)
    path = os.path.join(tempfile.mkdtemp(), "in-flight.ckpt")
    in_flight = []

    def stop_hook(tick, gateway):
        if gateway.engine.now >= stop_at:
            in_flight.append(pending_completions(gateway))
            gateway.save(path)
            return True
        return None

    with ScenarioHarness(spec) as first:
        first.run(epoch_hook=stop_hook)
    with ScenarioHarness(spec) as second:
        second.restore(path)
        resumed_at = second.gateway.engine.now
        report = second.run(duration=spec.duration - resumed_at)
    return reference, report.fingerprint, in_flight[0]


def run_case(name):
    """The :class:`~repro.scenarios.runtime.ScenarioResult` of one
    pinned run."""
    if name == "scaled-parking-lot-block":
        return run_scenario(scaled_parking_lot("block"))
    if name == "scaled-parking-lot-downgrade":
        return run_scenario(scaled_parking_lot("downgrade"))
    if name == "hotspot-k2-downgrade":
        return run_scenario(hotspot_k2(30.0, overload_policy="downgrade"))
    if name == "hotspot-k2-denial":
        return run_scenario(
            hotspot_k2(10.0), faults=FaultPlan.from_json(DENIAL_PLAN, seed=5)
        )
    return run_scenario(delayed_parking_lot())


def observed(result):
    report = result.report
    return (
        report.fingerprint,
        repr(report.mean_utilization),
        repr(report.peak_active),
        repr(report.call_epochs_stepped),
        digest(result.groups),
        digest(result.links),
    )


PINNED = {
    "delayed-parking-lot-resume": (
        "02dd5ef324ade67316cccf760f57107a85b24170824810656892df35d31ba850",
        "0.7618440830755042", "24", "2584",
        "e15581933d2353483db302206fdadfbd6cdd4e13e0dd839d362e2db96cd09bc0",
        "503fec5bba050ae3a7b7dae019751762138cfcffebfbb9b8cc29d6496bea9bb9",
    ),
    "hotspot-k2-denial": (
        "003f2b76031b3db519c6dbe1c7eb7a9dc6b47ef35e38ccbe0bf5adf89fd8e0a5",
        "0.700145014607986", "24", "4356",
        "df1f2bd069ae702d17f509a321d1a4c9b095774aa2dda1313c9a52bfe37d3001",
        "2645069592ad746550cb4bd19d2bcccb6fa17b8e7398ae8013059d5b81b4ca3d",
    ),
    "hotspot-k2-downgrade": (
        "de99b8cf7ddf398db570ac5a0e333dbd957c9930b69de0bebaa7becd32f36561",
        "0.6973671757424638", "32", "13671",
        "b9cc302b76c1d0a660e958950d45ea1a54705288a8e5607ebf69acdeb5d3686f",
        "4271630d25c78b8ce933cc1c96edae53593a7aa0cd64dbc0a1254ffff81141a0",
    ),
    "scaled-parking-lot-block": (
        "a696a1af3390a572bae8687c377dcf399cc14c4ce77b3c92aaa8d7100ad86529",
        "0.9148049905404771", "5381", "258039",
        "5a19bc8fe8cac7cd1e13da29c135ac51241e68c2286f3c749a08d57680e3ee46",
        "030e917e4da86e9b335d44b0376c61ebb103e73871e6ca6ef326acd928075751",
    ),
    "scaled-parking-lot-downgrade": (
        "755463149431f7a40a7dcd709064cf0fd1a6832c1182f4397b566bd06ea097a0",
        "0.8591691128767959", "5382", "258075",
        "81ca07ae9551c2f1f2c224a30d4d766e81f4e204f5d51a183cbe15cb0ba6eb98",
        "1ae06a4f7f959284dfea234d484fd08356bc7af736de0be139b1e9d5dafdd842",
    ),
}


def escalations(result):
    return sum(link["overload"]["escalations"] for link in result.links.values())


# What each pinned run must reach for its pin to guard anything.
REACHES = {
    "scaled-parking-lot-downgrade": lambda result: escalations(result) > 0,
    "hotspot-k2-downgrade": lambda result: escalations(result) > 0,
    "hotspot-k2-denial": lambda result: result.report.final.injected_denials > 0,
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_issue_is_pinned(name, monkeypatch):
    counts = count_calls(
        monkeypatch, (SignalingPath, "renegotiate_batch"), (RcbrLink, "request_batch")
    )
    result = run_case(name)
    assert observed(result) == PINNED[name], (result.groups, result.links)
    # Unfaulted epochs travel as route batches; a fault plan walks the
    # calls one by one.
    assert counts["request_batch"] > 0
    assert (counts["renegotiate_batch"] > 0) == ("denial" not in name)
    assert REACHES.get(name, lambda result: True)(result)


def test_resume_with_answers_in_flight():
    reference, resumed, in_flight = resume_in_flight(delayed_parking_lot())
    assert in_flight > 0
    assert resumed == reference.fingerprint == PINNED[
        "delayed-parking-lot-resume"
    ][0]


def test_hotspot_k2_splits_a_flow_over_two_routes():
    with ScenarioHarness(hotspot_k2(2.0)) as harness:
        harness.run()
        east = [
            route for route in harness.gateway.routes
            if (route.nodes[0], route.nodes[-1]) == ("n0", "n3")
        ]
    assert len(east) == 2


class TestPerCallEquivalence:
    """The route-batched issue and commit give the pinned bytes when
    every epoch instead signals call by call down its own path and
    reserves call by call through ``_reserve``."""

    CASES = (
        "scaled-parking-lot-block",
        "scaled-parking-lot-downgrade",
        "hotspot-k2-downgrade",
        "hotspot-k2-denial",
    )

    @pytest.mark.parametrize("name", CASES)
    def test_per_call_walk_gives_the_same_bytes(self, name, monkeypatch):
        monkeypatch.setattr(
            RcbrGateway, "_shared_route", lambda self, group, slots: None
        )
        counts = count_calls(
            monkeypatch,
            (SignalingPath, "renegotiate_batch"),
            (RcbrLink, "request_batch"),
            (RcbrGateway, "_reserve"),
        )
        per_call = observed(run_case(name))
        assert counts["renegotiate_batch"] == counts["request_batch"] == 0
        assert counts["_reserve"] > 0
        assert per_call == PINNED[name]


def count_calls(monkeypatch, *methods):
    """Count calls to each ``(owner, name)`` method, keyed by name."""
    counts = {}
    for owner, name in methods:
        counts[name] = 0
        function = getattr(owner, name)

        def counted(*args, _function=function, _name=name, **kwargs):
            counts[_name] += 1
            return _function(*args, **kwargs)

        if isinstance(owner.__dict__[name], staticmethod):
            counted = staticmethod(counted)
        monkeypatch.setattr(owner, name, counted)
    return counts
