"""The batch preload is bit-identical to the per-call preload.

``RcbrGateway.preload`` installs the initial fleet of an always-admit
gateway as one vector admission.  Its oracle is the per-call loop of
``_offer`` that every other controller still takes: after either
preload the pickled ``state_dict`` must be byte-identical, and so must
the snapshot fingerprint of the first 96 served epochs.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.admission.controllers import AlwaysAdmit
from repro.core.online import OnlineParams
from repro.server import RcbrGateway, ServerConfig
from repro.server.fleet import CallFleet
from repro.server.gateway import build_gateway
from repro.traffic.starwars import generate_starwars_trace

EPOCHS = 96


@pytest.fixture(scope="module")
def workload():
    return generate_starwars_trace(num_frames=800, seed=1995).as_workload()


def config(workload, **overrides):
    calls = overrides.pop("calls", 600)
    defaults = dict(
        capacity=calls * workload.mean_rate * 1.1,
        load=0.5,
        controller="always",
        mean_holding=20.0,
        seed=5,
        initial_calls=calls,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


class ClassGate(AlwaysAdmit):
    """Blocks class 1; its decisions never depend on admissions."""

    def admit(self, capacity, time, call_class=0):
        return call_class != 1

    def admit_batch(self, capacity, time, call_classes):
        return np.asarray(call_classes) != 1


def per_call_preload(gateway):
    """The per-call preload, whichever controller the gateway has."""
    gateway._preloaded = True
    for _ in range(gateway.config.initial_calls):
        gateway._offer(0, 0.0)
    gateway._schedule_arrival(0)


def state_bytes(gateway):
    return pickle.dumps(gateway.state_dict(), protocol=pickle.HIGHEST_PROTOCOL)


def serve_epochs(gateway, epochs=EPOCHS):
    slot = gateway.workload.slot_duration
    return gateway.run(epochs * slot, snapshot_every=24 * slot).fingerprint


def assert_preloads_match(make_gateway):
    """Batch and per-call preloads of two twin gateways: same bytes,
    same served fingerprint.  Returns the batch-preloaded twin's
    ``setup_shortfalls``."""
    with make_gateway() as batch, make_gateway() as scalar:
        batch.preload()
        per_call_preload(scalar)
        assert state_bytes(batch) == state_bytes(scalar)
        shortfalls = batch.setup_shortfalls
        assert serve_epochs(batch) == serve_epochs(scalar)
        assert state_bytes(batch) == state_bytes(scalar)
    return shortfalls


class TestBatchPreloadEquivalence:
    @pytest.mark.parametrize("shards", [0, 1, 2])
    @pytest.mark.parametrize(
        "classes", [dict(overload_classes=1),
                    dict(overload_classes=3, class_weights=(5.0, 1.0, 2.5))],
        ids=["one-class", "three-weighted"],
    )
    def test_state_and_fingerprint(self, workload, shards, classes):
        cfg = config(workload, shards=shards, shard_chunk=128, **classes)
        assert_preloads_match(lambda: build_gateway(workload, cfg))

    @pytest.mark.parametrize("shards", [0, 2])
    def test_small_link_falls_back_exactly(self, workload, shards):
        # A link far too small for the initial rates: request_batch
        # replays the setups one by one, and some are granted in part.
        cfg = config(
            workload, capacity=40 * workload.mean_rate, shards=shards
        )
        shortfalls = assert_preloads_match(lambda: build_gateway(workload, cfg))
        assert shortfalls > 0

    def test_pool_growth(self, workload):
        class SmallPoolGateway(RcbrGateway):
            def _build_fleet(self, workload, config):
                return self._new_fleet(workload, config, 3)

        cfg = config(workload, calls=150)
        assert_preloads_match(lambda: SmallPoolGateway(workload, cfg))
        with SmallPoolGateway(workload, cfg) as gateway:
            gateway.preload()
            assert gateway.fleet.capacity == 192  # 3 doubled six times

    def test_multi_hop_ports(self, workload):
        cfg = config(workload, num_hops=3, upstream_headroom=1.2)
        assert_preloads_match(lambda: build_gateway(workload, cfg))

    def test_blocking_batch_controller(self, workload):
        cfg = config(workload)
        with build_gateway(workload, cfg, controller=ClassGate()) as gateway:
            gateway.preload()
            assert gateway.blocked > 0
            assert gateway.offered.consistent()
        assert_preloads_match(
            lambda: build_gateway(workload, cfg, controller=ClassGate())
        )

    def test_other_controllers_take_the_per_call_loop(self, workload):
        cfg = config(workload, controller="perfect", calls=200)
        with build_gateway(workload, cfg) as gateway:
            assert not hasattr(gateway.controller, "admit_batch")
            decisions = []
            admit = gateway.controller.admit

            def counted_admit(*args, **kwargs):
                decisions.append(1)
                return admit(*args, **kwargs)

            gateway.controller.admit = counted_admit
            gateway.preload()
            assert len(decisions) == cfg.initial_calls
        assert_preloads_match(lambda: build_gateway(workload, cfg))

    def test_empty_preload(self, workload):
        cfg = config(workload, initial_calls=0)
        assert_preloads_match(lambda: build_gateway(workload, cfg))

    @pytest.mark.parametrize("shards", [0, 2])
    def test_save_restore_straight_after_preload(
        self, workload, shards, tmp_path
    ):
        cfg = config(workload, shards=shards, shard_chunk=128)
        path = tmp_path / "preload.ckpt"
        with build_gateway(workload, cfg) as gateway:
            gateway.preload()
            gateway.save(path)
            uninterrupted = serve_epochs(gateway)
        with build_gateway(workload, cfg) as restored:
            restored.restore(path)
            assert serve_epochs(restored) == uninterrupted
        with build_gateway(workload, cfg) as scalar:
            per_call_preload(scalar)
            assert serve_epochs(scalar) == uninterrupted


class TestFleetAdmitBatch:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_admit_loop_with_holes_and_growth(self, workload, seed):
        params = OnlineParams(granularity=64_000.0)
        rng = np.random.default_rng(seed)
        fleets = [
            CallFleet(workload, params, initial_capacity=5) for _ in range(2)
        ]
        # Shared history leaves holes in the free list.
        for fleet in fleets:
            for call_id in range(9):
                fleet.admit(call_id, call_id * 7, call_id % 3)
            for slot in (4, 1, 7):
                fleet.remove(slot)
        scalar, batch = fleets
        count = 40
        call_ids = np.arange(100, 100 + count)
        shifts = rng.integers(workload.num_slots, size=count)
        classes = rng.integers(3, size=count)
        expected = [
            scalar.admit(int(c), int(s), int(k))
            for c, s, k in zip(call_ids, shifts, classes)
        ]
        slots, rates = batch.admit_batch(call_ids, shifts, classes)
        assert slots.tolist() == [slot for slot, _ in expected]
        assert rates.tobytes() == np.asarray([r for _, r in expected]).tobytes()
        assert pickle.dumps(batch.state_dict()) == pickle.dumps(
            scalar.state_dict()
        )

    def test_bad_entry_admits_nothing(self, workload):
        fleet = CallFleet(workload, OnlineParams(granularity=64_000.0))
        before = pickle.dumps(fleet.state_dict())
        with pytest.raises(ValueError):
            fleet.admit_batch(
                np.arange(3), np.array([0, workload.num_slots, 1]), np.zeros(3)
            )
        with pytest.raises(ValueError):
            fleet.admit_batch(np.arange(2), np.array([0, 1]), np.array([0, -1]))
        assert pickle.dumps(fleet.state_dict()) == before


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=5
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_class_draw_is_generator_choice(workload, weights, seed):
    """The cached-CDF draw is ``Generator.choice(k, p=...)`` exactly:
    the same classes and the same stream position, scalar and batched."""
    cfg = config(
        workload, overload_classes=len(weights), class_weights=tuple(weights),
        seed=seed,
    )
    gateway = RcbrGateway(workload, cfg)
    twin = np.random.default_rng()
    twin.bit_generator.state = gateway._overload_rng.bit_generator.state
    probs = np.asarray(weights) / np.sum(weights)
    drawn = [gateway._draw_class() for _ in range(50)]
    assert drawn == [int(twin.choice(len(weights), p=probs)) for _ in range(50)]
    batch = np.searchsorted(
        gateway._class_cdf, gateway._overload_rng.random(50), side="right"
    )
    assert batch.tolist() == twin.choice(len(weights), size=50, p=probs).tolist()
    assert gateway._overload_rng.bit_generator.state == twin.bit_generator.state
