"""Crash-safe checkpoints: bit-exact resume, staleness, lifecycle, watchdog.

The contract under test (DESIGN.md §15): ``run(T1); save; SIGKILL;
rebuild; restore; run(T2)`` produces a snapshot fingerprint byte-equal
to ``run(T1); run(T2)`` in one uninterrupted process — for every
configuration the gateway supports.  Checkpoints from a different
config, workload, or code version are refused loudly, never resumed
approximately.
"""

import os
import pickle
import signal

import numpy as np
import pytest

from repro.core.online import OnlineParams
from repro.faults.injectors import FaultPlan
from repro.perf.cache import fingerprint
from repro.server import ServerConfig, build_gateway
from repro.server.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    ServeLifecycle,
    StaleCheckpointError,
    config_fingerprint,
    read_checkpoint,
    read_checkpoint_meta,
    write_checkpoint,
)
from repro.perf.supervise import SupervisorPolicy
from repro.server import sharded
from repro.server.sharded import WorkerPoolError
from repro.traffic.starwars import generate_starwars_trace


@pytest.fixture(scope="module")
def workload():
    return generate_starwars_trace(num_frames=400, seed=1995).as_workload()


def config(workload, **overrides):
    defaults = dict(
        capacity=40 * workload.mean_rate,
        load=0.8,
        controller="always",
        seed=11,
        initial_calls=8,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


FAULT_SPEC = {
    "denial": {"rate": 0.1},
    "cell_loss": {"probability": 0.05},
    "outage": {"rate": 0.05, "mean_duration": 0.5},
}

# Every runtime the gateway supports: the plain event loop, the
# sharded fleet at one and several workers, each overload policy, the
# memory admission controller, and a fault plan with its own lazily
# spawned per-hop RNG children.
CHAOS_CASES = {
    "plain": dict(),
    "sharded-1": dict(shards=1, shard_chunk=16),
    "sharded-4": dict(shards=4, shard_chunk=16),
    "overload-block": dict(
        load=0.0,
        initial_calls=60,
        overload_policy="block",
        overload_enter=0.7,
        overload_exit=0.5,
        overload_dwell=2,
    ),
    "overload-downgrade": dict(
        load=0.0,
        initial_calls=60,
        overload_policy="downgrade",
        overload_enter=0.7,
        overload_exit=0.5,
        overload_dwell=2,
    ),
    "overload-sacrifice": dict(
        load=0.0,
        initial_calls=60,
        overload_policy="sacrifice",
        overload_enter=0.7,
        overload_exit=0.5,
        overload_dwell=2,
    ),
    "memory-controller": dict(controller="memory"),
    "faulted": dict(num_hops=3, abandon_after=4),
    "faulted-sacrifice": dict(
        load=1.5,
        initial_calls=60,
        mean_holding=3.0,
        abandon_after=2,
        overload_policy="sacrifice",
        overload_enter=0.7,
        overload_exit=0.5,
        overload_dwell=2,
    ),
}
FAULTED_CASES = {"faulted", "faulted-sacrifice"}


def build_case(workload, name):
    overrides = dict(CHAOS_CASES[name])
    if overrides.get("initial_calls", 8) == 60:
        overrides["capacity"] = 60 * workload.mean_rate
    faults = (
        FaultPlan.from_spec(FAULT_SPEC, seed=42)
        if name in FAULTED_CASES
        else None
    )
    return build_gateway(workload, config(workload, **overrides), faults=faults)


class TestBitExactResume:
    @pytest.mark.parametrize("name", sorted(CHAOS_CASES))
    def test_save_kill_restore_matches_uninterrupted(
        self, workload, tmp_path, name
    ):
        path = tmp_path / "gw.ckpt"

        with build_case(workload, name) as reference:
            reference.run(3.0, snapshot_every=1.0)
            expected = reference.run(3.0, snapshot_every=1.0).fingerprint

        with build_case(workload, name) as first:
            first.run(3.0, snapshot_every=1.0)
            meta = write_checkpoint(path, first)
        assert meta["bytes"] == path.stat().st_size

        # The "crash": `first` is gone; a new process rebuilds from the
        # same config and restores.
        with build_case(workload, name) as resumed:
            resumed.restore(path)
            report = resumed.run(3.0, snapshot_every=1.0)

        assert report.fingerprint == expected

    def test_periodic_checkpoint_mid_run_resumes_bit_exact(
        self, workload, tmp_path
    ):
        """A checkpoint written from the epoch hook mid-run (not at a
        run() boundary) must also resume bit-exactly — the regression
        that once exported a stale start tick."""
        path = tmp_path / "gw.ckpt"
        slot = workload.slot_duration

        with build_case(workload, "plain") as reference:
            expected = reference.run(6.0, snapshot_every=1.0).fingerprint

        def hook(tick, gw):
            if tick == 37:
                gw.save(path)
                return True
            return False

        with build_case(workload, "plain") as first:
            first.run(6.0, snapshot_every=1.0, epoch_hook=hook)

        with build_case(workload, "plain") as resumed:
            resumed.restore(path)
            assert resumed.engine.now == pytest.approx(37 * slot)
            remaining = 6.0 - resumed.engine.now
            report = resumed.run(remaining, snapshot_every=1.0)

        assert report.fingerprint == expected

    @pytest.mark.parametrize("name", sorted(FAULTED_CASES))
    def test_group_stats_survive_round_trip(self, workload, tmp_path, name):
        """The one classic flow group's counters are checkpointed with
        the base export, and the lifecycle half of them tracks the
        gateway totals (classic setup counts only the totals)."""
        path = tmp_path / "gw.ckpt"
        with build_case(workload, name) as first:
            first.run(3.0, snapshot_every=1.0)
            first.save(path)
            saved = list(first.group_stats)
            (stats,) = saved
            assert stats.departed == first.departed
            assert stats.abandoned == first.abandoned
            assert stats.reneg_requests == first.reneg_requests > 0
            assert stats.reneg_denied == first.reneg_denied

        with build_case(workload, name) as resumed:
            resumed.restore(path)
            assert resumed.group_stats == saved

    def test_sharded_restore_respawns_pool_lazily(self, workload, tmp_path):
        path = tmp_path / "gw.ckpt"
        with build_case(workload, "sharded-4") as first:
            first.run(2.0, snapshot_every=1.0)
            first.save(path)

        with build_case(workload, "sharded-4") as resumed:
            resumed.run(0.5)  # spin the pool up before restoring over it
            resumed.restore(path)
            assert resumed.fleet._pool is None
            resumed.run(1.0, snapshot_every=1.0)
            assert resumed.fleet._pool is not None


class TestMemoryControllerChurn:
    """The columnar memory MBAC resumes bit-exactly mid-churn: calls
    arrive, are blocked, downgraded, abandon and depart on both sides of
    the checkpoint."""

    def build(self, workload, shards):
        return build_gateway(
            workload,
            config(
                workload,
                load=1.2,
                controller="memory",
                failure_target=0.05,
                num_hops=3,
                upstream_headroom=1.0,
                overload_policy="downgrade",
                overload_enter=0.7,
                overload_exit=0.5,
                overload_dwell=2,
                abandon_after=2,
                mean_holding=6.0,
                initial_calls=40,
                shards=shards,
                shard_chunk=16,
            ),
        )

    @pytest.mark.parametrize("shards", [0, 2])
    def test_save_kill_restore_matches_uninterrupted(
        self, workload, tmp_path, shards
    ):
        path = tmp_path / "gw.ckpt"
        with self.build(workload, shards) as reference:
            reference.run(4.0, snapshot_every=1.0)
            expected = reference.run(4.0, snapshot_every=1.0).fingerprint
            assert reference.blocked > 0 and reference.abandoned > 0
            assert reference.departed > reference.abandoned
            assert reference.overload_plane.policy.calls_shrunk > 0

        with self.build(workload, shards) as first:
            first.run(4.0, snapshot_every=1.0)
            assert first.departed > 0
            first.save(path)

        with self.build(workload, shards) as resumed:
            resumed.restore(path)
            report = resumed.run(4.0, snapshot_every=1.0)

        assert report.fingerprint == expected


def departure_state(gateway):
    """What a boundary holds of the departure calendar: live promoted
    departures on the heap, cancelled (stale) promoted departures of
    evicted calls, and live departures still in a far bucket."""
    departures = [
        event
        for event in gateway.engine._queue
        if event.callback.__name__ == "_handle_departure"
    ]
    live = sum(fleet.num_active for fleet in gateway._fleets)
    promoted = sum(not event.cancelled for event in departures)
    return {
        "promoted": promoted,
        "stale": sum(event.cancelled for event in departures),
        "far": live - promoted,
    }


class TestDepartureCalendarResume:
    """A boundary can hold a departure on the heap that has not fired, a
    departure still in a far calendar bucket, and the cancelled promoted
    departure of an evicted call; each must survive a save and restore
    and fire (or not) exactly where the uninterrupted run's does."""

    CASE = "faulted-sacrifice"

    @pytest.fixture(scope="class")
    def boundary(self, workload):
        """The first epoch boundary holding all three kinds."""
        found = []

        def hook(tick, gateway):
            state = departure_state(gateway)
            if min(state.values()) > 0:
                found.append(tick)
                return True
            return False

        with build_case(workload, self.CASE) as probe:
            probe.run(20.0, epoch_hook=hook)
        assert found, "no boundary held all three departure kinds"
        return found[0]

    @pytest.mark.parametrize("shards", [0, 2])
    def test_every_departure_kind_resumes_bit_exact(
        self, workload, tmp_path, boundary, shards
    ):
        def build():
            overrides = dict(CHAOS_CASES[self.CASE], capacity=60 * workload.mean_rate)
            if shards:
                overrides.update(shards=shards, shard_chunk=16)
            return build_gateway(
                workload,
                config(workload, **overrides),
                faults=FaultPlan.from_spec(FAULT_SPEC, seed=42),
            )

        head = boundary * workload.slot_duration
        path = tmp_path / "gw.ckpt"
        with build() as reference:
            reference.run(head, snapshot_every=1.0)
            expected = reference.run(3.0, snapshot_every=1.0).fingerprint
        with build() as first:
            first.run(head, snapshot_every=1.0)
            assert min(departure_state(first).values()) > 0
            saved = departure_state(first)
            first.save(path)
        with build() as resumed:
            resumed.restore(path)
            assert departure_state(resumed) == saved
            report = resumed.run(3.0, snapshot_every=1.0)
        assert report.fingerprint == expected


class TestGeneratorRoundTrip:
    """Satellite: every spawned stream restores to identical draws."""

    def streams(self, gateway):
        return {
            "arrival": gateway._arrival_rng,
            "call": gateway._call_rng,
            "overload": gateway._overload_rng,
            "path": gateway.path.rng,
            "retry": gateway.path._retry_rng,
        }

    def test_gateway_streams_resume_identical_draws(self, workload):
        with build_case(workload, "plain") as gateway:
            # Consume the streams unevenly first: a restore must work
            # from an arbitrary mid-stream point, not just seed zero.
            gateway.run(2.0)
            for name, rng in self.streams(gateway).items():
                saved = rng.bit_generator.state
                expected = rng.random(100)
                clone = np.random.Generator(type(rng.bit_generator)())
                clone.bit_generator.state = saved
                assert clone.random(100).tolist() == expected.tolist(), name

    def test_pickle_preserves_spawn_counter(self):
        # Fault injectors lazily spawn per-hop child streams, so they
        # are pickled wholesale: pickling a Generator must preserve the
        # SeedSequence spawn counter (restoring bit_generator.state
        # alone would not).  Canary against a numpy behavior change.
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
        rng.spawn(2)
        copy = pickle.loads(pickle.dumps(rng))
        original_child = rng.spawn(1)[0]
        restored_child = copy.spawn(1)[0]
        assert (
            original_child.bit_generator.state
            == restored_child.bit_generator.state
        )

    def test_mid_epoch_fault_children_survive_checkpoint(
        self, workload, tmp_path
    ):
        # The faulted chaos case exercises this end to end; here we
        # check the plan state specifically: after running, the plan
        # restored from a checkpoint draws identically to the original.
        path = tmp_path / "gw.ckpt"
        with build_case(workload, "faulted") as first:
            first.run(3.0, snapshot_every=1.0)
            first.save(path)
            expected = {
                name: injector.rng.random(20).tolist()
                for name, injector in first.faults._injectors.items()
                if getattr(injector, "rng", None) is not None
            }
        assert expected  # the spec above always arms seeded injectors

        with build_case(workload, "faulted") as resumed:
            resumed.restore(path)
            for name, draws in expected.items():
                injector = resumed.faults._injectors[name]
                assert injector.rng.random(20).tolist() == draws, name


class TestStaleness:
    def write(self, workload, path, **overrides):
        with build_case(workload, "plain") as gateway:
            gateway.run(1.0)
            gateway.save(path)
            return gateway.config

    def test_meta_roundtrip(self, workload, tmp_path):
        path = tmp_path / "gw.ckpt"
        self.write(workload, path)
        meta = read_checkpoint_meta(path)
        assert meta["schema"] == CHECKPOINT_SCHEMA
        assert meta["time"] == pytest.approx(1.0, abs=0.1)
        assert meta["next_tick"] > 0

    def assert_schema_refused(self, workload, path, schema):
        cfg = self.write(workload, path)
        payload = pickle.loads(path.read_bytes())
        payload["schema"] = schema
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(StaleCheckpointError, match=f"schema {schema}"):
            read_checkpoint(path, cfg)
        with build_case(workload, "plain") as gateway:
            with pytest.raises(StaleCheckpointError, match="schema"):
                gateway.restore(path)

    def test_schema_one_payload_is_refused(self, workload, tmp_path):
        # Schema 1 predates the slot-table link and port layouts.
        self.assert_schema_refused(workload, tmp_path / "gw.ckpt", 1)

    def test_schema_two_payload_is_refused(self, workload, tmp_path):
        # Schema 2 pickled MemoryMBAC's per-call history dicts.
        self.assert_schema_refused(workload, tmp_path / "gw.ckpt", 2)

    def test_schema_three_payload_is_refused(self, workload, tmp_path):
        # Schema 3 carried one completion event per renegotiation,
        # event keys on a 2**20 stride, and no base group counters.
        self.assert_schema_refused(workload, tmp_path / "gw.ckpt", 3)

    def test_schema_four_payload_is_refused(self, workload, tmp_path):
        # Schema 4 carried argument-less classic arrival events and the
        # scenario gateway's applied background rates.
        self.assert_schema_refused(workload, tmp_path / "gw.ckpt", 4)

    def test_schema_five_payload_is_refused(self, workload, tmp_path):
        # Schema 5 saved the classic gateway's one fleet, link and path
        # unwrapped, the scenario gateway's as stack exports, and the
        # per-link overload planes in the scenario section.
        self.assert_schema_refused(workload, tmp_path / "gw.ckpt", 5)

    def test_schema_six_payload_is_refused(self, workload, tmp_path):
        # Schema 6 was written by a build whose multi-bottleneck gateway
        # drew a call's workload shift before the admission decision.
        self.assert_schema_refused(workload, tmp_path / "gw.ckpt", 6)

    def test_schema_seven_payload_is_refused(self, workload, tmp_path):
        # Schema 7 carried one ``_complete`` event per scenario
        # renegotiation and the scenario gateway's bindings list.
        self.assert_schema_refused(workload, tmp_path / "gw.ckpt", 7)

    def test_schema_eight_payload_is_refused(self, workload, tmp_path):
        # Schema 8 carried a ``scenario`` section: the lazily created
        # route list, the path stream and the network slots.
        self.assert_schema_refused(workload, tmp_path / "gw.ckpt", 8)

    def test_schema_nine_payload_is_refused(self, workload, tmp_path):
        # Schema 9 carried one heap event per live call's departure,
        # exported through the columnar arg codec, and no departure
        # columns.
        assert CHECKPOINT_SCHEMA == 10
        self.assert_schema_refused(workload, tmp_path / "gw.ckpt", 9)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint_meta(tmp_path / "nope.ckpt")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(CheckpointError, match="corrupt"):
            read_checkpoint_meta(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "other.ckpt"
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(CheckpointError, match="not an RCBR"):
            read_checkpoint_meta(path)

    def test_config_mismatch_is_refused(self, workload, tmp_path):
        path = tmp_path / "gw.ckpt"
        self.write(workload, path)
        with pytest.raises(StaleCheckpointError, match="config hash"):
            read_checkpoint(path, config(workload, seed=12))

    def test_online_params_mismatch_is_refused(self, workload, tmp_path):
        """The heuristic's parameters are part of the stamp: a checkpoint
        saved under one AR(1) coefficient does not resume under another."""
        path = tmp_path / "gw.ckpt"
        plain = config(workload)

        def with_ar(coefficient):
            return config(
                workload,
                online_params=OnlineParams(
                    granularity=plain.granularity,
                    max_rate=plain.capacity,
                    ar_coefficient=coefficient,
                ),
            )

        with build_gateway(workload, with_ar(0.9)) as gateway:
            gateway.run(1.0)
            gateway.save(path)
        with build_gateway(workload, with_ar(0.5)) as gateway:
            with pytest.raises(StaleCheckpointError, match="config hash"):
                gateway.restore(path)
        with build_gateway(workload, with_ar(0.9)) as gateway:
            gateway.restore(path)

    def test_config_without_online_params_keeps_its_hash(self, workload):
        """Checkpoints stamped before ``online_params`` was hashed still
        restore: an unset field adds nothing to the stamp."""
        plain = config(workload)
        assert config_fingerprint(plain) == fingerprint(plain.to_dict())

    def test_code_version_mismatch_is_refused(
        self, workload, tmp_path, monkeypatch
    ):
        path = tmp_path / "gw.ckpt"
        cfg = self.write(workload, path)
        monkeypatch.setattr(
            "repro.server.checkpoint.checkpoint_code_version",
            lambda: "9.9.9+ckpt99+cache99",
        )
        with pytest.raises(StaleCheckpointError, match="code version"):
            read_checkpoint(path, cfg)

    def test_workload_mismatch_is_refused(self, workload, tmp_path):
        path = tmp_path / "gw.ckpt"
        # Pin the capacity so both configs hash identically even though
        # the traces differ — exactly the gap the workload hash closes.
        capacity = 40 * workload.mean_rate
        with build_gateway(
            workload, config(workload, capacity=capacity)
        ) as gateway:
            gateway.run(1.0)
            gateway.save(path)

        other = generate_starwars_trace(num_frames=400, seed=7).as_workload()
        with build_gateway(
            other, config(workload, capacity=capacity)
        ) as impostor:
            with pytest.raises(StaleCheckpointError, match="workload hash"):
                impostor.restore(path)

    def test_restore_into_running_gateway_same_config_ok(
        self, workload, tmp_path
    ):
        # Restoring over a gateway that has already served rewinds it
        # to the checkpoint — useful for in-process rollback.
        path = tmp_path / "gw.ckpt"
        with build_case(workload, "plain") as gateway:
            gateway.run(2.0, snapshot_every=1.0)
            gateway.save(path)
            first = gateway.run(2.0, snapshot_every=1.0).fingerprint
            gateway.restore(path)
            second = gateway.run(2.0, snapshot_every=1.0).fingerprint
        assert first == second


class TestDeferredWriter:
    def test_deferred_save_lands_and_restores_bit_exact(
        self, workload, tmp_path
    ):
        path = tmp_path / "gw.ckpt"
        with build_case(workload, "plain") as gateway:
            gateway.run(2.0, snapshot_every=1.0)
            meta = gateway.save(path, defer=True)
            gateway.checkpoint_sync()
            reference = gateway.run(2.0, snapshot_every=1.0).fingerprint
        assert meta["bytes"] == path.stat().st_size
        with build_case(workload, "plain") as resumed:
            resumed.restore(path)
            assert resumed.run(2.0, snapshot_every=1.0).fingerprint == reference

    def test_background_write_failure_is_loud(
        self, workload, tmp_path, monkeypatch
    ):
        import repro.server.checkpoint as checkpoint_module

        def explode(path, blob):
            raise OSError("disk on fire")

        with build_case(workload, "plain") as gateway:
            gateway.run(1.0)
            monkeypatch.setattr(checkpoint_module, "atomic_write", explode)
            gateway.save(tmp_path / "gw.ckpt", defer=True)
            with pytest.raises(CheckpointError, match="disk on fire"):
                gateway.checkpoint_sync()
            # The error is surfaced once, then cleared.
            gateway.checkpoint_sync()

    def test_sync_save_drains_pending_deferred_write(
        self, workload, tmp_path
    ):
        # Newest checkpoint must win the rename: a sync save flushes the
        # in-flight deferred write before its own atomic_write.
        path = tmp_path / "gw.ckpt"
        with build_case(workload, "plain") as gateway:
            gateway.run(1.0)
            gateway.save(path, defer=True)
            gateway.run(1.0)
            meta = gateway.save(path)
            assert not gateway._checkpoint_writer.pending
        assert read_checkpoint_meta(path)["time"] == pytest.approx(
            meta["time"]
        )


class TestLifecycle:
    def test_first_signal_requests_stop(self):
        lifecycle = ServeLifecycle()
        with lifecycle:
            os.kill(os.getpid(), signal.SIGTERM)
        assert lifecycle.stop_requested
        assert lifecycle.signal_name == "SIGTERM"

    def test_second_signal_raises_keyboard_interrupt(self):
        lifecycle = ServeLifecycle()
        lifecycle._handle(signal.SIGINT, None)
        assert lifecycle.stop_requested
        with pytest.raises(KeyboardInterrupt):
            lifecycle._handle(signal.SIGINT, None)

    def test_handlers_restored_on_exit(self):
        before = {
            sig: signal.getsignal(sig)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        with ServeLifecycle():
            assert signal.getsignal(signal.SIGTERM) != before[signal.SIGTERM]
        for sig, handler in before.items():
            assert signal.getsignal(sig) == handler

    def test_graceful_stop_checkpoint_resumes_bit_exact(
        self, workload, tmp_path
    ):
        path = tmp_path / "gw.ckpt"
        lifecycle = ServeLifecycle()

        with build_case(workload, "plain") as reference:
            expected = reference.run(5.0, snapshot_every=1.0).fingerprint

        def hook(tick, gw):
            if tick == 29:  # "the signal arrived" mid-run
                lifecycle.stop_requested = True
                lifecycle.signum = signal.SIGTERM
            if lifecycle.stop_requested:
                gw.save(path)
                return True
            return False

        with build_case(workload, "plain") as first:
            report = first.run(5.0, snapshot_every=1.0, epoch_hook=hook)
            assert report.epochs == 29  # stopped at the boundary, pre-step

        with build_case(workload, "plain") as resumed:
            resumed.restore(path)
            remaining = 5.0 - resumed.engine.now
            report = resumed.run(remaining, snapshot_every=1.0)

        assert report.fingerprint == expected


class TestWatchdog:
    """The pool's one round trip per epoch is also its watchdog."""

    @staticmethod
    def unharmed(workload, cfg):
        with build_gateway(workload, cfg) as reference:
            reference.run(2.0, snapshot_every=1.0)
            return reference.run(3.0, snapshot_every=1.0).fingerprint

    def test_heartbeat_detects_silent_death(self, workload):
        cfg = config(workload, shards=2, shard_chunk=16)
        with build_gateway(workload, cfg) as gateway:
            gateway.run(1.0)
            pool = gateway.fleet._pool
            victim = pool._workers[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5.0)
            with pytest.raises(WorkerPoolError, match="died silently"):
                pool.step(gateway.fleet.epochs_stepped, False)

    def test_silent_death_between_epochs_rebuilds_and_preserves(
        self, workload
    ):
        cfg = config(workload, shards=2, shard_chunk=16)
        expected = self.unharmed(workload, cfg)

        with build_gateway(workload, cfg) as gateway:
            gateway.run(2.0, snapshot_every=1.0)
            # Kill a worker while the pool is idle: no send is in
            # flight, so the next step's liveness check catches it
            # before that epoch's work is sent down a dead pipe.
            victim = gateway.fleet._pool._workers[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5.0)
            report = gateway.run(3.0, snapshot_every=1.0)
            assert gateway.fleet.pool_rebuilds >= 1
            assert not gateway.fleet.degraded

        assert report.fingerprint == expected

    def test_stopped_worker_is_rebuilt_and_reaped(self, workload):
        """A worker SIGSTOPped between epochs misses the step's
        deadline: the pool is rebuilt, the answer does not change, and
        the stopped worker is killed and reaped, not left behind."""
        cfg = config(workload, shards=2, shard_chunk=16)
        expected = self.unharmed(workload, cfg)

        with build_gateway(workload, cfg) as gateway:
            gateway.fleet.supervisor = SupervisorPolicy(timeout=0.5)
            gateway.run(2.0, snapshot_every=1.0)
            victim = gateway.fleet._pool._workers[0]
            os.kill(victim.pid, signal.SIGSTOP)
            try:
                report = gateway.run(3.0, snapshot_every=1.0)
                assert gateway.fleet.pool_rebuilds >= 1
                assert not gateway.fleet.degraded
                assert not victim.is_alive()
                assert victim.exitcode is not None
            finally:
                if victim.exitcode is None:
                    os.kill(victim.pid, signal.SIGCONT)

        assert report.fingerprint == expected

    def test_default_deadline_bounds_a_wedged_step(
        self, workload, monkeypatch
    ):
        """With no ``SupervisorPolicy.timeout`` the step still has a
        deadline, so a worker stopped mid-run cannot hang the service."""
        monkeypatch.setattr(sharded, "STEP_DEADLINE", 0.5)
        cfg = config(workload, shards=2, shard_chunk=16)
        with build_gateway(workload, cfg) as reference:
            expected = reference.run(5.0, snapshot_every=1.0).fingerprint

        stopped = []

        def wedge(tick, gateway):
            if tick >= 30 and not stopped:
                stopped.append(gateway.fleet._pool._workers[1])
                os.kill(stopped[0].pid, signal.SIGSTOP)
            return False

        with build_gateway(workload, cfg) as gateway:
            assert gateway.fleet.supervisor.timeout is None
            try:
                report = gateway.run(
                    5.0, snapshot_every=1.0, epoch_hook=wedge
                )
                assert stopped
                assert gateway.fleet.pool_rebuilds >= 1
                assert not gateway.fleet.degraded
                assert stopped[0].exitcode is not None
            finally:
                for victim in stopped:
                    if victim.exitcode is None:
                        os.kill(victim.pid, signal.SIGCONT)

        assert report.fingerprint == expected
