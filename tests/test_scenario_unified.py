"""The unified serving core: every scenario shards, checkpoints, and
runs the full control plane.

These tests pin the tentpole guarantees of the topology-general
runtime: shards ∈ {0, 1, 4} produce byte-identical fingerprints on
every roster scenario, a kill-and-resume lands on the uninterrupted
fingerprint (including under faults, background, and active overload),
and the previously-illegal spec combinations — MBAC controllers and
non-block overload policies on multi-bottleneck topologies — are
first-class and deterministic.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.cli import main
from repro.faults.injectors import FaultPlan
from repro.scenarios import (
    SCENARIO_NAMES,
    FlowGroupSpec,
    LinkSpec,
    ScenarioHarness,
    ScenarioSpec,
    get_scenario,
    run_scenario,
)
from repro.server.checkpoint import StaleCheckpointError
from repro.traffic.starwars import STAR_WARS_MEAN_RATE

SMOKE = dict(duration=2.0, snapshot_every=1.0)


def hot_spec(policy, controller="always"):
    """A two-bottleneck chain loaded past capacity so the per-link
    overload planes actually engage within a short run."""
    return ScenarioSpec(
        name=f"hot-{policy}",
        description="overload-engagement drill",
        links=(
            LinkSpec("a", "b", 6 * STAR_WARS_MEAN_RATE),
            LinkSpec("b", "c", 6 * STAR_WARS_MEAN_RATE),
        ),
        flows=(
            FlowGroupSpec("ab", "a", "b", load=1.4, initial_calls=4),
            FlowGroupSpec("ac", "a", "c", load=1.4, initial_calls=4),
        ),
        duration=10.0,
        snapshot_every=2.0,
        overload_policy=policy,
        controller=controller,
        overload_classes=3,
        class_weights=(1.0, 2.0, 3.0),
    )


def engaged_spec(policy):
    """:func:`hot_spec` run long enough for its plane to act both ways:
    at the 10 s default a sacrificed call is not yet readmitted, by
    30 s readmissions have run through the per-link agent."""
    spec = hot_spec(policy)
    return spec.replace(duration=30.0) if policy == "sacrifice" else spec


def readmitted(result):
    return sum(link["overload"]["readmitted"] for link in result.links.values())


def resume_drill(spec, shards=0, faults=None, stop_fraction=0.4):
    """run(T); save-at-boundary; fresh harness; restore; run the rest.

    Returns (uninterrupted, resumed) fingerprints; the caller asserts
    equality.  Fault plans are rebuilt per harness, mirroring how a
    restarted process would reconstruct them from the CLI spec.
    """
    import tempfile

    def fresh_faults():
        return None if faults is None else FaultPlan.from_json(
            faults[0], seed=faults[1]
        )

    reference = ScenarioHarness(spec, shards=shards, faults=fresh_faults())
    with reference:
        ref = reference.run()

    path = os.path.join(tempfile.mkdtemp(), "drill.ckpt")
    stop_at = spec.duration * stop_fraction

    def stop_hook(tick, gw):
        if gw.engine.now >= stop_at:
            gw.save(path)
            return True
        return None

    first = ScenarioHarness(spec, shards=shards, faults=fresh_faults())
    with first:
        first.run(epoch_hook=stop_hook)

    second = ScenarioHarness(spec, shards=shards, faults=fresh_faults())
    with second:
        second.restore(path)
        resumed_at = second.gateway.engine.now
        assert 0.0 < resumed_at < spec.duration
        report = second.run(duration=spec.duration - resumed_at)
    return ref.fingerprint, report.fingerprint


class TestShardParity:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_shards_0_1_4_byte_identical(self, name):
        plain = run_scenario(name, **SMOKE)
        one = run_scenario(name, shards=1, **SMOKE)
        four = run_scenario(name, shards=4, **SMOKE)
        assert plain.fingerprint == one.fingerprint
        assert plain.fingerprint == four.fingerprint
        assert plain.groups == four.groups
        assert plain.links == four.links


class TestCheckpointResume:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_kill_and_resume_lands_on_uninterrupted_fingerprint(
        self, name
    ):
        spec = get_scenario(name, **SMOKE)
        ref, resumed = resume_drill(spec)
        assert resumed == ref

    def test_sharded_multi_bottleneck_resume(self):
        spec = get_scenario("parking-lot", **SMOKE)
        ref, resumed = resume_drill(spec, shards=2)
        assert resumed == ref
        # And the sharded resume matches the unsharded run outright.
        assert ref == run_scenario(spec).fingerprint

    def test_faulted_multi_bottleneck_resume(self):
        spec = get_scenario("parking-lot", **SMOKE)
        faults = ('{"denial": {"rate": 0.3, "mean_burst": 4.0}}', 5)
        ref, resumed = resume_drill(spec, faults=faults)
        assert resumed == ref

    def test_background_sharded_resume(self):
        spec = get_scenario("dumbbell-lrd", duration=4.0,
                            snapshot_every=1.0)
        ref, resumed = resume_drill(spec, shards=1)
        assert resumed == ref

    def test_group_stats_survive_round_trip(self, tmp_path):
        path = tmp_path / "pl.ckpt"
        spec = get_scenario("parking-lot", **SMOKE)
        with ScenarioHarness(spec) as first:
            first.run(duration=1.0)
            first.save(path)
            saved = list(first.gateway.group_stats)
        assert len(saved) == len(spec.flows)
        assert sum(stats.reneg_requests for stats in saved) > 0
        with ScenarioHarness(spec) as second:
            second.restore(path)
            assert second.gateway.group_stats == saved

    def test_checkpoint_refuses_a_different_scenario(self, tmp_path):
        # The dumbbell twins derive identical configs and workloads
        # (only the background burst structure differs) — the scenario
        # stamp must keep their checkpoints apart.
        path = tmp_path / "lrd.ckpt"
        spec = get_scenario("dumbbell-lrd", **SMOKE)

        def stop_hook(tick, gw):
            if gw.engine.now >= 0.8:
                gw.save(path)
                return True
            return None

        with ScenarioHarness(spec) as h:
            h.run(epoch_hook=stop_hook)
        twin = ScenarioHarness(get_scenario("dumbbell-poisson", **SMOKE))
        with twin:
            with pytest.raises(StaleCheckpointError, match="scenario"):
                twin.restore(path)


class TestOverloadEverywhere:
    @pytest.mark.parametrize("policy", ["downgrade", "sacrifice"])
    def test_hot_chain_engages_per_link_planes(self, policy):
        result = run_scenario(engaged_spec(policy))
        hot = result.links["a~b"]["overload"]
        assert hot["policy"] == policy
        assert hot["entries"] > 0
        if policy == "downgrade":
            assert hot["escalations"] > 0
        else:
            assert hot["sacrificed"] > 0
            assert readmitted(result) > 0

    @pytest.mark.parametrize("policy", ["downgrade", "sacrifice"])
    def test_hot_chain_deterministic_and_shard_parity(self, policy):
        spec = engaged_spec(policy)
        first = run_scenario(spec)
        second = run_scenario(spec)
        sharded = run_scenario(spec, shards=2)
        assert first.fingerprint == second.fingerprint
        assert first.fingerprint == sharded.fingerprint
        if policy == "sacrifice":
            assert readmitted(first) > 0
            assert readmitted(sharded) > 0

    @pytest.mark.parametrize("policy", ["downgrade", "sacrifice"])
    def test_hot_chain_resume_under_active_overload(self, policy):
        spec = engaged_spec(policy)
        if policy == "sacrifice":
            # The drill crosses readmissions on both sides of the save.
            assert readmitted(run_scenario(spec)) > 0
        ref, resumed = resume_drill(spec, stop_fraction=0.5)
        assert resumed == ref

    def test_mbac_controller_on_multi_bottleneck(self):
        always = run_scenario(hot_spec("block"))
        mbac = run_scenario(hot_spec("block", controller="memory"))
        assert mbac.fingerprint != always.fingerprint
        # MBAC vets calls against the route bottleneck, so it blocks
        # where AlwaysAdmit relies purely on port back-pressure.
        total = sum(g["blocked"] for g in mbac.groups.values())
        assert total > 0

    def test_block_policy_has_no_overload_section(self):
        result = run_scenario("parking-lot", **SMOKE)
        assert all(
            "overload" not in link for link in result.links.values()
        )


class TestSpecCapabilities:
    def test_describe_prints_capability_row(self, capsys):
        assert main(["scenario", "describe", "parking-lot"]) == 0
        out = capsys.readouterr().out
        assert "capability" in out
        assert "shards=yes" in out
        assert "checkpoint=yes" in out
        assert "mbac=no" in out

    def test_describe_reflects_policy_upgrades(self):
        described = get_scenario("parking-lot").replace(
            overload_policy="sacrifice", controller="memory"
        ).describe()
        assert "sacrifice (per-link planes)" in described
        assert "mbac=yes" in described

    def test_replace_revalidates_newly_legal_combinations(self):
        spec = get_scenario("parking-lot")
        assert not spec.single_bottleneck
        upgraded = spec.replace(
            overload_policy="downgrade", controller="memory"
        )
        assert upgraded.overload_policy == "downgrade"
        with pytest.raises(ValueError, match="duration"):
            # Bogus values still fail eagerly through replace().
            upgraded.replace(duration=-1.0)


class TestScenarioCheckpointCli:
    def test_checkpoint_flags_round_trip(self, tmp_path, capsys):
        ckpt = tmp_path / "pl.ckpt"
        full = [
            "scenario", "run", "parking-lot",
            "--duration", "2", "--snapshot-every", "1",
        ]
        assert main(full) == 0
        reference = capsys.readouterr().out

        assert (
            main(
                full
                + [
                    "--checkpoint-every", "24",
                    "--checkpoint-path", str(ckpt),
                ]
            )
            == 0
        )
        checkpointed = capsys.readouterr().out
        assert checkpointed == reference
        assert ckpt.exists()

        assert main(full + ["--resume-from", str(ckpt)]) == 0
        resumed = capsys.readouterr().out
        assert "resumed from" in resumed
        fingerprint = [
            line for line in reference.splitlines()
            if line.startswith("fingerprint")
        ]
        assert fingerprint and fingerprint[0] in resumed

    def test_resume_past_duration_exits_1(self, tmp_path, capsys):
        ckpt = tmp_path / "done.ckpt"
        argv = [
            "scenario", "run", "mixed-classes",
            "--duration", "2", "--snapshot-every", "1",
            "--checkpoint-every", "24", "--checkpoint-path", str(ckpt),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "scenario", "run", "mixed-classes",
                    "--duration", "1",
                    "--resume-from", str(ckpt),
                ]
            )
            == 1
        )
        assert "nothing left" in capsys.readouterr().out

    def test_sigkill_recovery_through_the_cli(self, tmp_path):
        """The crash story end to end: SIGKILL the serving process,
        resume from its last periodic checkpoint, land on the
        uninterrupted fingerprint."""
        ckpt = tmp_path / "storm.ckpt"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        base = [
            sys.executable, "-m", "repro.cli", "scenario", "run",
            "mmpp-storm", "--duration", "30",
        ]
        reference = subprocess.run(
            base, env=env, capture_output=True, text=True, timeout=300
        )
        assert reference.returncode == 0
        ref_line = [
            line for line in reference.stdout.splitlines()
            if line.startswith("fingerprint")
        ][0]

        victim = subprocess.Popen(
            base
            + [
                "--checkpoint-every", "48",
                "--checkpoint-path", str(ckpt),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Kill as soon as the first periodic checkpoint lands (or let
        # a fast run finish — both leave a usable checkpoint behind).
        import time

        for _ in range(600):
            if ckpt.exists() or victim.poll() is not None:
                break
            time.sleep(0.05)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
        assert ckpt.exists()

        resumed = subprocess.run(
            base + ["--resume-from", str(ckpt)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert ref_line in resumed.stdout
