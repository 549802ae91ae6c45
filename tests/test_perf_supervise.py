"""The sweep engine under supervision (repro.perf.engine + supervise).

Every value is compared against ``tests/golden_sweep.py``, the frozen
serial loop.  ``run()`` returns every cell or raises the first failed
cell's own exception; ``run_supervised()`` returns the survivors and
the report.

The acceptance chaos test lives here: with injected worker kills,
hangs, and poison exceptions, a supervised parallel sweep completes,
quarantines only the intentionally-poisoned cells, and every surviving
cell's result is bit-identical to the unfaulted serial reference;
killing a sweep midway and rerunning with resume recomputes zero
completed cells and yields identical final output.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.faults.harness import WorkerFault, chaos_sweep_cells
from repro.perf.cache import ResultCache
from repro.perf.engine import SweepCell, SweepEngine
from repro.perf.recorder import BenchRecorder
from repro.perf.supervise import (
    STATUS_CACHED,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RESUMED,
    STATUS_RETRIED,
    STATUS_TIMEOUT,
    SupervisorPolicy,
)
from tests.golden_sweep import golden_sweep


# ----------------------------------------------------------------------
# Cell functions must live at module level so they pickle for the pool.
# ----------------------------------------------------------------------
def draw_cell(seed, count):
    rng = np.random.default_rng(seed)
    return rng.normal(size=count).tolist()


def logging_draw_cell(seed, count, log_path, label):
    """Like ``draw_cell`` but records every actual computation."""
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{label}\n")
    rng = np.random.default_rng(seed)
    return rng.normal(size=count).tolist()


def _draw_cells(count):
    return [
        SweepCell(
            name=f"draw/{index}",
            fn=draw_cell,
            kwargs={"count": 5},
            seed_arg="seed",
        )
        for index in range(count)
    ]


def _logging_cells(count, log_path):
    return [
        SweepCell(
            name=f"draw/{index}",
            fn=logging_draw_cell,
            kwargs={
                "count": 5,
                "log_path": str(log_path),
                "label": f"draw/{index}",
            },
            seed_arg="seed",
        )
        for index in range(count)
    ]


def _golden(count):
    """The frozen serial loop's values for ``_draw_cells(count)``."""
    return golden_sweep(_draw_cells(count), base_seed=3)


def _golden_by_name(count):
    return {
        f"draw/{index}": value for index, value in enumerate(_golden(count))
    }


class PoisonedCellError(RuntimeError):
    """A cell's own exception, distinct from anything the engine raises."""


def poisoned_cell(label):
    raise PoisonedCellError(label)


def _poisoned_cells(count, poisoned):
    """``_draw_cells(count)`` with the cells at ``poisoned`` always raising."""
    cells = _draw_cells(count)
    for index in poisoned:
        cells[index] = SweepCell(
            name=f"poison/{index}",
            fn=poisoned_cell,
            kwargs={"label": f"cell {index}"},
        )
    return cells


def _cacheable(cells):
    """The same cells, keyed into the result cache by their kwargs."""
    return [replace(cell, cache_payload=cell.kwargs) for cell in cells]


def _fast_policy(**overrides):
    defaults = dict(
        max_attempts=3,
        backoff_base=0.01,
        backoff_jitter=0.0,
        poll_interval=0.02,
    )
    defaults.update(overrides)
    return SupervisorPolicy(**defaults)


class TestSupervisorPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            SupervisorPolicy(max_pool_rebuilds=-1)

    def test_backoff_is_exponential_and_capped(self):
        policy = SupervisorPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3,
            backoff_jitter=0.0,
        )
        rng = np.random.default_rng(0)
        delays = [policy.backoff_delay(k, rng) for k in (2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = SupervisorPolicy(
            backoff_base=1.0, backoff_factor=1.0, backoff_jitter=0.5
        )
        first = [
            policy.backoff_delay(2, np.random.default_rng(42))
            for _ in range(3)
        ]
        assert first[0] == first[1] == first[2]
        assert 1.0 <= first[0] <= 1.5


class TestHappyPath:
    def test_matches_plain_engine_bit_for_bit(self):
        run = SweepEngine(base_seed=3).run_supervised(_draw_cells(4))
        assert [r.value for r in run.results] == _golden(4)
        assert run.report.counts() == {STATUS_OK: 4}
        assert run.report.pool_rebuilds == 0
        assert not run.report.degraded_to_serial

    def test_empty_sweep(self, tmp_path):
        run = SweepEngine(
            workers=2, journal_path=tmp_path / "empty.jsonl"
        ).run_supervised([])
        assert run.results == []
        assert run.report.counts() == {}

    def test_serial_retry_then_success(self, tmp_path):
        cells = chaos_sweep_cells(
            _draw_cells(3),
            {1: WorkerFault("raise", times=1)},
            tmp_path / "markers",
        )
        run = SweepEngine(
            base_seed=3, policy=_fast_policy()
        ).run_supervised(cells)
        reference = _golden(3)
        assert [r.value for r in run.results] == reference
        statuses = [c.status for c in run.report.cells]
        assert statuses == [STATUS_OK, STATUS_RETRIED, STATUS_OK]
        assert run.report.cells[1].attempts == 2

    def test_serial_quarantine_after_max_attempts(self, tmp_path):
        cells = chaos_sweep_cells(
            _draw_cells(3),
            {1: WorkerFault("raise", times=-1)},
            tmp_path / "markers",
        )
        run = SweepEngine(
            base_seed=3, policy=_fast_policy(max_attempts=2)
        ).run_supervised(cells)
        assert [c.name for c in run.results] == ["draw/0", "draw/2"]
        bad = run.report.cells[1]
        assert bad.status == STATUS_QUARANTINED
        assert bad.attempts == 2
        assert "ChaosWorkerError" in bad.error

    def test_recorder_receives_report_and_statuses(self, tmp_path):
        recorder = BenchRecorder()
        cells = chaos_sweep_cells(
            _draw_cells(2),
            {0: WorkerFault("raise", times=1)},
            tmp_path / "markers",
        )
        SweepEngine(
            base_seed=3, recorder=recorder, policy=_fast_policy()
        ).run_supervised(cells)
        payload = recorder.as_dict()
        assert payload["sweep_report"]["counts"] == {
            STATUS_RETRIED: 1, STATUS_OK: 1,
        }
        statuses = {
            record["name"]: record["status"]
            for record in payload["records"]
        }
        assert statuses == {
            "draw/0": STATUS_RETRIED, "draw/1": STATUS_OK,
        }


class TestGoldenOracle:
    """Serial, parallel and cache-warm runs equal the frozen loop."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_and_warm_runs_equal_golden(self, tmp_path, workers):
        cache = ResultCache(root=tmp_path, enabled=True)
        cells = _cacheable(_draw_cells(6))
        engine = SweepEngine(workers=workers, base_seed=3, cache=cache)
        cold = engine.run(cells)
        warm = engine.run(cells)
        assert [r.value for r in cold] == _golden(6)
        assert [r.value for r in warm] == _golden(6)
        assert not any(r.cached for r in cold)
        assert all(r.cached for r in warm)

    def test_default_policy_is_one_attempt_no_timeout(self):
        policy = SweepEngine().policy
        assert policy == SupervisorPolicy()
        assert policy.max_attempts == 1
        assert policy.timeout is None


class TestRunContract:
    """``run()`` returns every cell or raises; never a short list."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "policy",
        [None, SupervisorPolicy(max_attempts=1), _fast_policy(max_attempts=2)],
        ids=["default", "one-attempt", "retrying"],
    )
    def test_poisoned_cell_raises_its_own_exception(self, workers, policy):
        engine = SweepEngine(workers=workers, base_seed=3, policy=policy)
        with pytest.raises(PoisonedCellError, match="^cell 1$"):
            engine.run(_poisoned_cells(4, poisoned=(1,)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failed_cell_in_input_order_is_raised(self, workers):
        engine = SweepEngine(workers=workers, base_seed=3)
        with pytest.raises(PoisonedCellError, match="^cell 2$"):
            engine.run(_poisoned_cells(6, poisoned=(5, 2, 4)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_survivors_reach_the_cache_before_the_raise(
        self, tmp_path, workers
    ):
        cache = ResultCache(root=tmp_path, enabled=True)
        cells = _cacheable(_poisoned_cells(4, poisoned=(0,)))
        engine = SweepEngine(workers=workers, base_seed=3, cache=cache)
        with pytest.raises(PoisonedCellError):
            engine.run(cells)
        run = engine.run_supervised(cells)
        statuses = [c.status for c in run.report.cells]
        assert statuses == [STATUS_QUARANTINED] + [STATUS_CACHED] * 3
        assert [r.value for r in run.results] == _golden(4)[1:]


class TestChaosAcceptance:
    """The ISSUE acceptance scenario: kills, hangs, and poison at once."""

    def _chaos_run(self, tmp_path, resume=False, wrapped=True):
        cells = _draw_cells(8)
        if wrapped:
            cells = chaos_sweep_cells(
                cells,
                {
                    1: WorkerFault("kill", times=1),
                    3: WorkerFault("hang", times=1, hang_seconds=30.0),
                    5: WorkerFault("raise", times=-1),
                },
                tmp_path / "markers",
            )
        engine = SweepEngine(
            workers=2,
            base_seed=3,
            policy=_fast_policy(timeout=3.0),
            journal_path=tmp_path / "chaos.journal.jsonl",
            resume=resume,
        )
        return engine.run_supervised(cells)

    def test_survivors_bit_identical_quarantine_only_poisoned(
        self, tmp_path
    ):
        run = self._chaos_run(tmp_path)
        reference = _golden_by_name(8)

        # Only the permanently-poisoned cell is quarantined.
        assert [c.name for c in run.report.quarantined] == ["draw/5"]
        assert "ChaosWorkerError" in run.report.quarantined[0].error

        # Every survivor is present and bit-identical to the unfaulted
        # serial reference, in input order.
        names = [r.name for r in run.results]
        assert names == [f"draw/{i}" for i in range(8) if i != 5]
        for result in run.results:
            assert result.value == reference[result.name]

        # The kill and the hang were survived, visibly.  The hang ends
        # as a timeout when its deadline expires first, or as a plain
        # retry when the kill's pool rebuild reclaims it earlier — both
        # are correct supervision; the deterministic timeout path is
        # pinned down separately in TestTimeouts.
        assert run.report.cells[1].status == STATUS_RETRIED
        assert run.report.cells[1].pool_failures >= 1
        assert run.report.cells[3].status in (STATUS_TIMEOUT, STATUS_RETRIED)
        assert run.report.cells[3].attempts >= 2
        assert run.report.pool_rebuilds >= 1
        assert not run.report.degraded_to_serial

    def test_resume_after_fix_recomputes_only_quarantined(self, tmp_path):
        first = self._chaos_run(tmp_path)
        reference = _golden_by_name(8)
        # The "fix": rerun the same sweep without the faults, resuming.
        second = self._chaos_run(tmp_path, resume=True, wrapped=False)
        assert len(second.report.resumed) == 7
        assert second.report.cells[5].status == STATUS_OK
        assert not second.report.stale_journal
        assert [r.name for r in second.results] == [
            f"draw/{i}" for i in range(8)
        ]
        for result in second.results:
            assert result.value == reference[result.name]
        del first


class TestTimeouts:
    def test_timeout_on_final_cell(self, tmp_path):
        # The hang lands on the last cell, when the queue is empty and
        # the supervisor is only waiting on deadlines.
        cells = chaos_sweep_cells(
            _draw_cells(3),
            {2: WorkerFault("hang", times=1, hang_seconds=30.0)},
            tmp_path / "markers",
        )
        run = SweepEngine(
            workers=2, base_seed=3, policy=_fast_policy(timeout=1.0)
        ).run_supervised(cells)
        reference = _golden(3)
        assert [r.value for r in run.results] == reference
        assert run.report.cells[2].status == STATUS_TIMEOUT
        assert run.report.cells[2].timeouts == 1


class TestUnpicklableExceptions:
    def test_poison_pickle_is_quarantined_not_fatal(self, tmp_path):
        cells = chaos_sweep_cells(
            _draw_cells(3),
            {1: WorkerFault("raise-unpicklable", times=-1)},
            tmp_path / "markers",
        )
        run = SweepEngine(
            workers=2, base_seed=3, policy=_fast_policy(max_attempts=2)
        ).run_supervised(cells)
        assert [c.name for c in run.results] == ["draw/0", "draw/2"]
        bad = run.report.cells[1]
        assert bad.status == STATUS_QUARANTINED
        assert bad.error  # the pool's pickling error, whatever its type


class TestJournalResume:
    def test_crash_midway_resume_recomputes_zero_completed(self, tmp_path):
        log_path = tmp_path / "compute.log"
        journal_path = tmp_path / "sweep.journal.jsonl"
        cells = _logging_cells(6, log_path)

        full = SweepEngine(
            workers=1, base_seed=3, journal_path=journal_path
        ).run_supervised(cells)
        reference = [r.value for r in full.results]

        # Simulate a crash after 4 completed cells: keep the header and
        # the first four entries, drop the rest.
        lines = journal_path.read_text(encoding="utf-8").splitlines(True)
        journal_path.write_text("".join(lines[:5]), encoding="utf-8")
        log_path.write_text("", encoding="utf-8")

        resumed = SweepEngine(
            workers=1,
            base_seed=3,
            journal_path=journal_path,
            resume=True,
        ).run_supervised(_logging_cells(6, log_path))

        # Zero completed cells recomputed; only the lost tail ran.
        computed = log_path.read_text(encoding="utf-8").split()
        assert computed == ["draw/4", "draw/5"]
        statuses = [c.status for c in resumed.report.cells]
        assert statuses == [STATUS_RESUMED] * 4 + [STATUS_OK] * 2
        assert [r.value for r in resumed.results] == reference

    def test_stale_fingerprint_recomputes_everything(self, tmp_path):
        log_path = tmp_path / "compute.log"
        journal_path = tmp_path / "sweep.journal.jsonl"

        SweepEngine(
            workers=1, base_seed=3, journal_path=journal_path
        ).run_supervised(_logging_cells(3, log_path))
        log_path.write_text("", encoding="utf-8")

        # Same journal, different base seed: the fingerprint no longer
        # matches, so trusting the old values would be wrong.
        resumed = SweepEngine(
            workers=1,
            base_seed=4,
            journal_path=journal_path,
            resume=True,
        ).run_supervised(_logging_cells(3, log_path))

        assert resumed.report.stale_journal
        computed = log_path.read_text(encoding="utf-8").split()
        assert computed == ["draw/0", "draw/1", "draw/2"]
        assert [c.status for c in resumed.report.cells] == [STATUS_OK] * 3

    def test_report_to_dict_shape(self, tmp_path):
        run = SweepEngine(
            base_seed=3, journal_path=tmp_path / "j.jsonl"
        ).run_supervised(_draw_cells(2))
        payload = run.report.to_dict()
        assert json.dumps(payload)  # JSON-serializable end to end
        assert payload["counts"] == {STATUS_OK: 2}
        assert payload["journal"].endswith("j.jsonl")
        assert [cell["name"] for cell in payload["cells"]] == [
            "draw/0", "draw/1",
        ]
