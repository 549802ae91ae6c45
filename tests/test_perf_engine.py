"""The parallel sweep engine (repro.perf.engine).

The load-bearing claims: results come back in input order; a parallel
run (``workers > 1``) is bit-identical to the serial reference
(``workers=1``); per-cell seeds depend only on ``base_seed`` and cell
index; and a cache-warm rerun returns exactly the cold run's values
without recomputing anything.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.schedule import RateSchedule
from repro.perf.cache import ResultCache
from repro.perf.engine import CellResult, SweepCell, SweepEngine
from repro.perf.recorder import BENCH_SCHEMA, BenchRecorder
from repro.perf.sweeps import mbac_grid_cells
from tests.golden_sweep import golden_sweep


# ----------------------------------------------------------------------
# Cell functions must live at module level so they pickle for the pool.
# ----------------------------------------------------------------------
def draw_cell(seed, count):
    """Draws from the engine-provided SeedSequence: seed-determined."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=count).tolist()


def square_cell(value):
    return value * value


def logging_cell(value, log_path):
    """Appends to ``log_path`` on every *computation* (not cache hit)."""
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    return 2 * value


def interrupting_cell(value, log_path, interrupt_on):
    """A logging cell that models Ctrl-C arriving inside one worker."""
    if value == interrupt_on:
        raise KeyboardInterrupt
    import time as _time

    _time.sleep(0.05)
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    return value


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


class TestSweepEngine:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepEngine(workers=0)

    def test_results_in_input_order(self):
        cells = [
            SweepCell(name=f"sq/{v}", fn=square_cell, kwargs={"value": v})
            for v in (3, 1, 4, 1, 5)
        ]
        results = SweepEngine(workers=1).run(cells)
        assert [r.name for r in results] == [c.name for c in cells]
        assert [r.value for r in results] == [9, 1, 16, 1, 25]
        assert all(isinstance(r, CellResult) and not r.cached for r in results)

    def test_seeds_derive_from_base_seed_and_index_only(self):
        values = [r.value for r in SweepEngine(base_seed=7).run(_draw_cells(4))]
        expected = [
            draw_cell(np.random.SeedSequence(7, spawn_key=(index,)), 5)
            for index in range(4)
        ]
        assert values == expected
        # A different base seed is a different sweep.
        other = [r.value for r in SweepEngine(base_seed=8).run(_draw_cells(4))]
        assert other != values

    def test_parallel_is_bit_identical_to_serial(self):
        cells = _draw_cells(6)
        serial = [r.value for r in SweepEngine(workers=1, base_seed=3).run(cells)]
        parallel = [
            r.value for r in SweepEngine(workers=4, base_seed=3).run(cells)
        ]
        assert parallel == serial  # exact float equality, not approx

    def test_cache_warm_rerun_skips_recompute(self, tmp_path):
        log_path = tmp_path / "computed.log"
        cells = [
            SweepCell(
                name=f"log/{v}",
                fn=logging_cell,
                kwargs={"value": v, "log_path": str(log_path)},
                cache_payload={"value": v},
            )
            for v in (10, 20, 30)
        ]
        cache = ResultCache(root=tmp_path / "cache", enabled=True)
        cold = SweepEngine(workers=1, cache=cache).run(cells)
        assert [r.value for r in cold] == [20, 40, 60]
        assert not any(r.cached for r in cold)
        assert log_path.read_text().splitlines() == ["10", "20", "30"]

        warm = SweepEngine(workers=1, cache=cache).run(cells)
        assert [r.value for r in warm] == [r.value for r in cold]
        assert all(r.cached for r in warm)
        # No cell ran again: the log is unchanged.
        assert log_path.read_text().splitlines() == ["10", "20", "30"]

    def test_cells_without_payload_are_never_cached(self, tmp_path):
        log_path = tmp_path / "computed.log"
        cell = SweepCell(
            name="log/uncached",
            fn=logging_cell,
            kwargs={"value": 1, "log_path": str(log_path)},
        )
        cache = ResultCache(root=tmp_path / "cache", enabled=True)
        engine = SweepEngine(workers=1, cache=cache)
        engine.run([cell])
        engine.run([cell])
        assert log_path.read_text().splitlines() == ["1", "1"]
        assert cache.writes == 0

    def test_seeded_cache_keys_include_seed_derivation(self, tmp_path):
        # Two engines with different base seeds draw different numbers,
        # so their cache entries must not collide.
        cache = ResultCache(root=tmp_path, enabled=True)
        first = SweepEngine(base_seed=1, cache=cache).run(
            [
                SweepCell(
                    name="draw/0",
                    fn=draw_cell,
                    kwargs={"count": 3},
                    cache_payload={"count": 3},
                    seed_arg="seed",
                )
            ]
        )
        second = SweepEngine(base_seed=2, cache=cache).run(
            [
                SweepCell(
                    name="draw/0",
                    fn=draw_cell,
                    kwargs={"count": 3},
                    cache_payload={"count": 3},
                    seed_arg="seed",
                )
            ]
        )
        assert not second[0].cached
        assert second[0].value != first[0].value

    def test_keyboard_interrupt_cancels_pending_futures(self, tmp_path):
        # Ctrl-C in one worker must abort the sweep promptly instead of
        # draining the remaining queue: the engine cancels every pending
        # future and terminates the pool.  The pool may have prefetched
        # a couple of cells, but nowhere near the full sweep.
        log_path = tmp_path / "computed.log"
        total = 12
        cells = [
            SweepCell(
                name=f"int/{v}",
                fn=interrupting_cell,
                kwargs={
                    "value": v,
                    "log_path": str(log_path),
                    "interrupt_on": 0,
                },
            )
            for v in range(total)
        ]
        with pytest.raises(KeyboardInterrupt):
            SweepEngine(workers=2).run(cells)
        ran = (
            log_path.read_text().splitlines() if log_path.exists() else []
        )
        assert len(ran) < total

    def test_recorder_gets_one_record_per_cell(self, tmp_path):
        recorder = BenchRecorder(context={"suite": "unit"})
        cells = [
            SweepCell(
                name=f"sq/{v}",
                fn=square_cell,
                kwargs={"value": v},
                cache_payload={"value": v},
                meta={"kind": "square"},
            )
            for v in (2, 3)
        ]
        cache = ResultCache(root=tmp_path, enabled=True)
        SweepEngine(workers=1, cache=cache, recorder=recorder).run(cells)
        SweepEngine(workers=1, cache=cache, recorder=recorder).run(cells)
        assert len(recorder) == 4
        for record in recorder.records:
            assert record["workers"] == 1
            assert record["kind"] == "square"
            assert record["seconds"] >= 0.0
        assert [r["cached"] for r in recorder.records] == [
            False, False, True, True,
        ]
        summary = recorder.summary()
        assert summary["records"] == 4
        assert summary["cache_hits"] == 2
        assert summary["cache_misses"] == 2


class TestBenchRecorder:
    def test_as_dict_and_write(self, tmp_path):
        recorder = BenchRecorder(context={"commit": "abc"})
        recorder.add("cell/a", 0.25, cached=False, nodes_expanded=10)
        with recorder.time("cell/b", cached=True):
            pass
        payload = recorder.as_dict()
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["context"] == {"commit": "abc"}
        assert payload["summary"]["records"] == 2
        assert payload["records"][0]["nodes_expanded"] == 10

        out = tmp_path / "BENCH_test.json"
        recorder.write(out)
        assert json.loads(out.read_text()) == payload

    def test_none_meta_is_dropped(self):
        recorder = BenchRecorder()
        recorder.add("cell", 0.1, note=None, kept=1)
        assert "note" not in recorder.records[0]
        assert recorder.records[0]["kept"] == 1


# ----------------------------------------------------------------------
# A real (tiny) MBAC sweep through the engine, serial vs parallel.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_schedule():
    return RateSchedule(
        [0.0, 2.0, 4.0, 6.0, 8.0],
        [60_000.0, 120_000.0, 90_000.0, 150_000.0, 70_000.0],
        duration=10.0,
        name="tiny",
    )


def _tiny_mbac_cells(schedule):
    return mbac_grid_cells(
        schedule,
        capacity_multiples=(4.0,),
        loads=(0.6, 1.0),
        controllers=("memoryless", "perfect"),
        min_intervals=2,
        max_intervals=2,
    )


def _run_tiny_mbac(schedule, workers):
    cells = _tiny_mbac_cells(schedule)
    return [r.value for r in SweepEngine(workers=workers).run(cells)]


def test_mbac_mini_sweep_parallel_matches_serial(tiny_schedule):
    serial = _run_tiny_mbac(tiny_schedule, workers=1)
    parallel = _run_tiny_mbac(tiny_schedule, workers=2)
    assert len(serial) == 4
    # Bit-identical, not approximately equal: same seeds, same order.
    assert parallel == serial
    assert serial == golden_sweep(_tiny_mbac_cells(tiny_schedule))
    for value in serial:
        assert 0.0 <= value["failure_probability"] <= 1.0
        assert 0.0 <= value["utilization"] <= 1.5
