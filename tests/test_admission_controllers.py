"""Admission controllers (Section VI)."""

import numpy as np
import pytest

from repro.admission.controllers import (
    AlwaysAdmit,
    MemoryMBAC,
    MemorylessMBAC,
    PerfectKnowledgeCAC,
)

LEVELS = np.array([100.0, 300.0, 900.0])
FRACTIONS = np.array([0.5, 0.4, 0.1])


class TestAlwaysAdmit:
    def test_admits_everything(self):
        controller = AlwaysAdmit()
        for _ in range(100):
            assert controller.admit(10.0, 0.0)

    def test_tracks_population(self):
        controller = AlwaysAdmit()
        controller.on_admit("a", 5.0, 0.0)
        controller.on_admit("b", 5.0, 0.0)
        assert controller.num_active == 2
        controller.on_departure("a", 1.0)
        assert controller.num_active == 1


class TestPerfectKnowledge:
    def test_admits_up_to_chernoff_bound(self):
        controller = PerfectKnowledgeCAC(LEVELS, FRACTIONS, 1e-3)
        capacity = 10_000.0
        limit = controller.max_calls(capacity)
        assert limit > 0
        for index in range(limit):
            assert controller.admit(capacity, 0.0)
            controller.on_admit(index, 100.0, 0.0)
        assert not controller.admit(capacity, 0.0)

    def test_denies_even_with_spare_capacity(self):
        """The safeguard: rejects before the link is full."""
        controller = PerfectKnowledgeCAC(LEVELS, FRACTIONS, 1e-6)
        capacity = 10_000.0
        limit = controller.max_calls(capacity)
        mean = float(LEVELS @ FRACTIONS)
        # The admitted calls' mean load is below capacity: slack remains.
        assert limit * mean < capacity

    def test_departures_reopen_admission(self):
        controller = PerfectKnowledgeCAC(LEVELS, FRACTIONS, 1e-3)
        capacity = 5_000.0
        limit = controller.max_calls(capacity)
        for index in range(limit):
            controller.on_admit(index, 100.0, 0.0)
        assert not controller.admit(capacity, 1.0)
        controller.on_departure(0, 2.0)
        assert controller.admit(capacity, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PerfectKnowledgeCAC(LEVELS, FRACTIONS, 0.0)


class TestMemoryless:
    def test_empty_system_admits(self):
        controller = MemorylessMBAC(1e-3)
        assert controller.admit(1.0, 0.0)

    def test_snapshot_drives_decision(self):
        """If every active call currently sits at a low rate, the
        memoryless controller happily over-admits — the paper's flaw."""
        controller = MemorylessMBAC(1e-3)
        capacity = 2_000.0
        for index in range(15):
            controller.on_admit(index, 100.0, 0.0)
        # Snapshot says every call needs 100; 16 calls * 100 < 2000.
        assert controller.admit(capacity, 1.0)

    def test_high_snapshot_blocks(self):
        controller = MemorylessMBAC(1e-3)
        capacity = 2_000.0
        for index in range(3):
            controller.on_admit(index, 900.0, 0.0)
        # 4 * 900 = 3600 > 2000 with certainty -> reject.
        assert not controller.admit(capacity, 1.0)

    def test_reservation_updates_snapshot(self):
        controller = MemorylessMBAC(1e-3)
        capacity = 2_000.0
        for index in range(3):
            controller.on_admit(index, 900.0, 0.0)
        for index in range(3):
            controller.on_reservation(index, 100.0, 1.0)
        assert controller.admit(capacity, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemorylessMBAC(1.0)


class TestMemory:
    def test_empty_system_admits(self):
        controller = MemoryMBAC(1e-3)
        assert controller.admit(1.0, 0.0)

    def test_history_remembers_past_peaks(self):
        """The key robustness property: even if all calls are currently
        cheap, remembered expensive phases keep the estimate honest."""
        capacity = 2_000.0
        memoryless = MemorylessMBAC(1e-3)
        memory = MemoryMBAC(1e-3)
        for controller in (memoryless, memory):
            for index in range(6):
                controller.on_admit(index, 900.0, 0.0)
            for index in range(6):
                # After a long expensive phase, everyone drops to 100.
                controller.on_reservation(index, 100.0, 1000.0)
        # Snapshot view: 7 * 100 << 2000 -> memoryless admits.
        assert memoryless.admit(capacity, 1001.0)
        # History view: calls spend ~100% of time at 900 so far -> reject.
        assert not memory.admit(capacity, 1001.0)

    def test_pooled_history_fractions(self):
        controller = MemoryMBAC(1e-3)
        controller.on_admit("a", 100.0, 0.0)
        controller.on_reservation("a", 300.0, 10.0)
        pooled = controller.pooled_history(30.0)
        assert pooled is not None
        levels, fractions = pooled
        assert np.allclose(levels, [100.0, 300.0])
        assert np.allclose(fractions, [1 / 3, 2 / 3])

    def test_departed_calls_retained_by_default(self):
        controller = MemoryMBAC(1e-3)
        controller.on_admit("a", 900.0, 0.0)
        controller.on_departure("a", 10.0)
        pooled = controller.pooled_history(20.0)
        assert pooled is not None
        levels, fractions = pooled
        assert np.allclose(levels, [900.0])
        assert np.allclose(fractions, [1.0])

    def test_departed_calls_drop_when_not_retained(self):
        controller = MemoryMBAC(1e-3, retain_departed=False)
        controller.on_admit("a", 900.0, 0.0)
        controller.on_departure("a", 10.0)
        assert controller.pooled_history(20.0) is None

    def test_retained_history_converges_to_true_marginal(self):
        controller = MemoryMBAC(1e-3)
        for index in range(20):
            start = index * 100.0
            controller.on_admit(index, 100.0, start)
            controller.on_reservation(index, 300.0, start + 75.0)
            controller.on_departure(index, start + 100.0)
        levels, fractions = controller.pooled_history(2000.0)
        assert np.allclose(levels, [100.0, 300.0])
        assert np.allclose(fractions, [0.75, 0.25])

    def test_min_history_defers_to_admit(self):
        controller = MemoryMBAC(1e-3, min_history_seconds=100.0)
        controller.on_admit("a", 900.0, 0.0)
        # Only 1 second of history: below threshold, admit.
        assert controller.admit(1_000.0, 1.0)

    def test_non_positive_capacity_raises(self):
        controller = MemoryMBAC(1e-3)
        controller.on_admit("a", 100.0, 0.0)
        controller.on_reservation("a", 300.0, 5.0)
        for capacity in (0.0, -1.0):
            with pytest.raises(ValueError):
                controller.admit(capacity, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryMBAC(0.0)
        with pytest.raises(ValueError):
            MemoryMBAC(1e-3, min_history_seconds=-1.0)
