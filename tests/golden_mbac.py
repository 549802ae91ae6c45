"""The frozen dict-walk measurement-based controllers — the golden oracle.

``GoldenMemoryMBAC`` is :class:`repro.admission.controllers.MemoryMBAC`
exactly as it stood while it kept one Python dict of level -> seconds
per active call and walked every one of them on each arrival.
``GoldenReservationTracker`` is the controller-visible view of active
calls it was built on, whose ``snapshot`` re-derives the memoryless
controller's rate distribution with ``np.unique`` on every arrival.

The columnar controllers in ``src/`` must reproduce these bit for bit:
every ``(levels, fractions)`` pair and every admission decision.  The
equivalence tests drive both with the same callbacks and compare with
``np.array_equal``.

Do not "fix" or modernize this file: its value is that it does not
change.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.chernoff import overload_probability


class GoldenReservationTracker:
    """Shared bookkeeping: the controller-visible view of active calls."""

    def __init__(self) -> None:
        self.current_rate: Dict[object, float] = {}

    @property
    def num_active(self) -> int:
        return len(self.current_rate)

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """(levels, fractions) of the rates reserved right now."""
        rates = np.asarray(list(self.current_rate.values()), dtype=float)
        levels, counts = np.unique(rates, return_counts=True)
        return levels, counts / counts.sum()

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        self.current_rate[call_id] = initial_rate

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        if call_id in self.current_rate:
            self.current_rate[call_id] = new_rate

    def on_departure(self, call_id, time: float) -> None:
        self.current_rate.pop(call_id, None)


class GoldenMemorylessMBAC:
    """The memoryless controller on the ``np.unique`` snapshot."""

    def __init__(self, failure_target: float) -> None:
        self.failure_target = failure_target
        self._tracker = GoldenReservationTracker()

    @property
    def num_active(self) -> int:
        return self._tracker.num_active

    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        active = self._tracker.num_active
        if active == 0:
            return True
        levels, fractions = self._tracker.snapshot()
        estimate = overload_probability(levels, fractions, active + 1, capacity)
        return estimate <= self.failure_target

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        self._tracker.on_admit(call_id, initial_rate, time)

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        self._tracker.on_reservation(call_id, new_rate, time)

    def on_departure(self, call_id, time: float) -> None:
        self._tracker.on_departure(call_id, time)


class GoldenMemoryMBAC:
    """Measurement-based admission with reservation history, walked per
    call on every arrival (the pre-columnar implementation)."""

    def __init__(
        self,
        failure_target: float,
        min_history_seconds: float = 0.0,
        retain_departed: bool = True,
    ) -> None:
        if not 0.0 < failure_target < 1.0:
            raise ValueError("failure_target must be in (0, 1)")
        if min_history_seconds < 0:
            raise ValueError("min_history_seconds must be non-negative")
        self.failure_target = failure_target
        self.min_history_seconds = min_history_seconds
        self.retain_departed = retain_departed
        self._tracker = GoldenReservationTracker()
        # Per-call accumulated seconds at each level, plus the open segment.
        self._history: Dict[object, Dict[float, float]] = {}
        self._segment_start: Dict[object, float] = {}
        self._departed_mass: Dict[float, float] = defaultdict(float)

    @property
    def num_active(self) -> int:
        return self._tracker.num_active

    # ------------------------------------------------------------------
    def _close_segment(self, call_id, time: float) -> None:
        start = self._segment_start.get(call_id)
        if start is None:
            return
        rate = self._tracker.current_rate.get(call_id)
        if rate is None:
            return
        elapsed = max(0.0, time - start)
        if elapsed > 0.0:
            self._history[call_id][rate] += elapsed
        self._segment_start[call_id] = time

    def pooled_history(
        self, time: float
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(levels, fractions) pooled over the tracked call histories."""
        mass: Dict[float, float] = defaultdict(float)
        mass.update(self._departed_mass)
        for call_id in self._history:
            self._close_segment(call_id, time)
            for level, seconds in self._history[call_id].items():
                mass[level] += seconds
        total = sum(mass.values())
        if total <= max(self.min_history_seconds, 0.0):
            return None
        levels = np.asarray(sorted(mass), dtype=float)
        fractions = np.asarray([mass[level] for level in levels]) / total
        return levels, fractions

    # ------------------------------------------------------------------
    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        active = self._tracker.num_active
        if active == 0:
            return True
        pooled = self.pooled_history(time)
        if pooled is None:
            return True
        levels, fractions = pooled
        estimate = overload_probability(levels, fractions, active + 1, capacity)
        return estimate <= self.failure_target

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        self._tracker.on_admit(call_id, initial_rate, time)
        self._history[call_id] = defaultdict(float)
        self._segment_start[call_id] = time

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        self._close_segment(call_id, time)
        self._tracker.on_reservation(call_id, new_rate, time)

    def on_departure(self, call_id, time: float) -> None:
        self._close_segment(call_id, time)
        self._tracker.on_departure(call_id, time)
        history = self._history.pop(call_id, None)
        self._segment_start.pop(call_id, None)
        if self.retain_departed and history:
            for level, seconds in history.items():
                self._departed_mass[level] += seconds
