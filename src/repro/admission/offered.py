"""Class-aware offered-load accounting.

The overload control plane (:mod:`repro.overload`) differentiates calls
by service class, so "how much load did each class offer and how was it
treated" becomes a first-class observable: per-class arrival, blocking,
admission, and departure tallies with the same counting identities the
aggregate gateway counters keep (``arrivals == blocked + admitted``
per class).  The accountant is pure bookkeeping — no RNG, no clocks —
so wiring it into a seeded run cannot perturb determinism.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np


class OfferedLoadAccountant:
    """Per-class call-lifecycle tallies for one gateway run."""

    def __init__(self, num_classes: int) -> None:
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        self.num_classes = int(num_classes)
        self.arrivals = [0] * self.num_classes
        self.blocked = [0] * self.num_classes
        self.admitted = [0] * self.num_classes
        self.departed = [0] * self.num_classes

    def _check(self, call_class: int) -> int:
        if not 0 <= call_class < self.num_classes:
            raise ValueError(
                f"call_class must be in [0, {self.num_classes}), "
                f"got {call_class}"
            )
        return int(call_class)

    def on_arrival(self, call_class: int) -> None:
        self.arrivals[self._check(call_class)] += 1

    def on_blocked(self, call_class: int) -> None:
        self.blocked[self._check(call_class)] += 1

    def on_admitted(self, call_class: int) -> None:
        self.admitted[self._check(call_class)] += 1

    def on_departure(self, call_class: int) -> None:
        self.departed[self._check(call_class)] += 1

    def record_batch(self, tally: str, call_classes: np.ndarray) -> None:
        """One ``on_<tally>`` per entry of ``call_classes`` (``tally`` is
        ``"arrivals"``, ``"blocked"``, ``"admitted"`` or ``"departed"``),
        added as per-class counts."""
        classes = np.asarray(call_classes, dtype=np.int64)
        if classes.size == 0:
            return
        self._check(int(classes.min()))
        self._check(int(classes.max()))
        counts = getattr(self, tally)
        for call_class, count in enumerate(
            np.bincount(classes, minlength=self.num_classes).tolist()
        ):
            counts[call_class] += count

    def active(self) -> List[int]:
        """Calls in service per class (admitted minus departed)."""
        return [
            admitted - departed
            for admitted, departed in zip(self.admitted, self.departed)
        ]

    def blocking_fractions(self) -> List[float]:
        """Per-class P(block); classes with no arrivals report 0.0."""
        return [
            blocked / arrivals if arrivals else 0.0
            for blocked, arrivals in zip(self.blocked, self.arrivals)
        ]

    def consistent(self) -> bool:
        """The per-class counting identities all balance."""
        return all(
            arrivals == blocked + admitted and admitted >= departed
            for arrivals, blocked, admitted, departed in zip(
                self.arrivals, self.blocked, self.admitted, self.departed
            )
        )

    def to_dict(self) -> Dict[str, List[int]]:
        return {
            "arrivals": list(self.arrivals),
            "blocked": list(self.blocked),
            "admitted": list(self.admitted),
            "departed": list(self.departed),
        }

    def __repr__(self) -> str:
        return (
            f"OfferedLoadAccountant(classes={self.num_classes}, "
            f"arrivals={sum(self.arrivals)}, blocked={sum(self.blocked)})"
        )
