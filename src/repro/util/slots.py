"""Key-to-slot interning for slot-indexed state.

The link and the switch port keep per-source state in float64 columns
indexed by small non-negative integer slots, grown on demand
(:func:`grown`), so an epoch of renegotiations commits with one fancy
index.  The gateway already owns such slots (its call-pool slots).
Callers that identify sources some other way — call ids that grow
without bound, names — intern their keys
through a :class:`SlotInterner`: a released key's slot is reused, so
slot numbers (and therefore column lengths) stay bounded by the peak
number of live keys, not by how many keys were ever issued.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

import numpy as np

#: A gateway's event heap addresses a call by the key
#: ``group * GROUP_STRIDE + slot`` (flow group, pool slot).  The stride is
#: above any pool size (a 1M-call fleet grows to 2**21 slots), and every
#: key stays exact as a float64 in the checkpoint's heap codec.
GROUP_STRIDE = 1 << 32


def grown(column: np.ndarray, size: int) -> np.ndarray:
    """``column`` doubled (zero-filled) until it holds ``size`` entries;
    the column itself when it already does."""
    length = column.size
    if size <= length:
        return column
    while length < size:
        length *= 2
    wider = np.zeros(length, dtype=column.dtype)
    wider[: column.size] = column
    return wider


class SlotInterner:
    """Maps live keys to dense slots ``0..n-1``; freed slots are reused
    last-in first-out, and a fresh slot is handed out only when none is
    free (live slots plus free slots always cover ``0..n-1``)."""

    def __init__(self) -> None:
        self.slot_of: Dict[Hashable, int] = {}
        self._free: List[int] = []

    def intern(self, key: Hashable) -> int:
        """The key's slot, assigning one on first sight."""
        slot = self.slot_of.get(key)
        if slot is None:
            slot = self._free.pop() if self._free else len(self.slot_of)
            self.slot_of[key] = slot
        return slot

    def release(self, key: Hashable) -> int:
        """Forget a live key; its slot goes back to the free list."""
        slot = self.slot_of.pop(key)
        self._free.append(slot)
        return slot

    def state_dict(self) -> Dict[str, object]:
        return {"slot_of": dict(self.slot_of), "free": list(self._free)}

    def load_state(self, state: Dict[str, object]) -> None:
        self.slot_of = dict(state["slot_of"])  # type: ignore[arg-type]
        self._free = list(state["free"])  # type: ignore[arg-type]
