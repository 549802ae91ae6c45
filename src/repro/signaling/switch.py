"""Switch-port renegotiation processing (Section III-B).

The controller's fast path is two lookups and one comparison: "it checks
if the current port utilization plus the rate difference is less than the
port capacity.  If this is true, then the renegotiation request succeeds,
and the VCI and port statistics are updated.  Otherwise, the controller
modifies the ER field to deny the request."

Delta cells need no per-VCI state — only the aggregate utilization is
updated, which is the scaling argument of Section III-C ("RCBR support
does not require per-VCI state").  Absolute (resynchronisation) cells do
consult an optional per-VCI table; a port configured without one simply
treats them as refreshes of its aggregate from the table-less delta flow.

The per-VCI table is a float64 column indexed by VCI (VCIs are the
gateway's call-pool slots, or keys a caller interned with
:class:`~repro.util.slots.SlotInterner`), grown on demand, so an epoch
of delta cells commits with one fancy index.  Reserved negative VCIs —
the scenario runtime's background cross-traffic VCI — live in a side
dict: a negative index into the column would silently alias its tail.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.signaling.messages import CellKind, RmCell
from repro.util.slots import grown

# Block length for the denial fixpoint in delta_batch_apply.  Each
# round's cost is a cumsum over the block, and rounds scale with the
# number of denials inside the block, so blocking bounds total work at
# O(denials * block) instead of O(denials * batch).  The left-collapse
# progress guarantee (>= 1 decision per round) caps rounds per block at
# the block length, so convergence never depends on a tuned limit.
FIXPOINT_BLOCK = 2048


class SwitchPort:
    """One output port: capacity, aggregate utilization, counters.

    Per-VCI value semantics match a dict that drops entries at
    ``<= 1e-12``: an absent VCI *is* a stored ``0.0``, so every
    utilization fold is exact, and :meth:`rate_of` reports zero as
    None.  ``utilization`` stays a Python float: every column read
    feeding it is ``float()``-cast so ``np.float64`` (whose repr
    differs) never leaks into fingerprinted snapshot fields.
    """

    def __init__(
        self,
        capacity: float,
        name: str = "port",
        track_per_vci: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = float(capacity)
        self.name = name
        self.utilization = 0.0
        self.track_per_vci = track_per_vci
        self._vci_rates: Optional[np.ndarray] = (
            np.zeros(16) if track_per_vci else None
        )
        self._reserved_rates: Dict[int, float] = {}
        self._outages: List[Tuple[float, float]] = []
        self.cells_processed = 0
        self.requests_denied = 0

    # ------------------------------------------------------------------
    @property
    def headroom(self) -> float:
        return self.capacity - self.utilization

    def rate_of(self, vci: int) -> Optional[float]:
        if self._vci_rates is None:
            return None
        rate = self._rate(vci)
        return rate if rate != 0.0 else None

    def _rate(self, vci: int) -> float:
        if vci < 0:
            return self._reserved_rates.get(vci, 0.0)
        table = self._vci_rates
        return float(table[vci]) if vci < table.size else 0.0

    # ------------------------------------------------------------------
    # Transient outages
    # ------------------------------------------------------------------
    def schedule_outage(self, start: float, end: float) -> None:
        """Declare the port unreachable during ``[start, end)``.

        Cells arriving while a port is down are silently eaten by the
        path (no deny cell returns), so the source only learns of the
        failure via its request timeout.  Reservations survive an outage
        — only the control plane is down.
        """
        if start < 0 or end <= start:
            raise ValueError("need 0 <= start < end")
        self._outages.append((float(start), float(end)))
        self._outages.sort()

    def available_at(self, time: float) -> bool:
        if not self._outages:  # the common case, on every cell of every hop
            return True
        return not any(start <= time < end for start, end in self._outages)

    @property
    def has_outages(self) -> bool:
        """Whether any outage window is scheduled (past or future)."""
        return bool(self._outages)

    # ------------------------------------------------------------------
    def provision(self, vci: int, rate: float) -> None:
        """Install a connection's setup reservation directly.

        Call setup is the admission controller's decision, not the ER
        fast path's, so provisioning bypasses the capacity check: the
        port simply accounts the reserved rate so that subsequent delta
        cells see the true aggregate utilization.  A CAC that over-admits
        leaves the port above capacity, and every increase is then denied
        until departures bring the aggregate back down — which is exactly
        the back-pressure the renegotiation failure statistics measure.
        """
        if rate < 0:
            raise ValueError("rates must be non-negative")
        self.utilization += rate
        self._bump_vci(vci, rate)

    def provision_batch(self, vcis: Sequence, rates: np.ndarray) -> None:
        """:meth:`provision` per entry, in order (non-negative VCIs, none
        repeated).  Every rate is checked before any state changes, and
        the utilization is the scalar loop's running sum as one
        ``np.cumsum`` left fold."""
        vcis = np.asarray(vcis, dtype=np.int64)
        rates = np.asarray(rates, dtype=np.float64)
        if rates.size == 0:
            return
        if np.any(rates < 0):
            raise ValueError("rates must be non-negative")
        if int(vcis.min()) < 0:
            raise ValueError("provision_batch takes non-negative VCIs only")
        totals = np.cumsum(np.concatenate(([self.utilization], rates)))
        self.utilization = float(totals[-1])
        self._bump_vci_batch(vcis, rates)

    def reprovision(self, vci: int, delta: float) -> None:
        """Adjust a connection's reservation by ``delta`` switch-side.

        The overload control plane downgrades or restores granted rates
        at the link, not through the ER fast path, so the matching port
        accounting moves with it the same way :meth:`provision` does at
        setup: no capacity check, no denial — the plane has already
        decided.  Negative deltas free capacity immediately.
        """
        self.utilization = max(0.0, self.utilization + delta)
        self._bump_vci(vci, delta)

    def process(self, cell: RmCell) -> bool:
        """Apply one RM cell; returns True if this hop accepted it.

        A cell already denied upstream is forwarded untouched (the
        downstream hops must not commit resources for a doomed request).
        """
        self.cells_processed += 1
        if cell.denied:
            return False
        if cell.kind is CellKind.DELTA:
            return self._process_delta(cell)
        return self._process_absolute(cell)

    def _process_delta(self, cell: RmCell) -> bool:
        delta = cell.er
        if delta <= 0:
            # Decreases always succeed and free capacity immediately.
            self.utilization = max(0.0, self.utilization + delta)
            self._bump_vci(cell.vci, delta)
            return True
        if self.utilization + delta <= self.capacity + 1e-9:
            self.utilization += delta
            self._bump_vci(cell.vci, delta)
            return True
        self.requests_denied += 1
        return False

    def _process_absolute(self, cell: RmCell) -> bool:
        """Resynchronise a VCI to its true rate (needs the per-VCI table)."""
        if self._vci_rates is None:
            # Stateless port: cannot resolve the old rate; ignore silently
            # (the drift persists until a stateful hop or teardown).
            return True
        delta = cell.er - self._rate(cell.vci)
        if delta <= 0 or self.utilization + delta <= self.capacity + 1e-9:
            self.utilization = max(0.0, self.utilization + delta)
            self._set_rate(cell.vci, cell.er)
            return True
        self.requests_denied += 1
        return False

    def _bump_vci(self, vci: int, delta: float) -> None:
        table = self._vci_rates
        if table is None:
            return
        if vci < 0 or vci >= table.size:  # reserved VCI or past the column
            new_rate = self._rate(vci) + delta
            self._set_rate(vci, 0.0 if new_rate <= 1e-12 else new_rate)
            return
        new_rate = float(table[vci]) + delta
        table[vci] = 0.0 if new_rate <= 1e-12 else new_rate

    def _set_rate(self, vci: int, rate: float) -> None:
        if vci < 0:
            if rate == 0.0:
                self._reserved_rates.pop(vci, None)
            else:
                self._reserved_rates[vci] = rate
            return
        if rate != 0.0:
            self._vci_rates = grown(self._vci_rates, vci + 1)
        if vci < self._vci_rates.size:
            self._vci_rates[vci] = rate

    # ------------------------------------------------------------------
    # Batched delta processing (the gateway's epoch fast path)
    # ------------------------------------------------------------------
    def delta_batch_total(self, deltas: np.ndarray) -> Optional[float]:
        """Feasibility-check one epoch's delta cells as an exact fold.

        Evolves the utilization the scalar :meth:`_process_delta` loop
        would produce via ``np.cumsum`` — a strict left fold, so every
        prefix total is bit-identical to the running scalar value.
        Returns the final utilization iff every cell would be accepted
        *and* no decrease would engage the ``max(0.0, ...)`` clamp (a
        ``-0.0`` prefix counts as clamping: the scalar path normalises
        it to ``+0.0``); returns None otherwise, committing nothing, so
        the caller can fall back to the exact per-cell path.
        """
        totals = np.cumsum(np.concatenate(([self.utilization], deltas)))
        after = totals[1:]
        decreases = deltas <= 0.0
        if np.any(np.signbit(after[decreases])):
            return None
        if np.any(after[~decreases] > self.capacity + 1e-9):
            return None
        return float(totals[-1])

    def commit_delta_batch(
        self, vcis: Sequence, deltas: np.ndarray, total: float
    ) -> None:
        """Apply a batch vetted by :meth:`delta_batch_total`."""
        self.cells_processed += int(len(deltas))
        self.utilization = total
        self._bump_vci_batch(vcis, deltas)

    def delta_batch_apply(
        self, vcis: Sequence, deltas: np.ndarray
    ) -> Optional[np.ndarray]:
        """Resolve and commit one epoch's delta cells, denials included.

        Extends :meth:`delta_batch_total` from feasibility-check to the
        general case: the increases the scalar loop would deny are found
        by a bracketing fixpoint on the denied set.  Denying an entry
        only removes a positive delta, and IEEE addition is monotone, so
        the prefix utilizations are pointwise monotone *decreasing* in
        the denied set.  Each round therefore folds two ``np.cumsum``
        prefixes — an upper bound (only *confirmed* denials zeroed) and
        a lower bound (every still-undecided increase zeroed too) — and
        the sequential outcome is sandwiched between them: an increase
        that fits even at its upper prefix is confirmed accepted, and
        one that overflows even at its lower prefix is confirmed denied.
        The bracket collapses from the left — ahead of the first
        undecided entry everything is decided, so its two prefixes
        coincide and it is decided this round — hence no oscillation: a
        naive self-map on the denied set ping-pongs (denying one entry
        lets a later one in, which re-evicts another) precisely on the
        contended epochs this path exists for.  Once nothing is
        undecided, the confirmed set *is* the scalar loop's, each
        membership being forced by a bound the true prefix cannot cross,
        and the final fold (denied entries contribute ``0.0``, bit-exact
        on non-negative prefixes) commits.

        Rounds scale with the number of denials, and each round folds
        the whole span, so the fixpoint runs over ``FIXPOINT_BLOCK``
        slices: ``np.cumsum`` is a strict left fold, so carrying the
        running utilization from one block into the next replays the
        exact addition sequence of a single fold — work drops from
        O(denials * batch) to O(denials * block) with bit-identical
        results.  The left-collapse guarantee bounds rounds per block at
        the block length, so the sandwich always converges; the only
        remaining bail-out is a decrease prefix engaging the
        ``max(0.0, ...)`` clamp (``np.signbit`` — the only place a
        ``-0.0`` prefix can first appear), which returns None with
        nothing committed so the caller can replay the batch through the
        exact per-cell path.

        Returns the per-entry grant mask, or None.
        """
        count = int(len(deltas))
        increases = deltas > 0.0
        ceiling = self.capacity + 1e-9
        denied = np.zeros(count, dtype=bool)
        running = self.utilization
        start = 0
        while start < count:
            stop = min(start + FIXPOINT_BLOCK, count)
            block = deltas[start:stop]
            block_increases = increases[start:stop]
            length = stop - start
            block_denied = np.zeros(length, dtype=bool)
            undecided = block_increases.copy()
            effective = np.empty(length)
            head = np.empty(length + 1)
            head[0] = running
            for _ in range(length + 1):
                np.multiply(block, ~block_denied, out=effective)
                head[1:] = effective
                totals = np.cumsum(head)
                overflow_hi = totals[:-1] + block > ceiling
                undecided &= overflow_hi  # fits at upper bound: accepted
                if not undecided.any():
                    break
                np.multiply(
                    block, ~(block_denied | undecided), out=effective
                )
                head[1:] = effective
                lower = np.cumsum(head)
                confirmed = undecided & (lower[:-1] + block > ceiling)
                if confirmed.any():
                    block_denied |= confirmed
                    undecided &= ~confirmed
                    if not undecided.any():
                        np.multiply(block, ~block_denied, out=effective)
                        head[1:] = effective
                        totals = np.cumsum(head)
                        break
            if undecided.any():
                return None
            if np.any(np.signbit(totals[1:][~block_increases])):
                return None
            denied[start:stop] = block_denied
            running = float(totals[-1])
            start = stop
        granted = ~denied
        num_denied = count - int(np.count_nonzero(granted))
        self.cells_processed += count
        self.requests_denied += num_denied
        self.utilization = running
        if num_denied:
            self._bump_vci_batch(np.asarray(vcis)[granted], deltas[granted])
        else:
            self._bump_vci_batch(vcis, deltas)
        return granted

    def _bump_vci_batch(self, vcis: Sequence, deltas: np.ndarray) -> None:
        """:meth:`_bump_vci` per entry as one fancy index (non-negative
        VCIs, none repeated within a batch).  As there, the column grows
        only for an entry that stores a nonzero rate; past the column the
        old rate is zero, so an entry there whose delta is at most
        ``1e-12`` is a no-op."""
        if self._vci_rates is None or len(deltas) == 0:
            return
        vcis = np.asarray(vcis, dtype=np.int64)
        table = self._vci_rates
        if int(vcis.max()) >= table.size:
            stored = vcis[deltas > 1e-12]
            if stored.size:
                table = self._vci_rates = grown(table, int(stored.max()) + 1)
            inside = vcis < table.size
            vcis, deltas = vcis[inside], deltas[inside]
        new_rates = table[vcis] + deltas
        table[vcis] = np.where(new_rates <= 1e-12, 0.0, new_rates)

    def rollback(self, cell: RmCell) -> None:
        """Undo a previously accepted increase (downstream hop denied)."""
        if cell.kind is not CellKind.DELTA or cell.er <= 0:
            return
        self.utilization = max(0.0, self.utilization - cell.er)
        self._bump_vci(cell.vci, -cell.er)

    def release(self, vci: int) -> None:
        """Tear down a connection, freeing its tracked bandwidth."""
        if self._vci_rates is None:
            return
        rate = self._rate(vci)
        self._set_rate(vci, 0.0)
        self.utilization = max(0.0, self.utilization - rate)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Export utilization, per-VCI rates, outages, and counters."""
        rates = self._vci_rates
        return {
            "capacity": self.capacity,
            "utilization": self.utilization,
            "vci_rates": rates.copy() if rates is not None else None,
            "reserved_rates": dict(self._reserved_rates),
            "outages": list(self._outages),
            "cells_processed": self.cells_processed,
            "requests_denied": self.requests_denied,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` export."""
        rates = state["vci_rates"]
        if self.track_per_vci and rates is not None:
            self._vci_rates = np.array(rates)
        self._reserved_rates = dict(state["reserved_rates"])  # type: ignore[arg-type]
        self.capacity = float(state["capacity"])  # type: ignore[arg-type]
        self.utilization = float(state["utilization"])  # type: ignore[arg-type]
        self._outages = [
            (float(start), float(end))
            for start, end in state["outages"]  # type: ignore[union-attr]
        ]
        self.cells_processed = int(state["cells_processed"])  # type: ignore[arg-type]
        self.requests_denied = int(state["requests_denied"])  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return (
            f"SwitchPort({self.name!r}, util={self.utilization:.0f}/"
            f"{self.capacity:.0f}, cells={self.cells_processed})"
        )
