"""Admission controllers for RCBR (Section VI).

Four controllers, all sharing one interface so the call-level simulator
can swap them:

* :class:`AlwaysAdmit` — no admission control (baseline);
* :class:`PerfectKnowledgeCAC` — knows the true per-call bandwidth
  marginal in advance and admits up to the Chernoff-computed maximum;
  "the optimal controller having perfect knowledge";
* :class:`MemorylessMBAC` — the certainty-equivalent scheme: estimates
  the marginal from a *snapshot* of the rates currently reserved by
  active calls, then applies the same Chernoff test.  The paper shows
  this is not robust (Figs. 7-8);
* :class:`MemoryMBAC` — the paper's fix: accumulate the reservation
  *history* (time-weighted bandwidth-level occupancy) of the calls in the
  system and use the pooled history as the marginal estimate.

Controllers observe the system through callbacks (`on_admit`,
`on_reservation`, `on_departure`) so they never peek at simulator
internals they could not see in a real switch.  A controller may add
exact batch forms: ``on_reservation_batch``, and the pair
``admit_batch``/``on_admit_batch``, which the server gateway's preload
uses for a burst of simultaneous arrivals.  Only a controller whose
decisions do not depend on the burst's own admissions can offer the
pair (:class:`AlwaysAdmit` does).

:class:`MemoryMBAC` decides eq. 12 through a certified test first
(``repro.analysis.chernoff._certified_admit``): it answers only when
its answer provably equals the exact Chernoff test's, from a bound on
the rate function of a running pooled mass.  Otherwise the exact fold
and estimate run, unchanged, so every decision is the exact test's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.analysis.chernoff import (
    _ULP,
    _Support,
    _certify,
    max_admissible_calls,
    overload_probability,
)

#: Pending splits that force a catch-up of every row: bounds the log a
#: touched row replays and the arrivals a batched catch-up walks.
_MAX_PENDING = 32


class AdmissionController(Protocol):
    """What the call-level simulator requires of a controller.

    ``call_class`` identifies the arriving call's traffic class in
    heterogeneous scenarios; homogeneous controllers ignore it.
    """

    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        """Decide whether to accept a new call arriving now."""

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        """A new call was accepted and reserved ``initial_rate``."""

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        """An active call renegotiated to ``new_rate``."""

    def on_departure(self, call_id, time: float) -> None:
        """An active call left the system."""


class _ReservationTracker:
    """Shared bookkeeping: the controller-visible view of active calls."""

    def __init__(self) -> None:
        self.current_rate: Dict[object, float] = {}

    @property
    def num_active(self) -> int:
        return len(self.current_rate)

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        self.current_rate[call_id] = initial_rate

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        if call_id in self.current_rate:
            self.current_rate[call_id] = new_rate

    def on_departure(self, call_id, time: float) -> None:
        self.current_rate.pop(call_id, None)


class _LevelCounts(_ReservationTracker):
    """The tracker plus a level -> count table of the rates reserved right
    now, kept current on every callback so a snapshot needs no sort of
    every active rate.  Counts are integers, so the snapshot's
    ``counts / counts.sum()`` is bit-identical to ``np.unique``'s."""

    def __init__(self) -> None:
        super().__init__()
        self.count: Dict[float, int] = {}

    def snapshot(self) -> Tuple[np.ndarray, np.ndarray]:
        """(levels, fractions) of the rates reserved right now."""
        levels = sorted(self.count)
        counts = np.asarray([self.count[level] for level in levels])
        return np.asarray(levels, dtype=float), counts / counts.sum()

    def _count(self, level: float, delta: int) -> None:
        remaining = self.count.get(level, 0) + delta
        if remaining:
            self.count[level] = remaining
        else:
            del self.count[level]

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        old = self.current_rate.get(call_id)
        if old is not None:
            self._count(old, -1)
        self._count(initial_rate, 1)
        self.current_rate[call_id] = initial_rate

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        old = self.current_rate.get(call_id)
        if old is not None:
            self._count(old, -1)
            self._count(new_rate, 1)
            self.current_rate[call_id] = new_rate

    def on_reservation_batch(self, call_ids, new_rates, time: float) -> None:
        """One epoch's renegotiation outcomes, applied in order."""
        for call_id, rate in zip(
            np.asarray(call_ids).tolist(), np.asarray(new_rates).tolist()
        ):
            self.on_reservation(call_id, rate, time)

    def on_departure(self, call_id, time: float) -> None:
        old = self.current_rate.pop(call_id, None)
        if old is not None:
            self._count(old, -1)


class AlwaysAdmit:
    """Admit everything; failures are whatever the link produces."""

    def __init__(self) -> None:
        self._tracker = _ReservationTracker()

    @property
    def num_active(self) -> int:
        return self._tracker.num_active

    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        return True

    def admit_batch(
        self, capacity: float, time: float, call_classes: np.ndarray
    ) -> np.ndarray:
        """:meth:`admit` for each of a burst of arrivals at ``time``."""
        return np.ones(len(call_classes), dtype=bool)

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        self._tracker.on_admit(call_id, initial_rate, time)

    def on_admit_batch(
        self, call_ids, initial_rates, time: float, call_classes=None
    ) -> None:
        """:meth:`on_admit` per entry, in order (ids and rates as the
        Python scalars :meth:`on_admit` takes)."""
        self._tracker.current_rate.update(zip(call_ids, initial_rates))

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        self._tracker.on_reservation(call_id, new_rate, time)

    def on_reservation_batch(self, call_ids, new_rates, time: float) -> None:
        # Always-admit never reads the tracked rates: admission is
        # unconditional, ``num_active`` is membership (keyed by
        # admit/departure alone), and the rate-distribution snapshot
        # belongs to the measuring controllers.  Refreshing ~40k dict
        # values per epoch against a 1M-entry table is therefore pure
        # overhead on the gateway's realtime budget — skip it.
        pass

    def on_departure(self, call_id, time: float) -> None:
        self._tracker.on_departure(call_id, time)


class PerfectKnowledgeCAC:
    """Chernoff admission with the true marginal known a priori.

    "The maximum number of calls the system can carry for a given
    threshold on the renegotiation failure probability can be computed,
    and new calls will be rejected when this number is exceeded" — note
    that calls are denied even when capacity is available, to guard
    against future fluctuations.
    """

    def __init__(
        self,
        levels: Sequence[float],
        fractions: Sequence[float],
        failure_target: float,
    ) -> None:
        self.levels = np.asarray(levels, dtype=float)
        self.fractions = np.asarray(fractions, dtype=float)
        if not 0.0 < failure_target < 1.0:
            raise ValueError("failure_target must be in (0, 1)")
        self.failure_target = failure_target
        self._tracker = _ReservationTracker()
        self._max_calls_cache: Dict[float, int] = {}

    @property
    def num_active(self) -> int:
        return self._tracker.num_active

    def max_calls(self, capacity: float) -> int:
        if capacity not in self._max_calls_cache:
            self._max_calls_cache[capacity] = max_admissible_calls(
                self.levels, self.fractions, capacity, self.failure_target
            )
        return self._max_calls_cache[capacity]

    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        return self._tracker.num_active + 1 <= self.max_calls(capacity)

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        self._tracker.on_admit(call_id, initial_rate, time)

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        self._tracker.on_reservation(call_id, new_rate, time)

    def on_departure(self, call_id, time: float) -> None:
        self._tracker.on_departure(call_id, time)


class MemorylessMBAC:
    """The certainty-equivalent, memoryless measurement-based controller.

    On each arrival it builds the empirical distribution of *currently*
    reserved rates, pretends it is the true marginal, and runs the
    Chernoff test for one more call.  An empty system admits
    unconditionally (there is nothing to measure).
    """

    def __init__(self, failure_target: float) -> None:
        if not 0.0 < failure_target < 1.0:
            raise ValueError("failure_target must be in (0, 1)")
        self.failure_target = failure_target
        self._tracker = _LevelCounts()

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

    def on_reservation_batch(self, call_ids, new_rates, time: float) -> None:
        self._tracker.on_reservation_batch(call_ids, new_rates, time)

    def on_departure(self, call_id, time: float) -> None:
        self._tracker.on_departure(call_id, time)


class MemoryMBAC:
    """Measurement-based admission with reservation history (the robust fix).

    "We advocate the use of memory, i.e., history about the past
    bandwidth of calls ... we keep track of how often each bandwidth
    level has been reserved by any of the calls currently in the system
    ... we accumulate information about the entire history of each call
    present in the system."  Each call contributes the time-weighted
    histogram of every level it has held; the pooled histogram is the
    marginal estimate.

    With ``retain_departed`` (the default), completed calls' histograms
    stay in the pool, so the estimate converges to the true per-call
    marginal as call-time accumulates — the long-run behaviour matches
    the perfect-knowledge controller.  Set it to False to keep only the
    calls currently in the system (strictly the truncated sentence's
    reading); that variant is more adaptive but noisier on small links.

    Young systems (less than ``min_history_seconds`` of accumulated
    call-time) fall back to admitting, like the memoryless scheme with an
    empty snapshot.

    **Columnar layout.**  The histories are one float64 matrix of
    seconds, a row per call and a column per distinct level.  Row 0 is
    the departed calls' pooled mass; live calls hold rows 1.. in
    admission order (a departure zeroes its row, and zeroed rows are
    compacted away in bulk).  Per row: the open segment's start and the
    column of the level held now.  Per cell: a creation stamp from a
    global clock.  The estimate is bit-identical to walking one level
    -> seconds dict per call (kept as the test oracle in
    ``tests/golden_mbac.py``), because the fold keeps that walk's
    arithmetic:

    1. *Per-level mass is a left fold* from the departed mass through
       every live row in admission order.  ``np.bincount`` with weights
       adds the cells one at a time in array order; ``sum(axis=0)``
       may sum pairwise and is not used.  Absent levels are 0.0, an
       exact no-op.
    2. *The total sums the levels in the walk's key order*: departed
       levels in first-departure order, then the rest by the first
       live row (in admission order) holding each, and within that row
       by creation stamp.  Python's ``sum`` does the adding, as it did
       in the walk.
    3. *Every arrival splits every open segment at its time*; a cell
       is the sum of its pieces (never ``n * t - sum(starts)``).

    Callers pass times as Python floats (the engine clock's), as the
    walk's dict values were.

    **Deferred splits.**  An arrival touches no row: it appends its
    time to a log of pending splits.  A row catches up on the splits
    logged since it last did -- alone when a callback touches it, all
    rows at once when the matrix is read (a fold, a compaction, a
    pickle), on a batch of renegotiations, or when the log reaches
    :data:`_MAX_PENDING` -- adding the same ``time - start`` pieces in
    the same order as an eager split would, so every cell keeps its
    bits.  Within a row, cells are still created in time order, which
    is all their stamps encode.  A split at the latest segment start,
    while every open segment starts there, changes nothing and is
    skipped.

    **Certified decisions.**  Most arrivals are decided without the
    fold.  Per level the controller keeps a running pooled mass of the
    cells as if every logged split had been applied, an absolute bound
    on its distance from the exact sum of those cells, and the exact
    number of nonzero cells (so the support, and with it the peak, is
    exact).  An arrival advances them in closed form, per level: the
    open segments' pieces add up to (open rows) x time - (sum of their
    starts), so the controller keeps each level's open-row count and
    start sum (with a bound on the sum's rounding), and the zero cells
    of open rows, which the split makes nonzero unless the segment
    started at this very time.  The bound charges the closed form's
    rounding and, per split, an ulp of every grown cell (at most the
    level's mass).  Every callback that changes a cell updates them as
    well: a row's segment close adds its piece (an ulp of the grown
    cell and of the new mass), a departure either merges the row into
    row 0 (an ulp of each merged cell) or subtracts it (an ulp of the
    result), as does a re-admission's restart, and a level whose last
    cell goes is reset to exactly zero.  The arrival then asks the
    certified test, with the fold's own error (an ulp per nonzero cell)
    added to the bound, on a support kept until it changes: the test
    first retries the probes that settled the last arrival, else starts
    its Newton search from the last arrival's tilt (cold after a
    restore).  Only when it cannot decide does the fold run; the
    fold then also resets the running mass.  The running state is
    derived, not saved: restore rebuilds it from the matrix, and the
    pickle is unchanged.
    """

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
        self._allocate(rows=16, columns=8)

    def _allocate(self, rows: int, columns: int) -> None:
        self._row_of: Dict[object, int] = {}
        self._ids: List[object] = [None]  # call id per row; None = free
        self._column_of: Dict[float, int] = {}
        self._levels = np.zeros(columns)
        self._seconds = np.zeros((rows, columns))
        self._born = np.zeros((rows, columns), dtype=np.int64)
        self._start = np.zeros(rows)
        self._level = np.zeros(rows, dtype=np.intp)
        self._live = np.zeros(rows, dtype=bool)
        self._clock = 0  # creation stamps handed out so far
        self._holes = 0  # departed rows not yet compacted away
        self._accrued = False  # any cell ever nonzero
        self._fold_columns = np.tile(np.arange(columns), rows)
        # Pending splits: their times, how many were ever logged, and per
        # row how many of those it has applied.
        self._log: List[float] = []
        self._splits = 0
        self._synced = np.zeros(rows, dtype=np.int64)
        # Running state for the certified admission test: per level, the
        # pooled mass, a bound on its distance from the cells' exact sum,
        # and the number of nonzero cells (so the support is exact) ...
        self._mass = np.zeros(columns)
        self._mass_error = np.zeros(columns)
        self._cells = np.zeros(columns, dtype=np.int64)
        # ... the open rows, the sum of their segment starts and a bound
        # on its rounding, and the open rows whose cell is still zero
        # (all of them, and those whose segment started at ``_now``, the
        # latest start).
        self._open = np.zeros(columns)
        self._start_sum = np.zeros(columns)
        self._start_error = np.zeros(columns)
        self._waiting = np.zeros(columns, dtype=np.int64)
        self._waiting_now = np.zeros(columns, dtype=np.int64)
        self._now = -math.inf
        self._settled = True  # every open segment starts at ``_now``
        # The certified test's support (column indices and invariants)
        # while it holds, and the tilt its last search ended at.
        self._support: Optional[Tuple[np.ndarray, _Support]] = None
        self._tilt = 0.0

    def _resize(self, rows: int, columns: int) -> None:
        self._seconds = _padded(self._seconds, (rows, columns))
        self._born = _padded(self._born, (rows, columns))
        self._levels = _padded(self._levels, (columns,))
        self._start = _padded(self._start, (rows,))
        self._level = _padded(self._level, (rows,))
        self._live = _padded(self._live, (rows,))
        self._synced = _padded(self._synced, (rows,))
        self._fold_columns = np.tile(np.arange(columns), rows)
        for name in (
            "_mass", "_mass_error", "_cells", "_open", "_start_sum",
            "_start_error", "_waiting", "_waiting_now",
        ):
            setattr(self, name, _padded(getattr(self, name), (columns,)))

    @property
    def num_active(self) -> int:
        return len(self._row_of)

    # ------------------------------------------------------------------
    def _column(self, level: float) -> int:
        column = self._column_of.get(level)
        if column is None:
            column = len(self._column_of)
            if column == self._levels.size:
                # A few columns at a time: the fold walks every one.
                self._resize(self._start.size, column + 8)
            self._levels[column] = level
            self._column_of[level] = column
        return column

    def _new_row(self) -> int:
        row = len(self._ids)
        if row == self._start.size:
            if self._holes:
                self._compact()
                row = len(self._ids)
            if row == self._start.size:
                self._resize(2 * row, self._levels.size)
        self._ids.append(None)
        return row

    def _compact(self) -> None:
        """Squeeze out departed rows, keeping admission order."""
        self._flush()
        rows = len(self._ids)
        keep = np.flatnonzero(self._live[:rows])
        kept = keep.size + 1
        for column in (self._start, self._level, self._live, self._synced):
            column[1:kept] = column[keep]
        self._live[kept:rows] = False
        for matrix in (self._seconds, self._born):
            matrix[1:kept] = matrix[keep]
        self._seconds[kept:rows] = 0.0
        self._ids = [None] + [self._ids[row] for row in keep.tolist()]
        self._row_of = {call_id: row for row, call_id in enumerate(self._ids) if row}
        self._holes = 0

    # ------------------------------------------------------------------
    # Rule 3, deferred
    # ------------------------------------------------------------------
    def _split(self, time: float) -> None:
        """Split every open segment at ``time`` (an arrival, rule 3):
        log the split and advance the running state in closed form."""
        if time == self._now and self._settled:
            return  # every piece is empty and every start stays: no-op
        if time < self._now:
            # A clock that ran backwards: some segment starts after
            # ``time``, so the closed form does not hold.  Split eagerly
            # and rebuild the running state from the cells.
            self._log.append(time)
            self._splits += 1
            self._flush()
            self._derive()
            return
        # Zero cells of open rows become nonzero, unless their segment
        # starts at this very time.
        fresh = self._waiting
        if time > self._now:
            # All of them grow; both counts restart from zero.
            self._waiting = self._waiting_now
            self._waiting.fill(0)
            self._waiting_now = np.zeros(fresh.size, dtype=np.int64)
            self._now = time
        else:
            self._waiting = self._waiting_now.copy()
            fresh -= self._waiting
        if np.count_nonzero(fresh):
            cells = self._cells
            held = np.count_nonzero(cells)
            cells += fresh
            if np.count_nonzero(cells) != held:
                self._support = None
            self._accrued = True
        # Per level the pieces add up to (open rows) x time - (sum of
        # starts), and every start becomes ``time``.  The bound charges
        # the product's and the difference's rounding, the start sum's
        # own error, and where rows are open, the new mass's rounding and
        # an ulp of every grown cell (together at most the mass).
        open_rows = self._open
        reach = open_rows * time
        piece = reach - self._start_sum
        mass = self._mass + piece
        rounding = open_rows * (_ULP * abs(time))  # an ulp of |reach|
        charge = np.abs(mass)
        charge += charge
        charge += self._mass_error
        charge *= open_rows > 0.0
        charge += np.abs(piece)
        charge *= _ULP
        charge += rounding
        charge += self._start_error
        self._mass_error += charge
        self._mass = mass
        self._start_sum = reach
        self._start_error = rounding
        self._settled = True
        self._log.append(time)
        self._splits += 1
        if len(self._log) >= _MAX_PENDING:
            self._flush()

    def _flush(self) -> None:
        """Apply the pending splits to every open segment, with an eager
        split's arithmetic: each adds ``time - start`` to the row's cell
        when positive, then starts the segment at ``time``.  After a
        row's first pending split its piece is the difference of
        consecutive split times, the same for every row, so a split
        costs one add over the rows behind it."""
        log = self._log
        if not log:
            return
        rows = np.flatnonzero(self._live[: len(self._ids)])
        ahead = self._synced[rows] - self._splits  # minus the splits behind
        late = ahead < 0
        if np.count_nonzero(late) < rows.size:
            rows, ahead = rows[late], ahead[late]
        if rows.size:
            # Most behind first: the rows more than k splits behind are a
            # prefix.
            order = np.argsort(ahead, kind="stable")
            rows, ahead = rows[order], ahead[order]
            pending = len(log)
            cells_at = rows * self._levels.size + self._level[rows]
            seconds = self._seconds.reshape(-1)
            cells = seconds[cells_at]
            elapsed = np.asarray(log)[pending + ahead] - self._start[rows]
            # A piece is added only when positive; adding 0.0 instead
            # leaves the (non-negative) cell's bits as they are.
            grown = cells + np.maximum(elapsed, 0.0)
            deepest = -int(ahead[0])
            counts = np.searchsorted(ahead, np.arange(1 - deepest, 0)).tolist()
            times = log[pending - deepest :]
            for count, before, time in zip(counts, times, times[1:]):
                piece = time - before
                if piece > 0.0:
                    grown[:count] += piece
            fresh = cells_at[(cells == 0.0) & (grown != 0.0)]
            if fresh.size:
                # One stamp serves them all: a row gains at most one cell.
                self._born.reshape(-1)[fresh] = self._clock
                self._clock += 1
                self._accrued = True
            seconds[cells_at] = grown
            self._start[rows] = log[-1]
            self._synced[rows] = self._splits
        log.clear()

    def _catch_up(self, row: int) -> None:
        """:meth:`_flush` for the one row a callback touches, in Python
        floats."""
        behind = self._splits - int(self._synced[row])
        if not behind:
            return
        self._synced[row] = self._splits
        column = self._level[row]
        cell = float(self._seconds[row, column])
        start = float(self._start[row])
        grown = cell
        for time in self._log[len(self._log) - behind:]:
            elapsed = time - start
            if elapsed > 0.0:
                grown += elapsed
            start = time
        self._start[row] = start
        if grown != cell:
            if cell == 0.0:
                self._born[row, column] = self._clock
                self._clock += 1
            self._seconds[row, column] = grown

    # ------------------------------------------------------------------
    # Segment bookkeeping of the callbacks
    # ------------------------------------------------------------------
    def _close_rows(self, rows: np.ndarray, time: float) -> None:
        """Close the open segments of ``rows`` (distinct, caught up) at
        ``time``."""
        elapsed = time - self._start[rows]
        grew = elapsed > 0.0
        if grew.any():
            rows_grew = rows[grew]
            columns = self._level[rows_grew]
            cells = self._seconds[rows_grew, columns]
            pieces = elapsed[grew]
            fresh = cells == 0.0
            width = self._levels.size
            if fresh.any():
                # One stamp serves them all: a close adds at most one
                # cell per row, and stamps only order cells in a row.
                self._born[rows_grew[fresh], columns[fresh]] = self._clock
                self._clock += 1
                self._accrued = True
                held = np.count_nonzero(self._cells)
                self._cells += np.bincount(columns[fresh], minlength=width)
                if np.count_nonzero(self._cells) != held:
                    self._support = None
            grown = cells + pieces
            self._seconds[rows_grew, columns] = grown
            # Each grown cell rounds by an ulp of itself, and bincount's
            # sequential sum of k pieces by k ulp of their level's grown
            # cells; the running mass then rounds by an ulp of itself.
            mass = self._mass
            mass += np.bincount(columns, weights=pieces, minlength=width)
            self._mass_error += _ULP * (
                np.abs(mass)
                + (np.bincount(columns, minlength=width) + 2)
                * np.bincount(columns, weights=grown, minlength=width)
            )
        self._start[rows] = time

    def _close_row(self, row: int, time: float) -> None:
        """:meth:`_close_rows` for a single row, without the array round
        trip."""
        elapsed = time - float(self._start[row])
        if elapsed > 0.0:
            column = self._level[row]
            cell = self._seconds[row, column]
            if cell == 0.0:
                self._born[row, column] = self._clock
                self._clock += 1
                self._accrued = True
                if not self._cells[column]:
                    self._support = None
                self._cells[column] += 1
            grown = cell + elapsed
            self._seconds[row, column] = grown
            mass = self._mass[column] + elapsed
            self._mass[column] = mass
            self._mass_error[column] += _ULP * (abs(mass) + grown)
        self._start[row] = time

    def _leave(self, row: int) -> None:
        """Take ``row``'s open segment (caught up) out of its level's
        open rows."""
        column = self._level[row]
        start = float(self._start[row])
        remaining = self._open[column] - 1.0
        self._open[column] = remaining
        if remaining:
            total = self._start_sum[column] - start
            self._start_sum[column] = total
            self._start_error[column] += _ULP * abs(total)
        else:
            self._start_sum[column] = 0.0
            self._start_error[column] = 0.0
        if self._seconds[row, column] == 0.0:
            self._waiting[column] -= 1
            if start == self._now:
                self._waiting_now[column] -= 1

    def _enter(self, row: int, time: float) -> None:
        """Count ``row``'s segment, opened at ``time``, in its level's
        open rows."""
        column = self._level[row]
        if time > self._now:
            self._now = time
            self._waiting_now.fill(0)
            self._settled = len(self._row_of) == 1  # no other open row
        elif time < self._now:
            self._settled = False
        self._open[column] += 1.0
        total = self._start_sum[column] + time
        self._start_sum[column] = total
        self._start_error[column] += _ULP * abs(total)
        if self._seconds[row, column] == 0.0:
            self._waiting[column] += 1
            if time == self._now:
                self._waiting_now[column] += 1

    def _drop(self, row: int) -> None:
        """Take ``row``'s cells out of the running state before they are
        zeroed."""
        history = self._seconds[row, : len(self._column_of)]
        held = np.flatnonzero(history)
        self._cells[held] -= 1
        # A subtraction rounds by an ulp of its result; a level with no
        # cells left has exactly no mass.
        mass = self._mass[held] - history[held]
        self._mass[held] = mass
        self._mass_error[held] += _ULP * np.abs(mass)
        empty = held[self._cells[held] == 0]
        if empty.size:
            self._mass[empty] = 0.0
            self._mass_error[empty] = 0.0
            self._support = None

    def _recount(self) -> None:
        """Count the open rows of every level afresh, with their start
        sums and zero cells (no split pending)."""
        live = np.flatnonzero(self._live[: len(self._ids)])
        columns = self._level[live]
        starts = self._start[live]
        width = self._levels.size
        count = np.bincount(columns, minlength=width)
        self._open = count.astype(float)
        # bincount's sequential sum of k starts: k ulp of their magnitudes.
        # (With no rows at all, bincount returns integers.)
        self._start_sum = np.bincount(
            columns, weights=starts, minlength=width
        ).astype(float)
        self._start_error = _ULP * count * np.bincount(
            columns, weights=np.abs(starts), minlength=width
        )
        zero = self._seconds.reshape(-1)[live * width + columns] == 0.0
        self._waiting = np.bincount(columns[zero], minlength=width)
        now = starts == self._now
        self._waiting_now = np.bincount(columns[zero & now], minlength=width)
        self._settled = bool(now.all())

    def _derive(self) -> None:
        """Rebuild the running state from the matrix (no split pending)."""
        rows = len(self._ids)
        live = self._live[:rows]
        self._now = float(self._start[:rows][live].max()) if live.any() else -math.inf
        self._recount()
        self._cells = np.count_nonzero(self._seconds[:rows], axis=0).astype(np.int64)
        self._support = None
        self._pooled()

    # ------------------------------------------------------------------
    def pooled_history(
        self, time: float
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """(levels, fractions) pooled over the tracked call histories."""
        self._split(time)
        return self._pooled()

    def _pooled(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """:meth:`pooled_history` of closed segments: the exact fold.  It
        also resets the running mass to the fold, whose own error is the
        left fold's, an ulp of the mass per nonzero cell."""
        self._flush()
        if not self._accrued:
            # Exact: every mass, hence the total, is 0.
            self._mass = np.zeros(self._levels.size)
            self._mass_error = np.zeros(self._levels.size)
            return None
        # Rule 1: bincount adds every cell to its level's mass in array
        # order -- row 0 (departed) first, then the live rows in
        # admission order -- starting from 0.0.
        rows = len(self._ids)
        width = self._levels.size
        mass = np.bincount(
            self._fold_columns[: rows * width],
            weights=self._seconds[:rows].ravel(),
            minlength=width,
        )
        self._mass = mass
        self._mass_error = _ULP * self._cells * mass
        held = np.flatnonzero(mass > 0.0)
        # Rule 2: the first row holding each level.  Departed levels are
        # held by row 0; only the others need a scan down the rows.
        first = np.zeros(held.size, dtype=np.intp)
        scan = self._seconds[0, held] == 0.0
        if scan.any():
            first[scan] = (self._seconds[:rows, held[scan]] != 0.0).argmax(axis=0)
        walk = np.lexsort((self._born[first, held], first))
        total = sum(mass[held[walk]].tolist())
        if total <= max(self.min_history_seconds, 0.0):
            return None
        held = held[np.argsort(self._levels[held])]
        return self._levels[held], mass[held] / total

    # ------------------------------------------------------------------
    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        active = len(self._row_of)
        if active == 0:
            return True
        self._split(time)
        if not self._accrued:
            return True  # exact: every mass, hence the total, is 0
        verdict = self._certified(capacity, active + 1)
        if verdict is not None:
            return verdict
        pooled = self._pooled()
        if pooled is None:
            return True
        levels, fractions = pooled
        estimate = overload_probability(levels, fractions, active + 1, capacity)
        return estimate <= self.failure_target

    def _certified(self, capacity: float, num_calls: int) -> Optional[bool]:
        """The decision from the running mass, when it provably equals the
        exact fold's; None when only the fold can tell."""
        if self._support is None:
            held = np.flatnonzero(self._cells)
            if not held.size:
                return True  # every cell has departed unretained: no estimate
            # A new support starts its search where the last one ended.
            self._support = (held, _Support(self._levels[held], self._tilt))
        held, support = self._support
        mass = self._mass[held]
        tracked = self._mass_error[held]
        # The fold adds a level's nonzero cells one at a time: an ulp of
        # their sum per cell on top of the tracked error.
        error = tracked + _ULP * self._cells[held] * (mass + tracked)
        # The exact total is a Python sum of the folded masses.
        size = mass.size
        total, spread = float(np.add.reduce(mass)), float(np.add.reduce(error))
        floor = max(self.min_history_seconds, 0.0)
        if (total - spread) * (1 - 2 * size * _ULP) <= floor:
            if (total + spread) * (1 + 2 * size * _ULP) <= floor:
                return True  # too little history: admit, as the fold does
            return None
        verdict = _certify(
            support, mass, error, num_calls, capacity, self.failure_target, total
        )
        self._tilt = support.tilt
        return verdict

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        column = self._column(initial_rate)
        row = self._row_of.get(call_id)
        if row is None:
            row = self._new_row()
            self._row_of[call_id] = row
            self._ids[row] = call_id
            self._live[row] = True
        else:
            self._catch_up(row)
            self._leave(row)
            self._drop(row)
            self._seconds[row] = 0.0  # a re-admission restarts the history
        self._synced[row] = self._splits
        self._start[row] = time
        self._level[row] = column
        self._enter(row, time)

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        row = self._row_of.get(call_id)
        if row is not None:
            self._catch_up(row)
            self._leave(row)
            self._close_row(row, time)
            self._level[row] = self._column(new_rate)
            self._enter(row, time)

    def on_reservation_batch(self, call_ids, new_rates, time: float) -> None:
        """One epoch's renegotiation outcomes at once; identical to one
        :meth:`on_reservation` per pair, in order."""
        row_of = self._row_of
        rows = np.fromiter(
            (row_of.get(call_id, 0) for call_id in np.asarray(call_ids).tolist()),
            dtype=np.intp,
        )
        new_rates = np.asarray(new_rates)
        tracked = rows > 0
        if not tracked.all():
            # An untracked id must not add a level column, as in the
            # scalar path.
            rows = rows[tracked]
            new_rates = new_rates[tracked]
        if not rows.size:
            return
        columns = np.fromiter(
            map(self._column, new_rates.tolist()), dtype=np.intp
        )
        # A call listed twice closes once and keeps its last rate, as the
        # scalar sequence does: its last entry is its first in reverse.
        rows, last = np.unique(rows[::-1], return_index=True)
        columns = columns[::-1][last]
        self._flush()
        self._close_rows(rows, time)
        self._level[rows] = columns
        # The closed form's per-level counts, afresh from the caught-up
        # rows.
        self._now = max(self._now, time)
        self._recount()

    def on_departure(self, call_id, time: float) -> None:
        row = self._row_of.pop(call_id, None)
        if row is None:
            return
        self._catch_up(row)
        self._leave(row)
        self._close_row(row, time)
        history = self._seconds[row, : len(self._column_of)]
        if self.retain_departed:
            departed = self._seconds[0, : history.size]
            fresh = np.flatnonzero((departed == 0.0) & (history != 0.0))
            if fresh.size:
                # New departed levels keep this call's creation order.
                fresh = fresh[np.argsort(self._born[row, fresh])]
                self._born[0, fresh] = np.arange(
                    self._clock, self._clock + fresh.size
                )
                self._clock += fresh.size
                self._cells[fresh] += 1
            departed += history
            # The mass stays pooled: each merged cell rounds by an ulp
            # of itself, and the row's cells are gone (their levels keep
            # a cell in row 0, so the support holds).
            held = np.flatnonzero(history)
            self._cells[held] -= 1
            self._mass_error[held] += _ULP * departed[held]
        else:
            self._drop(row)
        history.fill(0.0)
        self._live[row] = False
        self._ids[row] = None
        self._holes += 1
        if self._holes > 8 + len(self._row_of) // 4:
            self._compact()

    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Only the live rows and the used level columns, with every
        nonzero cell listed in (row, creation) order so its position in
        the list is its restored creation stamp."""
        self._flush()
        live = np.flatnonzero(self._live[: len(self._ids)])
        rows = np.concatenate(([0], live))
        block = self._seconds[rows, : len(self._column_of)]
        cell_row, cell_column = np.nonzero(block)
        order = np.lexsort((self._born[rows[cell_row], cell_column], cell_row))
        cell_row = cell_row[order]
        cell_column = cell_column[order]
        return {
            "failure_target": self.failure_target,
            "min_history_seconds": self.min_history_seconds,
            "retain_departed": self.retain_departed,
            "ids": [self._ids[row] for row in live.tolist()],
            "levels": self._levels[: len(self._column_of)].copy(),
            "start": self._start[live],
            "level": self._level[live].astype(np.int32),
            "cells_per_row": np.bincount(cell_row, minlength=rows.size).astype(
                np.int32
            ),
            "cell_column": cell_column.astype(np.int32),
            "cell_seconds": block[cell_row, cell_column],
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.failure_target = state["failure_target"]
        self.min_history_seconds = state["min_history_seconds"]
        self.retain_departed = state["retain_departed"]
        ids = list(state["ids"])  # type: ignore[arg-type]
        levels = np.asarray(state["levels"])
        rows = len(ids) + 1
        self._allocate(rows=max(16, 2 * rows), columns=max(8, levels.size))
        for level in levels.tolist():
            self._column(level)
        self._ids = [None] + ids
        self._row_of = {call_id: row for row, call_id in enumerate(ids, 1)}
        self._start[1:rows] = state["start"]
        self._level[1:rows] = state["level"]
        self._live[1:rows] = True
        cell_row = np.repeat(np.arange(rows), state["cells_per_row"])
        cell_column = np.asarray(state["cell_column"], dtype=np.intp)
        self._seconds[cell_row, cell_column] = state["cell_seconds"]
        self._born[cell_row, cell_column] = np.arange(cell_row.size)
        self._clock = int(cell_row.size)
        self._accrued = bool(cell_row.size)
        # The running state is derived, not saved: it only decides when
        # the certified test applies, never a decision.
        self._derive()


def _padded(array: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``array`` zero-padded at the end of every axis to ``shape``."""
    padded = np.zeros(shape, dtype=array.dtype)
    padded[tuple(slice(0, size) for size in array.shape)] = array
    return padded


class HeterogeneousKnowledgeCAC:
    """Chernoff admission for a mix of call classes with known marginals.

    Extension beyond the paper's homogeneous setting: the link carries
    several traffic classes (different movies, or video plus audio), each
    with its own bandwidth marginal.  Admission evaluates the mixture
    Chernoff bound (:func:`repro.analysis.chernoff.heterogeneous_overload_probability`)
    with the arriving call added to its class.
    """

    def __init__(
        self,
        class_marginals: Sequence[Tuple[Sequence[float], Sequence[float]]],
        failure_target: float,
    ) -> None:
        if not class_marginals:
            raise ValueError("need at least one class marginal")
        if not 0.0 < failure_target < 1.0:
            raise ValueError("failure_target must be in (0, 1)")
        self.class_marginals = [
            (np.asarray(levels, dtype=float), np.asarray(probs, dtype=float))
            for levels, probs in class_marginals
        ]
        self.failure_target = failure_target
        self._tracker = _ReservationTracker()
        self._class_of: Dict[object, int] = {}
        self._counts = [0] * len(self.class_marginals)

    @property
    def num_active(self) -> int:
        return self._tracker.num_active

    def class_counts(self) -> Tuple[int, ...]:
        return tuple(self._counts)

    def admit(self, capacity: float, time: float, call_class: int = 0) -> bool:
        from repro.analysis.chernoff import heterogeneous_overload_probability

        if not 0 <= call_class < len(self.class_marginals):
            raise ValueError(f"unknown call class {call_class}")
        tentative = list(self._counts)
        tentative[call_class] += 1
        classes = [
            (levels, probs, count)
            for (levels, probs), count in zip(self.class_marginals, tentative)
            if count > 0
        ]
        estimate = heterogeneous_overload_probability(classes, capacity)
        return estimate <= self.failure_target

    def on_admit(
        self, call_id, initial_rate: float, time: float, call_class: int = 0
    ) -> None:
        self._tracker.on_admit(call_id, initial_rate, time)
        self._class_of[call_id] = call_class
        self._counts[call_class] += 1

    def on_reservation(self, call_id, new_rate: float, time: float) -> None:
        self._tracker.on_reservation(call_id, new_rate, time)

    def on_departure(self, call_id, time: float) -> None:
        self._tracker.on_departure(call_id, time)
        call_class = self._class_of.pop(call_id, None)
        if call_class is not None:
            self._counts[call_class] -= 1
