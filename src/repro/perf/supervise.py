"""Supervision policy and reports for the sweep engine.

:class:`~repro.perf.engine.SweepEngine` applies the paper's own
philosophy — keep service alive by degrading rather than failing — to
the experiment runtime itself, as far as its :class:`SupervisorPolicy`
asks:

* **timeouts** — each cell gets a wall-clock budget; a hung worker is
  terminated and the cell retried (pool mode only: a single in-process
  cell cannot be preempted, which is documented, not hidden);
* **bounded retries with backoff** — a failed or timed-out cell is
  retried up to ``max_attempts`` times with exponential, deterministic
  jittered backoff; the retry reuses the cell's exact
  ``SeedSequence(base_seed, spawn_key=(index,))``, so a retried cell's
  result is bit-identical to a first-try success;
* **quarantine** — a cell that exhausts its attempts is quarantined
  (reported with its error) while the rest of the sweep completes;
  ``run()`` then re-raises its exception, ``run_supervised()`` reports
  it;
* **pool-death recovery** — ``BrokenProcessPool`` rebuilds the pool and
  resubmits the in-flight cells; after ``max_pool_rebuilds`` the engine
  degrades to serial in-process execution instead of thrashing;
* **checkpoint/resume** — completed cells stream into an append-only
  :class:`~repro.perf.journal.SweepJournal`; ``resume=True`` skips any
  cell already journalled under a matching sweep fingerprint.

The default policy — one attempt, no timeout — runs every cell once.

Determinism contract: supervision changes *when and where* a cell runs,
never *what it computes*.  Every surviving cell's value is bit-identical
to an unfaulted serial run (the chaos tests assert exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

#: Cell statuses a report can carry.
STATUS_OK = "ok"
STATUS_RETRIED = "retried"
STATUS_TIMEOUT = "timeout"
STATUS_QUARANTINED = "quarantined"
STATUS_RESUMED = "resumed"
STATUS_CACHED = "cached"


@dataclass(frozen=True)
class SupervisorPolicy:
    """Knobs of the supervision state machine.

    ``max_attempts`` counts the first try: 3 means one run plus two
    retries, and the default 1 never retries.  ``timeout`` is per-cell
    wall clock, enforced by worker termination and therefore only in
    pool mode; the default ``None`` never times out.  Backoff before
    attempt ``k`` (k >= 2) is ``base * factor**(k - 2)`` capped at
    ``max``, then scaled by ``1 + jitter * U`` with ``U`` drawn from a
    generator seeded by ``backoff_seed`` — deterministic under test,
    decorrelated across retries in production.
    """

    timeout: Optional[float] = None
    max_attempts: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 10.0
    backoff_jitter: float = 0.1
    backoff_seed: int = 0
    max_pool_rebuilds: int = 3
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be non-negative")

    def backoff_delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Seconds to wait before attempt number ``attempt`` (>= 2)."""
        delay = self.backoff_base * (
            self.backoff_factor ** max(0, attempt - 2)
        )
        delay = min(delay, self.backoff_max)
        if self.backoff_jitter > 0.0:
            delay *= 1.0 + self.backoff_jitter * float(rng.random())
        return delay


@dataclass
class CellReport:
    """How one cell fared under supervision."""

    index: int
    name: str
    status: str = STATUS_OK
    attempts: int = 0
    timeouts: int = 0
    pool_failures: int = 0
    seconds: float = 0.0
    error: Optional[str] = None
    exception: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "index": self.index,
            "name": self.name,
            "status": self.status,
            "attempts": self.attempts,
            "seconds": round(self.seconds, 6),
        }
        if self.timeouts:
            record["timeouts"] = self.timeouts
        if self.pool_failures:
            record["pool_failures"] = self.pool_failures
        if self.error is not None:
            record["error"] = self.error
        return record


@dataclass
class SweepReport:
    """The structured outcome of one sweep."""

    cells: List[CellReport] = field(default_factory=list)
    pool_rebuilds: int = 0
    degraded_to_serial: bool = False
    stale_journal: bool = False
    journal_path: Optional[str] = None

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for cell in self.cells:
            counts[cell.status] = counts.get(cell.status, 0) + 1
        return counts

    @property
    def quarantined(self) -> List[CellReport]:
        return [c for c in self.cells if c.status == STATUS_QUARANTINED]

    @property
    def resumed(self) -> List[CellReport]:
        return [c for c in self.cells if c.status == STATUS_RESUMED]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counts": self.counts(),
            "pool_rebuilds": self.pool_rebuilds,
            "degraded_to_serial": self.degraded_to_serial,
            "stale_journal": self.stale_journal,
            "journal": self.journal_path,
            "cells": [cell.to_dict() for cell in self.cells],
        }
