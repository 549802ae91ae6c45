"""The sweep engine.

A sweep is a list of independent *cells* — (capacity, load, controller)
points of the MBAC grid, alpha values of the Fig. 2 curve, source counts
of Fig. 6.  One engine, :class:`SweepEngine`, runs every sweep: it fans
cells out over a ``ProcessPoolExecutor``, memoizes them through a
:class:`~repro.perf.cache.ResultCache`, records per-cell wall-clock in a
:class:`~repro.perf.recorder.BenchRecorder`, and applies a
:class:`~repro.perf.supervise.SupervisorPolicy` — retries with backoff,
per-cell timeouts, pool rebuilds, degrade-to-serial — plus optional
checkpoint/resume through a :class:`~repro.perf.journal.SweepJournal`.
The default policy runs each cell once with no timeout.

Two entry points share one contract.  ``run(cells)`` returns every
cell's result in input order, or, once the sweep has stopped, raises
the first failed cell's own exception; it never returns a short list.
``run_supervised(cells)`` returns the surviving results plus the
:class:`~repro.perf.supervise.SweepReport` instead of raising.

Determinism contract: a cell that asks for a seed (``seed_arg``) gets a
``numpy.random.SeedSequence`` child derived *only* from the engine's
``base_seed`` and the cell's position in the sweep —
``SeedSequence(base_seed, spawn_key=(index,))`` — never from worker
identity, scheduling order, retries, or cache state.  Serial
(``workers=1``) and parallel runs of the same sweep therefore produce
bit-identical results, a retried cell equals a first-try success, and a
cache-warm or resumed rerun returns exactly the values a cold run
computed.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Union

import numpy as np

from repro.perf.cache import ResultCache
from repro.perf.journal import JournalEntry, SweepJournal, sweep_fingerprint
from repro.perf.recorder import BenchRecorder
from repro.perf.supervise import (
    STATUS_CACHED,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RESUMED,
    STATUS_RETRIED,
    STATUS_TIMEOUT,
    CellReport,
    SupervisorPolicy,
    SweepReport,
)


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work.

    Parameters
    ----------
    name:
        Display/record label, e.g. ``"mbac/cap6/load1/memoryless"``.
    fn:
        A **module-level** callable (it must pickle for the process
        pool) invoked as ``fn(**kwargs)``.
    kwargs:
        Keyword arguments; every value must pickle.
    cache_payload:
        Everything that determines the result, for the cache key; the
        common choice is the ``kwargs`` dict itself.  ``None`` disables
        caching for this cell.
    seed_arg:
        Name of a keyword argument to fill with the cell's deterministic
        ``SeedSequence`` child.  Leave ``None`` when ``kwargs`` already
        carries an explicit seed.
    meta:
        Static metadata copied into the cell's bench record.
    """

    name: str
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    cache_payload: Any = None
    seed_arg: Optional[str] = None
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CellResult:
    """A cell's value plus how it was obtained."""

    name: str
    value: Any
    seconds: float
    cached: bool


def _execute_cell(fn: Callable[..., Any], kwargs: Dict[str, Any]):
    """Run one cell (in a worker or inline) and time it."""
    start = time.perf_counter()
    value = fn(**kwargs)
    return value, time.perf_counter() - start


def abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down *now*: drop queued work, reap workers.

    Used on Ctrl-C (so a big sweep exits promptly instead of draining
    its queue) and when the engine declares a pool dead or hung.
    Workers still running are terminated — the only way to reclaim a
    truly hung child — which is safe because every cell is
    side-effect-free by the engine's contract and any lost cell is
    either re-raised to the caller or resubmitted.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-reaped worker
            pass


@dataclass
class SupervisedRun:
    """Results (input order, quarantined cells omitted) plus the report."""

    results: List[CellResult]
    report: SweepReport


class SweepEngine:
    """Run sweep cells — serially or across worker processes — under a
    :class:`~repro.perf.supervise.SupervisorPolicy`.

    The default policy is one attempt and no timeout: the engine runs
    every cell once.  A policy with ``max_attempts > 1`` retries failed
    cells with backoff, and a ``timeout`` terminates and retries hung
    workers (pool mode only).  A dead pool is rebuilt, and after
    ``max_pool_rebuilds`` the rest of the sweep runs serially.

    Parameters
    ----------
    workers:
        Process count.  ``1`` runs everything inline (no pool, no
        pickling).
    cache:
        Optional :class:`ResultCache`; cells with a ``cache_payload``
        are looked up before any work is scheduled and stored after.
    recorder:
        Optional :class:`BenchRecorder` receiving one record per cell
        and the sweep's :class:`SweepReport`.
    base_seed:
        Root of the per-cell ``SeedSequence`` derivation.
    namespace:
        Cache namespace, so unrelated sweeps never share keys.
    policy:
        Retry/timeout/rebuild knobs; ``None`` is ``SupervisorPolicy()``.
    journal_path:
        Optional append-only :class:`SweepJournal` of completed cells.
    resume:
        Skip cells already journalled under a matching fingerprint.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        recorder: Optional[BenchRecorder] = None,
        base_seed: int = 0,
        namespace: str = "sweep",
        policy: Optional[SupervisorPolicy] = None,
        journal_path: Union[None, str, Path] = None,
        resume: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.cache = cache
        self.recorder = recorder
        self.base_seed = int(base_seed)
        self.namespace = namespace
        self.policy = policy or SupervisorPolicy()
        self.journal_path = Path(journal_path) if journal_path else None
        self.resume = bool(resume)

    # ------------------------------------------------------------------
    def _cell_kwargs(self, cell: SweepCell, index: int) -> Dict[str, Any]:
        if cell.seed_arg is None:
            return cell.kwargs
        kwargs = dict(cell.kwargs)
        kwargs[cell.seed_arg] = np.random.SeedSequence(
            self.base_seed, spawn_key=(index,)
        )
        return kwargs

    def _cache_key(self, cell: SweepCell, index: int) -> Optional[str]:
        if self.cache is None or not self.cache.enabled:
            return None
        if cell.cache_payload is None:
            return None
        payload = (
            cell.name,
            cell.cache_payload,
            ("seed", self.base_seed, index) if cell.seed_arg else None,
        )
        return self.cache.key(self.namespace, payload)

    # ------------------------------------------------------------------
    def run(self, cells: Sequence[SweepCell]) -> List[CellResult]:
        """Every cell's result, in input order — or raise.

        If any cell exhausts its attempts, the sweep still runs to its
        end (so completed cells reach the cache and the journal), then
        the first failed cell in input order re-raises its own
        exception.  A short list is never returned.
        """
        run = self.run_supervised(cells)
        for cell_report in run.report.quarantined:
            raise cell_report.exception
        return run.results

    def run_supervised(self, cells: Sequence[SweepCell]) -> SupervisedRun:
        """The surviving results (input order) plus the sweep report."""
        cells = list(cells)
        report = SweepReport(
            cells=[
                CellReport(index=index, name=cell.name)
                for index, cell in enumerate(cells)
            ],
            journal_path=(
                str(self.journal_path) if self.journal_path else None
            ),
        )
        results: List[Optional[CellResult]] = [None] * len(cells)
        keys: List[Optional[str]] = [None] * len(cells)
        self._backoff_rng = np.random.default_rng(self.policy.backoff_seed)

        journal = self._open_journal(cells, report, results)

        pending: List[int] = []
        for index, cell in enumerate(cells):
            if results[index] is not None:
                continue  # resumed from the journal
            key = self._cache_key(cell, index)
            keys[index] = key
            if key is not None:
                start = time.perf_counter()
                hit, value = self.cache.get(key)
                if hit:
                    elapsed = time.perf_counter() - start
                    self._complete(
                        cells, results, keys, report, journal,
                        index, value, elapsed, STATUS_CACHED, attempts=0,
                    )
                    continue
            pending.append(index)

        if pending:
            if self.workers == 1 or len(pending) == 1:
                self._run_serial(
                    cells, results, keys, report, journal, pending
                )
            else:
                self._run_pool(
                    cells, results, keys, report, journal, pending
                )

        if self.recorder is not None:
            self.recorder.attach_report(report.to_dict())
        return SupervisedRun(
            results=[r for r in results if r is not None], report=report
        )

    # ------------------------------------------------------------------
    # Journal / resume
    # ------------------------------------------------------------------
    def _open_journal(self, cells, report, results) -> Optional[SweepJournal]:
        if self.journal_path is None:
            return None
        fingerprint = sweep_fingerprint(
            self.namespace, self.base_seed, cells
        )
        journal = SweepJournal(self.journal_path, fingerprint)
        if self.resume and journal.exists():
            entries = journal.load()
            if entries is None:
                # Stale or unreadable: recompute everything, loudly in
                # the report, and start a fresh journal.
                report.stale_journal = True
                journal.reset()
            else:
                for index, entry in entries.items():
                    if index >= len(cells) or cells[index].name != entry.name:
                        continue  # the sweep shrank or was reordered
                    results[index] = CellResult(
                        entry.name, entry.value, entry.seconds, cached=False
                    )
                    cell_report = report.cells[index]
                    cell_report.status = STATUS_RESUMED
                    cell_report.attempts = entry.attempts
                    cell_report.seconds = entry.seconds
                    self._record(
                        cells[index], entry.seconds, False, STATUS_RESUMED,
                        entry.attempts,
                    )
        else:
            journal.reset()
        return journal

    # ------------------------------------------------------------------
    # Completion plumbing
    # ------------------------------------------------------------------
    def _record(self, cell, seconds, cached, status, attempts) -> None:
        if self.recorder is not None:
            self.recorder.add(
                cell.name,
                seconds,
                cached=cached,
                workers=self.workers,
                status=status,
                attempts=attempts or None,
                **cell.meta,
            )

    def _complete(
        self, cells, results, keys, report, journal,
        index, value, seconds, status, attempts,
    ) -> None:
        cell = cells[index]
        if keys[index] is not None:
            self.cache.put(keys[index], value)
        results[index] = CellResult(
            cell.name, value, seconds, cached=(status == STATUS_CACHED)
        )
        cell_report = report.cells[index]
        cell_report.status = status
        cell_report.attempts = attempts
        cell_report.seconds = seconds
        if journal is not None:
            journal.append(
                JournalEntry(
                    index=index,
                    name=cell.name,
                    value=value,
                    seconds=seconds,
                    attempts=attempts,
                    status=status,
                )
            )
        self._record(
            cell, seconds, status == STATUS_CACHED, status, attempts
        )

    def _quarantine(self, report, index, exc: BaseException) -> None:
        cell_report = report.cells[index]
        cell_report.status = STATUS_QUARANTINED
        cell_report.error = repr(exc)
        cell_report.exception = exc

    def _success_status(self, cell_report: CellReport) -> str:
        if cell_report.timeouts > 0:
            return STATUS_TIMEOUT
        if cell_report.attempts > 1:
            return STATUS_RETRIED
        return STATUS_OK

    # ------------------------------------------------------------------
    # Serial execution (also the degraded fallback)
    # ------------------------------------------------------------------
    def _run_serial(
        self, cells, results, keys, report, journal, pending
    ) -> None:
        """In-process execution with retries; timeouts cannot preempt
        here (a cell runs on the engine's own thread), which the
        report makes visible via ``degraded_to_serial``/attempt counts.
        """
        for index in pending:
            cell = cells[index]
            cell_report = report.cells[index]
            while True:
                cell_report.attempts += 1
                try:
                    value, seconds = _execute_cell(
                        cell.fn, self._cell_kwargs(cell, index)
                    )
                except Exception as exc:
                    if cell_report.attempts >= self.policy.max_attempts:
                        self._quarantine(report, index, exc)
                        break
                    time.sleep(
                        self.policy.backoff_delay(
                            cell_report.attempts + 1, self._backoff_rng
                        )
                    )
                else:
                    self._complete(
                        cells, results, keys, report, journal,
                        index, value, seconds,
                        self._success_status(cell_report),
                        cell_report.attempts,
                    )
                    break

    # ------------------------------------------------------------------
    # Pool execution
    # ------------------------------------------------------------------
    def _run_pool(
        self, cells, results, keys, report, journal, pending
    ) -> None:
        policy = self.policy
        queue: deque = deque(pending)
        not_before: Dict[int, float] = {index: 0.0 for index in pending}
        waiting: Dict[Any, int] = {}  # future -> cell index
        deadlines: Dict[Any, float] = {}  # future -> wall-clock deadline
        pool: Optional[ProcessPoolExecutor] = None
        max_workers = min(self.workers, len(pending))

        def ensure_pool() -> ProcessPoolExecutor:
            nonlocal pool
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=max_workers)
            return pool

        def cell_failed(index: int, exc: BaseException, timed_out: bool):
            cell_report = report.cells[index]
            cell_report.attempts += 1
            if timed_out:
                cell_report.timeouts += 1
            if cell_report.attempts >= policy.max_attempts:
                self._quarantine(report, index, exc)
                return
            delay = policy.backoff_delay(
                cell_report.attempts + 1, self._backoff_rng
            )
            not_before[index] = time.monotonic() + delay
            queue.append(index)

        def rebuild_pool(
            victims: Set[Any], exc: BaseException, timed_out: bool
        ) -> None:
            nonlocal pool
            report.pool_rebuilds += 1
            for future, index in list(waiting.items()):
                if future in victims:
                    if not timed_out:
                        report.cells[index].pool_failures += 1
                    cell_failed(index, exc, timed_out)
                else:
                    # Queued or running in the dead pool: its work is
                    # lost but it did nothing wrong, so it is resubmitted
                    # with no attempt charged.
                    not_before[index] = time.monotonic()
                    queue.append(index)
            waiting.clear()
            deadlines.clear()
            if pool is not None:
                abandon_pool(pool)
                pool = None
            if report.pool_rebuilds > policy.max_pool_rebuilds:
                report.degraded_to_serial = True

        def submit_eligible() -> None:
            now = time.monotonic()
            scanned = 0
            while queue and len(waiting) < max_workers and scanned < len(queue):
                index = queue.popleft()
                if not_before[index] > now:
                    queue.append(index)
                    scanned += 1
                    continue
                cell = cells[index]
                try:
                    future = ensure_pool().submit(
                        _execute_cell, cell.fn, self._cell_kwargs(cell, index)
                    )
                except BrokenProcessPool as exc:
                    # A worker died between waits; the cell we were about
                    # to submit never ran, so it goes back unscathed while
                    # the in-flight cells are charged by the rebuild.
                    queue.appendleft(index)
                    rebuild_pool(set(waiting), exc, timed_out=False)
                    return
                waiting[future] = index
                if policy.timeout is not None:
                    deadlines[future] = now + policy.timeout

        try:
            while queue or waiting:
                if report.degraded_to_serial:
                    remaining = sorted(
                        set(queue) | set(waiting.values())
                    )
                    queue.clear()
                    waiting.clear()
                    deadlines.clear()
                    self._run_serial(
                        cells, results, keys, report, journal, remaining
                    )
                    return
                submit_eligible()
                if not waiting:
                    # Everything runnable is backing off; sleep to the
                    # earliest eligibility instead of spinning.
                    wake = min(not_before[index] for index in queue)
                    time.sleep(
                        max(0.0, min(wake - time.monotonic(),
                                     policy.poll_interval))
                    )
                    continue
                wait_timeout: Optional[float] = None
                if deadlines:
                    wait_timeout = max(
                        0.0, min(deadlines.values()) - time.monotonic()
                    )
                elif queue:
                    wait_timeout = policy.poll_interval
                done, _ = wait(
                    set(waiting), timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                broken: Optional[BrokenProcessPool] = None
                for future in done:
                    index = waiting.pop(future)
                    deadlines.pop(future, None)
                    try:
                        value, seconds = future.result()
                    except BrokenProcessPool as exc:
                        broken = exc
                        # Credit the attempt in rebuild_pool below.
                        waiting[future] = index
                    except Exception as exc:
                        cell_failed(index, exc, timed_out=False)
                    else:
                        cell_report = report.cells[index]
                        cell_report.attempts += 1
                        self._complete(
                            cells, results, keys, report, journal,
                            index, value, seconds,
                            self._success_status(cell_report),
                            cell_report.attempts,
                        )
                if broken is not None:
                    # Every in-flight future of a broken pool is suspect;
                    # all are charged one attempt, so only a repeat
                    # offender ever reaches quarantine.
                    rebuild_pool(set(waiting), broken, timed_out=False)
                    continue
                if policy.timeout is not None:
                    now = time.monotonic()
                    expired = {
                        future
                        for future, deadline in deadlines.items()
                        if deadline <= now and not future.done()
                    }
                    if expired:
                        rebuild_pool(
                            expired,
                            TimeoutError(
                                f"timeout after {policy.timeout:g}s"
                            ),
                            timed_out=True,
                        )
        except BaseException:
            # Ctrl-C must not drain the queue: cancel everything pending
            # and exit promptly.
            if pool is not None:
                abandon_pool(pool)
            raise
        else:
            if pool is not None:
                pool.shutdown(wait=True)
