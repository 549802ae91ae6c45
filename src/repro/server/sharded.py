"""The sharded fleet: 1M concurrent calls at realtime on one box.

This module partitions the call fleet's :class:`~repro.core.kernel.KernelState`
structure-of-arrays across N worker processes.  The full-size state
columns live in process-shared memory (``multiprocessing.RawArray``
wrappers, fork-inherited); each worker owns an interleaved set of
contiguous ``chunk_size``-slot *chunks* and steps them through the one
renegotiation kernel via zero-copy
:class:`~repro.core.kernel.KernelStateView` windows.  The coordinator
(the gateway process) keeps everything that must stay global: the event
heap, every RNG stream, admission, the shared
:class:`~repro.queueing.link.RcbrLink`, the signaling ports, and the
overload control plane.  :class:`~repro.server.gateway.RcbrGateway`
builds this fleet whenever ``config.shards >= 1``; nothing else about
the gateway changes with the shard count.

Determinism contract (the whole point — see DESIGN.md §14):

* **Shard assignment is a pure function of the pool slot**:
  ``shard_of_slot(slot) = (slot // chunk_size) % num_shards``.  Pool
  slots never change over a call's lifetime, so a call never migrates
  shards, under fleet growth (which only appends chunks) or compaction.
* **Workers draw no randomness.**  Every seeded stream stays in the
  coordinator, drawn in exactly the unsharded order, so a worker's
  output is a function of the shared columns and the tick alone.  That
  is what lets a rebuilt pool (or a restored checkpoint) re-step a
  chunk exactly: nothing about a worker needs saving or re-deriving.
* **Every float reduction happens in the coordinator over full-length
  columns.**  Workers run only elementwise kernel operations on
  disjoint slices — bit-identical to the same rows of a whole-array
  step — and defer the overflow/downgrade accounting into shared
  per-slot columns that :func:`~repro.core.kernel.merge_deferred_step`
  reduces exactly as the unsharded step would have.
* **Merging imposes canonical order**: the coordinator waits for every
  shard, then masks/reduces/issues in ascending slot order, so the
  inter-shard completion order (which is scheduling noise) never
  reaches any observable.

Together these give the locked invariant: same seed ⇒ byte-identical
snapshot fingerprint for any ``shards`` count, including ``shards=0``
(the inline :class:`~repro.server.fleet.CallFleet`).

Supervision reuses :class:`~repro.perf.supervise.SupervisorPolicy`.
Each epoch is one round trip per worker, and that step is also the
watchdog: a worker found dead before the send, a broken pipe, an early
exit, a wrong reply, or no reply by the deadline (``policy.timeout``,
else :data:`STEP_DEADLINE`) triggers a pool rebuild and a lossless
re-step — each worker snapshots a chunk's persistent columns into
shared shadow copies before mutating it and journals per-chunk
``started``/``done`` ticks, so a replacement worker restores any torn
chunk and skips completed ones.  After ``max_pool_rebuilds`` the fleet
degrades to stepping chunks inline in the coordinator (service stays
up, just slower), mirroring the sweep engine's degrade-to-serial
policy.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import time
from multiprocessing.connection import wait as _wait_connections
from typing import List, Optional, Sequence

import numpy as np

from repro.core.kernel import (
    KernelStateView,
    RenegotiationKernel,
    merge_deferred_step,
)
from repro.core.online import OnlineParams
from repro.perf.supervise import SupervisorPolicy
from repro.server.fleet import CallFleet, gather_arrivals
from repro.traffic.trace import SlottedWorkload


#: Seconds a step may take when ``SupervisorPolicy.timeout`` is unset.
#: A 1M-call step takes tens of milliseconds; past this a worker is
#: taken as wedged (e.g. SIGSTOPped) and the pool is rebuilt.
STEP_DEADLINE = 5.0


def shard_of_slot(slot: int, chunk_size: int, num_shards: int) -> int:
    """Which shard owns a pool slot.  Pure, stable, total.

    Contiguous ``chunk_size``-slot chunks are dealt to shards round-
    robin, so one shard's working set is a strided family of contiguous
    ranges (cache-friendly slices) while growth only ever *appends*
    chunks — existing slots keep their shard forever.
    """
    return (slot // chunk_size) % num_shards


def _num_chunks(capacity: int, chunk_size: int) -> int:
    return -(-capacity // chunk_size)


class WorkerPoolError(RuntimeError):
    """A shard worker died, hung, or answered out of protocol."""


class _SharedColumns:
    """Fork-shared numpy columns backing one sharded fleet.

    One flat float64/bool/int64 array per kernel column plus the
    deferred-accounting columns (``arrivals`` doubles as the raw
    pre-downgrade arrivals), the crash-recovery shadow copies of the
    persistent state, and the per-chunk ``started``/``done`` tick
    journal.  Everything is ``RawArray``-backed: no locks — the step
    protocol guarantees disjoint writers, and the coordinator only
    reads after every worker has answered.
    """

    _FLOAT_COLUMNS = (
        "rate",
        "estimate",
        "buffer",
        "candidate",
        "scratch",
        "arrivals",
        "scaled",
        "excess",
        "downgrade",
        "rate_shadow",
        "estimate_shadow",
        "buffer_shadow",
    )
    _BOOL_COLUMNS = ("wants", "wants_down", "cmp", "active", "pending")

    def __init__(self, capacity: int, chunk_size: int) -> None:
        self.capacity = int(capacity)
        self.chunk_size = int(chunk_size)
        self.num_chunks = _num_chunks(capacity, chunk_size)
        self._buffers = {}
        for name in self._FLOAT_COLUMNS:
            self._attach(name, ctypes.c_double, capacity, np.float64)
        for name in self._BOOL_COLUMNS:
            self._attach(name, ctypes.c_bool, capacity, np.bool_)
        self._attach("shift", ctypes.c_int64, capacity, np.int64)
        self._attach(
            "chunk_started", ctypes.c_int64, self.num_chunks, np.int64
        )
        self._attach("chunk_done", ctypes.c_int64, self.num_chunks, np.int64)
        self.chunk_started.fill(-1)
        self.chunk_done.fill(-1)

    def _attach(self, name, ctype, length, dtype) -> None:
        raw = multiprocessing.RawArray(ctype, int(length))
        self._buffers[name] = raw  # keep the buffer alive
        setattr(self, name, np.frombuffer(raw, dtype=dtype))

    def chunk_bounds(self, chunk: int) -> "tuple[int, int]":
        low = chunk * self.chunk_size
        return low, min(low + self.chunk_size, self.capacity)


def _run_chunk(
    columns: _SharedColumns,
    kernel: RenegotiationKernel,
    base_bits: np.ndarray,
    chunk: int,
    tick: int,
    use_downgrade: bool,
) -> None:
    """Step one chunk of the fleet through base slot ``tick``.

    Idempotent per (chunk, tick): a completed chunk is skipped, and a
    chunk that a dead worker left half-stepped is restored from its
    shadow copy first, so supervision can re-dispatch a step without
    corrupting state.  The arithmetic is the slice-for-slice image of
    :meth:`CallFleet.step`: the same gather, then the kernel step in
    deferred accounting mode.
    """
    if columns.chunk_done[chunk] == tick:
        return
    low, high = columns.chunk_bounds(chunk)
    window = slice(low, high)
    if columns.chunk_started[chunk] == tick:
        # A previous worker died mid-chunk: roll back to the pre-step
        # snapshot before re-stepping.
        columns.rate[window] = columns.rate_shadow[window]
        columns.estimate[window] = columns.estimate_shadow[window]
        columns.buffer[window] = columns.buffer_shadow[window]
    else:
        columns.rate_shadow[window] = columns.rate[window]
        columns.estimate_shadow[window] = columns.estimate[window]
        columns.buffer_shadow[window] = columns.buffer[window]
        columns.chunk_started[chunk] = tick

    amount = gather_arrivals(
        base_bits, columns.shift[window], columns.active[window], tick,
        out=columns.arrivals[window],
    )

    view = KernelStateView(
        rate=columns.rate[window],
        estimate=columns.estimate[window],
        buffer=columns.buffer[window],
        candidate=columns.candidate[window],
        scratch=columns.scratch[window],
        wants=columns.wants[window],
        wants_down=columns.wants_down[window],
        cmp=columns.cmp[window],
    )
    kernel.step(
        view,
        amount,
        downgrade=columns.downgrade[window] if use_downgrade else None,
        excess_out=(
            columns.excess[window] if kernel.buffer_size is not None else None
        ),
        raw_arrivals_out=amount if use_downgrade else None,
        scaled_arrivals_out=(
            columns.scaled[window] if use_downgrade else None
        ),
    )
    columns.chunk_done[chunk] = tick


def _shard_worker_main(
    conn,
    columns: _SharedColumns,
    kernel: RenegotiationKernel,
    base_bits: np.ndarray,
    chunks: Sequence[int],
) -> None:
    """One shard worker: step my chunks when told, until told to stop."""
    parent_pid = os.getppid()
    try:
        while True:
            # Block in short slices: a SIGKILLed coordinator never
            # closes our pipe (sibling workers forked after us inherit
            # its parent end, so EOF cannot arrive), and reparenting is
            # then the only death signal we get.
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return
            command = conn.recv()
            if command[0] == "stop":
                break
            _, tick, use_downgrade = command
            for chunk in chunks:
                _run_chunk(
                    columns, kernel, base_bits, chunk, tick, use_downgrade
                )
            conn.send(("done", tick))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        conn.close()


class ShardWorkerPool:
    """N persistent fork workers stepping a shared column block.

    Commands and replies travel over one pipe per worker; the shared
    block itself never crosses the pipes.  :meth:`step` is the pool's
    only round trip and its watchdog: it raises :class:`WorkerPoolError`
    on death (before or during the step), a hang past its deadline, or
    a protocol violation; the owner rebuilds or degrades per
    :class:`~repro.perf.supervise.SupervisorPolicy` — this pool stays
    mechanism, not policy.
    """

    def __init__(
        self,
        columns: _SharedColumns,
        kernel: RenegotiationKernel,
        base_bits: np.ndarray,
        num_shards: int,
        policy: SupervisorPolicy,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self._columns = columns
        self._kernel = kernel
        self._base_bits = base_bits
        self.num_shards = int(num_shards)
        self._policy = policy
        self._context = multiprocessing.get_context("fork")
        self._workers: List = []
        self._conns: List = []
        self._spawn()

    def _chunks_of(self, shard: int) -> List[int]:
        return [
            chunk
            for chunk in range(self._columns.num_chunks)
            if chunk % self.num_shards == shard
        ]

    def _spawn(self) -> None:
        self._workers = []
        self._conns = []
        for shard in range(self.num_shards):
            parent_conn, child_conn = self._context.Pipe()
            worker = self._context.Process(
                target=_shard_worker_main,
                args=(
                    child_conn,
                    self._columns,
                    self._kernel,
                    self._base_bits,
                    self._chunks_of(shard),
                ),
                daemon=True,
                name=f"rcbr-shard-{shard}",
            )
            worker.start()
            # Close the parent's copy of the child end right away so a
            # dead worker surfaces as EOF on its pipe.
            child_conn.close()
            self._workers.append(worker)
            self._conns.append(parent_conn)

    def step(self, tick: int, use_downgrade: bool) -> None:
        """Dispatch one epoch step and wait for every shard.

        The wait always has a deadline — ``policy.timeout``, else
        :data:`STEP_DEADLINE` — so a worker wedged without dying (e.g.
        SIGSTOP) cannot hang the coordinator.  A worker that died
        between epochs is caught by the liveness check before any pipe
        I/O: siblings forked after it hold its pipe's other end, so its
        death never shows as EOF.
        """
        dead = [
            shard
            for shard, worker in enumerate(self._workers)
            if not worker.is_alive()
        ]
        if dead:
            codes = [self._workers[shard].exitcode for shard in dead]
            raise WorkerPoolError(
                f"shards {dead} died silently between epochs "
                f"(exit codes {codes})"
            )
        try:
            for conn in self._conns:
                conn.send(("step", int(tick), bool(use_downgrade)))
        except (BrokenPipeError, OSError) as error:
            raise WorkerPoolError(f"shard worker pipe broke: {error}")
        timeout = self._policy.timeout or STEP_DEADLINE
        deadline = time.monotonic() + timeout
        pending = {conn: shard for shard, conn in enumerate(self._conns)}
        while pending:
            for conn in _wait_connections(
                list(pending), timeout=self._policy.poll_interval
            ):
                shard = pending.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError) as error:
                    raise WorkerPoolError(
                        f"shard {shard} died mid-step: {error}"
                    )
                if reply != ("done", int(tick)):
                    raise WorkerPoolError(
                        f"shard {shard} answered {reply!r} to tick {tick}"
                    )
            for shard in pending.values():
                if not self._workers[shard].is_alive():
                    raise WorkerPoolError(
                        f"shard {shard} exited with code "
                        f"{self._workers[shard].exitcode}"
                    )
            if pending and time.monotonic() > deadline:
                raise WorkerPoolError(
                    f"shards {sorted(pending.values())} did not answer "
                    f"tick {tick} within {timeout}s"
                )

    def rebuild(self) -> None:
        """Kill whatever is left and respawn a fresh pool (same block)."""
        self._terminate()
        self._spawn()

    def close(self) -> None:
        """Orderly shutdown; safe to call repeatedly."""
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.join(timeout=1.0)
        self._terminate()

    def _terminate(self) -> None:
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
            if worker.is_alive():
                # SIGTERM stays pending on a stopped (SIGSTOP) process;
                # SIGKILL does not.
                worker.kill()
                worker.join()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._workers = []
        self._conns = []


class ShardedFleet(CallFleet):
    """A :class:`CallFleet` whose kernel state lives in shared memory.

    Pool bookkeeping (admission, free list, per-slot metadata) is
    unchanged coordinator-side logic; only the kernel half of the epoch
    step (:meth:`_advance`) is farmed out.  It writes the downgrade
    column if any, dispatches ``(tick, use_downgrade)`` to every worker,
    waits for all, then reduces the deferred accounting columns over
    the full-length shared arrays; :meth:`CallFleet.step` then applies
    its eligibility masks — every reduction bit-identical to the inline
    step on one process.
    """

    def __init__(
        self,
        workload: SlottedWorkload,
        params: OnlineParams,
        buffer_size: Optional[float] = None,
        initial_capacity: int = 256,
        num_shards: int = 1,
        chunk_size: int = 4096,
        supervisor: Optional[SupervisorPolicy] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        super().__init__(
            workload,
            params,
            buffer_size=buffer_size,
            initial_capacity=initial_capacity,
        )
        self.num_shards = int(num_shards)
        self.chunk_size = int(chunk_size)
        self.supervisor = (
            supervisor if supervisor is not None else SupervisorPolicy()
        )
        self.pool_rebuilds = 0
        self.degraded = False
        self._pool: Optional[ShardWorkerPool] = None
        self._adopt_columns()

    # ------------------------------------------------------------------
    def _adopt_columns(self) -> None:
        """Move fleet/kernel state onto a fresh shared column block."""
        columns = _SharedColumns(self._capacity, self.chunk_size)
        state = self._state
        for name in ("rate", "estimate", "buffer"):
            getattr(columns, name)[:] = getattr(state, name)
            setattr(state, name, getattr(columns, name))
        state._candidate = columns.candidate
        state._scratch = columns.scratch
        state._wants = columns.wants
        state._wants_down = columns.wants_down
        state._cmp = columns.cmp
        for name in ("active", "pending", "shift"):
            getattr(columns, name)[:] = getattr(self, name)
            setattr(self, name, getattr(columns, name))
        self._columns = columns

    def _grow(self) -> None:
        super()._grow()
        self._adopt_columns()
        if self._pool is not None:
            # Workers hold views of the old block; respawn lazily on the
            # next step with the new one.  Growth happens between epoch
            # steps, so nothing is lost.
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    def _advance(
        self, tick: int, downgrade: Optional[np.ndarray]
    ) -> "tuple[np.ndarray, np.ndarray]":
        columns = self._columns
        use_downgrade = downgrade is not None
        if use_downgrade:
            columns.downgrade[:] = downgrade

        if self._pool is None and not self.degraded:
            self._pool = ShardWorkerPool(
                columns, self._kernel, self._bits, self.num_shards,
                self.supervisor,
            )
        while self._pool is not None:
            try:
                self._pool.step(tick, use_downgrade)
                break
            except WorkerPoolError:
                self.pool_rebuilds += 1
                if self.pool_rebuilds > self.supervisor.max_pool_rebuilds:
                    self._pool.close()
                    self._pool = None
                    self.degraded = True
                    break
                self._pool.rebuild()
        if self._pool is None:
            # Degraded (or fork-less) mode: step inline.  The chunk
            # journal makes this exact even when a dead pool finished
            # part of the tick.
            for chunk in range(columns.num_chunks):
                _run_chunk(
                    columns, self._kernel, self._bits, chunk, tick,
                    use_downgrade,
                )

        merge_deferred_step(
            self._state,
            excess=columns.excess if self.buffer_size is not None else None,
            raw_arrivals=columns.arrivals if use_downgrade else None,
            scaled_arrivals=columns.scaled if use_downgrade else None,
        )
        return self._state._wants, self._state._candidate

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def load_state(self, state: dict) -> None:
        """Coordinator-owned restore: write the persistent columns of the
        shared block in place, reset the chunk journals, and drop any
        live pool so the next step respawns workers against the restored
        block.  Workers draw no randomness, so nothing else is needed."""
        super().load_state(state)
        self._columns.chunk_started.fill(-1)
        self._columns.chunk_done.fill(-1)
        if self._pool is not None:
            self._pool.close()
            self._pool = None


__all__ = [
    "ShardedFleet",
    "ShardWorkerPool",
    "WorkerPoolError",
    "shard_of_slot",
]
