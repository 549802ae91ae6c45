"""Crash-safe gateway checkpoints: stamped, atomic, refused when stale.

The determinism contract (same seed ⇒ byte-identical snapshot
fingerprint, DESIGN.md §12/§14) turns crash recovery into something
provable: a checkpoint taken at an epoch boundary, restored into a
freshly built gateway, must continue *bit-for-bit* as if the process
had never died.  This module owns the on-disk format and the two rules
that keep that promise honest:

* **Atomic writes.**  A checkpoint is pickled into one blob and written
  via :func:`repro.util.io.atomic_write` (temp file + fsync + rename),
  so a crash mid-checkpoint leaves the previous checkpoint intact.

* **Loud staleness.**  The payload is stamped with a code-version
  string and the canonical hash of the gateway's config (the same
  canonical encoder the result cache keys on).  A checkpoint from a
  different code version or a different config *cannot* resume
  bit-exactly, so :func:`read_checkpoint` refuses it with
  :class:`StaleCheckpointError` instead of producing silently wrong
  results — mirroring the sweep journal's fingerprint rule, except the
  journal degrades to recomputation while a serve has nothing safe to
  fall back to.

The checkpoint captures *mutable* runtime state only (see
``RcbrGateway.state_dict``).  Everything structural — workload,
controller wiring, topology, shard layout — is a pure function of the
config, which the restoring process rebuilds first; the config hash
proves both sides agree.
"""

from __future__ import annotations

import pickle
import signal
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

from repro.perf.cache import CACHE_SCHEMA, fingerprint
from repro.util.io import atomic_write

if TYPE_CHECKING:  # pragma: no cover - import cycle (gateway imports us)
    from repro.server.config import ServerConfig
    from repro.server.gateway import RcbrGateway
    from repro.traffic.trace import SlottedWorkload

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "StaleCheckpointError",
    "DeferredCheckpointWriter",
    "ServeLifecycle",
    "checkpoint_code_version",
    "config_fingerprint",
    "workload_fingerprint",
    "write_checkpoint",
    "read_checkpoint",
    "read_checkpoint_meta",
]

#: First field of every checkpoint; anything else is not a checkpoint.
CHECKPOINT_MAGIC = "rcbr-gateway-checkpoint"

#: Bump when the state layout changes; mismatched checkpoints are stale.
#: Schema 2: the link and port keep per-source state in slot tables.
#: Schema 3: ``MemoryMBAC`` pickles its columnar histories.
#: Schema 4: one completion event per classic epoch, event keys on a
#: 2**32 group stride, and per-group counters in the base export.
#: Schema 5: arrival events carry their flow group, and the scenario
#: export drops the applied background rates (re-derived on restore).
#: Schema 6: fleets, links, paths and overload planes are saved as
#: lists in topology order on both gateway shapes, and the scenario
#: export carries its route list (paths are recreated from it).
#: Schema 7: every topology decides admission before drawing a call's
#: workload shift, so a measurement-based multi-bottleneck run's call
#: stream and call ids differ from a schema-6 run of the same seed.
#: Schema 8: renegotiation answers land as one ``_complete_batch`` per
#: flow group and landing time on both gateway shapes (no per-call
#: ``_complete`` events), and call bindings are per-group route and
#: handle columns in the base export (no scenario bindings list).
#: Schema 9: one gateway class; routes are built at construction, so
#: the ``scenario`` section is gone (no route list, no path stream) and
#: the base export carries the interned network slots and the plane
#: stream.
#: Schema 10: a live call's departure is two per-group binding columns
#: (time and event sequence) plus the promoted horizon; only promoted
#: departures are heap events, and the heap exports one plain tuple per
#: event (no columnar arg codec).
CHECKPOINT_SCHEMA = 10


class CheckpointError(RuntimeError):
    """The file is not a readable gateway checkpoint."""


class StaleCheckpointError(CheckpointError):
    """The checkpoint is valid but cannot resume bit-exactly here."""


def checkpoint_code_version() -> str:
    """The code-version stamp: package version + both state schemas.

    The cache schema participates because the config hash below is
    computed by the cache's canonical encoder — if that encoding ever
    changes, old hashes stop being comparable.
    """
    try:
        from repro import __version__
    except Exception:  # pragma: no cover - circular-import fallback
        __version__ = "unknown"
    return f"{__version__}+ckpt{CHECKPOINT_SCHEMA}+cache{CACHE_SCHEMA}"


def config_fingerprint(config: "ServerConfig") -> str:
    """Canonical hash of everything the config determines."""
    return fingerprint(config.to_dict())


def workload_fingerprint(workload: "SlottedWorkload") -> str:
    """Canonical hash of the base workload the fleet steps against.

    The config does not carry the trace itself (``repro serve`` builds
    it from ``--trace``/``--frames``/``--trace-seed`` outside the
    config), so the config hash alone cannot prove the restoring
    process is stepping the same bits.  This closes that gap.
    """
    return fingerprint(
        {
            "bits_per_slot": workload.bits_per_slot,
            "slot_duration": workload.slot_duration,
        }
    )


class DeferredCheckpointWriter:
    """Background atomic writes of already-pickled checkpoint blobs.

    Serialization must stay synchronous — the state snapshot is only
    consistent at the epoch boundary where it was taken — but once
    pickled the blob is immutable, so the multi-megabyte file write can
    come off the serving thread.  At most one write is ever in flight:
    submitting (or flushing) joins the previous write first, so
    checkpoints land on disk in submission order, and a failed write
    surfaces loudly on the *next* submit/flush instead of being
    swallowed by the thread.
    """

    def __init__(self) -> None:
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    @property
    def pending(self) -> bool:
        return self._thread is not None

    def submit(self, path: Union[str, Path], blob: bytes) -> None:
        self.flush()

        def _write() -> None:
            try:
                atomic_write(path, blob)
            except BaseException as error:  # surfaced on the next flush
                self._error = error

        self._thread = threading.Thread(
            target=_write, name="checkpoint-write", daemon=True
        )
        self._thread.start()

    def flush(self) -> None:
        """Wait for the in-flight write; raise if it (or a prior) failed."""
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._error is not None:
            error, self._error = self._error, None
            raise CheckpointError(
                f"deferred checkpoint write failed: {error!r}"
            ) from error


def _build_payload(gateway: "RcbrGateway", stamps: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "magic": CHECKPOINT_MAGIC,
        "schema": CHECKPOINT_SCHEMA,
        **stamps,
        "time": gateway.engine.now,
        "next_tick": gateway._next_tick,
        "state": gateway.state_dict(),
    }


def write_checkpoint(
    path: Union[str, Path], gateway: "RcbrGateway", defer: bool = False
) -> Dict[str, Any]:
    """Serialize ``gateway`` to ``path`` atomically; returns metadata.

    Must be called at an epoch boundary (the gateway's ``state_dict``
    documents the quiescent point); ``repro serve`` drives it from the
    epoch hook, where that holds by construction.

    With ``defer=True`` the snapshot and pickle still happen inline (the
    returned metadata is final) but the file write runs on a background
    thread owned by the gateway — the mode periodic checkpoints use so
    cadence overhead is serialization-only.  (A BGSAVE-style fork was
    measured and rejected: the parent's per-epoch column writes turn
    the child's copy-on-write snapshot into a page-fault storm that
    costs more than the serialization it saves — and it would be
    incorrect for the sharded runtime anyway, whose fleet columns live
    in shared memory that fork does not snapshot.)  A final/graceful
    save should use ``defer=False``, which also drains any pending
    deferred write first so the newest checkpoint always wins the
    rename.
    """
    # Config, workload and identity stamps are immutable for the
    # gateway's lifetime, so the stamps are computed once and cached on
    # it: a periodic checkpoint cadence should pay for state, not stamps.
    stamps = getattr(gateway, "_checkpoint_stamps", None)
    if stamps is None:
        stamps = {
            "code_version": checkpoint_code_version(),
            "config_hash": config_fingerprint(gateway.config),
            "workload_hash": workload_fingerprint(gateway.workload),
            "config": gateway.config.to_dict(),
            **gateway.identity_stamps,
        }
        gateway._checkpoint_stamps = stamps
    meta = {
        "path": str(path),
        "code_version": stamps["code_version"],
        "config_hash": stamps["config_hash"],
        "time": gateway.engine.now,
        "next_tick": gateway._next_tick,
    }
    blob = pickle.dumps(
        _build_payload(gateway, stamps), protocol=pickle.HIGHEST_PROTOCOL
    )
    meta["bytes"] = len(blob)
    writer = getattr(gateway, "_checkpoint_writer", None)
    if defer:
        if writer is None:
            writer = DeferredCheckpointWriter()
            gateway._checkpoint_writer = writer
        writer.submit(path, blob)
        return meta
    if writer is not None:
        writer.flush()
    atomic_write(path, blob)
    return meta


def _read_payload(path: Union[str, Path]) -> Dict[str, Any]:
    try:
        blob = Path(path).read_bytes()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}")
    try:
        payload = pickle.loads(blob)
    except Exception as error:
        raise CheckpointError(
            f"checkpoint {path} is corrupt or not a checkpoint: {error!r}"
        )
    if (
        not isinstance(payload, dict)
        or payload.get("magic") != CHECKPOINT_MAGIC
    ):
        raise CheckpointError(
            f"{path} is not an RCBR gateway checkpoint "
            f"(magic={payload.get('magic') if isinstance(payload, dict) else None!r})"
        )
    return payload


def read_checkpoint_meta(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate only the stamp fields (no state restore)."""
    payload = _read_payload(path)
    return {
        "path": str(path),
        "schema": payload.get("schema"),
        "code_version": payload.get("code_version"),
        "config_hash": payload.get("config_hash"),
        "config": payload.get("config"),
        "time": payload.get("time"),
        "next_tick": payload.get("next_tick"),
    }


def read_checkpoint(
    path: Union[str, Path],
    config: "ServerConfig",
    workload_hash: Optional[str] = None,
    expected_stamps: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Validate a checkpoint against ``config`` and return its state.

    Refusal is deliberately loud and specific: the error names exactly
    which stamp disagreed (schema, code version, config hash, or
    workload hash), since "restore refused" is only actionable if the
    operator can tell a stale binary from a wrong flag.

    ``expected_stamps`` extends the validation to caller-defined stamps
    (a gateway's ``identity_stamps``, e.g. the scenario hash a
    :class:`~repro.scenarios.runtime.ScenarioHarness` adds): each key
    must be present in the payload with exactly the expected value, so a
    checkpoint written by a different scenario — or by the plain serve
    loop — is refused even when the derived config hashes collide.
    """
    payload = _read_payload(path)
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise StaleCheckpointError(
            f"checkpoint {path} has schema {payload.get('schema')!r}, "
            f"this build expects {CHECKPOINT_SCHEMA}"
        )
    expected_version = checkpoint_code_version()
    if payload.get("code_version") != expected_version:
        raise StaleCheckpointError(
            f"checkpoint {path} was written by code version "
            f"{payload.get('code_version')!r}, this build is "
            f"{expected_version!r}; bit-exact resume is not guaranteed "
            "across versions"
        )
    expected_hash = config_fingerprint(config)
    if payload.get("config_hash") != expected_hash:
        raise StaleCheckpointError(
            f"checkpoint {path} was taken under config hash "
            f"{payload.get('config_hash')!r} but this gateway is built "
            f"from config hash {expected_hash!r}; refusing to resume a "
            "different service"
        )
    if (
        workload_hash is not None
        and payload.get("workload_hash") != workload_hash
    ):
        raise StaleCheckpointError(
            f"checkpoint {path} was taken against workload hash "
            f"{payload.get('workload_hash')!r} but this gateway steps "
            f"workload hash {workload_hash!r}; same config, different "
            "trace — refusing to resume"
        )
    for stamp, expected in (expected_stamps or {}).items():
        if payload.get(stamp) != expected:
            raise StaleCheckpointError(
                f"checkpoint {path} carries {stamp}="
                f"{payload.get(stamp)!r} but this runtime expects "
                f"{expected!r}; refusing to resume a different run shape"
            )
    return payload["state"]


class ServeLifecycle:
    """Two-stage signal handling for ``repro serve``.

    First SIGTERM/SIGINT sets a flag the serve loop's epoch hook reads:
    the gateway stops at the *next epoch boundary*, drains in-flight
    call-epoch work, writes a final checkpoint, and emits its report —
    a graceful stop that a later ``--resume-from`` continues bit-exactly.
    A second signal means the operator is done waiting: we raise
    ``KeyboardInterrupt`` immediately (the serve command turns that into
    a partial report and exit code 130).

    Use as a context manager; handlers are restored on exit so a serve
    embedded in a larger program does not leak them.
    """

    _SIGNALS = (signal.SIGTERM, signal.SIGINT)

    def __init__(self) -> None:
        self.stop_requested = False
        self.signum: Optional[int] = None
        self._seen = 0
        self._previous: Dict[int, Any] = {}

    @property
    def signal_name(self) -> str:
        if self.signum is None:
            return "none"
        return signal.Signals(self.signum).name

    def _handle(self, signum: int, frame: Any) -> None:
        self._seen += 1
        if self._seen > 1:
            raise KeyboardInterrupt
        self.stop_requested = True
        self.signum = signum

    def install(self) -> "ServeLifecycle":
        for sig in self._SIGNALS:
            self._previous[sig] = signal.signal(sig, self._handle)
        return self

    def uninstall(self) -> None:
        while self._previous:
            sig, previous = self._previous.popitem()
            signal.signal(sig, previous)

    def __enter__(self) -> "ServeLifecycle":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()
