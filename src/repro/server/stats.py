"""Server observability: periodic snapshots, the shutdown report, and the
determinism fingerprint.

A :class:`ServerSnapshot` is the gateway's periodic pulse — the cumulative
call, renegotiation, and signaling counters plus instantaneous gauges,
emitted every ``snapshot_every`` seconds of simulated time.  The snapshot
stream doubles as the determinism contract: :func:`snapshot_fingerprint`
hashes the canonical rendering of every snapshot, so two runs with the
same seed must produce the same hex digest bit for bit, and any
divergence (a reordered event, a float that drifted) is caught by a
string compare in the chaos tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


def _canon(value: Any) -> str:
    """Deterministic rendering for fingerprinted values.

    ``repr`` of a Python float is shortest-round-trip, so two floats
    render identically iff they are bit-identical; containers render
    element-wise with the same rule so the overload section (a nested
    dict of counters, gauges, and lists) canonicalises stably.
    """
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        inner = ",".join(f"{k}:{_canon(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(item) for item in value) + "]"
    return str(value)


@dataclass(frozen=True)
class ServerSnapshot:
    """One periodic stats sample.  Counters are cumulative since start;
    ``utilization`` and ``renegotiation_rate`` are windowed over the
    interval since the previous snapshot; ``buffer_bits`` and
    ``reserved_rate`` are instantaneous fleet gauges."""

    time: float
    active_calls: int
    # Call lifecycle (cumulative).
    arrivals: int
    blocked: int
    admitted: int
    departed: int
    completed: int
    abandoned: int
    # Renegotiation pipeline (cumulative).
    reneg_requests: int
    reneg_denied: int
    injected_denials: int
    link_shortfalls: int
    # Signaling path (cumulative).
    cells_sent: int
    cells_lost: int
    retries: int
    timeouts: int
    signaling_failure_fraction: float
    # Loss accounting (cumulative bits).
    bits_lost_overflow: float
    bits_lost_link: float
    # Windowed over (previous snapshot, this one].
    utilization: float
    renegotiation_rate: float
    # Instantaneous gauges.
    buffer_bits: float
    reserved_rate: float
    # Overload control plane section (None when the plane is disabled —
    # i.e. the block-only baseline — so pre-overload snapshot streams
    # and their fingerprints are byte-identical to this build's).
    overload: Optional[Dict[str, Any]] = None
    # Multi-bottleneck network section (per-link allocation/loss and
    # per-flow-group counters).  None on the classic single-link runtime
    # — same omission rule as ``overload``, so single-link fingerprints
    # are byte-identical to pre-scenario builds.
    network: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "time": self.time,
            "active_calls": self.active_calls,
            "arrivals": self.arrivals,
            "blocked": self.blocked,
            "admitted": self.admitted,
            "departed": self.departed,
            "completed": self.completed,
            "abandoned": self.abandoned,
            "reneg_requests": self.reneg_requests,
            "reneg_denied": self.reneg_denied,
            "injected_denials": self.injected_denials,
            "link_shortfalls": self.link_shortfalls,
            "cells_sent": self.cells_sent,
            "cells_lost": self.cells_lost,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "signaling_failure_fraction": self.signaling_failure_fraction,
            "bits_lost_overflow": self.bits_lost_overflow,
            "bits_lost_link": self.bits_lost_link,
            "utilization": self.utilization,
            "renegotiation_rate": self.renegotiation_rate,
            "buffer_bits": self.buffer_bits,
            "reserved_rate": self.reserved_rate,
        }
        if self.overload is not None:
            payload["overload"] = self.overload
        if self.network is not None:
            payload["network"] = self.network
        return payload

    def canonical(self) -> str:
        """Exact textual form fed to the fingerprint.

        ``repr`` of a Python float is shortest-round-trip, so two floats
        render identically iff they are bit-identical — which is the
        contract the fingerprint enforces.  The ``overload`` key is
        omitted entirely when the plane is disabled, keeping block-only
        streams byte-identical to pre-overload builds.
        """
        return ";".join(
            f"{key}={_canon(value)}" for key, value in self.to_dict().items()
        )


def snapshot_fingerprint(snapshots: Sequence[ServerSnapshot]) -> str:
    """sha256 over the canonical snapshot stream (the replay contract)."""
    digest = hashlib.sha256()
    for snapshot in snapshots:
        digest.update(snapshot.canonical().encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True)
class ServerReport:
    """Everything a run leaves behind at shutdown."""

    config: Dict[str, Any]
    duration: float
    epochs: int
    final: ServerSnapshot
    snapshots: List[ServerSnapshot] = field(default_factory=list)
    fingerprint: str = ""
    peak_active: int = 0
    call_epochs_stepped: int = 0
    mean_utilization: float = 0.0
    # Shutdown-time overload summary (per-class treatment, fairness);
    # lives outside the snapshot stream so it never feeds the
    # fingerprint.  None when the plane is disabled.
    overload: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config,
            "duration": self.duration,
            "epochs": self.epochs,
            "peak_active": self.peak_active,
            "call_epochs_stepped": self.call_epochs_stepped,
            "mean_utilization": self.mean_utilization,
            "fingerprint": self.fingerprint,
            "overload": self.overload,
            "final": self.final.to_dict(),
            "snapshots": [snapshot.to_dict() for snapshot in self.snapshots],
        }
