"""Per-layer tracing from outside the program.

The benchmark installs timing wrappers on the instance methods of the
objects a gateway owns (controller, signaling path, link, switch ports,
fleet, event heap, overload plane) and on its checkpoint entry points.
Nothing under ``src/`` changes: each wrapper is an instance attribute
that shadows the class method, so the gateway's own calls route through
it while the class, the event heap and the checkpoint codec stay as
they are.  The gateway's ``_complete`` and ``_handle_*`` callbacks are
deliberately left alone because the heap and the codec refer to them
by name.

Spans nest: every wrapped call records its inclusive time and charges
it to the span that was open when it started, so a layer's *self* time
is its inclusive time minus the time of the wrapped calls it made.  The
root spans are epochs (``Tracer.epoch_boundary`` is the gateway's epoch
hook) and the preload.  Per epoch the tracer keeps one record with the
epoch's wall time, its self time, and the per-layer self times and
call counts that fell inside it; records stay in memory and are written
out by ``Tracer.dump`` when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

clock = time.perf_counter


class _Span:
    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


class Tracer:
    """Span stack, per-layer accumulators and per-epoch records."""

    def __init__(self) -> None:
        self.phase = "idle"
        self._stack: List[_Span] = []
        # (phase, layer) -> [self seconds, calls]
        self.busy: Dict[tuple, List[float]] = defaultdict(lambda: [0.0, 0])
        # (phase, counter) -> value
        self.counts: Dict[tuple, float] = defaultdict(float)
        # (phase, sample name) -> list of per-call durations
        self.samples: Dict[tuple, List[float]] = defaultdict(list)
        self.epochs: List[Dict[str, Any]] = []
        self._installed: Dict[int, List[str]] = {}
        self._epoch_root: Optional[_Span] = None
        self._epoch_start = 0.0
        self._epoch_tick = -1
        self._epoch_busy: Dict[tuple, List[float]] = {}

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        obj: Any,
        method: str,
        layer: str,
        observe: Optional[Callable[[str, tuple, Any, float], None]] = None,
    ) -> None:
        """Shadow ``obj.method`` with a timed wrapper charged to ``layer``.

        ``observe(phase, args, result, seconds)`` runs after the call,
        outside the timed interval of the call but inside its parent's.
        Methods the object does not have are skipped, so one wrapper set
        fits every controller and runtime.
        """
        original = getattr(obj, method, None)
        if original is None:
            return
        stack = self._stack
        busy = self.busy

        def timed(*args, **kwargs):
            span = _Span()
            stack.append(span)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                stat = busy[(self.phase, layer)]
                stat[0] += elapsed - span.child_s
                stat[1] += 1
            if observe is not None:
                observe(self.phase, args, result, elapsed)
            return result

        setattr(obj, method, timed)
        self._installed.setdefault(id(obj), []).append(method)

    @contextmanager
    def suspended(self, obj: Any):
        """Temporarily remove this tracer's wrappers from ``obj``.

        The checkpoint pickles the admission controller whole; closures
        in its ``__dict__`` would not pickle and would change the bytes
        written, so saves run with the controller unwrapped.
        """
        names = self._installed.get(id(obj), [])
        saved = {
            name: obj.__dict__.pop(name) for name in names if name in obj.__dict__
        }
        try:
            yield
        finally:
            obj.__dict__.update(saved)

    # ------------------------------------------------------------------
    # Root spans
    # ------------------------------------------------------------------
    @contextmanager
    def root(self, phase: str):
        """A root span (e.g. the preload) under ``phase``; yields a dict
        that receives ``wall_s`` and ``self_s`` when the span closes."""
        previous = self.phase
        self.phase = phase
        span = _Span()
        self._stack.append(span)
        out: Dict[str, float] = {}
        start = clock()
        try:
            yield out
        finally:
            wall = clock() - start
            self._stack.pop()
            self.phase = previous
            out["wall_s"] = wall
            out["self_s"] = wall - span.child_s

    def epoch_boundary(
        self, tick: int, between: Optional[Callable[[], None]] = None
    ) -> None:
        """Close the open epoch span (if any) at this instant and open
        the next one for ``tick``.  ``between`` runs after the close and
        before the open, so its cost (the tracer's own sampling) lands in
        no span."""
        stamp = clock()
        self.close_epoch(stamp)
        if between is not None:
            between()
        self.phase = "serve"
        self._epoch_tick = tick
        self._epoch_root = _Span()
        self._stack.append(self._epoch_root)
        self._epoch_busy = {
            key: list(value)
            for key, value in self.busy.items()
            if key[0] == "serve"
        }
        self._epoch_start = clock()

    def close_epoch(self, stamp: Optional[float] = None) -> None:
        if self._epoch_root is None:
            return
        if stamp is None:
            stamp = clock()
        if not self._stack or self._stack[-1] is not self._epoch_root:
            raise RuntimeError("epoch span closed with a child span open")
        self._stack.pop()
        wall = stamp - self._epoch_start
        layers = {}
        for key, (seconds, calls) in self.busy.items():
            if key[0] != "serve":
                continue
            before = self._epoch_busy.get(key, (0.0, 0))
            if calls != before[1]:
                layers[key[1]] = [seconds - before[0], calls - before[1]]
        self.epochs.append(
            {
                "tick": self._epoch_tick,
                "wall_s": wall,
                "self_s": wall - self._epoch_root.child_s,
                "layers": layers,
            }
        )
        self._epoch_root = None

    # ------------------------------------------------------------------
    def dump(self, path: Path, extra: Dict[str, Any]) -> None:
        """Write the per-epoch span records and the totals as JSON."""
        payload = dict(extra)
        payload["epochs"] = self.epochs
        payload["busy"] = {
            f"{phase}/{layer}": value
            for (phase, layer), value in sorted(self.busy.items())
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def install_layer_wrappers(tracer: Tracer, gw) -> None:
    """Install the per-layer wrappers on a built (not yet preloaded)
    gateway.  Layer names follow the module that owns each object."""
    counts = tracer.counts
    samples = tracer.samples

    def on_admit_decision(phase, args, admitted, seconds):
        samples[(phase, "admit")].append(seconds)
        counts[(phase, "admission.accepted")] += bool(admitted)

    controller = gw.controller
    tracer.wrap(controller, "admit", "admission.admit", on_admit_decision)
    tracer.wrap(controller, "on_reservation", "admission.on_reservation")
    tracer.wrap(controller, "on_reservation_batch", "admission.on_reservation")
    tracer.wrap(controller, "on_admit", "admission.update")
    tracer.wrap(controller, "on_departure", "admission.update")

    def on_renegotiate(phase, args, granted, seconds):
        counts[(phase, "signaling.granted")] += bool(granted)

    def on_renegotiate_batch(phase, args, granted, seconds):
        counts[(phase, "signaling.batch_items")] += int(np.size(args[0]))
        counts[(phase, "signaling.granted")] += int(np.count_nonzero(granted))

    path = gw.path
    tracer.wrap(path, "renegotiate", "signaling.renegotiate", on_renegotiate)
    tracer.wrap(
        path, "renegotiate_batch", "signaling.batch", on_renegotiate_batch
    )
    tracer.wrap(path, "release", "signaling.release")

    def on_request(phase, args, outcome, seconds):
        counts[(phase, "link.shortfalls")] += bool(outcome.failed)

    def on_request_batch(phase, args, result, seconds):
        counts[(phase, "link.batch_items")] += int(np.size(args[0]))
        counts[(phase, "link.shortfalls")] += int(result[1])

    link = gw.link
    tracer.wrap(link, "request", "link.request", on_request)
    tracer.wrap(link, "request_batch", "link.batch", on_request_batch)
    tracer.wrap(link, "release", "link.release")

    for port in gw.ports:
        tracer.wrap(port, "provision", "port.provision")

    fleet = gw.fleet

    def on_step(phase, args, step, seconds):
        counts[(phase, "fleet.requests")] += int(step.num_requests)

    tracer.wrap(fleet, "step", "fleet.step", on_step)
    tracer.wrap(fleet, "admit", "fleet.admit")

    engine = gw.engine
    drain = engine.run

    def counted_drain(*args, **kwargs):
        before = engine.processed_events
        try:
            return drain(*args, **kwargs)
        finally:
            counts[(tracer.phase, "events.fired")] += (
                engine.processed_events - before
            )

    engine.run = counted_drain
    tracer.wrap(engine, "run", "events.drain")

    if gw.overload_plane is not None:
        tracer.wrap(gw.overload_plane, "on_epoch", "overload.poll")

    save = gw.save

    def unwrapped_save(*args, **kwargs):
        with tracer.suspended(controller):
            return save(*args, **kwargs)

    def on_save(phase, args, meta, seconds):
        samples[(phase, "save")].append(seconds)
        counts[(phase, "checkpoint.bytes")] += int(meta["bytes"])

    gw.save = unwrapped_save
    tracer.wrap(gw, "save", "checkpoint.save", on_save)
    tracer.wrap(gw, "checkpoint_sync", "checkpoint.sync")
