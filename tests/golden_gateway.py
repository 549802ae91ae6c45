"""The frozen per-call renegotiation round trip — the golden oracle.

``GoldenScalarGateway`` is the classic :class:`repro.server.gateway.RcbrGateway`
control plane exactly as it stood while every renegotiation was its own
scalar ``_issue`` -> ``_complete`` round trip: one completion event per
call on the heap, the link, path and ports of the one-link service
addressed directly by pool slot, and the departure, abandonment,
eviction and shrink walks written against them.  Setup, arrivals and
the data plane are inherited unchanged.

The gateway in ``src/`` lands each epoch's answers as one batch and
writes the call lifecycle once over a call's route; it must reproduce
this oracle bit for bit — the snapshot fingerprint and every lifecycle
counter — with and without fault plans.

Do not "fix" or modernize this file: its value is that it does not
change.
"""

from __future__ import annotations

import numpy as np

from repro.server.gateway import RcbrGateway
from repro.signaling.messages import RenegotiationRequest


class GoldenScalarGateway(RcbrGateway):
    """The classic gateway with the per-call round trip frozen in."""

    EVENT_CALLBACK_ALLOWLIST = RcbrGateway.EVENT_CALLBACK_ALLOWLIST | {
        "_golden_complete"
    }

    EVENT_ARG_CODECS = {
        **RcbrGateway.EVENT_ARG_CODECS,
        "_golden_complete": (int, int, float, bool, bool),
    }

    def _issue_epoch(self, group, step, end_of_slot: float) -> None:
        assert group == 0
        slots = step.slots
        call_ids = self.fleet.call_id[slots]
        for slot, call_id, candidate in zip(
            slots.tolist(), call_ids.tolist(), step.candidates.tolist()
        ):
            self._golden_issue(slot, call_id, candidate, end_of_slot)

    def _golden_issue(
        self, slot: int, call_id: int, new_rate: float, time: float
    ) -> None:
        old_rate = float(self.fleet.rate[slot])
        increase = new_rate > old_rate
        self.fleet.pending[slot] = True
        self.reneg_requests += 1
        if (
            increase
            and self.faults is not None
            and self.faults.should_deny(time)
        ):
            self.injected_denials += 1
            granted = False
        else:
            granted = self.path.renegotiate(
                RenegotiationRequest(
                    vci=slot,
                    old_rate=old_rate,
                    new_rate=new_rate,
                    time=time,
                )
            )
        # A lost decrease still applies at the source (it believes the new
        # rate), leaving the network over-reserving until resync — drift.
        apply = granted or not increase
        self.engine.schedule_at(
            time + self.path.round_trip_time,
            self._golden_complete,
            slot,
            call_id,
            new_rate,
            granted,
            apply,
        )

    def _golden_complete(
        self,
        slot: int,
        call_id: int,
        new_rate: float,
        granted: bool,
        apply: bool,
    ) -> None:
        if self.fleet.call_id[slot] != call_id:
            return  # the call departed while its cell was in flight
        self.fleet.pending[slot] = False
        now = self.engine.now
        if apply:
            outcome = self.link.request(slot, new_rate, now)
            if outcome.failed:
                self.link_shortfalls += 1
            self.fleet.set_rate(slot, outcome.granted_rate)
            self.controller.on_reservation(call_id, outcome.granted_rate, now)
            self.fleet.streak[slot] = 0
            return
        self.reneg_denied += 1
        streak = int(self.fleet.streak[slot]) + 1
        self.fleet.streak[slot] = streak
        if (
            self.config.abandon_after is not None
            and streak >= self.config.abandon_after
        ):
            self._golden_abandon(slot, call_id)

    def _handle_departure(self, slot: int, call_id: int) -> None:
        if self.fleet.call_id[slot] != call_id:
            return  # stale event: the call already left this pool slot
        now = self.engine.now
        self.offered.on_departure(int(self.fleet.call_class[slot]))
        self.link.release(slot, now)
        self.path.release(slot)
        self.controller.on_departure(call_id, now)
        self.fleet.remove(slot)
        self._departure_events.pop(call_id, None)
        self.departed += 1

    def _golden_abandon(self, slot: int, call_id: int) -> None:
        """The user gives up after too many consecutive denials."""
        event = self._departure_events.get(call_id)
        if event is not None:
            event.cancel()
        self.abandoned += 1
        self._handle_departure(slot, call_id)

    def overload_shrink_class(
        self, call_class: int, ratio: float, now: float
    ) -> int:
        fleet = self.fleet
        slots = np.flatnonzero(fleet.active & (fleet.call_class == call_class))
        shrunk = 0
        for slot in slots.tolist():
            old_rate = float(fleet.rate[slot])
            new_rate = fleet.quantize(old_rate * ratio)
            if new_rate >= old_rate:
                continue
            call_id = int(fleet.call_id[slot])
            outcome = self.link.request(slot, new_rate, now)
            granted = outcome.granted_rate
            for port in self.ports:
                port.reprovision(slot, granted - old_rate)
            self.controller.on_reservation(call_id, granted, now)
            fleet.set_rate(slot, granted)
            shrunk += 1
        return shrunk

    def overload_evict(self, slot: int, now: float) -> "tuple[int, int, float]":
        fleet = self.fleet
        call_id = int(fleet.call_id[slot])
        call_class = int(fleet.call_class[slot])
        shift = int(fleet.shift[slot])
        event = self._departure_events.pop(call_id, None)
        remaining = self.mean_holding
        if event is not None:
            event.cancel()
            remaining = max(0.0, event.time - now)
        self.offered.on_departure(call_class)
        self.link.release(slot, now)
        self.path.release(slot)
        self.controller.on_departure(call_id, now)
        fleet.remove(slot)
        self.departed += 1
        self.abandoned += 1
        return call_class, shift, remaining
