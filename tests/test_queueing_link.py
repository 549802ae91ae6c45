"""The RCBR link: grants, denials, shortfall redistribution, accounting."""

import numpy as np
import pytest

from repro.queueing.link import RcbrLink
from repro.util.slots import SlotInterner

# Sources are slots; these name the ones the scenarios below use.
A, B, C = 0, 1, 2


class TestBasicRequests:
    def test_setup_within_capacity_granted(self):
        link = RcbrLink(1000.0)
        outcome = link.request(A, 400.0, 0.0)
        assert outcome.fully_granted
        assert link.allocated == 400.0

    def test_increase_beyond_capacity_partially_granted(self):
        link = RcbrLink(1000.0)
        link.request(A, 800.0, 0.0)
        outcome = link.request(B, 500.0, 1.0)
        assert outcome.failed
        assert outcome.granted_rate == pytest.approx(200.0)
        assert link.failure_count == 1

    def test_source_keeps_old_bandwidth_on_denial(self):
        """Section III-A1: even on failure, keep what you have."""
        link = RcbrLink(1000.0)
        link.request(A, 400.0, 0.0)
        link.request(B, 600.0, 0.0)
        outcome = link.request(A, 900.0, 1.0)
        assert outcome.failed
        assert link.grant_of(A) == pytest.approx(400.0)

    def test_decrease_always_succeeds(self):
        link = RcbrLink(1000.0)
        link.request(A, 900.0, 0.0)
        outcome = link.request(A, 100.0, 1.0)
        assert outcome.fully_granted
        assert link.allocated == pytest.approx(100.0)

    def test_allocated_never_exceeds_capacity(self):
        link = RcbrLink(1000.0)
        for index in range(10):
            link.request(index, 300.0, float(index))
        assert link.allocated <= 1000.0 + 1e-9

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RcbrLink(10.0).request(A, -1.0, 0.0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RcbrLink(0.0)


class TestRedistribution:
    def test_freed_capacity_fills_shortfall(self):
        link = RcbrLink(1000.0)
        link.request(A, 800.0, 0.0)
        link.request(B, 500.0, 0.0)  # shortfall: gets 200
        assert link.grant_of(B) == pytest.approx(200.0)
        link.release(A, 1.0)
        assert link.grant_of(B) == pytest.approx(500.0)

    def test_fifo_order_of_shortfall(self):
        link = RcbrLink(1000.0)
        link.request(A, 1000.0, 0.0)
        link.request(B, 600.0, 0.0)  # first in line, gets 0
        link.request(C, 600.0, 0.0)  # second in line, gets 0
        link.request(A, 700.0, 1.0)  # frees 300
        assert link.grant_of(B) == pytest.approx(300.0)
        assert link.grant_of(C) == pytest.approx(0.0)

    def test_decrease_of_shortfall_source_clears_it(self):
        link = RcbrLink(1000.0)
        link.request(A, 900.0, 0.0)
        link.request(B, 400.0, 0.0)  # shortfall
        link.request(B, 100.0, 1.0)  # gives up, now satisfied
        link.release(A, 2.0)
        assert link.grant_of(B) == pytest.approx(100.0)

    def test_work_conservation(self):
        """Total grant equals min(total demand, capacity)."""
        link = RcbrLink(1000.0)
        link.request(A, 700.0, 0.0)
        link.request(B, 700.0, 0.0)
        assert link.allocated == pytest.approx(1000.0)
        link.request(A, 100.0, 1.0)
        assert link.allocated == pytest.approx(800.0)


class TestAccounting:
    def test_allocated_integral(self):
        link = RcbrLink(1000.0)
        link.request(A, 400.0, 0.0)
        link.request(A, 600.0, 10.0)
        link.finish(20.0)
        assert link.allocated_bit_seconds == pytest.approx(
            400.0 * 10 + 600.0 * 10
        )
        assert link.mean_utilization(20.0) == pytest.approx(0.5)

    def test_lost_bits_from_shortfall(self):
        link = RcbrLink(1000.0)
        link.request(A, 800.0, 0.0)
        link.request(B, 500.0, 0.0)  # 300 short
        link.finish(10.0)
        assert link.lost_bits == pytest.approx(3000.0)

    def test_lost_bits_stop_after_satisfaction(self):
        link = RcbrLink(1000.0)
        link.request(A, 800.0, 0.0)
        link.request(B, 500.0, 0.0)
        link.release(A, 5.0)  # b becomes whole at t=5
        link.finish(10.0)
        assert link.lost_bits == pytest.approx(300.0 * 5)

    def test_time_cannot_go_backwards(self):
        link = RcbrLink(100.0)
        link.request(A, 10.0, 5.0)
        with pytest.raises(ValueError):
            link.request(A, 20.0, 1.0)

    def test_counters(self):
        link = RcbrLink(1000.0)
        link.request(A, 500.0, 0.0)
        link.request(A, 700.0, 1.0)
        link.request(A, 300.0, 2.0)
        assert link.request_count == 3
        assert link.increase_count == 2
        assert link.failure_count == 0

    def test_release_unknown_source_is_safe(self):
        link = RcbrLink(100.0)
        link.release(99, 1.0)  # never requested
        assert link.num_sources == 0

    def test_repr(self):
        link = RcbrLink(100.0)
        assert "RcbrLink" in repr(link)


class TestCapacityChanges:
    def test_shrink_downgrades_grants_proportionally(self):
        link = RcbrLink(1000.0)
        link.request(A, 600.0, 0.0)
        link.request(B, 300.0, 0.0)
        link.set_capacity(450.0, 1.0)
        assert link.grant_of(A) == pytest.approx(300.0)
        assert link.grant_of(B) == pytest.approx(150.0)
        assert link.allocated <= 450.0 + 1e-9
        assert link.downgrade_events == 1
        # Demands are remembered: the deficit accrues to lost_bits.
        link.finish(2.0)
        assert link.lost_bits == pytest.approx(450.0)

    def test_restored_capacity_backfills_shortfall(self):
        link = RcbrLink(1000.0)
        link.request(A, 600.0, 0.0)
        link.request(B, 300.0, 0.0)
        link.set_capacity(450.0, 1.0)
        link.set_capacity(1000.0, 2.0)
        assert link.grant_of(A) == pytest.approx(600.0)
        assert link.grant_of(B) == pytest.approx(300.0)
        assert link.total_demand == pytest.approx(900.0)

    def test_growing_capacity_never_downgrades(self):
        link = RcbrLink(1000.0)
        link.request(A, 600.0, 0.0)
        link.set_capacity(2000.0, 1.0)
        assert link.grant_of(A) == pytest.approx(600.0)
        assert link.downgrade_events == 0

    def test_capacity_must_stay_positive(self):
        link = RcbrLink(1000.0)
        with pytest.raises(ValueError):
            link.set_capacity(0.0, 1.0)

    def test_shrink_never_overcommits_with_float_drift(self):
        """Regression: proportional scaling of many odd-valued grants
        used to leave ``allocated`` a few ULPs above the new capacity,
        so a subsequent full-capacity request could over-commit the
        link.  The shrink now exact-sums and shaves the residual."""
        link = RcbrLink(10_000.0)
        for index in range(97):
            link.request(index, 10_000.0 / 97.0, 0.0)
        link.set_capacity(3_333.33, 1.0)
        import math

        exact = math.fsum(
            link.grant_of(index) for index in range(97)
        )
        assert exact <= 3_333.33
        # A new arrival sized to the remaining headroom must fit.
        headroom = 3_333.33 - exact
        if headroom > 0:
            outcome = link.request(97, headroom, 2.0)  # a new arrival
            assert outcome.granted_rate <= headroom + 1e-12
        assert link.allocated <= 3_333.33

    def test_repeated_shrink_grow_cycles_stay_consistent(self):
        link = RcbrLink(1000.0)
        for index in range(10):
            link.request(index, 100.0, 0.0)
        for cycle in range(5):
            link.set_capacity(333.3, float(2 * cycle + 1))
            link.set_capacity(1000.0, float(2 * cycle + 2))
        assert link.allocated == pytest.approx(1000.0)
        assert link.total_demand == pytest.approx(1000.0)


class TestDemandTracking:
    def test_total_demand_tracks_requests_and_releases(self):
        link = RcbrLink(1000.0)
        link.request(A, 400.0, 0.0)
        link.request(B, 900.0, 0.0)
        assert link.total_demand == pytest.approx(1300.0)
        link.request(A, 100.0, 1.0)
        assert link.total_demand == pytest.approx(1000.0)
        link.release(B, 2.0)
        assert link.total_demand == pytest.approx(100.0)
        link.release(A, 3.0)
        assert link.total_demand == 0.0

    def test_total_demand_immune_to_cancellation_drift(self):
        """The O(1) running total must match a fresh sum even after many
        add/remove cycles with drift-prone magnitudes."""
        import math

        link = RcbrLink(1e9)
        for index in range(200):
            link.request(index, 1e6 / 3.0 + index * 0.1, 0.0)
        for index in range(0, 200, 2):
            link.release(index, 1.0)
        fresh = math.fsum(
            1e6 / 3.0 + index * 0.1 for index in range(1, 200, 2)
        )
        assert link.total_demand == pytest.approx(fresh, rel=1e-12)



def _assert_same_state(left, right):
    """Every observable of two links is bit-identical."""
    a, b = left.state_dict(), right.state_dict()
    for name in ("grants", "demands", "present", "insert_seq"):
        assert np.array_equal(a.pop(name), b.pop(name)), name
    assert a == b  # running totals, integrals, counters, shortfall FIFO
    assert left.allocated == right.allocated
    assert left.total_demand == right.total_demand


class TestRequestBatch:
    """``request_batch`` == a loop of ``request``, bit for bit."""

    # Callers whose sources are not slots intern them; releasing a
    # source frees its slot for the next new one.
    LABELS = [f"call-{index}" for index in range(10)] + [("edge", 3), -7]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_request_loop(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        batch, loop = RcbrLink(40.0), RcbrLink(40.0)
        slots = SlotInterner()
        fallbacks = []
        replay = RcbrLink._request_each

        def counted(self, *args):
            fallbacks.append(len(args[0]))
            return replay(self, *args)

        monkeypatch.setattr(RcbrLink, "_request_each", counted)
        commits = 0
        time = 0.0
        for _ in range(300):
            time += float(rng.choice([0.0, 0.25, 1.0]))
            action = rng.random()
            if action < 0.6:
                size = int(rng.integers(1, len(self.LABELS)))
                picks = rng.choice(len(self.LABELS), size=size, replace=False)
                keys = [
                    slots.intern(self.LABELS[i]) for i in picks.tolist()
                ]
                # Mostly small steps; a few big asks overrun the spare
                # capacity and force the exact scalar replay.
                rates = np.round(rng.uniform(0.0, 4.0, size) ** 1.5, 1)
                before = len(fallbacks)
                got = batch.request_batch(np.asarray(keys), rates, time)
                commits += len(fallbacks) == before
                granted = np.empty(size)
                failures = 0
                for index, key in enumerate(keys):
                    outcome = loop.request(key, float(rates[index]), time)
                    granted[index] = outcome.granted_rate
                    failures += outcome.failed
                assert np.array_equal(got[0], granted)
                assert got[1] == failures
            elif action < 0.8 and slots.slot_of:
                live = list(slots.slot_of)
                slot = slots.release(live[int(rng.integers(len(live)))])
                batch.release(slot, time)
                loop.release(slot, time)
            else:
                capacity = float(rng.choice([12.0, 25.0, 40.0, 60.0]))
                batch.set_capacity(capacity, time)
                loop.set_capacity(capacity, time)
            _assert_same_state(batch, loop)
        # Both paths really ran: vectorized commits and scalar replays.
        assert commits > 10
        assert fallbacks

    def test_columns_stay_bounded_by_live_sources(self):
        link = RcbrLink(100.0)
        slots = SlotInterner()
        for call_id in range(1000):
            link.request(slots.intern(call_id), 1.0, float(call_id))
            link.release(slots.release(call_id), float(call_id))
        assert link.num_sources == 0
        assert link.state_dict()["grants"].size <= 16
