"""Cost model and the RCBR service façade."""

import numpy as np
import pytest

from repro.core.cost import CostModel, ratio_for_interval
from repro.core.online import OnlineParams
from repro.core.schedule import RateSchedule
from repro.core.service import OnlineRcbrSource, simulate_rcbr_link
from repro.queueing.link import RcbrLink
from repro.queueing.mux import rcbr_overflow_bits
from repro.traffic.trace import SlottedWorkload


class TestCostModel:
    def test_ratio(self):
        assert CostModel(alpha=10.0, beta=2.0).ratio == 5.0

    def test_ratio_infinite_for_free_bandwidth(self):
        assert CostModel(alpha=1.0, beta=0.0).ratio == float("inf")

    def test_schedule_cost_delegates(self):
        schedule = RateSchedule.from_slot_rates([1.0, 2.0], slot_duration=1.0)
        model = CostModel(alpha=5.0, beta=1.0)
        assert model.schedule_cost(schedule, 1.0) == pytest.approx(8.0)

    def test_scaled_preserves_ratio(self):
        model = CostModel(alpha=10.0, beta=2.0).scaled(3.0)
        assert model.alpha == 30.0
        assert model.ratio == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(alpha=-1.0)
        with pytest.raises(ValueError):
            CostModel(alpha=0.0, beta=0.0)
        with pytest.raises(ValueError):
            CostModel(alpha=1.0).scaled(0.0)

    def test_ratio_for_interval(self):
        ratio = ratio_for_interval(12.0, 1.0 / 24.0, 374_000.0)
        assert ratio == pytest.approx(374_000.0 * 288)
        with pytest.raises(ValueError):
            ratio_for_interval(0.0, 1.0, 1.0)


class TestSimulateRcbrLink:
    def test_all_fit_no_failures(self):
        schedules = [RateSchedule.constant(100.0, 10.0) for _ in range(3)]
        result = simulate_rcbr_link(schedules, capacity=1000.0)
        assert result.failures == 0
        assert result.lost_bits == 0.0
        assert result.loss_fraction == 0.0

    def test_agrees_with_aggregate_computation(self, optimal_schedule):
        schedules = [
            optimal_schedule.shifted(offset)
            for offset in (0.0, 7.3, 21.9, 40.1, 55.5)
        ]
        capacity = 5 * optimal_schedule.average_rate() * 0.85
        detailed = simulate_rcbr_link(schedules, capacity)
        lost, offered = rcbr_overflow_bits(schedules, capacity)
        assert detailed.lost_bits == pytest.approx(lost, rel=1e-9, abs=1e-6)
        assert detailed.offered_bits == pytest.approx(offered, rel=1e-9)

    def test_utilization_bounded_by_one(self, optimal_schedule):
        schedules = [optimal_schedule.shifted(i * 13.0) for i in range(4)]
        capacity = 4 * optimal_schedule.average_rate()
        result = simulate_rcbr_link(schedules, capacity)
        assert 0.0 < result.mean_utilization <= 1.0

    def test_staggered_start_times(self):
        schedules = [RateSchedule.constant(600.0, 5.0) for _ in range(2)]
        # Capacity fits one call at a time; the second starts after.
        result = simulate_rcbr_link(
            schedules, capacity=700.0, start_times=[0.0, 5.0]
        )
        assert result.failures == 0

    def test_overlapping_overload_counts_failure(self):
        schedules = [RateSchedule.constant(600.0, 5.0) for _ in range(2)]
        result = simulate_rcbr_link(schedules, capacity=700.0)
        assert result.failures == 1
        # Second source settles for 100 b/s, losing 500 b/s for 5 s.
        assert result.lost_bits == pytest.approx(2500.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_rcbr_link([], capacity=1.0)
        schedule = RateSchedule.constant(1.0, 1.0)
        with pytest.raises(ValueError):
            simulate_rcbr_link([schedule], 1.0, start_times=[0.0, 1.0])
        with pytest.raises(ValueError):
            simulate_rcbr_link([schedule], 1.0, start_times=[-1.0])


class TestOnlineRcbrSource:
    def test_granted_requests_track_link(self):
        link = RcbrLink(capacity=10_000.0)
        params = OnlineParams(
            granularity=100.0, low_threshold=10.0, high_threshold=100.0
        )
        source = OnlineRcbrSource(1, params, link)
        rates = np.concatenate([np.full(30, 500.0), np.full(30, 3000.0)])
        workload = SlottedWorkload(rates, slot_duration=1.0)
        result = source.run(workload)
        assert result.requests_denied == 0
        assert link.num_sources == 0  # released at the end

    def test_denials_on_saturated_link(self):
        link = RcbrLink(capacity=1000.0)
        # A competing reservation occupies almost everything.
        link.request(0, 900.0, 0.0)
        params = OnlineParams(
            granularity=100.0, low_threshold=10.0, high_threshold=100.0
        )
        source = OnlineRcbrSource(1, params, link)
        rates = np.concatenate([np.full(10, 100.0), np.full(50, 900.0)])
        workload = SlottedWorkload(rates, slot_duration=1.0)
        result = source.run(workload)
        assert result.requests_denied > 0
