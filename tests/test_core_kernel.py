"""The batched kernel must be bit-identical to the pre-refactor goldens.

Two layers of evidence, per the refactor's acceptance criteria:

* **kernel batch-of-1 vs golden** — hypothesis-style randomized sweeps
  drive the kernel-backed :class:`~repro.core.online.OnlineScheduler`
  and the frozen pre-refactor scalar loop
  (:mod:`tests.golden_reference`) over the same workloads, including
  denial patterns, finite-buffer overflow accounting, and every
  registered recovery policy, and require ``np.array_equal`` rate
  streams plus exactly equal counters;
* **batch-of-N vs N x batch-of-1** — stepping many calls through one
  state block must produce, per call, the same float stream as stepping
  each alone (no cross-call perturbation), which is what lets the
  server fleet and the scalar scheduler share one implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernel import (
    QUANTIZE_EPSILON,
    KernelState,
    RenegotiationKernel,
    quantize,
)
from repro.core.online import OnlineParams, OnlineScheduler
from repro.core.schedule import RateSchedule
from repro.faults.recovery import RECOVERY_REGISTRY, make_recovery_policy
from repro.traffic.trace import SlottedWorkload
from tests.golden_reference import golden_schedule

SLOT = 1.0 / 24.0


def bursty_workload(seed: int, num_slots: int = 400) -> SlottedWorkload:
    """Bursty, AR-correlated arrivals exercising both threshold branches."""
    rng = np.random.default_rng(seed)
    base = rng.gamma(shape=2.0, scale=40_000.0, size=num_slots)
    burst = (rng.random(num_slots) < 0.05) * rng.uniform(
        5e5, 2e6, size=num_slots
    )
    return SlottedWorkload(base + burst, slot_duration=SLOT)


def deny_pattern(period: int):
    """A deterministic request_fn denying every ``period``-th request."""
    calls = [0]

    def request_fn(time: float, rate: float) -> bool:
        calls[0] += 1
        return calls[0] % period != 0

    return request_fn


def assert_matches_golden(result, golden, slot_duration=SLOT):
    # The schedule compresses runs of equal rate, so rebuild it from the
    # golden per-slot stream the same way the scheduler does.
    golden_schedule_obj = RateSchedule.from_slot_rates(
        golden.slot_rates, slot_duration
    )
    assert np.array_equal(
        result.schedule.rates, golden_schedule_obj.rates
    )
    assert np.array_equal(
        result.schedule.start_times, golden_schedule_obj.start_times
    )
    assert result.max_buffer == golden.max_buffer
    assert result.final_buffer == golden.final_buffer
    assert result.requests_made == golden.requests_made
    assert result.requests_denied == golden.requests_denied
    assert result.bits_lost == golden.bits_lost
    assert result.drain_slots == golden.drain_slots
    assert result.requests_suppressed == golden.requests_suppressed


params_strategy = st.builds(
    OnlineParams,
    granularity=st.sampled_from([25_000.0, 64_000.0, 137_000.5, 400_000.0]),
    low_threshold=st.sampled_from([5_000.0, 10_000.0, 40_000.0]),
    high_threshold=st.sampled_from([150_000.0, 300_000.0]),
    time_constant_slots=st.sampled_from([2.0, 5.0, 12.0]),
    ar_coefficient=st.sampled_from([0.0, 0.5, 0.9, 0.98]),
    max_rate=st.sampled_from([None, 600_000.0, 2_000_000.0]),
)


class TestSchedulerVsGolden:
    """The kernel-driven scheduler replays the pre-refactor floats."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        params=params_strategy,
        buffer_size=st.sampled_from([None, 120_000.0, 300_000.0, 1e6]),
        deny_period=st.sampled_from([0, 2, 3, 7]),
    )
    @settings(max_examples=60, deadline=None)
    def test_randomized_schedules(
        self, seed, params, buffer_size, deny_period
    ):
        workload = bursty_workload(seed, num_slots=160)
        request_fn = deny_pattern(deny_period) if deny_period else None
        golden_fn = deny_pattern(deny_period) if deny_period else None
        result = OnlineScheduler(params).schedule(
            workload, request_fn=request_fn, buffer_size=buffer_size
        )
        golden = golden_schedule(
            params, workload, request_fn=golden_fn, buffer_size=buffer_size
        )
        assert_matches_golden(result, golden)

    @pytest.mark.parametrize("policy_name", sorted(RECOVERY_REGISTRY))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_recovery_policies(self, policy_name, seed):
        params = OnlineParams(granularity=64_000.0)
        workload = bursty_workload(seed)
        buffer_size = 250_000.0
        result = OnlineScheduler(params).schedule(
            workload,
            request_fn=deny_pattern(2),
            buffer_size=buffer_size,
            recovery=make_recovery_policy(policy_name, seed=11),
        )
        golden = golden_schedule(
            params,
            workload,
            request_fn=deny_pattern(2),
            buffer_size=buffer_size,
            recovery=make_recovery_policy(policy_name, seed=11),
        )
        assert_matches_golden(result, golden)
        if policy_name == "drain":
            assert golden.drain_slots > 0  # the panic path was exercised

    def test_overflow_accounting_with_total_denial(self):
        # Sustained denials against a small buffer force bits_lost.
        params = OnlineParams(granularity=64_000.0)
        workload = bursty_workload(12)
        result = OnlineScheduler(params).schedule(
            workload, request_fn=lambda *_: False, buffer_size=50_000.0
        )
        golden = golden_schedule(
            params,
            workload,
            request_fn=lambda *_: False,
            buffer_size=50_000.0,
        )
        assert result.bits_lost > 0
        assert_matches_golden(result, golden)

    def test_explicit_initial_rate_and_idle_source(self):
        params = OnlineParams(granularity=1_000.0)
        idle = SlottedWorkload(np.zeros(50), slot_duration=1.0)
        result = OnlineScheduler(params).schedule(idle)
        golden = golden_schedule(params, idle)
        assert_matches_golden(result, golden, slot_duration=1.0)
        workload = bursty_workload(4)
        result = OnlineScheduler(params).schedule(
            workload, initial_rate=100_000.0
        )
        golden = golden_schedule(params, workload, initial_rate=100_000.0)
        assert_matches_golden(result, golden)


class TestBatchSemantics:
    """Batch-of-N must equal N independent batch-of-1 runs."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        params=params_strategy,
        buffer_size=st.sampled_from([None, 200_000.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_fleet_of_ones(self, seed, params, buffer_size):
        num_calls, num_slots = 5, 80
        rng = np.random.default_rng(seed)
        arrivals = rng.gamma(2.0, 40_000.0, size=(num_slots, num_calls))

        kernel = RenegotiationKernel(params, SLOT, buffer_size=buffer_size)
        batch = kernel.new_state(num_calls)
        singles = [kernel.new_state(1) for _ in range(num_calls)]
        for state in (batch, *singles):
            state.estimate[:] = 0.0

        single_lost = 0.0
        for tick in range(num_slots):
            wants_b, cand_b = kernel.step(batch, arrivals[tick])
            wants_b = wants_b.copy()
            cand_b = cand_b.copy()
            for call, state in enumerate(singles):
                wants_s, cand_s = kernel.step(
                    state, arrivals[tick, call : call + 1]
                )
                assert wants_b[call] == wants_s[0]
                assert cand_b[call] == cand_s[0]
                # Grant every request, as the benchmark's gateway does.
                if wants_s[0]:
                    state.rate[0] = cand_s[0]
                if wants_b[call]:
                    batch.rate[call] = cand_b[call]
            assert np.array_equal(
                batch.buffer, np.concatenate([s.buffer for s in singles])
            )
            assert np.array_equal(
                batch.estimate,
                np.concatenate([s.estimate for s in singles]),
            )
        single_lost = sum(s.bits_lost for s in singles)
        if buffer_size is None:
            assert batch.bits_lost == 0.0 == single_lost

    def test_drain_mask_sheds_only_masked_calls(self):
        params = OnlineParams(granularity=64_000.0)
        kernel = RenegotiationKernel(params, SLOT, buffer_size=100_000.0)
        state = kernel.new_state(2)
        arrivals = np.array([50_000.0, 50_000.0])
        drain = np.array([True, False])
        kernel.step(state, arrivals, drain)
        # Call 0 shed its arrivals (counted lost), call 1 buffered them.
        assert state.buffer[0] == 0.0
        assert state.buffer[1] > 0.0
        assert state.bits_lost == 50_000.0
        # The AR(1) estimator saw the true incoming rate for both.
        assert state.estimate[0] == state.estimate[1]


class TestQuantizer:
    def test_scalar_matches_vector(self):
        params = OnlineParams(granularity=64_000.0, max_rate=3e6)
        kernel = RenegotiationKernel(params, SLOT)
        rng = np.random.default_rng(5)
        values = rng.uniform(-1e5, 8e6, size=500)
        # Vector path: replicate the in-step op order on a raw array.
        vector = np.maximum(values, 0.0)
        vector /= params.granularity
        vector -= QUANTIZE_EPSILON
        np.ceil(vector, out=vector)
        vector *= params.granularity
        np.minimum(vector, params.max_rate, out=vector)
        for value, expected in zip(values, vector):
            assert kernel.quantize(float(value)) == expected
        # The epsilon guard: exactly-on-grid values stay on their level.
        assert quantize(64_000.0 * 3, 64_000.0) == 64_000.0 * 3

    def test_max_rate_cap(self):
        assert quantize(1e9, 64_000.0, max_rate=500_000.0) == 500_000.0


class TestStateBlock:
    def test_grow_preserves_values(self):
        state = KernelState(2)
        state.rate[:] = [1.0, 2.0]
        state.estimate[:] = [3.0, 4.0]
        state.buffer[:] = [5.0, 6.0]
        state.bits_lost = 7.0
        state.grow(8)
        assert state.capacity == 8
        assert state.rate[:2].tolist() == [1.0, 2.0]
        assert state.estimate[:2].tolist() == [3.0, 4.0]
        assert state.buffer[:2].tolist() == [5.0, 6.0]
        assert not state.rate[2:].any()
        assert state.bits_lost == 7.0
        with pytest.raises(ValueError):
            state.grow(4)

    def test_clear_slot(self):
        state = KernelState(3)
        state.rate[1] = 9.0
        state.buffer[1] = 2.0
        state.estimate[1] = 3.0
        state.clear_slot(1)
        assert state.rate[1] == state.buffer[1] == state.estimate[1] == 0.0

    def test_validation(self):
        params = OnlineParams(granularity=64_000.0)
        with pytest.raises(ValueError):
            KernelState(0)
        with pytest.raises(ValueError):
            RenegotiationKernel(params, 0.0)
        with pytest.raises(ValueError):
            RenegotiationKernel(params, SLOT, buffer_size=0.0)

    def test_initial_rate_is_first_slot_quantized(self):
        params = OnlineParams(granularity=64_000.0)
        kernel = RenegotiationKernel(params, SLOT)
        assert kernel.initial_rate(0.0) == 0.0
        assert kernel.initial_rate(1_000.0) == kernel.quantize(1_000.0 / SLOT)

    @pytest.mark.parametrize("max_rate", [None, 3e6])
    @pytest.mark.parametrize("granularity", [64_000.0, 137_000.5])
    def test_initial_rates_match_scalar_float_for_float(
        self, granularity, max_rate
    ):
        params = OnlineParams(granularity=granularity, max_rate=max_rate)
        kernel = RenegotiationKernel(params, SLOT)
        rng = np.random.default_rng(9)
        grid = granularity * np.arange(60) * SLOT
        bits = np.concatenate(
            [
                rng.uniform(0.0, 2e5, size=400),
                grid,  # first-slot rates exactly on grid lines
                np.nextafter(grid, np.inf),
                np.nextafter(grid, -np.inf).clip(0.0),
                [0.0, 1e-300, 1e9],  # zero, dust, far above the cap
            ]
        )
        rates = kernel.initial_rates(bits)
        expected = [kernel.initial_rate(float(value)) for value in bits]
        # Bit patterns, not ==: a -0.0 would compare equal to 0.0.
        assert rates.tobytes() == np.asarray(expected).tobytes()
        if max_rate is not None:
            assert rates.max() == max_rate
