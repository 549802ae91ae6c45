"""RM-cell signaling, switch ports, and multi-hop paths."""

import numpy as np
import pytest

from repro.core.schedule import RateSchedule
from repro.signaling.messages import CellKind, RenegotiationRequest, RmCell
from repro.signaling.network import SignalingPath, simulate_schedules_on_path
from repro.signaling.switch import SwitchPort


class TestMessages:
    def test_request_delta(self):
        request = RenegotiationRequest(vci=1, old_rate=100.0, new_rate=250.0, time=0.0)
        assert request.delta == 150.0
        cell = request.as_cell()
        assert cell.kind is CellKind.DELTA
        assert cell.er == 150.0

    def test_deny_records_first_hop_only(self):
        cell = RmCell(vci=1, kind=CellKind.DELTA, er=10.0, issued_at=0.0)
        cell.deny(2)
        cell.deny(5)
        assert cell.denied_at_hop == 2

    def test_is_increase(self):
        up = RmCell(vci=1, kind=CellKind.DELTA, er=10.0, issued_at=0.0)
        down = RmCell(vci=1, kind=CellKind.DELTA, er=-10.0, issued_at=0.0)
        absolute = RmCell(vci=1, kind=CellKind.ABSOLUTE, er=10.0, issued_at=0.0)
        assert up.is_increase
        assert not down.is_increase
        assert not absolute.is_increase


class TestSwitchPort:
    def test_increase_within_capacity(self):
        port = SwitchPort(1000.0)
        cell = RmCell(vci=1, kind=CellKind.DELTA, er=400.0, issued_at=0.0)
        assert port.process(cell)
        assert port.utilization == 400.0

    def test_increase_beyond_capacity_denied(self):
        port = SwitchPort(1000.0)
        port.process(RmCell(vci=1, kind=CellKind.DELTA, er=800.0, issued_at=0.0))
        denied = RmCell(vci=2, kind=CellKind.DELTA, er=300.0, issued_at=0.0)
        assert not port.process(denied)
        assert port.utilization == 800.0
        assert port.requests_denied == 1

    def test_decrease_always_accepted(self):
        port = SwitchPort(1000.0)
        port.process(RmCell(vci=1, kind=CellKind.DELTA, er=800.0, issued_at=0.0))
        down = RmCell(vci=1, kind=CellKind.DELTA, er=-300.0, issued_at=1.0)
        assert port.process(down)
        assert port.utilization == 500.0

    def test_upstream_denied_cell_not_committed(self):
        port = SwitchPort(1000.0)
        cell = RmCell(vci=1, kind=CellKind.DELTA, er=100.0, issued_at=0.0)
        cell.deny(0)
        assert not port.process(cell)
        assert port.utilization == 0.0

    def test_per_vci_tracking(self):
        port = SwitchPort(1000.0)
        port.process(RmCell(vci=7, kind=CellKind.DELTA, er=100.0, issued_at=0.0))
        port.process(RmCell(vci=7, kind=CellKind.DELTA, er=50.0, issued_at=1.0))
        assert port.rate_of(7) == pytest.approx(150.0)

    def test_stateless_port_has_no_vci_view(self):
        port = SwitchPort(1000.0, track_per_vci=False)
        port.process(RmCell(vci=7, kind=CellKind.DELTA, er=100.0, issued_at=0.0))
        assert port.rate_of(7) is None

    def test_absolute_resync_repairs_drift(self):
        port = SwitchPort(1000.0)
        # The switch believes vci 1 holds 500 (e.g. a lost decrease cell).
        port.process(RmCell(vci=1, kind=CellKind.DELTA, er=500.0, issued_at=0.0))
        resync = RmCell(vci=1, kind=CellKind.ABSOLUTE, er=200.0, issued_at=1.0)
        assert port.process(resync)
        assert port.utilization == pytest.approx(200.0)
        assert port.rate_of(1) == pytest.approx(200.0)

    def test_rollback_undoes_increase(self):
        port = SwitchPort(1000.0)
        cell = RmCell(vci=1, kind=CellKind.DELTA, er=400.0, issued_at=0.0)
        port.process(cell)
        port.rollback(cell)
        assert port.utilization == 0.0

    def test_release_frees_tracked_rate(self):
        port = SwitchPort(1000.0)
        port.process(RmCell(vci=1, kind=CellKind.DELTA, er=400.0, issued_at=0.0))
        port.release(1)
        assert port.utilization == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SwitchPort(0.0)


class TestProvisionBatch:
    """``provision_batch`` is a loop of ``provision``, bit for bit."""

    @staticmethod
    def twins(track_per_vci, seed):
        ports = [
            SwitchPort(1e6, track_per_vci=track_per_vci) for _ in range(2)
        ]
        # Shared history: some VCIs already hold rates, some were freed.
        rng = np.random.default_rng(seed)
        for port in ports:
            history = np.random.default_rng(seed)
            for vci in history.choice(40, size=12, replace=False).tolist():
                port.provision(vci, float(history.uniform(0.0, 5e4)))
            port.release(int(history.integers(40)))
        return ports, rng

    @staticmethod
    def assert_same(scalar, batch):
        assert batch.utilization == scalar.utilization
        assert type(batch.utilization) is float
        if scalar._vci_rates is None:
            assert batch._vci_rates is None
        else:
            assert scalar._vci_rates.tobytes() == batch._vci_rates.tobytes()

    @pytest.mark.parametrize("track_per_vci", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_provision_loop(self, track_per_vci, seed):
        (scalar, batch), rng = self.twins(track_per_vci, seed)
        for _ in range(3):
            vcis = rng.permutation(200)[: int(rng.integers(1, 80))]
            rates = rng.uniform(0.0, 1e5, size=vcis.size)
            # Zero and sub-epsilon rates, including past the column's end,
            # where the scalar path stores nothing and does not grow.
            rates[rng.random(vcis.size) < 0.2] = 0.0
            rates[rng.random(vcis.size) < 0.1] = 1e-13
            for vci, rate in zip(vcis.tolist(), rates.tolist()):
                scalar.provision(vci, rate)
            batch.provision_batch(vcis, rates)
            self.assert_same(scalar, batch)

    def test_no_growth_for_zero_rate_past_the_column(self):
        scalar, batch = SwitchPort(1e6), SwitchPort(1e6)
        scalar.provision(100, 0.0)
        batch.provision_batch(np.array([100]), np.array([0.0]))
        self.assert_same(scalar, batch)
        assert batch._vci_rates.size == 16

    @pytest.mark.parametrize("track_per_vci", [True, False])
    def test_negative_rate_leaves_port_untouched(self, track_per_vci):
        port = SwitchPort(1e6, track_per_vci=track_per_vci)
        port.provision(3, 500.0)
        before = port.state_dict()
        with pytest.raises(ValueError):
            port.provision_batch(np.array([1, 2, 4]), np.array([10.0, -1.0, 5.0]))
        after = port.state_dict()
        assert after["utilization"] == before["utilization"]
        if track_per_vci:
            assert after["vci_rates"].tobytes() == before["vci_rates"].tobytes()

    def test_empty_batch_is_a_no_op(self):
        port = SwitchPort(1e6)
        port.provision_batch(np.empty(0, dtype=np.int64), np.empty(0))
        assert port.utilization == 0.0


class TestSignalingPath:
    def test_all_hops_must_accept(self):
        ports = [SwitchPort(1000.0), SwitchPort(300.0), SwitchPort(1000.0)]
        path = SignalingPath(ports, seed=0)
        request = RenegotiationRequest(vci=1, old_rate=0.0, new_rate=500.0, time=0.0)
        assert not path.renegotiate(request)
        # Hop 0 must have been rolled back.
        assert ports[0].utilization == 0.0
        assert path.stats.failure_hops == [1]

    def test_success_updates_every_hop(self):
        ports = [SwitchPort(1000.0) for _ in range(4)]
        path = SignalingPath(ports, seed=0)
        request = RenegotiationRequest(vci=1, old_rate=0.0, new_rate=500.0, time=0.0)
        assert path.renegotiate(request)
        assert all(port.utilization == 500.0 for port in ports)

    def test_cell_loss_causes_drift(self):
        ports = [SwitchPort(1000.0)]
        path = SignalingPath(ports, cell_loss_probability=0.999999, seed=1)
        request = RenegotiationRequest(vci=1, old_rate=0.0, new_rate=500.0, time=0.0)
        assert not path.renegotiate(request)
        assert path.stats.cells_lost == 1
        assert ports[0].utilization == 0.0

    def test_round_trip_time(self):
        path = SignalingPath([SwitchPort(1.0)] * 3, hop_delay=0.002)
        assert path.round_trip_time == pytest.approx(0.012)

    def test_validation(self):
        with pytest.raises(ValueError):
            SignalingPath([])
        with pytest.raises(ValueError):
            SignalingPath([SwitchPort(1.0)], hop_delay=-1.0)
        with pytest.raises(ValueError):
            SignalingPath([SwitchPort(1.0)], cell_loss_probability=1.0)
        with pytest.raises(ValueError):
            SignalingPath([SwitchPort(1.0)], retry_backoff=0.5)
        with pytest.raises(ValueError):
            SignalingPath([SwitchPort(1.0)], retry_jitter=1.0)
        with pytest.raises(ValueError):
            SignalingPath([SwitchPort(1.0)], retry_jitter=-0.1)
        with pytest.raises(ValueError):
            SignalingPath([SwitchPort(1.0)], request_timeout=0.0)


class _TransmitRecorder(SignalingPath):
    """Records each attempt's issue time; every transmission is lost."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.issue_times = []

    def _transmit(self, cell, time):
        self.issue_times.append(time)
        status = super()._transmit(cell, time)
        assert self.stats.cells_lost >= 1  # loss prob ~1: always lost
        return status


class TestRetryBackoff:
    """The jittered exponential retry schedule (lost-cell retries)."""

    def _retry_path(self, **kwargs):
        kwargs.setdefault("cell_loss_probability", 1.0 - 1e-12)
        kwargs.setdefault("request_timeout", 1.0)
        kwargs.setdefault("max_retries", 3)
        kwargs.setdefault("seed", 0)
        return _TransmitRecorder([SwitchPort(1e9)], **kwargs)

    def _request(self):
        return RenegotiationRequest(
            vci=1, old_rate=0.0, new_rate=500.0, time=0.0
        )

    def test_default_is_fixed_interval(self):
        path = self._retry_path()
        assert not path.renegotiate(self._request())
        assert path.issue_times == [0.0, 1.0, 2.0, 3.0]

    def test_backoff_grows_geometrically(self):
        path = self._retry_path(retry_backoff=2.0)
        assert not path.renegotiate(self._request())
        # Waits of 1, 2, 4 timeouts between attempts.
        assert path.issue_times == [0.0, 1.0, 3.0, 7.0]

    def test_jitter_stretches_within_bounds(self):
        path = self._retry_path(retry_backoff=2.0, retry_jitter=0.5)
        assert not path.renegotiate(self._request())
        bare = [0.0, 1.0, 3.0, 7.0]
        gaps = np.diff(path.issue_times)
        for gap, base in zip(gaps, [1.0, 2.0, 4.0]):
            assert base <= gap <= base * 1.5
        assert path.issue_times != bare  # jitter actually moved something

    def test_jitter_is_deterministic_in_the_retry_seed(self):
        first = self._retry_path(retry_backoff=2.0, retry_jitter=0.5,
                                 retry_seed=42)
        second = self._retry_path(retry_backoff=2.0, retry_jitter=0.5,
                                  retry_seed=42)
        other = self._retry_path(retry_backoff=2.0, retry_jitter=0.5,
                                 retry_seed=43)
        for path in (first, second, other):
            path.renegotiate(self._request())
        assert first.issue_times == second.issue_times
        assert first.issue_times != other.issue_times

    def test_retry_stream_does_not_perturb_loss_stream(self):
        # Turning jitter on must not change which cells get lost: the
        # jitter draws come from a dedicated stream, not the loss rng.
        plain = SignalingPath(
            [SwitchPort(1e9)], cell_loss_probability=0.5, seed=7,
            max_retries=2,
        )
        jittered = SignalingPath(
            [SwitchPort(1e9)], cell_loss_probability=0.5, seed=7,
            max_retries=2, retry_backoff=2.0, retry_jitter=0.9,
            retry_seed=123,
        )
        for path in (plain, jittered):
            for index in range(30):
                path.renegotiate(
                    RenegotiationRequest(
                        vci=1,
                        old_rate=float(index),
                        new_rate=float(index + 1),
                        time=float(index) * 100.0,
                    )
                )
        assert jittered.stats.cells_lost == plain.stats.cells_lost
        assert jittered.stats.failures == plain.stats.failures


class TestScheduleReplay:
    def make_schedules(self, count, seed=3):
        rng = np.random.default_rng(seed)
        schedules = []
        for _ in range(count):
            times = [0.0, 10.0, 20.0, 30.0]
            rates = rng.choice([100.0, 200.0, 400.0], size=4, replace=True)
            # Ensure adjacent rates differ.
            for i in range(1, 4):
                if rates[i] == rates[i - 1]:
                    rates[i] = 300.0 if rates[i] != 300.0 else 100.0
            schedules.append(RateSchedule(times, rates, duration=40.0))
        return schedules

    def test_no_failures_on_fat_path(self):
        schedules = self.make_schedules(5)
        path = SignalingPath([SwitchPort(1e9) for _ in range(3)], seed=0)
        result = simulate_schedules_on_path(schedules, path)
        assert result.stats.failures == 0
        assert sum(result.source_failures) == 0

    def test_failures_on_thin_path(self):
        schedules = self.make_schedules(8)
        path = SignalingPath([SwitchPort(900.0)], seed=0)
        result = simulate_schedules_on_path(schedules, path)
        assert result.stats.failures > 0
        assert sum(result.source_failures) == result.stats.failures

    def test_signaling_load_counts_cells(self):
        schedules = self.make_schedules(5)
        path = SignalingPath([SwitchPort(1e9)], seed=0)
        result = simulate_schedules_on_path(schedules, path)
        # 4 segments per schedule -> 4 cells each (setup + 3 renegs).
        assert path.stats.cells_sent == 20
        assert result.cells_per_second == pytest.approx(20 / 40.0)

    def test_resync_cells_add_load(self):
        schedules = self.make_schedules(2)
        path = SignalingPath([SwitchPort(1e9)], seed=0)
        result = simulate_schedules_on_path(
            schedules, path, resync_interval=5.0
        )
        assert path.stats.cells_sent > 8

    def test_resync_repairs_lost_decrease(self):
        # One schedule: rate 400 then 100.  The decrease cell is lost
        # (forced via loss probability), leaving utilization at 400;
        # a later absolute resync repairs it.
        schedule = RateSchedule([0.0, 10.0], [400.0, 100.0], duration=40.0)
        port = SwitchPort(1e9)
        path = SignalingPath([port], cell_loss_probability=0.0, seed=0)
        path.renegotiate(
            RenegotiationRequest(vci=0, old_rate=0.0, new_rate=400.0, time=0.0)
        )
        # Simulate the lost decrease: the source believes 100, port has 400.
        path.resynchronize(0, 100.0, 15.0)
        assert port.utilization == pytest.approx(100.0)

    def test_lead_time_must_be_nonnegative(self):
        schedules = self.make_schedules(1)
        path = SignalingPath([SwitchPort(1e9)])
        with pytest.raises(ValueError):
            simulate_schedules_on_path(schedules, path, lead_time=-1.0)

    def test_empty_schedules_rejected(self):
        path = SignalingPath([SwitchPort(1e9)])
        with pytest.raises(ValueError):
            simulate_schedules_on_path([], path)
