"""``MemoryMBAC``'s deferred splits and the running state behind its
certified test.

An arrival logs its split instead of touching the rows, and advances
the running per-level mass in closed form.  The dict-walk oracle in
``tests/test_admission_mbac_oracle.py`` pins the observable outputs;
this file pins what makes the shortcut sound and fast:

* **Running-state invariant** (hypothesis): after every callback, every
  level's running mass is within its tracked error of the exact sum of
  the cells the pending splits would leave, the nonzero-cell counts
  are those cells' (so the support is exact), and the open-row counts,
  start sums and zero cells behind the closed form match the rows.
  The sequences re-admit live ids, drop departed histories
  (``retain_departed=False``), compact, grow rows and level columns,
  round-trip through pickle with splits pending, run the clock
  backwards, and shrink the log bound so it flushes often.
* **Pickle**: a controller holding pending splits pickles to the same
  bytes as one that pooled before every arrival.
* **admit** touches no row: the seconds matrix and the segment starts
  keep their bits.
* **Duplicate ids in a batch** keep their last rate, as the scalar
  sequence does; **untracked ids** open no level column.
* **Fallback rate**: on a churning memory-MBAC gateway shaped like the
  ``churn-mbac`` benchmark, almost no arrival reaches the exact fold.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.admission import controllers
from repro.admission.controllers import MemoryMBAC
from repro.server import ServerConfig, build_gateway
from repro.traffic.starwars import generate_starwars_trace

#: Elapsed times between callbacks; zero repeats a timestamp.
STEPS = (0.0, 0.0, 0.1, 0.25, 1.0 / 3.0, 0.7, 1.9, 3.1e-3)

step_index = st.integers(0, len(STEPS) - 1)
pick = st.integers(0, 10**6)
operation = st.one_of(
    st.tuples(st.just("admit"), pick, pick, step_index, st.booleans()),
    st.tuples(st.just("restart"), pick, pick, step_index),
    st.tuples(st.just("reserve"), pick, pick, step_index),
    st.tuples(
        st.just("batch"),
        st.lists(st.tuples(pick, pick), min_size=0, max_size=6),
        step_index,
    ),
    st.tuples(st.just("depart"), pick, step_index),
    st.tuples(st.just("arrive"), step_index, st.integers(1, 8)),
    st.tuples(st.just("arrive"), step_index, st.integers(1, 8)),
    st.tuples(st.just("pool"), step_index),
    st.tuples(st.just("rewind"), step_index),
    st.tuples(st.just("roundtrip"),),
)


def caught_up(controller: MemoryMBAC) -> MemoryMBAC:
    """A copy of ``controller`` with every pending split applied; the
    original keeps its log."""
    clone = object.__new__(MemoryMBAC)
    clone.__dict__.update(controller.__dict__)
    for name in ("_seconds", "_born", "_start", "_synced"):
        setattr(clone, name, getattr(controller, name).copy())
    clone._log = list(controller._log)
    clone._flush()
    return clone


def assert_running_state(controller: MemoryMBAC) -> None:
    """The running state of ``controller`` against its caught-up cells."""
    rows = len(controller._ids)
    width = controller._levels.size
    clone = caught_up(controller)
    cells = clone._seconds[:rows]
    exact = np.asarray([math.fsum(cells[:, column]) for column in range(width)])
    gap = np.abs(controller._mass - exact)
    assert (gap <= controller._mass_error).all(), (gap, controller._mass_error)
    # The support is exact: a level is held where some cell is nonzero.
    assert np.array_equal(controller._cells, np.count_nonzero(cells, axis=0))
    if controller._support is not None:
        held, support = controller._support
        assert np.array_equal(held, np.flatnonzero(controller._cells))
        assert np.array_equal(support.levels, controller._levels[held])
    # The closed form's per-level bookkeeping of the open segments.
    live = np.flatnonzero(clone._live[:rows])
    columns = clone._level[live]
    starts = clone._start[live]
    assert np.array_equal(
        controller._open, np.bincount(columns, minlength=width).astype(float)
    )
    start_sums = np.asarray(
        [math.fsum(starts[columns == column]) for column in range(width)]
    )
    gap = np.abs(controller._start_sum - start_sums)
    assert (gap <= controller._start_error).all(), (gap, controller._start_error)
    zero = cells[live, columns] == 0.0
    assert np.array_equal(
        controller._waiting, np.bincount(columns[zero], minlength=width)
    )
    at_now = zero & (starts == controller._now)
    assert np.array_equal(
        controller._waiting_now, np.bincount(columns[at_now], minlength=width)
    )
    assert (starts <= controller._now).all()
    if controller._settled:
        assert (starts == controller._now).all()


class Churn:
    """Feeds a callback sequence to one controller, checking its running
    state after every step."""

    def __init__(self, controller: MemoryMBAC, levels) -> None:
        self.controller = controller
        self.levels = levels
        self.time = 0.0
        self.live: list = []
        self.gone: list = []
        self.serial = 0

    def level(self, index: int) -> float:
        # Later callbacks reach further into the level list, so columns
        # keep growing.
        reach = min(len(self.levels), 1 + self.serial // 2)
        return self.levels[index % reach]

    def run(self, operations) -> None:
        controller = self.controller
        for op in operations:
            kind = op[0]
            if kind == "admit":
                _, who, level, step, reuse = op
                self.time += STEPS[step]
                if reuse and self.gone:
                    call_id = self.gone.pop(who % len(self.gone))
                else:
                    call_id = f"call-{self.serial}"
                self.serial += 1
                controller.on_admit(call_id, self.level(level), self.time)
                self.live.append(call_id)
            elif kind == "restart" and self.live:
                _, who, level, step = op
                self.time += STEPS[step]
                call_id = self.live[who % len(self.live)]
                controller.on_admit(call_id, self.level(level), self.time)
            elif kind == "reserve" and self.live:
                _, who, level, step = op
                self.time += STEPS[step]
                call_id = self.live[who % len(self.live)]
                controller.on_reservation(call_id, self.level(level), self.time)
            elif kind == "batch" and self.live:
                _, pairs, step = op
                self.time += STEPS[step]
                ids = [self.live[who % len(self.live)] for who, _ in pairs]
                rates = [self.level(level) for _, level in pairs]
                controller.on_reservation_batch(ids, rates, self.time)
            elif kind == "depart" and self.live:
                _, who, step = op
                self.time += STEPS[step]
                call_id = self.live.pop(who % len(self.live))
                controller.on_departure(call_id, self.time)
                self.gone.append(call_id)
            elif kind == "arrive":
                _, step, calls = op
                self.time += STEPS[step]
                capacity = calls * max(self.levels) * 0.6
                controller.admit(capacity, self.time)
            elif kind == "pool":
                self.time += STEPS[op[1]]
                controller.pooled_history(self.time)
            elif kind == "rewind":
                # A clock that runs backwards: the arrival splits eagerly.
                self.time -= STEPS[op[1]]
                controller.admit(max(self.levels), self.time)
            elif kind == "roundtrip":
                controller = pickle.loads(pickle.dumps(controller))
                self.controller = controller
            assert_running_state(controller)


@settings(max_examples=120, deadline=None)
@given(
    operations=st.lists(operation, min_size=10, max_size=200),
    levels=st.lists(
        st.floats(min_value=1.0, max_value=2000.0, allow_nan=False),
        min_size=2,
        max_size=14,
        unique=True,
    ),
    retain=st.booleans(),
    bound=st.sampled_from([2, 5, controllers._MAX_PENDING]),
)
def test_running_mass_stays_within_its_error(operations, levels, retain, bound):
    saved = controllers._MAX_PENDING
    controllers._MAX_PENDING = bound
    try:
        Churn(MemoryMBAC(1e-3, retain_departed=retain), levels).run(operations)
    finally:
        controllers._MAX_PENDING = saved


def test_running_state_through_compaction_and_growth():
    """Hundreds of calls: row and column growth, compactions and the log
    bound, with the invariant checked at every arrival."""
    rng = np.random.default_rng(11)
    levels = np.round(rng.uniform(50.0, 1500.0, 40), 3).tolist()
    controller = MemoryMBAC(1e-3)
    time, live, serial = 0.0, [], 0
    for step in range(900):
        time += float(rng.exponential(0.05))
        draw = rng.random()
        if draw < 0.35 or not live:
            controller.admit(700.0 * (len(live) + 1), time)
            assert_running_state(controller)
            controller.on_admit(serial, levels[int(rng.integers(40))], time)
            live.append(serial)
            serial += 1
        elif draw < 0.6:
            controller.on_departure(live.pop(int(rng.integers(len(live)))), time)
        elif draw < 0.7:
            controller.on_reservation(
                live[int(rng.integers(len(live)))], levels[int(rng.integers(40))],
                time,
            )
        else:
            picked = rng.choice(len(live), size=min(len(live), 8), replace=False)
            controller.on_reservation_batch(
                [live[index] for index in picked.tolist()],
                [levels[int(rng.integers(40))] for _ in picked], time,
            )
    assert controller._seconds.shape[0] > 16 and len(controller._column_of) == 40
    assert_running_state(controller)


def churned(pool_first: bool) -> MemoryMBAC:
    """A seeded churn whose last arrivals leave splits pending, unless
    every arrival pools first."""
    rng = np.random.default_rng(7)
    levels = [100.0, 250.0, 400.0, 650.0, 900.0]
    controller = MemoryMBAC(0.05)
    time, live, serial = 0.0, [], 0
    for step in range(300):
        time += float(rng.choice([0.0, 0.1, 0.37, 1.3]))
        draw = rng.random()
        if draw < 0.5 or not live:
            if pool_first:
                controller.pooled_history(time)
            controller.admit(450.0 * (len(live) + 1), time)
            controller.on_admit(serial, levels[int(rng.integers(5))], time)
            live.append(serial)
            serial += 1
        elif draw < 0.7:
            controller.on_departure(live.pop(int(rng.integers(len(live)))), time)
        elif draw < 0.85:
            controller.on_reservation(
                live[int(rng.integers(len(live)))], levels[int(rng.integers(5))],
                time,
            )
        else:
            controller.on_reservation_batch(
                live[:3], [levels[int(rng.integers(5))] for _ in live[:3]], time
            )
    for _ in range(3):
        time += 0.5
        if pool_first:
            controller.pooled_history(time)
        controller.admit(450.0 * (len(live) + 1), time)
    return controller


def test_pickle_with_pending_splits_matches_pooling_every_arrival():
    deferred = churned(pool_first=False)
    assert deferred._log  # splits are pending
    assert pickle.dumps(deferred) == pickle.dumps(churned(pool_first=True))


def test_admit_touches_no_row():
    controller = churned(pool_first=False)
    seconds = controller._seconds.copy()
    starts = controller._start.copy()
    for index in range(20):
        controller.admit(450.0 * (controller.num_active + 1), 200.0 + index)
    assert len(controller._log) >= 20
    assert controller._seconds.tobytes() == seconds.tobytes()
    assert controller._start.tobytes() == starts.tobytes()


@pytest.mark.parametrize("retain", [True, False])
def test_duplicate_ids_in_a_batch_keep_their_last_rate(retain):
    """A batch naming a call twice (or three times) equals the scalar
    callbacks in order: one close, the last rate."""
    batch, scalar = MemoryMBAC(1e-3, retain_departed=retain), MemoryMBAC(
        1e-3, retain_departed=retain
    )
    for controller in (batch, scalar):
        for call_id in range(6):
            controller.on_admit(call_id, 100.0 + call_id, 0.0)
        controller.admit(1e4, 1.5)
    ids = [2, 4, 2, 0, 4, 2]
    rates = [300.0, 500.0, 350.0, 120.0, 100.0, 800.0]
    batch.on_reservation_batch(np.asarray(ids), np.asarray(rates), 2.0)
    for call_id, rate in zip(ids, rates):
        scalar.on_reservation(call_id, rate, 2.0)
    for controller in (batch, scalar):
        controller.on_departure(4, 3.0)
    assert pickle.dumps(batch) == pickle.dumps(scalar)
    assert batch._level[batch._row_of[2]] == batch._column_of[800.0]
    got, want = batch.pooled_history(4.0), scalar.pooled_history(4.0)
    for left, right in zip(got, want):
        assert left.tobytes() == right.tobytes()


@pytest.mark.parametrize("retain", [True, False])
def test_untracked_ids_in_a_batch_add_no_level(retain):
    """A batch naming calls the controller does not track (never
    admitted, or departed) ignores them as the scalar callbacks do: their
    rates open no level column."""
    batch, scalar = MemoryMBAC(1e-3, retain_departed=retain), MemoryMBAC(
        1e-3, retain_departed=retain
    )
    for controller in (batch, scalar):
        for call_id in range(4):
            controller.on_admit(call_id, 100.0 + call_id, 0.0)
        controller.on_departure(3, 1.0)
    ids = [9, 1, 3, 7]
    rates = [9999.0, 300.0, 7777.0, 5555.0]
    batch.on_reservation_batch(np.asarray(ids), np.asarray(rates), 2.0)
    for call_id, rate in zip(ids, rates):
        scalar.on_reservation(call_id, rate, 2.0)
    assert 9999.0 not in batch._column_of
    assert pickle.dumps(batch) == pickle.dumps(scalar)
    # A batch of untracked ids only changes nothing at all.
    before = pickle.dumps(batch)
    batch.on_reservation_batch(np.asarray([42]), np.asarray([1234.0]), 2.5)
    assert pickle.dumps(batch) == before


# ----------------------------------------------------------------------
# Fallback rate on a churning gateway
# ----------------------------------------------------------------------
def test_churning_gateway_rarely_reaches_the_fold():
    """A memory-MBAC gateway at load 1.2 over 3 hops, downgrading under
    overload (the ``churn-mbac`` shape, scaled down): the certified test
    settles almost every arrival, so the exact fold runs a handful of
    times at most.  A looser error bound or a cold search start shows up
    here as fallbacks."""
    workload = generate_starwars_trace(num_frames=4096, seed=5).as_workload()
    config = ServerConfig(
        capacity=200 * workload.mean_rate,
        load=1.2,
        controller="memory",
        num_hops=3,
        overload_policy="downgrade",
        abandon_after=4,
        mean_holding=6.0,
        initial_calls=160,
        seed=5,
    )
    with build_gateway(workload, config) as gateway:
        controller = gateway.controller
        assert isinstance(controller, MemoryMBAC)
        decide, fold = controller.admit, controller._pooled
        counts = {"admit": 0, "fold": 0}
        inside = []

        def admit(capacity, time, call_class=0):
            counts["admit"] += 1
            inside.append(True)
            try:
                return decide(capacity, time, call_class)
            finally:
                inside.pop()

        def pooled():
            counts["fold"] += bool(inside)
            return fold()

        controller.admit, controller._pooled = admit, pooled
        gateway.run(30.0)
    assert counts["admit"] > 200
    assert counts["fold"] <= 3, counts
