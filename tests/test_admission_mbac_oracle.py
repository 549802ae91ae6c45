"""The columnar measurement-based controllers against the frozen dict walk.

``MemoryMBAC`` pools every live call's reservation history on each
arrival.  Its contract is exactness: every ``(levels, fractions)`` pair
it returns is bit-identical to the dict walk kept in
``tests/golden_mbac.py``, so every admission decision, snapshot and
fingerprint is too.  ``MemorylessMBAC``'s level -> count table must give
the same snapshot as ``np.unique`` over the current rates.

* **Randomized callback sequences** (hypothesis): admissions, single
  and batched renegotiations, departures, arrivals and bare pooling,
  with string call ids, repeated timestamps, levels first seen long
  after admission, ids re-admitted after leaving, live ids admitted
  again (their history restarts), callbacks for unknown ids,
  ``retain_departed=False`` and ``min_history_seconds > 0``.  Some
  arrivals decide without pooling first, so several splits -- some at
  one timestamp -- wait in ``MemoryMBAC``'s log until a callback or a
  fold catches the rows up.  Some arrivals are steered: their capacity
  is the float at which the golden decision flips, so the estimate
  lands on the target and ``MemoryMBAC``'s certified test must fall
  back to the exact fold.  A
  twin controller that is never pickled must pool and decide exactly
  as the round-tripped one (the running state behind the certified
  test is derived on restore).
* **Gateway tee**: a churning gateway feeds every controller callback
  to both implementations, which must agree on every pooled history
  and every decision at ``shards=0`` and ``shards=2``; the tee does not
  perturb the run's fingerprint.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.admission.controllers import MemoryMBAC, MemorylessMBAC
from repro.analysis.chernoff import overload_probability
from repro.server import ServerConfig, build_gateway
from repro.traffic.starwars import generate_starwars_trace

from tests.golden_mbac import GoldenMemoryMBAC, GoldenMemorylessMBAC

#: Elapsed times between callbacks; zero repeats a timestamp.
STEPS = (0.0, 0.0, 0.1, 0.25, 1.0 / 3.0, 0.7, 1.9, 3.1e-3)
TARGETS = (1e-3, 0.05)

step_index = st.integers(0, len(STEPS) - 1)
pick = st.integers(0, 10**6)
operation = st.one_of(
    st.tuples(st.just("admit"), pick, pick, step_index, st.booleans()),
    st.tuples(st.just("reserve"), pick, pick, step_index),
    st.tuples(
        st.just("batch"),
        st.lists(st.tuples(pick, pick), min_size=0, max_size=6),
        step_index,
    ),
    st.tuples(st.just("depart"), pick, step_index),
    st.tuples(st.just("arrive"), pick, step_index, st.integers(1, 8)),
    st.tuples(st.just("decide"), pick, step_index, st.integers(1, 8)),
    st.tuples(st.just("steer"), step_index, st.booleans()),
    st.tuples(st.just("restart"), pick, pick, step_index),
    st.tuples(st.just("pool"), step_index),
    st.tuples(st.just("unknown"), pick, step_index),
    st.tuples(st.just("roundtrip"),),
)
levels_strategy = st.lists(
    st.floats(min_value=1.0, max_value=2000.0, allow_nan=False),
    min_size=2,
    max_size=12,
    unique=True,
)
operations_strategy = st.lists(operation, min_size=10, max_size=150)


def certified(controller, calls, capacity, time):
    """The certified verdict of a ``MemoryMBAC`` for an arrival at
    ``time``, reached as ``admit`` reaches it: the split logged and the
    running state advanced, no fold."""
    controller._split(time)
    return controller._certified(capacity, calls)


def assert_same_pool(expected, actual):
    if expected is None:
        assert actual is None
        return
    assert actual is not None
    for want, got in zip(expected, actual):
        assert want.dtype == got.dtype
        assert np.array_equal(want, got), (want, got)


class Replay:
    """Feeds one callback sequence to a golden and a columnar controller,
    checking every observable output on the way."""

    def __init__(self, golden, columnar, levels):
        self.golden = golden
        self.columnar = columnar
        self.twin = pickle.loads(pickle.dumps(columnar))  # never round-tripped
        self.levels = levels
        self.time = 0.0
        self.live: list = []
        self.gone: list = []
        self.serial = 0

    def level(self, index):
        # Later operations reach further into the level list, so some
        # levels are first held long after their call was admitted.
        reach = min(len(self.levels), 1 + self.serial // 2)
        return self.levels[index % reach]

    def advance(self, step):
        self.time = self.time + STEPS[step]

    def both(self, name, *args):
        for controller in (self.golden, self.columnar, self.twin):
            getattr(controller, name)(*args)

    def decide(self, capacity):
        want = self.golden.admit(capacity, self.time, call_class=0)
        for controller in (self.columnar, self.twin):
            assert controller.admit(capacity, self.time, call_class=0) == want

    def steer(self, admit_side):
        """Arrive at the capacity where the golden decision flips, and
        check that ``MemoryMBAC``'s certified test leaves it to the exact
        path."""
        marginal = self.check_pool()
        if marginal is None or not self.golden.num_active:
            return
        levels, fractions = marginal
        calls = self.golden.num_active + 1
        target = self.golden.failure_target

        def estimate(capacity):
            return overload_probability(levels, fractions, calls, capacity)

        low, high = 0.5 * calls * float(levels @ fractions), calls * float(levels.max())
        if not (low > 0.0 and estimate(low) > target):
            return
        while True:  # adjacent floats with opposite decisions
            middle = low + (high - low) / 2
            if middle in (low, high):
                break
            if estimate(middle) > target:
                low = middle
            else:
                high = middle
        knife_edge = 0.0 < estimate(high) and estimate(low) < 1.0
        capacity = high if admit_side else low
        if knife_edge and isinstance(self.columnar, MemoryMBAC):
            for controller in (self.columnar, self.twin):
                assert certified(controller, calls, capacity, self.time) is None
        self.decide(capacity)

    def run(self, operations):
        for op in operations:
            kind = op[0]
            if kind == "admit":
                _, who, level, step, reuse = op
                self.advance(step)
                if reuse and self.gone:
                    call_id = self.gone.pop(who % len(self.gone))
                else:
                    call_id = f"call-{self.serial}"
                self.serial += 1
                self.both("on_admit", call_id, self.level(level), self.time, 0)
                self.live.append(call_id)
            elif kind == "restart" and self.live:
                _, who, level, step = op
                self.advance(step)
                call_id = self.live[who % len(self.live)]
                self.both("on_admit", call_id, self.level(level), self.time, 0)
            elif kind == "reserve" and self.live:
                _, who, level, step = op
                self.advance(step)
                call_id = self.live[who % len(self.live)]
                self.both("on_reservation", call_id, self.level(level), self.time)
            elif kind == "batch" and self.live:
                _, pairs, step = op
                self.advance(step)
                ids = [self.live[who % len(self.live)] for who, _ in pairs]
                rates = [self.level(level) for _, level in pairs]
                for call_id, rate in zip(ids, rates):
                    self.golden.on_reservation(call_id, rate, self.time)
                self.columnar.on_reservation_batch(ids, rates, self.time)
                self.twin.on_reservation_batch(ids, rates, self.time)
            elif kind == "depart" and self.live:
                _, who, step = op
                self.advance(step)
                call_id = self.live.pop(who % len(self.live))
                self.both("on_departure", call_id, self.time)
                self.gone.append(call_id)
            elif kind == "unknown":
                _, level, step = op
                self.advance(step)
                self.both("on_reservation", "nobody", self.level(level), self.time)
                self.both("on_departure", "nobody", self.time)
            elif kind in ("arrive", "decide"):
                _, level, step, calls = op
                self.advance(step)
                capacity = calls * max(self.levels) * 0.8 + self.level(level)
                if kind == "arrive":
                    self.check_pool()
                self.decide(capacity)
            elif kind == "steer":
                self.advance(op[1])
                self.steer(op[2])
            elif kind == "pool":
                self.advance(op[1])
                self.check_pool()
            elif kind == "roundtrip":
                self.columnar = pickle.loads(pickle.dumps(self.columnar))
            assert self.columnar.num_active == self.golden.num_active
            if not hasattr(self.golden, "pooled_history"):
                self.check_pool()  # a snapshot is pure: check every step
        self.advance(2)
        self.check_pool()

    def check_pool(self):
        """The golden marginal for an arrival now, checked against both
        columnar controllers.  Pooling splits every open segment (rule
        3), so all three pool."""
        if hasattr(self.golden, "pooled_history"):
            expected = self.golden.pooled_history(self.time)
            for controller in (self.columnar, self.twin):
                assert_same_pool(expected, controller.pooled_history(self.time))
        else:
            expected = self.golden._tracker.snapshot() if self.golden.num_active else None
            for controller in (self.columnar, self.twin):
                assert_same_pool(
                    expected,
                    controller._tracker.snapshot() if controller.num_active else None,
                )
        return expected


def long_churn(seed, retain, pool_every):
    """A seeded churn of hundreds of calls at 48 levels, fed to the
    golden and the columnar controller; both pool before the arrival of
    every ``pool_every``-th step, and every decision must agree."""
    rng = np.random.default_rng(seed)
    levels = np.round(rng.uniform(50.0, 1500.0, 48), 3).tolist()
    golden = GoldenMemoryMBAC(1e-3, retain_departed=retain)
    columnar = MemoryMBAC(1e-3, retain_departed=retain)
    time = 0.0
    live: list = []
    serial = 0
    for step in range(1500):
        if step % 300 == 299:
            columnar = pickle.loads(pickle.dumps(columnar))
        time += float(rng.exponential(0.05))
        draw = rng.random()
        if draw < 0.3 or not live:
            call_id = f"c{serial}"
            serial += 1
            capacity = float(rng.uniform(0.5, 1.5)) * 700.0 * (len(live) + 1)
            if step % pool_every == 0:
                assert_same_pool(
                    golden.pooled_history(time), columnar.pooled_history(time)
                )
            assert golden.admit(capacity, time) == columnar.admit(capacity, time)
            rate = levels[int(rng.integers(len(levels)))]
            golden.on_admit(call_id, rate, time)
            columnar.on_admit(call_id, rate, time)
            live.append(call_id)
        elif draw < 0.55:
            call_id = live.pop(int(rng.integers(len(live))))
            golden.on_departure(call_id, time)
            columnar.on_departure(call_id, time)
        else:
            count = int(rng.integers(1, min(len(live), 12) + 1))
            picked = rng.choice(len(live), size=count, replace=False)
            ids = [live[index] for index in picked.tolist()]
            rates = [levels[int(rng.integers(len(levels)))] for _ in ids]
            for call_id, rate in zip(ids, rates):
                golden.on_reservation(call_id, rate, time)
            columnar.on_reservation_batch(
                np.asarray(ids), np.asarray(rates), time
            )
    assert_same_pool(golden.pooled_history(time + 1.0),
                     columnar.pooled_history(time + 1.0))


class TestMemoryMBACOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        operations=operations_strategy,
        levels=levels_strategy,
        retain=st.booleans(),
        min_history=st.sampled_from([0.0, 0.0, 0.5, 5.0]),
        target=st.sampled_from(TARGETS),
    )
    def test_random_sequences_match_dict_walk(
        self, operations, levels, retain, min_history, target
    ):
        replay = Replay(
            GoldenMemoryMBAC(target, min_history, retain),
            MemoryMBAC(target, min_history, retain),
            levels,
        )
        replay.run(operations)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), retain=st.booleans())
    def test_long_churn_matches_dict_walk(self, seed, retain):
        """Hundreds of calls at dozens of levels: many compactions,
        growth of both the row and the level capacity, pickle round
        trips, and long pooled folds where summation order shows in the
        last bit."""
        long_churn(seed, retain, pool_every=1)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), retain=st.booleans())
    def test_long_churn_pooling_rarely_matches_dict_walk(self, seed, retain):
        """The long churn with a fold before every 50th step only: in
        between, arrivals log their splits, and departures, batches,
        pickles and the log bound catch the rows up, as in a gateway."""
        long_churn(seed, retain, pool_every=50)

    def test_single_level_fold_is_sequential(self):
        """One level column over many calls: a pairwise sum would drift
        from the dict walk's left fold in the last bit."""
        golden = GoldenMemoryMBAC(1e-3)
        columnar = MemoryMBAC(1e-3)
        rng = np.random.default_rng(5)
        starts = np.sort(rng.uniform(0.0, 10.0, 183)).tolist()
        for index, start in enumerate(starts):
            golden.on_admit(index, 300.0, start)
            columnar.on_admit(index, 300.0, start)
        for time in (10.5, 11.0 + 1.0 / 3.0, 17.25):
            assert_same_pool(
                golden.pooled_history(time), columnar.pooled_history(time)
            )

    def test_no_history_means_no_estimate(self):
        controller = MemoryMBAC(1e-3)
        for index in range(5):
            controller.on_admit(index, 100.0, 0.0)
        assert controller.pooled_history(0.0) is None
        assert controller.admit(1.0, 0.0)


class TestMemorylessCounts:
    @settings(max_examples=150, deadline=None)
    @given(
        operations=operations_strategy,
        levels=levels_strategy,
        target=st.sampled_from(TARGETS),
    )
    def test_count_table_matches_unique(self, operations, levels, target):
        replay = Replay(
            GoldenMemorylessMBAC(target), MemorylessMBAC(target), levels
        )
        replay.run(operations)


# ----------------------------------------------------------------------
# Gateway tee
# ----------------------------------------------------------------------
class TeeController:
    """Forwards every callback to the columnar controller and the golden
    dict walk, asserting they agree on each arrival."""

    def __init__(self, failure_target: float) -> None:
        self.columnar = MemoryMBAC(failure_target)
        self.golden = GoldenMemoryMBAC(failure_target)
        self.pools = 0
        self.decisions = 0

    def admit(self, capacity, time, call_class=0):
        # pooled_history at a fixed time is idempotent: the second
        # pooling inside admit() closes zero-length segments only.
        if self.golden.num_active:
            assert_same_pool(
                self.golden.pooled_history(time),
                self.columnar.pooled_history(time),
            )
            self.pools += 1
        want = self.golden.admit(capacity, time, call_class)
        got = self.columnar.admit(capacity, time, call_class)
        assert want == got
        self.decisions += 1
        return got

    def on_admit(self, call_id, initial_rate, time, call_class=0):
        self.golden.on_admit(call_id, initial_rate, time, call_class)
        self.columnar.on_admit(call_id, initial_rate, time, call_class)

    def on_reservation(self, call_id, new_rate, time):
        self.golden.on_reservation(call_id, new_rate, time)
        self.columnar.on_reservation(call_id, new_rate, time)

    def on_reservation_batch(self, call_ids, new_rates, time):
        for call_id, rate in zip(
            np.asarray(call_ids).tolist(), np.asarray(new_rates).tolist()
        ):
            self.golden.on_reservation(call_id, rate, time)
        self.columnar.on_reservation_batch(call_ids, new_rates, time)

    def on_departure(self, call_id, time):
        self.golden.on_departure(call_id, time)
        self.columnar.on_departure(call_id, time)


@pytest.fixture(scope="module")
def churn_workload():
    return generate_starwars_trace(num_frames=1200, seed=3).as_workload()


def churn_config(workload, shards):
    return ServerConfig(
        capacity=40 * workload.mean_rate,
        load=1.2,
        controller="memory",
        failure_target=0.05,
        num_hops=3,
        # Tight upstream hops deny some renegotiations, so calls
        # downgrade and abandon too.
        upstream_headroom=1.0,
        overload_policy="downgrade",
        abandon_after=4,
        mean_holding=6.0,
        initial_calls=40,
        seed=17,
        shards=shards,
        shard_chunk=16,
    )


class TestGatewayTee:
    @pytest.mark.parametrize("shards", [0, 2])
    def test_churn_gateway_agrees_with_dict_walk(self, churn_workload, shards):
        config = churn_config(churn_workload, shards)
        tee = TeeController(config.failure_target)
        with build_gateway(churn_workload, config, controller=tee) as gateway:
            teed = gateway.run(20.0, snapshot_every=2.0)
            assert gateway.departed > 0 and gateway.blocked > 0
            assert gateway.abandoned > 0
        assert tee.pools > 50 and tee.decisions > 100
        with build_gateway(churn_workload, config) as gateway:
            plain = gateway.run(20.0, snapshot_every=2.0)
        assert teed.fingerprint == plain.fingerprint
