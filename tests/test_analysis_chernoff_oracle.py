"""The in-repo Chernoff kernel against the frozen scipy-backed module.

:mod:`repro.analysis.chernoff` validates its input once per public call
and evaluates the log-MGF with its own ``_logsumexp``.  Its contract is
exactness: every public function returns the same float, byte for byte,
as ``tests/golden_chernoff.py`` (or raises the same error), wherever the
marginal's peak level carries positive mass.  A zero-mass peak is the
one place they part: the golden module takes ``levels.max()`` as the
peak and can fail, the kernel takes the peak over the support.

* **Marginals** (hypothesis): 1-40 levels, zero weights, repeated
  levels, weights that do not sum to one;
* **capacities** below the mean, at the mean, between the mean and the
  peak, at the peak and above it;
* **tilts** up to ones where ``theta * levels`` overflows, which takes
  the non-finite fallback of the log-sum-exp;
* **mixtures** of 1-3 classes.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import chernoff

from tests import golden_chernoff as golden

# Overflowing tilts and the golden module's zero-mass-peak failure warn
# by design; both modules must warn alike, so the warnings are not the test.
pytestmark = [
    pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning"),
]


def outcome(function, *args):
    """The result's bytes, or the error it raised."""
    try:
        value = function(*args)
    except (ValueError, ArithmeticError) as error:
        return type(error).__name__, str(error)
    return np.float64(value).tobytes()


_GOLDEN_RATE = golden.rate_function


def _golden_rate_at_the_mean(levels, probs, capacity_per_call):
    """The golden rate function, except where brentq's bracket fails
    because ``c`` lies above ``levels @ probs`` but at or below the tilted
    mean at theta = 0: there theta* = 0 and the exact rate is 0, which
    the kernel returns (the golden module raises)."""
    try:
        return _GOLDEN_RATE(levels, probs, capacity_per_call)
    except ValueError as error:
        if "different signs" not in str(error):
            raise
        levels, probs = golden._validated(levels, probs)
        if float(capacity_per_call) <= float((probs @ levels) / probs.sum()):
            return 0.0
        raise


def assert_same(name, *args):
    with mock.patch.object(golden, "rate_function", _golden_rate_at_the_mean):
        want = outcome(getattr(golden, name), *args)
    got = outcome(getattr(chernoff, name), *args)
    assert got == want, (name, args, want, got)


level = st.one_of(
    st.integers(0, 12).map(float),  # small integers repeat often
    st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
)
weight = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1.0),
    st.integers(1, 1000).map(float),
)


@st.composite
def marginals(draw, max_levels=40):
    """``(levels, probs)`` whose peak level carries positive mass."""
    size = draw(st.integers(1, max_levels))
    levels = draw(st.lists(level, min_size=size, max_size=size))
    probs = draw(st.lists(weight, min_size=size, max_size=size))
    peak = int(np.argmax(levels))
    probs[peak] = probs[peak] or draw(st.floats(min_value=1e-3, max_value=5.0))
    return np.array(levels), np.array(probs)


def capacity_per_call(draw, levels, probs):
    """A per-call capacity at, around or beyond the marginal's landmarks."""
    mean = golden.mean_of(levels, probs)
    peak = float(levels.max())
    where = draw(st.sampled_from(["below", "mean", "between", "peak", "above"]))
    if where == "below":
        return mean * draw(st.floats(0.0, 1.0))
    if where == "mean":
        return mean
    if where == "peak":
        return peak
    if where == "above":
        return peak * draw(st.floats(1.0, 2.0)) + draw(st.floats(0.0, 1.0))
    return mean + (peak - mean) * draw(st.floats(0.0, 1.0))


tilt = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=1e-4, max_value=1.0),
    st.sampled_from([0.0, -0.0, 1e306, 1e308, -1e308, 3e305]),
)


@settings(max_examples=200, deadline=None)
@given(marginal=marginals(), theta=tilt)
def test_log_mgf_matches(marginal, theta):
    assert_same("log_mgf", *marginal, theta)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), marginal=marginals())
def test_rate_function_matches(data, marginal):
    levels, probs = marginal
    c = capacity_per_call(data.draw, levels, probs)
    assert_same("rate_function", levels, probs, c)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), marginal=marginals(), num_calls=st.integers(1, 300))
def test_overload_probability_matches(data, marginal, num_calls):
    levels, probs = marginal
    c = capacity_per_call(data.draw, levels, probs)
    capacity = num_calls * c if c > 0 else 1.0
    assert_same("overload_probability", levels, probs, num_calls, capacity)


def boundary_targets(levels, probs, capacity, num_calls):
    """Failure targets that put the decision for ``num_calls`` calls on a
    knife edge: the estimate itself, as the golden search computes it,
    and the float just below it.  An estimate that moves by one ulp
    either way changes the admissible count for one of them."""
    estimate = golden.overload_probability(
        levels, probs / probs.sum(), num_calls, capacity
    )
    if not 0.0 < estimate < 1.0:
        return []
    return [estimate, float(np.nextafter(estimate, 0.0))]


@settings(max_examples=100, deadline=None)
@given(
    marginal=marginals(max_levels=12),
    num_calls=st.integers(1, 120),
    between=st.floats(0.05, 0.95),
    target=st.sampled_from([1e-9, 1e-6, 1e-3, 0.05, 0.5]),
)
def test_max_admissible_calls_matches(marginal, num_calls, between, target):
    levels, probs = marginal
    mean = golden.mean_of(levels, probs)
    capacity = num_calls * (mean + (float(levels.max()) - mean) * between) or 1.0
    for failure_target in [target, *boundary_targets(
        levels, probs, capacity, num_calls
    )]:
        assert_same("max_admissible_calls", levels, probs, capacity, failure_target)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    classes=st.lists(
        st.tuples(marginals(max_levels=12), st.integers(0, 40)),
        min_size=1,
        max_size=3,
    ),
)
def test_heterogeneous_overload_probability_matches(data, classes):
    mixture = [(levels, probs, count) for (levels, probs), count in classes]
    live = [(l, p, n) for l, p, n in mixture if n > 0]
    if not live:  # both must refuse an empty mixture alike
        assert_same("heterogeneous_overload_probability", mixture, 1.0)
        return
    mean = sum(n * golden.mean_of(l, p) for l, p, n in live)
    peak = sum(n * float(l.max()) for l, _, n in live)
    where = data.draw(st.sampled_from(["below", "mean", "between", "peak", "above"]))
    capacity = {
        "below": mean * data.draw(st.floats(0.0, 1.0)),
        "mean": mean,
        "between": mean + (peak - mean) * data.draw(st.floats(0.0, 1.0)),
        "peak": peak,
        "above": peak + data.draw(st.floats(0.0, 10.0)),
    }[where]
    assert_same("heterogeneous_overload_probability", mixture, capacity or 1.0)


def test_seeded_corpus_matches():
    """A fixed corpus of awkward marginals: normalisations that are off
    by an ulp, many near-peak levels, and overflowing tilts."""
    rng = np.random.default_rng(20260517)
    for _ in range(400):
        size = int(rng.integers(1, 41))
        levels = np.round(rng.uniform(0.0, 1500.0, size), int(rng.integers(0, 3)))
        probs = rng.uniform(0.0, 1.0, size) * (rng.random(size) > 0.2)
        probs[np.argmax(levels)] += rng.uniform(0.01, 1.0)
        mean = golden.mean_of(levels, probs)
        peak = float(levels.max())
        for theta in (rng.normal(0.0, 0.05), rng.uniform(0.5, 5.0), 1e307):
            assert_same("log_mgf", levels, probs, theta)
        for c in (mean, (mean + peak) / 2, mean + (peak - mean) * 0.99, peak):
            assert_same("rate_function", levels, probs, c)
            num_calls = int(rng.integers(2, 500))
            assert_same("overload_probability", levels, probs, num_calls,
                        num_calls * c or 1.0)
        capacity = 60 * (mean + peak) / 2 or 1.0
        for target in boundary_targets(levels, probs, capacity, 60):
            assert_same("max_admissible_calls", levels, probs, capacity, target)


class TestRateAtTheMean:
    """A per-call capacity just above ``levels @ probs`` but at or below
    the tilted mean at theta = 0 has rate 0, not a brentq bracket error."""

    LEVELS = [1, 2, 3, 7, 10, 17, 27, 30, 35, 36]
    PROBS = [
        0.943006272690257, 0.9689264863063872, 0.32764945413198066,
        0.7083458703669923, 0.5084046609907297, 0.9787623649000355,
        0.5912992803747523, 0.40003016051282647, 0.03375555542247022,
        0.7289475620574137,
    ]

    def test_repro_overload_probability(self):
        with pytest.raises(ValueError, match="different signs"):
            golden.overload_probability(self.LEVELS, self.PROBS, 3, 41.65438920604122)
        assert chernoff.overload_probability(
            self.LEVELS, self.PROBS, 3, 41.65438920604122
        ) == 1.0

    def test_seeded_probe_one_ulp_above_the_mean(self):
        rng = np.random.default_rng(20261018)
        hits = 0
        for _ in range(4000):
            levels = np.unique(np.round(rng.uniform(0.0, 40.0, int(rng.integers(2, 12)))))
            if levels.size < 2:
                continue
            raw = rng.uniform(0.0, 1.0, levels.size)
            _, probs = chernoff._validated(levels, raw)
            c = float(np.nextafter(float(levels @ probs), math.inf))
            if float((probs @ levels) / probs.sum()) > c:
                hits += 1
                assert chernoff.rate_function(levels, raw, c) == 0.0
            assert_same("rate_function", levels, raw, c)
            assert_same("overload_probability", levels, raw, 4, 4 * c)
        assert hits > 0

class TestZeroMassPeak:
    """A level with no mass above the support never sets the peak."""

    LEVELS = [1.0, 2.0, 3.0]
    PROBS = [0.5, 0.5, 0.0]

    def test_overload_probability_all_peak_demand_fits(self):
        # All-peak demand is 10 * 2 <= 25: overload is impossible.
        assert chernoff.overload_probability(self.LEVELS, self.PROBS, 10, 25.0) == 0.0

    def test_overload_probability_matches_the_support(self):
        for capacity in (16.0, 19.0, 19.999, 20.0):
            assert chernoff.overload_probability(
                self.LEVELS, self.PROBS, 10, capacity
            ) == chernoff.overload_probability([1.0, 2.0], [0.5, 0.5], 10, capacity)

    def test_rate_function_uses_the_support_peak(self):
        assert chernoff.rate_function(self.LEVELS, self.PROBS, 2.5) == math.inf
        assert chernoff.rate_function(self.LEVELS, self.PROBS, 2.0) == pytest.approx(
            math.log(2.0)
        )
        for c in (1.5, 1.9, 1.999999):
            assert chernoff.rate_function(
                self.LEVELS, self.PROBS, c
            ) == pytest.approx(chernoff.rate_function([1.0, 2.0], [0.5, 0.5], c))

    def test_max_admissible_calls(self):
        support = chernoff.max_admissible_calls([1.0, 2.0], [0.5, 0.5], 25.0, 1e-3)
        assert chernoff.max_admissible_calls(
            self.LEVELS, self.PROBS, 25.0, 1e-3
        ) == support >= 12

    def test_heterogeneous_overload_probability(self):
        video = ([1.0, 5.0], [0.5, 0.5])
        assert chernoff.heterogeneous_overload_probability(
            [(self.LEVELS, self.PROBS, 10), (*video, 2)], 30.0
        ) == 0.0
        for capacity in (24.0, 27.0):
            assert chernoff.heterogeneous_overload_probability(
                [(self.LEVELS, self.PROBS, 10), (*video, 2)], capacity
            ) == pytest.approx(
                chernoff.heterogeneous_overload_probability(
                    [([1.0, 2.0], [0.5, 0.5], 10), (*video, 2)], capacity
                )
            )

    def test_golden_module_fails_here(self):
        with pytest.raises(ValueError, match="NaN"):
            golden.overload_probability(self.LEVELS, self.PROBS, 10, 25.0)

    def test_zero_mass_level_far_above_the_peak(self):
        # The tilt needed near a peak of 0.002 is in the thousands, where
        # exp(theta * (1.0 - 0.002)) overflows: the zero-mass level must
        # not turn its weight into 0 * inf.
        levels, probs = [0.001, 0.002, 1.0], [0.5, 0.5, 0.0]
        support = ([0.001, 0.002], [0.5, 0.5])
        for c in (0.0015, 0.0019, 0.0019999):
            assert chernoff.rate_function(levels, probs, c) == pytest.approx(
                chernoff.rate_function(*support, c)
            )
        assert chernoff.overload_probability(levels, probs, 10, 0.019) == pytest.approx(
            chernoff.overload_probability(*support, 10, 0.019)
        )
        mixture = [(levels, probs, 10), ([0.001, 0.003], [0.5, 0.5], 1)]
        assert chernoff.heterogeneous_overload_probability(
            mixture, 0.0215
        ) == pytest.approx(
            chernoff.heterogeneous_overload_probability(
                [(*support, 10), mixture[1]], 0.0215
            )
        )


# ----------------------------------------------------------------------
# The certified admission test
# ----------------------------------------------------------------------
def certified(levels, probs, mass, num_calls, capacity, target):
    """The certified verdict for running masses ``mass`` of the support
    of ``(levels, probs)``, each exactly ``|mass - probs|`` away."""
    support = probs > 0
    error = np.abs(mass - probs[support])
    return chernoff._certified_admit(
        levels[support], mass, error, num_calls, capacity, target
    )


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    marginal=marginals(),
    num_calls=st.integers(1, 400),
    above=st.lists(st.floats(1.0, 500.0), max_size=3),
    perturbation=st.sampled_from([0.0, 1e-13, 1e-10, 1e-7]),
    target=st.sampled_from([1e-9, 1e-6, 1e-3, 0.05, 0.5]),
)
def test_certified_decision_matches(
    data, marginal, num_calls, above, perturbation, target
):
    """Whenever the certified test decides, its verdict is the golden
    module's: for marginals of 1-40 levels, per-call capacities at, below
    and above the landmarks, and masses perturbed by their stated error
    bound.  Levels of zero mass above the peak are ones the
    golden module cannot take, so there the reference is the kernel's own
    estimate, which the tests above tie to the golden module on the
    support.  A target at the estimate, or one ulp below it, is a knife
    edge no bound can settle: the test must fall back."""
    levels, probs = marginal
    c = capacity_per_call(data.draw, levels, probs)
    capacity = num_calls * c if c > 0 else 1.0
    reference = golden
    if above:
        peak = float(levels.max())
        levels = np.concatenate([levels, peak + np.asarray(above)])
        probs = np.concatenate([probs, np.zeros(len(above))])
        reference = chernoff
    support = probs > 0
    signs = data.draw(
        st.lists(
            st.sampled_from([-1.0, 0.0, 1.0]),
            min_size=int(support.sum()),
            max_size=int(support.sum()),
        )
    )
    mass = probs[support] * (1.0 + perturbation * np.asarray(signs))
    verdict = certified(levels, probs, mass, num_calls, capacity, target)
    try:
        estimate = reference.overload_probability(levels, probs, num_calls, capacity)
    except ValueError:
        # brentq's bracket fails when C/n is within rounding of the mean;
        # there is no exact answer to certify.
        assert verdict is None
        return
    if verdict is not None:
        assert verdict == (estimate <= target), (estimate, target)
    if 0.0 < estimate < 1.0:
        for edge in (estimate, float(np.nextafter(estimate, 0.0))):
            assert certified(
                levels, probs, mass, num_calls, capacity, edge
            ) is None, (estimate, edge)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    marginal=marginals(max_levels=20),
    steps=st.integers(2, 8),
    target=st.sampled_from([1e-6, 1e-3, 0.05, 0.5]),
)
def test_kept_support_decisions_match(data, marginal, steps, target):
    """One support kept over a run of arrivals, as ``MemoryMBAC`` keeps
    it: the masses drift and the call count moves by one between
    arrivals, and each decision first tries the last probes, then starts
    its search where the last one ended.  Every verdict is still the
    golden module's, and a target at the estimate or one ulp below it
    still falls back."""
    levels, probs = marginal
    held = probs > 0
    kept = chernoff._Support(levels[held])
    num_calls = data.draw(st.integers(2, 400))
    c = capacity_per_call(data.draw, levels, probs)
    for _ in range(steps):
        num_calls = max(1, num_calls + data.draw(st.sampled_from([-1, 0, 1])))
        drift = data.draw(
            st.lists(
                st.floats(0.0, 0.02), min_size=int(held.sum()),
                max_size=int(held.sum()),
            )
        )
        probs = probs.copy()
        probs[held] *= 1.0 + np.asarray(drift)
        mass, error = probs[held], np.zeros(int(held.sum()))
        capacity = num_calls * c if c > 0 else 1.0
        verdict = chernoff._certify(kept, mass, error, num_calls, capacity, target)
        try:
            estimate = golden.overload_probability(levels, probs, num_calls, capacity)
        except ValueError:
            assert verdict is None
            continue
        if verdict is not None:
            assert verdict == (estimate <= target), (estimate, target)
        if 0.0 < estimate < 1.0:
            for edge in (estimate, float(np.nextafter(estimate, 0.0))):
                assert chernoff._certify(
                    kept, mass, error, num_calls, capacity, edge
                ) is None, (estimate, edge)


def test_certified_decision_mostly_decides():
    """Away from the target the test settles the decision itself: over a
    seeded corpus it falls back on fewer than 1 in 50."""
    rng = np.random.default_rng(20261018)
    decided = 0
    trials = 300
    for _ in range(trials):
        size = int(rng.integers(2, 41))
        levels = np.unique(np.round(rng.uniform(1.0, 1500.0, size), 1))
        probs = rng.uniform(0.01, 1.0, levels.size)
        num_calls = int(rng.integers(2, 1000))
        mean = golden.mean_of(levels, probs)
        c = mean + (float(levels.max()) - mean) * rng.uniform(0.02, 0.98)
        capacity = num_calls * c
        estimate = golden.overload_probability(levels, probs, num_calls, capacity)
        target = estimate * float(np.exp(rng.choice([-1.0, 1.0]) * 0.05))
        if not 0.0 < target < 1.0:
            decided += 1
            continue
        verdict = certified(levels, probs, probs, num_calls, capacity, target)
        if verdict is not None:
            assert verdict == (estimate <= target)
            decided += 1
    assert decided > trials * 49 // 50


@pytest.mark.parametrize("levels", [[100.0, 300.0], [300.0]])
@pytest.mark.parametrize("capacity", [0.0, -1.0])
def test_certified_decision_leaves_bad_capacity_to_exact_path(levels, capacity):
    """A capacity that is not positive has no verdict: the exact path
    must see it and raise, also for a one-level marginal."""
    levels = np.asarray(levels)
    probs = np.full(levels.size, 1.0 / levels.size)
    assert certified(levels, probs, probs, 5, capacity, 1e-3) is None
    with pytest.raises(ValueError):
        chernoff.overload_probability(levels, probs, 5, capacity)
