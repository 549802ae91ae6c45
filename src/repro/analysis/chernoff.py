"""Chernoff bounds for bufferless multiplexing (eqs. 10-12).

The slow time-scale statistical multiplexing gain is governed by a simple
bufferless large-deviations estimate: if each of ``n`` independent calls
demands a bandwidth drawn from a marginal distribution ``(levels, probs)``
and the link capacity is ``C``, then the probability that total demand
exceeds capacity is approximately::

    P(overload) ~ exp( -n I*(C / n) )

where ``I*`` is the Legendre transform (Cramer rate function) of the
marginal's log moment generating function.  Eq. 10 applies this to the
subchain mean rates of a multiple time-scale source (shared-buffer loss),
eq. 11 to the subchain equivalent bandwidths (RCBR renegotiation
failure), and eq. 12 to a call's empirical rate histogram (admission
control).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np
from scipy import optimize


def _validated(levels: Sequence[float], probs: Sequence[float]):
    levels = np.asarray(levels, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ValueError("levels must be a non-empty 1-D sequence")
    if levels.shape != probs.shape:
        raise ValueError("levels and probs must have the same shape")
    if np.any(probs < 0):
        raise ValueError("probabilities must be non-negative")
    total = probs.sum()
    if total <= 0:
        raise ValueError("probabilities must not all be zero")
    return levels, probs / total


def _peak(levels: np.ndarray, probs: np.ndarray) -> float:
    """The largest level that carries mass: zero-weight levels never occur."""
    return float(levels[probs > 0].max())


def _logsumexp(a: np.ndarray, b: np.ndarray) -> float:
    """``log(sum(b * exp(a)))`` for 1-D float arrays with ``b >= 0``.

    The arithmetic of ``scipy.special.logsumexp(a, b=b)`` (scipy 1.17's
    real-input path), step for step and with the same ufuncs on the full
    arrays, so the result is bit-identical to scipy's without its
    array-API dispatch: zero weights drop their term, the largest terms
    are pulled out of the sum for precision, and a non-finite result is
    replaced by the direct formula.  scipy's sign handling is left out:
    it only acts on negative weights.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = np.where(b == 0, -np.inf, a)
        a_max = shifted.max()
        at_max = shifted == a_max
        shifted[at_max] = -np.inf
        m = (b * at_max).sum()
        s = (b * np.exp(shifted - a_max)).sum()
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log((b * np.exp(a)).sum())
    return float(out)


def _log_mgf(levels: np.ndarray, probs: np.ndarray, theta: float) -> float:
    """Lambda(theta) of an already validated marginal."""
    return _logsumexp(theta * levels, probs)


def log_mgf(levels: Sequence[float], probs: Sequence[float], theta: float) -> float:
    """Lambda(theta) = log E[e^{theta M}] of a discrete random variable."""
    levels, probs = _validated(levels, probs)
    return _log_mgf(levels, probs, theta)


def mean_of(levels: Sequence[float], probs: Sequence[float]) -> float:
    levels, probs = _validated(levels, probs)
    return float(levels @ probs)


def rate_function(
    levels: Sequence[float], probs: Sequence[float], capacity_per_call: float
) -> float:
    """The Cramer rate function I*(c) = sup_theta [theta c - Lambda(theta)].

    With ``peak`` the largest level of positive probability:

    * ``c <= mean``: 0 (no decay — the link is overloaded on average);
    * ``mean < c < peak``: found from the stationarity condition
      ``Lambda'(theta) = c`` (the tilted mean), solved by Brent's method
      on a doubling bracket since the tilted mean is increasing in theta;
    * ``c == peak``: ``-log P(M = peak)``;
    * ``c > peak``: infinity (demand can never reach capacity).
    """
    levels, probs = _validated(levels, probs)
    return _rate(levels, probs, float(capacity_per_call))


def _rate(levels: np.ndarray, probs: np.ndarray, c: float) -> float:
    """:func:`rate_function` of an already validated marginal."""
    mean = float(levels @ probs)
    top = _peak(levels, probs)
    if c <= mean:
        return 0.0
    if c > top:
        return math.inf
    if c == top:
        return -math.log(float(probs[levels == top].sum()))
    # Clipping at zero only touches zero-mass levels above the peak:
    # their weight stays 0 * exp(0) instead of 0 * inf once theta grows.
    offsets = np.minimum(levels - top, 0.0)

    def tilted_mean(theta: float) -> float:
        weights = probs * np.exp(theta * offsets)
        return float((weights @ levels) / weights.sum())

    # Bracket theta*: tilted mean runs from `mean` at 0 to `top` as
    # theta -> inf; expand the upper end until it overshoots c.
    low, high = 0.0, 1.0 / max(top - mean, 1e-12)
    while tilted_mean(high) < c:
        high *= 2.0
        if high > 1e18:
            # c is (numerically) at the peak.
            return -math.log(float(probs[levels >= top - 1e-9].sum()))
    theta_star = optimize.brentq(lambda t: tilted_mean(t) - c, low, high)
    # Renormalising again is not redundant: the estimate's last bits, and
    # so MBAC decisions, depend on each division (DESIGN.md, Chernoff bound).
    return theta_star * c - _log_mgf(levels, probs / probs.sum(), theta_star)


def overload_probability(
    levels: Sequence[float],
    probs: Sequence[float],
    num_calls: int,
    capacity: float,
) -> float:
    """Chernoff estimate of P(total demand of ``num_calls`` calls > capacity).

    This is eq. 12 (and eqs. 10-11 with the appropriate levels): the
    renegotiation-failure / loss probability estimate
    ``exp(-n I*(C/n))``.
    """
    if num_calls < 1:
        raise ValueError("num_calls must be >= 1")
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    levels, probs = _validated(levels, probs)
    return _overload(levels, probs, num_calls, capacity)


def _overload(
    levels: np.ndarray, probs: np.ndarray, num_calls: int, capacity: float
) -> float:
    """:func:`overload_probability` of an already validated marginal."""
    if num_calls * _peak(levels, probs) <= capacity:
        # Even all-peak demand fits: overload is impossible.  (The raw
        # Chernoff exponent cannot distinguish "> capacity" from
        # ">= capacity" at the boundary, so guard exactly.)
        return 0.0
    # Not redundant either: see the log-MGF call in :func:`_rate`.
    rate = _rate(levels, probs / probs.sum(), float(capacity / num_calls))
    if math.isinf(rate):
        return 0.0
    return math.exp(-num_calls * rate)


def max_admissible_calls(
    levels: Sequence[float],
    probs: Sequence[float],
    capacity: float,
    failure_target: float,
    hard_limit: int = 1_000_000,
) -> int:
    """Largest ``n`` with Chernoff failure estimate at or below the target.

    "Using this formula, the maximum number of calls the system can carry
    for a given threshold on the renegotiation failure probability can be
    computed" (Section VI).  The estimate is monotone in ``n`` (more calls
    with the same capacity can only increase overload), so a bracketed
    binary search applies.
    """
    if not 0.0 < failure_target < 1.0:
        raise ValueError("failure_target must be in (0, 1)")
    levels, probs = _validated(levels, probs)
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    # Not redundant: see the log-MGF call in :func:`_rate`.
    probs = probs / probs.sum()

    def estimate(num_calls: int) -> float:
        return _overload(levels, probs, num_calls, capacity)

    if estimate(1) > failure_target:
        return 0
    low = 1  # feasible
    high = 2
    while high <= hard_limit and estimate(high) <= failure_target:
        low = high
        high *= 2
    if high > hard_limit:
        return hard_limit
    while high - low > 1:
        middle = (low + high) // 2
        if estimate(middle) <= failure_target:
            low = middle
        else:
            high = middle
    return low


def admissible_region(
    levels: Sequence[float],
    probs: Sequence[float],
    capacities: Sequence[float],
    failure_target: float,
) -> np.ndarray:
    """Max admissible calls for each capacity; convenience for plots."""
    return np.array(
        [
            max_admissible_calls(levels, probs, float(capacity), failure_target)
            for capacity in capacities
        ]
    )


def heterogeneous_overload_probability(
    classes: Sequence[Tuple[Sequence[float], Sequence[float], int]],
    capacity: float,
) -> float:
    """Chernoff overload estimate for a *mixture* of call classes.

    ``classes`` is a sequence of ``(levels, probs, count)`` triples —
    ``count`` independent calls drawing their bandwidth from that class's
    marginal.  The total-demand estimate generalises eq. 12::

        P(overload) ~ exp( -sup_theta [ theta C - sum_j n_j Lambda_j(theta) ] )

    This is the natural extension for links carrying several video
    libraries (or video plus audio) at once; the homogeneous case
    reduces exactly to :func:`overload_probability`.
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    validated = []
    for levels, probs, count in classes:
        if count < 0:
            raise ValueError("class counts must be non-negative")
        if count == 0:
            continue
        levels, probs = _validated(levels, probs)
        validated.append((levels, probs, int(count)))
    if not validated:
        raise ValueError("need at least one call")

    total_mean = sum(
        count * float(levels @ probs) for levels, probs, count in validated
    )
    peaks = [_peak(levels, probs) for levels, probs, _ in validated]
    total_peak = sum(
        count * peak for (_, _, count), peak in zip(validated, peaks)
    )
    if capacity >= total_peak:
        return 0.0
    if capacity <= total_mean:
        return 1.0

    shift = max(peaks)
    # As in :func:`_rate`: clipping at zero only touches zero-mass levels.
    offsets = [np.minimum(levels - shift, 0.0) for levels, _, _ in validated]

    def tilted_total_mean(theta: float) -> float:
        total = 0.0
        for (levels, probs, count), offset in zip(validated, offsets):
            weights = probs * np.exp(theta * offset)
            total += count * float((weights @ levels) / weights.sum())
        return total

    low, high = 0.0, 1.0 / max(total_peak - total_mean, 1e-12)
    while tilted_total_mean(high) < capacity:
        high *= 2.0
        if high > 1e18:
            break
    theta_star = optimize.brentq(
        lambda t: tilted_total_mean(t) - capacity, low, high
    )
    # Not redundant: see the log-MGF call in :func:`_rate`.
    exponent = theta_star * capacity - sum(
        count * _log_mgf(levels, probs / probs.sum(), theta_star)
        for levels, probs, count in validated
    )
    return math.exp(-max(exponent, 0.0))


def empirical_exceedance(
    samples: np.ndarray, threshold: float
) -> Tuple[float, int]:
    """Fraction (and count) of samples strictly above a threshold.

    Used by the theory-validation bench to compare Monte-Carlo overload
    frequencies with the Chernoff estimates.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must be non-empty")
    count = int((samples > threshold).sum())
    return count / samples.size, count
