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
control).  Admission needs only eq. 12's yes or no, which
:func:`_certified_admit` proves from approximate masses whenever a
bound settles it, leaving the exact estimate for decisions near the
target.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

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


#: One ulp of 1.0: twice the unit roundoff.  Every error bound of the
#: certified test charges this per rounded operation, so the spare half
#: absorbs the second-order terms and the rounding of the bound's own
#: arithmetic.
_ULP = float(np.finfo(float).eps)
#: :func:`_rate`'s ``brentq`` tolerances (scipy's defaults): it stops
#: once its sign-change bracket is narrower than ``_XTOL + _RTOL *
#: |theta|``, which the certified test's slack depends on.
_XTOL, _RTOL = 2e-12, 4 * _ULP


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

    # `mean` and the tilted mean at 0 round apart: a c between them is
    # at the mean, where theta* = 0 and the exact rate is 0.
    if tilted_mean(0.0) > c:
        return 0.0
    # Bracket theta*: tilted mean runs from `mean` at 0 to `top` as
    # theta -> inf; expand the upper end until it overshoots c.
    low, high = 0.0, 1.0 / max(top - mean, 1e-12)
    while tilted_mean(high) < c:
        high *= 2.0
        if high > 1e18:
            # c is (numerically) at the peak.
            return -math.log(float(probs[levels >= top - 1e-9].sum()))
    theta_star = optimize.brentq(
        lambda t: tilted_mean(t) - c, low, high, xtol=_XTOL, rtol=_RTOL
    )
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


#: Relative error allowed for one ``exp`` or ``log`` (numpy's or libm's).
_FN_ULPS = 4
#: ``exp(x)`` is 0.0 or subnormal below -745: the largest exponent whose
#: rounding still shows as a relative error in a tilted weight.
_EXP_RANGE = 746.0
#: Smallest normalised mass the test accepts.  Above it, a subnormal
#: tilted weight errs by less than 2**-160 relative to the peak's.
_MIN_FRACTION = 2.0**-900
#: Smallest target the test decides for: below the normal range, exp's
#: error is absolute rather than relative.
_MIN_TARGET = 2.0**-1000
#: :func:`_rate` gives up bracketing past this tilt; the test must show
#: that the exact path stops well before it.
_MAX_TILT = 4e17


class _Support:
    """The certified test's state for one support: what it derives from
    the levels alone, the tilt its last Newton search ended at, and the
    probes that last settled a verdict, with their exponentials.  A
    caller whose support rarely changes keeps one, so an arrival pays
    only for what depends on the masses."""

    def __init__(self, levels: np.ndarray, tilt: float = 0.0) -> None:
        self.levels = levels
        self.size = levels.size
        self.top = float(levels.max())
        self.spread = self.top - float(levels.min())
        self.scale = float(np.abs(levels).max())
        # Clipping at zero only touches zero-mass levels above the peak.
        self.offsets = np.minimum(levels - self.top, 0.0)
        # The Newton search's moments [1, o, o^2] of the tilted weights,
        # and the probes' sums and dot products with the levels: each
        # one product.
        self.powers = np.vstack(
            (np.ones(self.size), self.offsets, self.offsets * self.offsets)
        )
        self.basis = np.vstack((np.ones(self.size), levels)).T
        size = self.size
        self.xi = 4 * size * _ULP / (1.0 - 4 * size * _ULP)  # gamma(4K)
        # The tilted-mean error's terms that the masses do not move (see
        # :func:`_certify`).
        weight_error = (_EXP_RANGE + _FN_ULPS + 2) * _ULP
        self.rounding = (
            2 * (2 * weight_error * self.spread + (size + 2) * _ULP * self.scale)
            + self.xi * self.scale
        )
        self.tilt = tilt
        self.probes: Optional[list] = None
        self.tilted: Optional[np.ndarray] = None


def _certified_admit(
    levels: np.ndarray,
    mass: np.ndarray,
    error: np.ndarray,
    num_calls: int,
    capacity: float,
    target: float,
) -> Optional[bool]:
    """Eq. 12's admission decision, when it can be proved without the
    exact marginal; ``None`` otherwise.

    ``levels`` are the levels that carry mass (no others); ``mass`` are
    positive approximations of their masses and ``error`` absolute
    bounds on how far each is from the masses ``m`` the exact path
    normalises.  A verdict is returned only when it provably equals
    ``_overload(levels, p, num_calls, capacity) <= target``, where ``p``
    is ``m`` after at most four normalisations (each a sum of at most
    ``K = levels.size`` terms and a division: a controller's fractions,
    then :func:`overload_probability`, :func:`_overload` and the
    log-MGF in :func:`_rate`).

    A capacity that is not positive is left to the exact path, which
    raises on it.  The other guards run in :func:`_overload`'s order on
    exact values: all-peak demand that fits admits (the same expression
    on the same peak); ``C/n == peak`` takes ``-log P(peak)``, which is
    left to the exact path (``C/n > peak`` implies the first guard); one
    level normalises to exactly 1.0, so ``C/n`` is below its mean and
    rejects.

    Otherwise ``g(t) = t c - Lambda(t)`` is concave with ``g' = c - m(t)``
    (``m`` the tilted mean).  A safeguarded Newton search finds ``t*``
    for the running marginal ``q = mass / sum(mass)``, and two tilts
    ``P1 < t* < P2`` are certified to have ``m(P1) < c < m(P2)`` both for
    ``q`` and for the exact path's computed tilted mean.  Then:

    * :func:`_rate`'s ``brentq`` returns a tilt within ``w = (xtol +
      rtol P2) / (1 - rtol)`` of ``[P1, P2]``: it stops on a sign-change
      bracket narrower than that (and its bracket search stops below
      ``2 P2``, far from its ``1e18`` give-up).  ``g`` is concave, so its rate is at
      least ``min(g(P1 - w), g(P2 + w))``: a certified admit.
    * The tangent at ``P1`` bounds the rate above by ``g(P1) + g'(P1)
      (P2 - P1)``: a certified reject.  A per-call capacity clearly at
      or below the mean rejects too (the ``t = 0`` tangent bounds
      ``I*`` by 0, and the exact path returns an estimate of 1).

    The slack is three terms, each a bound and none tuned:

    * *mass error*: with ``eta = max(error / mass)`` and ``xi =
      gamma(4K)`` for the four normalisations, every weight of the exact
      marginal is ``q_i`` times a factor within ``[1 / (1+zeta), 1+zeta]``,
      and any two weights' factors differ by a ratio of at most
      ``1 + zeta``, where ``zeta = (1+eta)(1+xi) / ((1-eta)(1-xi)) - 1``.
      That moves ``Lambda`` by at most ``log1p(zeta) <= zeta`` at every
      tilt, hence ``I*`` by at most ``zeta`` and ``n I*`` by ``n zeta``,
      and the tilted mean by at most ``zeta * spread``;
    * *brentq*: ``g`` is bounded below at ``P1 - w`` and ``P2 + w``,
      ``w`` from ``xtol`` and ``rtol``;
    * *rounding*: a few ulp for ``_logsumexp`` and ``exp``, bounded by
      :func:`_evaluation_error` for ``g`` and by ``tilt_error`` below
      for the tilted mean, plus the rounding of ``-n * rate``, of
      ``exp`` and of ``log(target)``.
    """
    return _certify(_Support(levels), mass, error, num_calls, capacity, target)


def _certify(
    support: _Support,
    mass: np.ndarray,
    error: np.ndarray,
    num_calls: int,
    capacity: float,
    target: float,
    total: Optional[float] = None,
) -> Optional[bool]:
    """:func:`_certified_admit` on a kept :class:`_Support` (``total``,
    when given, is ``float(mass.sum())``).  The probes that settled the
    last verdict are tried first; if they no longer straddle the tilt or
    settle the verdict, the Newton search starts from where the last one
    ended.  Neither choice can change a verdict: any two probes are
    verified the same way, wherever they came from.
    """
    if not capacity > 0:
        return None  # :func:`overload_probability` raises on it
    top = support.top
    if num_calls * top <= capacity:
        return True
    c = float(capacity / num_calls)
    if c >= top:
        return None
    size = support.size
    if size == 1:
        return False
    if target < _MIN_TARGET:
        return None
    levels = support.levels
    # Every mass must be above its error (errors are not negative): the
    # total and every fraction positive, every error ratio below 1.  The
    # ufuncs' own reductions skip the ``min``/``max`` method wrappers,
    # which cost more than the work at this size.
    if total is None:
        total = float(mass.sum())
    if not total > 0.0:
        return None
    q = mass / total
    smallest = float(np.minimum.reduce(q))
    if not smallest >= _MIN_FRACTION:
        return None
    eta = float(np.maximum.reduce(error / mass))
    if not eta < 1.0:
        return None
    xi = support.xi
    zeta = (1.0 + eta) * (1.0 + xi) / ((1.0 - eta) * (1.0 - xi)) - 1.0
    # Tilted-mean error, uniform in the tilt: the running marginal's
    # mass error; a relative weight error of one ulp per unit of exponent
    # (the offset and the product) up to where exp underflows, plus exp,
    # the weight product and q's division; the dot product, sum and
    # division; and the exact mean's missing division -- the rounding
    # once for the exact path and once for this evaluation.  With
    # ``w = (746 + 4 + 2)`` ulp that is ``zeta * spread + 2 (2 w spread
    # + (K + 2) ulp scale) + xi * scale``; all but the first term are the
    # support's ``rounding``.
    tilt_error = zeta * support.spread + support.rounding
    log_min = 1.0 - math.log(smallest)
    mean = float(q @ levels)
    if mean - tilt_error >= c:
        return False
    if mean + tilt_error >= c:
        return None
    target_log = -math.log(target)
    slack = (tilt_error, zeta, log_min, target_log)
    if support.probes is not None:
        verdict = _settle(support, q, c, num_calls, slack)
        if verdict is not None:
            return verdict
    # Safeguarded Newton on m(t) = c within the bracket [low, high].  It
    # stops once the step is at the noise level, or small enough that
    # probes two steps out lose under 1/64 of the margin it sees: the
    # probes are verified either way, so this only decides how often a
    # call falls back.  An iteration is one exp and one product: the
    # moments [1, o, o^2] of the tilted weights q e^{t o}, o = l - peak.
    offsets = support.offsets
    moments = support.powers * q
    low, high = 0.0, math.inf
    tilt = support.tilt if 0.0 < support.tilt < _MAX_TILT else 0.0
    for _ in range(40):
        total, first, second = (moments @ np.exp(tilt * offsets)).tolist()
        shift = first / total  # tilted mean - peak
        tilted = top + shift
        variance = second / total - shift * shift
        if tilted < c:
            low = tilt
        else:
            high = tilt
        if variance > 0.0:
            step = (c - tilted) / variance
            # g's quadratic model at the Newton point: g + variance step^2 / 2.
            loss = variance * step * step
            rate = tilt * (c - top) - math.log(total) + loss / 2
            if (
                abs(step) * variance <= tilt_error
                or 64 * num_calls * loss <= abs(num_calls * rate - target_log)
            ):
                break
            tilt += step
            if low < tilt < high:
                continue
        elif not high < math.inf:
            return None
        # A step past the bracket, or a tilt so steep that the weights
        # left the peak's neighbours: bisect.
        tilt = (low + high) / 2
    else:
        support.tilt = 0.0
        return None
    tilt = max(tilt + step, 0.0)
    support.tilt = tilt
    # The probes sit two steps out, or as far as the stopping rule would
    # let a step go (under 1/64 of the margin): the wider they are, the
    # more later arrivals they settle.
    margin = abs(num_calls * rate - target_log)
    reach = max(
        4 * tilt_error / variance,
        2 * abs(step),
        math.sqrt(margin / (64 * num_calls * variance)),
    )
    inner, outer = max(tilt - reach, 0.0), tilt + reach
    if not outer < _MAX_TILT:
        return None
    # brentq's stopping width, with 4 ulp for its own rounding.
    width = (_XTOL + _RTOL * outer) / (1.0 - _RTOL) * (1 + 4 * _ULP)
    support.probes = [inner, outer, max(inner - width, 0.0), outer + width]
    support.tilted = np.exp(np.multiply.outer(support.probes, offsets))
    return _settle(support, q, c, num_calls, slack)


def _settle(
    support: _Support, q: np.ndarray, c: float, num_calls: int, slack: tuple
) -> Optional[bool]:
    """The verdict the support's probes ``[P1, P2, P1 - w, P2 + w]``
    certify for the marginal ``q`` at per-call capacity ``c``, or None:
    both tilted means must straddle ``c``, and then the rate bounds of
    :func:`_certified_admit` must clear the target."""
    tilt_error, zeta, log_min, target_log = slack
    inner, outer, _, farthest = support.probes
    sums, dots = ((q * support.tilted) @ support.basis).T.tolist()
    below, above = dots[0] / sums[0], dots[1] / sums[1]
    if not below + tilt_error < c < above - tilt_error:
        return None
    # g = t c - Lambda(t), with Lambda(t) = log(sum q e^{t (l - peak)}) + t peak.
    top = support.top
    gains = [
        probe * (c - top) - math.log(total)
        for probe, total in zip(support.probes, sums)
    ]
    reach_error = _evaluation_error(farthest, support.scale, log_min, support.size)
    target_slack = 2 * _FN_ULPS * _ULP * target_log
    lower = min(gains[2:]) - zeta - 2 * reach_error
    upper = (
        gains[0]
        + (c - below + tilt_error) * (outer - inner) * (1 + _ULP)
        + zeta
        + 2 * reach_error
    )
    decision_error = _ULP * (num_calls * max(abs(lower), abs(upper)) + 2 * _FN_ULPS)
    if num_calls * lower - decision_error >= target_log + target_slack:
        return True
    if num_calls * upper + decision_error <= target_log - target_slack:
        return False
    return None


def _evaluation_error(theta: float, scale: float, log_min: float, size: int) -> float:
    """Absolute rounding bound on ``g(theta) = theta c - Lambda(theta)``.

    Holds for :func:`_logsumexp` as :func:`_rate` calls it and for the
    certified test's own ``theta (c - peak) - log(sum q exp(theta (l -
    peak)))``, with ``A = theta * scale`` (``scale`` the largest level
    magnitude, ``c <= scale``) and ``log_min`` at least ``-log`` of the
    smallest weight:

    * the exponents ``theta l``, their shift by the maximum and
      ``theta c`` each round by ``ulp * A``: at most ``5 A`` ulp;
    * ``exp``, the weight product, the two sums of ``K`` terms and the
      division are relative errors, which ``log`` turns absolute: at
      most ``2K + 8`` ulp;
    * ``log1p``, ``log`` and the three additions round their results,
      whose magnitudes are at most ``A + |Lambda| <= 2A + log_min``:
      at most ``8 (2A + log_min)`` ulp with ``exp`` and ``log`` at
      :data:`_FN_ULPS` ulp.

    The sum is within ``18 (A + log_min) + 2K + 16`` ulp.
    """
    return _ULP * (18.0 * (theta * scale + log_min) + 2 * size + 16)


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
