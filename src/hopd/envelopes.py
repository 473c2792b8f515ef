"""Exact worst-case and average-case complexity envelopes.

Worst-case envelopes are closed-form expressions in the source count c,
depth N, and order dimension r.  Average-case envelopes follow the uniform
merge model: starting from t_0 = c distinct vertices, the 2*t_k child slots
of stage k are identified by a uniformly random set partition, so stage
sizes form a Markov chain weighted by Stirling/Bell ratios.  All arithmetic
is exact (big integers and fractions).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from operator import index

AVERAGE_GUARD_WIDTH = 256  # cap on c * 2^N so the exact DP stays tractable


class GuardExceeded(ValueError):
    pass


def _integer(name: str, value, least: int) -> int:
    """value as an exact integer >= least, or ValueError."""
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {type(value).__name__}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


@lru_cache(maxsize=None)
def _stirling_row(n: int) -> tuple[int, ...]:
    """Stirling numbers of the second kind S(n, 0..n).

    Rows are only ever cached as a prefix 0..currsize-1.  A cold row recurses
    to its predecessor, but every 64th row first builds the missing rows
    below it in increasing order, so a cold call is at most 64 rows deep
    whatever n, and a build of 64 rows or fewer is the plain recursion.
    """
    if n == 0:
        return (1,)
    if n % 64 == 0:
        for m in range(_stirling_row.cache_info().currsize, n):
            _stirling_row(m)
    prev = _stirling_row(n - 1)
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        row[k] = k * (prev[k] if k <= n - 1 else 0) + prev[k - 1]
    return tuple(row)


def stirling2(n: int, k: int) -> int:
    n = _integer("n", n, 0)
    k = _integer("k", k, -float("inf"))  # any integer; S(n, k) = 0 outside 0..n
    if k < 0 or k > n:
        return 0
    return _stirling_row(n)[k]


def bell_number(n: int) -> int:
    return sum(_stirling_row(_integer("n", n, 0)))


def ceil_log2(x: int) -> int:
    if x < 1:
        raise ValueError("x must be positive")
    return (x - 1).bit_length()


def _ratio_at(x: int, N: int) -> Fraction:
    """x^(3N - 5) / N exactly: the naive/certified transport ratio when the
    recursion has x vertices."""
    return Fraction(x) ** (3 * N - 5) / N


def envelope_worst(c: int, N: int, r: int) -> dict:
    """The four closed-form bounds plus their naive/certified ratio.

    Log factors are evaluated as max(1, ceil(log2(c * 2^N))) so every value
    is an exact integer or rational.
    """
    c, N, r = _integer("c", c, 1), _integer("N", N, 1), _integer("r", r, 1)
    width = c * 2**N
    logf = max(1, ceil_log2(width))
    naive_agg = c * c * 4**N
    harmonic = width * logf ** (r - 1)
    naive_w = width ** (3 * N)
    certified_w = N * width**5
    return {
        "naive_aggregation": naive_agg,
        "harmonic_evaluation": harmonic,
        "naive_wasserstein": naive_w,
        "certified_wasserstein": certified_w,
        "ratio": _ratio_at(width, N),
    }


def _check_average_guard(c: int, N: int) -> tuple[int, int]:
    c, N = _integer("c", c, 1), _integer("N", N, 1)
    if c * 2**N > AVERAGE_GUARD_WIDTH:
        raise GuardExceeded(f"average-case DP guarded at c*2^N <= {AVERAGE_GUARD_WIDTH}")
    return c, N


def merge_model_moment(c: int, N: int, power: int) -> Fraction:
    """Exact E[(t_0 + ... + t_N)^power] under the uniform merge model.

    The DP carries, for each current stage size t, the joint moments
    E[S^m; t_k = t] for m = 0..power, where S is the running size sum, as
    integer numerators over one denominator shared by the whole stage.  A
    stage scales each source once to L = lcm of the Bell numbers B(2t) in
    play, merges the Stirling-weighted sources per target size t2, and only
    then applies the binomial shift E[(S + t2)^m], which is linear and
    depends on t2 alone.  One gcd per stage keeps the fraction reduced.

    The last transition, the widest and with the largest numbers, is not
    run as a stage: only the one moment returned is formed.  Summed over
    targets, source t contributes
    Σ_i C(power, i) · E[S^i; t] · T_t[power - i] / B(2t), where
    T_t[j] = Σ_k S(2t, k) · k^j, so the result is one sum over sources
    scaled to the lcm of their Bell numbers.
    """
    c, N = _check_average_guard(c, N)
    power = _integer("power", power, 0)
    binom = [[comb(m, i) for i in range(m + 1)] for m in range(power + 1)]
    den = 1
    dist: dict[int, list[int]] = {c: [c**m for m in range(power + 1)]}
    for _ in range(N - 1):
        bells = {t: bell_number(2 * t) for t in dist}
        stage = lcm(*bells.values())
        acc: dict[int, list[int]] = {}
        for t, nums in dist.items():
            scale = stage // bells[t]
            scaled = [v * scale for v in nums]
            row = _stirling_row(2 * t)
            for t2 in range(1, 2 * t + 1):
                s2 = row[t2]  # S(2t, t2) > 0 for 1 <= t2 <= 2t
                part = acc.get(t2)
                if part is None:
                    acc[t2] = [s2 * v for v in scaled]
                else:
                    for i, v in enumerate(scaled):
                        part[i] += s2 * v
        den *= stage
        dist = {}
        for t2, mom in acc.items():
            powers = [t2**k for k in range(power + 1)]
            dist[t2] = [
                sum(b * powers[m - i] * mom[i] for i, b in enumerate(coeffs))
                for m, coeffs in enumerate(binom)
            ]
        shrink = gcd(den, *(v for nums in dist.values() for v in nums))
        if shrink > 1:
            den //= shrink
            dist = {t: [v // shrink for v in nums] for t, nums in dist.items()}
    bells = {t: bell_number(2 * t) for t in dist}
    stage = lcm(*bells.values())
    coeffs = binom[power]
    total = 0
    for t, nums in dist.items():
        weights = _stirling_row(2 * t)
        sums = [sum(weights)]  # T_t[j] = Σ_k S(2t, k) · k^j for j = 0..power
        for _ in range(power):
            weights = [k * w for k, w in enumerate(weights)]
            sums.append(sum(weights))
        inner = sum(b * nums[i] * sums[power - i] for i, b in enumerate(coeffs))
        total += stage // bells[t] * inner
    return Fraction(total, den * stage)


def envelope_average(c: int, N: int, mode: str) -> Fraction:
    """Average-case envelope: E[(sum t_j)^(3N)] or N * E[(sum t_j)^5]."""
    if mode == "naive":
        return merge_model_moment(c, N, 3 * N)
    if mode == "certified":
        return N * merge_model_moment(c, N, 5)
    raise ValueError("mode must be 'naive' or 'certified'")


def average_ratio(c: int, N: int) -> Fraction:
    return envelope_average(c, N, "naive") / envelope_average(c, N, "certified")


def sandwich_bounds(c: int, N: int) -> tuple[Fraction, Fraction]:
    """Pointwise bounds on the average ratio from the structural size range.

    The ratio is a weighted mean of (sum t_j)^(3N-5), so it lies between the
    values of that power at the extreme sizes c and c*(2^(N+1)-1); for
    3N - 5 < 0 the power is decreasing and the endpoints swap.
    """
    c, N = _integer("c", c, 1), _integer("N", N, 1)
    lo, hi = _ratio_at(c, N), _ratio_at(c * (2 ** (N + 1) - 1), N)
    return (lo, hi) if lo <= hi else (hi, lo)


__all__ = [
    "GuardExceeded",
    "average_ratio",
    "bell_number",
    "ceil_log2",
    "envelope_average",
    "envelope_worst",
    "merge_model_moment",
    "sandwich_bounds",
    "stirling2",
]
