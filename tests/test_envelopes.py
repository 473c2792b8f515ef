import hashlib
import itertools
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from hopd.envelopes import (
    GuardExceeded,
    _stirling_row,
    average_ratio,
    bell_number,
    ceil_log2,
    envelope_average,
    envelope_worst,
    merge_model_moment,
    sandwich_bounds,
    stirling2,
)


def partitions_of(items):
    """All set partitions, by direct enumeration."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in partitions_of(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1 :]
        yield [[first]] + part


class TestCombinatorics:
    def test_bell_small(self):
        assert [bell_number(k) for k in (1, 2, 3, 4)] == [1, 2, 5, 15]

    def test_stirling_small(self):
        assert stirling2(2, 1) == 1
        assert stirling2(2, 2) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_against_enumeration(self, n):
        parts = list(partitions_of(range(n)))
        assert bell_number(n) == len(parts)
        for k in range(n + 1):
            assert stirling2(n, k) == sum(1 for p in parts if len(p) == k)

    def test_stirling_outside_the_row_is_zero(self):
        assert [stirling2(3, k) for k in (-2, -1, 4, 10**30)] == [0, 0, 0, 0]

    @pytest.mark.parametrize("k", [1.5, "1", None, 2.0])
    def test_stirling_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError):
            stirling2(3, k)

    def test_bell_rejects_negative_n(self):
        with pytest.raises(ValueError):
            bell_number(-1)

    def test_cold_build_depth_does_not_grow_with_n(self):
        # a cold build is at most 64 rows deep whatever n.  The limit is
        # lowered rather than n raised: the rows up to 1500 hold about 0.75 GB.
        n = 400
        triangle = [1]  # Bell triangle: its rows start at B(0), B(1), ...
        for _ in range(n):
            nxt = [triangle[-1]]
            for v in triangle:
                nxt.append(nxt[-1] + v)
            triangle = nxt
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        _stirling_row.cache_clear()
        sys.setrecursionlimit(depth + 100)
        try:
            got = bell_number(n)
        finally:
            sys.setrecursionlimit(limit)
            _stirling_row.cache_clear()
        assert got == triangle[0]

    def test_ceil_log2(self):
        assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


class TestWorstCase:
    def test_c1_n1(self):
        w = envelope_worst(1, 1, 1)
        assert w["naive_aggregation"] == 4
        assert w["harmonic_evaluation"] == 2
        assert w["naive_wasserstein"] == 2**3
        assert w["certified_wasserstein"] == 2**5

    def test_c1_n2(self):
        w = envelope_worst(1, 2, 2)
        assert w["naive_aggregation"] == 16
        assert w["naive_wasserstein"] == 4**6
        assert w["certified_wasserstein"] == 2 * 4**5
        assert w["ratio"] == Fraction(4, 2)

    def test_monotone_in_depth(self):
        for c in (1, 2, 3):
            prev = None
            for N in range(1, 8):
                w = envelope_worst(c, N, 2)
                tup = (
                    w["naive_aggregation"],
                    w["harmonic_evaluation"],
                    w["naive_wasserstein"],
                    w["certified_wasserstein"],
                )
                if prev is not None:
                    assert all(a > b for a, b in zip(tup, prev))
                prev = tup

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            envelope_worst(0, 1, 1)
        with pytest.raises(ValueError):
            envelope_worst(1, 1, 0)

    def test_rejects_non_integer_size(self):
        with pytest.raises(ValueError):
            envelope_worst(1.5, 2, 2)


class TestAverageCase:
    def test_hand_enumerated_c1_n1(self):
        # t0 = 1; t1 in {1, 2} with probability 1/2 each;
        # E[(t0 + t1)^3] = (2^3 + 3^3) / 2
        assert envelope_average(1, 1, "naive") == Fraction(35, 2)
        assert envelope_average(1, 1, "certified") == Fraction(2**5 + 3**5, 2)

    def test_moment_by_path_enumeration(self):
        # c = 1, N = 2: enumerate the chain over set-partition weights
        got = merge_model_moment(1, 2, 4)
        expect = Fraction(0)
        for t1 in (1, 2):
            p1 = Fraction(stirling2(2, t1), bell_number(2))
            for t2 in range(1, 2 * t1 + 1):
                p2 = Fraction(stirling2(2 * t1, t2), bell_number(2 * t1))
                expect += p1 * p2 * (1 + t1 + t2) ** 4
        assert got == expect

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            merge_model_moment(1, 13, 3)
        with pytest.raises(GuardExceeded):
            merge_model_moment(100, 10, 3)
        # widths 448 and 512 would take minutes; both modes refuse them at once
        for c, N in ((7, 6), (1, 9)):
            for mode in ("naive", "certified"):
                with pytest.raises(GuardExceeded):
                    envelope_average(c, N, mode)

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            merge_model_moment(1, 2, -1)

    def test_rejects_non_integer_size(self):
        with pytest.raises(ValueError):
            merge_model_moment(1.5, 2, 3)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            envelope_average(1, 1, "bogus")

    def test_sandwich_rejects_bad_sizes(self):
        for c, N in ((0, 1), (1.5, 2), (1, 0)):
            with pytest.raises(ValueError):
                sandwich_bounds(c, N)

    def test_sandwich_small_sweep(self):
        # exact ratios sit inside the pointwise envelope bounds
        for c, N in itertools.product((1, 2, 3), (1, 2, 3, 4)):
            lo, hi = sandwich_bounds(c, N)
            ratio = average_ratio(c, N)
            assert lo <= ratio <= hi, (c, N)


def stirling_by_inclusion_exclusion(n, k):
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def moment_by_stage_paths(c, N, power):
    """E[(t_0 + ... + t_N)^power] summed over every stage path, in Fractions."""

    def walk(t, total, prob, left):
        if left == 0:
            return prob * total**power
        bell = sum(stirling_by_inclusion_exclusion(2 * t, k) for k in range(2 * t + 1))
        return sum(
            walk(t2, total + t2, prob * Fraction(stirling_by_inclusion_exclusion(2 * t, t2), bell), left - 1)
            for t2 in range(1, 2 * t + 1)
        )

    return walk(c, c, Fraction(1), N)


def moments_by_stage_dp(c, N, top):
    """E[(t_0 + ... + t_N)^m] for m = 0..top, stage by stage in Fractions,
    with transition probabilities S(2t, t2) / B(2t)."""
    rows = {}
    dist = {c: [Fraction(c) ** m for m in range(top + 1)]}
    for _ in range(N):
        merged = {}
        for t, mom in dist.items():
            if 2 * t not in rows:
                rows[2 * t] = [stirling_by_inclusion_exclusion(2 * t, k) for k in range(2 * t + 1)]
            row = rows[2 * t]
            bell = sum(row)
            for t2 in range(1, 2 * t + 1):
                prob = Fraction(row[t2], bell)
                acc = merged.setdefault(t2, [Fraction(0)] * (top + 1))
                for m in range(top + 1):
                    acc[m] += prob * mom[m]
        dist = {
            t2: [sum(comb(m, i) * acc[i] * t2 ** (m - i) for i in range(m + 1)) for m in range(top + 1)]
            for t2, acc in merged.items()
        }
    return [sum(mom[m] for mom in dist.values()) for m in range(top + 1)]


class TestStageOracle:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_every_power_equals_stage_dp(self, N):
        # every c with c * 2^N <= 64 and every power 0..3N+1
        for c in range(1, 64 // 2**N + 1):
            expect = moments_by_stage_dp(c, N, 3 * N + 1)
            for power, value in enumerate(expect):
                assert merge_model_moment(c, N, power) == value, (c, N, power)


class TestMomentOracle:
    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_equals_path_enumeration(self, c, N):
        for power in sorted({0, 1, 2, 5, 3 * N}):
            assert merge_model_moment(c, N, power) == moment_by_stage_paths(c, N, power)

    def test_sweep_digest_is_pinned(self):
        # SHA-256 of the reprs over the benchmark sweep, recorded before the
        # DP carried one denominator per stage; any change in a value shows
        sweep = [(c, N) for c in (1, 2) for N in range(1, 7)] + [(3, N) for N in range(1, 6)]
        digest = hashlib.sha256()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the reprs run to tens of thousands of digits
        try:
            for mode in ("naive", "certified"):
                for c, N in sweep:
                    digest.update(repr(envelope_average(c, N, mode)).encode() + b"\n")
        finally:
            sys.set_int_max_str_digits(limit)
        assert digest.hexdigest() == "18c83ba5b88ad73f5392c4d41c4adcf5315a1018d5fc7870595f729883d5fb15"

    def test_guard_edge_digest_is_pinned(self):
        # SHA-256 of the reprs at width 256, the guard's edge, where the last
        # transition dominates most; recorded before that transition was
        # collapsed to the one moment returned
        digest = hashlib.sha256()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for mode in ("naive", "certified"):
                for c, N in ((4, 6), (1, 8)):
                    digest.update(repr(envelope_average(c, N, mode)).encode() + b"\n")
        finally:
            sys.set_int_max_str_digits(limit)
        assert digest.hexdigest() == "625f283fc91d5f3314378aade48f170399a64b215861b20f5b3615c0cf96873d"
