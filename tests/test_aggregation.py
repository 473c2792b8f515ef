import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopd import aggregation
from hopd.aggregation import (
    ExpansionGuardExceeded,
    bilinear_aggregate,
    iterated_aggregate,
    level1_arrays,
    mean_aggregate,
    naive_self_aggregate,
    pair_class,
    self_aggregate_pairs,
    sum_aggregate,
    tree_expansion_oracle,
)
from hopd.bench import synth_level1
from hopd.core import (
    INF,
    CoefficientOverflow,
    LevelMismatch,
    LinearDiagram,
    VirtualDiagram,
    atom,
    atom_coords,
    atom_leq,
    diagram,
    diagram_leq,
    empty_diagram,
    ground,
    intern_table_size,
    interval,
    linear_diagram,
    singleton_diagram,
    virtual_diagram,
)
from hopd.harmonic import CoboundaryCharacter, harmonic_eval_raw

from conftest import rand_virtual


def brute_force_aggregate(g, l):
    """Independent O(n^2) oracle: raw dict double loop, no interning reuse."""
    out = {}
    for u, cu in g.entries:
        for v, cv in l.entries:
            if atom_leq(u, v):
                key = pair_class(u, v)
                out[key] = out.get(key, 0) + cu * cv
    return {k: c for k, c in out.items() if c}


def pairs_as_virtual(agg):
    """A pair aggregate's classes as an explicit signed diagram."""
    entries = {
        pair_class(agg.base[i], agg.base[j]): int(c)
        for i, j, c in zip(agg.i, agg.j, agg.coeff)
    }
    return virtual_diagram(entries, level=agg.level)


def dense_pairs(xi):
    """Independent enumerator: one n x n comparison read back by np.nonzero."""
    n = xi.support_size()
    mask = np.ones((n, n), dtype=bool)
    for col in zip(*(atom_coords(a) for a, _ in xi.entries)):
        col = np.array(col)
        mask &= col[:, None] <= col[None, :]
    i, j = np.nonzero(mask)
    c = np.array([c for _, c in xi.entries], dtype=np.int64)
    return i, j, c[i] * c[j]


def pinned_diagram(family: str, n: int):
    """Diagrams with heavy coordinate ties, ~10% +inf deaths, a sparse mask,
    or 2-D ground points (four coordinate columns)."""
    rng = np.random.default_rng([n, len(family)])
    if family == "narrow":
        return synth_level1(n, "narrow", rng)
    entries = {}
    while len(entries) < n:
        c = int(rng.integers(1, 11)) * int(rng.choice((-1, 1)))
        inf = rng.random() < 0.1
        if family == "grid":
            b = int(rng.integers(128)) / 128
            d = math.inf if inf else b + int(rng.integers(1, 65)) / 64
            entries.setdefault(interval(b, d), c)
        else:
            x, y = rng.integers(16, size=2) / 16
            dx, dy = rng.integers(1, 17, size=2) / 16
            entries.setdefault(atom(ground(x, y), ground(x + dx, math.inf if inf else y + dy)), c)
    return virtual_diagram(entries, level=1)


class TestBilinear:
    def test_zero_annihilates(self, rng):
        xi = rand_virtual(rng, 5)
        zero = virtual_diagram({}, level=1)
        assert bilinear_aggregate(zero, xi).support_size() == 0
        assert bilinear_aggregate(xi, zero).support_size() == 0

    def test_worked_example(self):
        a = interval(0.1, 0.9)
        b = interval(0.2, 0.7)
        xi = virtual_diagram({a: 2, b: 1})
        agg = bilinear_aggregate(xi, xi)
        assert agg.level == 2
        assert agg.coefficient(pair_class(a, a)) == 4
        assert agg.coefficient(pair_class(b, b)) == 1
        assert agg.coefficient(pair_class(b, a)) == 2
        assert agg.coefficient(pair_class(a, b)) == 0
        assert agg.support_size() == 3

    def test_matches_brute_force(self, rng):
        for _ in range(15):
            g = rand_virtual(rng, rng.randint(1, 50), grid=12)
            l = rand_virtual(rng, rng.randint(1, 50), grid=12)
            agg = bilinear_aggregate(g, l)
            assert dict(agg.entries) == brute_force_aggregate(g, l)

    def test_support_bound(self, rng):
        xi = rand_virtual(rng, 20, grid=6)
        agg = bilinear_aggregate(xi, xi)
        assert agg.support_size() <= xi.support_size() ** 2

    @given(st.data())
    def test_biadditive(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        xi = rand_virtual(rng, rng.randint(1, 8), grid=6, coeff_range=(-5, 5))
        eta = rand_virtual(rng, rng.randint(1, 8), grid=6, coeff_range=(-5, 5))
        zeta = rand_virtual(rng, rng.randint(1, 8), grid=6, coeff_range=(-5, 5))
        left = bilinear_aggregate(xi + eta, zeta)
        split = bilinear_aggregate(xi, zeta) + bilinear_aggregate(eta, zeta)
        assert left == split
        right = bilinear_aggregate(zeta, xi + eta)
        rsplit = bilinear_aggregate(zeta, xi) + bilinear_aggregate(zeta, eta)
        assert right == rsplit

    def test_overflow_raises(self):
        big = 2**40
        xi = virtual_diagram({interval(0, 1): big, interval(0.1, 0.9): big})
        for route in (naive_self_aggregate, self_aggregate_pairs):
            with pytest.raises(CoefficientOverflow):
                route(xi)


class TestVectorKernel:
    def test_equals_loop_on_random_inputs(self, rng):
        for _ in range(10):
            xi = rand_virtual(rng, rng.randint(1, 60), grid=10)
            loop = naive_self_aggregate(xi)
            pairs = self_aggregate_pairs(xi)
            assert pairs_as_virtual(pairs) == loop

    def test_handles_block_boundaries(self, rng, monkeypatch):
        monkeypatch.setattr(aggregation, "_PAIR_BLOCK", 64)
        xi = rand_virtual(rng, 300)
        pairs = self_aggregate_pairs(xi)
        assert pairs_as_virtual(pairs) == naive_self_aggregate(xi)

    def test_empty_and_mixed_ground_dimensions(self):
        empty = virtual_diagram({}, level=1)
        assert pairs_as_virtual(self_aggregate_pairs(empty)) == naive_self_aggregate(empty)
        # rows of different widths must not be reshaped into a wrong matrix,
        # even when their total would fill one: 16 + 32 + 48 bytes = 3 x 32
        two = {interval(0.1, 0.5): 1, atom(ground(0.0, 0.0), ground(1.0, 1.0)): 1}
        three = {**two, atom(ground(0.2, 0.2, 0.2), ground(1.0, 1.0, 1.0)): 1}
        for mixed in (two, three):
            with pytest.raises(ValueError):
                level1_arrays(virtual_diagram(mixed))

    def test_level1_arrays_cached_per_instance(self, rng):
        xi = rand_virtual(rng, 5)
        first = level1_arrays(xi)
        assert level1_arrays(xi) is first
        # a copy built from the same entries pays its own warm-up
        assert level1_arrays(VirtualDiagram(xi.level, xi.entries)) is not first

    def test_level1_arrays_cache_is_read_only(self, rng):
        # a write through the cached arrays would change every later phase
        xi = rand_virtual(rng, 50)
        psi = CoboundaryCharacter(1)
        phase = harmonic_eval_raw(xi, psi)
        phi, coeff = level1_arrays(xi)
        with pytest.raises(ValueError):
            coeff[0] += 5
        with pytest.raises(ValueError):
            phi[0, 0] = 0.0
        assert harmonic_eval_raw(xi, psi) == phase
        assert harmonic_eval_raw(VirtualDiagram(xi.level, xi.entries), psi) == phase

    @pytest.mark.parametrize("dim", [1, 2])
    def test_level1_arrays_match_atom_coords(self, rng, dim):
        # the joined rows, bit for bit, including -0.0 and +inf
        for _ in range(5):
            entries = {}
            for _ in range(rng.randint(1, 300)):
                births = [rng.choice((0.0, -0.0, rng.random())) for _ in range(dim)]
                deaths = [b + rng.choice((INF, 1.0 + rng.random())) for b in births]
                deaths[:-1] = [min(d, 5.0) for d in deaths[:-1]]  # +inf only last
                c = rng.choice((-3, -1, 1, 2))
                entries[atom(ground(*births), ground(*deaths))] = c
            xi = virtual_diagram(entries, level=1)
            phi, coeff = level1_arrays(VirtualDiagram(1, xi.entries))
            want = np.array([atom_coords(a) for a, _ in xi.entries])
            assert phi.shape == (len(xi.entries), 2 * dim)
            assert np.array_equal(phi.view(np.uint64), want.view(np.uint64))
            assert coeff.tolist() == [c for _, c in xi.entries]

    @pytest.mark.parametrize("family", ["grid", "narrow", "plane"])
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1023, 1024, 1025, 2049])
    def test_arrays_match_dense_nonzero(self, family, n, monkeypatch):
        # the pairs, in order, not only the set that pairs_as_virtual sorts
        xi = pinned_diagram(family, n)
        i, j, coeff = dense_pairs(xi)
        for block in (64, 1024):
            monkeypatch.setattr(aggregation, "_PAIR_BLOCK", block)
            pairs = self_aggregate_pairs(xi)
            for got, want in ((pairs.i, i), (pairs.j, j), (pairs.coeff, coeff)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (family, n, block)


class TestSumAndMean:
    def test_single_equals_self_aggregate(self, rng):
        xi = rand_virtual(rng, 6, grid=8)
        assert sum_aggregate([xi]) == naive_self_aggregate(xi)

    def test_sign_squares_away(self, rng):
        xi = rand_virtual(rng, 6, grid=8)
        total = sum_aggregate([xi, -xi])
        assert total == 2 * naive_self_aggregate(xi)

    def test_matches_term_by_term(self, rng):
        parts = [rand_virtual(rng, rng.randint(1, 6), grid=8) for _ in range(5)]
        total = sum_aggregate(parts)
        expected = None
        for p in parts:
            term = virtual_diagram(brute_force_aggregate(p, p), level=2)
            expected = term if expected is None else expected + term
        assert total == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sum_aggregate([])
        with pytest.raises(ValueError):
            mean_aggregate([])

    def test_mean_single_keeps_integers(self, rng):
        xi = rand_virtual(rng, 4, grid=8)
        mean = mean_aggregate([xi])
        total = naive_self_aggregate(xi)
        assert {a: int(c) for a, c in mean.entries} == dict(total.entries)

    @pytest.mark.parametrize("aggregate", [sum_aggregate, mean_aggregate])
    def test_running_total_overflow(self, aggregate):
        # each part holds 2**62 on the class (a, a); the sum of two is 2**63
        xi = virtual_diagram({interval(0.1, 0.9): 2**31})
        with pytest.raises(CoefficientOverflow):
            aggregate([xi, xi])

    @pytest.mark.parametrize("aggregate", [sum_aggregate, mean_aggregate])
    def test_mixed_levels_rejected(self, aggregate):
        a = interval(0.1, 0.9)
        one, two = virtual_diagram({a: 1}), virtual_diagram({pair_class(a, a): 1})
        empty1, empty2 = virtual_diagram({}, level=1), virtual_diagram({}, level=2)
        for xs in ([one, two], [two, one], [one, empty2], [empty1, two], [empty1, empty2]):
            with pytest.raises(LevelMismatch):
                aggregate(xs)

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_mean_matches_term_by_term(self, rng, m):
        xs = [rand_virtual(rng, rng.randint(1, 8), grid=6) for _ in range(m)]
        total = naive_self_aggregate(xs[0])
        for x in xs[1:]:
            total = total + naive_self_aggregate(x)
        expected = linear_diagram(
            {a: Fraction(c, m) for a, c in total.entries}, level=total.level
        )
        mean = mean_aggregate(xs)
        assert type(mean) is LinearDiagram
        # equal entries tuples: the same coefficients in the same order
        assert mean.level == expected.level and mean.entries == expected.entries

    def test_mean_divides_exactly(self):
        a, b = interval(0.1, 0.9), interval(0.2, 0.7)
        xi = virtual_diagram({a: 1, b: 1})
        mean = mean_aggregate([xi, xi, xi])
        for _, c in mean.entries:
            assert isinstance(c, Fraction)
        assert mean.coefficient(pair_class(b, a)) == 1
        # six of thirty samples hold each class once: 6/30 reduces to 1/5
        mean = mean_aggregate([xi] * 6 + [virtual_diagram({}, level=1)] * 24)
        assert dict(mean.entries) == {pair_class(u, v): Fraction(1, 5) for u, v in ((a, a), (b, b), (b, a))}

    @pytest.mark.parametrize("m", [1, 2, 3, 30])
    def test_mean_is_the_sum_over_m(self, rng, m):
        xs = [rand_virtual(rng, rng.randint(1, 8), grid=6, coeff_range=(-6, 6)) for _ in range(m)]
        total = sum_aggregate(xs)
        mean = mean_aggregate(xs)
        assert mean.level == total.level == 2
        assert mean.entries == tuple((a, Fraction(c, m)) for a, c in total.entries)
        assert all(type(q) is Fraction for _, q in mean.entries)
        # negative numerators and ones that reduce occur; equal quotients
        # are one shared Fraction
        numerators = {c for _, c in total.entries}
        assert min(numerators) < 0 and (m == 1 or any(math.gcd(c, m) > 1 for c in numerators))
        assert len({id(q) for _, q in mean.entries}) == len(numerators)


class TestPairClassInterning:
    """The literal loop's classes, interned without rebuilding their endpoints."""

    def test_identical_whether_or_not_endpoints_were_interned(self):
        u, v, w = interval(5000.25, 5001.5), interval(5000.125, 5001.75), interval(5000.0625, 5001.875)
        before = intern_table_size()
        cls = pair_class(u, v)  # both singleton endpoints are new
        assert intern_table_size() == before + 3
        assert pair_class(u, v) is cls and intern_table_size() == before + 3
        assert cls.level == 2
        assert cls.minus is diagram({u: 1}) is singleton_diagram(u)
        assert cls.plus is diagram({v: 1}) is singleton_diagram(v)
        dw = diagram({w: 1})  # interned before its class
        assert pair_class(u, w) is atom(diagram({u: 1}), dw)
        assert pair_class(w, w).minus is pair_class(w, w).plus is dw
        lvl2 = singleton_diagram(cls)
        assert lvl2.level == 2 and lvl2.entries == ((cls, 1),)
        with pytest.raises(ValueError):
            singleton_diagram(interval(5002.0, 5002.0))  # diagonal: never stored

    def test_mean_grows_intern_table_by_its_classes_and_their_endpoints(self):
        rng = random.Random(15)
        xs = []
        for _ in range(3):
            entries = {}
            for _ in range(12):
                b = 6000 + rng.randrange(6) / 6
                entries[interval(b, b + (1 + rng.randrange(6)) / 6)] = rng.choice((-2, -1, 1, 3))
            xs.append(virtual_diagram(entries, level=1))
        kept = {
            (u, v)
            for x in xs
            for u, _ in x.entries
            for v, _ in x.entries
            if atom_leq(u, v) and (u is v or not atom_leq(v, u))
        }
        endpoints = {a for pair in kept for a in pair}
        before = intern_table_size()
        mean = mean_aggregate(xs)
        # one level-2 atom per kept pair and one singleton diagram per endpoint
        assert intern_table_size() - before == len(kept) + len(endpoints)
        mean_aggregate(xs)
        assert intern_table_size() - before == len(kept) + len(endpoints)
        for cls, _ in mean.entries:
            ((u, mu),) = cls.minus.entries
            ((v, mv),) = cls.plus.entries
            assert mu == mv == 1 and (u, v) in kept and cls is pair_class(u, v)


class TestIterated:
    def test_s1_is_self_aggregate(self, rng):
        xi = rand_virtual(rng, 4, grid=8)
        assert iterated_aggregate(xi, 1) == naive_self_aggregate(xi)

    def test_single_atom_chain(self):
        xi = virtual_diagram({interval(0.3, 0.6): 3})
        out = iterated_aggregate(xi, 2)
        assert out.level == 3
        assert out.support_size() == 1
        [(nested, coeff)] = out.entries
        assert coeff == 3**4
        oracle = tree_expansion_oracle(xi, 2)
        assert oracle == out

    def test_matches_tree_expansion(self, rng):
        for _ in range(8):
            xi = rand_virtual(rng, rng.randint(1, 3), grid=5, coeff_range=(-4, 4))
            for s in (1, 2):
                assert iterated_aggregate(xi, s) == tree_expansion_oracle(xi, s)

    def test_guard_trips(self, rng):
        # the guard is 10^6 classes: 1001^2 pairs at the first step, 32^4
        # labelings; both checks fail before any aggregation runs
        with pytest.raises(ExpansionGuardExceeded, match="support 1001 .* guard 1000000$"):
            iterated_aggregate(rand_virtual(rng, 1001), 2)
        with pytest.raises(ExpansionGuardExceeded, match=r"32\^4 labelings exceed guard 1000000$"):
            tree_expansion_oracle(rand_virtual(rng, 32), 2)

    def test_s_must_be_positive(self, rng):
        xi = rand_virtual(rng, 2)
        with pytest.raises(ValueError):
            iterated_aggregate(xi, 0)


class TestDiagonalClasses:
    def test_equivalent_distinct_pairs_dropped_at_level4(self):
        # a self-pair atom (A, A) may go to the diagonal on either side, so
        # P = {(A, A)} and Q = {(B, B)} are distinct equivalent level-2
        # diagrams; paired with the same Z they give distinct equivalent
        # level-3 atoms u and v, whose cross classes are diagonal
        a, b = diagram({interval(0.1, 0.2): 1}), diagram({interval(0.6, 0.7): 1})
        p, q = diagram({atom(a, a): 1}), diagram({atom(b, b): 1})
        z = diagram({atom(empty_diagram(1), diagram({interval(0.1, 0.5): 1})): 1})
        assert p is not q and diagram_leq(p, q) and diagram_leq(q, p)
        u, v = atom(p, z), atom(q, z)
        assert u is not v and atom_leq(u, v) and atom_leq(v, u)
        xi = virtual_diagram({u: 2, v: -3})
        agg = bilinear_aggregate(xi, xi)
        assert agg.level == 4
        assert dict(agg.entries) == {pair_class(u, u): 4, pair_class(v, v): 9}

    def test_self_pairs_are_kept(self, rng):
        xi = rand_virtual(rng, 5, grid=8)
        agg = naive_self_aggregate(xi)
        for a, c in xi.entries:
            assert agg.coefficient(pair_class(a, a)) == c * c
