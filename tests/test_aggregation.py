import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopd.aggregation import (
    AggregateOptions,
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
from hopd.core import (
    CoefficientOverflow,
    atom,
    atom_leq,
    ground,
    interval,
    virtual_diagram,
)

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
            assert agg.as_dict() == brute_force_aggregate(g, l)

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
            assert pairs.to_virtual_diagram() == loop

    def test_handles_block_boundaries(self, rng):
        xi = rand_virtual(rng, 300)
        pairs = self_aggregate_pairs(xi, block=64)
        assert pairs.to_virtual_diagram() == naive_self_aggregate(xi)

    def test_empty_and_mixed_ground_dimensions(self):
        empty = virtual_diagram({}, level=1)
        assert self_aggregate_pairs(empty).to_virtual_diagram() == naive_self_aggregate(empty)
        # rows of different widths must not be reshaped into a wrong matrix
        mixed = virtual_diagram(
            {interval(0.1, 0.5): 1, atom(ground(0.0, 0.0), ground(1.0, 1.0)): 1}
        )
        with pytest.raises(ValueError):
            level1_arrays(mixed)


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
        assert {a: int(c) for a, c in mean.entries} == total.as_dict()

    def test_mean_divides_exactly(self):
        a, b = interval(0.1, 0.9), interval(0.2, 0.7)
        xi = virtual_diagram({a: 1, b: 1})
        mean = mean_aggregate([xi, xi, xi])
        for _, c in mean.entries:
            assert isinstance(c, Fraction)
        assert mean.coefficient(pair_class(b, a)) == 1


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
        xi = rand_virtual(rng, 40)
        with pytest.raises(ExpansionGuardExceeded):
            iterated_aggregate(xi, 2, guard=100)
        with pytest.raises(ExpansionGuardExceeded):
            tree_expansion_oracle(xi, 2, guard=100)

    def test_s_must_be_positive(self, rng):
        xi = rand_virtual(rng, 2)
        with pytest.raises(ValueError):
            iterated_aggregate(xi, 0)


class TestDiagonalClasses:
    def test_equivalent_distinct_pairs_dropped_at_level2(self):
        # under the permissive diagram preorder, distinct level-1 diagrams can
        # be equivalent; their pair class collapses to the basepoint
        from hopd.core import PreorderSpec, atom, diagram

        spec = PreorderSpec(diagonal_always_admissible=True)
        d_a = diagram({interval(0.1, 0.2): 1})
        d_b = diagram({interval(0.6, 0.7): 1})
        u = atom(d_a, d_a)
        v = atom(d_b, d_b)
        xi = virtual_diagram({u: 1, v: 1})
        agg = bilinear_aggregate(xi, xi, spec=spec)
        # all four ordered pairs are comparable both ways under the
        # permissive reading; only the two self-pairs survive
        assert agg.support_size() == 2
        keep = bilinear_aggregate(
            xi, xi, AggregateOptions(drop_diagonal_classes=False), spec=spec
        )
        assert keep.support_size() == 4

    def test_self_pairs_are_kept(self, rng):
        xi = rand_virtual(rng, 5, grid=8)
        agg = naive_self_aggregate(xi)
        for a, c in xi.entries:
            assert agg.coefficient(pair_class(a, a)) == c * c
