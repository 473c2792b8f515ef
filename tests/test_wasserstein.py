import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopd.core import (
    DiagonalPolicy,
    atom,
    d_diag,
    d_prod,
    diagram,
    empty_diagram,
    interval,
    virtual_diagram,
)
from hopd.wasserstein import (
    CostCounters,
    assign_p,
    assign_problem,
    certified_wasserstein,
    complexity_profile,
    empty_cost,
    group_metric,
    linear_w1_norm,
    min_cost_transport,
    naive_wasserstein,
)

from conftest import assert_close, rand_level1_diagram, rand_level2_diagram

INF = math.inf


def assign_oracle(off, left, right, p):
    """Exhaustive enumeration over all partial matchings."""
    m, l = len(left), len(right)
    best = INF
    for k in range(min(m, l) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.permutations(range(l), k):
                if p == INF:
                    vals = [off[i][j] for i, j in zip(rows, cols)]
                    vals += [left[i] for i in range(m) if i not in rows]
                    vals += [right[j] for j in range(l) if j not in cols]
                    cand = max(vals) if vals else 0.0
                else:
                    cand = sum(off[i][j] ** p for i, j in zip(rows, cols))
                    cand += sum(left[i] ** p for i in range(m) if i not in rows)
                    cand += sum(right[j] ** p for j in range(l) if j not in cols)
                    cand = cand ** (1 / p)
                best = min(best, cand)
    return best


class TestAssign:
    def test_empty(self):
        for p in (1, 2, INF):
            assert assign_p(assign_problem([], [], [], p)) == 0.0

    def test_forced_unmatched(self):
        assert_close(assign_p(assign_problem([[]], [0.4], [], 1)), 0.4)

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_matches_enumeration(self, rng, p):
        for _ in range(40):
            m, l = rng.randint(0, 3), rng.randint(0, 3)
            off = [[rng.uniform(0, 2) for _ in range(l)] for _ in range(m)]
            left = [rng.uniform(0, 2) for _ in range(m)]
            right = [rng.uniform(0, 2) for _ in range(l)]
            got = assign_p(assign_problem(off, left, right, p))
            assert_close(got, assign_oracle(off, left, right, p), 1e-12)

    def test_infinite_costs_forbid_matches(self):
        prob = assign_problem([[INF]], [0.3], [0.2], 1)
        assert_close(assign_p(prob), 0.5)
        prob = assign_problem([[0.1]], [INF], [INF], 1)
        assert_close(assign_p(prob), 0.1)
        prob = assign_problem([[INF]], [INF], [0.2], 1)
        assert assign_p(prob) == INF

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            assign_problem([[-1.0]], [0.0], [0.0], 1)
        with pytest.raises(ValueError):
            assign_problem([[1.0]], [0.0], [0.0], 0.5)
        with pytest.raises(ValueError):
            assign_problem([[1.0, 2.0]], [0.0], [0.0], 1)

    @given(st.integers(0, 10**6))
    def test_monotone_in_costs(self, seed):
        rng = random.Random(seed)
        m, l = rng.randint(1, 3), rng.randint(1, 3)
        off = [[rng.uniform(0, 1) for _ in range(l)] for _ in range(m)]
        left = [rng.uniform(0, 1) for _ in range(m)]
        right = [rng.uniform(0, 1) for _ in range(l)]
        p = rng.choice([1, 2, INF])
        base = assign_p(assign_problem(off, left, right, p))
        bumped = [row[:] for row in off]
        i, j = rng.randrange(m), rng.randrange(l)
        bumped[i][j] += rng.uniform(0, 1)
        assert assign_p(assign_problem(bumped, left, right, p)) >= base - 1e-12
        left2 = left[:]
        left2[i] += rng.uniform(0, 1)
        assert assign_p(assign_problem(off, left2, right, p)) >= base - 1e-12

    def test_inf_threshold_smallest_feasible(self):
        # two feasible thresholds; the smaller must win
        off = [[0.5, 0.9], [0.9, 0.5]]
        prob = assign_problem(off, [2.0, 2.0], [2.0, 2.0], INF)
        assert_close(assign_p(prob), 0.5)

    def test_inf_large_problem_needs_no_recursion(self):
        # 1200-node matching graph: deeper than Python's recursion limit
        k = 600
        off = np.full((k, k), 5.0)
        idx = np.arange(k)
        off[idx, idx] = 1.0
        off[idx[:-1], idx[:-1] + 1] = 0.5
        prob = assign_problem(off.tolist(), [9.0] * k, [9.0] * k, INF)
        assert assign_p(prob) == 1.0


class TestMinCostTransport:
    def test_two_nodes(self):
        assert min_cost_transport([1, -1], [[0.0, 2.0], [3.0, 0.0]]) == 2.0

    def test_divergences_must_sum_to_zero(self):
        with pytest.raises(ValueError):
            min_cost_transport([1, 0], [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("bad", [-1.0, math.nan, INF])
    def test_bad_arc_cost_rejected(self, bad):
        with pytest.raises(ValueError):
            min_cost_transport([1, -1], [[0.0, bad], [1.0, 0.0]])


class TestWassersteinRecursion:
    def test_identity(self, rng):
        for _ in range(5):
            g = rand_level1_diagram(rng, max_atoms=4)
            assert naive_wasserstein(g, g, 2) == 0.0
            assert certified_wasserstein(g, g, 2) == 0.0

    def test_singleton_to_empty(self):
        g = diagram({interval(0, 1): 1})
        assert_close(naive_wasserstein(g, empty_diagram(1), INF), 0.5)
        assert_close(certified_wasserstein(g, empty_diagram(1), INF), 0.5)

    def test_level1_matches_direct_assignment(self, rng):
        # level-1 transport is the classical partial matching on d1 costs
        from hopd.core import d1

        for _ in range(20):
            g = rand_level1_diagram(rng, max_atoms=4)
            l = rand_level1_diagram(rng, max_atoms=4)
            for p in (1, 2, INF):
                us, vs = g.atoms(), l.atoms()
                off = [[d1(u, v, p) for v in vs] for u in us]
                left = [d_diag(u, p) for u in us]
                right = [d_diag(v, p) for v in vs]
                expected = assign_oracle(off, left, right, p) if len(us) <= 3 and len(
                    vs
                ) <= 3 else assign_p(assign_problem(off, left, right, p))
                assert_close(naive_wasserstein(g, l, p), expected)

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_certified_equals_naive_level2(self, rng, p):
        for _ in range(25):
            g = rand_level2_diagram(rng, max_atoms=3)
            l = rand_level2_diagram(rng, max_atoms=3)
            cn, cc = CostCounters(), CostCounters()
            wn = naive_wasserstein(g, l, p, counters=cn)
            wc = certified_wasserstein(g, l, p, counters=cc)
            assert_close(wn, wc, 1e-9)
            assert cc.atom_expansions <= cn.atom_expansions

    def test_memo_hit_on_repeat(self, rng):
        g = rand_level2_diagram(rng, max_atoms=2)
        counters = CostCounters()
        from hopd.wasserstein import _CertifiedRun
        from hopd.core import DEFAULT_DIAGONAL

        run = _CertifiedRun(1.0, DEFAULT_DIAGONAL, counters)
        run.diagram_cost(g, g, g.level)
        before = counters.memo_hits
        run.diagram_cost(g, g, g.level)
        assert counters.memo_hits == before + 1

    def test_pruning_fires_and_is_sound(self):
        # engineered instance: both atoms have nearly equivalent endpoints
        # (tiny diagonal cost) but hugely different transport-to-empty
        # masses, so the reverse-triangle bound certifies the diagonal route
        # without expanding the product
        u = atom(
            diagram({interval(0.0, 0.1): 1}), diagram({interval(0.0, 0.11): 1})
        )
        v = atom(
            diagram({interval(0.0, 10.0): 3}), diagram({interval(0.1, 10.1): 3})
        )
        g = diagram({u: 1})
        l = diagram({v: 1})
        counters = CostCounters()
        w = certified_wasserstein(g, l, 1, counters=counters)
        assert counters.prunes >= 1
        assert_close(w, naive_wasserstein(g, l, 1))
        # soundness: the certified route really is the minimum
        dp = d_prod(u, v, 1)
        assert dp >= d_diag(u, 1) + d_diag(v, 1) - 1e-12

    def test_reverse_triangle_bound_below_product(self, rng):
        # the certified bound is a true lower bound for the product route
        from hopd.wasserstein import empty_cost
        from hopd.core import norm_p

        pairs_checked = 0
        while pairs_checked < 30:
            g = rand_level2_diagram(rng, max_atoms=2)
            l = rand_level2_diagram(rng, max_atoms=2)
            for u in g.support():
                for v in l.support():
                    for p in (1, 2, INF):
                        bound = norm_p(
                            (
                                abs(empty_cost(u.minus, p) - empty_cost(v.minus, p)),
                                abs(empty_cost(u.plus, p) - empty_cost(v.plus, p)),
                            ),
                            p,
                        )
                        assert bound <= d_prod(u, v, p) + 1e-9
                        # soundness restated: if the bound certifies the
                        # diagonal route, the product route cannot undercut it
                        ef = d_diag(u, p) + d_diag(v, p)
                        if bound >= ef:
                            assert d_prod(u, v, p) >= ef - 1e-9
                        pairs_checked += 1

    def test_scan_diagonal_policy(self):
        # explicit degenerate candidates at level 2
        base = diagram({interval(0.2, 0.6): 1})
        candidates = (atom(base, base),)
        policy = DiagonalPolicy(mode="scan", scan_sets={2: candidates})
        u = atom(diagram({interval(0.1, 0.5): 1}), diagram({interval(0.3, 0.9): 1}))
        got = d_diag(u, 1, policy)
        assert_close(got, d_prod(u, candidates[0], 1, policy))

    def test_exact_mode_refuses_level2_diagonal(self):
        policy = DiagonalPolicy(mode="exact")
        u = atom(diagram({interval(0.1, 0.5): 1}), diagram({interval(0.3, 0.9): 1}))
        with pytest.raises(Exception):
            d_diag(u, 1, policy)


class TestEmptyCost:
    def test_empty_diagram(self):
        assert empty_cost(empty_diagram(1), 1) == 0.0

    def test_hand_sum(self):
        theta = diagram({interval(0, 1): 1, interval(0.2, 0.4): 1})
        assert_close(empty_cost(theta, 1), 1.2)

    def test_matches_wasserstein_to_empty(self, rng):
        for _ in range(10):
            theta = rand_level1_diagram(rng, max_atoms=4)
            for p in (1, 2, INF):
                assert_close(
                    empty_cost(theta, p),
                    naive_wasserstein(theta, empty_diagram(1), p),
                )


class TestGroupMetric:
    def test_self_distance_zero(self, rng):
        from conftest import rand_virtual

        xi = rand_virtual(rng, 4, grid=8)
        assert_close(group_metric(xi, xi), 0.0)

    def test_single_positive_atom(self):
        a = interval(0.2, 0.8)
        xi = virtual_diagram({a: 1})
        assert_close(group_metric(xi, virtual_diagram({}, level=1)), d_diag(a, 1))

    def test_translation_invariance(self, rng):
        from conftest import rand_virtual

        for _ in range(20):
            a = rand_virtual(rng, rng.randint(1, 3), grid=8, coeff_range=(-3, 3))
            b = rand_virtual(rng, rng.randint(1, 3), grid=8, coeff_range=(-3, 3))
            c = rand_virtual(rng, rng.randint(1, 2), grid=8, coeff_range=(-2, 2))
            assert_close(group_metric(a + c, b + c), group_metric(a, b), 1e-9)

    def test_p_not_one_rejected(self, rng):
        from conftest import rand_virtual

        xi = rand_virtual(rng, 2)
        with pytest.raises(ValueError):
            group_metric(xi, xi, p=2)


class TestLinearNorm:
    def test_zero(self):
        assert linear_w1_norm(virtual_diagram({}, level=1)) == 0.0

    def test_single_atom(self):
        a = interval(0.1, 0.7)
        for c in (1, -2, 5):
            xi = virtual_diagram({a: c})
            assert_close(linear_w1_norm(xi), abs(c) * d_diag(a, 1))

    def test_equals_group_metric_on_integers(self, rng):
        from conftest import rand_virtual

        for _ in range(20):
            xi = rand_virtual(rng, rng.randint(1, 5), grid=8, coeff_range=(-4, 4))
            assert_close(
                linear_w1_norm(xi),
                group_metric(xi, virtual_diagram({}, level=1)),
                1e-9,
            )

    def test_fractional_coefficients(self):
        from fractions import Fraction
        from hopd.core import linear_diagram

        a, b = interval(0.0, 1.0), interval(0.0, 0.5)
        xi = linear_diagram({a: Fraction(1, 2), b: Fraction(-1, 2)})
        # optimal plan moves 1/2 mass from a to b or through the diagonal
        from hopd.core import d1

        expected = 0.5 * min(d1(a, b, 1), d_diag(a, 1) + d_diag(b, 1))
        assert_close(linear_w1_norm(xi), expected)

    def test_norm_axioms(self, rng):
        from conftest import rand_virtual

        xi = rand_virtual(rng, 3, grid=8, coeff_range=(-3, 3))
        assert_close(linear_w1_norm(-xi), linear_w1_norm(xi), 1e-9)
        eta = rand_virtual(rng, 3, grid=8, coeff_range=(-3, 3))
        assert (
            linear_w1_norm(xi + eta)
            <= linear_w1_norm(xi) + linear_w1_norm(eta) + 1e-9
        )


class TestComplexityProfile:
    def test_single_level1_atom(self):
        prof = complexity_profile(virtual_diagram({interval(0, 1): 1}))
        assert prof.c == 1 and prof.max_depth == 1
        assert prof.total_vertices == 3
        assert prof.components == 1
        assert prof.support_size <= prof.structural_bound()

    def test_shared_endpoint_merges_components(self):
        u = interval(0.1, 0.5)
        v = interval(0.1, 0.9)  # shares the birth value 0.1
        prof = complexity_profile(virtual_diagram({u: 1, v: 1}))
        assert prof.components == 1
        assert prof.sources == 2

    def test_disjoint_atoms(self):
        atoms = {interval(k + 0.1, k + 0.5): 1 for k in range(4)}
        prof = complexity_profile(virtual_diagram(atoms))
        assert prof.components == 4
        assert prof.sources == 4

    def test_bound_on_aggregates(self, rng):
        from conftest import rand_virtual
        from hopd.aggregation import naive_self_aggregate

        xi = rand_virtual(rng, 12, grid=6)
        agg = naive_self_aggregate(xi)
        prof = complexity_profile(agg)
        assert prof.support_size <= prof.structural_bound()
        assert prof.binary
        assert prof.total_vertices <= prof.structural_bound()

    def test_memo_key_bound(self, rng):
        # distinct memo keys stay within a small constant of N * |V|^2
        from hopd.wasserstein import _CertifiedRun
        from hopd.core import DEFAULT_DIAGONAL

        worst = 0.0
        for _ in range(10):
            g = rand_level2_diagram(rng, max_atoms=3)
            l = rand_level2_diagram(rng, max_atoms=3)
            counters = CostCounters()
            run = _CertifiedRun(1.0, DEFAULT_DIAGONAL, counters)
            run.diagram_cost(g, l, 2)
            prof = complexity_profile(list(g.support()) + list(l.support()))
            bound = max(1, prof.max_depth) * max(1, prof.total_vertices) ** 2
            worst = max(worst, counters.memo_keys / bound)
        # recorded constant: comfortably below 8
        assert worst <= 8.0
