import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from hopd import wasserstein
from hopd.core import (
    _perfect_matching,
    atom,
    d1,
    d_diag,
    d_prod,
    diagram,
    empty_diagram,
    ground,
    interval,
    is_basepoint_pair,
    linear_diagram,
    virtual_diagram,
)
from hopd.wasserstein import (
    CostCounters,
    assign_p,
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
            assert assign_p([], [], [], p) == 0.0

    def test_forced_unmatched(self):
        assert_close(assign_p([[]], [0.4], [], 1), 0.4)

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_matches_enumeration(self, rng, p):
        for _ in range(40):
            m, l = rng.randint(0, 3), rng.randint(0, 3)
            off = [[rng.uniform(0, 2) for _ in range(l)] for _ in range(m)]
            left = [rng.uniform(0, 2) for _ in range(m)]
            right = [rng.uniform(0, 2) for _ in range(l)]
            got = assign_p(off, left, right, p)
            assert_close(got, assign_oracle(off, left, right, p), 1e-12)

    def test_infinite_costs_forbid_matches(self):
        assert_close(assign_p([[INF]], [0.3], [0.2], 1), 0.5)
        assert_close(assign_p([[0.1]], [INF], [INF], 1), 0.1)
        assert assign_p([[INF]], [INF], [0.2], 1) == INF

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            assign_p([[-1.0]], [0.0], [0.0], 1)
        with pytest.raises(ValueError):
            assign_p([[1.0]], [0.0], [0.0], 0.5)
        with pytest.raises(ValueError):
            assign_p([[1.0, 2.0]], [0.0], [0.0], 1)

    def test_rejects_nan_and_ragged_costs(self):
        with pytest.raises(ValueError):
            assign_p([[1.0]], [float("nan")], [0.0], 1)
        with pytest.raises(ValueError):
            assign_p([[1.0, 2.0], [1.0]], [0.0, 0.0], [0.0, 0.0], 1)
        with pytest.raises(ValueError):
            assign_p([[1.0]], [], [], 1)

    @given(st.integers(0, 10**6))
    def test_monotone_in_costs(self, seed):
        rng = random.Random(seed)
        m, l = rng.randint(1, 3), rng.randint(1, 3)
        off = [[rng.uniform(0, 1) for _ in range(l)] for _ in range(m)]
        left = [rng.uniform(0, 1) for _ in range(m)]
        right = [rng.uniform(0, 1) for _ in range(l)]
        p = rng.choice([1, 2, INF])
        base = assign_p(off, left, right, p)
        bumped = [row[:] for row in off]
        i, j = rng.randrange(m), rng.randrange(l)
        bumped[i][j] += rng.uniform(0, 1)
        assert assign_p(bumped, left, right, p) >= base - 1e-12
        left2 = left[:]
        left2[i] += rng.uniform(0, 1)
        assert assign_p(off, left2, right, p) >= base - 1e-12

    def test_optimum_past_the_float_range_without_a_warning(self):
        # the suite turns any RuntimeWarning into an error
        assert assign_p([[INF]], [1e308], [1e308], 1) == INF

    @pytest.mark.parametrize("m, l", [(0, 0), (0, 3), (3, 0), (2, 5), (5, 2)])
    def test_augmented_layout(self, m, l):
        # the strided writes of the opt-out diagonals against the cell-by-cell
        # construction: rows are m atoms then l slots, columns l atoms then m slots
        off = np.arange(1.0, m * l + 1).reshape(m, l)
        left = [INF if i % 2 else 10.0 + i for i in range(m)]
        right = [INF if j % 3 == 1 else 20.0 + j for j in range(l)]
        n = m + l
        want = np.full((n, n), INF)
        for i in range(m):
            for j in range(l):
                want[i, j] = off[i, j]
            want[i, l + i] = left[i]
        for j in range(l):
            want[m + j, j] = right[j]
        for i in range(m, n):
            for j in range(l, n):
                want[i, j] = 0.0
        for given in (off, off.tolist()):
            got = wasserstein._augmented(given, left, right)
            assert got.shape == (n, n) and np.array_equal(got, want)

    def test_inf_threshold_smallest_feasible(self):
        # two feasible thresholds; the smaller must win
        off = [[0.5, 0.9], [0.9, 0.5]]
        assert_close(assign_p(off, [2.0, 2.0], [2.0, 2.0], INF), 0.5)

    @pytest.mark.parametrize(
        "p, small, huge",
        [(2, 1.0, 1e300), (3, 1.0, 1e200), (3, 1.0, 1e300), (10, 1.0, 1e63), (2, 1e-13, 1e300)],
    )
    def test_huge_unused_cost_keeps_small_costs(self, p, small, huge):
        # the huge costs' powers leave the float range; the optimum avoids
        # them, and its small costs must not be flushed to zero
        off = [[small, huge], [huge, small]]
        got = assign_p(off, [huge, huge], [huge, huge], p)
        assert got == pytest.approx(small * 2 ** (1 / p), rel=1e-12, abs=0)

    def test_every_matching_past_the_float_range(self):
        # (8e30)^10 overflows, so every matching's power sum does; scaled by
        # the bottleneck 8e30, the unused 1e308 cells still overflow to inf
        off = [[8e30, 1e308], [1e308, 8e30]]
        got = assign_p(off, [1e308, 1e308], [1e308, 1e308], 10)
        assert_close(got, 8e30 * 2 ** 0.1, 1e-12)

    @pytest.mark.parametrize("p", [1.5, 2, 3])
    def test_powers_below_the_float_range(self, p):
        # squares of 1e-200 underflow to 0; the distance must not
        off = [[1e-200, 1.0], [1.0, 1e-200]]
        got = assign_p(off, [1.0, 1.0], [1.0, 1.0], p)
        assert got == pytest.approx(1e-200 * 2 ** (1 / p), rel=1e-12, abs=0)
        assert assign_p([[0.0]], [1.0], [1.0], p) == 0.0

    def test_inf_bound_first_equals_full_candidate_bisection(self, rng):
        def full_bisection(costs):
            finite = np.union1d([0.0], costs[np.isfinite(costs)])
            lo, hi = 0, len(finite) - 1
            if not _perfect_matching(costs <= finite[hi]):
                return INF
            while lo < hi:
                mid = (lo + hi) // 2
                if _perfect_matching(costs <= finite[mid]):
                    hi = mid
                else:
                    lo = mid + 1
            return float(finite[lo])

        # few distinct values, so ties, zero cells and inf cells are common
        values = [0.0, 0.25, 0.5, 1.0, 2.0, INF]
        seen_inf = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            costs = np.array([[rng.choice(values) for _ in range(n)] for _ in range(n)])
            if rng.random() < 0.1:
                costs[rng.randrange(n)] = INF  # an all-inf row has no matching
            want = full_bisection(costs)
            assert wasserstein._assign_inf(costs) == want
            seen_inf += want == INF
        assert seen_inf > 0

    def test_inf_large_problem_needs_no_recursion(self):
        # 1200-node matching graph: deeper than Python's recursion limit
        k = 600
        off = np.full((k, k), 5.0)
        idx = np.arange(k)
        off[idx, idx] = 1.0
        off[idx[:-1], idx[:-1] + 1] = 0.5
        assert assign_p(off.tolist(), [9.0] * k, [9.0] * k, INF) == 1.0


def transshipment_oracle(divergence, cost):
    """All-arcs transshipment LP: one variable per ordered node pair, one
    conservation row per node, no shortest paths taken."""
    n = len(divergence)
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    arcs = np.arange(len(src))
    a_eq = coo_matrix(
        (np.repeat([1.0, -1.0], len(arcs)), (np.concatenate([src, dst]), np.tile(arcs, 2))),
        shape=(n, len(arcs)),
    ).tocsr()
    b_eq = np.array([float(d) for d in divergence])
    arc_cost = np.asarray(cost, dtype=np.float64)[src, dst]
    res = linprog(arc_cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


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

    def test_cost_shape_rejected(self):
        with pytest.raises(ValueError):
            min_cost_transport([1, -1], [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])

    def test_no_nonzero_divergence_skips_the_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("LP called")

        monkeypatch.setattr(wasserstein, "linprog", no_lp)
        assert min_cost_transport([0], [[0.0]]) == 0.0
        assert min_cost_transport([0, Fraction(0)], [[0.0, 3.0], [1.0, 0.0]]) == 0.0

    def test_integer_masses_within_node_count_skip_the_lp(self, rng, monkeypatch):
        # relays, zero-cost arcs and asymmetric costs without the triangle
        # inequality; the total supply never exceeds the node count
        def no_lp(*args, **kwargs):
            raise AssertionError("LP called")

        monkeypatch.setattr(wasserstein, "linprog", no_lp)
        for _ in range(80):
            n = rng.randint(2, 8)
            cost = [[rng.choice([0.0, rng.uniform(0, 10), rng.uniform(0, 1)]) for _ in range(n)]
                    for _ in range(n)]
            div = [0] * n
            for _ in range(rng.randint(0, n)):
                i, j = rng.sample(range(n), 2)
                div[i] += 1
                div[j] -= 1
            assert sum(d for d in div if d > 0) <= n
            assert_close(min_cost_transport(div, cost), transshipment_oracle(div, cost), 1e-9)

    def test_fractional_or_large_masses_use_the_lp(self, monkeypatch):
        calls, calls_costs = [], []

        def spy(c, *args, **kwargs):
            calls.append(1)
            calls_costs.append(np.asarray(c))
            return linprog(c, *args, **kwargs)

        monkeypatch.setattr(wasserstein, "linprog", spy)
        cost = [[0.0 if i == j else 1.0 for j in range(3)] for i in range(3)]
        assert_close(min_cost_transport([Fraction(1, 2), Fraction(-1, 2), 0], cost), 0.5)
        assert_close(min_cost_transport([4, -2, -2], cost), 4.0)  # supply 4 > 3 nodes
        assert_close(min_cost_transport([0.5, -0.5, 0], cost), 0.5)
        assert len(calls) == 3
        # ordinary costs reach HiGHS as they are; only costs near its
        # infinity (1e20) are scaled down
        assert all(np.array_equal(c, np.ones_like(c)) for c in calls_costs)

    def test_relay_past_the_float_range_without_a_warning(self):
        # the relay through node 1 sums to inf in the closure; the direct
        # arc is the optimum
        cost = [[0.0, 1e308, 1.5e308], [1e308, 0.0, 1e308], [1.5e308, 1e308, 0.0]]
        assert min_cost_transport([1, 0, -1], cost) == 1.5e308

    def test_relay_node_shortens_the_route(self):
        # the direct arc 0 -> 2 costs 5; the relay through node 1 costs 2
        cost = [[0.0, 1.0, 5.0], [9.0, 0.0, 1.0], [9.0, 9.0, 0.0]]
        assert min_cost_transport([1, 0, -1], cost) == 2.0

    def test_balanced_integers_with_unbalanced_floats(self):
        # 10**17 + 1 rounds to 10**17, so the float supplies fall one short
        # of the demands; the exact divergences still balance
        div = [10**17 + 1, -(10**17), -1]
        cost = [[0.0 if i == j else 1.0 for j in range(3)] for i in range(3)]
        assert_close(min_cost_transport(div, cost), 1e17, 1e-12)

    def test_matches_transshipment_oracle(self, rng):
        # asymmetric costs without the triangle inequality, zero-cost arcs,
        # zero-divergence relays and exact Fraction divergences
        for _ in range(60):
            n = rng.randint(2, 8)
            cost = [[rng.choice([0.0, rng.uniform(0, 10), rng.uniform(0, 1)]) for _ in range(n)]
                    for _ in range(n)]
            div = [rng.choice([0, rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 7))])
                   for _ in range(n - 1)]
            div.append(-sum(div))
            assert_close(min_cost_transport(div, cost), transshipment_oracle(div, cost), 1e-9)


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
                ) <= 3 else assign_p(off, left, right, p)
                assert_close(naive_wasserstein(g, l, p), expected)

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_certified_equals_naive_level1(self, rng, p):
        # +inf deaths, multiplicities above 1, 2-d ground points, one empty side
        def level1(dim, max_atoms=5):
            entries = {}
            for _ in range(rng.randint(0, max_atoms)):
                birth = [rng.randrange(8) / 4 for _ in range(dim)]
                death = [b + rng.randrange(1, 8) / 4 for b in birth]
                if rng.random() < 0.25:
                    death[-1] = INF
                a = atom(ground(*birth), ground(*death))
                entries[a] = entries.get(a, 0) + rng.randint(1, 3)
            return diagram(entries, level=1)

        shapes = {"inf": 0, "mult": 0, "2d": 0, "empty": 0}
        for dim in [1] * 40 + [2] * 40:
            g, l = level1(dim), level1(dim)
            if rng.random() < 0.1:
                g = empty_diagram(1)
            cn, cc = CostCounters(), CostCounters()
            wn = naive_wasserstein(g, l, p, counters=cn)
            wc = certified_wasserstein(g, l, p, counters=cc)
            if p == 2:
                assert_close(wn, wc, 1e-9)
            else:
                assert wn == wc, (g, l, wn, wc)
            # every cell priced once: the naive count
            assert cc.atom_expansions == cn.atom_expansions == len(g) * len(l)
            atoms = g.atoms() + l.atoms()
            shapes["inf"] += any(math.isinf(a.plus.coords[-1]) for a in atoms)
            shapes["mult"] += any(m > 1 for x in (g, l) for _, m in x.entries)
            shapes["2d"] += dim == 2 and bool(atoms)
            shapes["empty"] += (len(g) == 0) != (len(l) == 0)
        assert min(shapes.values()) > 0, shapes

    def test_level1_block_never_calls_atom_cost(self, rng, monkeypatch):
        def no_atom_cost(*args):
            raise AssertionError("atom_cost called at level 1")

        monkeypatch.setattr(wasserstein._CertifiedRun, "atom_cost", no_atom_cost)
        for _ in range(10):
            g = rand_level1_diagram(rng, max_atoms=5)
            l = rand_level1_diagram(rng, max_atoms=5)
            for p in (1, 2, INF):
                run = wasserstein._CertifiedRun(p, CostCounters(), (g, l))
                assert_close(run.diagram_cost(g, l, 1), naive_wasserstein(g, l, p), 1e-9)

    @pytest.mark.parametrize("route", [naive_wasserstein, certified_wasserstein])
    def test_nan_p_rejected(self, route):
        g = diagram({interval(0, 1): 1})
        for x, y in ((g, g), (empty_diagram(1), empty_diagram(1))):
            with pytest.raises(ValueError, match="p must be >= 1"):
                route(x, y, math.nan)

    @pytest.mark.parametrize("p", [1, 2, 3.5, INF])
    def test_certified_equals_naive_level2(self, rng, p):
        # level-1 pools of 1-d or 2-d ground points (one dimension per
        # case) and +inf deaths
        def level1(dim):
            entries = {}
            for _ in range(rng.randint(0, 4)):
                birth = [rng.randrange(8) / 4 for _ in range(dim)]
                death = [b + rng.randrange(1, 8) / 4 for b in birth]
                if rng.random() < 0.03:
                    death[-1] = INF
                a = atom(ground(*birth), ground(*death))
                entries[a] = entries.get(a, 0) + rng.randint(1, 2)
            return diagram(entries, level=1)

        def level2(dim):
            entries = {}
            for _ in range(rng.randint(0, 5)):
                cand = atom(level1(dim), level1(dim))
                if not is_basepoint_pair(cand.minus, cand.plus):
                    entries[cand] = entries.get(cand, 0) + 1
            return diagram(entries, level=2)

        finite = inf = 0
        dims = set()
        for _ in range(25):
            dim = rng.choice((1, 2))
            g, l = level2(dim), level2(dim)
            cn, cc = CostCounters(), CostCounters()
            wn = naive_wasserstein(g, l, p, counters=cn)
            wc = certified_wasserstein(g, l, p, counters=cc)
            if p in (1, INF):
                assert wn == wc, (g, l, wn, wc)
            else:
                assert_close(wn, wc, 1e-9)
            assert cc.atom_expansions <= cn.atom_expansions
            points = [x for d in (g, l) for u in d.support() for e in (u.minus, u.plus)
                      for a in e.support() for x in (a.minus, a.plus)]
            finite += math.isfinite(wc)
            dims |= {len(x.coords) for x in points}
            inf += any(math.isinf(x.coords[-1]) for x in points)
        assert min(finite, inf) > 0 and dims == {1, 2}, (finite, inf, dims)

    def test_two_dimensional_inf_death_prunes_soundly(self):
        # in one ground dimension the 2-d endpoint atom with a +inf death
        # lies at inf from the finite one, as its own empty cost does: the
        # reverse-triangle bound (inf) certifies the diagonal route (inf),
        # which the product route (inf) does not beat
        a = diagram({atom(ground(0.0, 0.0), ground(1.0, INF)): 1})
        b = diagram({atom(ground(0.0, 0.0), ground(1.0, 1.0)): 1})
        g, l = (diagram({atom(x, empty_diagram(1)): 1}, level=2) for x in (a, b))
        for p in (1, 2, INF):
            counters = CostCounters()
            assert certified_wasserstein(g, l, p, counters=counters) == naive_wasserstein(g, l, p) == INF
            assert counters.prunes == 1

    def test_depth2_run_builds_one_level1_block(self, rng, monkeypatch):
        calls = []
        level1_off = wasserstein._level1_off

        def counted(*args):
            calls.append(args)
            return level1_off(*args)

        monkeypatch.setattr(wasserstein, "_level1_off", counted)
        seen = 0
        for _ in range(10):
            g = rand_level2_diagram(rng, max_atoms=4)
            l = rand_level2_diagram(rng, max_atoms=4)
            for p in (1, 2, INF):
                calls.clear()
                cc = CostCounters()
                certified_wasserstein(g, l, p, counters=cc)
                # one pool block per run, however many level-1 sub-transports
                # read it; none when there is no atom to price
                assert len(calls) == (len(g) + len(l) > 0)
                seen += cc.diagram_calls > 2
        assert seen
        # a norm above level 1 prices all its pairs from one block too
        xi = virtual_diagram({a: c for a, c in zip(g.support() + l.support(), itertools.cycle((1, -2)))},
                             level=2)
        calls.clear()
        linear_w1_norm(xi)
        assert len(calls) == (xi.support_size() > 0)

    def test_level1_transport_prices_only_its_cells(self, rng, monkeypatch):
        shapes = []
        level1_off = wasserstein._level1_off

        def counted(*args):
            out = level1_off(*args)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(wasserstein, "_level1_off", counted)
        for _ in range(10):
            g = rand_level1_diagram(rng, max_atoms=6)
            l = rand_level1_diagram(rng, max_atoms=6)
            for p in (1, 2.5, INF):
                shapes.clear()
                value = certified_wasserstein(g, l, p)
                # the |G| x |L| block, not the (|G| + |L|)^2 pool block
                assert shapes == [(len(g), len(l))]
                pooled = wasserstein._CertifiedRun(p, CostCounters(), (g, l))
                pooled.pooled = True
                with wasserstein._float_policy():
                    assert pooled.diagram_cost(g, l, 1) == value
                assert shapes[1] == (len(g) + len(l) * (l is not g),) * 2

    def test_large_finite_coordinates_at_p2(self):
        # squares of these gaps leave the float range; both routes rescale
        # and agree on the finite distance
        g = diagram({interval(0.0, 1e200): 1})
        l = diagram({interval(1e199, 2e200): 1})
        naive = naive_wasserstein(g, l, 2)
        assert naive == certified_wasserstein(g, l, 2)
        assert_close(naive, math.hypot(1e199, 1e200), 1e-12)

    def test_huge_atoms_keep_the_small_costs_at_p10(self):
        # the optimum moves each atom by 1; the powers of the 1e63 costs it
        # avoids leave the float range
        g = diagram({interval(0.0, 1.0): 1, interval(0.0, 1e63): 1})
        l = diagram({interval(0.0, 2.0): 1, interval(1.0, 1e63): 1})
        naive = naive_wasserstein(g, l, 10)
        assert naive == certified_wasserstein(g, l, 10)
        assert_close(naive, 2**0.1, 1e-12)

    def test_small_coordinates_at_p2(self):
        # squares of these gaps underflow; the distances must not.  Against
        # l each atom moves by 1e-200 at birth and death, less than the way
        # through the diagonal
        g = diagram({interval(0.0, 4e-200): 1})
        l = diagram({interval(1e-200, 5e-200): 1})
        for other, want in ((empty_diagram(1), 4e-200 / math.sqrt(2)), (l, math.sqrt(2) * 1e-200)):
            naive = naive_wasserstein(g, other, 2)
            assert naive == certified_wasserstein(g, other, 2)
            assert naive == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p, want", [(1, INF), (2, 1.5000000000000002e308), (INF, 7.5e307)])
    def test_costs_past_the_float_range_without_a_warning(self, p, want):
        # the gaps fit in a float, sums of two of them do not: both routes
        # overflow to inf where the true cost passes the float range, and
        # the suite turns any RuntimeWarning into an error.  One level up
        # the assignment sums two such transports.
        g = diagram({interval(0.0, 1.5e308): 1})
        l = diagram({interval(-1.5e308, 0.0): 1})
        g2, l2 = (diagram({atom(empty_diagram(1), x): 1}, level=2) for x in (g, l))
        (u, _), (v, _) = g.entries[0], l.entries[0]
        for a, b in ((g, l), (g2, l2)):
            assert naive_wasserstein(a, b, p) == want
            assert certified_wasserstein(a, b, p) == want
            assert empty_cost(a, p) == empty_cost(b, p) == d_diag(u, p)
        # the public assignment on the same costs
        assert assign_p([[d1(u, v, p)]], [d_diag(u, p)], [d_diag(v, p)], p) == want

    def test_memo_hit_on_repeat(self, rng):
        g = rand_level2_diagram(rng, max_atoms=2)
        counters = CostCounters()
        from hopd.wasserstein import _CertifiedRun

        run = _CertifiedRun(1.0, counters, (g,))
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


class TestLevel1TransportInterning:
    def test_transport_interns_no_ground_point(self):
        # fresh intervals, far from other tests' coordinates; the values
        # were pinned when the level-1 side still read interned ground points
        from hopd.core import intern_table_size

        rng = np.random.default_rng(31)

        def fresh(n):
            b = 500.0 + rng.random(n)
            d = b + 0.01 + rng.random(n)
            return diagram({interval(x, y): 1 for x, y in zip(b.tolist(), d.tolist())})

        G, L = fresh(200), fresh(200)
        before = intern_table_size()
        w = certified_wasserstein(G, L, 1.0)
        assert intern_table_size() == before
        xi = fresh(200).to_virtual() - fresh(200).to_virtual()
        before = intern_table_size()
        norm = linear_w1_norm(xi)
        assert intern_table_size() == before
        assert (w.hex(), norm.hex()) == ("0x1.d273d05bdb980p+3", "0x1.fcb27a28e1d20p+3")
        assert d_diag(interval(600.5, 601.25), INF) == 0.375
        assert intern_table_size() == before + 1


class TestEmptyCost:
    def test_empty_diagram(self):
        assert empty_cost(empty_diagram(1), 1) == 0.0

    def test_nan_p_rejected(self):
        for theta in (empty_diagram(1), diagram({interval(0, 1): 1})):
            with pytest.raises(ValueError, match="p must be >= 1"):
                empty_cost(theta, math.nan)

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

    @pytest.mark.parametrize("scale", [1e21, 1e200])
    @pytest.mark.parametrize("c", [1, Fraction(1, 2), 5, 10**17])
    def test_costs_past_the_lp_infinity(self, scale, c):
        # HiGHS reads a cost >= 1e20 as infinite, so the LP (every c but 1,
        # which takes the assignment) gets its costs scaled down first.
        # Moving c units from a to b directly costs |b_a - b_b| + |d_a - d_b|
        # per unit, less than both diagonals.
        a, b = interval(0.0, scale), interval(scale / 10, 2 * scale)
        xi = virtual_diagram({a: c, b: -c}) if isinstance(c, int) else linear_diagram({a: c, b: -c})
        assert_close(linear_w1_norm(xi), float(c) * (scale / 10 + scale), 1e-12)

    def test_norm_axioms(self, rng):
        from conftest import rand_virtual

        xi = rand_virtual(rng, 3, grid=8, coeff_range=(-3, 3))
        assert_close(linear_w1_norm(-xi), linear_w1_norm(xi), 1e-9)
        eta = rand_virtual(rng, 3, grid=8, coeff_range=(-3, 3))
        assert (
            linear_w1_norm(xi + eta)
            <= linear_w1_norm(xi) + linear_w1_norm(eta) + 1e-9
        )

    def test_level1_cost_matrix_equals_d1_loop(self, rng):
        def point(dim):
            coords = [rng.randrange(6) / 4 for _ in range(dim)]
            if rng.random() < 0.2:
                coords[-1] = INF
            return ground(*coords)

        for dim in [1] * 20 + [2] * 20 + [3] * 10:
            atoms = []
            for _ in range(rng.randint(1, 9)):
                atoms.append(atom(point(dim), point(dim)))
            atoms = list(dict.fromkeys(atoms))
            for p in (1, INF):
                # the block every level-1 transport reads, at the p of the norm
                # and beyond, under the error state of the public entries
                with wasserstein._float_policy():
                    side = wasserstein._level1_side(atoms, p)
                    off = wasserstein._level1_off(side, p)
                assert off.tolist() == [[d1(u, v, p) for v in atoms] for u in atoms]
                assert side[2].tolist() == [d_diag(u, p) for u in atoms]

        xi = virtual_diagram({interval(0.1, INF): 1, interval(0.2, 0.5): -2, interval(0.3, INF): 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError):
                linear_w1_norm(xi)


    def test_one_dimensional_level1_norm_needs_no_closure(self, rng, monkeypatch):
        # the norm skips the closure of its block, on 1-d, 2-d and 3-d
        # ground; the public transport on the same block closes it first
        # and must agree
        from conftest import rand_virtual

        def block(xi):
            atoms = xi.support()
            cost = [[d1(u, v, 1) for v in atoms] + [d_diag(u, 1)] for u in atoms]
            return cost + [[d_diag(u, 1) for u in atoms] + [0.0]]

        def rand_xi(dim, size, grid):
            if dim == 1:
                return rand_virtual(rng, size, grid=grid, coeff_range=(-3, 3))
            draw = (lambda: rng.randrange(grid) / grid) if grid else rng.random
            entries = {}
            while len(entries) < size:
                birth = [draw() for _ in range(dim)]
                death = [b + draw() + 1 / 8 for b in birth]
                entries[atom(ground(*birth), ground(*death))] = rng.choice((-3, -2, -1, 1, 2, 3))
            return virtual_diagram(entries, level=1)

        closures = []
        monkeypatch.setattr(wasserstein, "min_cost_transport", lambda *a: closures.append(a))
        for k in range(180):
            xi = rand_xi(1 + k % 3, rng.randint(1, 12), (0, 8)[k // 3 % 2])
            if k % 5 == 0:
                xi = linear_diagram({a: Fraction(c, 2) for a, c in xi.entries})
            cost = block(xi)
            coeffs = [c for _, c in xi.entries]
            want = min_cost_transport(coeffs + [-sum(coeffs)], cost)
            assert linear_w1_norm(xi) == pytest.approx(want, rel=1e-12, abs=0)
        assert closures == []

    def test_two_dimensional_norm_by_hand(self):
        # every diagonal cost is 1; b lies at 1 from a, and c at 2 from
        # both through the diagonal (10 and 9 directly): c's two units go
        # to a or b at 2 each and the basepoint's unit at 1
        a = atom(ground(0.0, 0.0), ground(1.0, 0.0))
        b = atom(ground(0.0, 0.0), ground(1.0, 1.0))
        c = atom(ground(0.0, 5.0), ground(1.0, 5.0))
        assert linear_w1_norm(virtual_diagram({a: -2, b: -1, c: 2})) == 5.0

    def test_level2_cost_matrix_shares_one_certified_run(self, rng, monkeypatch):
        from hopd.aggregation import naive_self_aggregate
        from conftest import rand_virtual

        runs = []

        class CountedRun(wasserstein._CertifiedRun):
            def __init__(self, *args):
                runs.append(self)
                super().__init__(*args)

        for _ in range(8):
            xi = naive_self_aggregate(rand_virtual(rng, rng.randint(2, 4), grid=6, coeff_range=(-3, 3)))
            extra = atom(rand_level1_diagram(rng), rand_level1_diagram(rng))
            xi = xi + virtual_diagram({extra: rng.choice([-2, -1, 1, 2])}, level=2)
            atoms = xi.support()
            n = len(atoms)
            cost = [[0.0] * (n + 1) for _ in range(n + 1)]
            for i, j in itertools.combinations(range(n), 2):
                cost[i][j] = cost[j][i] = d1(atoms[i], atoms[j], 1)
            for i in range(n):
                cost[i][n] = cost[n][i] = d_diag(atoms[i], 1)
            coeffs = [c for _, c in xi.entries]
            want = min_cost_transport(coeffs + [-sum(coeffs)], cost)
            runs.clear()
            with monkeypatch.context() as m:
                m.setattr(wasserstein, "_CertifiedRun", CountedRun)
                got = linear_w1_norm(xi)
            assert len(runs) == 1
            assert_close(got, want, 1e-9)


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

        worst = 0.0
        for _ in range(10):
            g = rand_level2_diagram(rng, max_atoms=3)
            l = rand_level2_diagram(rng, max_atoms=3)
            counters = CostCounters()
            run = _CertifiedRun(1.0, counters, (g, l))
            run.diagram_cost(g, l, 2)
            prof = complexity_profile(list(g.support()) + list(l.support()))
            bound = max(1, prof.max_depth) * max(1, prof.total_vertices) ** 2
            worst = max(worst, counters.memo_keys / bound)
        # recorded constant: comfortably below 8
        assert worst <= 8.0
