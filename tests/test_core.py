import math
import operator
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopd import core
from hopd.core import (
    INF,
    atom,
    atom_coords,
    atom_leq,
    d1,
    d_diag,
    d_prod,
    diagram,
    diagram_leq,
    dist_ground,
    empty_diagram,
    ground,
    interval,
    is_diagonal,
    linear_diagram,
    virtual_diagram,
    CoefficientOverflow,
    LevelMismatch,
)
from hopd.aggregation import level1_arrays
from hopd.serialize import from_text

from conftest import assert_close, rand_interval, rand_level2_diagram

class TestAtomLeq:
    def test_containment_example(self):
        u = interval(0.2, 0.7)
        v = interval(0.1, 0.9)
        assert atom_leq(u, v)
        assert not atom_leq(v, u)

    def test_reflexive(self, rng):
        for _ in range(20):
            u = rand_interval(rng)
            assert atom_leq(u, u)

    def test_matches_coordinate_dominance_on_all_pairs(self, rng):
        atoms = [rand_interval(rng, grid=6) for _ in range(20)]
        for u in atoms:
            for v in atoms:
                cu, cv = atom_coords(u), atom_coords(v)
                assert atom_leq(u, v) == all(a <= b for a, b in zip(cu, cv))

    def test_transitive_exhaustive(self, rng):
        atoms = list({rand_interval(rng, grid=4) for _ in range(12)})
        for u in atoms:
            for v in atoms:
                for w in atoms:
                    if atom_leq(u, v) and atom_leq(v, w):
                        assert atom_leq(u, w)

    def test_level_mismatch_rejected(self):
        lvl2 = atom(diagram({interval(0, 1): 1}), diagram({interval(0, 2): 1}))
        with pytest.raises(LevelMismatch):
            atom_leq(interval(0, 1), lvl2)

    def test_equals_the_endpoint_composition(self, rng):
        # the inline level-1 test against endpoint_leq -> ground_leq, on 1-d
        # and 2-d points (one dimension per case), tied births and deaths,
        # +inf deaths, and level-2 atoms, which keep the generic path
        def point(dim, top):
            coords = [rng.randrange(12 // dim) / 4 for _ in range(dim)]
            if top:
                coords[-1] = INF
            return ground(*coords)

        for dim in (1, 2):
            atoms = set()
            while len(atoms) < 40:
                minus, plus = point(dim, False), point(dim, rng.random() < 0.25)
                if minus is not plus:
                    atoms.add(atom(minus, plus))
            atoms = sorted(atoms, key=lambda a: a.uid)
            assert any(math.isinf(a.plus.coords[-1]) for a in atoms)
            atoms += [atom(diagram({u: 1}), diagram({v: 1})) for u, v in zip(atoms[:6], atoms[6:12])]
            counts = {True: 0, False: 0}
            for u in atoms:
                for v in atoms:
                    if u.level != v.level:
                        with pytest.raises(LevelMismatch):
                            atom_leq(u, v)
                        continue
                    want = u is v or (core.endpoint_leq(v.minus, u.minus) and core.endpoint_leq(u.plus, v.plus))
                    assert atom_leq(u, v) is want, (u, v)
                    counts[want] += 1
            assert min(counts.values()) > 100, (dim, counts)


class TestAtomLookupFirst:
    """``atom`` looks the intern table up before it checks its endpoints."""

    def test_non_endpoints_raise_level_mismatch(self):
        a = interval(0, 1)
        g, d, v = ground(0.0), diagram({a: 1}), virtual_diagram({a: 1})
        lvl1 = diagram({interval(0, 2): 1}, level=1)
        lvl2 = diagram({atom(d, lvl1): 1})
        cases = [
            (1.0, 2.0),
            (None, g),
            (g, None),
            (g, d),
            (d, g),
            (a, a),  # atoms carry ids but are no endpoints
            (g, a),
            (v, v),
            ("0", "1"),
            (g, ground(0.0, 1.0)),  # ground dimensions differ
            (d, lvl2),  # diagram levels differ
        ]
        before = core.intern_table_size()
        for minus, plus in cases:
            with pytest.raises(LevelMismatch):
                atom(minus, plus)
        assert core.intern_table_size() == before

    def test_hit_is_the_checked_atom(self):
        g0, g1 = ground(0.0), ground(1.0)
        a = atom(g0, g1)
        assert atom(g0, g1) is a is interval(0.0, 1.0)
        d0, d1_ = diagram({a: 1}), diagram({interval(0, 2): 1})
        assert atom(d0, d1_) is atom(d0, d1_)
        assert atom(d0, d1_).level == 2

    def test_interval_interns_one_entry_and_its_points_on_first_read(self):
        # a new interval is one entry; reading minus or plus interns its
        # birth, then its death, with the next ids, as ground(birth) and
        # ground(death)
        b, d = 3001.0625, 3002.1875
        start = core.intern_table_size()
        a = interval(b, d)
        assert core.intern_table_size() == start + 1
        assert interval(b, d) is a and core.intern_table_size() == start + 1
        assert a.plus is ground(d)
        assert core.intern_table_size() == start + 3
        assert (ground(b).uid, ground(d).uid) == (a.uid + 1, a.uid + 2)
        assert a.minus is ground(b) and type(a) is core.Atom
        assert a is atom(ground(b), ground(d))
        # a degenerate interval interns its one point once
        e = interval(3003.5, 3003.5)
        assert core.intern_table_size() == start + 4
        assert e.minus is e.plus is ground(3003.5)
        assert core.intern_table_size() == start + 5
        for bad in [(math.nan, 1.0), (0.0, math.nan), (-INF, 1.0)]:
            with pytest.raises(ValueError):
                interval(*bad)
        assert core.intern_table_size() == start + 5
        assert interval(0.5, INF).plus is ground(INF)


class TestRowKeyedInterning:
    """A level-1 atom is interned under its row; ``interval`` defers its
    ground points to the first read of ``minus`` or ``plus``."""

    @pytest.mark.parametrize("birth, death", [(-0.0, 4001.125), (4002.25, INF)])
    def test_interval_is_atom_of_grounds_in_both_orders(self, birth, death):
        # fresh values per order: the interval first, then the ground points
        b, d = (birth, death + 1) if birth == 0 else (birth + 1, death)
        first = interval(b, d)
        assert type(first) is core._Interval
        assert atom(ground(b), ground(d)) is first
        assert first.minus is ground(b) and first.plus is ground(d)
        # the ground points and their atom first, then the interval
        second = atom(ground(birth), ground(death))
        assert type(second) is core.Atom
        assert interval(birth, death) is second
        for a in (first, second):
            assert core._INTERN[a.row] is a
            assert ("a", a.minus.uid, a.plus.uid) not in core._INTERN
            assert a.row == coords_bytes(a)
        if birth == 0:
            assert math.copysign(1, atom_coords(first)[0]) == -1.0
            assert interval(0.0, death) is second is atom(ground(0.0), ground(death))

    def test_two_dimensional_ground_is_row_keyed(self):
        p, q = ground(-0.0, 4003.5), ground(4004.0, INF)
        start = core.intern_table_size()
        a = atom(p, q)
        assert core.intern_table_size() == start + 1
        assert atom(ground(0.0, 4003.5), ground(4004.0, INF)) is a
        assert core._INTERN[a.row] is a and a.row == coords_bytes(a)
        assert a.minus is p and a.plus is q
        assert core.intern_table_size() == start + 1

    def test_degenerate_interval_rejected_without_interning_its_point(self):
        x = 4005.375
        e = interval(x, x)
        big = {interval(4006 + k / 512, 4007.0): 1 for k in range(core._LEXSORT_MIN)}
        before = core.intern_table_size()
        for make in (diagram, virtual_diagram):
            for entries in ({e: 1}, {**big, e: 2}):
                with pytest.raises(ValueError, match="diagonal"):
                    make(entries)
        assert repr(e) == f"Atom({x}, {x})"
        assert core.intern_table_size() == before
        assert ("p", (x,)) not in core._INTERN and type(e) is core._Interval
        # two-dimensional degenerate atoms are still rejected too
        g = ground(4005.5, 4005.75)
        with pytest.raises(ValueError, match="diagonal"):
            virtual_diagram({atom(g, g): 1})

    def test_coordinates_and_preorder_equal_the_endpoint_formulas(self, rng):
        # bit for bit against the endpoint reads they replace, on fresh 1-d
        # intervals (read before their points are interned) and on 2-d
        # atoms, one dimension per case, with tied births and deaths, both
        # zeros and +inf deaths
        grid = [-0.0, 0.0, 0.25, 0.5, 4010.0, 4010.5]
        for dim, size in ((1, 20), (2, 60)):
            atoms = set()
            while len(atoms) < size:
                if dim == 1:
                    b, d = rng.choice(grid), rng.choice(grid + [INF])
                    if b != d:
                        atoms.add(interval(b, d))
                else:
                    p = ground(rng.choice(grid), rng.choice(grid))
                    q = ground(rng.choice(grid), rng.choice(grid + [INF]))
                    if p is not q:
                        atoms.add(atom(p, q))
            atoms = sorted(atoms, key=lambda a: a.sort_key)
            assert (dim == 1) == any(type(a) is core._Interval for a in atoms)
            coords = [atom_coords(a) for a in atoms]
            leq = [[atom_leq(u, v) for v in atoms] for u in atoms]
            for a, cs in zip(atoms, coords):
                want = tuple(-c for c in a.minus.coords) + a.plus.coords
                assert [c.hex() for c in cs] == [c.hex() for c in want], a
            for u, row in zip(atoms, leq):
                for v, got in zip(atoms, row):
                    want = all(map(operator.le, v.minus.coords, u.minus.coords)) and all(
                        map(operator.le, u.plus.coords, v.plus.coords)
                    )
                    assert got is want, (u, v)
            assert any(any(row) and not all(row) for row in leq)

    @pytest.mark.parametrize("n", [40, core._LEXSORT_MIN + 44])
    def test_validated_diagram_of_fresh_intervals_adds_one_entry_per_atom(self, rng, n):
        # both sort paths: neither reads an atom's ground points
        # fresh for each n: the rng fixture repeats its draws
        pairs = {(4020 + n + rng.randrange(10**6) / 2**20, 5020 + n + rng.randrange(10**6) / 2**20) for _ in range(n)}
        start = core.intern_table_size()
        entries = {interval(b, d): rng.choice((-3, -1, 2)) for b, d in pairs}
        xi = virtual_diagram(entries, level=1)
        level1_arrays(xi)
        assert core.intern_table_size() == start + len(pairs) == start + xi.support_size()
        assert all(type(a) is core._Interval for a in xi.support())

    def test_concurrent_first_reads(self):
        # 4 threads intern the same fresh intervals and read their endpoints
        # at once; births and deaths are shared between intervals, so the
        # ground points race too
        rng = random.Random(29)
        births = [4040 + rng.random() for _ in range(300)]
        deaths = [4050 + rng.random() for _ in range(300)]
        values = list({(rng.choice(births), rng.choice(deaths)) for _ in range(3000)})
        orders = [random.Random(seed).sample(values, len(values)) for seed in range(4)]
        start = threading.Barrier(4)

        def build(order):
            start.wait(timeout=30)
            atoms = [interval(b, d) for b, d in order]
            return [(bd, a, a.minus, a.plus) for bd, a in zip(order, atoms)]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                seen = [t for part in pool.map(build, orders, timeout=60) for t in part]
        finally:
            sys.setswitchinterval(switch)
        by_value = {}
        for bd, a, minus, plus in seen:
            by_value.setdefault(bd, set()).add((a, minus, plus))
        assert len(by_value) == len(values)
        # every atom and point took its own intern id
        objects = {x for got in by_value.values() for x in next(iter(got))}
        assert len({x.uid for x in objects}) == len(objects)
        for (b, d), got in by_value.items():
            ((a, minus, plus),) = got
            assert type(a) is core.Atom
            assert minus is a.minus is ground(b) and plus is a.plus is ground(d)
            assert a is interval(b, d) is atom(ground(b), ground(d))


class TestDiagramLeq:
    def test_identity(self, rng):
        from conftest import rand_level1_diagram

        for _ in range(10):
            g = rand_level1_diagram(rng)
            assert diagram_leq(g, g)

    def test_singleton_containment(self):
        g = diagram({interval(0.2, 0.7): 1})
        l = diagram({interval(0.1, 0.9): 1})
        assert diagram_leq(g, l)
        assert not diagram_leq(l, g)
        # a proper interval has a diagonal witness below it, never above it
        assert diagram_leq(empty_diagram(1), g)
        assert not diagram_leq(diagram({interval(0.5, 0.6): 2}, level=1), empty_diagram(1))

    def _brute_force(self, g, l):
        # enumerate all injective partial matchings of G-atoms into L-atoms
        from hopd.core import (
            left_diagonal_admissible,
            right_diagonal_admissible,
        )
        import itertools

        gs, ls = g.atoms(), l.atoms()
        for k in range(min(len(gs), len(ls)) + 1):
            for rows in itertools.combinations(range(len(gs)), k):
                for cols in itertools.permutations(range(len(ls)), k):
                    if not all(
                        atom_leq(gs[i], ls[j]) for i, j in zip(rows, cols)
                    ):
                        continue
                    if not all(
                        left_diagonal_admissible(gs[i])
                        for i in range(len(gs))
                        if i not in rows
                    ):
                        continue
                    if not all(
                        right_diagonal_admissible(ls[j])
                        for j in range(len(ls))
                        if j not in cols
                    ):
                        continue
                    return True
        return False

    def test_matches_exhaustive_matching_enumeration(self, rng):
        from conftest import rand_level1_diagram

        for _ in range(40):
            g = rand_level1_diagram(rng, max_atoms=3)
            l = rand_level1_diagram(rng, max_atoms=3)
            assert diagram_leq(g, l) == self._brute_force(g, l)


class TestIsDiagonal:
    def test_degenerate_interval(self):
        assert is_diagonal(interval(0.5, 0.5))

    def test_proper_interval(self):
        assert not is_diagonal(interval(0.2, 0.7))

    def test_level2_agrees_with_diagram_leq(self, rng):
        for _ in range(20):
            g = rand_level2_diagram(rng, max_atoms=2)
            for a, _ in g.entries:
                expected = diagram_leq(a.minus, a.plus) and diagram_leq(
                    a.plus, a.minus
                )
                assert is_diagonal(a) == expected


class TestMetrics:
    def test_dprod_zero_on_equal(self, rng):
        u = rand_interval(rng)
        assert d_prod(u, u, 2) == 0.0

    def test_dprod_linf_example(self):
        assert_close(d_prod(interval(0, 1), interval(0.1, 0.8), INF), 0.2)

    def test_dprod_rejects_small_p(self):
        with pytest.raises(ValueError):
            d_prod(interval(0, 1), interval(0, 1), 0.5)

    def test_ddiag_examples(self):
        assert d_diag(interval(0.3, 0.3), 1) == 0.0
        assert_close(d_diag(interval(0, 1), 1), 1.0)
        assert_close(d_diag(interval(0, 1), INF), 0.5)

    def test_ddiag_p2_matches_grid_minimization(self):
        # independent oracle: minimize ||(|b-t|, |d-t|)||_2 over a fine grid
        b, d = 0.0, 1.0
        best = min(
            math.hypot(abs(b - t), abs(d - t))
            for t in (k / 100000 for k in range(-100000, 200001))
        )
        assert_close(d_diag(interval(b, d), 2), best, 1e-5)
        assert_close(d_diag(interval(b, d), 2), 1 / math.sqrt(2))

    def test_d1_examples(self):
        u = interval(0, 1)
        assert d1(u, u, INF) == 0.0
        # both routes computed by hand: direct 0.45 vs diagonal 0.55
        assert_close(d1(u, interval(0.45, 0.55), INF), 0.45)
        assert_close(d1(u, interval(0.49, 0.51), INF), 0.49)

    def test_d1_metric_laws_level1(self, rng):
        atoms = [rand_interval(rng, grid=10) for _ in range(8)]
        for p in (1, 2, INF):
            for u in atoms:
                for v in atoms:
                    assert_close(d1(u, v, p), d1(v, u, p))
                    for w in atoms:
                        assert d1(u, w, p) <= d1(u, v, p) + d1(v, w, p) + 1e-9

    def test_d1_metric_laws_level2(self, rng):
        pool = []
        while len(pool) < 5:
            g = rand_level2_diagram(rng, max_atoms=2)
            pool.extend(a for a, _ in g.entries)
        pool = pool[:5]
        for u in pool:
            for v in pool:
                assert_close(d1(u, v, 1), d1(v, u, 1))
                for w in pool:
                    assert d1(u, w, 1) <= d1(u, v, 1) + d1(v, w, 1) + 1e-9

    def test_level2_dprod_matches_hand_expansion(self):
        # singleton endpoints: the nested transport cost reduces to d1 of the
        # inner atoms, which we expand by hand for p = 1
        a1, a2 = interval(0.1, 0.5), interval(0.2, 0.8)
        b1, b2 = interval(0.1, 0.6), interval(0.3, 0.7)
        u = atom(diagram({a1: 1}), diagram({a2: 1}))
        v = atom(diagram({b1: 1}), diagram({b2: 1}))

        def d1_hand(x, y):
            direct = abs(x.minus.coords[0] - y.minus.coords[0]) + abs(
                x.plus.coords[0] - y.plus.coords[0]
            )
            via = abs(x.plus.coords[0] - x.minus.coords[0]) + abs(
                y.plus.coords[0] - y.minus.coords[0]
            )
            return min(direct, via)

        expected = d1_hand(a1, b1) + d1_hand(a2, b2)
        assert_close(d_prod(u, v, 1), expected)

    def test_uniform_discreteness_propagates(self, rng):
        # ground sample with min nonzero gap eps -> level-1 d1 gaps >= eps
        values = [k / 7 for k in range(8)]
        eps = 1 / 7
        atoms = [
            interval(b, d) for b in values for d in values if d > b
        ]
        for p in (1, INF):
            for u in atoms:
                for v in atoms:
                    dist = d1(u, v, p)
                    if dist > 1e-12:
                        assert dist >= eps - 1e-12

    def test_norm_p_powers_outside_the_float_range(self):
        # squares past the float range, squares below it, and a p so large
        # that every power but 0 and 1 overflows or underflows
        assert_close(core.norm_p((1e200, 1e200), 2), math.sqrt(2) * 1e200, 1e-15)
        assert core.norm_p((1e-200, 1e-200), 2) == pytest.approx(math.sqrt(2) * 1e-200, rel=1e-15, abs=0)
        assert_close(core.norm_p((1e-200, 1e200), 2), 1e200, 1e-15)
        assert core.norm_p((3.0, 4.0), 1e6) == 4.0
        assert core.norm_p((0.0, 0.0), 2) == 0.0
        assert core.norm_p((0.37, 1.25), 2) == (0.37**2 + 1.25**2) ** 0.5

    def test_infinity_handling(self):
        u = interval(0.5, INF)
        v = interval(0.5, 1.0)
        assert d_prod(u, v, 1) == INF
        assert d_prod(u, u, 1) == 0.0
        assert atom_leq(v, u)  # +inf death is maximal
        assert not atom_leq(u, v)


class TestCanonicalization:
    def test_interning_gives_identity(self):
        assert interval(0.25, 0.75) is interval(0.25, 0.75)
        assert ground(1.5) is ground(1.5)

    def test_canonical_form_idempotent(self, rng):
        entries = {rand_interval(rng, grid=5): rng.randint(1, 4) for _ in range(6)}
        d1_ = diagram(entries)
        d2_ = diagram(dict(d1_.entries))
        assert d1_ is d2_

    def test_diagonal_atom_rejected_in_storage(self):
        with pytest.raises(ValueError):
            diagram({interval(0.5, 0.5): 1})
        with pytest.raises(ValueError):
            virtual_diagram({interval(0.5, 0.5): 1})

    def test_entries_sorted_deterministically(self, rng):
        atoms = [rand_interval(rng) for _ in range(10)]
        d_fwd = virtual_diagram({a: 1 for a in atoms})
        d_rev = virtual_diagram({a: 1 for a in reversed(atoms)})
        assert d_fwd.entries == d_rev.entries

    @pytest.mark.parametrize("dims", [(1,), (2,), (3,)])
    def test_large_level1_maps_keep_the_sort_key_order(self, rng, monkeypatch, dims):
        # past the cut-over, rows of one width are ordered by np.lexsort;
        # maps below it keep Python's sort
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys)) or lexsort(keys))

        def point(dim, top):
            coords = [rng.randrange(-3, 40) / 4 for _ in range(dim)]
            if top:
                coords[-1] = INF
            return ground(*coords)

        atoms = set()
        while len(atoms) < core._LEXSORT_MIN + 50:
            dim = rng.choice(dims)
            minus, plus = point(dim, False), point(dim, rng.random() < 0.1)
            if minus is not plus:
                atoms.add(atom(minus, plus))
        atoms = list(atoms)
        rng.shuffle(atoms)
        want = sorted(atoms, key=lambda a: a.sort_key)
        coeffs = {a: rng.choice((-2, -1, 1, 3)) for a in atoms}
        small = atoms[: core._LEXSORT_MIN - 1]
        for size in (small, atoms):
            calls.clear()
            keep = set(size)
            order = [a for a in want if a in keep]
            assert virtual_diagram({a: coeffs[a] for a in size}).entries == tuple((a, coeffs[a]) for a in order)
            assert diagram({a: abs(coeffs[a]) for a in size}).entries == tuple((a, abs(coeffs[a])) for a in order)
            assert linear_diagram({a: coeffs[a] / 2 for a in size}).entries == tuple((a, coeffs[a] / 2) for a in order)
            assert calls == [2 * dims[0]] * 3 * (size is atoms)
        # no two atoms tie, and the +inf deaths and both signs of a birth occur
        assert len({a.sort_key for a in atoms}) == len(atoms)
        assert any(math.isinf(a.plus.coords[-1]) for a in atoms)
        assert {math.copysign(1, a.minus.coords[0]) for a in atoms} == {-1.0, 1.0}

    def test_cancelled_coefficients_dropped(self):
        # coefficients that cancel leave no entry: one atom listed twice, from
        # a constructor and from text, and a scalar multiple by zero
        a = interval(0, 1)
        empty = virtual_diagram({}, level=1)
        xi = virtual_diagram([(a, 2), (a, -2)], level=1)
        assert xi == empty and xi.support_size() == 0
        text = "(v 1 (a (p 0.0) (p 1.0))*2 (a (p 0.0) (p 1.0))*-2)"
        assert from_text(text) == empty
        assert 0 * virtual_diagram({a: 3}) == empty

    def test_virtual_zero_coefficients_removed(self):
        a, b = interval(0, 1), interval(0, 2)
        xi = virtual_diagram({a: 2, b: 3}) - virtual_diagram({a: 2})
        assert xi.support() == [b]

    def test_difference_of_levels_rejected(self):
        a = interval(0, 1)
        for x, y in [
            (virtual_diagram({a: 1}), virtual_diagram({}, level=2)),
            (virtual_diagram({}, level=2), virtual_diagram({a: 1})),
            (virtual_diagram({}, level=1), virtual_diagram({}, level=2)),
        ]:
            with pytest.raises(LevelMismatch):
                _ = x - y

    def test_overflow_detected(self):
        big = 2**62
        xi = virtual_diagram({interval(0, 1): big})
        with pytest.raises(CoefficientOverflow):
            _ = xi + xi

    @given(st.integers(min_value=-(2**40), max_value=2**40), st.integers(min_value=-(2**40), max_value=2**40))
    def test_group_laws(self, c1, c2):
        a, b = interval(0, 1), interval(0.5, 2)
        x = virtual_diagram({a: c1, b: c2}, level=1)
        y = virtual_diagram({a: c2}, level=1)
        assert (x + y) - y == x
        assert x - x == virtual_diagram({}, level=1)


class TestGroundSpace:
    def test_multidimensional_ground(self):
        p = ground(0.1, 0.4)
        q = ground(0.2, 0.5)
        from hopd.core import ground_leq

        assert ground_leq(p, q)
        assert not ground_leq(q, p)
        u = atom(p, q)
        assert u.level == 1
        assert atom_coords(u) == (-0.1, -0.4, 0.2, 0.5)

    def test_ground_validation(self):
        with pytest.raises(ValueError):
            ground()
        with pytest.raises(ValueError):
            ground(INF, 1.0)
        with pytest.raises(ValueError):
            ground(float("nan"))

    def test_linear_diagram_rejects_a_nan_coefficient(self):
        # given, or summed from inf and -inf on one atom; a NaN could be
        # written as text but not read back
        a, b = interval(0, 1), interval(0.2, 0.4)
        for entries in ({a: math.nan, b: 1}, [(a, INF), (b, 1), (a, -INF)]):
            with pytest.raises(ValueError, match="NaN coefficient"):
                linear_diagram(entries)
        assert dict(linear_diagram([(a, INF), (a, 1.0)]).entries) == {a: INF}

    def test_ground_validation_around_lookup(self):
        # ground looks the intern table up before it validates: a rejected
        # point is never interned, so asking again (even with the same NaN
        # object) raises again, in every dimension
        nan = float("nan")
        for _ in range(2):
            with pytest.raises(ValueError, match="NaN"):
                ground(nan)
            with pytest.raises(ValueError, match="NaN"):
                ground(0.5, nan)
            with pytest.raises(ValueError, match="-inf"):
                ground(-INF)
            with pytest.raises(ValueError, match="-inf"):
                ground(0.5, -INF)
            with pytest.raises(ValueError, match="last coordinate"):
                ground(INF, 0.5)
        with pytest.raises(ValueError):
            ground("not a number")
        with pytest.raises(TypeError):
            ground(None)
        # a lone coordinate is the last one, so +inf is a valid death
        assert ground(INF) is ground(INF)
        assert atom_coords(interval(0.25, INF)) == (-0.25, INF)
        assert ground(1) is ground(1.0) is ground(np.float64(1.0))
        assert ground(0.5, 0.25) is ground(0.5, 0.25)

    def test_dist_ground_sup_metric(self):
        assert dist_ground(ground(0.0, 0.0), ground(0.3, 0.1)) == pytest.approx(0.3)

    def test_mixed_ground_dimensions_raise_level_mismatch(self):
        # ground points of different dimensions are never compared, pooled
        # or stored together, on any route
        from hopd.aggregation import bilinear_aggregate
        from hopd.core import ground_leq
        from hopd.wasserstein import certified_wasserstein, empty_cost, linear_w1_norm, naive_wasserstein

        one, two = interval(0.1, 0.5), atom(ground(0.0, 0.0), ground(1.0, 1.0))
        mixed = {one: 1, two: 2}
        # past the lexsort cut-over too, where the row join checks the widths
        big = {**{interval(4030 + k / 512, 4031.0): 1 for k in range(core._LEXSORT_MIN)}, two: 1}
        g1, g2 = diagram({one: 1}), diagram({two: 1})
        e1 = empty_diagram(1)
        # each level-2 class has one dimension; the two classes do not share it
        both = diagram({atom(g1, e1): 1, atom(g2, e1): 1}, level=2)
        x1, x2 = (diagram({atom(g, e1): 1}) for g in (g1, g2))
        calls = [
            lambda make=make, entries=entries: make(entries)
            for make in (virtual_diagram, diagram, linear_diagram)
            for entries in (mixed, big)
        ]
        calls += [
            lambda: from_text("(v 1 (a (p 0.1) (p 0.5))*1 (a (p 0 0) (p 1 1))*2)"),
            lambda: virtual_diagram({one: 1}) - virtual_diagram({two: 1}),
            lambda: bilinear_aggregate(g1.to_virtual(), g2.to_virtual()),
            lambda: bilinear_aggregate(g2.to_virtual(), g1.to_virtual()),
            lambda: empty_cost(both, 1),
            lambda: linear_w1_norm(virtual_diagram({atom(g1, e1): 1, atom(g2, e1): -1}, level=2)),
        ]
        for x, y in ((g1, g2), (g2, g1)):
            calls += [
                lambda x=x, y=y: diagram_leq(x, y),
                lambda x=x, y=y: atom_leq(x.support()[0], y.support()[0]),
                lambda x=x, y=y: ground_leq(x.support()[0].minus, y.support()[0].minus),
                lambda x=x, y=y: dist_ground(x.support()[0].plus, y.support()[0].plus),
            ]
        for p in (1, 2, INF):
            calls.append(lambda p=p: d1(one, two, p))
            for route in (naive_wasserstein, certified_wasserstein):
                for x, y in ((g1, g2), (x1, x2), (both, empty_diagram(2)), (empty_diagram(2), both)):
                    calls.append(lambda route=route, x=x, y=y, p=p: route(x, y, p))
        for call in calls:
            with pytest.raises(LevelMismatch):
                call()


def coords_bytes(a):
    return np.array(atom_coords(a)).tobytes()


class TestLevel1Rows:
    """The coordinate row that a level-1 atom carries from its interning."""

    def test_rows_match_atom_coords(self):
        # bit for bit, on 1-, 2- and 3-d ground, -0.0 births and +inf deaths
        # interval(-0.0, d) finds ground(0.0): its row must negate that
        by_dim = [
            [interval(0.0, 1.0625), interval(-0.0, 2.0625), interval(0.5, INF)],
            [atom(ground(-0.0, 1.25), ground(2.5, INF)), atom(ground(0.5, -0.0), ground(3.0, 4.0))],
            [
                atom(ground(-0.0, 0.0, 0.5), ground(1.0, 2.0, INF)),
                atom(ground(0.1, 0.2, 0.3), ground(1.0, 1.0, 1.0)),
            ],
        ]
        for atoms in by_dim:
            for a in atoms:
                assert a.row == coords_bytes(a)
            xi = virtual_diagram({a: 1 for a in atoms}, level=1)
            phi = level1_arrays(xi)[0]
            want = np.array([atom_coords(a) for a, _ in xi.entries])
            assert np.array_equal(phi.view(np.uint64), want.view(np.uint64))

    def test_no_row_above_level1(self):
        lvl2 = atom(diagram({interval(0, 1): 1}), diagram({interval(0, 2): 1}))
        assert lvl2.row is None
        with pytest.raises(LevelMismatch):
            level1_arrays(virtual_diagram({lvl2: 1}))

    def test_concurrent_interning(self):
        # 4 threads intern overlapping intervals at once, half of them
        # spelling a ground coordinate -0.0, which interns as an equal
        # 0.0 key; every atom must be interned once and carry the row of
        # the ground points it was interned with
        rng = random.Random(4)
        grid = [(rng.uniform(10, 11), rng.uniform(12, 13)) for _ in range(3000)]
        start = threading.Barrier(4)
        orders = [random.Random(seed).sample(grid, 2000) for seed in range(4)]
        zeros = [0.0, -0.0, 0.0, -0.0]

        def build(order, zero):
            start.wait(timeout=30)
            out = [interval(b, d) for b, d in order]
            out += [atom(ground(b, zero), ground(d, b + 5.0)) for b, d in order[:500]]
            return out

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the interning threads finely
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                built = [a for part in pool.map(build, orders, zeros, timeout=60) for a in part]
        finally:
            sys.setswitchinterval(switch)
        flat = {bd for order in orders for bd in order}
        plane = {bd for order in orders for bd in order[:500]}
        assert len(set(built)) == len(flat) + len(plane)
        assert all(a.row == coords_bytes(a) for a in built)
        for width in (2, 4):
            made = [a for a in set(built) if len(atom_coords(a)) == width]
            phi = level1_arrays(virtual_diagram({a: 1 for a in made}, level=1))[0]
            assert phi.shape == (len(made), width)
