import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopd.aggregation import naive_self_aggregate, self_aggregate_pairs, tree_expansion_oracle, iterated_aggregate
from hopd import harmonic
from hopd.core import CoefficientOverflow, atom, ground, interval, psi_golden, virtual_diagram
from hopd.harmonic import (
    Character,
    CoboundaryCharacter,
    DominanceInput,
    MissingAngle,
    angles_close,
    coboundary_net_multiplicities,
    coboundary_phase_raw,
    dominance_sums,
    evaluate_character,
    harmonic_eval,
    harmonic_eval_raw,
    iterated_character_phase,
    quadratic_phase,
    wrap_angle,
    _zeta2_both,
    _zeta_cdq,
)

from conftest import rand_virtual

TWO_PI = 2 * math.pi


def random_character(rng, xi):
    """Total character on the pair classes of supp(xi)."""
    from hopd.aggregation import pair_class
    from hopd.core import atom_leq

    angles = {}
    for u, _ in xi.entries:
        for v, _ in xi.entries:
            if atom_leq(u, v):
                angles[pair_class(u, v)] = rng.uniform(0, TWO_PI)
    return Character(xi.level + 1, angles)


def random_psi(rng, xi):
    return CoboundaryCharacter(
        xi.level, {a: rng.uniform(0, TWO_PI) for a, _ in xi.entries}
    )


class TestEvaluateCharacter:
    def test_zero_diagram(self):
        chi = Character(2, {})
        assert evaluate_character(chi, virtual_diagram({}, level=2)) == 0.0

    def test_single_atom_multiple(self):
        from hopd.aggregation import pair_class

        a = interval(0, 1)
        cls = pair_class(a, a)
        chi = Character(2, {cls: math.pi / 2})
        xi = virtual_diagram({cls: 3})
        assert angles_close(evaluate_character(chi, xi), 3 * math.pi / 2)

    def test_homomorphism_under_negation(self, rng):
        xi = rand_virtual(rng, 6, grid=8)
        agg = naive_self_aggregate(xi)
        chi = Character(2, {a: rng.uniform(0, TWO_PI) for a, _ in agg.entries})
        fwd = evaluate_character(chi, agg)
        bwd = evaluate_character(chi, -agg)
        assert angles_close(wrap_angle(fwd + bwd), 0.0)

    def test_missing_angle_raises(self):
        from hopd.aggregation import pair_class

        a = interval(0, 1)
        xi = virtual_diagram({pair_class(a, a): 1})
        with pytest.raises(MissingAngle):
            evaluate_character(Character(2, {}), xi)


class TestQuadraticPhase:
    def test_zero(self):
        xi = virtual_diagram({}, level=1)
        chi = Character(2, {})
        assert quadratic_phase(xi, chi) == 0.0

    def test_single_atom_reflexive_angle(self):
        from hopd.aggregation import pair_class

        a = interval(0.2, 0.9)
        alpha = 1.234
        chi = Character(2, {pair_class(a, a): alpha})
        for c in (1, 2, -3, 5):
            xi = virtual_diagram({a: c})
            assert angles_close(quadratic_phase(xi, chi), wrap_angle(c * c * alpha))

    def test_theorem_identity_random(self, rng):
        # the quadratic phase must equal the character of the explicit
        # self-aggregate for arbitrary characters
        for _ in range(12):
            xi = rand_virtual(rng, rng.randint(1, 40), grid=15, coeff_range=(-10, 10))
            chi = random_character(rng, xi)
            lhs = quadratic_phase(xi, chi)
            rhs = evaluate_character(chi, naive_self_aggregate(xi))
            assert angles_close(lhs, rhs, 1e-9)

    def test_coboundary_matches_induced_character(self, rng):
        xi = rand_virtual(rng, 12, grid=10)
        psi = random_psi(rng, xi)
        lhs = quadratic_phase(xi, psi)
        rhs = evaluate_character(psi, naive_self_aggregate(xi))
        assert angles_close(lhs, rhs, 1e-9)


def brute_dominance(points, direction):
    out = {}
    for c_i, w_i, id_i in points:
        total = 0
        for c_j, w_j, _ in points:
            if direction == "down":
                ok = all(a <= b for a, b in zip(c_j, c_i))
            else:
                ok = all(a >= b for a, b in zip(c_j, c_i))
            if ok:
                total += w_j
        out[id_i] = total
    return out


def cdq_both(x, y, w):
    """``_zeta_cdq`` with the signature of the int64 kernel ``_zeta2_both``."""
    pts = list(zip(x.tolist(), y.tolist()))
    ws = w.tolist()
    down = _zeta_cdq(pts, ws)
    up = _zeta_cdq([(-a, -b) for a, b in pts], ws)
    return np.array(down, dtype=np.int64), np.array(up, dtype=np.int64)


# the two-coordinate dominance transforms, keyed as in the test ids
TRANSFORMS = {"vector": _zeta2_both, "cdq": cdq_both}


def transform_sums(transform, points, direction):
    xy = np.array([p[0] for p in points], dtype=np.float64)
    w = np.array([p[1] for p in points], dtype=np.int64)
    z = transform(xy[:, 0], xy[:, 1], w)[direction == "up"]
    return {p[2]: int(v) for p, v in zip(points, z)}


def harmonic_with(transform, xi, psi):
    """``harmonic_eval_raw`` with its two-coordinate transform swapped."""
    saved = harmonic._zeta2_both
    harmonic._zeta2_both = transform
    try:
        return harmonic_eval_raw(xi, psi)
    finally:
        harmonic._zeta2_both = saved


class TestDominanceSums:
    def test_single_point_reflexive(self):
        inp = DominanceInput.from_arrays([(0.5, 0.5)], [5])
        assert dominance_sums(inp, "down") == {0: 5}
        assert dominance_sums(inp, "up") == {0: 5}

    def test_two_comparable_points(self):
        inp = DominanceInput.from_arrays([(0.0, 0.0), (1.0, 1.0)], [2, 3])
        assert dominance_sums(inp, "down") == {0: 2, 1: 5}
        assert dominance_sums(inp, "up") == {0: 5, 1: 3}

    @pytest.mark.parametrize("engine", ["cdq", "vector"])
    def test_engines_match_brute_force_r2(self, rng, engine):
        transform = TRANSFORMS[engine]
        for _ in range(25):
            n = rng.randint(1, 120)
            pts = [
                (
                    (rng.randrange(6) / 3.0, rng.randrange(6) / 3.0),
                    rng.randint(-8, 8),
                    k,
                )
                for k in range(n)
            ]
            inp = DominanceInput(tuple(pts))
            for direction in ("down", "up"):
                want = brute_dominance(pts, direction)
                assert transform_sums(transform, pts, direction) == want
                assert dominance_sums(inp, direction) == want

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 192, 193, 255, 256, 257, 1000])
    def test_vector_infinite_and_duplicate_coordinates(self, rng, n):
        # sizes straddle the dense cut-over (192) and the 64-point block and
        # merge-level edges; a coarse grid forces duplicates, and +inf in the
        # second coordinate (essential deaths) and -inf in the first must
        # order last and first
        grid = max(2, int(n**0.5) // 2)
        pts = []
        for k in range(n):
            x = -math.inf if rng.random() < 0.05 else float(rng.randrange(grid))
            y = math.inf if rng.random() < 0.2 else float(rng.randrange(grid))
            pts.append(((x, y), rng.randint(-9, 9), k))
        inp = DominanceInput(tuple(pts))
        for direction in ("down", "up"):
            want = brute_dominance(pts, direction)
            assert transform_sums(_zeta2_both, pts, direction) == want
            assert dominance_sums(inp, direction) == want

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_cdq_random_dims(self, rng, r):
        for _ in range(20):
            n = rng.randint(1, 90)
            pts = [
                (
                    tuple(rng.randrange(5) / 2.0 for _ in range(r)),
                    rng.randint(-5, 5),
                    k,
                )
                for k in range(n)
            ]
            for direction in ("down", "up"):
                sign = 1 if direction == "down" else -1
                coords = [tuple(sign * x for x in p[0]) for p in pts]
                got = _zeta_cdq(coords, [p[1] for p in pts])
                assert dict(zip(range(n), got)) == brute_dominance(pts, direction)

    def test_sums_beyond_64_bits_stay_exact(self):
        inp = DominanceInput.from_arrays([(0.0, 0.0), (1.0, 1.0)], [2**62, 2**62])
        # sum|w| >= 2^63 sends two coordinates to cdq instead of the kernel
        assert dominance_sums(inp, "down") == {0: 2**62, 1: 2**63}

    def test_duplicates_mutual(self):
        pts = [((0.5, 0.5), 2, "a"), ((0.5, 0.5), 3, "b")]
        inp = DominanceInput(tuple(pts))
        assert dominance_sums(inp, "down") == {"a": 5, "b": 5}
        assert dominance_sums(inp, "up") == {"a": 5, "b": 5}

    @given(st.integers(0, 10**6))
    def test_linearity_in_coefficients(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        coords = [
            (rng.randrange(4) / 2.0, rng.randrange(4) / 2.0) for _ in range(n)
        ]
        w1 = [rng.randint(-5, 5) for _ in range(n)]
        w2 = [rng.randint(-5, 5) for _ in range(n)]
        z1 = dominance_sums(DominanceInput.from_arrays(coords, w1), "down")
        z2 = dominance_sums(DominanceInput.from_arrays(coords, w2), "down")
        z12 = dominance_sums(
            DominanceInput.from_arrays(coords, [a + b for a, b in zip(w1, w2)]), "down"
        )
        assert z12 == {k: z1[k] + z2[k] for k in z1}

    def test_r1_equals_r2_with_constant_second(self, rng):
        n = 50
        xs = [rng.randrange(10) / 5.0 for _ in range(n)]
        ws = [rng.randint(-5, 5) for _ in range(n)]
        one = dominance_sums(
            DominanceInput.from_arrays([(x,) for x in xs], ws), "down"
        )
        two = dominance_sums(
            DominanceInput.from_arrays([(x, 0.0) for x in xs], ws), "down"
        )
        assert one == two


class TestHarmonicEval:
    def test_zero(self):
        psi = CoboundaryCharacter(1, {})
        assert harmonic_eval(virtual_diagram({}, level=1), psi) == 0.0

    def test_single_atom_annihilates(self):
        a = interval(0.2, 0.8)
        psi = CoboundaryCharacter(1, {a: 1.7})
        for c in (1, -4, 9):
            xi = virtual_diagram({a: c})
            assert angles_close(harmonic_eval(xi, psi), 0.0)

    @pytest.mark.parametrize("engine", ["vector", "cdq"])
    def test_equals_explicit_aggregate_character(self, rng, engine):
        for _ in range(8):
            xi = rand_virtual(rng, rng.randint(1, 80), grid=20)
            psi = random_psi(rng, xi)
            lhs = wrap_angle(harmonic_with(TRANSFORMS[engine], xi, psi))
            rhs = evaluate_character(psi, naive_self_aggregate(xi))
            assert angles_close(lhs, rhs, 1e-9)

    def test_equals_quadratic_phase_with_induced_character(self, rng):
        xi = rand_virtual(rng, 25, grid=12)
        psi = random_psi(rng, xi)
        assert angles_close(harmonic_eval(xi, psi), quadratic_phase(xi, psi), 1e-9)

    def test_golden_default_consistent(self, rng):
        xi = rand_virtual(rng, 200)
        psi = CoboundaryCharacter(1)
        lhs = harmonic_eval(xi, psi)
        rhs = evaluate_character(psi, self_aggregate_pairs(xi))
        assert angles_close(lhs, rhs, 1e-9)
        # identical to the scalar definition
        assert psi.psi_of(xi.support()[0]) == pytest.approx(
            psi_golden(xi.support()[0])
        )

    def test_level2_unsupported(self, rng):
        xi = rand_virtual(rng, 3, grid=6)
        agg = naive_self_aggregate(xi)
        psi = CoboundaryCharacter(2, {a: 0.1 for a, _ in agg.entries})
        from hopd.core import PreorderUnavailable

        with pytest.raises(PreorderUnavailable):
            harmonic_eval(agg, psi)

    def test_raw_value_supports_mean_combination(self, rng):
        xs = [rand_virtual(rng, 10, grid=8) for _ in range(3)]
        psi = CoboundaryCharacter(1)
        raw = sum(harmonic_eval_raw(x, psi) for x in xs) / 3
        explicit = 0.0
        for x in xs:
            explicit += coboundary_phase_raw(naive_self_aggregate(x), psi, x.support())
        assert angles_close(wrap_angle(raw), wrap_angle(explicit / 3), 1e-9)

    def test_two_dimensional_ground_matches_explicit_phase(self, rng):
        # four coordinates (-b1, -b2, d1, d2) per atom: cdq, not the kernel
        for _ in range(30):
            entries = {}
            for _ in range(rng.randint(1, 30)):
                b = (rng.randrange(4) / 4, rng.randrange(4) / 4)
                d = tuple(x + (1 + rng.randrange(4)) / 4 for x in b)
                entries[atom(ground(*b), ground(*d))] = rng.choice([-1, 1]) * rng.randint(1, 9)
            xi = virtual_diagram(entries, level=1)
            for psi in (CoboundaryCharacter(1), random_psi(rng, xi)):
                explicit = coboundary_phase_raw(naive_self_aggregate(xi), psi, xi.support())
                assert harmonic_eval_raw(xi, psi) == explicit

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.one_of(st.integers(1, 6), st.none()),
                st.integers(-9, 9).filter(bool),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_infinite_deaths_match_explicit_phase(self, rows):
        entries = {}
        for b, gap, c in rows:
            death = math.inf if gap is None else (b + gap) / 4
            entries[interval(b / 4, death)] = c
        xi = virtual_diagram(entries, level=1)
        psi = CoboundaryCharacter(1)
        explicit = coboundary_phase_raw(naive_self_aggregate(xi), psi, xi.support())
        assert harmonic_eval_raw(xi, psi) == explicit


class TestHarmonicOverflow:
    def test_self_pair_beyond_64_bits_raises_like_explicit_routes(self):
        # the self-pair class of a has coefficient 2**64
        xi = virtual_diagram({interval(0.2, 0.8): 2**32, interval(0.1, 0.9): 3})
        psi = CoboundaryCharacter(1)
        for route in (naive_self_aggregate, self_aggregate_pairs):
            with pytest.raises(CoefficientOverflow):
                route(xi)
        for transform in TRANSFORMS.values():
            with pytest.raises(CoefficientOverflow):
                harmonic_with(transform, xi, psi)

    def test_just_below_bound_is_exact(self):
        # max|c| * sum|c| = 2**31 * (2**31 + 1) < 2**63
        a, b = interval(0.2, 0.8), interval(0.1, 0.9)
        xi = virtual_diagram({a: 2**31, b: 1})
        psi = CoboundaryCharacter(1)
        explicit = coboundary_phase_raw(naive_self_aggregate(xi), psi, xi.support())
        assert harmonic_eval_raw(xi, psi) == explicit

    def test_nets_that_fit_agree_past_the_screen(self):
        # n * max|c|^2 > 2**63 - 1 turns the exact net check on; every net fits
        c = 2**31 - 1
        xi = virtual_diagram({interval(0.2, 0.8): c, interval(0.1, 0.9): c, interval(0.95, 1.5): c})
        psi = CoboundaryCharacter(1)
        phases = {
            coboundary_phase_raw(route(xi), psi, xi.support())
            for route in (naive_self_aggregate, self_aggregate_pairs)
        }
        for transform in TRANSFORMS.values():
            phases.add(harmonic_with(transform, xi, psi))
        assert len(phases) == 1

    def test_nets_beyond_64_bits_raise_on_every_route(self):
        # six nested intervals: the self classes fit, the nets reach 5 * 2**62
        xi = virtual_diagram({interval(0.5 - 0.05 * k, 0.51 + 0.05 * k): 2**31 for k in range(6)})
        psi = CoboundaryCharacter(1)
        for route in (naive_self_aggregate, self_aggregate_pairs):
            agg = route(xi)
            with pytest.raises(CoefficientOverflow):
                coboundary_net_multiplicities(agg, xi.support())
        for transform in TRANSFORMS.values():
            with pytest.raises(CoefficientOverflow):
                harmonic_with(transform, xi, psi)


    @staticmethod
    def minus_2_63_diagram(sign, extra=False):
        # d(a) = -/+2**32 at the outer interval, so its net is exactly -2**63
        entries = {
            interval(0.1, 0.9): -sign * 2**31,
            interval(0.2, 0.4): sign * 2**31,
            interval(0.5, 0.7): sign * 2**31,
        }
        if extra:
            # contained in the outer interval only: its net moves to -2**63 - 2**31
            entries[interval(0.45, 0.48)] = sign
        return virtual_diagram(entries)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_net_of_exactly_minus_2_63_is_kept(self, sign):
        xi = self.minus_2_63_diagram(sign)
        psi = CoboundaryCharacter(1)
        net = coboundary_net_multiplicities(naive_self_aggregate(xi), xi.support())
        assert int(net.min()) == -(2**63)
        explicit = coboundary_phase_raw(naive_self_aggregate(xi), psi, xi.support())
        assert coboundary_phase_raw(self_aggregate_pairs(xi), psi, xi.support()) == explicit
        for transform in TRANSFORMS.values():
            assert harmonic_with(transform, xi, psi) == explicit

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_more_atom_past_minus_2_63_raises(self, sign):
        xi = self.minus_2_63_diagram(sign, extra=True)
        psi = CoboundaryCharacter(1)
        for route in (naive_self_aggregate, self_aggregate_pairs):
            with pytest.raises(CoefficientOverflow):
                coboundary_net_multiplicities(route(xi), xi.support())
        for transform in TRANSFORMS.values():
            with pytest.raises(CoefficientOverflow):
                harmonic_with(transform, xi, psi)


class TestNetMultiplicities:
    def test_pair_aggregate_exact_above_2_53(self):
        # products near 2^54 are not representable in float64
        a, b = interval(0.2, 0.8), interval(0.1, 0.9)
        xi = virtual_diagram({a: 2**27 + 1, b: 2**27 + 3})
        net = (2**27 + 1) * (2**27 + 3)
        base = xi.support()
        assert base == [b, a]
        for agg in (self_aggregate_pairs(xi), naive_self_aggregate(xi)):
            assert coboundary_net_multiplicities(agg, base).tolist() == [net, -net]


class TestIteratedPhase:
    def test_s1_reduces_to_quadratic(self, rng):
        xi = rand_virtual(rng, 3, grid=6, coeff_range=(-3, 3))
        chi = random_character(random.Random(7), xi)
        assert angles_close(
            iterated_character_phase(xi, 1, chi), quadratic_phase(xi, chi), 1e-9
        )

    def test_single_atom_power(self):
        a = interval(0.1, 0.4)
        xi = virtual_diagram({a: 2})
        out = iterated_aggregate(xi, 2)
        [(nested, _)] = out.entries
        theta = Character(3, {nested: 0.77})
        got = iterated_character_phase(xi, 2, theta)
        assert angles_close(got, wrap_angle(0.77 * 2**4))

    def test_matches_tree_oracle_character(self, rng):
        for _ in range(5):
            xi = rand_virtual(rng, 2, grid=5, coeff_range=(-3, 3))
            expansion = tree_expansion_oracle(xi, 2)
            theta = Character(
                3, {a: random.Random(11).uniform(0, TWO_PI) for a, _ in expansion.entries}
            )
            lhs = iterated_character_phase(xi, 2, theta)
            rhs = evaluate_character(theta, expansion)
            assert angles_close(lhs, rhs, 1e-9)
