import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hopd.aggregation import (
    ExpansionGuardExceeded,
    iterated_aggregate,
    level1_arrays,
    naive_self_aggregate,
    self_aggregate_pairs,
    tree_expansion_oracle,
)
from hopd.core import (
    CoefficientOverflow,
    PreorderUnavailable,
    atom,
    diagram,
    ground,
    interval,
    psi_golden,
    psi_golden_array,
    virtual_diagram,
)
from hopd.harmonic import (
    Character,
    CoboundaryCharacter,
    MissingAngle,
    angles_close,
    coboundary_net_multiplicities,
    coboundary_phase_raw,
    dominance_sums,
    evaluate_character,
    harmonic_eval,
    harmonic_eval_raw,
    harmonic_nets,
    iterated_character_phase,
    psi_vector,
    quadratic_phase,
    transform_ops,
    wrap_angle,
    _merge_levels,
    _zeta2_both,
    _zeta_both,
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

    def test_general_character_on_pair_aggregate(self, rng):
        # a total character, not a coboundary, read off the pair enumerator
        for _ in range(8):
            xi = rand_virtual(rng, rng.randint(1, 30), grid=10, coeff_range=(-5, 5))
            chi = random_character(rng, xi)
            lhs = evaluate_character(chi, self_aggregate_pairs(xi))
            rhs = evaluate_character(chi, naive_self_aggregate(xi))
            assert angles_close(lhs, rhs, 1e-9)

    def test_tiny_negative_phase_wraps_below_two_pi(self):
        from hopd.aggregation import pair_class

        # -1e-17 % 2*pi rounds up to 2*pi itself
        assert wrap_angle(-1e-17) == 0.0
        cls = pair_class(interval(0, 1), interval(0, 1))
        phase = evaluate_character(Character(2, {cls: 1e-17}), virtual_diagram({cls: -1}))
        assert 0.0 <= phase < TWO_PI

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


def kernel_sums(points, direction):
    xy = np.array([p[0] for p in points], dtype=np.float64)
    w = np.array([p[1] for p in points], dtype=np.int64)
    z = _zeta2_both(xy[:, 0], xy[:, 1], w)[direction == "up"]
    return {p[2]: int(v) for p, v in zip(points, z)}


def api_sums(points, direction):
    z = dominance_sums([p[0] for p in points], [p[1] for p in points])[direction == "up"]
    return {p[2]: v for p, v in zip(points, z.tolist())}


def assert_zeta_both_exact(phi, w):
    """_zeta_both and dominance_sums against the quadratic brute force."""
    le = np.ones((len(w), len(w)), dtype=bool)
    for k in range(phi.shape[1]):
        le &= phi[:, k, None] <= phi[None, :, k]
    down, up = _zeta_both(phi, w)
    assert down.tolist() == (w @ le).tolist()
    assert up.tolist() == (le @ w).tolist()
    got_down, got_up = dominance_sums(phi, w)
    assert got_down.tolist() == down.tolist()
    assert got_up.tolist() == up.tolist()


class TestDominanceSums:
    def test_single_point_reflexive(self):
        down, up = dominance_sums([(0.5, 0.5)], [5])
        assert down.tolist() == [5]
        assert up.tolist() == [5]

    def test_two_comparable_points(self):
        down, up = dominance_sums([(0.0, 0.0), (1.0, 1.0)], [2, 3])
        assert down.tolist() == [2, 5]
        assert up.tolist() == [5, 3]

    def test_kernel_matches_brute_force_r2(self, rng):
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
            for direction in ("down", "up"):
                want = brute_dominance(pts, direction)
                assert kernel_sums(pts, direction) == want
                assert api_sums(pts, direction) == want

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
        for direction in ("down", "up"):
            want = brute_dominance(pts, direction)
            assert kernel_sums(pts, direction) == want
            assert api_sums(pts, direction) == want

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 6])
    def test_zeta_both_random_dims(self, rng, r):
        # coarse grids force duplicates, and -inf and +inf must order first
        # and last in every column; coalescing caps their distinct rows, so
        # continuous coordinates (every row distinct) put the row count on
        # and just past the 64-row block and merge-level edges
        cases = [(n, grid) for n in (1, 63, 64, 65, 129, 193, 1000) for grid in (2, 5)]
        cases += [(n, None) for n in (63, 64, 65, 128, 129, 193, 256, 257, 1000)]
        for n, grid in cases:
            phi = np.array(
                [
                    [
                        rng.choice((-math.inf, math.inf)) if rng.random() < 0.1
                        else float(rng.randrange(grid)) if grid else rng.random()
                        for _ in range(r)
                    ]
                    for _ in range(n)
                ]
            ).reshape(n, r)
            w = np.array([rng.randint(-9, 9) for _ in range(n)], dtype=np.int64)
            assert_zeta_both_exact(phi, w)

    def test_zeta_both_key_past_64_bits(self, rng):
        # 300 distinct values in each of 8 columns: 300^8 > 2^63, so the
        # lexicographic key has to be re-ranked before its last digit
        phi = np.array([[rng.random() for _ in range(8)] for _ in range(300)])
        w = np.array([rng.randint(-9, 9) for _ in range(300)], dtype=np.int64)
        assert_zeta_both_exact(phi, w)

    def test_sums_beyond_64_bits_stay_exact(self):
        # sums that may leave int64 raise instead of wrapping, in any width
        for coords in ([(0.0, 0.0), (1.0, 1.0)], [(0.0,), (1.0,)], [(0.0,) * 3, (1.0,) * 3]):
            for w in ([2**62, 2**62], [2**63 - 1, 1], [2**70, 0], [-(2**63), 0]):
                with pytest.raises(CoefficientOverflow):
                    dominance_sums(coords, w)
        down, _ = dominance_sums([(0.0, 0.0), (1.0, 1.0)], [2**62, 2**62 - 1])
        assert down.tolist() == [2**62, 2**63 - 1]

    def test_mixed_widths_rejected(self):
        for coords in ([(0, 0, 0), (1, 1)], [(0,), (1, 1, 1)], [(0, 0), (1, 1, 1)]):
            with pytest.raises(ValueError, match="same number of coordinates"):
                dominance_sums(coords, [1, 2])

    def test_weights_that_are_not_integers_rejected(self):
        # fractional weights were truncated, NaN and inf raised raw errors
        for w in ([1.5, 2.7], [math.nan, 1], [math.inf, 1], [1, -math.inf], [None, 1]):
            with pytest.raises(ValueError, match="finite integers"):
                dominance_sums([[0, 0], [1, 1]], w)
        down, up = dominance_sums([[0, 0], [1, 1]], [2.0, np.int32(3)])
        assert down.tolist() == [2, 5] and up.tolist() == [5, 3]

    def test_one_weight_per_row(self):
        # extra rows are not dropped, and missing rows raise no IndexError
        for coords, w in (
            ([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)], [1, 3]),
            ([(0.0, 0.0)], [1, 3]),
            ([0.0, 1.0], [1, 3]),  # not 2-D
        ):
            with pytest.raises(ValueError):
                dominance_sums(coords, w)
        for phi in ([], np.empty((0, 2))):
            down, up = dominance_sums(phi, [])
            assert down.dtype == up.dtype == np.int64
            assert down.size == up.size == 0

    def test_duplicates_mutual(self):
        pts = [((0.5, 0.5), 2, "a"), ((0.5, 0.5), 3, "b")]
        assert api_sums(pts, "down") == {"a": 5, "b": 5}
        assert api_sums(pts, "up") == {"a": 5, "b": 5}

    @given(st.integers(0, 10**6))
    def test_linearity_in_coefficients(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        coords = [
            (rng.randrange(4) / 2.0, rng.randrange(4) / 2.0) for _ in range(n)
        ]
        w1 = [rng.randint(-5, 5) for _ in range(n)]
        w2 = [rng.randint(-5, 5) for _ in range(n)]
        z1 = dominance_sums(coords, w1)[0].tolist()
        z2 = dominance_sums(coords, w2)[0].tolist()
        z12 = dominance_sums(coords, [a + b for a, b in zip(w1, w2)])[0].tolist()
        assert z12 == [a + b for a, b in zip(z1, z2)]

    def test_r1_equals_r2_with_constant_second(self, rng):
        n = 50
        xs = [rng.randrange(10) / 5.0 for _ in range(n)]
        ws = [rng.randint(-5, 5) for _ in range(n)]
        one = dominance_sums([(x,) for x in xs], ws)[0]
        two = dominance_sums([(x, 0.0) for x in xs], ws)[0]
        assert one.tolist() == two.tolist()


class TestTransformOps:
    def test_merge_levels_is_the_kernel_loop_bound(self):
        # the doubling loop the kernels ran before the helper bounded them
        for size in range(64, 1 << 14, 64):
            lg, levels = 6, 0
            while (1 << lg) < size:
                lg, levels = lg + 1, levels + 1
            assert _merge_levels(size) == levels

    def test_counts_dense_then_blocks_and_levels(self):
        assert [transform_ops(n) for n in (0, 1, 192)] == [0, 2, 2 * 192 * 192]
        # 193 points pad to 256 rows: four 64 x 64 blocks and two merge levels
        assert transform_ops(193) == 2 * 4 * 64 * 64 + 2 * 2 * 256
        assert transform_ops(10**5) == 2 * 100_032 * (64 + 11)


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

    def test_equals_explicit_aggregate_character(self, rng):
        for _ in range(8):
            xi = rand_virtual(rng, rng.randint(1, 80), grid=20)
            psi = random_psi(rng, xi)
            lhs = harmonic_eval(xi, psi)
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

    @pytest.mark.parametrize("n", [0, 1, 193, 10_000])
    def test_golden_potential_from_gathered_ids(self, n):
        # the potential harmonic_eval_raw reads off the rows that
        # level1_arrays joins from the atoms is psi_golden exactly, on +inf
        # deaths and 2-D ground points, and so is the raw phase built on it
        gen = np.random.default_rng(n)
        psi = CoboundaryCharacter(1)
        for dim in (1, 2):
            births = gen.random((n, dim))
            deaths = births + 0.5 + gen.random((n, dim))
            deaths[gen.random(n) < 0.1, -1] = math.inf
            coeffs = gen.choice([-2, 1, 3], size=n).tolist()
            xi = virtual_diagram(
                {atom(ground(*b), ground(*d)): c for b, d, c in zip(births, deaths, coeffs)},
                level=1,
            )
            atoms = xi.support()
            phi = level1_arrays(xi)[0]
            scalar = np.array([psi_golden(a) for a in atoms], dtype=np.float64)
            assert np.array_equal(psi_golden_array(phi), scalar)
            assert np.array_equal(psi_vector(psi, atoms), scalar)
            assert np.array_equal(psi_vector(psi, iter(atoms)), scalar)
            assert np.array_equal(psi_vector(psi, (), phi), scalar)
            net = harmonic_nets(xi).astype(np.float64)
            assert harmonic_eval_raw(xi, psi) == float(np.dot(scalar, net))

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
        # four coordinates (-b1, -b2, d1, d2) per atom, past the kernel
        for _ in range(30):
            entries = {}
            for _ in range(rng.randint(1, 30)):
                b = (rng.randrange(4) / 4, rng.randrange(4) / 4)
                d = tuple(x + (1 + rng.randrange(4)) / 4 for x in b)
                entries[atom(ground(*b), ground(*d))] = rng.choice([-1, 1]) * rng.randint(1, 9)
            xi = virtual_diagram(entries, level=1)
            net = coboundary_net_multiplicities(naive_self_aggregate(xi), xi.support())
            assert harmonic_nets(xi).tolist() == net.tolist()
            for psi in (CoboundaryCharacter(1), random_psi(rng, xi)):
                explicit = coboundary_phase_raw(naive_self_aggregate(xi), psi, xi.support())
                assert harmonic_eval_raw(xi, psi) == explicit

    @pytest.mark.parametrize("dim", [2, 3])
    def test_ground_dimensions_match_pair_nets(self, rng, dim):
        # 2 * dim coordinates per atom and supports of several 64-row
        # blocks, so merge levels run; +inf deaths in the last coordinate
        for size in (150, 400):
            entries = {}
            while len(entries) < size:
                b = tuple(rng.randrange(5) / 4 for _ in range(dim))
                d = [x + (1 + rng.randrange(4)) / 4 for x in b]
                if rng.random() < 0.1:
                    d[-1] = math.inf
                entries.setdefault(atom(ground(*b), ground(*d)), rng.choice([-1, 1]) * rng.randint(1, 9))
            xi = virtual_diagram(entries, level=1)
            net = coboundary_net_multiplicities(self_aggregate_pairs(xi), xi.support())
            assert harmonic_nets(xi).tolist() == net.tolist()

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
        net = coboundary_net_multiplicities(naive_self_aggregate(xi), xi.support())
        assert harmonic_nets(xi).tolist() == net.tolist()
        psi = CoboundaryCharacter(1)
        explicit = coboundary_phase_raw(naive_self_aggregate(xi), psi, xi.support())
        assert harmonic_eval_raw(xi, psi) == explicit


# One diagram's raw phase and potentials, as float hex, in a fresh process
# that first interns `argv[1]` unrelated intervals and then, unless
# `argv[2]` is "none", the interval (argv[2], 1.0).
_PHASE_SNIPPET = """
import sys
from hopd.core import interval, psi_golden, virtual_diagram
from hopd.harmonic import CoboundaryCharacter, harmonic_eval_raw
for k in range(int(sys.argv[1])):
    interval(10.0 + k, 20.0 + 0.5 * k)
if sys.argv[2] != "none":
    interval(float(sys.argv[2]), 1.0)
xi = virtual_diagram(
    {interval(0.0, 1.0): 2, interval(0.25, 0.75): -3, interval(0.1, float("inf")): 1},
    level=1,
)
print(harmonic_eval_raw(xi, CoboundaryCharacter(1)).hex(),
      *(psi_golden(a).hex() for a in xi.support()))
"""


def _phase_in_fresh_process(unrelated: int, first: str) -> str:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", _PHASE_SNIPPET, str(unrelated), first],
        capture_output=True, text=True, check=True, env=env,
    ).stdout


class TestGoldenPotential:
    def test_phase_does_not_depend_on_earlier_interning(self):
        # the potential reads coordinates, not the intern ids that the 50
        # unrelated intervals shift
        fresh = _phase_in_fresh_process(0, "none")
        assert len(fresh.split()) == 4
        assert _phase_in_fresh_process(50, "none") == fresh

    def test_negative_zero_birth_reads_as_zero(self):
        # interval(0.0, 1.0) and interval(-0.0, 1.0) intern to one atom whose
        # stored sign is whichever came first; the potential must not see it
        assert _phase_in_fresh_process(0, "-0.0") == _phase_in_fresh_process(0, "0.0")

    def test_level2_atom_has_no_golden_potential(self):
        lvl2 = atom(diagram({interval(0.0, 1.0): 1}), diagram({interval(0.2, 0.5): 1}))
        with pytest.raises(PreorderUnavailable):
            psi_golden(lvl2)


class TestHarmonicOverflow:
    def test_self_pair_beyond_64_bits_raises_like_explicit_routes(self):
        # the self-pair class of a has coefficient 2**64
        xi = virtual_diagram({interval(0.2, 0.8): 2**32, interval(0.1, 0.9): 3})
        psi = CoboundaryCharacter(1)
        for route in (naive_self_aggregate, self_aggregate_pairs):
            with pytest.raises(CoefficientOverflow):
                route(xi)
        with pytest.raises(CoefficientOverflow):
            harmonic_eval_raw(xi, psi)

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
        phases.add(harmonic_eval_raw(xi, psi))
        assert len(phases) == 1

    def test_nets_beyond_64_bits_raise_on_every_route(self):
        # six nested intervals: the self classes fit, the nets reach 5 * 2**62
        xi = virtual_diagram({interval(0.5 - 0.05 * k, 0.51 + 0.05 * k): 2**31 for k in range(6)})
        psi = CoboundaryCharacter(1)
        for route in (naive_self_aggregate, self_aggregate_pairs):
            agg = route(xi)
            with pytest.raises(CoefficientOverflow):
                coboundary_net_multiplicities(agg, xi.support())
        with pytest.raises(CoefficientOverflow):
            harmonic_eval_raw(xi, psi)


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
        assert harmonic_nets(xi).tolist() == net.tolist()
        explicit = coboundary_phase_raw(naive_self_aggregate(xi), psi, xi.support())
        assert coboundary_phase_raw(self_aggregate_pairs(xi), psi, xi.support()) == explicit
        assert harmonic_eval_raw(xi, psi) == explicit

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_more_atom_past_minus_2_63_raises(self, sign):
        xi = self.minus_2_63_diagram(sign, extra=True)
        psi = CoboundaryCharacter(1)
        for route in (naive_self_aggregate, self_aggregate_pairs):
            with pytest.raises(CoefficientOverflow):
                coboundary_net_multiplicities(route(xi), xi.support())
        with pytest.raises(CoefficientOverflow):
            harmonic_eval_raw(xi, psi)


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
            rhs = evaluate_character(theta, iterated_aggregate(xi, 2))
            assert angles_close(lhs, rhs, 1e-9)

    def test_guard_raises_expansion_guard_exceeded(self, rng):
        # 32^4 labelings > 10^6, the same condition tree_expansion_oracle guards
        xi = rand_virtual(rng, 32)
        with pytest.raises(ExpansionGuardExceeded, match=r"32\^4 labelings"):
            iterated_character_phase(xi, 2, Character(3, {}))
