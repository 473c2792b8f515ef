"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria with stated
runtime budgets assert them; timing-sensitive criteria (scaling slopes,
speedup ratios) run on the synthetic families documented in the README.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hopd.aggregation import (
    bilinear_aggregate,
    iterated_aggregate,
    naive_self_aggregate,
    pair_class,
    self_aggregate_pairs,
    tree_expansion_oracle,
)
from hopd.bench import (
    ExperimentConfig,
    loglog_slope,
    run_runtime_scaling,
    scaling_summary,
    synth_level1,
)
from hopd.core import atom, atom_leq, diagram, empty_diagram, interval, virtual_diagram
from hopd.envelopes import (
    average_ratio,
    bell_number,
    envelope_average,
    envelope_worst,
    sandwich_bounds,
    stirling2,
)
from hopd.filtration import (
    build_clique_filtration,
    persistence_h0,
    persistence_h1,
    persistence_oracle,
    weighted_graph,
)
from hopd.harmonic import (
    CoboundaryCharacter,
    angles_close,
    coboundary_net_multiplicities,
    evaluate_character,
    harmonic_eval,
    harmonic_nets,
)
from hopd.wasserstein import (
    CostCounters,
    assign_p,
    certified_wasserstein,
    complexity_profile,
    naive_wasserstein,
)

from conftest import rand_interval, rand_level2_diagram, rand_virtual

INF = math.inf
TOL = 1e-9

_collected_profiles = []


def _check_structural_bound(xi) -> None:
    prof = complexity_profile(xi)
    assert prof.support_size <= prof.structural_bound(), prof
    _collected_profiles.append(prof)


def test_c01_harmonic_explicit_oracle_equality():
    """1000 random level-1 signed diagrams, supports 1..5000."""
    t0 = time.time()
    rng = np.random.default_rng(20260502)
    sizes = [1, 5000, 5000]
    sizes += [
        int(round(math.exp(u))) for u in rng.uniform(0.0, math.log(5000), 997)
    ]
    checked_small = 0
    for inst, size in enumerate(sizes):
        xi = synth_level1(size, "uniform", rng)
        psi = CoboundaryCharacter(
            1,
            dict(
                zip(xi.support(), rng.uniform(0.0, 2 * math.pi, xi.support_size()))
            ),
        )
        pairs = self_aggregate_pairs(xi)
        assert np.array_equal(
            harmonic_nets(xi), coboundary_net_multiplicities(pairs, xi.support())
        ), (inst, size)
        harmonic = harmonic_eval(xi, psi)
        explicit = evaluate_character(psi, pairs)
        assert angles_close(harmonic, explicit, TOL), (inst, size)
        if size <= 200 and checked_small < 40:
            # tie the array route to the literal pair-loop construction
            from_loop = evaluate_character(psi, naive_self_aggregate(xi))
            assert angles_close(harmonic, from_loop, TOL)
            checked_small += 1
        if size <= 400:
            _check_structural_bound(xi)
    elapsed = time.time() - t0
    assert elapsed < 120, f"criterion 1 took {elapsed:.1f}s"
    print(
        f"\n[criterion 1] PASS: 1000 instances, exact nets equal and harmonic == "
        f"explicit within 1e-9 ({elapsed:.1f}s < 120s)"
    )


def test_c02_dominance_sum_correctness():
    """500 random instances match the quadratic brute force exactly."""
    from hopd.harmonic import dominance_sums

    t0 = time.time()
    rng = np.random.default_rng(77)
    duplicates_forced = 0
    for inst in range(500):
        r = int(rng.integers(1, 4))
        n = int(rng.integers(1, 2001)) if inst % 5 == 0 else int(rng.integers(1, 300))
        force_dup = inst % 7 == 0
        if force_dup:
            grid = max(2, int(n ** (1.0 / r) / 2))
            coords = rng.integers(0, grid, size=(n, r)).astype(float)
            duplicates_forced += 1
        else:
            coords = rng.random((n, r))
        w = rng.integers(-10, 11, size=n)
        down = np.ones(n, dtype=np.int64)
        up = np.ones(n, dtype=np.int64)
        # vectorized quadratic oracle, integer exact
        le = np.ones((n, n), dtype=bool)
        ge = np.ones((n, n), dtype=bool)
        for k in range(r):
            le &= coords[:, k][:, None] <= coords[:, k][None, :]
            ge &= coords[:, k][:, None] >= coords[:, k][None, :]
        down = le.T @ w
        up = ge.T @ w
        got_down, got_up = dominance_sums(coords, w)
        assert [got_down[i] for i in range(n)] == list(down), inst
        assert [got_up[i] for i in range(n)] == list(up), inst
    elapsed = time.time() - t0
    assert duplicates_forced >= 50
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s"
    print(
        f"\n[criterion 2] PASS: 500 instances integer-exact vs brute force, "
        f"{duplicates_forced} with forced duplicates ({elapsed:.1f}s < 60s)"
    )


@pytest.fixture(scope="module")
def narrow_scaling_rows():
    # ladder thinned to one point per half-decade: supports 100 .. 100000
    rows = []
    for idx in (0, 5, 10, 15, 20, 25, 30):
        sub = ExperimentConfig(
            n_range=(idx, idx), repeats=3, family="narrow", engine="vectorized"
        )
        rows.extend(run_runtime_scaling(sub))
    return rows


def test_c03_scaling_exponents(narrow_scaling_rows):
    summary = scaling_summary(narrow_scaling_rows)
    supports = [r["support"] for r in summary]
    assert min(supports) <= 100 and max(supports) >= 100000
    naive_slope = loglog_slope([(r["support"], r["naive_median"]) for r in summary])
    harm_slope = loglog_slope(
        [(r["support"], r["harmonic_median"]) for r in summary]
    )
    # per-rung medians next to the slopes, before the asserts, so the log
    # shows how near the gate a run sits
    rungs = "".join(
        f"\n  support {r['support']:>6}: naive median {r['naive_median'] / 1e9:.4f} s, "
        f"harmonic median {r['harmonic_median'] / 1e9:.4f} s"
        for r in summary
    )
    print(f"{rungs}\n  naive slope {naive_slope:.3f}, harmonic slope {harm_slope:.3f}")
    assert 1.7 <= naive_slope <= 2.3, naive_slope
    assert 0.8 <= harm_slope <= 1.4, harm_slope
    print(
        f"\n[criterion 3] PASS: supports 100..100000, naive slope "
        f"{naive_slope:.2f} in [1.7, 2.3], harmonic slope {harm_slope:.2f} in [0.8, 1.4]"
    )


def test_c04_speedup_at_1e4():
    cfg = ExperimentConfig(
        n_range=(20, 20), repeats=3, family="uniform", engine="vectorized"
    )
    rows = run_runtime_scaling(cfg)
    ratios = sorted(r["t_naive_ns"] / r["t_harmonic_ns"] for r in rows)
    median = ratios[len(ratios) // 2]
    assert median >= 20.0, ratios
    print(
        f"\n[criterion 4] PASS: support 10^4, harmonic/naive wall-clock ratio "
        f"{median:.1f}x >= 20x (paper reports 11.8-309.4x on its hardware; "
        f"absolute values are hardware-bound and not asserted)"
    )


def test_c05_wasserstein_equivalence():
    rng = random.Random(5150)
    fewer = 0
    opportunities = 0
    for inst in range(300):
        if inst % 3 == 2:
            g, l = _prunable_instance(rng)
        else:
            g = rand_level2_diagram(rng, max_atoms=5)
            l = rand_level2_diagram(rng, max_atoms=5)
        for p in (1, 2, INF):
            cn, cc = CostCounters(), CostCounters()
            wn = naive_wasserstein(g, l, p, counters=cn)
            wc = certified_wasserstein(g, l, p, counters=cc)
            assert wn == wc or abs(wn - wc) <= TOL, (inst, p, wn, wc)
            if cc.prunes > 0:
                opportunities += 1
                if cc.atom_expansions < cn.atom_expansions:
                    fewer += 1
    assert opportunities > 0
    assert fewer >= opportunities / 2
    print(
        f"\n[criterion 5] PASS: 300 instances x 3 exponents, certified == naive; "
        f"strictly fewer expansions on {fewer}/{opportunities} pruning instances"
    )


def _prunable_instance(rng):
    from hopd.core import atom, diagram

    def light():
        b = rng.uniform(0, 0.2)
        return diagram({interval(b, b + rng.uniform(0.01, 0.1)): 1})

    def heavy():
        b = rng.uniform(0, 0.2)
        return diagram({interval(b, b + rng.uniform(5, 10)): rng.randint(2, 4)})

    u = atom(light(), light())
    v = atom(heavy(), heavy())
    g = diagram({u: 1, atom(light(), light()): 1}, level=2)
    l = diagram({v: 1}, level=2)
    return g, l


def test_c06_assign_exactness():
    rng = random.Random(606)
    count = 0
    for _ in range(200):
        m, l = rng.randint(0, 4), rng.randint(0, 4)
        off = [[rng.uniform(0, 3) for _ in range(l)] for _ in range(m)]
        left = [rng.uniform(0, 3) for _ in range(m)]
        right = [rng.uniform(0, 3) for _ in range(l)]
        for p in (1, 2, INF):
            got = assign_p(off, left, right, p)
            want = _assign_enumeration(off, left, right, p)
            assert abs(got - want) <= 1e-12, (m, l, p)
            count += 1
    print(f"\n[criterion 6] PASS: {count} assignment instances exact to 1e-12")


def _assign_enumeration(off, left, right, p):
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


def test_c07_aggregation_algebra():
    rng = random.Random(707)
    checks = 0
    for _ in range(350):  # biadditivity
        xi = rand_virtual(rng, rng.randint(1, 8), grid=6, coeff_range=(-6, 6))
        eta = rand_virtual(rng, rng.randint(1, 8), grid=6, coeff_range=(-6, 6))
        zeta = rand_virtual(rng, rng.randint(1, 8), grid=6, coeff_range=(-6, 6))
        assert bilinear_aggregate(xi + eta, zeta) == bilinear_aggregate(
            xi, zeta
        ) + bilinear_aggregate(eta, zeta)
        assert bilinear_aggregate(zeta, xi + eta) == bilinear_aggregate(
            zeta, xi
        ) + bilinear_aggregate(zeta, eta)
        _check_structural_bound(bilinear_aggregate(xi, zeta))
        checks += 1
    dropped = 0
    for _ in range(75):  # diagonal annihilation on level-3 pools
        # u = (P, Z) with P = {(A, A)}: every such P is equivalent to every
        # other, since a self-pair atom may go to the diagonal on either
        # side; Z = {(empty, {c})} drawn from two, so pairs of the pool are
        # equivalent (same Z), comparable one way (nested c) or neither
        zs = [
            diagram({atom(empty_diagram(1), diagram({rand_interval(rng, 6): 1})): 1})
            for _ in range(2)
        ]
        pool = set()
        for _ in range(3):
            a = diagram({rand_interval(rng, 6): 1})
            pool.add(atom(diagram({atom(a, a): 1}), rng.choice(zs)))
        xi3 = virtual_diagram({u: rng.choice([-2, -1, 1, 2]) for u in pool}, level=3)
        agg = bilinear_aggregate(xi3, xi3)
        for u, cu in xi3.entries:
            assert agg.coefficient(pair_class(u, u)) == cu * cu
            for v, _ in xi3.entries:
                if u is not v and atom_leq(u, v) and atom_leq(v, u):
                    assert agg.coefficient(pair_class(u, v)) == 0
                    dropped += 1
        checks += 1
    assert dropped > 0
    for _ in range(75):  # iterated aggregation vs the binary-tree expansion
        xi = rand_virtual(rng, rng.randint(1, 3), grid=5, coeff_range=(-4, 4))
        for s in (1, 2):
            lhs = iterated_aggregate(xi, s)
            rhs = tree_expansion_oracle(xi, s)
            assert lhs == rhs
            _check_structural_bound(lhs)
        checks += 1
    assert checks == 500
    print(f"\n[criterion 7] PASS: 500 property instances, 100% pass")


def test_c08_structural_bound():
    rng = random.Random(808)
    checked = len(_collected_profiles)
    for _ in range(100):
        xi = rand_virtual(rng, rng.randint(1, 40), grid=10)
        _check_structural_bound(xi)
        agg = naive_self_aggregate(xi)
        _check_structural_bound(agg)
        checked += 2
    for _ in range(20):
        g = rand_level2_diagram(rng, max_atoms=4)
        if g.entries:
            _check_structural_bound(g)
            checked += 1
    assert all(
        p.support_size <= p.structural_bound() for p in _collected_profiles
    )
    print(
        f"\n[criterion 8] PASS: |supp| <= c(2^(N+1)-1) for all "
        f"{len(_collected_profiles)} collected supports (+{checked} this test)"
    )


def test_c09_envelope_calculator():
    # worst case, hand-substituted
    w1 = envelope_worst(1, 1, 1)
    assert w1["naive_aggregation"] == 4
    assert w1["harmonic_evaluation"] == 2
    assert w1["naive_wasserstein"] == 8
    assert w1["certified_wasserstein"] == 32
    w2 = envelope_worst(1, 2, 2)
    assert w2["naive_aggregation"] == 16
    assert w2["ratio"] == 2
    # average case, hand-enumerated: E[(t0+t1)^3] = (8+27)/2
    from fractions import Fraction

    assert envelope_average(1, 1, "naive") == Fraction(35, 2)
    assert bell_number(4) == 15 and stirling2(2, 1) == 1
    # sandwich inequality on the sweep
    t0 = time.time()
    for c in (1, 2, 3):
        for N in range(1, 7):
            lo, hi = sandwich_bounds(c, N)
            ratio = average_ratio(c, N)
            assert lo <= ratio <= hi, (c, N)
    elapsed = time.time() - t0
    print(
        f"\n[criterion 9] PASS: exact hand values and sandwich inequality on "
        f"c<=3, N<=6 ({elapsed:.1f}s, exact arithmetic)"
    )


def test_c10_persistence_correctness():
    # C5 cycle: essential class capped onto the diagonal, diagram empty
    edges = [(k, (k + 1) % 5, (k + 1) / 10) for k in range(5)]
    f = build_clique_filtration(weighted_graph(5, edges))
    assert len(persistence_h1(f)) == 0
    assert persistence_h1(f, cap_delta=0.125).entries == (
        (interval(1.0, 1.125), 1),
    )
    # triangle: zero persistence
    tri = build_clique_filtration(
        weighted_graph(3, [(0, 1, 0.1), (0, 2, 0.2), (1, 2, 0.3)])
    )
    assert len(persistence_h1(tri)) == 0
    # K4 and 100 random graphs against the independent full reduction
    rng = random.Random(1010)
    k4 = weighted_graph(
        4, [(u, v, rng.uniform(0.1, 1)) for u in range(4) for v in range(u + 1, 4)]
    )
    fk4 = build_clique_filtration(k4)
    assert persistence_h1(fk4) == persistence_oracle(fk4, 1)
    for seed in range(100):
        local = random.Random(seed)
        edges = [
            (u, v, local.uniform(0.05, 1.0))
            for u in range(50)
            for v in range(u + 1, 50)
            if local.random() < 0.10
        ]
        g = weighted_graph(50, edges)
        filt = build_clique_filtration(g)
        assert persistence_h1(filt) == persistence_oracle(filt, 1), seed
        assert persistence_h0(filt) == persistence_oracle(filt, 0), seed
    # bit-identical serialization across two separate processes
    snippet = (
        "from hopd.graphgen import generate, model_spec, seed_for;"
        "from hopd.filtration import build_clique_filtration, persistence_h1;"
        "from hopd.serialize import to_text;"
        "s = generate(model_spec('er'), seed_for(0, 0));"
        "print(to_text(persistence_h1(build_clique_filtration(s.graph))))"
    )
    outs = {
        subprocess.run(
            [sys.executable, "-c", snippet], capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    }
    assert len(outs) == 1
    print(
        "\n[criterion 10] PASS: C5/triangle/K4 plus 100 random graphs match the "
        "full-reduction oracle; serialization bit-identical across two runs"
    )


def test_c11_desk_scale_statement():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = " ".join(readme.read_text().lower().replace("*", " ").split())
    assert "not reproduced" in text
    print(
        "\n[criterion 11] PASS (by documentation): Table 1 absolute speedups and "
        "Figure 4 absolute runtimes are hardware-bound and are not reproduced at "
        "desk scale; the GNN drift experiment is out of scope. Criteria 1-10 "
        "substitute measurable checks."
    )
