import math
import random

import pytest

from hopd.core import interval
from hopd.filtration import (
    WeightedGraph,
    build_clique_filtration,
    full_reduction_pairs,
    persistence_h0,
    persistence_h1,
    persistence_oracle,
    read_edge_list,
    triangle_count,
    weighted_graph,
    write_edge_list,
)
from hopd.graphgen import MODELS, generate, model_index, model_spec, seed_for
from hopd.serialize import to_text

INF = math.inf


def er_graph(n, p, seed):
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.uniform(0.05, 1.0)))
    return weighted_graph(n, edges)


class TestWeightedGraph:
    def test_rejects_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            weighted_graph(3, [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            weighted_graph(3, [(0, 1, 1.0), (1, 0, 2.0)])
        with pytest.raises(ValueError):
            weighted_graph(3, [(0, 1, INF)])

    def test_rejects_negative_weights(self):
        # the edge would enter before its vertices, and an all-negative graph
        # would cap its essential classes below their births
        edges = [(0, 1, -1.0), (1, 2, 1.0), (0, 2, 0.5)]
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_graph(3, edges)
        with pytest.raises(ValueError, match="nonnegative"):
            read_edge_list("3 3\n0 1 -1.0\n1 2 1.0\n0 2 0.5\n")
        with pytest.raises(ValueError, match="nonnegative"):
            WeightedGraph(3, ((0, 1, -1.0),))
        assert weighted_graph(2, [(0, 1, 0.0)]).edges == ((0, 1, 0.0),)

    def test_rejects_an_edge_that_names_its_larger_vertex_first(self):
        with pytest.raises(ValueError, match="smaller vertex first"):
            WeightedGraph(3, ((1, 0, 0.5),))
        assert weighted_graph(3, [(1, 0, 0.5)]).edges == ((0, 1, 0.5),)

    def test_canonical_sorted_edges_pass_through_and_others_are_sorted(self):
        # generators emit (u, v, float w) tuples with u < v in increasing
        # order; such input is kept as given, any other is canonicalized and
        # sorted, and every edge is validated either way
        edges = ((0, 1, 0.5), (0, 2, 0.25), (1, 2, 1.0))
        assert weighted_graph(3, edges).edges is edges
        assert weighted_graph(3, list(edges)).edges == edges
        for other in (
            [(1, 2, 1.0), (0, 1, 0.5), (0, 2, 0.25)],  # out of order
            [(1, 0, 0.5), (0, 2, 0.25), (2, 1, 1.0)],  # larger vertex first
            [(0, 1, 0.5), (0, 2, 0.25), (1, 2, 1)],  # an int weight
            [[0, 1, 0.5], (0, 2, 0.25), (1, 2, 1.0)],  # a list, not a tuple
        ):
            got = weighted_graph(3, other).edges
            assert got == edges and all(type(e) is tuple and type(e[2]) is float for e in got)
        for bad, match in (
            (((0, 1, 0.5), (0, 1, 0.75)), "duplicate"),
            (((0, 1, 0.5), (0, 3, 0.75)), "out of range"),
            (((0, 1, -0.5),), "nonnegative"),
            (((0, 1, math.nan),), "finite"),
        ):
            with pytest.raises(ValueError, match=match):
                weighted_graph(3, bad)

    def test_every_generator_emits_edges_that_pass_through(self, monkeypatch):
        import hopd.graphgen

        kept = []

        def spy(n, edges):
            edges = tuple(edges)
            g = weighted_graph(n, edges)
            kept.append(g.edges is edges)
            return g

        monkeypatch.setattr(hopd.graphgen, "weighted_graph", spy)
        for model in MODELS:
            for seed in (7, 8):
                generate(model_spec(model), seed)
        assert kept == [True] * 2 * len(MODELS)

    def test_edge_list_round_trip(self):
        g = weighted_graph(4, [(0, 1, 0.25), (2, 3, 0.5), (1, 2, 0.75)])
        assert read_edge_list(write_edge_list(g)) == g


class TestCliqueFiltration:
    def test_triangle_enters_at_heaviest_edge(self):
        g = weighted_graph(3, [(0, 1, 0.1), (0, 2, 0.2), (1, 2, 0.3)])
        f = build_clique_filtration(g, normalize=False)
        tris = [s for s in f.simplices if s[1] == 2]
        assert tris == [(0.3, 2, (0, 1, 2))]

    def test_four_cycle_has_no_triangles(self):
        g = weighted_graph(4, [(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3), (0, 3, 0.4)])
        f = build_clique_filtration(g)
        assert not [s for s in f.simplices if s[1] == 2]

    def test_triangle_count_matches_triple_loop(self):
        g = er_graph(50, 0.10, seed=4)
        count = 0
        adj = [[False] * 50 for _ in range(50)]
        for u, v, _ in g.edges:
            adj[u][v] = adj[v][u] = True
        for i in range(50):
            for j in range(i + 1, 50):
                for k in range(j + 1, 50):
                    if adj[i][j] and adj[i][k] and adj[j][k]:
                        count += 1
        assert triangle_count(g) == count
        f = build_clique_filtration(g)
        assert len([s for s in f.simplices if s[1] == 2]) == count

    def test_faces_precede_cofaces(self):
        g = er_graph(30, 0.2, seed=9)
        f = build_clique_filtration(g)
        position = {s[2]: i for i, s in enumerate(f.simplices)}
        for value, dim, verts in f.simplices:
            if dim == 1:
                assert position[(verts[0],)] < position[verts]
                assert position[(verts[1],)] < position[verts]
            elif dim == 2:
                a, b, c = verts
                for face in ((a, b), (a, c), (b, c)):
                    assert position[face] < position[verts]

    def test_normalization(self):
        g = weighted_graph(3, [(0, 1, 2.0), (1, 2, 4.0)])
        f = build_clique_filtration(g, normalize=True)
        assert max(s[0] for s in f.simplices) == 1.0
        assert f.max_value == 1.0


class TestPersistenceH1:
    def test_five_cycle_capped_to_empty(self):
        edges = [(k, (k + 1) % 5, (k + 1) / 10) for k in range(5)]
        g = weighted_graph(5, edges)
        f = build_clique_filtration(g, normalize=True)
        # cycle born at the heaviest edge (normalized to 1.0), essential,
        # cap death 1.0 -> zero persistence, dropped
        assert len(persistence_h1(f)) == 0
        withdelta = persistence_h1(f, cap_delta=0.125)
        assert withdelta.entries == ((interval(1.0, 1.125), 1),)

    def test_triangle_zero_persistence(self):
        g = weighted_graph(3, [(0, 1, 0.1), (0, 2, 0.2), (1, 2, 0.3)])
        f = build_clique_filtration(g)
        assert len(persistence_h1(f)) == 0

    def test_k4_matches_oracle(self):
        rng = random.Random(3)
        edges = [
            (u, v, rng.uniform(0.1, 1.0)) for u in range(4) for v in range(u + 1, 4)
        ]
        g = weighted_graph(4, edges)
        f = build_clique_filtration(g)
        assert persistence_h1(f) == persistence_oracle(f, 1)

    def test_random_graphs_match_full_reduction(self):
        for seed in range(12):
            g = er_graph(50, 0.10, seed=seed)
            f = build_clique_filtration(g)
            assert persistence_h1(f) == persistence_oracle(f, 1)
            assert persistence_h0(f) == persistence_oracle(f, 0)

    @pytest.mark.parametrize("model", MODELS)
    def test_h1_matches_full_reduction_on_every_model(self, model):
        spec, idx = model_spec(model), model_index(model)
        for k in range(5):
            f = build_clique_filtration(generate(spec, seed_for(idx, k)).graph)
            assert persistence_h1(f) == persistence_oracle(f, 1)
            assert persistence_h0(f) == persistence_oracle(f, 0)

    def test_euler_rank_consistency(self):
        for seed in range(6):
            g = er_graph(40, 0.12, seed=100 + seed)
            f = build_clique_filtration(g)
            pairs, essential = full_reduction_pairs(f)
            kills = sum(1 for i, j in pairs if f.simplices[j][1] == 2)
            components = sum(1 for i in essential if f.simplices[i][1] == 0)
            cycles_total = kills + sum(
                1 for i in essential if f.simplices[i][1] == 1
            )
            n, m = g.n, g.edge_count()
            assert cycles_total == m - n + components


class TestPersistenceH0:
    def test_connected_graph(self):
        g = er_graph(20, 0.4, seed=1)
        f = build_clique_filtration(g)
        d = persistence_h0(f)
        finite = sum(m for a, m in d.entries if a.plus.coords[0] < 1.0)
        essential = sum(m for a, m in d.entries if a.plus.coords[0] == 1.0)
        assert finite == 19 and essential == 1

    def test_edgeless_graph(self):
        g = weighted_graph(6, [])
        f = build_clique_filtration(g)
        d = persistence_h0(f)
        assert d.entries == ((interval(0.0, 1.0), 6),)

    def test_component_count(self):
        for seed in range(8):
            g = er_graph(30, 0.05, seed=200 + seed)
            f = build_clique_filtration(g)
            parent = list(range(30))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v, _ in g.edges:
                parent[find(u)] = find(v)
            comps = len({find(v) for v in range(30)})
            # cap offset separates essential deaths from any merge value
            d = persistence_h0(f, cap_delta=0.5)
            finite = sum(m for a, m in d.entries if a.plus.coords[0] <= f.max_value)
            essential = sum(m for a, m in d.entries if a.plus.coords[0] > f.max_value)
            assert finite == 30 - comps
            assert essential == comps


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        g = er_graph(50, 0.10, seed=77)
        f1 = build_clique_filtration(g)
        f2 = build_clique_filtration(g)
        assert to_text(persistence_h1(f1)) == to_text(persistence_h1(f2))

    def test_unsorted_filtration_rejected(self):
        from hopd.filtration import Filtration

        bad = Filtration(
            simplices=((0.5, 1, (0, 1)), (0.0, 0, (0,)), (0.0, 0, (1,))),
            n_vertices=2,
            max_value=0.5,
        )
        with pytest.raises(ValueError):
            persistence_h1(bad)

    @pytest.mark.parametrize(
        "simplices",
        [
            # out of order by value, by dimension, and by vertices alone
            ((0.5, 1, (0, 1)), (0.0, 0, (0,)), (0.0, 0, (1,))),
            ((0.0, 0, (0,)), (0.0, 1, (0, 1)), (0.0, 0, (1,))),
            ((0.0, 0, (0,)), (0.0, 0, (2,)), (0.0, 0, (1,))),
        ],
        ids=["value", "dim", "vertices"],
    )
    @pytest.mark.parametrize("persistence", [persistence_h0, persistence_h1])
    def test_unsorted_filtration_rejected_by_h0_and_h1(self, simplices, persistence):
        from hopd.filtration import Filtration

        bad = Filtration(simplices=simplices, n_vertices=3, max_value=0.5)
        with pytest.raises(ValueError, match="not sorted"):
            persistence(bad)
        # the same simplices in order are accepted
        persistence(Filtration(tuple(sorted(simplices)), 3, 0.5))
