"""Clique filtration of weighted graphs and H0/H1 persistence.

Vertices enter at value 0, an edge at its (optionally normalized) weight,
which must be nonnegative, and a triangle when its heaviest edge enters, so
every face precedes its cofaces.  H1 pairs come from GF(2) column reduction
of the triangle boundary matrix restricted to cycle-creating edges, with
each column a Python-int bitset (XOR adds columns, ``bit_length`` finds the
pivot); a set-based full reduction of the whole boundary matrix (no
clearing, no restriction, no bitsets) is kept alongside as an independent
oracle.

A class that never dies (an essential class) dies at the cap: the largest
edge value, ``Filtration.max_value``, plus the caller's ``cap_delta``.  So
every diagram is finite, and with ``cap_delta = 0`` a class born at the
heaviest edge lies on the diagonal and is dropped.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .core import Diagram, diagram, interval


@dataclass(frozen=True)
class WeightedGraph:
    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        seen = set()
        for u, v, w in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("vertex out of range")
            if u > v:
                raise ValueError(f"edge {(u, v)} must name its smaller vertex first")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge {(u, v)}")
            seen.add((u, v))
            if not math.isfinite(w):
                raise ValueError("edge weights must be finite")
            if w < 0:
                raise ValueError("edge weights must be nonnegative")

    def edge_count(self) -> int:
        return len(self.edges)


def weighted_graph(n: int, edges: Iterable[tuple[int, int, float]]) -> WeightedGraph:
    """The graph of ``edges``, each (u, v, w) stored as (min, max, float(w)),
    sorted.  Edges that are so already, as every generator emits them, are
    kept as given; others are canonicalized and sorted."""
    edges = tuple(edges)
    if not (
        set(map(type, edges)) <= {tuple}
        and all(u < v and type(w) is float for u, v, w in edges)
        and all(map(operator.lt, edges, edges[1:]))
    ):
        edges = tuple(sorted((min(u, v), max(u, v), float(w)) for u, v, w in edges))
    return WeightedGraph(n, edges)


def write_edge_list(g: WeightedGraph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines += [f"{u} {v} {w!r}" for u, v, w in g.edges]
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> WeightedGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n, m = (int(tok) for tok in lines[0].split())
    edges = []
    for ln in lines[1 : m + 1]:
        u, v, w = ln.split()
        edges.append((int(u), int(v), float(w)))
    return weighted_graph(n, edges)


@dataclass(frozen=True)
class Filtration:
    """Simplices up to dimension 2 sorted by (value, dim, vertices)."""

    simplices: tuple[tuple[float, int, tuple[int, ...]], ...]
    n_vertices: int
    max_value: float  # the largest edge value (1.0 when normalized), and the cap


def build_clique_filtration(g: WeightedGraph, normalize: bool = True) -> Filtration:
    scale = max((w for _, _, w in g.edges), default=1.0)
    if normalize and scale > 0:
        edges = [(u, v, w / scale) for u, v, w in g.edges]
    else:
        edges = list(g.edges)
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    value = {}
    for u, v, w in edges:
        adj[u].add(v)
        adj[v].add(u)
        value[(u, v)] = w
    simplices = [(0.0, 0, (v,)) for v in range(g.n)]
    simplices += [(w, 1, (u, v)) for u, v, w in edges]
    # each triangle once, as (u, v, k) with u < v < k, so `value` holds its
    # pairs in that order; the tuples are distinct, so one sort orders them
    simplices += [
        (max(w, value[(u, k)], value[(v, k)]), 2, (u, v, k))
        for u, v, w in edges
        for k in adj[u] & adj[v]
        if k > v
    ]
    simplices.sort()
    max_value = max((w for _, _, w in edges), default=1.0)
    return Filtration(tuple(simplices), g.n, max_value)


def _check_sorted(f: Filtration):
    s = f.simplices  # (value, dim, vertices) tuples, compared whole
    if any(map(operator.gt, s, s[1:])):
        raise ValueError("filtration is not sorted")


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _pairs_diagram(pairs: Iterable[tuple[float, float]]) -> Diagram:
    """Level-1 diagram of (birth, death) pairs counted with multiplicity;
    zero-persistence pairs are dropped as diagonal."""
    return diagram(Counter(interval(b, d) for b, d in pairs if b != d), level=1)


def persistence_h0(f: Filtration, cap_delta: float = 0.0) -> Diagram:
    """Components are born at 0 and die at their merging edge, or at the cap."""
    _check_sorted(f)
    uf = _UnionFind(f.n_vertices)
    pairs: list[tuple[float, float]] = []
    components = f.n_vertices
    for value, dim, verts in f.simplices:
        if dim != 1:
            continue
        if uf.union(verts[0], verts[1]):
            pairs.append((0.0, value))
            components -= 1
    pairs.extend((0.0, f.max_value + cap_delta) for _ in range(components))
    return _pairs_diagram(pairs)


def persistence_h1(f: Filtration, cap_delta: float = 0.0) -> Diagram:
    """Cycle persistence by GF(2) reduction of the triangle boundary columns.

    Edges that do not merge components create cycles; triangles kill them.
    Unpaired cycles die at the cap, and zero-persistence pairs are dropped
    as diagonal.
    """
    _check_sorted(f)
    # Columns over positive edges only, as Python-int bitsets: bit i is the
    # i-th edge when it creates a cycle.  Negative edges never pair with
    # triangles, so they contribute no bit.  Faces precede cofaces, so each
    # triangle is reduced as it is read.
    edge_bit: dict[tuple[int, int], int] = {}
    edge_value: list[float] = []
    positive: list[bool] = []
    uf = _UnionFind(f.n_vertices)
    low_owner: dict[int, int] = {}
    pairs: list[tuple[float, float]] = []
    for value, dim, verts in f.simplices:
        if dim == 1:
            is_pos = not uf.union(verts[0], verts[1])
            edge_bit[verts] = is_pos << len(edge_value)
            edge_value.append(value)
            positive.append(is_pos)
        elif dim == 2:
            a, b, c = verts
            col = edge_bit[(a, b)] | edge_bit[(a, c)] | edge_bit[(b, c)]
            while col:
                low = col.bit_length() - 1
                other = low_owner.get(low)
                if other is None:
                    low_owner[low] = col
                    pairs.append((edge_value[low], value))
                    break
                col ^= other
    death = f.max_value + cap_delta
    for idx, is_pos in enumerate(positive):
        if is_pos and idx not in low_owner:
            pairs.append((edge_value[idx], death))
    return _pairs_diagram(pairs)


# ---------------------------------------------------------------------------
# Full-reduction oracle (standard persistence algorithm, no shortcuts)


def full_reduction_pairs(f: Filtration):
    """Column-reduce the whole boundary matrix; returns (pairs, essential).

    pairs: list of (birth simplex index, death simplex index).
    essential: simplex indices whose reduced column is zero and that are
    never a pivot row.
    """
    _check_sorted(f)
    index_of = {verts: i for i, (_, _, verts) in enumerate(f.simplices)}
    columns: list[set[int]] = []
    for _, dim, verts in f.simplices:
        if dim == 0:
            columns.append(set())
        elif dim == 1:
            columns.append({index_of[(verts[0],)], index_of[(verts[1],)]})
        else:
            a, b, c = verts
            columns.append(
                {index_of[(a, b)], index_of[(a, c)], index_of[(b, c)]}
            )
    low_owner: dict[int, int] = {}
    pairs = []
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            owner = low_owner.get(low)
            if owner is None:
                break
            col ^= columns[owner]
        if col:
            low = max(col)
            low_owner[low] = j
            pairs.append((low, j))
    dead = {i for i, _ in pairs} | {j for _, j in pairs}
    essential = [i for i in range(len(columns)) if i not in dead]
    return pairs, essential


def persistence_oracle(f: Filtration, dim: int, cap_delta: float = 0.0) -> Diagram:
    """Degree-`dim` diagram read off the full reduction, essential classes capped."""
    pairs, essentials = full_reduction_pairs(f)
    death_cap = f.max_value + cap_delta
    out: list[tuple[float, float]] = []
    for i, j in pairs:
        if f.simplices[i][1] == dim:
            out.append((f.simplices[i][0], f.simplices[j][0]))
    for i in essentials:
        if f.simplices[i][1] == dim:
            out.append((f.simplices[i][0], death_cap))
    return _pairs_diagram(out)


def triangle_count(g: WeightedGraph) -> int:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    count = 0
    for u, v, _ in g.edges:
        count += sum(1 for k in adj[u] & adj[v] if k > v)
    return count


__all__ = [
    "Filtration",
    "WeightedGraph",
    "build_clique_filtration",
    "full_reduction_pairs",
    "persistence_h0",
    "persistence_h1",
    "persistence_oracle",
    "read_edge_list",
    "triangle_count",
    "weighted_graph",
    "write_edge_list",
]
