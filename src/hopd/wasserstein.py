"""Partial-matching transport between diagrams across recursion levels.

The assignment operator prices a partial matching where unmatched atoms pay
their diagonal cost.  The naive recursion re-derives every endpoint
comparison (the timed baseline); the certified variant shares memo tables
across the recursion and skips a product expansion whenever a reverse-
triangle lower bound already certifies the diagonal route.  Both compute the
same distances exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

from .core import (
    Atom,
    DEFAULT_DIAGONAL,
    Diagram,
    DiagonalPolicy,
    GroundPoint,
    LevelMismatch,
    LinearDiagram,
    VirtualDiagram,
    _perfect_matching,
    d1,
    d_diag,
    dist_ground,
    level1_diag_cost,
    norm_p,
)

INF = math.inf


@dataclass(frozen=True)
class AssignProblem:
    """Off-diagonal cost matrix plus left/right diagonal opt-out costs."""

    off: tuple[tuple[float, ...], ...]
    left: tuple[float, ...]
    right: tuple[float, ...]
    p: float

    def __post_init__(self):
        m, l = len(self.left), len(self.right)
        if len(self.off) != m or any(len(row) != l for row in self.off):
            raise ValueError("inconsistent dimensions")
        flat = [c for row in self.off for c in row] + list(self.left) + list(self.right)
        if any(math.isnan(c) or c < 0 for c in flat):
            raise ValueError("costs must be nonnegative")
        if self.p < 1:
            raise ValueError("p must be >= 1")


def assign_problem(off, left, right, p) -> AssignProblem:
    return AssignProblem(
        tuple(tuple(float(c) for c in row) for row in off),
        tuple(float(c) for c in left),
        tuple(float(c) for c in right),
        float(p),
    )


def assign_p(prob: AssignProblem) -> float:
    """Exact minimum partial-matching cost in p-norm aggregation."""
    m, l = len(prob.left), len(prob.right)
    if m == 0 and l == 0:
        return 0.0
    # rows: m left atoms then l diagonal slots; cols: l right atoms then m
    # slots; an atom opts out only to its own slot, slot-to-slot is free
    costs = np.full((m + l, m + l), INF)
    costs[:m, :l] = np.reshape(prob.off, (m, l))
    costs[range(m), range(l, l + m)] = prob.left
    costs[range(m, m + l), range(l)] = prob.right
    costs[m:, l:] = 0.0
    if prob.p == INF:
        return _assign_inf(costs)
    A = costs**prob.p
    try:
        rows, cols = linear_sum_assignment(A)
    except ValueError:
        return INF
    total = float(A[rows, cols].sum())
    if math.isinf(total):
        return INF
    return total ** (1.0 / prob.p)


def _assign_inf(costs: np.ndarray) -> float:
    """Bottleneck assignment: the least threshold with a perfect matching."""
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


def min_cost_transport(divergence: Sequence, cost) -> float:
    """Minimize sum pi_ij * cost[i][j] subject to pi >= 0 and
    sum_j (pi_ij - pi_ji) = divergence[i] for every node i.

    Divergences may be ints, floats or Fractions and must sum to zero;
    costs are finite and nonnegative over all ordered node pairs.  Solved
    as a HiGHS linear program over the off-diagonal arcs.
    """
    n = len(divergence)
    if n == 0:
        return 0.0
    if sum(divergence) != 0:
        raise ValueError("divergences must sum to zero")
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    arc_cost = np.asarray(cost, dtype=np.float64)[src, dst]
    if np.isnan(arc_cost).any() or (arc_cost < 0).any():
        raise ValueError("costs must be nonnegative")
    if np.isinf(arc_cost).any():
        raise ValueError("infinite cost arc")
    arcs = np.arange(len(src))
    # arc k leaves src[k] (+1) and enters dst[k] (-1)
    a_eq = coo_matrix(
        (np.repeat([1.0, -1.0], len(arcs)), (np.concatenate([src, dst]), np.tile(arcs, 2))),
        shape=(n, len(arcs)),
    ).tocsr()
    b_eq = np.array([float(d) for d in divergence])
    res = linprog(arc_cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


@dataclass
class CostCounters:
    """Always-on instrumentation; every field is O(1) per event."""

    diagram_calls: int = 0
    atom_calls: int = 0
    atom_expansions: int = 0
    assign_calls: int = 0
    prunes: int = 0
    memo_hits: int = 0
    memo_keys: int = 0


def _level_of(obj) -> int:
    return 0 if isinstance(obj, GroundPoint) else obj.level


# ---------------------------------------------------------------------------
# Naive recursion (no memoization; the timed baseline)


def naive_wasserstein(
    G: Diagram,
    L: Diagram,
    p: float,
    diagonal: DiagonalPolicy = DEFAULT_DIAGONAL,
    counters: CostCounters | None = None,
) -> float:
    if G.level != L.level:
        raise LevelMismatch("diagram level mismatch")
    c = counters if counters is not None else CostCounters()
    return _naive_diagram_cost(G, L, G.level, p, diagonal, c)


def _naive_diagram_cost(G, L, k, p, diagonal, c) -> float:
    c.diagram_calls += 1
    if k == 0:
        return dist_ground(G, L)
    us = G.atoms()
    vs = L.atoms()
    off = [[_naive_atom_cost(u, v, k, p, diagonal, c) for v in vs] for u in us]
    left = [_naive_diag_cost(u, k, p, diagonal, c) for u in us]
    right = [_naive_diag_cost(v, k, p, diagonal, c) for v in vs]
    c.assign_calls += 1
    return assign_p(assign_problem(off, left, right, p))


def _naive_atom_cost(u, v, k, p, diagonal, c) -> float:
    c.atom_calls += 1
    c.atom_expansions += 1
    e = _naive_diag_cost(u, k, p, diagonal, c)
    f = _naive_diag_cost(v, k, p, diagonal, c)
    a = _naive_diagram_cost(u.minus, v.minus, k - 1, p, diagonal, c)
    b = _naive_diagram_cost(u.plus, v.plus, k - 1, p, diagonal, c)
    return min(norm_p((a, b), p), e + f)


def _naive_diag_cost(u: Atom, k, p, diagonal, c) -> float:
    if k == 1:
        return level1_diag_cost(u, p)
    if diagonal.mode == "scan" and k in diagonal.scan_sets:
        best = INF
        for cand in diagonal.scan_sets[k]:
            a = _naive_diagram_cost(u.minus, cand.minus, k - 1, p, diagonal, c)
            b = _naive_diagram_cost(u.plus, cand.plus, k - 1, p, diagonal, c)
            best = min(best, norm_p((a, b), p))
        return best
    if diagonal.mode == "endpoints":
        return _naive_diagram_cost(u.minus, u.plus, k - 1, p, diagonal, c)
    raise ValueError(f"no diagonal distance for level {k} under mode {diagonal.mode!r}")


# ---------------------------------------------------------------------------
# Certified recursion (shared memo tables + safe pruning)


class _CertifiedRun:
    def __init__(self, p, diagonal, counters):
        self.p = p
        self.diagonal = diagonal
        self.c = counters
        self.m_d: dict = {}
        self.m_a: dict = {}
        self.m_diag: dict = {}
        self.m_0: dict = {}

    def _memo_get(self, table, key):
        val = table.get(key)
        if val is not None:
            self.c.memo_hits += 1
        return val

    def _memo_put(self, table, key, val):
        table[key] = val
        self.c.memo_keys += 1
        return val

    def diagram_cost(self, G, L, k) -> float:
        key = (G.uid, L.uid, k)
        hit = self._memo_get(self.m_d, key)
        if hit is not None:
            return hit
        self.c.diagram_calls += 1
        if k == 0:
            return self._memo_put(self.m_d, key, dist_ground(G, L))
        us = G.atoms()
        vs = L.atoms()
        left = [self.diagonal_cost(u, k) for u in us]
        right = [self.diagonal_cost(v, k) for v in vs]
        off = [[self.atom_cost(u, v, k) for v in vs] for u in us]
        self.c.assign_calls += 1
        value = assign_p(assign_problem(off, left, right, self.p))
        return self._memo_put(self.m_d, key, value)

    def atom_cost(self, u, v, k) -> float:
        key = (u.uid, v.uid, k)
        hit = self._memo_get(self.m_a, key)
        if hit is not None:
            return hit
        self.c.atom_calls += 1
        e = self.diagonal_cost(u, k)
        f = self.diagonal_cost(v, k)
        if k >= 2:
            # reverse-triangle lower bound on the product route from
            # transport-to-empty costs of the endpoint diagrams
            b = norm_p(
                (
                    abs(self.empty_cost(u.minus, k - 1) - self.empty_cost(v.minus, k - 1)),
                    abs(self.empty_cost(u.plus, k - 1) - self.empty_cost(v.plus, k - 1)),
                ),
                self.p,
            )
            if b >= e + f:
                self.c.prunes += 1
                return self._memo_put(self.m_a, key, e + f)
        self.c.atom_expansions += 1
        a1 = self.diagram_cost(u.minus, v.minus, k - 1)
        a2 = self.diagram_cost(u.plus, v.plus, k - 1)
        value = min(norm_p((a1, a2), self.p), e + f)
        return self._memo_put(self.m_a, key, value)

    def diagonal_cost(self, u: Atom, k) -> float:
        key = (u.uid, k)
        hit = self._memo_get(self.m_diag, key)
        if hit is not None:
            return hit
        if k == 1:
            value = level1_diag_cost(u, self.p)
        elif self.diagonal.mode == "scan" and k in self.diagonal.scan_sets:
            value = min(
                norm_p(
                    (
                        self.diagram_cost(u.minus, cand.minus, k - 1),
                        self.diagram_cost(u.plus, cand.plus, k - 1),
                    ),
                    self.p,
                )
                for cand in self.diagonal.scan_sets[k]
            )
        elif self.diagonal.mode == "endpoints":
            value = self.diagram_cost(u.minus, u.plus, k - 1)
        else:
            raise ValueError(
                f"no diagonal distance for level {k} under mode {self.diagonal.mode!r}"
            )
        return self._memo_put(self.m_diag, key, value)

    def empty_cost(self, theta, k) -> float:
        if isinstance(theta, GroundPoint):
            raise LevelMismatch("empty cost undefined at ground level")
        key = (theta.uid, k)
        hit = self._memo_get(self.m_0, key)
        if hit is not None:
            return hit
        value = norm_p(
            [self.diagonal_cost(u, k) for u in theta.atoms()], self.p
        )
        return self._memo_put(self.m_0, key, value)


def certified_wasserstein(
    G: Diagram,
    L: Diagram,
    p: float,
    diagonal: DiagonalPolicy = DEFAULT_DIAGONAL,
    counters: CostCounters | None = None,
) -> float:
    """Memoized transport distance with safe pruning; equals the naive value."""
    if G.level != L.level:
        raise LevelMismatch("diagram level mismatch")
    c = counters if counters is not None else CostCounters()
    run = _CertifiedRun(p, diagonal, c)
    return run.diagram_cost(G, L, G.level)


def empty_cost(
    theta: Diagram, p: float, diagonal: DiagonalPolicy = DEFAULT_DIAGONAL
) -> float:
    """p-norm of the diagonal distances of the atoms: W_p(theta, 0)."""
    run = _CertifiedRun(p, diagonal, CostCounters())
    return run.empty_cost(theta, theta.level)


def group_metric(
    a: VirtualDiagram,
    b: VirtualDiagram,
    p: float = 1,
    diagonal: DiagonalPolicy = DEFAULT_DIAGONAL,
) -> float:
    """Translation-invariant distance on signed diagrams (p = 1 only)."""
    if p != 1:
        raise ValueError("the group metric exists for p = 1 only")
    if a.level != b.level:
        raise LevelMismatch("level mismatch")
    return certified_wasserstein(
        a.positive_part() + b.negative_part(),
        b.positive_part() + a.negative_part(),
        p=1,
        diagonal=diagonal,
    )


def linear_w1_norm(
    xi: LinearDiagram | VirtualDiagram,
    diagonal: DiagonalPolicy = DEFAULT_DIAGONAL,
) -> float:
    """Optimal-transport norm of a real-linear diagram.

    Min-cost transport over the support plus the basepoint, divergences
    equal to the coefficients with the basepoint absorbing their negative
    sum, arc costs the strengthened atom metric.  An infinite cost on the
    support (an atom with a +inf death) raises ValueError.
    """
    entries = xi.entries
    if not entries:
        return 0.0
    atoms = [a for a, _ in entries]
    coeffs = [c for _, c in entries]
    n = len(atoms)
    cost = [[0.0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(i + 1, n):
            cost[i][j] = cost[j][i] = d1(atoms[i], atoms[j], 1, diagonal)
        cost[i][n] = cost[n][i] = d_diag(atoms[i], 1, diagonal)
    divergence = list(coeffs) + [-sum(coeffs)]
    return min_cost_transport(divergence, cost)


# ---------------------------------------------------------------------------
# Structural complexity of supports


@dataclass(frozen=True)
class ComplexityProfile:
    """Shape of the recursive decomposition of a support.

    ``sources`` is the count of top classes not nested inside another's
    decomposition (the bound-carrying count); ``components`` counts weakly
    connected components of the shared decomposition graph, which can be
    smaller when classes share sub-objects.
    """

    support_size: int
    sources: int
    max_depth: int
    total_vertices: int
    components: int
    binary: bool

    @property
    def c(self) -> int:
        return self.sources

    def structural_bound(self) -> int:
        return self.sources * (2 ** (self.max_depth + 1) - 1)


def complexity_profile(xi) -> ComplexityProfile:
    if isinstance(xi, (VirtualDiagram, Diagram, LinearDiagram)):
        top = [a for a, _ in xi.entries]
    else:
        top = list(xi)
    depth: dict[int, int] = {}
    children_of: dict[int, tuple] = {}
    binary = True

    def children(node):
        if isinstance(node, GroundPoint):
            return ()
        out = []
        for side in (node.minus, node.plus):
            if isinstance(side, GroundPoint):
                out.append(side)
            else:
                kids = side.support()
                if len(kids) != 1:
                    nonlocal binary
                    binary = False
                out.extend(kids)
        return tuple(out)

    def walk(node):
        if node.uid in depth:
            return depth[node.uid]
        kids = children(node)
        children_of[node.uid] = kids
        if not kids:
            d = 0 if isinstance(node, GroundPoint) else 1
        else:
            d = 1 + max(walk(k) for k in kids)
        depth[node.uid] = d
        return d

    for a in top:
        walk(a)

    parent = {uid: uid for uid in depth}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for uid, kids in children_of.items():
        for kid in kids:
            parent[find(uid)] = find(kid.uid)
    components = len({find(uid) for uid in depth})

    descendants: set[int] = set()

    def collect(node):
        for kid in children_of[node.uid]:
            if kid.uid not in descendants:
                descendants.add(kid.uid)
                collect(kid)

    for a in top:
        collect(a)
    sources = sum(1 for a in top if a.uid not in descendants)
    max_depth = max((depth[a.uid] for a in top), default=0)
    profile = ComplexityProfile(
        support_size=len(top),
        sources=sources,
        max_depth=max_depth,
        total_vertices=len(depth),
        components=components,
        binary=binary,
    )
    if profile.support_size > profile.structural_bound() and top:
        raise RuntimeError("structural bound violated")  # cannot happen for same-level supports
    return profile


__all__ = [
    "AssignProblem",
    "ComplexityProfile",
    "CostCounters",
    "assign_p",
    "assign_problem",
    "certified_wasserstein",
    "complexity_profile",
    "empty_cost",
    "group_metric",
    "linear_w1_norm",
    "min_cost_transport",
    "naive_wasserstein",
]
