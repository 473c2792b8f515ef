"""Partial-matching transport between diagrams across recursion levels.

The assignment operator prices a partial matching where unmatched atoms pay
their diagonal cost.  The naive recursion re-derives every endpoint
comparison one scalar atom cost at a time (the timed baseline).  The
certified variant shares memo tables across the recursion, skips a product
expansion whenever a reverse-triangle lower bound already certifies the
diagonal route, and prices every level-1 sub-transport from one cost matrix
per run.  At construction the run pools the atoms of every distinct level-1
diagram its inputs reach; on its first level-1 sub-transport it computes
every cost min(||(d(b_u, b_v), d(d_u, d_v))||_p, e_u + e_v) over the pool in
one numpy block, next to the diagonal vector e, and each sub-transport then
reads its off-diagonal block and both opt-out vectors as slices of the pool
before one assignment.  A run over at most two level-1 diagrams (a level-1
transport between G and L) reads one block at most, so it prices only that
block's |G| x |L| cells.  The lower bound holds where the level-1 costs are a
metric; ground points of mixed dimension (below) can break that, so a run
whose pool mixes dimensions never prunes.  Both compute the
same distances: exactly at p in {1, inf}, and to within rounding at other p,
where numpy's powers may differ from Python's in the last place.  At those
other p a sum of p-th powers is computed plainly first; only where it left
the float range (overflow, or underflow past rounding) is it recomputed on
costs divided by the largest one (in a matching, by the bottleneck), and
the result multiplied back.  The p = inf assignment is a bottleneck search
that first tries its lower bound, the largest row or column minimum.

Float policy: each public entry (`assign_p`, `naive_wasserstein`,
`certified_wasserstein`, `empty_cost`, `linear_w1_norm`,
`min_cost_transport`) checks its inputs and enters one numpy error state
(`_float_policy`), once per call; the engine under it neither checks nor
sets anything again.  A gap, sum or power past the float range is inf, as
Python's float arithmetic gives it, and never a numpy warning.

The transport norm of a real-linear diagram is a min-cost flow on the
metric closure of the atom costs: one assignment over unit masses when the
coefficients are integers of total supply at most the node count, and a
HiGHS transportation linear program otherwise.  At level 1, when every
ground point has one coordinate, the costs are a metric already and the
closure (Floyd-Warshall) is skipped: with p = 1 the direct cost is
|b_u - b_v| + |d_u - d_v| and the diagonal cost e_u = |b_u - d_u|, so e is
1-Lipschitz for the direct cost, and min(direct, e_u + e_v) with the
basepoint costs e keeps the triangle inequality.  Ground points of mixed
dimension keep the closure: there costs read only the shared coordinates,
as `zip` does, and the triangle inequality can fail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

from .core import (
    Atom,
    Diagram,
    GroundPoint,
    LevelMismatch,
    LinearDiagram,
    VirtualDiagram,
    _diag_scale,
    _perfect_matching,
    _POW_TINY,
    dist_ground,
    level1_diag_cost,
    norm_p,
)

INF = math.inf
# a sum of `_capped_powers` at or past this holds a capped cost; see `core._POW_TINY`
_POW_HUGE = 2.0**999


def _float_policy():
    """numpy's error state for one public call: a gap, sum or power past the
    float range is inf, and inf - inf (two +inf coordinates) is a NaN that
    `_dist_ground_array` skips as a pad.  A fresh instance per call, as
    numpy 1.x's `errstate` is not reentrant."""
    return np.errstate(invalid="ignore", over="ignore")


def assign_p(off, left, right, p) -> float:
    """Exact minimum partial-matching cost in p-norm aggregation.

    ``off`` holds the m rows of l off-diagonal costs (no rows when m = 0);
    ``left`` and ``right`` are the diagonal opt-out costs of the m left and
    l right atoms.  Raises ``ValueError`` on inconsistent dimensions, a NaN
    or negative cost, or a p that is not >= 1 (NaN included).
    """
    m, l = len(left), len(right)
    try:
        off = np.asarray(off, dtype=float)
    except ValueError:  # ragged rows
        raise ValueError("inconsistent dimensions") from None
    if len(off) != m or (m and off.shape != (m, l)):
        raise ValueError("inconsistent dimensions")
    costs = _augmented(off.reshape(m, l), left, right)
    if not (costs >= 0).all():  # a NaN fails the comparison too
        raise ValueError("costs must be nonnegative")
    _check_p(p)
    with _float_policy():
        return _solve(costs, p)


def _augmented(off, left, right) -> np.ndarray:
    """The (m + l) x (m + l) cost matrix of a partial matching of m left and
    l right atoms, from their m x l ``off`` costs and opt-out costs."""
    m, l = len(left), len(right)
    n = m + l
    # rows: m left atoms then l diagonal slots; cols: l right atoms then m
    # slots; an atom opts out only to its own slot, slot-to-slot is free
    costs = np.full((n, n), INF)
    if m:
        costs[:m, :l] = off
    flat = costs.reshape(-1)  # a view: cell (i, j) is flat[i * n + j]
    flat[l : m * n : n + 1] = left  # cells (i, l + i)
    flat[m * n :: n + 1] = right  # cells (m + j, j)
    costs[m:, l:] = 0.0
    return costs


def _solve(costs: np.ndarray, p) -> float:
    """Least p-norm of the perfect matchings of an `_augmented` matrix."""
    if not len(costs):
        return 0.0
    if p == INF:
        return _assign_inf(costs)
    if p == 1:
        try:
            rows, cols = linear_sum_assignment(costs)
        except ValueError:
            return INF
        return float(costs[rows, cols].sum())
    total = _least_power_sum(costs, p)
    if _POW_TINY <= total < _POW_HUGE:
        return total ** (1.0 / p)
    # the powers left the float range: divide by the bottleneck b, which
    # the optimum's largest cost attains and n^(1/p) * b bounds, so the
    # optimum's scaled powers sum to between 1 and n; it takes no cost past
    # n * b, and capping there keeps the quotients finite
    b = _assign_inf(costs)
    if b == 0 or b == INF:
        return b
    return b * _least_power_sum(np.minimum(costs, len(costs) * b) / b, p) ** (1.0 / p)


def _least_power_sum(costs: np.ndarray, p) -> float:
    """Least sum of `_capped_powers` over the perfect matchings."""
    A = _capped_powers(costs, p)
    rows, cols = linear_sum_assignment(A)
    return float(A[rows, cols].sum())


def _capped_powers(x: np.ndarray, p: float) -> np.ndarray:
    """x**p with each value (an inf too) capped at 2^(1000/p) first, so no
    power overflows and a capped one lands past _POW_HUGE."""
    capped = np.minimum(x, 2.0 ** (1000 / p))
    capped **= p
    return capped


def _check_p(p) -> None:
    """The transport exponent must be >= 1 (inf included); NaN fails too."""
    if not p >= 1:
        raise ValueError("p must be >= 1")


def _assign_inf(costs: np.ndarray) -> float:
    """Bottleneck assignment: the least threshold with a perfect matching.

    A perfect matching takes one cell from every row and every column, so
    the threshold is at least the largest row or column minimum, itself a
    cell.  That bound is tried first; otherwise the search bisects over the
    finite costs above it, where an index past the last one stands for INF.
    """
    lb = max(costs.min(axis=1).max(), costs.min(axis=0).max())
    if math.isinf(lb):
        return INF
    if _perfect_matching(costs <= lb):
        return float(lb)
    above = np.unique(costs[(costs > lb) & np.isfinite(costs)])
    lo, hi = 0, len(above)
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_matching(costs <= above[mid]):
            hi = mid
        else:
            lo = mid + 1
    return INF if lo == len(above) else float(above[lo])


def min_cost_transport(divergence: Sequence, cost) -> float:
    """Minimize sum pi_ij * cost[i][j] subject to pi >= 0 and
    sum_j (pi_ij - pi_ji) = divergence[i] for every node i.

    Divergences may be ints, floats or Fractions and must sum to zero;
    costs are finite and nonnegative over all ordered node pairs (the
    diagonal is ignored).  With nonnegative costs and no capacities an
    optimal flow runs along shortest paths, so the problem is one of
    transportation from the supply nodes (divergence > 0) to the demand
    nodes (divergence < 0) on the metric closure of the costs (Floyd-Warshall
    in numpy); zero-divergence nodes act as relays inside the closure.

    When every divergence is an integer and the total supply is at most the
    node count, each supply node is repeated once per unit it sends and each
    demand node once per unit it takes, and one `linear_sum_assignment`
    over those unit masses solves it: integer masses have an integral
    optimal plan, and the unit block is no larger than the closure.  Any
    other divergences (fractional, or a larger total supply) go to a HiGHS
    transportation linear program over the supply x demand arcs.  HiGHS
    reads a cost of 1e20 or more as infinite, so costs past 2^60 are first
    divided by a power of two that brings them below it.
    """
    n = len(divergence)
    if n == 0:
        return 0.0
    dist = np.array(cost, dtype=np.float64)
    if dist.shape != (n, n):
        raise ValueError("cost must be an n x n matrix")
    arc_cost = dist[~np.eye(n, dtype=bool)]
    if np.isnan(arc_cost).any() or (arc_cost < 0).any():
        raise ValueError("costs must be nonnegative")
    if np.isinf(arc_cost).any():
        raise ValueError("infinite cost arc")
    with _float_policy():
        np.fill_diagonal(dist, 0.0)
        for k in range(n):  # Floyd-Warshall closure
            np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
        return _transport(divergence, dist)


def _transport(divergence: Sequence, dist: np.ndarray) -> float:
    """`min_cost_transport` on finite costs that are already their own
    metric closure: one assignment over unit masses, or the HiGHS LP.  The
    diagonal is never read, as no node is both a supply and a demand."""
    if sum(divergence) != 0:
        raise ValueError("divergences must sum to zero")
    # signs of the exact values: a tiny Fraction is still a supply
    supply = [i for i, d in enumerate(divergence) if d > 0]
    demand = [i for i, d in enumerate(divergence) if d < 0]
    if not supply:
        return 0.0
    if all(int(d) == d for d in divergence):
        units = [int(divergence[i]) for i in supply]
        if sum(units) <= len(divergence):
            rows = np.repeat(supply, units)
            cols = np.repeat(demand, [-int(divergence[j]) for j in demand])
            block = dist[np.ix_(rows, cols)]
            r, c = linear_sum_assignment(block)
            return float(block[r, c].sum())
    m, t = len(supply), len(demand)
    arcs = np.arange(m * t)  # arc i * t + j runs supply[i] -> demand[j]
    # one row per supply and per demand but the last, which the
    # others imply since the divergences balance
    a_eq = coo_matrix(
        (np.ones(2 * m * t), (np.concatenate([arcs // t, m + arcs % t]), np.tile(arcs, 2))),
        shape=(m + t, m * t),
    ).tocsr()[:-1]
    b_eq = np.array(
        [float(divergence[i]) for i in supply] + [-float(divergence[j]) for j in demand[:-1]]
    )
    lp_cost = dist[np.ix_(supply, demand)].ravel()
    # HiGHS reads a cost >= 1e20 as infinite: bring large costs below 2^60
    scale = 2.0 ** max(0, math.frexp(lp_cost.max())[1] - 60)
    res = linprog(lp_cost / scale, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun) * scale


@dataclass
class CostCounters:
    """Always-on instrumentation; every field is O(1) per event.

    A certified level-1 block counts each priced cell as one atom call and
    one expansion, as the naive recursion counts each scalar atom cost.
    """

    diagram_calls: int = 0
    atom_calls: int = 0
    atom_expansions: int = 0
    assign_calls: int = 0
    prunes: int = 0
    memo_hits: int = 0
    memo_keys: int = 0


# ---------------------------------------------------------------------------
# Naive recursion (no memoization; the timed baseline)


def naive_wasserstein(
    G: Diagram,
    L: Diagram,
    p: float,
    counters: CostCounters | None = None,
) -> float:
    if G.level != L.level:
        raise LevelMismatch("diagram level mismatch")
    _check_p(p)
    c = counters if counters is not None else CostCounters()
    with _float_policy():
        return _naive_diagram_cost(G, L, G.level, p, c)


def _naive_diagram_cost(G, L, k, p, c) -> float:
    c.diagram_calls += 1
    if k == 0:
        return dist_ground(G, L)
    us = G.atoms()
    vs = L.atoms()
    off = [[_naive_atom_cost(u, v, k, p, c) for v in vs] for u in us]
    left = [_naive_diag_cost(u, k, p, c) for u in us]
    right = [_naive_diag_cost(v, k, p, c) for v in vs]
    c.assign_calls += 1
    return _solve(_augmented(off, left, right), p)


def _naive_atom_cost(u, v, k, p, c) -> float:
    c.atom_calls += 1
    c.atom_expansions += 1
    e = _naive_diag_cost(u, k, p, c)
    f = _naive_diag_cost(v, k, p, c)
    a = _naive_diagram_cost(u.minus, v.minus, k - 1, p, c)
    b = _naive_diagram_cost(u.plus, v.plus, k - 1, p, c)
    return min(norm_p((a, b), p), e + f)


def _naive_diag_cost(u: Atom, k, p, c) -> float:
    if k == 1:
        return level1_diag_cost(u, p)
    return _naive_diagram_cost(u.minus, u.plus, k - 1, p, c)


# ---------------------------------------------------------------------------
# Certified recursion (shared memo tables + safe pruning)


class _CertifiedRun:
    """One certified computation at exponent ``p`` over the level-1 diagrams
    that ``diagrams`` reach: the memo tables its recursion shares, and one
    level-1 pool, the atoms of those diagrams in one list, each diagram a
    slice of it."""

    def __init__(self, p, counters, diagrams):
        self.p = p
        self.c = counters
        self.m_d: dict = {}
        self.m_a: dict = {}
        self.m_diag: dict = {}
        self.m_0: dict = {}
        pool, self.slices = [], {}
        for theta in _level1_diagrams(diagrams):
            start = len(pool)
            pool.extend(theta.atoms())
            self.slices[theta.uid] = slice(start, len(pool))
        births, deaths, _ = self.side = _level1_side(pool, p)
        # the reverse-triangle bound holds where level-1 costs are a metric;
        # ground points of mixed dimension (NaN pads) read only shared
        # coordinates, as `zip` does, which breaks the triangle inequality
        self.prune = not (np.isnan(births).any() or np.isnan(deaths).any())
        # at most two level-1 inputs (a level-1 transport, or the diagonal
        # of one level-2 atom) are read by one level-1 sub-transport at most
        self.pooled = len(diagrams) > 2 or any(theta.level > 1 for theta in diagrams)

    @cached_property
    def off(self) -> np.ndarray:
        """`_level1_off` of the pool against itself, built on the first
        level-1 sub-transport (an `empty_cost` needs only the diagonal)."""
        return _level1_off(self.side, self.p)

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
        if k == 1:
            rows, cols = self.slices[G.uid], self.slices[L.uid]
            diag = self.side[2]
            if self.pooled:
                off = self.off[rows, cols]
            else:  # the run's one level-1 sub-transport: only its cells
                off = _level1_off(self.side, self.p, rows, cols)
            left, right = diag[rows], diag[cols]
            self.c.atom_calls += off.size
            self.c.atom_expansions += off.size
        else:
            us = G.atoms()
            vs = L.atoms()
            left = [self.diagonal_cost(u, k) for u in us]
            right = [self.diagonal_cost(v, k) for v in vs]
            off = [[self.atom_cost(u, v, k) for v in vs] for u in us]
        self.c.assign_calls += 1
        value = _solve(_augmented(off, left, right), self.p)
        return self._memo_put(self.m_d, key, value)

    def atom_cost(self, u, v, k) -> float:
        """Strengthened cost of two level-k atoms, k >= 2 (level-1 costs
        are priced in blocks by `diagram_cost`)."""
        key = (u.uid, v.uid, k)
        hit = self._memo_get(self.m_a, key)
        if hit is not None:
            return hit
        self.c.atom_calls += 1
        e = self.diagonal_cost(u, k)
        f = self.diagonal_cost(v, k)
        # reverse-triangle lower bound on the product route from
        # transport-to-empty costs of the endpoint diagrams
        b = norm_p(
            (
                abs(self.empty_cost(u.minus, k - 1) - self.empty_cost(v.minus, k - 1)),
                abs(self.empty_cost(u.plus, k - 1) - self.empty_cost(v.plus, k - 1)),
            ),
            self.p,
        )
        if self.prune and b >= e + f:
            self.c.prunes += 1
            return self._memo_put(self.m_a, key, e + f)
        self.c.atom_expansions += 1
        a1 = self.diagram_cost(u.minus, v.minus, k - 1)
        a2 = self.diagram_cost(u.plus, v.plus, k - 1)
        value = min(norm_p((a1, a2), self.p), e + f)
        return self._memo_put(self.m_a, key, value)

    def diagonal_cost(self, u: Atom, k) -> float:
        """Diagonal cost of a level-k atom, k >= 2: the transport between
        its endpoint diagrams."""
        key = (u.uid, k)
        hit = self._memo_get(self.m_diag, key)
        if hit is not None:
            return hit
        value = self.diagram_cost(u.minus, u.plus, k - 1)
        return self._memo_put(self.m_diag, key, value)

    def empty_cost(self, theta, k) -> float:
        if isinstance(theta, GroundPoint):
            raise LevelMismatch("empty cost undefined at ground level")
        key = (theta.uid, k)
        hit = self._memo_get(self.m_0, key)
        if hit is not None:
            return hit
        if k == 1:
            diag = self.side[2][self.slices[theta.uid]]
        else:
            diag = [self.diagonal_cost(u, k) for u in theta.atoms()]
        return self._memo_put(self.m_0, key, norm_p(diag, self.p))


def certified_wasserstein(
    G: Diagram,
    L: Diagram,
    p: float,
    counters: CostCounters | None = None,
) -> float:
    """Memoized transport distance with safe pruning; equals the naive value."""
    if G.level != L.level:
        raise LevelMismatch("diagram level mismatch")
    _check_p(p)
    c = counters if counters is not None else CostCounters()
    with _float_policy():
        return _CertifiedRun(p, c, (G, L)).diagram_cost(G, L, G.level)


def empty_cost(theta: Diagram, p: float) -> float:
    """p-norm of the diagonal distances of the atoms: W_p(theta, 0)."""
    _check_p(p)
    with _float_policy():
        return _CertifiedRun(p, CostCounters(), (theta,)).empty_cost(theta, theta.level)


def group_metric(a: VirtualDiagram, b: VirtualDiagram) -> float:
    """Translation-invariant distance on signed diagrams: the p = 1 transport
    distance between a+ + b- and b+ + a-, the only p for which it exists."""
    if a.level != b.level:
        raise LevelMismatch("level mismatch")
    return certified_wasserstein(
        a.positive_part() + b.negative_part(),
        b.positive_part() + a.negative_part(),
        p=1,
    )


def linear_w1_norm(xi: LinearDiagram | VirtualDiagram) -> float:
    """Optimal-transport norm of a real-linear diagram.

    Min-cost transport over the support plus the basepoint, divergences
    equal to the coefficients with the basepoint absorbing their negative
    sum, arc costs the strengthened atom metric (at level 1 the numpy cost
    block of `_level1_off` at p = 1, above it from one certified run over
    the atoms' endpoint diagrams, whose memo tables and level-1 pool all
    the pairs share).  The flow runs on the metric closure of those costs,
    which one-dimensional level-1 costs already are (module docstring), from
    positive to negative nodes: integer coefficients whose positive sum is
    at most the support size plus one (say a difference of two diagrams
    with unit multiplicities) take one assignment over unit masses, and
    Fraction coefficients (the means) or larger integer masses a HiGHS
    transportation LP.  An infinite cost on the support (an atom with a
    +inf death) raises ValueError.
    """
    entries = xi.entries
    if not entries:
        return 0.0
    atoms = [a for a, _ in entries]
    coeffs = [c for _, c in entries]
    divergence = coeffs + [-sum(coeffs)]
    with _float_policy():
        if xi.level == 1:
            births, deaths, diag = side = _level1_side(atoms, 1)
            n = len(atoms)
            cost = np.zeros((n + 1, n + 1))
            cost[:n, :n] = _level1_off(side, 1)  # 0 on the diagonal
            cost[:n, n] = cost[n, :n] = diag
            if births.shape[1] == deaths.shape[1] == 1:  # one coordinate each
                if np.isinf(cost).any():
                    raise ValueError("infinite cost arc")
                return _transport(divergence, cost)
        else:
            # one certified run, so endpoint transports shared by several
            # atoms are computed once
            run = _CertifiedRun(1, CostCounters(), [e for a in atoms for e in (a.minus, a.plus)])
            n, k = len(atoms), xi.level
            cost = [[0.0] * (n + 1) for _ in range(n + 1)]
            for i in range(n):
                for j in range(i + 1, n):
                    cost[i][j] = cost[j][i] = run.atom_cost(atoms[i], atoms[j], k)
                cost[i][n] = cost[n][i] = run.diagonal_cost(atoms[i], k)
    return min_cost_transport(divergence, cost)


# ---------------------------------------------------------------------------
# Level-1 cost blocks: the one engine for level-1 atom costs, with the
# floating-point operations of `d1` and `d_diag` (Python's and numpy's
# powers may differ in the last place at p outside {1, inf})


def _level1_diagrams(diagrams) -> list:
    """The distinct level-1 diagrams that ``diagrams`` reach through the
    endpoints of their atoms; a level-1 diagram reaches itself."""
    found, seen, stack = [], set(), list(diagrams)
    while stack:
        theta = stack.pop()
        if theta.level == 0 or theta.uid in seen:
            continue
        seen.add(theta.uid)
        if theta.level == 1:
            found.append(theta)
        else:
            for a in theta.support():
                stack += (a.minus, a.plus)
    return found


def _level1_side(atoms: Sequence[Atom], p) -> tuple:
    """Birth rows, death rows and diagonal costs of level-1 atoms."""
    births = _coord_matrix([a.minus for a in atoms])
    deaths = _coord_matrix([a.plus for a in atoms])
    return births, deaths, _dist_ground_array(births, deaths) * _diag_scale(p)


def _level1_off(side: tuple, p, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """min(||(d(b_u, b_v), d(d_u, d_v))||_p, e_u + e_v) for every atom u in
    ``rows`` and v in ``cols`` of one `_level1_side` (all of it by default);
    each cell is the same floating-point expression whatever the slices."""
    births, deaths, e = side
    a = _dist_ground_array(births[rows, None], births[None, cols])
    b = _dist_ground_array(deaths[rows, None], deaths[None, cols])
    if p == 1:
        direct = a + b
    elif p == INF:
        direct = np.maximum(a, b)
    else:
        total = _capped_powers(a, p) + _capped_powers(b, p)
        direct = total ** (1.0 / p)
        lost = (total < _POW_TINY) | (total >= _POW_HUGE)
        if lost.any():  # a power left the float range: `norm_p` prices the pair
            lost &= np.maximum(a, b) > 0
            direct[lost] = [norm_p(pair, p) for pair in zip(a[lost], b[lost])]
    return np.minimum(direct, e[rows, None] + e[None, cols])


def _dist_ground_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`dist_ground` over the last axis of broadcast coordinate arrays: the
    largest coordinate gap, where equal coordinates give 0 and +inf against
    a finite value gives inf.  A NaN pad is skipped, as `zip` would, and so
    is inf - inf, under `_float_policy`, which also makes a gap past the
    float range inf, as in `dist_ground`."""
    return np.fmax.reduce(np.abs(x - y), axis=-1, initial=0.0)


def _coord_matrix(points: Sequence[GroundPoint]) -> np.ndarray:
    """Ground coordinates as rows, NaN-padded to the longest point; one
    column when there are no points."""
    if not points:
        return np.empty((0, 1))
    cols = itertools.zip_longest(*(x.coords for x in points), fillvalue=math.nan)
    return np.array(list(cols), dtype=np.float64).T


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
    # imported here: no transport route needs csgraph, which adds about 1 MB
    from scipy.sparse.csgraph import connected_components

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

    index = {uid: i for i, uid in enumerate(depth)}
    edges = [(index[uid], index[kid.uid]) for uid, kids in children_of.items() for kid in kids]
    ends = tuple(zip(*edges)) or ((), ())
    graph = coo_matrix((np.ones(len(edges)), ends), shape=(len(index), len(index)))
    components = connected_components(graph, directed=False)[0]

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
    "ComplexityProfile",
    "CostCounters",
    "assign_p",
    "certified_wasserstein",
    "complexity_profile",
    "empty_cost",
    "group_metric",
    "linear_w1_norm",
    "min_cost_transport",
    "naive_wasserstein",
]
