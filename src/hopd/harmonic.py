"""Characters on signed diagrams and fast coboundary evaluation.

A character assigns an angle to every atom class and evaluates a signed
diagram as a phase; aggregation then shows up as a quadratic phase over
preorder-compatible pairs.  Coboundary characters (angles psi(v) - psi(u))
reduce that phase to two dominance sums over principal order ideals, which
is where the near-linear evaluation comes from: the aggregate itself is
never materialized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ._fenwick import FenwickTree
from .aggregation import (
    AggregateOptions,
    DEFAULT_OPTIONS,
    PairAggregate,
    level1_arrays,
    pair_class,
    pair_is_diagonal,
)
from .core import (
    Atom,
    CoefficientOverflow,
    DEFAULT_PREORDER,
    LevelMismatch,
    LinearDiagram,
    PreorderSpec,
    PreorderUnavailable,
    VirtualDiagram,
    _I64_MAX,
    _I64_MIN,
    atom_leq,
    psi_golden,
)

TWO_PI = 2.0 * math.pi


class MissingAngle(KeyError):
    """The character has no angle for an atom in the evaluated support."""


def wrap_angle(x: float) -> float:
    return float(x) % TWO_PI


def angles_close(a: float, b: float, tol: float = 1e-9) -> bool:
    """Equality of phases mod 2*pi."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d) <= tol


@dataclass(frozen=True)
class Character:
    """Total angle assignment on level-`level` atom classes; basepoint angle 0."""

    level: int
    angles: Mapping[Atom, float]

    def angle_of(self, a: Atom) -> float:
        if a.level != self.level:
            raise LevelMismatch("character level mismatch")
        try:
            return wrap_angle(self.angles[a])
        except KeyError:
            raise MissingAngle(f"character has no angle for {a!r}") from None


@dataclass(frozen=True)
class CoboundaryCharacter:
    """Potential psi on level-n atoms inducing pair angles psi(v) - psi(u).

    The induced angle vanishes on diagonal classes by construction.  ``psi``
    may be a mapping (total on the support in use) or any callable on atoms;
    the default benchmark potential hashes intern ids by the golden ratio.
    """

    level: int
    psi: Mapping[Atom, float] | Callable[[Atom], float] = field(default=psi_golden)

    def psi_of(self, a: Atom) -> float:
        if a.level != self.level:
            raise LevelMismatch("potential level mismatch")
        if callable(self.psi):
            return wrap_angle(self.psi(a))
        try:
            return wrap_angle(self.psi[a])
        except KeyError:
            raise MissingAngle(f"potential has no value for {a!r}") from None

    def pair_angle(self, u: Atom, v: Atom) -> float:
        return wrap_angle(self.psi_of(v) - self.psi_of(u))

    def induced_angle(self, pair_atom: Atom) -> float:
        """Angle of a level-(n+1) class with singleton-diagram endpoints."""
        if pair_atom.level != self.level + 1:
            raise LevelMismatch("class level mismatch")
        minus, plus = pair_atom.minus, pair_atom.plus
        if len(minus.entries) != 1 or len(plus.entries) != 1:
            raise MissingAngle("coboundary angles need singleton endpoints")
        return self.pair_angle(minus.entries[0][0], plus.entries[0][0])


def _angle_lookup(chi, a: Atom) -> float:
    if isinstance(chi, CoboundaryCharacter):
        return chi.induced_angle(a)
    return chi.angle_of(a)


def evaluate_character(chi, xi) -> float:
    """Phase of a signed diagram: sum of coefficient * angle, mod 2*pi."""
    if isinstance(xi, PairAggregate):
        return _evaluate_on_pairs(chi, xi)
    expected = chi.level + 1 if isinstance(chi, CoboundaryCharacter) else chi.level
    if xi.level != expected:
        raise LevelMismatch("character level mismatch")
    total = 0.0
    for a, c in xi.entries:
        total += float(c) * _angle_lookup(chi, a)
    return wrap_angle(total)


def coboundary_net_multiplicities(aggregate, base_atoms) -> np.ndarray:
    """Exact per-atom net multiplicity of a pair aggregate.

    For each base atom a, sums the coefficients of classes having a as plus
    endpoint minus those having a as minus endpoint; this is the integer
    that multiplies psi(a) in any coboundary evaluation.  Collecting it
    before touching floats keeps both evaluation routes bit-identical.
    """
    n = len(base_atoms)
    net = [0] * n
    if isinstance(aggregate, PairAggregate):
        coeff = aggregate.coeff
        cmax = max(int(coeff.max()), -int(coeff.min())) if coeff.size else 0
        if cmax * coeff.size < 2**63:  # no partial sum can leave int64
            fast = np.zeros(n, dtype=np.int64)
            np.add.at(fast, aggregate.j, coeff)
            np.subtract.at(fast, aggregate.i, coeff)
            return fast
        for i, j, c in zip(aggregate.i.tolist(), aggregate.j.tolist(), coeff.tolist()):
            net[j] += c
            net[i] -= c
        return _net_array(net)
    index = {a.uid: k for k, a in enumerate(base_atoms)}
    for cls, c in aggregate.entries:
        minus, plus = cls.minus, cls.plus
        if len(minus.entries) != 1 or len(plus.entries) != 1:
            raise MissingAngle("coboundary collection needs singleton endpoints")
        net[index[plus.entries[0][0].uid]] += c
        net[index[minus.entries[0][0].uid]] -= c
    return _net_array(net)


def _net_array(net: list[int]) -> np.ndarray:
    """Exact integer nets as int64; ``CoefficientOverflow`` if one leaves int64."""
    if net and (max(net) > _I64_MAX or min(net) < _I64_MIN):
        raise CoefficientOverflow("a net multiplicity leaves the 64-bit range")
    return np.array(net, dtype=np.int64)


def coboundary_phase_raw(aggregate, psi: CoboundaryCharacter, base_atoms) -> float:
    """Unwrapped coboundary phase of an explicit pair aggregate."""
    psi_vec = psi_vector(psi, list(base_atoms))
    net = coboundary_net_multiplicities(aggregate, base_atoms)
    return float(np.dot(psi_vec, net.astype(np.float64)))


def _evaluate_on_pairs(chi, agg: PairAggregate) -> float:
    if isinstance(chi, CoboundaryCharacter):
        if chi.level + 1 != agg.level:
            raise LevelMismatch("character level mismatch")
        return wrap_angle(coboundary_phase_raw(agg, chi, agg.base))
    total = 0.0
    for i, j, c in zip(agg.i, agg.j, agg.coeff):
        total += float(c) * chi.angle_of(pair_class(agg.base[i], agg.base[j]))
    return wrap_angle(total)


def quadratic_phase(
    xi: VirtualDiagram,
    theta,
    options: AggregateOptions = DEFAULT_OPTIONS,
    spec: PreorderSpec = DEFAULT_PREORDER,
) -> float:
    """Slow oracle: the double sum over preorder-compatible support pairs.

    Equals ``evaluate_character(theta, naive_self_aggregate(xi))`` exactly.
    """
    total = 0.0
    for u, cu in xi.entries:
        for v, cv in xi.entries:
            if not atom_leq(u, v, spec):
                continue
            if options.drop_diagonal_classes and pair_is_diagonal(u, v, spec):
                continue
            total += float(cu * cv) * _angle_lookup(theta, pair_class(u, v))
    return wrap_angle(total)


# ---------------------------------------------------------------------------
# Dominance sums (zeta transforms over coordinatewise preorders)


@dataclass(frozen=True)
class DominanceInput:
    """Coordinate points with signed integer coefficients and caller ids."""

    points: tuple[tuple[tuple[float, ...], int, object], ...]

    @staticmethod
    def from_arrays(coords, coeffs, ids=None) -> "DominanceInput":
        n = len(coeffs)
        if ids is None:
            ids = range(n)
        pts = tuple(
            (tuple(float(x) for x in coords[k]), int(coeffs[k]), ids[k])
            for k in range(n)
        )
        return DominanceInput(pts)


def dominance_sums(
    inp: DominanceInput, direction: str = "down", engine: str = "auto"
) -> dict:
    """Inclusive coordinatewise dominance sums.

    down: Z-(v) = sum of coefficients of points <= v (v included).
    up:   Z+(u) = sum over points >= u, computed by coordinate negation
    through the same code path.
    """
    if direction not in ("down", "up"):
        raise ValueError("direction must be 'down' or 'up'")
    pts = inp.points
    if not pts:
        return {}
    coords = [p[0] for p in pts]
    if direction == "up":
        coords = [tuple(-x for x in c) for c in coords]
    weights = [p[1] for p in pts]
    z = _dominance_down(coords, weights, engine)
    return {pts[k][2]: z[k] for k in range(len(pts))}


def _dominance_down(coords, weights, engine="auto"):
    r = len(coords[0])
    # the int64 kernel is exact when every partial sum fits; cdq sums
    # Python integers and is exact at any size
    fits = sum(abs(w) for w in weights) < 2**63
    if engine == "auto":
        engine = "vector" if r == 2 and fits else "cdq"
    if engine == "vector":
        if r != 2:
            raise ValueError("vector engine handles two coordinates only")
        if not fits:
            raise CoefficientOverflow("dominance sums may leave the 64-bit range")
        xy = np.asarray(coords, dtype=np.float64)
        w = np.asarray(weights, dtype=np.int64)
        return _zeta2_both(xy[:, 0], xy[:, 1], w)[0].tolist()
    if engine == "cdq":
        return _zeta_cdq(coords, weights)
    raise ValueError(f"unknown engine {engine!r}")


def _coalesce(coords, weights):
    """Group identical coordinate tuples; equal points dominate mutually."""
    groups: dict[tuple, int] = {}
    members: dict[tuple, list[int]] = {}
    for k, c in enumerate(coords):
        groups[c] = groups.get(c, 0) + weights[k]
        members.setdefault(c, []).append(k)
    keys = sorted(groups)
    return keys, [groups[k] for k in keys], members


def _zeta_cdq(coords, weights):
    """Merge-style divide and conquer over the first coordinate.

    Cross contributions left -> right recurse over remaining coordinates,
    with a Fenwick tree over the last-coordinate ranks handling the final
    two dimensions; one remaining coordinate degenerates to sorted prefix
    sums.  Comparisons are inclusive throughout.
    """
    keys, w, members = _coalesce(coords, weights)
    m = len(keys)
    r = len(coords[0])
    z = list(w)

    last_rank = {}
    for v in sorted({k[-1] for k in keys}):
        last_rank[v] = len(last_rank)
    ranks = [last_rank[k[-1]] for k in keys]
    fen = FenwickTree(len(last_rank))

    def join(src, tgt, dim):
        # every src already <= every tgt on coords [0, dim)
        if not src or not tgt:
            return
        if dim >= r:
            total = sum(w[s] for s in src)
            for t in tgt:
                z[t] += total
            return
        if dim == r - 1:
            src_sorted = sorted(src, key=lambda s: keys[s][dim])
            tgt_sorted = sorted(tgt, key=lambda t: keys[t][dim])
            run = 0
            si = 0
            for t in tgt_sorted:
                limit = keys[t][dim]
                while si < len(src_sorted) and keys[src_sorted[si]][dim] <= limit:
                    run += w[src_sorted[si]]
                    si += 1
                z[t] += run
            return
        if dim == r - 2:
            # one sorted pass over this coordinate, prefix-sum tree on the last
            order = sorted(
                [(keys[s][dim], 0, s) for s in src] + [(keys[t][dim], 1, t) for t in tgt]
            )
            for _, is_tgt, k in order:
                if is_tgt:
                    z[k] += fen.prefix(ranks[k])
                else:
                    fen.add(ranks[k], w[k])
            fen.reset()
            return
        order = sorted(
            [(keys[s][dim], 0, s) for s in src] + [(keys[t][dim], 1, t) for t in tgt]
        )

        def rec(items):
            if len(items) <= 1:
                return
            mid = len(items) // 2
            left, right = items[:mid], items[mid:]
            rec(left)
            rec(right)
            join(
                [k for _, is_tgt, k in left if not is_tgt],
                [k for _, is_tgt, k in right if is_tgt],
                dim + 1,
            )

        rec(order)

    def solve(lo, hi):
        if hi - lo <= 1:
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        solve(mid, hi)
        join(list(range(lo, mid)), list(range(mid, hi)), 0)

    # keys are in lexicographic order, so any left-half point is <= any
    # right-half point on the first coordinate (inclusive on ties)
    solve(0, m)
    pos = {key: i for i, key in enumerate(keys)}
    out = [0] * len(coords)
    for key, idxs in members.items():
        zv = z[pos[key]]
        for k in idxs:
            out[k] = zv
    return out


# Up to this many points one dense comparison matrix beats the rank-space
# merge on fixed per-call cost (they cross near 190 points on x86-64).
_DENSE_MAX = 192
_LOG_BLOCK = 6
_BLOCK = 1 << _LOG_BLOCK


def _zeta2_both(x, y, w):
    """Down and up dominance sums of float64 points (x, y) with int64 weights w.

    Small inputs take one dense comparison matrix on the raw coordinates;
    equal points dominate each other and ``inf <= inf`` holds, so neither
    duplicates nor ``+inf`` need care.  Larger inputs move to rank space:
    dense integer ranks per coordinate (``+inf`` ranks last), points
    coalesced in lexicographic order, each 64-point block of that order
    solved densely, then bottom-up merge levels.  At a level, every point of
    a left half precedes its sibling right half on the first coordinate, so
    in (y-rank, position) order within the parent block a right point's down
    sum gains the left weight seen so far, and a left point's up sum gains
    the right total minus the right weight seen so far.  Sums wrap modulo
    2^64, so they are exact whenever the results fit in int64.
    """
    n = w.size
    if n <= _DENSE_MAX:
        le = (x[:, None] <= x) & (y[:, None] <= y)
        return w @ le, le @ w
    _, xr = np.unique(x, return_inverse=True)
    ys, yr = np.unique(y, return_inverse=True)
    key = xr * ys.size + yr
    order = np.argsort(key)
    sk = key[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(sk[1:], sk[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    inv = np.empty(n, dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    m = starts.size
    size = -(-m // _BLOCK) * _BLOCK  # padded with zero-weight points
    W = np.zeros(size, dtype=np.int64)
    W[:m] = np.add.reduceat(w[order], starts)
    Y = np.zeros(size, dtype=np.int64)
    Y[:m] = sk[starts] % ys.size
    # base blocks: within a block, position i <= j already gives x_i <= x_j
    Yb = Y.astype(np.int32).reshape(-1, _BLOCK)
    Wb = W.reshape(-1, _BLOCK)
    le = (Yb[:, :, None] <= Yb[:, None, :]) & np.tri(_BLOCK, dtype=bool).T
    down = np.einsum("bi,bij->bj", Wb, le).ravel()
    up = np.einsum("bij,bj->bi", le, Wb).ravel()
    # one (y-rank, position) order serves every level: on equal y-ranks a
    # left half precedes its sibling, which makes both sums inclusive
    pos = np.arange(size)
    by_y = np.argsort(Y * size + pos)
    cl = np.zeros(size + 1, dtype=np.int64)
    cr = np.zeros(size + 1, dtype=np.int64)
    lg = _LOG_BLOCK
    while (1 << lg) < size:
        # a stable sort on the parent index (a radix sort while it fits in
        # 16 bits) keeps the y order within each parent block
        parent = (by_y >> (lg + 1)).astype(np.min_scalar_type(size >> (lg + 1)))
        order = by_y[np.argsort(parent, kind="stable")]
        right = (order >> lg) & 1
        wo = W[order]
        wr = wo * right
        np.cumsum(wo - wr, out=cl[1:])
        np.cumsum(wr, out=cr[1:])
        start = (pos >> (lg + 1)) << (lg + 1)  # parent blocks are contiguous
        end = np.minimum(start + (2 << lg), size)
        down[order] += right * (cl[1:] - cl[start])
        up[order] += (1 - right) * (cr[end] - cr[1:])
        lg += 1
    return down[inv], up[inv]


# ---------------------------------------------------------------------------
# Harmonic evaluation


def psi_vector(psi: CoboundaryCharacter, atoms) -> np.ndarray:
    """Potential values over a list of atoms; the default golden-ratio
    potential is evaluated vectorized over intern ids."""
    if psi.psi is psi_golden:
        uids = np.fromiter((a.uid for a in atoms), dtype=np.int64, count=len(atoms))
        return TWO_PI * ((uids * 0.6180339887498949) % 1.0)
    return np.array([psi.psi_of(a) for a in atoms], dtype=np.float64)


def harmonic_eval_raw(
    xi: VirtualDiagram, psi: CoboundaryCharacter, engine: str = "auto"
) -> float:
    """Unwrapped coboundary phase of the self-aggregate via dominance sums.

    S = sum_v psi(v) xi_v Z-(v) - sum_u psi(u) xi_u Z+(u).  The per-atom
    net xi_a * (Z-(a) - Z+(a)) is collected exactly in integers; psi
    enters through a single double-precision dot product.  Raises
    ``CoefficientOverflow`` exactly where the explicit routes do: when
    max|c|^2 leaves int64 (the self class (a, a)), or when an exact net
    does.  Below that, if max|c| * sum|c| could reach 2^63, the nets are
    taken as Python integers instead of int64 products.
    """
    if psi.level != xi.level:
        raise LevelMismatch("potential level mismatch")
    if xi.level != 1:
        raise PreorderUnavailable(
            "no coordinate representation at this level; use quadratic_phase"
        )
    if not xi.entries:
        return 0.0
    phi, coeff = level1_arrays(xi)
    cmax = max(int(coeff.max()), -int(coeff.min()))
    if cmax * cmax > _I64_MAX:
        raise CoefficientOverflow("pairwise products exceed 64-bit range")
    # |net(a)| <= max|c| * sum|c|; n * max|c| bounds sum|c| without a pass
    wide = cmax * cmax * len(coeff) >= 2**63 and cmax * sum(map(abs, coeff.tolist())) >= 2**63
    psi_vec = psi_vector(psi, [a for a, _ in xi.entries])
    if phi.shape[1] == 2 and engine in ("auto", "vector") and not wide:
        z_down, z_up = _zeta2_both(phi[:, 0], phi[:, 1], coeff)
        net = coeff * (z_down - z_up)
    else:
        # each dominance sum is exact (cdq's Python ints, or the int64
        # kernel while sum|c| fits); the products are taken in Python ints
        coords = [tuple(row) for row in phi.tolist()]
        w = coeff.tolist()
        z_down = _dominance_down(coords, w, engine)
        neg = [tuple(-v for v in row) for row in coords]
        z_up = _dominance_down(neg, w, engine)
        net = _net_array([c * (d - u) for c, d, u in zip(w, z_down, z_up)])
    return float(np.dot(psi_vec, net.astype(np.float64)))


def harmonic_eval(
    xi: VirtualDiagram, psi: CoboundaryCharacter, engine: str = "auto"
) -> float:
    """Coboundary phase of the self-aggregate, reduced mod 2*pi."""
    return wrap_angle(harmonic_eval_raw(xi, psi, engine))


def iterated_character_phase(
    xi: VirtualDiagram,
    s: int,
    theta,
    options: AggregateOptions = DEFAULT_OPTIONS,
    spec: PreorderSpec = DEFAULT_PREORDER,
    guard: int = 1_000_000,
) -> float:
    """Depth-s labeled-tree phase; equals the character of the iterated aggregate."""
    if s < 1:
        raise ValueError("s must be >= 1")
    supp = [a for a, _ in xi.entries]
    coeffs = {a: c for a, c in xi.entries}
    if len(supp) ** (2**s) > guard:
        raise ValueError(f"{len(supp)}^{2 ** s} labelings exceed guard {guard}")
    total = 0.0
    for labeling in itertools.product(supp, repeat=2**s):
        weight = 1
        for leaf in labeling:
            weight *= coeffs[leaf]
        nodes = list(labeling)
        ok = True
        while len(nodes) > 1 and ok:
            nxt = []
            for left, right in zip(nodes[::2], nodes[1::2]):
                if not atom_leq(left, right, spec) or (
                    options.drop_diagonal_classes and pair_is_diagonal(left, right, spec)
                ):
                    ok = False
                    break
                nxt.append(pair_class(left, right))
            nodes = nxt
        if ok:
            total += float(weight) * _angle_lookup(theta, nodes[0])
    return wrap_angle(total)


__all__ = [
    "Character",
    "CoboundaryCharacter",
    "DominanceInput",
    "MissingAngle",
    "angles_close",
    "coboundary_net_multiplicities",
    "coboundary_phase_raw",
    "dominance_sums",
    "evaluate_character",
    "harmonic_eval",
    "harmonic_eval_raw",
    "iterated_character_phase",
    "quadratic_phase",
    "wrap_angle",
]
