"""Characters on signed diagrams and fast coboundary evaluation.

A character assigns an angle to every atom class and evaluates a signed
diagram as a phase; aggregation then shows up as a quadratic phase over
preorder-compatible pairs.  Coboundary characters (angles psi(v) - psi(u))
reduce that phase to two dominance sums over principal order ideals, which
is where the near-linear evaluation comes from: the aggregate itself is
never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .aggregation import (
    _ATOM,
    PairAggregate,
    level1_arrays,
    pair_class,
    tree_expansion_oracle,
)
from .core import (
    Atom,
    CoefficientOverflow,
    LevelMismatch,
    PreorderUnavailable,
    VirtualDiagram,
    _I64_MAX,
    _I64_MIN,
    atom_coords,
    atom_leq,
    psi_golden,
    psi_golden_array,
)

TWO_PI = 2.0 * math.pi


class MissingAngle(KeyError):
    """The character has no angle for an atom in the evaluated support."""


def wrap_angle(x: float) -> float:
    """``x`` reduced into [0, 2*pi).  A tiny negative ``x`` whose remainder
    rounds up to 2*pi itself gives 0."""
    r = float(x) % TWO_PI
    return 0.0 if r == TWO_PI else r


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
    the default benchmark potential ``psi_golden`` hashes each level-1
    atom's coordinates, so it depends on the diagram alone.
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
    index = {a: k for k, a in enumerate(base_atoms)}
    for cls, c in aggregate.entries:
        minus, plus = cls.minus, cls.plus
        if len(minus.entries) != 1 or len(plus.entries) != 1:
            raise MissingAngle("coboundary collection needs singleton endpoints")
        net[index[plus.entries[0][0]]] += c
        net[index[minus.entries[0][0]]] -= c
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


def quadratic_phase(xi: VirtualDiagram, theta) -> float:
    """Slow oracle: the double sum over preorder-compatible support pairs.

    Equals ``evaluate_character(theta, naive_self_aggregate(xi))`` exactly.
    """
    total = 0.0
    for u, cu in xi.entries:
        for v, cv in xi.entries:
            if not atom_leq(u, v) or (u is not v and atom_leq(v, u)):
                continue
            total += float(cu * cv) * _angle_lookup(theta, pair_class(u, v))
    return wrap_angle(total)


# ---------------------------------------------------------------------------
# Dominance sums (zeta transforms over coordinatewise preorders)


def dominance_sums(phi, w) -> tuple[np.ndarray, np.ndarray]:
    """Inclusive coordinatewise dominance sums of the rows of ``phi``.

    Returns int64 arrays (down, up), one entry per row, in row order:
    down[k] = sum of w over rows <= row k (row k included) and up[k] = sum
    over rows >= row k.  Both come from one ``_zeta_both`` call, exact in
    int64 for any number of coordinates.  ``phi`` must be an n x r matrix
    and ``w`` hold n finite integers (``ValueError`` otherwise, rows of
    different widths and fractional, NaN or infinite weights included);
    sum|w| must stay below 2^63 so that no partial sum can leave int64, and
    past that ``CoefficientOverflow`` is raised, as on every other
    evaluation route.  Empty input gives two empty arrays.
    """
    if not isinstance(phi, np.ndarray) and len(set(map(np.shape, phi))) > 1:
        raise ValueError("dominance points must all have the same number of coordinates")
    phi = np.asarray(phi, dtype=np.float64)
    n = len(w)
    if not n and not phi.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if phi.ndim != 2 or phi.shape[0] != n:
        raise ValueError(
            f"dominance sums need an n x r coordinate matrix and n weights, "
            f"got shape {phi.shape} and {n} weights"
        )
    # exact in Python integers, before any int64 cast
    ints = list(map(_integer_weight, w))
    if sum(map(abs, ints)) > _I64_MAX:
        raise CoefficientOverflow("dominance sums may leave the 64-bit range")
    return _zeta_both(phi, np.array(ints, dtype=np.int64))


def _integer_weight(c) -> int:
    """``c`` as a Python int; ``ValueError`` unless it is a finite integer."""
    try:
        k = int(c)
    except (TypeError, ValueError, OverflowError):  # None, NaN, +-inf
        k = None
    if k is None or k != c:
        raise ValueError(f"dominance weights must be finite integers, got {c!r}")
    return k


# Up to this many points the two-column kernel's dense comparison matrix
# beats its rank-space merge on fixed per-call cost (they cross near 190
# points on x86-64).
_DENSE_MAX = 192
_LOG_BLOCK = 6
_BLOCK = 1 << _LOG_BLOCK
_UPPER = np.tri(_BLOCK, dtype=bool).T  # i <= j within a block


def _merge_levels(size: int) -> int:
    """Merge levels above the 64-row blocks of ``size`` padded rows: the
    loop bound of both rank-space kernels."""
    return max(0, (size - 1).bit_length() - _LOG_BLOCK)


def transform_ops(n: int) -> int:
    """Cells that ``_zeta2_both`` reads for n distinct points, the down and
    up sums counted apart: the n x n comparison matrix twice while n <= 192,
    else each 64-row block's 64 x 64 matrix twice, then two passes over the
    padded rows per merge level.  This is the kernel of one-dimensional
    ground points, whose rows (-birth, death) are distinct in a diagram."""
    if n <= _DENSE_MAX:
        return 2 * n * n
    size = -(-n // _BLOCK) * _BLOCK
    return 2 * size * (_BLOCK + _merge_levels(size))


def _rank_blocks(cols, w):
    """Rank space shared by the dominance transforms.

    Every column gets dense integer ranks (``+inf`` ranks last),
    equal rows are coalesced in lexicographic order with their weights
    summed, and the result is padded with zero-weight rows to whole 64-row
    blocks.  Returns inv (row -> coalesced index), the weights W, the ranks
    of the columns after the first, and per block the comparison le[b, i, j]
    = row i lies below row j on all of those columns.
    """
    ranks = [np.unique(col, return_inverse=True)[1] for col in cols]
    # one mixed-radix key orders the rows lexicographically; when the next
    # digit would overflow it, the key is replaced by its dense ranks
    key = np.zeros(w.size, dtype=np.int64)
    for rk in ranks:
        span = int(rk.max()) + 1
        if int(key.max()) > _I64_MAX // span - 1:
            key = np.unique(key, return_inverse=True)[1]
        key = key * span + rk
    order = np.argsort(key)
    sk = key[order]
    n = w.size
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(sk[1:], sk[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    inv = np.empty(n, dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    m = starts.size
    size = -(-m // _BLOCK) * _BLOCK  # padded with zero-weight rows
    W = np.zeros(size, dtype=np.int64)
    W[:m] = np.add.reduceat(w[order], starts)
    rest = np.zeros((size, len(ranks) - 1), dtype=np.int64)
    for k, rk in enumerate(ranks[1:]):
        rest[:m, k] = rk[order[starts]]
    Rb = rest.astype(np.int32).reshape(-1, _BLOCK, rest.shape[1])
    le = Rb[:, :, None, 0] <= Rb[:, None, :, 0]
    for k in range(1, rest.shape[1]):
        le &= Rb[:, :, None, k] <= Rb[:, None, :, k]
    return inv, W, rest, le


def _block_sums(W, le):
    """Down and up sums within each 64-row block under the comparison le."""
    Wb = W.reshape(-1, _BLOCK)
    return np.einsum("bi,bij->bj", Wb, le).ravel(), np.einsum("bij,bj->bi", le, Wb).ravel()


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
    inv, W, rest, le = _rank_blocks((x, y), w)
    # within a block, position i <= j already gives x_i <= x_j
    le &= _UPPER
    down, up = _block_sums(W, le)
    size = W.size
    Y = rest[:, 0]
    # one (y-rank, position) order serves every level: on equal y-ranks a
    # left half precedes its sibling, which makes both sums inclusive
    pos = np.arange(size)
    by_y = np.argsort(Y * size + pos)
    cl = np.zeros(size + 1, dtype=np.int64)
    cr = np.zeros(size + 1, dtype=np.int64)
    for lg in range(_LOG_BLOCK, _LOG_BLOCK + _merge_levels(size)):
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
    return down[inv], up[inv]


def _zeta_both(phi, w):
    """Down and up dominance sums of the rows of phi with int64 weights w,
    for any number of columns.

    One column is padded with a zero column; two go to ``_zeta2_both``.
    With more, every input moves to rank space (``_rank_blocks``): columns
    ranked (``+inf`` last), equal rows coalesced in lexicographic order,
    64-row blocks solved densely, then bottom-up merge levels.  Rows are
    distinct and in lexicographic order, so a left half precedes its
    sibling right half on the first column and no right row lies below a
    left row.  A level therefore needs only the
    sums over the remaining columns within each parent block: one
    (r-1)-column call over all rows, with parent blocks kept apart by adding
    parent * size to the first remaining column and subtracting it from the
    second.  Minus the previous level's call, which covered the row's own
    half, that leaves the sum over the sibling half: a right row adds it to
    its down sum and a left row to its up sum.  Each call ranks its columns
    afresh, so the offsets never compound.  Sums wrap modulo 2^64, so they
    are exact whenever the results fit in int64.
    """
    n, r = phi.shape
    if r < 2:
        phi = np.hstack([phi, np.zeros((n, 2 - r))])
        r = 2
    if r == 2:
        return _zeta2_both(phi[:, 0], phi[:, 1], w)
    inv, W, rest, le = _rank_blocks(phi.T, w)
    # base blocks: the remaining columns, then position for the first
    half_down, half_up = _block_sums(W, le)
    down, up = _block_sums(W, le & _UPPER)
    size = W.size
    pos = np.arange(size)
    for lg in range(_LOG_BLOCK, _LOG_BLOCK + _merge_levels(size)):
        offset = (pos >> (lg + 1)) * size  # ranks are below size
        sub = rest.copy()
        sub[:, 0] += offset
        sub[:, 1] -= offset
        block_down, block_up = _zeta_both(sub, W)
        right = (pos >> lg) & 1
        down += right * (block_down - half_down)
        up += (1 - right) * (block_up - half_up)
        half_down, half_up = block_down, block_up
    return down[inv], up[inv]


# ---------------------------------------------------------------------------
# Harmonic evaluation


def psi_vector(psi: CoboundaryCharacter, atoms, phi=None) -> np.ndarray:
    """Potential values over an iterable of atoms, in its order.

    The golden potential is ``psi_golden_array`` of the atoms' coordinate
    rows: ``phi`` when given (the atoms are then not read), else rows built
    by ``atom_coords``; either way it equals ``psi_golden`` bit for bit.
    Any other potential is evaluated atom by atom through ``psi_of``.
    """
    if psi.psi is psi_golden:
        if phi is None:
            rows = [atom_coords(a) for a in atoms]
            phi = np.array(rows) if rows else np.empty((0, 2))
        return psi_golden_array(phi)
    return np.array([psi.psi_of(a) for a in atoms], dtype=np.float64)


def harmonic_nets(xi: VirtualDiagram) -> np.ndarray:
    """Exact net multiplicities of the self-aggregate via dominance sums.

    The net of atom a is xi_a * (Z-(a) - Z+(a)), in ``xi.entries`` order:
    the same int64 vector that ``coboundary_net_multiplicities`` collects
    from an explicit aggregate.  Raises ``CoefficientOverflow`` exactly
    where the explicit routes do: when max|c|^2 leaves int64 (the self
    class (a, a)), or when an exact net does.
    """
    if xi.level != 1:
        raise PreorderUnavailable(
            "no coordinate representation at this level; use quadratic_phase"
        )
    phi, coeff = level1_arrays(xi)
    if not coeff.size:
        return np.zeros(0, dtype=np.int64)
    cmax = max(int(coeff.max()), -int(coeff.min()))
    if cmax * cmax > _I64_MAX:
        raise CoefficientOverflow("pairwise products exceed 64-bit range")
    # past the self-class check max|c| < 2^31.5, so sum|c| < 2^63 for any
    # diagram under 2^31 atoms: every dominance sum, and d = Z- - Z+
    # (|d| <= sum|c|), is exact in int64
    z_down, z_up = _zeta_both(phi, coeff)
    d = z_down - z_up
    if cmax * cmax * coeff.size > _I64_MAX:
        # |c * d| <= max|c| * sum|c| may leave int64: require
        # |d| <= (2^63 - 1 + [c * d < 0]) // |c| per atom, in uint64, where
        # the magnitude 2^63 of a net of exactly -2^63 fits
        limit = (np.uint64(_I64_MAX) + ((coeff < 0) != (d < 0))) // np.maximum(
            np.abs(coeff).view(np.uint64), 1
        )
        if np.any(np.abs(d).view(np.uint64) > limit):
            raise CoefficientOverflow("a net multiplicity leaves the 64-bit range")
    return coeff * d


def harmonic_eval_raw(xi: VirtualDiagram, psi: CoboundaryCharacter) -> float:
    """Unwrapped coboundary phase of the self-aggregate via dominance sums.

    S = sum_v psi(v) xi_v Z-(v) - sum_u psi(u) xi_u Z+(u): the exact nets of
    ``harmonic_nets`` in one double-precision dot product with psi, the
    golden one read off the same coordinate rows as the nets.
    """
    if psi.level != xi.level:
        raise LevelMismatch("potential level mismatch")
    net = harmonic_nets(xi)
    psi_vec = psi_vector(psi, map(_ATOM, xi.entries), level1_arrays(xi)[0])
    return float(np.dot(psi_vec, net.astype(np.float64)))


def harmonic_eval(xi: VirtualDiagram, psi: CoboundaryCharacter) -> float:
    """Coboundary phase of the self-aggregate, reduced mod 2*pi."""
    return wrap_angle(harmonic_eval_raw(xi, psi))


def iterated_character_phase(xi: VirtualDiagram, s: int, theta) -> float:
    """Depth-s labeled-tree phase: ``theta`` on the tree expansion of xi,
    which equals the character of the iterated aggregate."""
    return evaluate_character(theta, tree_expansion_oracle(xi, s))


__all__ = [
    "Character",
    "CoboundaryCharacter",
    "MissingAngle",
    "angles_close",
    "coboundary_net_multiplicities",
    "coboundary_phase_raw",
    "dominance_sums",
    "evaluate_character",
    "harmonic_eval",
    "harmonic_eval_raw",
    "harmonic_nets",
    "iterated_character_phase",
    "quadratic_phase",
    "transform_ops",
    "wrap_angle",
]
