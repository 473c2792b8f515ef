"""Preorder-constrained aggregation of signed diagrams.

The bilinear operator sends two level-n signed diagrams to the level-(n+1)
signed diagram of preorder-compatible ordered pairs.  The literal pair loop
is the timed baseline; a vectorized pair-enumeration kernel with identical
semantics serves large supports (it still visits every ordered pair, it just
does so in blocks).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .core import (
    Atom,
    CoefficientOverflow,
    LevelMismatch,
    LinearDiagram,
    VirtualDiagram,
    _I64_MAX,
    _virtual_diagram,
    atom,
    atom_leq,
    level1_rows,
    linear_diagram,
    singleton_diagram,
)

_ATOM, _COEFF = itemgetter(0), itemgetter(1)
# rows of the self-aggregate mask that ``self_aggregate_pairs`` builds at a time
_PAIR_BLOCK = 1024
# most classes (support squared, or labelings) an iterated expansion may build
_EXPANSION_GUARD = 1_000_000


class ExpansionGuardExceeded(RuntimeError):
    """Iterated aggregation would exceed ``_EXPANSION_GUARD`` classes."""


def pair_class(u: Atom, v: Atom) -> Atom:
    """The level-(n+1) atom [(u, v)] with singleton-diagram endpoints."""
    return atom(singleton_diagram(u), singleton_diagram(v))


def bilinear_aggregate(G: VirtualDiagram, L: VirtualDiagram) -> VirtualDiagram:
    """Sum of G(u) * L(v) * [(u, v)] over ordered pairs with u <= v.

    Diagonal classes are always dropped: they are the basepoint, angle 0
    under every character.  A class coefficient outside int64 raises
    ``CoefficientOverflow``, as on every route; a clamped one would no
    longer be the product c_u * c_v that the dominance sums reproduce.

    Each atom's singleton diagram, the endpoint of its classes, is looked
    up (interned if new) once per atom of G and of L, not once per pair.
    In a self-aggregate every atom is an endpoint of its own class (u, u),
    so that interns no diagram the pair classes would not.
    """
    if G.level != L.level:
        raise LevelMismatch("aggregation needs equal levels")
    left = [(u, singleton_diagram(u), cu) for u, cu in G.entries]
    right = left if L is G else [(v, singleton_diagram(v), cv) for v, cv in L.entries]
    classes = (
        (atom(su, sv), cu * cv)
        for u, su, cu in left
        for v, sv, cv in right
        # a pair of distinct equivalent atoms is a diagonal class
        if atom_leq(u, v) and (u is v or not atom_leq(v, u))
    )
    # every kept class was screened by the pair loop; skip re-validation
    return _virtual_diagram(classes, G.level + 1, False)


def naive_self_aggregate(xi: VirtualDiagram) -> VirtualDiagram:
    """Literal ordered-pair loop over supp(xi)^2; the timed baseline."""
    return bilinear_aggregate(xi, xi)


class PairAggregate:
    """Array-backed self-aggregate: class k is the pair (base[i[k]], base[j[k]]).

    Produced by the vectorized kernel so that large aggregates can be held and
    evaluated without materializing one interned atom per class.  Each (i, j)
    pair occurs at most once, so ``coeff`` is already the coefficient map.
    """

    __slots__ = ("level", "base", "i", "j", "coeff")

    def __init__(self, level, base, i, j, coeff):
        self.level = level
        self.base = base
        self.i = i
        self.j = j
        self.coeff = coeff

    def support_size(self) -> int:
        return int(self.i.size)


def level1_arrays(xi: VirtualDiagram):
    """Coordinate matrix (-births, deaths) and int64 coefficient vector of a
    level-1 signed diagram, in ``entries`` order, cached on ``xi``.

    The warm-up is ``level1_rows`` and one C-level pass over the
    coefficients.  Both arrays are read-only, so no caller can change a
    later phase through the cache, which lives on this instance only.
    """
    cached = getattr(xi, "_arrays", None)
    if cached is None:
        if xi.level != 1:
            raise LevelMismatch("coordinate arrays exist at level 1 only")
        phi = level1_rows(map(_ATOM, xi.entries))
        coeff = np.fromiter(map(_COEFF, xi.entries), dtype=np.int64, count=len(phi))
        coeff.flags.writeable = False
        cached = xi._arrays = (phi, coeff)
    return cached


def self_aggregate_pairs(xi: VirtualDiagram) -> PairAggregate:
    """Vectorized ordered-pair enumeration of the self-aggregate (level 1).

    Identical output to ``naive_self_aggregate``: every ordered pair is
    visited and tested against the coordinate preorder, ``_PAIR_BLOCK`` rows
    at a time, so the cost stays quadratic in the support.  Each block's
    boolean mask is read back as flat indices split by ``divmod``, which
    lists the same pairs in the same row-major order as a 2-D ``np.nonzero``
    at a fraction of its cost on sparse masks.  Distinct interned atoms have
    distinct coordinates, so no class is diagonal and no two pairs share a
    class.
    """
    phi, coeff = level1_arrays(xi)
    n, r = phi.shape
    cmax = int(np.abs(coeff).max()) if n else 0
    if cmax * cmax > _I64_MAX:
        raise CoefficientOverflow("pairwise products exceed 64-bit range")
    base = [a for a, _ in xi.entries]
    # empty seeds keep the concatenation defined when n = 0
    ii, jj = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    buf = np.empty((min(_PAIR_BLOCK, n), n), dtype=bool)
    tmp = np.empty_like(buf)
    for lo in range(0, n, _PAIR_BLOCK):
        hi = min(n, lo + _PAIR_BLOCK)
        k = hi - lo
        mask = np.less_equal(phi[lo:hi, 0, None], phi[:, 0], out=buf[:k])
        for col in range(1, r):
            np.less_equal(phi[lo:hi, col, None], phi[:, col], out=tmp[:k])
            np.logical_and(mask, tmp[:k], out=mask)
        bi, bj = np.divmod(np.flatnonzero(mask), n)
        ii.append(bi + lo)
        jj.append(bj)
    i = np.concatenate(ii)
    j = np.concatenate(jj)
    return PairAggregate(xi.level + 1, base, i, j, coeff[i] * coeff[j])


def _sum_of(parts: Iterable[VirtualDiagram]) -> VirtualDiagram:
    """``parts[0] + parts[1] + ...`` (the same int64 and level checks) in one
    accumulation and one sort, each part read once as it arrives."""
    parts = iter(parts)
    first = next(parts, None)
    if first is None:
        raise ValueError("an aggregate sum needs at least one diagram")

    def entries():
        for part in itertools.chain((first,), parts):
            if part.level != first.level:
                raise LevelMismatch("level mismatch")
            yield from part.entries

    return _virtual_diagram(entries(), first.level, False)


def _mean_of(parts: Iterable[VirtualDiagram], m: int) -> LinearDiagram:
    """``_sum_of(parts) / m``; its entries are sorted and nonzero already.
    A ``Fraction`` is immutable, so each distinct quotient is built once."""
    total = _sum_of(parts)
    coeffs = list(map(_COEFF, total.entries))
    quotient = {c: Fraction(c, m) for c in set(coeffs)}
    atoms = map(_ATOM, total.entries)
    return LinearDiagram(total.level, tuple(zip(atoms, map(quotient.__getitem__, coeffs))))


def sum_aggregate(diagrams: Sequence[VirtualDiagram]) -> VirtualDiagram:
    return _sum_of(bilinear_aggregate(g, g) for g in diagrams)


def mean_aggregate(diagrams: Sequence[VirtualDiagram]) -> LinearDiagram:
    """Sum aggregate divided by the sample count, exact rational coefficients.

    One literal pair loop (``bilinear_aggregate``) per sample, one
    accumulation and sort of their classes, and one ``Fraction(c, m)`` per
    distinct summed coefficient c, shared by the classes that hold it.
    """
    return _mean_of((bilinear_aggregate(g, g) for g in diagrams), len(diagrams))


def iterated_aggregate(xi: VirtualDiagram, s: int) -> VirtualDiagram:
    """s-fold self-aggregation Xi_s; support squares at each step (guarded)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    current = xi
    for _ in range(s):
        size = current.support_size()
        if size * size > _EXPANSION_GUARD:
            raise ExpansionGuardExceeded(
                f"support {size} would expand past guard {_EXPANSION_GUARD}"
            )
        current = bilinear_aggregate(current, current)
    return current


def tree_expansion_oracle(xi: VirtualDiagram, s: int) -> VirtualDiagram:
    """Direct sum over all leaf labelings of the depth-s binary tree.

    Independent of ``iterated_aggregate``: builds each nested class from its
    labeling, multiplies the leaf coefficients, and applies the preorder
    indicator at every internal vertex.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    n, leaves = xi.support_size(), 2**s
    if n**leaves > _EXPANSION_GUARD:
        raise ExpansionGuardExceeded(f"{n}^{leaves} labelings exceed guard {_EXPANSION_GUARD}")

    def classes():
        for labeling in itertools.product(xi.entries, repeat=leaves):
            nodes = [a for a, _ in labeling]
            ok = True
            while len(nodes) > 1 and ok:
                nxt = []
                for left, right in zip(nodes[::2], nodes[1::2]):
                    if not atom_leq(left, right) or (left is not right and atom_leq(right, left)):
                        ok = False
                        break
                    nxt.append(pair_class(left, right))
                nodes = nxt
            if ok:
                yield nodes[0], math.prod(c for _, c in labeling)

    return _virtual_diagram(classes(), xi.level + s, False)


__all__ = [
    "ExpansionGuardExceeded",
    "PairAggregate",
    "bilinear_aggregate",
    "iterated_aggregate",
    "level1_arrays",
    # re-exported: the traced benchmark times aggregation.linear_diagram
    "linear_diagram",
    "mean_aggregate",
    "naive_self_aggregate",
    "pair_class",
    "self_aggregate_pairs",
    "sum_aggregate",
    "tree_expansion_oracle",
]
