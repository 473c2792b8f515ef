"""Preorder-constrained aggregation of signed diagrams.

The bilinear operator sends two level-n signed diagrams to the level-(n+1)
signed diagram of preorder-compatible ordered pairs.  The literal pair loop
is the timed baseline; a vectorized pair-enumeration kernel with identical
semantics serves large supports (it still visits every ordered pair, it just
does so in blocks).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    Atom,
    CoefficientOverflow,
    DEFAULT_PREORDER,
    LevelMismatch,
    LinearDiagram,
    PreorderSpec,
    VirtualDiagram,
    _I64_MAX,
    _check_i64,
    atom,
    atom_leq,
    diagram,
    linear_diagram,
    virtual_diagram,
)


class ExpansionGuardExceeded(RuntimeError):
    """Iterated aggregation would exceed the configured size budget."""


@dataclass(frozen=True)
class AggregateOptions:
    """drop_diagonal_classes keeps the basepoint identification (angle 0 on
    diagonal classes) by construction.

    There is no overflow option: a class coefficient outside int64 raises
    ``CoefficientOverflow`` on every route.  A clamped coefficient would no
    longer be the product c_u * c_v, so no dominance-sum route could
    reproduce it.
    """

    drop_diagonal_classes: bool = True


DEFAULT_OPTIONS = AggregateOptions()


def pair_class(u: Atom, v: Atom) -> Atom:
    """The level-(n+1) atom [(u, v)] with singleton-diagram endpoints."""
    return atom(diagram({u: 1}), diagram({v: 1}))


def pair_is_diagonal(u: Atom, v: Atom, spec: PreorderSpec = DEFAULT_PREORDER) -> bool:
    """Whether the class [(u, v)] collapses to the basepoint.

    Distinct but preorder-equivalent atoms give a degenerate pair; a pair of
    an atom with itself is a genuine self-containment class and is kept.
    """
    if u is v:
        return False
    return atom_leq(u, v, spec) and atom_leq(v, u, spec)


def bilinear_aggregate(
    G: VirtualDiagram,
    L: VirtualDiagram,
    options: AggregateOptions = DEFAULT_OPTIONS,
    spec: PreorderSpec = DEFAULT_PREORDER,
) -> VirtualDiagram:
    """Sum of G(u) * L(v) * [(u, v)] over ordered pairs with u <= v."""
    if G.level != L.level:
        raise LevelMismatch("aggregation needs equal levels")
    acc: dict[Atom, int] = {}
    for u, cu in G.entries:
        for v, cv in L.entries:
            if not atom_leq(u, v, spec):
                continue
            if options.drop_diagonal_classes and pair_is_diagonal(u, v, spec):
                continue
            key = pair_class(u, v)
            acc[key] = _check_i64(acc.get(key, 0) + cu * cv)
    # every kept class was screened by the pair loop; skip re-validation
    return virtual_diagram(acc, level=G.level + 1, validate=False)


def naive_self_aggregate(
    xi: VirtualDiagram,
    options: AggregateOptions = DEFAULT_OPTIONS,
    spec: PreorderSpec = DEFAULT_PREORDER,
) -> VirtualDiagram:
    """Literal ordered-pair loop over supp(xi)^2; the timed baseline."""
    return bilinear_aggregate(xi, xi, options, spec)


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

    def to_virtual_diagram(self) -> VirtualDiagram:
        entries = {
            pair_class(self.base[i], self.base[j]): int(c)
            for i, j, c in zip(self.i, self.j, self.coeff)
        }
        return virtual_diagram(entries, level=self.level)


def level1_arrays(xi: VirtualDiagram):
    """Cached coordinate matrix (-births, deaths) and coefficient vector."""
    cached = xi._cache.get("phi")
    if cached is None:
        if xi.level != 1:
            raise LevelMismatch("coordinate arrays exist at level 1 only")
        if not xi.entries:
            cached = (np.empty((0, 2)), np.empty(0, dtype=np.int64))
        else:
            atoms, coeffs = zip(*xi.entries)
            # one row of minus then plus coordinates per atom (a row of another
            # width raises); negating the minus half gives atom_coords
            dim = len(atoms[0].minus.coords)
            phi = np.fromiter(
                (a.minus.coords + a.plus.coords for a in atoms),
                dtype=(np.float64, 2 * dim),
                count=len(atoms),
            )
            phi[:, :dim] *= -1
            cached = (phi, np.array(coeffs, dtype=np.int64))
        xi._cache["phi"] = cached
    return cached


def self_aggregate_pairs(xi: VirtualDiagram, block: int = 1024) -> PairAggregate:
    """Vectorized ordered-pair enumeration of the self-aggregate (level 1).

    Identical output to ``naive_self_aggregate``: every ordered pair is
    visited and tested against the coordinate preorder.  Distinct interned
    atoms have distinct coordinates, so no class is diagonal and no two pairs
    share a class.
    """
    phi, coeff = level1_arrays(xi)
    n, r = phi.shape
    cmax = int(np.abs(coeff).max()) if n else 0
    if cmax * cmax > _I64_MAX:
        raise CoefficientOverflow("pairwise products exceed 64-bit range")
    base = [a for a, _ in xi.entries]
    if n <= block:
        mask = phi[:, 0, None] <= phi[None, :, 0]
        for col in range(1, r):
            mask &= phi[:, col, None] <= phi[None, :, col]
        i, j = np.nonzero(mask)
        return PairAggregate(xi.level + 1, base, i, j, coeff[i] * coeff[j])
    ii, jj = [], []
    buf = np.empty((block, n), dtype=bool)
    tmp = np.empty_like(buf)
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        k = hi - lo
        mask = np.less_equal(phi[lo:hi, 0, None], phi[:, 0], out=buf[:k])
        for col in range(1, r):
            np.less_equal(phi[lo:hi, col, None], phi[:, col], out=tmp[:k])
            np.logical_and(mask, tmp[:k], out=mask)
        bi, bj = np.nonzero(mask)
        ii.append(bi + lo)
        jj.append(bj)
    i = np.concatenate(ii)
    j = np.concatenate(jj)
    return PairAggregate(xi.level + 1, base, i, j, coeff[i] * coeff[j])


def sum_aggregate(
    diagrams: Sequence[VirtualDiagram],
    options: AggregateOptions = DEFAULT_OPTIONS,
    spec: PreorderSpec = DEFAULT_PREORDER,
) -> VirtualDiagram:
    if not diagrams:
        raise ValueError("sum_aggregate needs at least one diagram")
    total = None
    for g in diagrams:
        part = bilinear_aggregate(g, g, options, spec)
        total = part if total is None else total + part
    return total


def mean_aggregate(
    diagrams: Sequence[VirtualDiagram],
    options: AggregateOptions = DEFAULT_OPTIONS,
    spec: PreorderSpec = DEFAULT_PREORDER,
) -> LinearDiagram:
    """Sum aggregate divided by the sample count, exact rational coefficients."""
    total = sum_aggregate(diagrams, options, spec)
    m = len(diagrams)
    return linear_diagram(
        {a: Fraction(c, m) for a, c in total.entries}, level=total.level
    )


def iterated_aggregate(
    xi: VirtualDiagram,
    s: int,
    options: AggregateOptions = DEFAULT_OPTIONS,
    spec: PreorderSpec = DEFAULT_PREORDER,
    guard: int = 1_000_000,
) -> VirtualDiagram:
    """s-fold self-aggregation Xi_s; support squares at each step (guarded)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    current = xi
    for _ in range(s):
        size = current.support_size()
        if size * size > guard:
            raise ExpansionGuardExceeded(
                f"support {size} would expand past guard {guard}"
            )
        current = bilinear_aggregate(current, current, options, spec)
    return current


def tree_expansion_oracle(
    xi: VirtualDiagram,
    s: int,
    options: AggregateOptions = DEFAULT_OPTIONS,
    spec: PreorderSpec = DEFAULT_PREORDER,
    guard: int = 1_000_000,
) -> VirtualDiagram:
    """Direct sum over all leaf labelings of the depth-s binary tree.

    Independent of ``iterated_aggregate``: builds each nested class from its
    labeling, multiplies the leaf coefficients, and applies the preorder
    indicator at every internal vertex.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    supp = [a for a, _ in xi.entries]
    coeffs = {a: c for a, c in xi.entries}
    leaves = 2**s
    if len(supp) ** leaves > guard:
        raise ExpansionGuardExceeded(
            f"{len(supp)}^{leaves} labelings exceed guard {guard}"
        )
    acc: dict[Atom, int] = {}
    for labeling in itertools.product(supp, repeat=leaves):
        weight = 1
        for leaf in labeling:
            weight *= coeffs[leaf]
        nodes = list(labeling)
        ok = True
        while len(nodes) > 1 and ok:
            nxt = []
            for left, right in zip(nodes[::2], nodes[1::2]):
                if not atom_leq(left, right, spec):
                    ok = False
                    break
                if options.drop_diagonal_classes and pair_is_diagonal(left, right, spec):
                    ok = False
                    break
                nxt.append(pair_class(left, right))
            nodes = nxt
        if ok:
            acc[nodes[0]] = _check_i64(acc.get(nodes[0], 0) + weight)
    return virtual_diagram(acc, level=xi.level + s, validate=False)


__all__ = [
    "AggregateOptions",
    "DEFAULT_OPTIONS",
    "ExpansionGuardExceeded",
    "PairAggregate",
    "bilinear_aggregate",
    "iterated_aggregate",
    "level1_arrays",
    "mean_aggregate",
    "naive_self_aggregate",
    "pair_class",
    "pair_is_diagonal",
    "self_aggregate_pairs",
    "sum_aggregate",
    "tree_expansion_oracle",
]
