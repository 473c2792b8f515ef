"""Recursive interval hierarchy: ground points, atoms, diagrams, signed diagrams.

Level 0 is a coordinate ground space (default: the real line with its usual
order).  A level-1 atom is an ordered pair of ground points (a birth-death
interval).  For n >= 2, a level-n atom is an ordered pair of level-(n-1)
diagrams.  Diagrams are finite multisets of same-level atoms; signed
("virtual") diagrams allow negative multiplicities and real-linear diagrams
allow rational/real coefficients.

All values are interned: structurally equal objects are the same Python
object, carry a dense integer ``uid``, and are immutable.  Intern ids are
stable within a run only; canonical ordering of diagram entries uses a
structural sort key so serialization is bit-stable across runs.  A hit in
the intern table is one dict lookup; a miss takes ``_INTERN_LOCK`` once.
A level-1 atom carries its coordinate row (-births, deaths) as float64
bytes in ``Atom.row``, packed before the atom is published, so a diagram's
coordinate matrix is one join of its atoms' rows.  The row is also its
intern key.  ``interval`` interns only the atom; its ground points are
interned when ``minus`` or ``plus`` is first read, and readers that need
coordinates alone (``atom_leq``, ``atom_coords``, storage validation) read
``sort_key`` or ``row`` instead.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
import threading
from operator import attrgetter, le
from typing import Iterable, Mapping, Sequence, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

INF = math.inf
# Sums of p-th powers (1 < p < inf) are read as they are between _POW_TINY,
# above which underflow cost at most rounding, and the float range's end
# (`wasserstein._POW_HUGE` for its capped powers).  A sum outside is
# recomputed on rescaled values.
_POW_TINY = 2.0**-960
# level-1 maps of at least this many atoms are put in canonical order by one
# np.lexsort over their coordinate rows, smaller ones by Python's sort: the
# lexsort is 2x faster on shuffled maps of 300 atoms or more, within 10% on a
# difference of two sorted diagrams (two runs, which Python's sort merges),
# and slower below 30; graph H1 diagrams and their differences hold 6-180 atoms
_LEXSORT_MIN = 256

_INTERN_LOCK = threading.Lock()
_INTERN: dict = {}
_NEXT_UID = 0


class CoefficientOverflow(ArithmeticError):
    """Signed multiplicity left the 64-bit range; never silently wrapped."""


class LevelMismatch(ValueError):
    pass


class PreorderUnavailable(RuntimeError):
    """No comparison rule is configured for the requested level."""


_I64_MAX = 2**63 - 1
_I64_MIN = -(2**63)


def _check_i64(value: int) -> int:
    if value > _I64_MAX or value < _I64_MIN:
        raise CoefficientOverflow(f"coefficient {value} exceeds 64-bit range")
    return value


def _add(key, obj):
    """Under ``_INTERN_LOCK``: publish ``obj``, built with the next intern
    id, under ``key``, unless another thread published ``key`` first; the
    interned object either way.  One hash of ``key``; a build that lost the
    race is dropped and does not consume its id."""
    global _NEXT_UID
    got = _INTERN.setdefault(key, obj)
    if got is obj:
        _NEXT_UID += 1
    return got


def intern_table_size() -> int:
    """Entries in the intern table: one per interned value.  The ground
    points of an atom made by ``interval`` count once its ``minus`` or
    ``plus`` is read (or they are interned some other way)."""
    return len(_INTERN)


class GroundPoint:
    """A point of the ground space: a tuple of filtration coordinates."""

    __slots__ = ("coords", "uid", "sort_key")

    def __init__(self, coords, uid):
        self.coords = coords
        self.uid = uid
        self.sort_key = coords

    level = 0

    def __repr__(self):
        return f"GroundPoint{self.coords}"


def _add_point(key) -> GroundPoint:
    """Under ``_INTERN_LOCK``: ``_add`` the point of a missed ``key``, storing
    a -0.0, which the key cannot tell from 0.0, as 0.0; only then is the key
    rebuilt, so the table and the point share one coordinate tuple."""
    cs = key[1]
    if 0.0 in cs:
        cs = tuple(c + 0.0 for c in cs)
        key = ("p", cs)
    return _add(key, GroundPoint(cs, _NEXT_UID))


def _check_coords(cs: tuple) -> None:
    """A ground point's coordinates: at least one, no NaN, no -inf, and
    +inf only in the last."""
    if not cs:
        raise ValueError("ground point needs at least one coordinate")
    for c in cs:
        if c != c:
            raise ValueError("NaN coordinate")
        if c == -INF:
            raise ValueError("-inf coordinate not permitted")
    if INF in cs[:-1]:
        raise ValueError("+inf permitted only in the last coordinate")


def ground(*coords: float) -> GroundPoint:
    # a lone coordinate takes one float(): tuple(map(float, ...)) costs about
    # 0.3 us more (ground_variants in BENCH_warmup.json)
    cs = (float(coords[0]),) if len(coords) == 1 else tuple(map(float, coords))
    key = ("p", cs)
    # only valid points are interned (a NaN key never compares equal), so a
    # hit needs no validation
    point = _INTERN.get(key)
    if point is None:
        _check_coords(cs)
        with _INTERN_LOCK:
            point = _add_point(key)
    return point


class Atom:
    """Level-n interval: an ordered (minus, plus) pair of level-(n-1) objects.

    ``row`` is a level-1 atom's coordinate row, the float64 bytes of its
    ``atom_coords``, and its intern key; above level 1 it is None.
    """

    __slots__ = ("level", "minus", "plus", "uid", "sort_key", "row")

    def __init__(self, level, minus, plus, uid, row):
        self.level = level
        self.minus = minus
        self.plus = plus
        self.uid = uid
        self.sort_key = (minus.sort_key, plus.sort_key)
        self.row = row

    def __repr__(self):
        if self.level == 1:  # from the coordinates: interns no ground point
            b, d = (cs[0] if len(cs) == 1 else cs for cs in self.sort_key)
            return f"Atom({b}, {d})"
        return f"Atom(level={self.level}, {self.minus!r}, {self.plus!r})"


_SET_MINUS, _SET_PLUS = Atom.minus.__set__, Atom.plus.__set__


class _Interval(Atom):
    """A level-1 atom that ``interval`` interned without its ground points.

    Its first read of ``minus`` or ``plus`` interns both points, fills the
    base slots and turns it into a plain ``Atom``, so each later read is a
    slot read.  ``sort_key`` is ((birth,), (death,)), as from the points.
    """

    __slots__ = ()

    def __init__(self, row, sort_key, uid):
        self.level = 1
        self.uid = uid
        self.sort_key = sort_key
        self.row = row

    @property
    def minus(self):
        return _intern_endpoints(self).minus

    @property
    def plus(self):
        return _intern_endpoints(self).plus


def _intern_endpoints(a: _Interval) -> Atom:
    """``a`` as a plain ``Atom``, its ground points interned; under
    ``_INTERN_LOCK``, so a thread that lost the race finds ``a`` filled."""
    with _INTERN_LOCK:
        if type(a) is _Interval:
            minus, plus = (_INTERN.get(("p", cs)) or _add_point(("p", cs)) for cs in a.sort_key)
            _SET_MINUS(a, minus)
            _SET_PLUS(a, plus)
            a.__class__ = Atom
    return a


Endpoint = Union[GroundPoint, "Diagram"]


_ENDPOINTS = "endpoints must both be ground points or both diagrams"
_DIMENSIONS = "ground points of different dimensions"
# ``interval``'s row: a precompiled pack takes about half the time of struct.pack
_PACK_1D = struct.Struct("2d").pack


def atom(minus: Endpoint, plus: Endpoint) -> Atom:
    # an intern id names one object and only checked pairs are interned, so
    # a hit needs no checks; level-1 atoms are keyed by their row instead
    try:
        key = ("a", minus.uid, plus.uid)
    except AttributeError:
        raise LevelMismatch(_ENDPOINTS) from None
    a = _INTERN.get(key)
    if a is not None:
        return a
    if isinstance(minus, GroundPoint) and isinstance(plus, GroundPoint):
        cs, ds = minus.coords, plus.coords
        if len(cs) != len(ds):
            raise LevelMismatch("endpoint dimension mismatch")
        row = struct.pack(f"{2 * len(cs)}d", *[-c for c in cs], *ds)
        a = _INTERN.get(row)
        if a is None:
            with _INTERN_LOCK:
                a = _add(row, Atom(1, minus, plus, _NEXT_UID, row))
        return a
    if isinstance(minus, Diagram) and isinstance(plus, Diagram):
        if minus.level != plus.level:
            raise LevelMismatch("endpoint level mismatch")
        with _INTERN_LOCK:
            return _add(key, Atom(minus.level + 1, minus, plus, _NEXT_UID, None))
    raise LevelMismatch(_ENDPOINTS)


def interval(birth: float, death: float) -> Atom:
    """Level-1 atom over a one-dimensional ground space: ``atom(ground(birth),
    ground(death))``, the same object whichever is called first.

    It is looked up by its row alone.  A miss interns one object, whose
    ground points are interned on the first read of ``minus`` or ``plus``.
    """
    # + 0.0 stores a -0.0 as 0.0, as ground does, so the row negates 0.0
    b, d = float(birth) + 0.0, float(death) + 0.0
    row = _PACK_1D(-b, d)
    a = _INTERN.get(row)
    if a is None:
        cs, ds = (b,), (d,)
        _check_coords(cs)
        _check_coords(ds)
        with _INTERN_LOCK:
            a = _add(row, _Interval(row, (cs, ds), _NEXT_UID))
    return a


class _EntryMap:
    """A level and its entries: (atom, coefficient) pairs with nonzero
    coefficients, sorted by the atoms' structural ``sort_key``.  Compared by
    value: equal type, level and entries."""

    __slots__ = ("level", "entries")

    def __init__(self, level, entries):
        self.level = level
        self.entries = entries

    def support(self):
        return [a for a, _ in self.entries]

    def coefficient(self, a: Atom):
        for b, c in self.entries:
            if b is a:
                return c
        return 0

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.level == other.level
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.level, self.entries))

    def __repr__(self):
        inner = ", ".join(f"{a!r}*{c}" for a, c in self.entries)
        return f"{type(self).__name__}(level={self.level}, {{{inner}}})"


def _canonical(acc: dict, level: int | None, validate: bool) -> tuple[int, tuple]:
    """The level and sorted entries of the accumulated map ``acc``.

    Zero coefficients are deleted from ``acc`` unchecked.  The others must
    share one level and, at level 1, one ground dimension
    (``LevelMismatch``), and under ``validate`` none may be a basepoint atom
    (``ValueError``); an empty map needs ``level``.  A level-1 map of at
    least ``_LEXSORT_MIN`` atoms is sorted by one ``np.lexsort`` over its
    coordinate rows, in the ``sort_key`` order; any other by Python's sort.
    """
    zeros = []
    for a, c in acc.items():
        if not c:
            zeros.append(a)
            continue
        if level is None:
            level = a.level
        elif a.level != level:
            raise LevelMismatch("mixed atom levels")
        # a level-1 atom is degenerate when its ground points, so their
        # coordinates, are equal
        if validate and (a.sort_key[0] == a.sort_key[1] if level == 1
                         else is_basepoint_pair(a.minus, a.plus)):
            raise ValueError(f"diagonal atom {a!r} cannot be stored")
    if level is None:
        raise ValueError("empty diagram needs an explicit level")
    for a in zeros:
        del acc[a]
    if level == 1 and len(acc) >= _LEXSORT_MIN:
        phi = level1_rows(acc)  # LevelMismatch on mixed ground dimensions
        k = phi.shape[1] // 2  # coordinates per ground point
        # births, then deaths: the sort_key's columns; np.lexsort sorts
        # by its last key first, and distinct atoms never tie
        cols = np.hstack((-phi[:, :k], phi[:, k:]))
        order = np.lexsort(cols.T[::-1]).tolist()
        # pairs built in canonical order lie in memory in that order,
        # which is the order the warm-up reads them in
        atoms, coeffs = list(acc), list(acc.values())
        return level, tuple(zip(map(atoms.__getitem__, order), map(coeffs.__getitem__, order)))
    if level == 1 and len({len(a.row) for a in acc}) > 1:
        raise LevelMismatch(_DIMENSIONS)
    return level, tuple(sorted(acc.items(), key=lambda kv: kv[0].sort_key))


class Diagram(_EntryMap):
    """Finite multiset of same-level atoms with positive multiplicities."""

    __slots__ = ("uid", "sort_key")
    # interned: equal diagrams are one object
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, level, entries, uid):
        super().__init__(level, entries)
        self.uid = uid
        self.sort_key = tuple((a.sort_key, m) for a, m in entries)

    def __len__(self):
        return sum(m for _, m in self.entries)

    def atoms(self):
        """Atoms listed with multiplicity."""
        out = []
        for a, m in self.entries:
            out.extend([a] * m)
        return out

    def __add__(self, other: "Diagram") -> "Diagram":
        if self.level != other.level:
            raise LevelMismatch("diagram level mismatch")
        return diagram(self.entries + other.entries, level=self.level)

    def to_virtual(self) -> "VirtualDiagram":
        return VirtualDiagram(self.level, self.entries)


def is_basepoint_pair(minus: Endpoint, plus: Endpoint) -> bool:
    """Whether the pair (minus, plus) is identified with zero when stored.

    Level-1 pairs of equal ground points are degenerate intervals.  At higher
    levels only *distinct* but preorder-equivalent endpoint diagrams collapse
    to the basepoint; an atom paired with itself is a genuine self-containment
    class and is kept.
    """
    if minus is plus:
        return isinstance(minus, GroundPoint)
    if isinstance(minus, GroundPoint):
        # distinct interned ground points always differ in coordinates
        return False
    return diagram_leq(minus, plus) and diagram_leq(plus, minus)


def diagram(entries: Mapping[Atom, int] | Iterable[tuple[Atom, int]],
            level: int | None = None) -> Diagram:
    if isinstance(entries, Mapping):
        entries = entries.items()
    acc: dict[Atom, int] = {}
    for a, m in entries:
        if m < 0:
            raise ValueError("diagram multiplicities must be positive")
        acc[a] = acc.get(a, 0) + m
    level, items = _canonical(acc, level, True)
    key = ("d", level, tuple((a.uid, m) for a, m in items))
    d = _INTERN.get(key)
    if d is None:
        with _INTERN_LOCK:
            d = _add(key, Diagram(level, items, _NEXT_UID))
    return d


def singleton_diagram(a: Atom) -> Diagram:
    """``diagram({a: 1})``; when it is interned already, one lookup."""
    d = _INTERN.get(("d", a.level, ((a.uid, 1),)))
    return diagram({a: 1}) if d is None else d


def empty_diagram(level: int) -> Diagram:
    return diagram({}, level=level)


class VirtualDiagram(_EntryMap):
    """Signed diagram: finite map from atoms to nonzero 64-bit multiplicities."""

    __slots__ = ("_arrays",)  # set only by aggregation.level1_arrays, its cache

    def support_size(self) -> int:
        return len(self.entries)

    # sums and differences create no new atom, so the operands' validation stands
    def __add__(self, other: "VirtualDiagram") -> "VirtualDiagram":
        if self.level != other.level:
            raise LevelMismatch("level mismatch")
        return _virtual_diagram(self.entries + other.entries, self.level, False)

    def __sub__(self, other: "VirtualDiagram") -> "VirtualDiagram":
        if self.level != other.level:
            raise LevelMismatch("level mismatch")
        entries = itertools.chain(self.entries, ((a, -c) for a, c in other.entries))
        return _virtual_diagram(entries, self.level, False)

    def __neg__(self) -> "VirtualDiagram":
        return VirtualDiagram(self.level, tuple((a, -c) for a, c in self.entries))

    def __rmul__(self, k: int) -> "VirtualDiagram":
        if not isinstance(k, int):
            return NotImplemented
        return _virtual_diagram(((a, k * c) for a, c in self.entries), self.level, False)

    def positive_part(self) -> Diagram:
        return diagram(((a, c) for a, c in self.entries if c > 0), level=self.level)

    def negative_part(self) -> Diagram:
        return diagram(((a, -c) for a, c in self.entries if c < 0), level=self.level)


def virtual_diagram(entries: Mapping[Atom, int] | Iterable[tuple[Atom, int]],
                    level: int | None = None) -> VirtualDiagram:
    if isinstance(entries, Mapping):
        entries = entries.items()
    return _virtual_diagram(entries, level, True)


def _virtual_diagram(entries: Iterable[tuple[Atom, int]], level, validate: bool) -> VirtualDiagram:
    """``virtual_diagram`` of pairs; sums, multiples and aggregations, whose
    atoms are stored already or screened by a pair test, skip ``validate``."""
    acc: dict[Atom, int] = {}
    for a, c in entries:
        acc[a] = _check_i64(acc.get(a, 0) + c)
    return VirtualDiagram(*_canonical(acc, level, validate))


class LinearDiagram(_EntryMap):
    """Real-linear diagram: finite map from atoms to nonzero coefficients.

    Coefficients are exact ``Fraction`` values by default (means of integer
    diagrams stay exact); floats are accepted for downstream numeric use.
    """

    __slots__ = ()


def linear_diagram(entries, level=None) -> LinearDiagram:
    if isinstance(entries, Mapping):
        entries = entries.items()
    acc: dict[Atom, object] = {}
    for a, c in entries:
        acc[a] = acc.get(a, 0) + c
    if any(c != c for c in acc.values()):  # given, or inf - inf of one atom
        raise ValueError("NaN coefficient")
    return LinearDiagram(*_canonical(acc, level, False))


# ---------------------------------------------------------------------------
# Preorders


def ground_leq(p: GroundPoint, q: GroundPoint) -> bool:
    a, b = p.coords, q.coords
    if len(a) != len(b):
        raise LevelMismatch(_DIMENSIONS)
    return a[0] <= b[0] if len(a) == 1 else all(map(le, a, b))


def endpoint_leq(a: Endpoint, b: Endpoint) -> bool:
    if isinstance(a, GroundPoint):
        return ground_leq(a, b)
    return diagram_leq(a, b)


def atom_leq(u: Atom, v: Atom) -> bool:
    """Containment preorder on atoms: reversed on minus, forward on plus.

    Level-1 atoms, whose endpoints are ground points, are compared inline
    on their ``sort_key`` with the comparisons ``ground_leq`` makes, in its
    order, and ``LevelMismatch`` when their ground points differ in
    dimension.  This is the test in the literal pair loop, two calls per
    ordered pair.
    """
    level = u.level
    if level != v.level:
        raise LevelMismatch(f"cannot compare level {level} with {v.level}")
    if u is v:
        return True
    if level == 1:  # the sort_key is (minus.coords, plus.coords)
        b, c = u.sort_key
        a, d = v.sort_key
        if len(a) == 1 == len(c):
            return a[0] <= b[0] and c[0] <= d[0]
        if len(a) != len(c):
            raise LevelMismatch(_DIMENSIONS)
        return all(map(le, a, b)) and all(map(le, c, d))
    return endpoint_leq(v.minus, u.minus) and endpoint_leq(u.plus, v.plus)


def atom_coords(u: Atom):
    """Derived coordinates representing the level-1 preorder: (-birth, death)."""
    if u.level != 1:
        raise PreorderUnavailable("coordinate representation exists at level 1 only")
    row = u.row
    return struct.unpack(f"{len(row) >> 3}d", row)


def level1_rows(atoms: Iterable[Atom]) -> np.ndarray:
    """Coordinate rows of level-1 atoms: an n x 2k read-only view of their joined
    ``row`` bytes, (0, 2) for none; ``LevelMismatch`` on mixed ground dimensions."""
    rows = list(map(attrgetter("row"), atoms))
    try:
        widths = set(map(len, rows))  # a set: 6 ms less than a generator at 10^5 rows
    except TypeError:  # an atom above level 1, whose row is None
        raise PreorderUnavailable("coordinate rows exist at level 1 only") from None
    if len(widths) > 1:
        raise LevelMismatch(_DIMENSIONS)
    return np.frombuffer(b"".join(rows)).reshape(len(rows), widths.pop() // 8 if rows else 2)


def is_diagonal(u: Atom) -> bool:
    """Both preorder directions hold between the endpoints."""
    return endpoint_leq(u.minus, u.plus) and endpoint_leq(u.plus, u.minus)


def left_diagonal_admissible(u: Atom) -> bool:
    """A diagonal witness eta with u <= eta exists iff plus <= minus."""
    return endpoint_leq(u.plus, u.minus)


def right_diagonal_admissible(v: Atom) -> bool:
    """A diagonal witness eta with eta <= v exists iff minus <= plus."""
    return endpoint_leq(v.minus, v.plus)


def _perfect_matching(adj: np.ndarray) -> bool:
    """Whether the square bipartite graph ``adj`` has a perfect matching.

    A minimum assignment on the cost ``~adj`` picks only True cells exactly
    when a perfect matching exists.
    """
    rows, cols = linear_sum_assignment(~adj)
    return bool(adj[rows, cols].all())


def diagram_leq(G: Diagram, L: Diagram) -> bool:
    """Matching-oracle preorder on diagrams.

    True iff some matching pairs G-atoms with L-atoms so that every matched
    pair satisfies ``atom_leq`` and every unmatched atom admits a diagonal
    witness on its side.  Decided by bipartite perfect-matching feasibility
    on the diagonally augmented graph.
    """
    if G.level != L.level:
        raise LevelMismatch("diagram level mismatch")
    if G is L:
        return True
    left = G.atoms()
    right = L.atoms()
    m, n = len(left), len(right)
    size = m + n
    if size == 0:
        return True
    # rows: m atoms of G then n diagonal slots; cols: n atoms of L then m slots
    adj = np.zeros((size, size), dtype=bool)
    for i, u in enumerate(left):
        row = [atom_leq(u, v) for v in right]
        diag = left_diagonal_admissible(u)
        if not (diag or any(row)):
            return False  # u has no neighbour, so no matching covers it
        adj[i, :n] = row
        adj[i, n + i] = diag
    for j, v in enumerate(right):
        adj[m + j, j] = right_diagonal_admissible(v)
    adj[m:, n:] = True
    return _perfect_matching(adj)


# ---------------------------------------------------------------------------
# Level-wise metrics


def norm_p(values: Sequence[float], p: float) -> float:
    if not p >= 1:  # NaN fails too
        raise ValueError("p must be >= 1")
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    if any(math.isinf(v) for v in vals):
        return INF
    if p == INF:
        return max(vals)
    if p == 1:
        return sum(vals)
    try:
        total = sum(v**p for v in vals)
    except OverflowError:  # Python's float power raises where numpy's gives inf
        total = INF
    if _POW_TINY <= total < INF:
        return total ** (1.0 / p)
    top = max(vals)
    if top == 0:
        return 0.0
    # the powers left the float range: divide by the largest value, whose
    # power is then 1, so the sum lies in [1, len(vals)]
    return top * sum((v / top) ** p for v in vals) ** (1.0 / p)


def dist_ground(x: GroundPoint, y: GroundPoint) -> float:
    return 0.0 if x is y else _coords_dist(x.coords, y.coords)


def _coords_dist(xs: tuple, ys: tuple) -> float:
    """``dist_ground`` of two coordinate tuples; ``LevelMismatch`` when their lengths differ."""
    if len(xs) != len(ys):
        raise LevelMismatch(_DIMENSIONS)
    best = 0.0
    for a, b in zip(xs, ys):
        if a == b:
            continue  # covers matching +inf coordinates
        if math.isinf(a) or math.isinf(b):
            return INF
        best = max(best, abs(a - b))
    return best


def _endpoint_dist(a: Endpoint, b: Endpoint, p: float) -> float:
    if isinstance(a, GroundPoint):
        return dist_ground(a, b)
    from . import wasserstein  # levels >= 2 recurse through diagram transport

    return wasserstein.certified_wasserstein(a, b, p=p)


def d_prod(u: Atom, v: Atom, p: float) -> float:
    """p-norm of the two endpoint distances."""
    if u.level != v.level:
        raise LevelMismatch("atom level mismatch")
    if not p >= 1:
        raise ValueError("p must be >= 1")
    if u is v:
        return 0.0
    return norm_p(
        (
            _endpoint_dist(u.minus, v.minus, p),
            _endpoint_dist(u.plus, v.plus, p),
        ),
        p,
    )


def _diag_scale(p: float) -> float:
    """2^(1/p - 1), read as 1/2 at p = inf: a level-1 atom's diagonal
    distance per unit of birth-death gap."""
    return 0.5 if p == INF else 2.0 ** (1.0 / p - 1.0)


def level1_diag_cost(u: Atom, p: float) -> float:
    """Closed-form diagonal distance of a level-1 atom: |d - b| * 2^(1/p - 1),
    with 2^(1/p - 1) read as 1/2 at p = inf; no ground point is interned."""
    gap = _coords_dist(*u.sort_key)
    if gap == 0.0:
        return 0.0
    return gap * _diag_scale(p)


def d_diag(u: Atom, p: float) -> float:
    """Distance from an atom to the diagonal of its level.

    Above level 1 the diagonal is approximated by the degenerate pairs built
    from the atom's own endpoint diagrams (a documented approximation); the
    infimum over them collapses to the transport distance between the two
    endpoints.
    """
    if not p >= 1:
        raise ValueError("p must be >= 1")
    if u.level == 1:
        return level1_diag_cost(u, p)
    return _endpoint_dist(u.minus, u.plus, p)


def d1(u: Atom, v: Atom, p: float) -> float:
    """Strengthened atom cost: direct route or through the diagonal."""
    if u is v:
        return 0.0
    direct = d_prod(u, v, p)
    via = d_diag(u, p) + d_diag(v, p)
    return min(direct, via)


_GAMMA = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, the splitmix64 increment
_MIX = np.uint64(0xBF58476D1CE4E5B9)  # splitmix64's first finalizer multiplier
_SHIFT, _TOP53 = np.uint64(30), np.uint64(11)  # numpy scalars: no conversion per call
_TO_ANGLE = 2.0 * math.pi / 2.0**53


@functools.cache
def _column_multipliers(width: int) -> np.ndarray:
    """Distinct odd 64-bit multipliers, one per coordinate column."""
    return np.uint64(_GAMMA) * np.arange(1, 2 * width, 2, dtype=np.uint64)


def psi_golden_array(phi: np.ndarray) -> np.ndarray:
    """Default benchmark potential of the level-1 atoms with coordinate rows
    ``phi`` (-births, deaths), a function of each row's content alone: the
    row's IEEE bits (-0.0 read as 0.0) summed against the odd multipliers
    gamma * (2k + 1) of the golden-ratio Weyl sequence, one splitmix64
    xorshift-multiply (uint64 arithmetic wraps), top 53 bits to [0, 2 pi).
    """
    h = (phi + 0.0).view(np.uint64) @ _column_multipliers(phi.shape[1])
    h ^= h >> _SHIFT
    h *= _MIX
    h >>= _TOP53
    return h * _TO_ANGLE


def psi_golden(a: Atom) -> float:
    """``psi_golden_array`` of one atom's row; ``PreorderUnavailable`` above level 1."""
    return float(psi_golden_array(level1_rows((a,)))[0])


__all__ = [
    "Atom",
    "CoefficientOverflow",
    "Diagram",
    "GroundPoint",
    "INF",
    "LevelMismatch",
    "LinearDiagram",
    "PreorderUnavailable",
    "VirtualDiagram",
    "atom",
    "atom_coords",
    "atom_leq",
    "d1",
    "d_diag",
    "d_prod",
    "diagram",
    "diagram_leq",
    "dist_ground",
    "empty_diagram",
    "ground",
    "ground_leq",
    "interval",
    "is_basepoint_pair",
    "is_diagonal",
    "left_diagonal_admissible",
    "level1_diag_cost",
    "level1_rows",
    "linear_diagram",
    "norm_p",
    "psi_golden",
    "psi_golden_array",
    "right_diagonal_admissible",
    "singleton_diagram",
    "virtual_diagram",
]
