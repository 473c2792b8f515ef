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
structural sort key so serialization is bit-stable across runs.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

INF = math.inf

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


def _intern(key, build):
    global _NEXT_UID
    obj = _INTERN.get(key)
    if obj is not None:
        return obj
    with _INTERN_LOCK:
        obj = _INTERN.get(key)
        if obj is None:
            obj = build(_NEXT_UID)
            _NEXT_UID += 1
            _INTERN[key] = obj
    return obj


def intern_table_size() -> int:
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


def ground(*coords: float) -> GroundPoint:
    cs = tuple(float(c) for c in coords)
    if not cs:
        raise ValueError("ground point needs at least one coordinate")
    for i, c in enumerate(cs):
        if math.isnan(c):
            raise ValueError("NaN coordinate")
        if math.isinf(c) and i != len(cs) - 1:
            raise ValueError("+inf permitted only in the last coordinate")
        if c == -INF:
            raise ValueError("-inf coordinate not permitted")
    return _intern(("p", cs), lambda uid: GroundPoint(cs, uid))


class Atom:
    """Level-n interval: an ordered (minus, plus) pair of level-(n-1) objects."""

    __slots__ = ("level", "minus", "plus", "uid", "sort_key")

    def __init__(self, level, minus, plus, uid):
        self.level = level
        self.minus = minus
        self.plus = plus
        self.uid = uid
        self.sort_key = (minus.sort_key, plus.sort_key)

    def __repr__(self):
        if self.level == 1:
            return f"Atom({_fmt_endpoint(self.minus)}, {_fmt_endpoint(self.plus)})"
        return f"Atom(level={self.level}, {self.minus!r}, {self.plus!r})"


def _fmt_endpoint(e):
    if isinstance(e, GroundPoint):
        return e.coords[0] if len(e.coords) == 1 else e.coords
    return repr(e)


Endpoint = Union[GroundPoint, "Diagram"]


def atom(minus: Endpoint, plus: Endpoint) -> Atom:
    if isinstance(minus, GroundPoint) and isinstance(plus, GroundPoint):
        if len(minus.coords) != len(plus.coords):
            raise LevelMismatch("endpoint dimension mismatch")
        level = 1
    elif isinstance(minus, Diagram) and isinstance(plus, Diagram):
        if minus.level != plus.level:
            raise LevelMismatch("endpoint level mismatch")
        level = minus.level + 1
    else:
        raise LevelMismatch("endpoints must both be ground points or both diagrams")
    return _intern(
        ("a", minus.uid, plus.uid), lambda uid: Atom(level, minus, plus, uid)
    )


def interval(birth: float, death: float) -> Atom:
    """Level-1 atom over a one-dimensional ground space."""
    return atom(ground(birth), ground(death))


class Diagram:
    """Finite multiset of same-level atoms with positive multiplicities."""

    __slots__ = ("level", "entries", "uid", "sort_key")

    def __init__(self, level, entries, uid):
        self.level = level
        self.entries = entries
        self.uid = uid
        self.sort_key = tuple((a.sort_key, m) for a, m in entries)

    def __len__(self):
        return sum(m for _, m in self.entries)

    def support(self):
        return [a for a, _ in self.entries]

    def atoms(self):
        """Atoms listed with multiplicity."""
        out = []
        for a, m in self.entries:
            out.extend([a] * m)
        return out

    def multiplicity(self, a: Atom) -> int:
        for b, m in self.entries:
            if b is a:
                return m
        return 0

    def __add__(self, other: "Diagram") -> "Diagram":
        if self.level != other.level:
            raise LevelMismatch("diagram level mismatch")
        acc = {a: m for a, m in self.entries}
        for a, m in other.entries:
            acc[a] = acc.get(a, 0) + m
        return diagram(acc, level=self.level)

    def to_virtual(self) -> "VirtualDiagram":
        return VirtualDiagram(self.level, self.entries)

    def __repr__(self):
        inner = ", ".join(f"{a!r}*{m}" for a, m in self.entries)
        return f"Diagram(level={self.level}, {{{inner}}})"


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
    spec = DEFAULT_PREORDER
    return diagram_leq(minus, plus, spec) and diagram_leq(plus, minus, spec)


def diagram(entries: Mapping[Atom, int] | Iterable[tuple[Atom, int]],
            level: int | None = None, *, validate: bool = True) -> Diagram:
    if isinstance(entries, Mapping):
        entries = entries.items()
    acc: dict[Atom, int] = {}
    for a, m in entries:
        if m < 0:
            raise ValueError("diagram multiplicities must be positive")
        if m:
            acc[a] = acc.get(a, 0) + m
    for a in acc:
        if level is None:
            level = a.level
        elif a.level != level:
            raise LevelMismatch("mixed atom levels in diagram")
        if validate and is_basepoint_pair(a.minus, a.plus):
            raise ValueError(f"diagonal atom {a!r} cannot be stored in a diagram")
    if level is None:
        raise ValueError("empty diagram needs an explicit level")
    items = tuple(sorted(acc.items(), key=lambda kv: kv[0].sort_key))
    key = ("d", level, tuple((a.uid, m) for a, m in items))
    return _intern(key, lambda uid: Diagram(level, items, uid))


def empty_diagram(level: int) -> Diagram:
    return diagram({}, level=level)


class VirtualDiagram:
    """Signed diagram: finite map from atoms to nonzero 64-bit multiplicities."""

    __slots__ = ("level", "entries", "_cache")

    def __init__(self, level: int, entries: tuple[tuple[Atom, int], ...]):
        self.level = level
        self.entries = entries
        self._cache: dict = {}

    def support(self):
        return [a for a, _ in self.entries]

    def support_size(self) -> int:
        return len(self.entries)

    def coefficient(self, a: Atom) -> int:
        for b, c in self.entries:
            if b is a:
                return c
        return 0

    def as_dict(self) -> dict[Atom, int]:
        return dict(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, VirtualDiagram)
            and self.level == other.level
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.level, self.entries))

    def __add__(self, other: "VirtualDiagram") -> "VirtualDiagram":
        if self.level != other.level:
            raise LevelMismatch("level mismatch")
        acc = {a: c for a, c in self.entries}
        for a, c in other.entries:
            acc[a] = acc.get(a, 0) + c
        # the operands were validated and a sum creates no new atom
        return virtual_diagram(acc, level=self.level, validate=False)

    def __sub__(self, other: "VirtualDiagram") -> "VirtualDiagram":
        return self + (-other)

    def __neg__(self) -> "VirtualDiagram":
        return VirtualDiagram(self.level, tuple((a, -c) for a, c in self.entries))

    def __rmul__(self, k: int) -> "VirtualDiagram":
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return virtual_diagram({}, level=self.level)
        return virtual_diagram(
            {a: k * c for a, c in self.entries}, level=self.level, validate=False
        )

    def positive_part(self) -> Diagram:
        return diagram({a: c for a, c in self.entries if c > 0}, level=self.level)

    def negative_part(self) -> Diagram:
        return diagram({a: -c for a, c in self.entries if c < 0}, level=self.level)

    def __repr__(self):
        inner = ", ".join(f"{a!r}*{c}" for a, c in self.entries)
        return f"VirtualDiagram(level={self.level}, {{{inner}}})"


def virtual_diagram(entries: Mapping[Atom, int] | Iterable[tuple[Atom, int]],
                    level: int | None = None, *, validate: bool = True) -> VirtualDiagram:
    if isinstance(entries, Mapping):
        entries = entries.items()
    acc: dict[Atom, int] = {}
    for a, c in entries:
        if c:
            acc[a] = _check_i64(acc.get(a, 0) + c)
    for a in acc:
        if level is None:
            level = a.level
        elif a.level != level:
            raise LevelMismatch("mixed atom levels")
        if validate and is_basepoint_pair(a.minus, a.plus):
            raise ValueError(f"diagonal atom {a!r} cannot be stored")
    if level is None:
        raise ValueError("empty virtual diagram needs an explicit level")
    items = tuple(sorted(acc.items(), key=lambda kv: kv[0].sort_key))
    return VirtualDiagram(level, items)


class LinearDiagram:
    """Real-linear diagram: finite map from atoms to nonzero coefficients.

    Coefficients are exact ``Fraction`` values by default (means of integer
    diagrams stay exact); floats are accepted for downstream numeric use.
    """

    __slots__ = ("level", "entries")

    def __init__(self, level: int, entries):
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
            isinstance(other, LinearDiagram)
            and self.level == other.level
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.level, self.entries))

    def __repr__(self):
        inner = ", ".join(f"{a!r}*{c}" for a, c in self.entries)
        return f"LinearDiagram(level={self.level}, {{{inner}}})"


def linear_diagram(entries, level=None, *, epsilon=0) -> LinearDiagram:
    if isinstance(entries, Mapping):
        entries = entries.items()
    acc: dict[Atom, object] = {}
    for a, c in entries:
        acc[a] = acc.get(a, 0) + c
    out = {}
    for a, c in acc.items():
        if c == 0 or abs(c) <= epsilon:
            continue
        if level is None:
            level = a.level
        elif a.level != level:
            raise LevelMismatch("mixed atom levels")
        out[a] = c
    if level is None:
        raise ValueError("empty linear diagram needs an explicit level")
    items = tuple(sorted(out.items(), key=lambda kv: kv[0].sort_key))
    return LinearDiagram(level, items)


# ---------------------------------------------------------------------------
# Preorders


@dataclass(frozen=True)
class PreorderSpec:
    """Comparison rules across levels.

    diagonal_always_admissible: permissive reading of diagram comparison,
        where any unmatched atom may be sent to the diagonal.
    matching_fallback: allow matching-oracle comparison where no coordinate
        representation exists (levels >= 2).
    """

    diagonal_always_admissible: bool = False
    matching_fallback: bool = True


DEFAULT_PREORDER = PreorderSpec()


def ground_leq(p: GroundPoint, q: GroundPoint) -> bool:
    a, b = p.coords, q.coords
    if len(a) == 1:
        return a[0] <= b[0]
    return all(x <= y for x, y in zip(a, b))


def endpoint_leq(a: Endpoint, b: Endpoint, spec: PreorderSpec = DEFAULT_PREORDER) -> bool:
    if isinstance(a, GroundPoint):
        return ground_leq(a, b)
    return diagram_leq(a, b, spec)


def atom_leq(u: Atom, v: Atom, spec: PreorderSpec = DEFAULT_PREORDER) -> bool:
    """Containment preorder on atoms: reversed on minus, forward on plus."""
    if u.level != v.level:
        raise LevelMismatch(f"cannot compare level {u.level} with {v.level}")
    if u is v:
        return True
    if u.level >= 2 and not spec.matching_fallback:
        raise PreorderUnavailable(f"no comparison rule for level {u.level}")
    return endpoint_leq(v.minus, u.minus, spec) and endpoint_leq(u.plus, v.plus, spec)


def atom_coords(u: Atom):
    """Derived coordinates representing the level-1 preorder: (-birth, death)."""
    if u.level != 1:
        raise PreorderUnavailable("coordinate representation exists at level 1 only")
    return tuple(-c for c in u.minus.coords) + u.plus.coords


def is_diagonal(u: Atom, spec: PreorderSpec = DEFAULT_PREORDER) -> bool:
    """Both preorder directions hold between the endpoints."""
    return endpoint_leq(u.minus, u.plus, spec) and endpoint_leq(u.plus, u.minus, spec)


def left_diagonal_admissible(u: Atom, spec: PreorderSpec = DEFAULT_PREORDER) -> bool:
    """A diagonal witness eta with u <= eta exists iff plus <= minus."""
    if spec.diagonal_always_admissible:
        return True
    return endpoint_leq(u.plus, u.minus, spec)


def right_diagonal_admissible(v: Atom, spec: PreorderSpec = DEFAULT_PREORDER) -> bool:
    """A diagonal witness eta with eta <= v exists iff minus <= plus."""
    if spec.diagonal_always_admissible:
        return True
    return endpoint_leq(v.minus, v.plus, spec)


def _perfect_matching(adj: np.ndarray) -> bool:
    """Whether the square bipartite graph ``adj`` has a perfect matching.

    A minimum assignment on the cost ``~adj`` picks only True cells exactly
    when a perfect matching exists.
    """
    rows, cols = linear_sum_assignment(~adj)
    return bool(adj[rows, cols].all())


def diagram_leq(G: Diagram, L: Diagram, spec: PreorderSpec = DEFAULT_PREORDER) -> bool:
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
        row = [atom_leq(u, v, spec) for v in right]
        diag = left_diagonal_admissible(u, spec)
        if not (diag or any(row)):
            return False  # u has no neighbour, so no matching covers it
        adj[i, :n] = row
        adj[i, n + i] = diag
    for j, v in enumerate(right):
        adj[m + j, j] = right_diagonal_admissible(v, spec)
    adj[m:, n:] = True
    return _perfect_matching(adj)


# ---------------------------------------------------------------------------
# Level-wise metrics


@dataclass(frozen=True)
class DiagonalPolicy:
    """How diagonal distances are produced at levels >= 2.

    mode "endpoints": approximate the diagonal set by degenerate pairs built
    from the operand's own endpoint diagrams (documented approximation).
    mode "scan": minimum product distance over a configured finite set.
    mode "exact": refuse level >= 2 diagonal distances.
    """

    mode: str = "endpoints"
    scan_sets: Mapping[int, tuple[Atom, ...]] = field(default_factory=dict)


DEFAULT_DIAGONAL = DiagonalPolicy()


def norm_p(values: Sequence[float], p: float) -> float:
    if p < 1:
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
    return sum(v**p for v in vals) ** (1.0 / p)


def dist_ground(x: GroundPoint, y: GroundPoint) -> float:
    if x is y:
        return 0.0
    best = 0.0
    for a, b in zip(x.coords, y.coords):
        if a == b:
            continue  # covers matching +inf coordinates
        if math.isinf(a) or math.isinf(b):
            return INF
        best = max(best, abs(a - b))
    return best


def _endpoint_dist(a: Endpoint, b: Endpoint, p: float, diagonal: DiagonalPolicy) -> float:
    if isinstance(a, GroundPoint):
        return dist_ground(a, b)
    from . import wasserstein  # levels >= 2 recurse through diagram transport

    return wasserstein.certified_wasserstein(a, b, p=p, diagonal=diagonal)


def d_prod(u: Atom, v: Atom, p: float,
           diagonal: DiagonalPolicy = DEFAULT_DIAGONAL) -> float:
    """p-norm of the two endpoint distances."""
    if u.level != v.level:
        raise LevelMismatch("atom level mismatch")
    if p < 1:
        raise ValueError("p must be >= 1")
    if u is v:
        return 0.0
    return norm_p(
        (
            _endpoint_dist(u.minus, v.minus, p, diagonal),
            _endpoint_dist(u.plus, v.plus, p, diagonal),
        ),
        p,
    )


def level1_diag_cost(u: Atom, p: float) -> float:
    """Closed-form diagonal distance of a level-1 atom: |d - b| * 2^(1/p - 1),
    with 2^(1/p - 1) read as 1/2 at p = inf."""
    gap = dist_ground(u.minus, u.plus)
    if gap == 0.0:
        return 0.0
    return gap * (0.5 if p == INF else 2.0 ** (1.0 / p - 1.0))


def d_diag(u: Atom, p: float, diagonal: DiagonalPolicy = DEFAULT_DIAGONAL) -> float:
    """Distance from an atom to the diagonal of its level."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if u.level == 1:
        return level1_diag_cost(u, p)
    if u.level in diagonal.scan_sets and diagonal.mode == "scan":
        candidates = diagonal.scan_sets[u.level]
        if not candidates:
            raise ValueError("empty diagonal scan set")
        return min(d_prod(u, a, p, diagonal) for a in candidates)
    if diagonal.mode == "endpoints":
        # inf over degenerate pairs built from the operand's own endpoints
        # collapses to the transport distance between the two endpoints
        return _endpoint_dist(u.minus, u.plus, p, diagonal)
    raise ValueError(
        f"no diagonal distance configured for level {u.level} (mode={diagonal.mode})"
    )


def d1(u: Atom, v: Atom, p: float,
       diagonal: DiagonalPolicy = DEFAULT_DIAGONAL) -> float:
    """Strengthened atom cost: direct route or through the diagonal."""
    if u is v:
        return 0.0
    direct = d_prod(u, v, p, diagonal)
    via = d_diag(u, p, diagonal) + d_diag(v, p, diagonal)
    return min(direct, via)


def psi_golden(a: Atom) -> float:
    """Default benchmark potential: golden-ratio hash of the intern id."""
    x = (a.uid * 0.6180339887498949) % 1.0
    return 2.0 * math.pi * x


__all__ = [
    "Atom",
    "CoefficientOverflow",
    "DEFAULT_DIAGONAL",
    "DEFAULT_PREORDER",
    "Diagram",
    "DiagonalPolicy",
    "GroundPoint",
    "INF",
    "LevelMismatch",
    "LinearDiagram",
    "PreorderSpec",
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
    "linear_diagram",
    "norm_p",
    "psi_golden",
    "right_diagonal_admissible",
    "virtual_diagram",
]
