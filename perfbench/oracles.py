"""Reference computations the benchmark checks the library against.

They share no code with the routes they check: coordinates come from
`core.atom_coords`, dominance sums from a rank-space Fenwick sweep written
here, and the transport norm from a HiGHS linear program.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from hopd.core import atom_coords, d1, d_diag, psi_golden

TWO_PI = 2.0 * math.pi


def angles_close(a: float, b: float, tol: float = 1e-9) -> bool:
    """Equality of two unwrapped phases modulo 2*pi."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d) <= tol


def potential(atoms) -> np.ndarray:
    """The default (golden-ratio) potential, one public call per atom."""
    return np.fromiter((psi_golden(a) for a in atoms), dtype=np.float64, count=len(atoms))


def phase_of_nets(psi: np.ndarray, net: np.ndarray) -> float:
    """Unwrapped coboundary phase sum_a net(a) * psi(a)."""
    return float(np.dot(psi, np.asarray(net, dtype=np.float64)))


def _dense_ranks(values: np.ndarray) -> list[int]:
    # np.unique orders +inf after every finite value, so ranks stay exact
    return np.unique(values, return_inverse=True)[1].ravel().tolist()


def _sweep_down(rx: list[int], ry: list[int], w: list[int]) -> list[int]:
    """Inclusive sums over points with rx <= rx(v) and ry <= ry(v)."""
    n = len(w)
    size = max(ry) + 1
    tree = [0] * (size + 1)
    order = sorted(range(n), key=lambda k: (rx[k], ry[k]))
    out = [0] * n
    i = 0
    while i < n:
        j = i
        x = rx[order[i]]
        while j < n and rx[order[j]] == x:
            j += 1
        group = order[i:j]
        for k in group:  # points sharing x dominate one another on x
            pos = ry[k] + 1
            wk = w[k]
            while pos <= size:
                tree[pos] += wk
                pos += pos & -pos
        for k in group:
            pos = ry[k] + 1
            acc = 0
            while pos > 0:
                acc += tree[pos]
                pos -= pos & -pos
            out[k] = acc
        i = j
    return out


def dominance_nets(atoms, coeffs) -> np.ndarray:
    """Exact per-atom net multiplicity c(a) * (Z-(a) - Z+(a)) of the self-aggregate.

    Z- sums coefficients of atoms below a in the containment preorder and Z+
    those above it, both inclusive; the difference is what multiplies psi(a)
    in the coboundary phase.
    """
    if not atoms:
        return np.zeros(0, dtype=np.int64)
    coords = np.array([atom_coords(a) for a in atoms], dtype=np.float64)
    rx = _dense_ranks(coords[:, 0])
    ry = _dense_ranks(coords[:, 1])
    w = [int(c) for c in coeffs]
    down = _sweep_down(rx, ry, w)
    top_x, top_y = max(rx), max(ry)
    up = _sweep_down([top_x - r for r in rx], [top_y - r for r in ry], w)
    return np.array([c * (d - u) for c, d, u in zip(w, down, up)], dtype=np.int64)


def mean_nets(mean, m: int) -> dict[int, int]:
    """Per-atom net multiplicity of an explicit mean aggregate, times m, by uid.

    Raises ValueError when a coefficient times m is not an integer.
    """
    net: dict[int, int] = {}
    for cls, c in mean.entries:
        whole = c * m
        if whole.denominator != 1:
            raise ValueError(f"coefficient {c} times {m} is not an integer")
        k = int(whole)
        (u, _), = cls.minus.entries
        (v, _), = cls.plus.entries
        net[v.uid] = net.get(v.uid, 0) + k
        net[u.uid] = net.get(u.uid, 0) - k
    return {uid: k for uid, k in net.items() if k}


def w1_cost_matrix(atoms) -> list[list[float]]:
    """Arc costs over the support plus the basepoint (last index)."""
    n = len(atoms)
    cost = [[0.0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        for j in range(i + 1, n):
            cost[i][j] = cost[j][i] = d1(atoms[i], atoms[j], 1)
        cost[i][n] = cost[n][i] = d_diag(atoms[i], 1)
    return cost


def w1_linprog(cost, coeffs) -> float:
    """Min-cost transport with divergences `coeffs` (basepoint absorbs the rest)."""
    div = [float(c) for c in coeffs]
    div.append(-sum(div))
    size = len(div)
    arcs = [(i, j) for i in range(size) for j in range(size) if i != j]
    rows, cols, vals = [], [], []
    for k, (i, j) in enumerate(arcs):
        rows += [i, j]
        cols += [k, k]
        vals += [1.0, -1.0]
    a_eq = coo_matrix((vals, (rows, cols)), shape=(size, len(arcs))).tocsr()
    res = linprog(
        [cost[i][j] for i, j in arcs], A_eq=a_eq, b_eq=div, bounds=(0, None), method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.fun)
