"""Random graph generators for the aggregation benchmarks.

Ten models over 50 vertices, each with the fixed parameters of one table
(`_PARAMS`); every sample is fully determined by (model, seed), and its
metadata records the model's parameters, what its builder reports (cm's
removed loops and multi-edges, chunglu's weight tag, hrg's disk radius),
the seed and the weight policy.  Randomness comes from PCG64 streams split
per purpose (topology vs. edge marks), so regenerating with the same seed
gives a bit-identical edge list.  The per-pair models (er, sbm, chunglu,
girg, hrg and ergm's initial graph) read one uniform per vertex pair in
``triu`` order from a single batched draw, the same stream as one scalar
draw per pair.  ergm's Metropolis chain reads its proposals and acceptance
uniforms in bulk from the raw PCG64 words (`_raw_draws`), by the rules numpy's
scalar ``integers`` and ``random`` follow.  The test suite pins every
model's edge lists by SHA-256.
Geometric models (ksw, girg, hrg) use their underlying distances as edge
weights; all other models draw independent uniform(0,1) marks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index
from typing import Mapping

import numpy as np

from .filtration import WeightedGraph, weighted_graph

MODELS = ("er", "ws", "ba", "cm", "sbm", "chunglu", "ksw", "girg", "hrg", "ergm")
_N_VERTICES = 50  # every model's vertex count

_PARAMS: dict[str, dict[str, float]] = {
    "er": {"p": 0.10},
    "ws": {"degree": 4, "rewire": 0.1},
    "ba": {"m": 2},
    "cm": {"degree": 4},
    "sbm": {"blocks": 2, "within": 0.22, "between": 0.04},
    "chunglu": {"avg_degree": 4.0, "exponent": 2.5},
    "ksw": {"rows": 5, "cols": 10, "long_range": 1, "alpha": 2.0},
    "girg": {"tau": 2.5, "alpha": 2.0, "dim": 2},
    "hrg": {"temperature": 0.5, "curvature": 1.0},
    "ergm": {"edge": -1.5, "triangle": 0.1, "steps": 3000, "init_p": 0.10},
}


@dataclass(frozen=True)
class ModelSpec:
    model: str

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")


def model_spec(model: str) -> ModelSpec:
    return ModelSpec(model)


def model_index(model: str) -> int:
    return MODELS.index(model)


def seed_for(model_index: int, sample_index: int) -> int:
    """Deterministic per-sample seed schedule."""
    if model_index < 0 or sample_index < 0:
        raise ValueError("indices must be nonnegative")
    return 14 + 1000003 * (model_index + 1) + 9176 * (sample_index + 1)


@dataclass(frozen=True)
class GraphSample:
    graph: WeightedGraph
    metadata: Mapping[str, object]


def metadata_block(meta: Mapping[str, object]) -> str:
    return "".join(f"{k}={meta[k]}\n" for k in sorted(meta))


def _streams(seed: int):
    topo, marks = np.random.SeedSequence(seed).spawn(2)
    return np.random.Generator(np.random.PCG64(topo)), np.random.Generator(
        np.random.PCG64(marks)
    )


def _uniform_marks(edges, rng) -> list[tuple[int, int, float]]:
    ws = rng.random(len(edges))
    return [(u, v, float(w)) for (u, v), w in zip(edges, ws)]


def _pair_list(iu, iv, keep, *columns) -> list[tuple]:
    """The kept (u, v, *column values) rows, in pair order, as Python scalars."""
    return list(zip(*(c[keep].tolist() for c in (iu, iv, *columns))))


def generate(spec: ModelSpec, seed: int) -> GraphSample:
    try:
        seed = index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, not {type(seed).__name__}") from None
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    topo_rng, mark_rng = _streams(seed)
    params = _PARAMS[spec.model]
    edges, extras = _BUILDERS[spec.model](topo_rng, **params)
    geometric = spec.model in ("ksw", "girg", "hrg")
    meta = {**params, **extras, "model": spec.model, "n": _N_VERTICES, "seed": seed,
            "weight_policy": "geometric-distance" if geometric else "uniform-marks"}
    weighted = edges if geometric else _uniform_marks(edges, mark_rng)
    return GraphSample(weighted_graph(_N_VERTICES, weighted), meta)


# Each builder takes the topology stream and its model's `_PARAMS` entry and
# returns the edges and the metadata it adds to that entry.


def _gen_er(rng, p):
    iu, iv = np.triu_indices(_N_VERTICES, 1)
    return _pair_list(iu, iv, rng.random(len(iu)) < p), {}


def _gen_ws(rng, degree, rewire):
    n = _N_VERTICES
    edges = set()
    for u in range(n):
        for j in range(1, degree // 2 + 1):
            edges.add((min(u, (u + j) % n), max(u, (u + j) % n)))
    edges = sorted(edges)
    out = set(edges)
    for u, v in edges:
        if rng.random() < rewire:
            out.discard((u, v))
            while True:
                w = int(rng.integers(0, n))
                cand = (min(u, w), max(u, w))
                if w != u and cand not in out:
                    out.add(cand)
                    break
    return sorted(out), {}


def _gen_ba(rng, m):
    # seed graph: m vertices spanned by a path, then preferential attachment
    edges = [(i, i + 1) for i in range(m - 1)]
    repeated = [v for e in edges for v in e] or [0]
    targets = set()
    for v in range(m, _N_VERTICES):
        targets.clear()
        while len(targets) < m:
            pick = repeated[int(rng.integers(0, len(repeated)))]
            targets.add(pick)
        for t in sorted(targets):
            edges.append((t, v))
            repeated.extend((t, v))
    return sorted(set(edges)), {}


def _gen_cm(rng, degree):
    stubs = np.repeat(np.arange(_N_VERTICES), degree)
    rng.shuffle(stubs)
    loops = 0
    multi = 0
    seen = set()
    for a, b in zip(stubs[0::2], stubs[1::2]):
        a, b = int(a), int(b)
        if a == b:
            loops += 1
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            multi += 1
            continue
        seen.add(key)
    return sorted(seen), {"loops_removed": loops, "multi_edges_removed": multi, "simplified": True}


def _gen_sbm(rng, blocks, within, between):
    n = _N_VERTICES
    membership = np.arange(n) * blocks // n
    iu, iv = np.triu_indices(n, 1)
    p = np.where(membership[iu] == membership[iv], within, between)
    return _pair_list(iu, iv, rng.random(len(iu)) < p), {}


def _gen_chunglu(rng, avg_degree, exponent):
    n = _N_VERTICES
    raw = np.array([(i + 1.0) ** (-1.0 / (exponent - 1.0)) for i in range(n)])
    w = raw * (avg_degree / raw.mean())
    total = w.sum()
    iu, iv = np.triu_indices(n, 1)
    p = np.minimum(1.0, w[iu] * w[iv] / total)
    return _pair_list(iu, iv, rng.random(len(iu)) < p), {"weights": "power-law"}


def _grid_coords(rows, cols):
    return [(r, c) for r in range(rows) for c in range(cols)]


def _gen_ksw(rng, rows, cols, long_range, alpha):
    n = rows * cols
    coords = _grid_coords(rows, cols)
    grid = np.array(coords)
    hops = np.abs(grid[:, None, :] - grid[None, :, :]).sum(axis=2)  # Manhattan, exact
    # d ** -alpha once per distance d >= 1, computed as Python's float pow does
    power = np.array([0.0] + [d ** (-alpha) for d in range(1, rows + cols - 1)])

    edges = {}
    for u in range(n):
        r, c = coords[u]
        if c + 1 < cols:
            edges[(u, u + 1)] = 1.0
        if r + 1 < rows:
            edges[(u, u + cols)] = 1.0
    for u in range(n):
        weights = power[np.delete(hops[u], u)]  # over the others v != u, in order
        weights /= weights.sum()
        # the draw rng.choice(n - 1, p=weights) makes, without re-validating
        # p every time
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        for _ in range(long_range):
            k = int(cdf.searchsorted(rng.random(), side="right"))
            v = k + (k >= u)
            edges.setdefault((min(u, v), max(u, v)), float(hops[u, v]))
    return sorted((u, v, w) for (u, v), w in edges.items()), {}


def _gen_girg(rng, tau, alpha, dim):
    n = _N_VERTICES
    weights = (1.0 - rng.random(n)) ** (-1.0 / (tau - 1.0))
    pos = rng.random((n, dim))
    total = weights.sum()
    iu, iv = np.triu_indices(n, 1)
    delta = np.abs(pos[iu] - pos[iv])
    dist = np.minimum(delta, 1.0 - delta).max(axis=1)  # torus
    p = np.ones(len(iu))  # coincident points always connect
    far = dist != 0.0
    p[far] = np.minimum(
        1.0, (weights[iu[far]] * weights[iv[far]] / (total * dist[far] ** dim)) ** alpha
    )
    return _pair_list(iu, iv, rng.random(len(iu)) < p, np.maximum(dist, 1e-12)), {}


def _gen_hrg(rng, temperature, curvature):
    n = _N_VERTICES
    R = 2.0 * math.log(n)
    theta = rng.random(n) * 2.0 * math.pi
    u = rng.random(n)
    radii = np.arccosh(1.0 + u * (math.cosh(curvature * R) - 1.0)) / curvature
    # scalar libm per pair: these distances become edge weights, and numpy's
    # vectorized transcendentals may differ from math's in the last bit
    theta = theta.tolist()
    cosh, sinh = [math.cosh(r) for r in radii], [math.sinh(r) for r in radii]
    draws = iter(rng.random(n * (n - 1) // 2).tolist())
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            dt = math.pi - abs(math.pi - abs(theta[a] - theta[b]))
            ch = cosh[a] * cosh[b] - sinh[a] * sinh[b] * math.cos(dt)
            d = math.acosh(max(1.0, ch))
            p = 1.0 / (1.0 + math.exp((d - R) / (2.0 * temperature)))
            if next(draws) < p:
                edges.append((a, b, max(d, 1e-12)))
    return edges, {"radius": R}


_RAW_BLOCK = 2048  # raw words `_raw_draws` reads at a time


def _raw_draws(rng, n: int):
    """(integer, uniform): callables that return exactly what the PCG64
    Generator ``rng`` would return from ``rng.integers(0, n)`` and
    ``rng.random()``, computed from raw words read in blocks.

    numpy's rules: a 32-bit draw takes the low half of a new 64-bit word and
    keeps the high half for the next 32-bit draw; a uniform takes a whole new
    word w as ``(w >> 11) * 2**-53`` and leaves a kept half alone.  An
    integer is ``(x * n) >> 32`` for a 32-bit draw x, redrawn while
    ``(x * n) & 0xFFFFFFFF < (2**32 - n) % n`` (D. Lemire, "Fast random
    integer generation in an interval", ACM TOMACS 29(1), 2019).  ``rng``
    must keep no half when this is called (its draws so far were whole
    words), and it ends up past the last word used, so only its last reader
    may call this.
    """
    if not 2 <= n < 1 << 32:
        raise ValueError(f"n must lie in 2..2**32 - 1, not {n}")
    threshold = ((1 << 32) - n) % n

    def lemire(x):  # 32-bit draws -> their integers, -1 where redrawn
        m = x * np.uint64(n)
        return np.where(m & 0xFFFFFFFF < threshold, -1, (m >> 32).astype(np.int64)).tolist()

    low = high = uniforms = ()
    pos = 0  # the next unread word
    kept = None  # the integer of the kept high half, if one is kept

    def refill():
        nonlocal low, high, uniforms, pos
        words = rng.bit_generator.random_raw(_RAW_BLOCK)
        low, high = lemire(words & 0xFFFFFFFF), lemire(words >> 32)
        uniforms = ((words >> 11) * 2.0**-53).tolist()
        pos = 0

    def integer() -> int:
        nonlocal pos, kept
        while True:
            if kept is None:
                if pos == len(low):
                    refill()
                x, kept = low[pos], high[pos]
                pos += 1
            else:
                x, kept = kept, None
            if x >= 0:
                return x

    def uniform() -> float:
        nonlocal pos
        if pos == len(uniforms):
            refill()
        pos += 1
        return uniforms[pos - 1]

    return integer, uniform


def _gen_ergm(rng, edge, triangle, steps, init_p):
    n = _N_VERTICES
    # adjacency rows as Python-int bitsets: bit v of adj[u] is the edge uv
    adj = [0] * n
    iu, iv = np.triu_indices(n, 1)
    for u, v in _pair_list(iu, iv, rng.random(len(iu)) < init_p):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    # the chain is the topology stream's last reader in `generate`, so the
    # words `_raw_draws` reads past the last one it uses are never wanted
    integer, uniform = _raw_draws(rng, n)
    exp = math.exp
    for _ in range(steps):
        u = integer()
        v = integer()
        if u == v:
            continue
        common = (adj[u] & adj[v]).bit_count()
        if adj[u] >> v & 1:
            delta = -edge - triangle * common
        else:
            delta = edge + triangle * common
        if delta >= 0 or uniform() < exp(delta):
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
    return [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1], {}


_BUILDERS = {
    "er": _gen_er,
    "ws": _gen_ws,
    "ba": _gen_ba,
    "cm": _gen_cm,
    "sbm": _gen_sbm,
    "chunglu": _gen_chunglu,
    "ksw": _gen_ksw,
    "girg": _gen_girg,
    "hrg": _gen_hrg,
    "ergm": _gen_ergm,
}


__all__ = [
    "MODELS",
    "GraphSample",
    "ModelSpec",
    "generate",
    "metadata_block",
    "model_index",
    "model_spec",
    "seed_for",
]
