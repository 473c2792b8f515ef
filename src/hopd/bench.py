"""Experiment harness: speedup matrix, runtime scaling, transport benchmarks.

Timing policy follows the experiments: everything runs in one thread, and
the timed region covers aggregation (or harmonic evaluation) only; graph
generation, persistence, Wasserstein matching, representation warming, and
I/O all happen outside it.  Every timed run is then verified: per sample,
the harmonic route's exact int64 nets must equal those collected from the
explicit aggregate, and the phase of the mean must agree (1e-9 mod 2*pi);
a timing row is emitted only for verified-equal results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregation import (
    _mean_of,
    level1_arrays,
    naive_self_aggregate,
    self_aggregate_pairs,
)
from .core import Atom, Diagram, VirtualDiagram, interval, virtual_diagram
from .filtration import build_clique_filtration, persistence_h1
from .graphgen import MODELS, generate, model_index, model_spec, seed_for
from .harmonic import (
    CoboundaryCharacter,
    angles_close,
    coboundary_net_multiplicities,
    harmonic_eval_raw,
    harmonic_nets,
    psi_vector,
    transform_ops,
    wrap_angle,
)
from .serialize import from_text

SPEEDUP_COLUMNS = ("model_a", "model_b", "m", "support", "t_naive_ns", "t_harmonic_ns", "speedup")
SCALING_COLUMNS = (
    "n_index", "support", "family", "engine", "repeat",
    "t_naive_ns", "t_harmonic_ns", "pairs_visited", "transform_ops",
)
WBENCH_COLUMNS = (
    "instance", "p", "t_naive_ns", "t_certified_ns",
    "naive_expansions", "certified_expansions", "prunes", "memo_hits",
)

UNIT_DIVISORS = {"ns": 1, "ms": 1_000_000, "min": 60_000_000_000}


class OracleMismatch(AssertionError):
    """Harmonic and explicit nets or angles disagreed; the timing row was withheld."""


@dataclass(frozen=True)
class ExperimentConfig:
    models: tuple[str, ...] = MODELS
    m: int = 30
    repeats: int = 30
    n_range: tuple[int, int] = (0, 30)
    seed: int = 20260502
    out: str | None = None
    units: str = "ns"
    psi: str = "golden"
    fmt: str = "csv"
    family: str = "uniform"
    engine: str = "vectorized"

    def __post_init__(self):
        if not self.models:
            raise ValueError("no models given")
        for m in self.models:
            if m not in MODELS:
                raise ValueError(f"unknown model {m!r}")
        if self.m < 1 or self.repeats < 1:
            raise ValueError("counts must be positive")
        if self.units not in UNIT_DIVISORS:
            raise ValueError(f"unknown units {self.units!r}")
        if self.fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.family not in ("uniform", "narrow"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.engine not in ("vectorized", "loop"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.psi != "golden" and not self.psi.startswith("file:"):
            raise ValueError(f"unknown psi spec {self.psi!r}")
        lo, hi = self.n_range
        if lo < 0 or hi < lo:
            raise ValueError("bad index range")


def load_psi(spec: str) -> CoboundaryCharacter:
    """"golden" for the coordinate hash, or "file:PATH" with `angle <atom>`
    lines of level-1 atoms.  ``OSError`` when the file cannot be read,
    ``ValueError`` on any other fault of the spec or the file."""
    if spec == "golden":
        return CoboundaryCharacter(1)
    if not spec.startswith("file:"):
        raise ValueError(f"unknown psi spec {spec!r}")
    path, table = spec[5:], {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"psi file {path}, line {number}"
        try:
            angle, atom_text = line.split(maxsplit=1)
            a, value = from_text(atom_text), float(angle)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"{where}: expected '<float> <atom>' ({exc})") from None
        if not math.isfinite(value):
            raise ValueError(f"{where}: angle {angle!r} is not finite")
        if not isinstance(a, Atom) or a.level != 1:
            raise ValueError(f"{where}: {atom_text!r} is not a level-1 atom")
        table[a] = value
    return CoboundaryCharacter(1, table)


# ---------------------------------------------------------------------------
# Synthetic inputs


def support_for_index(idx: int) -> int:
    """Size ladder: index 0 -> 100, index 30 -> 100000 (geometric)."""
    return int(round(10.0 ** (2.0 + idx / 10.0)))


def synth_level1(size: int, family: str, rng: np.random.Generator) -> VirtualDiagram:
    """Random level-1 signed diagram with nonzero coefficients in [-10, 10].

    uniform: births and deaths uniform in the unit square above the diagonal
    (dense containment).  narrow: interval lengths within a (1 + 1/size)
    factor of each other, so containment pairs are rare and explicit
    aggregates stay small while pair enumeration still costs size^2.
    """
    entries = {}
    while len(entries) < size:
        need = size - len(entries)
        births = rng.random(need)
        if family == "uniform":
            deaths = births + rng.random(need) * (1.0 - births)
        else:
            deaths = births + 0.5 * (1.0 + rng.random(need) / size)
        coeffs = rng.integers(1, 11, size=need) * rng.choice((-1, 1), size=need)
        for b, d, c in zip(births, deaths, coeffs):
            if d > b:
                entries.setdefault(interval(float(b), float(d)), int(c))
    return virtual_diagram(entries, level=1)


# ---------------------------------------------------------------------------
# Timed kernels


def _now() -> int:
    return time.perf_counter_ns()


def timed_naive(xs, engine: str):
    """Explicit aggregation of every sample (plus the mean on the loop engine);
    returns (ns, parts)."""
    if engine == "loop":
        t0 = _now()
        parts = [naive_self_aggregate(x) for x in xs]
        _mean_of(parts, len(xs))
        t1 = _now()
        return t1 - t0, parts
    for x in xs:
        level1_arrays(x)  # representation warming stays outside the timing
    t0 = _now()
    parts = [self_aggregate_pairs(x) for x in xs]
    t1 = _now()
    return t1 - t0, parts


def timed_harmonic(xs, psi: CoboundaryCharacter):
    for x in xs:
        level1_arrays(x)
    t0 = _now()
    raws = [harmonic_eval_raw(x, psi) for x in xs]
    t1 = _now()
    return t1 - t0, raws


def _verify(xs, parts, raws, psi, m):
    explicit_raw = 0.0
    for k, (x, part) in enumerate(zip(xs, parts)):
        base = x.support()
        # exact nets first: integers that depend neither on psi nor on rounding
        harmonic, explicit = harmonic_nets(x), coboundary_net_multiplicities(part, base)
        if not np.array_equal(harmonic, explicit):
            at = np.flatnonzero(harmonic != explicit)[:5]
            raise OracleMismatch(
                f"sample {k}: harmonic nets {harmonic[at].tolist()} vs explicit nets "
                f"{explicit[at].tolist()} at atoms {at.tolist()}"
            )
        explicit_raw += float(np.dot(psi_vector(psi, base), explicit.astype(np.float64)))
    harmonic = wrap_angle(sum(raws) / m)
    explicit = wrap_angle(explicit_raw / m)
    if not angles_close(harmonic, explicit, 1e-9):
        raise OracleMismatch(f"harmonic {harmonic} vs explicit {explicit}")


# ---------------------------------------------------------------------------
# Experiments


def model_h1(model: str, first: int, count: int) -> list[Diagram]:
    """H1 diagrams of a model's samples first .. first + count - 1, each
    from the normalized clique filtration of its generated graph."""
    spec, idx = model_spec(model), model_index(model)
    out = []
    for k in range(first, first + count):
        sample = generate(spec, seed_for(idx, k))
        out.append(persistence_h1(build_clique_filtration(sample.graph, normalize=True)))
    return out


def run_speedup_matrix(cfg: ExperimentConfig) -> list[dict]:
    """Upper-triangle model-pair speedups on paired-sample mean aggregates.

    The naive side is the literal pair-loop construction of the mean
    aggregate; the harmonic side evaluates the same aggregate's coboundary
    phase per sample without materializing it.
    """
    psi = load_psi(cfg.psi)
    names = list(cfg.models)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    if not pairs:
        pairs = [(names[0], names[0])]
    cache: dict[tuple[str, int], list[VirtualDiagram]] = {}

    def samples(model: str, offset: int = 0):
        key = (model, offset)
        if key not in cache:
            cache[key] = [d.to_virtual() for d in model_h1(model, offset, cfg.m)]
        return cache[key]

    rows = []
    for a, b in pairs:
        # self-pairs draw the right-hand samples from shifted sample indices
        xs = [g - h for g, h in zip(samples(a), samples(b, cfg.m if a == b else 0))]
        t_naive, parts = timed_naive(xs, "loop")
        t_harm, raws = timed_harmonic(xs, psi)
        _verify(xs, parts, raws, psi, cfg.m)
        support = sum(x.support_size() for x in xs)
        rows.append(
            {
                "model_a": a,
                "model_b": b,
                "m": cfg.m,
                "support": support,
                "t_naive_ns": t_naive,
                "t_harmonic_ns": t_harm,
                "speedup": round(t_naive / max(t_harm, 1), 3),
            }
        )
    return rows


def run_runtime_scaling(cfg: ExperimentConfig) -> list[dict]:
    """Sweep the support-size ladder; one row per repeat with both timings."""
    psi = load_psi(cfg.psi)
    lo, hi = cfg.n_range
    rows = []
    for idx in range(lo, hi + 1):
        size = support_for_index(idx)
        for rep in range(cfg.repeats):
            rng = np.random.default_rng([cfg.seed, idx, rep])
            xi = synth_level1(size, cfg.family, rng)
            t_naive, parts = timed_naive([xi], cfg.engine)
            t_harm, raws = timed_harmonic([xi], psi)
            _verify([xi], parts, raws, psi, 1)
            n = xi.support_size()
            rows.append(
                {
                    "n_index": idx,
                    "support": n,
                    "family": cfg.family,
                    "engine": cfg.engine,
                    "repeat": rep,
                    "t_naive_ns": t_naive,
                    "t_harmonic_ns": t_harm,
                    # structural work counters: every ordered pair is visited
                    # by the naive path; the cells the dominance kernel reads
                    "pairs_visited": n * n,
                    "transform_ops": transform_ops(n),
                }
            )
    return rows


def scaling_summary(rows: list[dict]) -> list[dict]:
    """Median and min/max bands per ladder point."""
    out = []
    for idx in sorted({r["n_index"] for r in rows}):
        sub = [r for r in rows if r["n_index"] == idx]
        nvals = sorted(r["t_naive_ns"] for r in sub)
        hvals = sorted(r["t_harmonic_ns"] for r in sub)
        out.append(
            {
                "n_index": idx,
                "support": sub[0]["support"],
                "naive_min": nvals[0],
                "naive_median": nvals[len(nvals) // 2],
                "naive_max": nvals[-1],
                "harmonic_min": hvals[0],
                "harmonic_median": hvals[len(hvals) // 2],
                "harmonic_max": hvals[-1],
            }
        )
    return out


def loglog_slope(points: list[tuple[float, float]]) -> float:
    xs = np.log([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def run_wbench(cfg: ExperimentConfig) -> list[dict]:
    """Naive vs certified transport on random depth-2 instances."""
    from .core import atom, diagram, is_basepoint_pair
    from .wasserstein import CostCounters, certified_wasserstein, naive_wasserstein

    rng = np.random.default_rng(cfg.seed)
    rows = []
    for inst in range(cfg.repeats):
        def rand_l1():
            k = int(rng.integers(1, 4))
            entries = {}
            for _ in range(k):
                b = round(float(rng.random()), 3)
                d = round(b + 0.01 + float(rng.random()), 3)
                a = interval(b, d)
                entries[a] = entries.get(a, 0) + 1
            return diagram(entries, level=1)

        def rand_l2(max_atoms=3):
            entries = {}
            for _ in range(int(rng.integers(1, max_atoms + 1))):
                cand = atom(rand_l1(), rand_l1())
                if not is_basepoint_pair(cand.minus, cand.plus):
                    entries[cand] = entries.get(cand, 0) + 1
            return diagram(entries, level=2)

        G, L = rand_l2(), rand_l2()
        for p in (1.0, math.inf):
            cn, cc = CostCounters(), CostCounters()
            t0 = _now()
            wn = naive_wasserstein(G, L, p, counters=cn)
            t1 = _now()
            wc = certified_wasserstein(G, L, p, counters=cc)
            t2 = _now()
            if abs(wn - wc) > 1e-9:
                raise OracleMismatch(f"naive {wn} vs certified {wc}")
            rows.append(
                {
                    "instance": inst,
                    "p": "inf" if p == math.inf else int(p),
                    "t_naive_ns": t1 - t0,
                    "t_certified_ns": t2 - t1,
                    "naive_expansions": cn.atom_expansions,
                    "certified_expansions": cc.atom_expansions,
                    "prunes": cc.prunes,
                    "memo_hits": cc.memo_hits,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Output


def format_rows(rows: list[dict], columns: tuple[str, ...], fmt: str) -> str:
    if fmt == "jsonl":
        import json

        return "\n".join(json.dumps({c: row[c] for c in columns}) for row in rows) + "\n"
    lines = [",".join(columns)]
    lines += [",".join(str(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def convert_units(ns: int, units: str) -> float:
    return ns / UNIT_DIVISORS[units]


def scaling_svg(summary: list[dict]) -> str:
    """Minimal log-log line chart of median runtimes vs support, 640 x 420."""
    width, height, pad = 640, 420, 50
    xs = [math.log10(r["support"]) for r in summary]
    series = {
        "naive": [math.log10(max(r["naive_median"], 1)) for r in summary],
        "harmonic": [math.log10(max(r["harmonic_median"], 1)) for r in summary],
    }
    all_y = series["naive"] + series["harmonic"]
    x0, x1 = min(xs), max(xs) or 1.0
    y0, y1 = min(all_y), max(all_y)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(v):
        return pad + (v - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y0) / (y1 - y0) * (height - 2 * pad)

    colors = {"naive": "#c0392b", "harmonic": "#2471a3"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width//2}" y="{height-10}" font-size="12">log10 support</text>',
        f'<text x="12" y="{height//2}" font-size="12" transform="rotate(-90 12 {height//2})">log10 time (ns)</text>',
    ]
    for name, ys in series.items():
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{colors[name]}" stroke-width="2"/>'
        )
    parts.append(
        f'<text x="{width-pad-130}" y="{pad}" font-size="12" fill="{colors["naive"]}">naive</text>'
    )
    parts.append(
        f'<text x="{width-pad-130}" y="{pad+16}" font-size="12" fill="{colors["harmonic"]}">harmonic</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def write_output(cfg: ExperimentConfig, name: str, text: str) -> Path | None:
    if cfg.out is None:
        return None
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text)
    return path


__all__ = [
    "ExperimentConfig",
    "OracleMismatch",
    "SCALING_COLUMNS",
    "SPEEDUP_COLUMNS",
    "WBENCH_COLUMNS",
    "convert_units",
    "format_rows",
    "load_psi",
    "loglog_slope",
    "model_h1",
    "run_runtime_scaling",
    "run_speedup_matrix",
    "run_wbench",
    "scaling_summary",
    "scaling_svg",
    "support_for_index",
    "synth_level1",
    "timed_harmonic",
    "timed_naive",
    "write_output",
]
