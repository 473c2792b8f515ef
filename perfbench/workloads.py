"""The benchmark's workloads: inputs from a seed, timed library calls, checks.

Each workload is a closed loop with one caller in one thread: library calls
are issued back to back and each result is checked against an oracle after
the timed region.  The same code runs traced and untraced; the traced run
additionally splits composite calls into their layers (see README.md).
"""

from __future__ import annotations

import gc
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from statistics import median

import numpy as np

from hopd import aggregation, core, envelopes, filtration, graphgen, harmonic, wasserstein
from hopd.core import VirtualDiagram

import oracles

INF = math.inf
FAILED = object()  # marks the output of a call that raised


class Run:
    """Timings, check counts and the tracer of one workload run."""

    def __init__(self, tracer, seconds: float, now=time.perf_counter, sync=lambda: None):
        self.tr = tracer
        self.seconds = seconds
        self.now = now  # the clock every reported interval is read from
        self.sync = sync  # pins the clock's rate at the ends of a short interval
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probed = 0  # checks of the known-defect probe, outside attempted/failed
        self.defects: list[str] = []
        self.setup_times: list[float] = []
        self.rounds: list[dict[str, float]] = []  # per round: route -> seconds
        self.samples: dict[str, list[list[float]]] = {}  # route -> per item, its times
        self.absent: set[str] = set()  # traced helpers missing from the library

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.tr.count("oracle.failed")
            if len(self.failures) < 20:
                self.failures.append(what)
        self.tr.count("oracle.checks")

    def known_defect(self, ok: bool, what: str) -> None:
        """A check of the known-defect probe: reported, but not an operation of the workload."""
        self.probed += 1
        if not ok:
            self.defects.append(what)
            self.tr.count("oracle.known_defects")

    def call(self, span: str, what: str, fn, *args, **kwargs):
        """One library call; an exception is a failed operation, never an abort."""
        with self.tr.span(span):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - counted, reported, run continues
                self.check(False, f"{what}: {type(exc).__name__}: {exc}")
                return FAILED

    def setup(self, build, repeat: int = 1):
        """Time one set-up batch; returns what `build` returns.

        With `repeat`, a build that starts from scratch each time runs
        `repeat` times in the batch, and the mean per build is recorded.
        """
        gc.collect()
        self.tr.begin_op("setup")
        self.sync()
        t0 = self.now()
        with self.tr.span("setup"):
            for _ in range(repeat):
                out = build()
        self.sync()
        self.setup_times.append((self.now() - t0) / repeat)
        return out

    def timed_rounds(self, body, min_rounds: int) -> None:
        """Repeat `body()` until `seconds` have passed and `min_rounds` are done."""
        start = time.perf_counter()
        while len(self.rounds) < min_rounds or time.perf_counter() - start < self.seconds:
            gc.collect()
            self.tr.begin_op("round")
            self.rounds.append({})
            body()

    def record(self, route: str, k: int, seconds: float) -> None:
        """A time of item k of `route`: one call or one group of calls, the same in every pass."""
        items = self.samples.setdefault(route, [])
        if k == len(items):
            items.append([])
        items[k].append(seconds)
        totals = self.rounds[-1]
        totals[route] = totals.get(route, 0.0) + seconds

    def item_medians(self, route: str) -> list[float]:
        """Per item of `route`, its median time over the passes."""
        return [float(median(ts)) for ts in self.samples[route]]

    def route_time(self, *routes: str) -> float:
        """Sum over the routes' items of each item's median time over the passes.

        A slow spell of the host slows the items it covers in one or two
        rounds; their medians leave it out, where a median of round totals
        would not once it spans two of a few rounds.
        """
        return math.fsum(t for route in routes for t in self.item_medians(route))

    def timed(self, route: str, k: int, span: str, what: str, fn, *args, **kwargs):
        """`call`, timed as item k of `route`."""
        t0 = self.now()
        out = self.call(span, what, fn, *args, **kwargs)
        self.record(route, k, self.now() - t0)
        return out

    def setup_median(self) -> float:
        return float(median(self.setup_times))


def fresh(xs):
    """Copies without the lazily cached arrays, so every route pays its own warm-up."""
    return [VirtualDiagram(x.level, x.entries) for x in xs]


@contextmanager
def traced_calls(run: Run, *targets):
    """Traced run only: make the library's inner calls record spans.

    A target is (owner, attribute, span, metric, after).  Composite library
    calls look these names up at call time (module globals, class methods),
    so a wrapper installed here splits one public call into its layers while
    the benchmark makes the same call as in the untraced run.  `after`, if
    given, receives each result to add counters.  A metric none of whose
    attributes exists in the library is recorded as absent.
    """
    if not run.tr.enabled:
        yield
        return
    saved, found = [], set()
    for owner, attr, span, metric, after in targets:
        inner = getattr(owner, attr, None)
        if inner is None:
            continue
        found.add(metric)
        saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, _spanned(run.tr, span, inner, after))
    run.absent.update(t[3] for t in targets if t[3] not in found)
    try:
        yield
    finally:
        for owner, attr, own in reversed(saved):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def _spanned(tr, span: str, inner, after):
    def wrapper(*args, **kwargs):
        with tr.span(span):
            out = inner(*args, **kwargs)
        if after is not None:
            after(out)
        return out

    return wrapper


def traced_warm(run: Run):
    """The lazy coordinate arrays, timed where the aggregation and harmonic routes read them."""
    return traced_calls(
        run,
        (aggregation, "level1_arrays", "aggregation.warm", "aggregation.warm_s", None),
        (harmonic, "level1_arrays", "aggregation.warm", "aggregation.warm_s", None),
    )


# ---------------------------------------------------------------------------
# Aggregation routes shared by graph-mean and synth-large


class Reference:
    """Oracle nets and potential of one signed level-1 diagram."""

    __slots__ = ("atoms", "net", "psi", "phase")

    def __init__(self, x: VirtualDiagram):
        self.atoms = [a for a, _ in x.entries]
        self.net = oracles.dominance_nets(self.atoms, [c for _, c in x.entries])
        self.psi = oracles.potential(self.atoms)
        self.phase = oracles.phase_of_nets(self.psi, self.net)


def references(run: Run, xs) -> list[Reference]:
    run.tr.begin_op("oracle")
    with run.tr.span("oracle.check"):
        return [Reference(x) for x in xs]


def pairs_route(run: Run, xs):
    out = []
    for k, x in enumerate(xs):
        agg = run.timed("pairs_s", k, "aggregation.pairs", "self_aggregate_pairs", aggregation.self_aggregate_pairs, x)
        if run.tr.enabled:
            n = x.support_size()
            run.tr.count("aggregation.pairs_visited", n * n)
            if agg is not FAILED:
                run.tr.count("aggregation.pair_classes", agg.support_size())
        out.append(agg)
    return out


def harmonic_route(run: Run, xs, psi):
    out = []
    for k, x in enumerate(xs):
        raw = run.timed("harmonic_s", k, "harmonic.eval", "harmonic_eval_raw", harmonic.harmonic_eval_raw, x, psi)
        if run.tr.enabled:
            n = x.support_size()
            run.tr.count("harmonic.calls")
            run.tr.count("harmonic.transform_ops", 2 * n * max(1, math.ceil(math.log2(max(n, 2)))))
        out.append(raw)
    return out


def attempt(check, what: str, fn, *args):
    """An untimed library call whose exception `check` records as a mismatch."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001
        check(False, f"{what}: {type(exc).__name__}: {exc}")
        return FAILED


def check_pairs(check, aggs, refs) -> None:
    for k, (agg, ref) in enumerate(zip(aggs, refs)):
        if agg is FAILED:
            continue
        try:
            ok = np.array_equal(harmonic.coboundary_net_multiplicities(agg, agg.base), ref.net)
            why = "differ from the oracle"
        except Exception as exc:  # noqa: BLE001
            ok, why = False, f"raised {type(exc).__name__}: {exc}"
        check(ok, f"pairs nets {why} on input {k}")


def check_harmonic(check, raws, refs) -> None:
    for k, (raw, ref) in enumerate(zip(raws, refs)):
        if raw is FAILED:
            continue
        check(
            oracles.angles_close(float(raw), ref.phase),
            f"harmonic phase {raw!r} vs oracle {ref.phase!r} on input {k}",
        )


def aggregation_rounds(run: Run, xs, refs, pairs_max: int, min_rounds: int, blocks=()) -> None:
    """Timed rounds of the pairs and harmonic routes on fresh copies of xs.

    With `blocks` (lists of indices into xs), each round also runs the
    explicit route, one `mean_aggregate` call per block, between two passes
    of the other routes.  It takes most of a round, so the second pass
    doubles their samples at little cost.
    """
    psi = harmonic.CoboundaryCharacter(1)
    pair_idx = [k for k, x in enumerate(xs) if x.support_size() <= pairs_max]

    def aggregation_pass():
        pair_in = fresh([xs[k] for k in pair_idx])
        harm_in = fresh(xs)
        with run.tr.span("route.pairs"):
            aggs = pairs_route(run, pair_in)
        with run.tr.span("route.harmonic"):
            raws = harmonic_route(run, harm_in, psi)
        with run.tr.span("oracle.check"):
            check_pairs(run.check, aggs, [refs[k] for k in pair_idx])
            check_harmonic(run.check, raws, refs)
        return raws

    def body():
        raws = aggregation_pass()
        if blocks:
            explicit_route(run, xs, refs, blocks, raws)
            # the means are large object graphs; collect them before the
            # second pass, whose calls the collector's passes would slow
            gc.collect()
            aggregation_pass()

    with traced_warm(run):
        run.timed_rounds(body, min_rounds)


# ---------------------------------------------------------------------------
# graph-mean


GRAPH_MEAN = {
    "models": graphgen.MODELS,
    "samples": 30,  # m, the paper's sample count per model
    "batches": 3,
    "block": 5,  # samples per explicit mean (see README: the literal loop is quadratic in m)
    "explicit_pair": ("er", "ws"),
    "min_rounds": 3,  # a round is ~8 s, most of it the explicit route
}


def graph_h1(run: Run, models, first: int, count: int):
    """H1 diagrams (cap policy) of `count` samples per model from sample index `first`."""
    tr = run.tr
    out = {}
    for model in models:
        spec = graphgen.model_spec(model)
        idx = graphgen.model_index(model)
        dgms = []
        for k in range(first, first + count):
            sample = run.call("graphgen.generate", f"generate {model}#{k}", graphgen.generate, spec, graphgen.seed_for(idx, k))
            if sample is FAILED:
                dgms.append(FAILED)
                continue
            tr.count("graphgen.graphs")
            filt = run.call("filtration.clique", f"clique {model}#{k}", filtration.build_clique_filtration, sample.graph, normalize=True)
            if filt is FAILED:
                dgms.append(FAILED)
                continue
            tr.count("filtration.simplices", len(filt.simplices))
            dgm = run.call("filtration.h1", f"h1 {model}#{k}", filtration.persistence_h1, filt)
            if dgm is not FAILED:
                tr.count("filtration.h1_atoms", len(dgm))
            dgms.append(dgm)
        out[model] = dgms
    return out


def differences(run: Run, g_list, h_list, label: str):
    out = []
    for k, (g, h) in enumerate(zip(g_list, h_list)):
        if g is FAILED or h is FAILED:
            continue
        d = run.call("core.diff", f"{label}#{k} difference", lambda a, b: a.to_virtual() - b.to_virtual(), g, h)
        if d is not FAILED:
            out.append(d)
    return out


def graph_mean_inputs(run: Run, seed: int, cfg) -> dict:
    """Per model pair, the m sample differences g - h, built in equal batches."""
    models = cfg["models"]
    m, batches = cfg["samples"], cfg["batches"]
    per = m // batches
    pairs = [(a, b) for i, a in enumerate(models) for b in models[i + 1 :]]
    diffs = {p: [] for p in pairs}
    for b in range(batches):
        def build(b=b):
            h1 = graph_h1(run, models, seed * m + b * per, per)
            for a, c in pairs:
                diffs[(a, c)] += differences(run, h1[a], h1[c], f"{a}-{c}")
        run.setup(build)
    return diffs


def traced_explicit(run: Run):
    """`mean_aggregate` split into its pair loops, the running sum and the exact mean."""
    return traced_calls(
        run,
        (aggregation, "bilinear_aggregate", "aggregation.loop", "aggregation.loop_s",
         lambda part: run.tr.count("aggregation.loop_classes", part.support_size())),
        (VirtualDiagram, "__add__", "core.add", "core.add_s", None),
        (aggregation, "linear_diagram", "core.linear", "core.linear_s", None),
    )


def explicit_route(run: Run, xs, refs, blocks, raws) -> None:
    """`mean_aggregate` on fresh copies of each block, checked against the oracle and `raws`."""
    block_in = [fresh([xs[k] for k in idx]) for idx in blocks]
    with run.tr.span("route.explicit"), traced_explicit(run):
        means = [run.timed("explicit_s", b, "aggregation.mean", "mean_aggregate", aggregation.mean_aggregate, x)
                 for b, x in enumerate(block_in)]
    with run.tr.span("oracle.check"):
        for idx, mean in zip(blocks, means):
            check_explicit(run, mean, [refs[k] for k in idx], [raws[k] for k in idx])


def check_explicit(run: Run, mean, refs, raws) -> None:
    """Explicit mean of one block against the oracle nets and the harmonic phases."""
    if mean is FAILED:
        return
    m = len(refs)
    expected: dict[int, int] = {}
    atoms: dict[int, object] = {}
    for ref in refs:
        for a, k in zip(ref.atoms, ref.net.tolist()):
            atoms[a.uid] = a
            expected[a.uid] = expected.get(a.uid, 0) + k
    expected = {uid: k for uid, k in expected.items() if k}
    try:
        got = oracles.mean_nets(mean, m)
    except ValueError as exc:
        run.check(False, f"explicit mean: {exc}")
        return
    run.check(got == expected, "explicit mean nets differ from the oracle")
    if got != expected or any(r is FAILED for r in raws):
        return
    explicit = math.fsum(k * core.psi_golden(atoms[uid]) for uid, k in got.items())
    run.check(
        oracles.angles_close(math.fsum(raws) / m, explicit / m),
        "harmonic mean phase differs from the explicit mean phase",
    )


def graph_mean(run: Run, seed: int, cfg=GRAPH_MEAN) -> dict:
    diffs = graph_mean_inputs(run, seed, cfg)
    keys = list(diffs)
    xs = [x for key in keys for x in diffs[key]]
    group_of = [key for key in keys for _ in diffs[key]]
    refs = references(run, xs)

    pair = tuple(cfg["explicit_pair"])
    block = cfg["block"]
    explicit_idx = [k for k, g in enumerate(group_of) if g == pair]
    blocks = [explicit_idx[i : i + block] for i in range(0, len(explicit_idx), block)]
    aggregation_rounds(run, xs, refs, math.inf, cfg["min_rounds"], blocks)

    explicit_s = run.route_time("explicit_s")
    pairs_s = run.route_time("pairs_s")
    harmonic_s = run.route_time("harmonic_s")
    harm_items = run.item_medians("harmonic_s")
    harm_pair = math.fsum(harm_items[k] for k in explicit_idx)
    return {
        "detail": {"explicit_s": explicit_s, "pairs_s": pairs_s, "harmonic_s": harmonic_s},
        "slots": {"baseline_s": explicit_s, "method_s": harmonic_s},
        "ratios": {
            "explicit_over_harmonic": {
                "value": explicit_s / harm_pair,
                "base": f"{pair[0]} x {pair[1]}: explicit mean over {len(blocks)} blocks of "
                f"{block} samples ({explicit_s:.4f} s) / harmonic route on the same "
                f"{len(explicit_idx)} samples ({harm_pair:.6f} s)",
            },
            "pairs_over_harmonic": {
                "value": pairs_s / harmonic_s,
                "base": f"all {len(xs)} differences of {len(keys)} model pairs",
            },
        },
        "inputs": {"differences": len(xs), "atoms": sum(x.support_size() for x in xs)},
    }


# ---------------------------------------------------------------------------
# synth-large


SYNTH_LARGE = {
    "rungs": (1_000, 10_000, 100_000),
    "ladders": 2,  # finite ladders the timed rounds run on
    "pairs_max": 10_000,  # 10^10 ordered pairs at 10^5 are out of reach
    "inf_share": 0.01,  # of the atoms of the probe ladder
    "min_rounds": 3,
}


def synth_level1(rng: np.random.Generator, n: int, inf_count: int) -> VirtualDiagram:
    """Narrow-family signed diagram; `inf_count` atoms get a +inf death."""
    births = rng.random(n)
    deaths = births + 0.5 * (1.0 + rng.random(n) / n)
    if inf_count:
        deaths[rng.choice(n, size=inf_count, replace=False)] = INF
    coeffs = rng.integers(1, 11, size=n) * rng.choice((-1, 1), size=n)
    entries = {}
    for b, d, c in zip(births.tolist(), deaths.tolist(), coeffs.tolist()):
        entries[core.interval(b, d)] = c
    return core.virtual_diagram(entries, level=1)


def synth_inputs(run: Run, seed: int, cfg) -> tuple[list[VirtualDiagram], list[VirtualDiagram]]:
    """The finite ladders, and one ladder with +inf deaths on `inf_share` of the atoms.

    Each ladder is one set-up batch.
    """
    ladders = []
    for ladder in range(cfg["ladders"] + 1):
        share = cfg["inf_share"] if ladder == cfg["ladders"] else 0.0

        def build(ladder=ladder, share=share):
            rng = np.random.default_rng([seed, ladder])
            out = []
            for n in cfg["rungs"]:
                k = int(round(share * n))
                x = run.call("core.build", f"synth n={n} inf={k}", synth_level1, rng, n, k)
                if x is not FAILED:
                    out.append(x)
            return out
        ladders.append(run.setup(build))
    return [x for xs in ladders[:-1] for x in xs], ladders[-1]


def defect_probe(run: Run, xs, pairs_max: int) -> None:
    """Both routes on the +inf ladder, untimed, checked against the oracle.

    The default kernel mis-orders +inf deaths (ROADMAP item 3), so the
    harmonic route disagrees with the oracle here.  A workload must be one
    on which no operation fails, so these inputs stay out of the timed,
    checked rounds; their mismatches are reported as known defects.
    """
    run.tr.begin_op("probe")
    check = run.known_defect
    refs = [Reference(x) for x in xs]
    small = [k for k, x in enumerate(xs) if x.support_size() <= pairs_max]
    aggs = [attempt(check, "self_aggregate_pairs", aggregation.self_aggregate_pairs, x)
            for x in fresh([xs[k] for k in small])]
    psi = harmonic.CoboundaryCharacter(1)
    raws = [attempt(check, "harmonic_eval_raw", harmonic.harmonic_eval_raw, x, psi) for x in fresh(xs)]
    check_pairs(check, aggs, [refs[k] for k in small])
    check_harmonic(check, raws, refs)


def synth_large(run: Run, seed: int, cfg=SYNTH_LARGE) -> dict:
    xs, inf_xs = synth_inputs(run, seed, cfg)
    refs = references(run, xs)
    aggregation_rounds(run, xs, refs, cfg["pairs_max"], cfg["min_rounds"])
    defect_probe(run, inf_xs, cfg["pairs_max"])
    pairs_s = run.route_time("pairs_s")
    harmonic_s = run.route_time("harmonic_s")
    return {
        "detail": {"pairs_s": pairs_s, "harmonic_s": harmonic_s},
        "slots": {"baseline_s": pairs_s, "method_s": harmonic_s},
        "ratios": {
            "pairs_over_harmonic": {
                "value": pairs_s / harmonic_s,
                "base": f"pairs route on supports <= {cfg['pairs_max']}, harmonic on all "
                f"{len(xs)} diagrams up to {max(cfg['rungs'])}",
            },
        },
        "inputs": {
            "diagrams": len(xs),
            "atoms": sum(x.support_size() for x in xs),
            "probe_diagrams": len(inf_xs),
            "probe_inf_deaths": sum(1 for x in inf_xs for a, _ in x.entries if math.isinf(a.plus.coords[0])),
        },
    }


# ---------------------------------------------------------------------------
# transport


TRANSPORT = {
    # (atoms per level-2 diagram, intervals per endpoint diagram), cycled over instances
    "shapes": ((5, 5), (6, 6), (7, 7)),
    "instances": 6,
    "exponents": (1.0, 2.0, INF),
    "graph_pairs": 15,  # graph sizes vary with the seed; more pairs average that out
    "graph_exponents": (1.0, INF),
    "batches": 3,
    "min_rounds": 3,  # a round is ~6 s; per-problem medians need three
}


def _rand_level1(rng, k: int):
    entries = {}
    for _ in range(k):
        b = round(float(rng.random()), 3)
        d = round(b + 0.01 + float(rng.random()), 3)
        a = core.interval(b, d)
        entries[a] = entries.get(a, 0) + 1
    return core.diagram(entries, level=1)


def _rand_level2(rng, atoms: int, intervals: int):
    entries = {}
    for _ in range(atoms):
        cand = core.atom(_rand_level1(rng, intervals), _rand_level1(rng, intervals))
        if not core.is_basepoint_pair(cand.minus, cand.plus):
            entries[cand] = entries.get(cand, 0) + 1
    return core.diagram(entries, level=2)


def transport_inputs(run: Run, seed: int, cfg):
    shapes = cfg["shapes"]
    n_inst, n_graph, batches = cfg["instances"], cfg["graph_pairs"], cfg["batches"]
    instances, level1, diffs = [], [], []
    for b in range(batches):
        def build(b=b):
            rng = np.random.default_rng([seed, b])
            for k in range(b * n_inst // batches, (b + 1) * n_inst // batches):
                atoms, intervals = shapes[k % len(shapes)]
                pair = run.call("core.build", f"instance {k}", lambda: (
                    _rand_level2(rng, atoms, intervals), _rand_level2(rng, atoms, intervals)))
                if pair is not FAILED:
                    instances.append(pair)
            first = seed * n_graph + b * n_graph // batches
            count = (b + 1) * n_graph // batches - b * n_graph // batches
            h1 = graph_h1(run, ("er", "ws"), first, count)
            level1.extend((g, h) for g, h in zip(h1["er"], h1["ws"]) if g is not FAILED and h is not FAILED)
            diffs.extend(differences(run, h1["er"], h1["ws"], "er-ws"))
        run.setup(build)
    return instances, level1, diffs


def transport(run: Run, seed: int, cfg=TRANSPORT) -> dict:
    instances, level1, diffs = transport_inputs(run, seed, cfg)
    problems = [(G, L, p) for G, L in instances for p in cfg["exponents"]]
    problems += [(G, L, p) for G, L in level1 for p in cfg["graph_exponents"]]

    run.tr.begin_op("oracle")
    with run.tr.span("oracle.check"):
        lp = []
        for x in diffs:
            atoms = [a for a, _ in x.entries]
            try:
                lp.append(oracles.w1_linprog(oracles.w1_cost_matrix(atoms), [c for _, c in x.entries]))
            except Exception as exc:  # noqa: BLE001
                run.check(False, f"w1 oracle: {type(exc).__name__}: {exc}")
                lp.append(None)

    def solve(route, span, name, key):
        out = []
        with run.tr.span(f"route.{key}"):
            for k, (G, L, p) in enumerate(problems):
                counters = wasserstein.CostCounters() if run.tr.enabled else None
                kwargs = {"counters": counters} if counters is not None else {}
                out.append(run.timed(key, k, span, name, route, G, L, p, **kwargs))
                if counters is not None:
                    tag = span.split(".")[1]
                    run.tr.count(f"wasserstein.{tag}_expansions", counters.atom_expansions)
                    run.tr.count("wasserstein.assign_calls", counters.assign_calls)
                    if tag == "certified":
                        run.tr.count("wasserstein.prunes", counters.prunes)
                        run.tr.count("wasserstein.memo_hits", counters.memo_hits)
                        run.tr.count("wasserstein.memo_keys", counters.memo_keys)
        return out

    def body():
        naive = solve(wasserstein.naive_wasserstein, "wasserstein.naive", "naive_wasserstein", "naive_w_s")
        cert = solve(wasserstein.certified_wasserstein, "wasserstein.certified", "certified_wasserstein", "certified_w_s")
        with run.tr.span("route.w1_norm"):
            norms = [run.timed("w1_norm_s", k, "wasserstein.w1_norm", "linear_w1_norm", wasserstein.linear_w1_norm, x)
                     for k, x in enumerate(diffs)]
        with run.tr.span("oracle.check"):
            for k, (a, b) in enumerate(zip(naive, cert)):
                if a is FAILED or b is FAILED:
                    continue
                ok = a == b or abs(a - b) <= 1e-9
                run.check(ok, f"naive {a!r} vs certified {b!r} on problem {k}")
            for k, (got, want) in enumerate(zip(norms, lp)):
                if got is FAILED or want is None:
                    continue
                ok = abs(got - want) <= 1e-7 * max(1.0, abs(want))
                run.check(ok, f"linear_w1_norm {got!r} vs linprog {want!r} on difference {k}")

    with traced_calls(run, (wasserstein, "min_cost_transport", "flow.solve", "flow.solve_s", None)):
        run.timed_rounds(body, cfg["min_rounds"])
    naive_s = run.route_time("naive_w_s")
    cert_s = run.route_time("certified_w_s")
    w1_s = run.route_time("w1_norm_s")
    return {
        "detail": {"naive_w_s": naive_s, "certified_w_s": cert_s, "w1_norm_s": w1_s},
        "slots": {"baseline_s": naive_s, "method_s": cert_s + w1_s},
        "ratios": {
            "naive_over_certified": {
                "value": naive_s / cert_s,
                "base": f"{len(problems)} transport problems ({len(instances)} depth-2 "
                f"instances x {len(cfg['exponents'])} exponents, {len(level1)} er/ws level-1 "
                f"pairs x {len(cfg['graph_exponents'])})",
            },
        },
        "inputs": {"problems": len(problems), "w1_differences": len(diffs),
                   "w1_atoms": sum(x.support_size() for x in diffs)},
    }


# ---------------------------------------------------------------------------
# envelope


ENVELOPE = {
    # c = 3, N = 6 alone takes minutes; it is left out
    "sweep": tuple((c, N) for c in (1, 2) for N in range(1, 7)) + tuple((3, N) for N in range(1, 6)),
    "batches": 5,
    "builds": 20,  # one build of the rows takes ~2 ms; a batch times 20 of them
    "min_rounds": 1,
}


def envelope_side(run: Run, c: int, N: int, mode: str):
    what = f"envelope_average({c},{N},{mode})"
    value = run.call("envelopes.moment", what, envelopes.envelope_average, c, N, mode)
    if value is not FAILED:
        run.tr.count("envelopes.calls")
        run.tr.count("envelopes.result_bits", value.numerator.bit_length() + value.denominator.bit_length())
    return value


def envelope(run: Run, seed: int, cfg=ENVELOPE) -> dict:
    # Deterministic: the seed is accepted and ignored.  The inputs are the
    # sweep and the Stirling rows the exact DP reads, built from scratch.
    sweep = cfg["sweep"]
    widest = max(c * 2**N for c, N in sweep)
    rows = getattr(envelopes, "_stirling_row", None)

    def build():
        if hasattr(rows, "cache_clear"):
            rows.cache_clear()
        return run.call("envelopes.tables", "bell_number", envelopes.bell_number, widest)

    for _ in range(cfg["batches"]):
        run.setup(build, cfg["builds"])

    results = {}

    def body():
        naive, cert = {}, {}
        with run.tr.span("route.envelope_naive"):
            for k, (c, N) in enumerate(sweep):
                t0 = run.now()
                naive[(c, N)] = envelope_side(run, c, N, "naive")
                run.record("envelope_naive_s", k, run.now() - t0)
        with run.tr.span("route.envelope_certified"):
            for k, (c, N) in enumerate(sweep):
                t0 = run.now()
                cert[(c, N)] = envelope_side(run, c, N, "certified")
                results[(c, N)] = run.call("envelopes.bounds", "sandwich_bounds", envelopes.sandwich_bounds, c, N)
                run.call("envelopes.worst", "envelope_worst", envelopes.envelope_worst, c, N, 2)
                run.record("envelope_certified_s", k, run.now() - t0)
        with run.tr.span("oracle.check"):
            for key in sweep:
                a, b, bounds = naive[key], cert[key], results[key]
                if FAILED in (a, b, bounds):
                    continue
                lo, hi = bounds
                run.check(lo <= a / b <= hi, f"ratio outside its sandwich bounds at (c, N) = {key}")

    run.timed_rounds(body, cfg["min_rounds"])
    run.tr.begin_op("check")
    with run.tr.span("oracle.check"):
        for what, ok in hand_values():
            run.check(ok, f"hand value {what}")
    naive_s = run.route_time("envelope_naive_s")
    cert_s = run.route_time("envelope_certified_s")
    return {
        "detail": {
            "envelope_s": naive_s + cert_s,
            "envelope_naive_s": naive_s,
            "envelope_certified_s": cert_s,
        },
        "slots": {"baseline_s": naive_s, "method_s": cert_s},
        "ratios": {},
        "inputs": {"sweep": len(sweep), "stirling_rows": widest},
    }


def hand_values():
    """The closed-form and hand-enumerated values the acceptance suite pins."""
    try:
        w1 = envelopes.envelope_worst(1, 1, 1)
        w2 = envelopes.envelope_worst(1, 2, 2)
        yield "worst(1,1,1)", (
            w1["naive_aggregation"], w1["harmonic_evaluation"],
            w1["naive_wasserstein"], w1["certified_wasserstein"],
        ) == (4, 2, 8, 32)
        yield "worst(1,2,2)", (w2["naive_aggregation"], w2["ratio"]) == (16, 2)
        yield "average(1,1,naive)", envelopes.envelope_average(1, 1, "naive") == Fraction(35, 2)
        yield "bell(4), S(2,1)", envelopes.bell_number(4) == 15 and envelopes.stirling2(2, 1) == 1
    except Exception as exc:  # noqa: BLE001
        yield f"raised {type(exc).__name__}: {exc}", False


WORKLOADS = {
    "graph-mean": graph_mean,
    "synth-large": synth_large,
    "transport": transport,
    "envelope": envelope,
}
