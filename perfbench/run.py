"""hopd benchmark: one workload per process, single thread, closed loop.

    python3 perfbench/run.py --workload graph-mean --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout: the library is imported from its
`src/` directory, never from an installed copy.  The last line of standard
output is one JSON object {correct, attempted, failed, metrics}; the lines
before it print every metric with its unit, the environment and the
failures.  --trace 1 reports the per-layer metrics instead, after running the
same workload untraced in a child process to measure the tracing overhead.
A full record of each run is written to perfbench/out/.

Every reported interval is read from refclock.ReferenceClock: wall time
rescaled to a reference CPU speed measured by a probe every 20 ms, because
the speed of a host whose CPUs are shared drifts by 1.7x within seconds, and
CPU time drifts with it.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported: the workloads run in one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("graph-mean", "synth-large", "transport", "envelope")

# name, unit, how it is read from the trace: ("span" | "count", key) give the
# median over operations (set-up batches, rounds) of the per-operation sum
PER_LAYER = (
    ("graphgen.generate_s", "ref_s", "span", "graphgen.generate"),
    ("graphgen.graphs", "count", "count", "graphgen.graphs"),
    ("filtration.clique_s", "ref_s", "span", "filtration.clique"),
    ("filtration.simplices", "count", "count", "filtration.simplices"),
    ("filtration.h1_s", "ref_s", "span", "filtration.h1"),
    ("filtration.h1_atoms", "count", "count", "filtration.h1_atoms"),
    ("core.diff_s", "ref_s", "span", "core.diff"),
    ("core.add_s", "ref_s", "span", "core.add"),
    ("core.linear_s", "ref_s", "span", "core.linear"),
    ("aggregation.loop_s", "ref_s", "span", "aggregation.loop"),
    ("aggregation.loop_classes", "count", "count", "aggregation.loop_classes"),
    ("core.build_s", "ref_s", "span", "core.build"),
    ("core.intern_table", "count", "final", "core.intern_table"),
    ("aggregation.warm_s", "ref_s", "span", "aggregation.warm"),
    ("aggregation.pairs_s", "ref_s", "span", "aggregation.pairs"),
    ("aggregation.pairs_visited", "count", "count", "aggregation.pairs_visited"),
    ("aggregation.pair_classes", "count", "count", "aggregation.pair_classes"),
    ("harmonic.eval_s", "ref_s", "span", "harmonic.eval"),
    ("harmonic.calls", "count", "count", "harmonic.calls"),
    ("harmonic.call_p50_us", "ref_us", "percentile", 50),
    ("harmonic.call_p99_us", "ref_us", "percentile", 99),
    ("harmonic.transform_ops", "count", "count", "harmonic.transform_ops"),
    ("wasserstein.naive_s", "ref_s", "span", "wasserstein.naive"),
    ("wasserstein.certified_s", "ref_s", "span", "wasserstein.certified"),
    ("wasserstein.naive_expansions", "count", "count", "wasserstein.naive_expansions"),
    ("wasserstein.certified_expansions", "count", "count", "wasserstein.certified_expansions"),
    ("wasserstein.prunes", "count", "count", "wasserstein.prunes"),
    ("wasserstein.memo_hit_ratio", "ratio", "memo", None),
    ("wasserstein.assign_calls", "count", "count", "wasserstein.assign_calls"),
    ("core.cost_matrix_s", "ref_s", "span", "wasserstein.w1_norm"),  # self time: minus flow.solve
    ("flow.solve_s", "ref_s", "span", "flow.solve"),
    ("envelopes.moment_s", "ref_s", "span", "envelopes.moment"),
    ("envelopes.calls", "count", "count", "envelopes.calls"),
    ("envelopes.result_bits", "bits", "count", "envelopes.result_bits"),
    ("oracle.check_s", "ref_s", "run_span", "oracle.check"),
    ("oracle.checks", "count", "run_count", "oracle.checks"),
    ("oracle.failed", "count", "run_count", "oracle.failed"),
    ("oracle.known_defects", "count", "run_count", "oracle.known_defects"),
)


def load_library():
    if not (SRC / "hopd" / "__init__.py").is_file():
        sys.exit(f"error: no library source at {SRC / 'hopd'}; run from a hopd source checkout")
    sys.path.insert(0, str(SRC))
    import hopd

    if Path(hopd.__file__).resolve().parent != (SRC / "hopd").resolve():
        sys.exit(f"error: hopd imported from {hopd.__file__}, not from {SRC}")


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hopd").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "threads": {"pool": "none", "callers": 1, **{v: os.environ[v] for v in THREAD_VARS}},
        "loadavg_start": list(os.getloadavg()),
    }


def per_layer(tracer) -> dict:
    import numpy as np

    from hopd.core import intern_table_size

    metrics = {}
    for name, unit, kind, key in PER_LAYER:
        if kind == "span":
            value = tracer.per_op_median(key)
        elif kind == "count":
            value = tracer.per_op_median(key, counter=True)
        elif kind == "final":
            value = intern_table_size()
        elif kind == "percentile":
            calls = tracer.durations_us("harmonic.eval")
            value = float(np.percentile(calls, key)) if calls else 0.0
        elif kind == "memo":
            hits, keys = tracer.total("wasserstein.memo_hits"), tracer.total("wasserstein.memo_keys")
            value = hits / (hits + keys) if hits + keys else 0.0
        elif kind == "run_span":
            value = tracer.span_total(key)
        else:
            value = tracer.total(key)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def span_cost_s(now, samples: int = 20000) -> float:
    """Seconds one traced span with a counter costs, read on `now` (median of 5)."""
    from tracer import Tracer

    costs = []
    for _ in range(5):
        tr = Tracer(now)
        t0 = now()
        for _ in range(samples):
            with tr.span("probe"):
                tr.count("probe")
        costs.append((now() - t0) / samples)
    return sorted(costs)[2]


def measure(workload: str, seed: int, seconds: float, trace: bool, cfg=None) -> tuple[dict, dict, object]:
    """Run one workload in this process; returns (record, metrics, run)."""
    import workloads
    from refclock import ReferenceClock
    from tracer import NullTracer, Tracer

    env = environment()
    fn = workloads.WORKLOADS[workload]
    t0, cpu0 = time.perf_counter(), time.process_time()
    with ReferenceClock() as clock:
        tracer = Tracer(clock.now) if trace else NullTracer()
        run = workloads.Run(tracer, seconds, clock.now, clock.sync)
        result = fn(run, seed) if cfg is None else fn(run, seed, cfg)
        run_ref = clock.now()
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    env["loadavg_end"] = list(os.getloadavg())
    env["clock"] = {"run_reference_s": run_ref, "run_wall_s": wall, "run_cpu_s": cpu, **clock.stats()}

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = run.setup_median()
    route = {"setup_s": setup_s, **result["detail"], **result["slots"], "peak_rss_mb": peak_rss_mb}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "wall_s": wall, "rounds": len(run.rounds), "setup_batches": run.setup_times,
        "round_times": run.rounds, "route_metrics": route, "ratios": result["ratios"],
        "inputs": result["inputs"], "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / run.attempted if run.attempted else 1.0,
        "failures": run.failures,
        "known_defects": {"probed": run.probed, "mismatched": len(run.defects), "what": run.defects[:20]},
    }
    if trace:
        metrics = per_layer(tracer)  # an absent helper records no span, so it reads 0
        record["per_layer"] = metrics
        record["absent"] = sorted(run.absent)
        record["trace_data"] = tracer.dump()
        record["tracing_cost_estimate_s"] = span_cost_s(clock.now) * len(tracer.spans)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},  # reference seconds too; see README.md
            "baseline_s": {"value": result["slots"]["baseline_s"], "unit": "ref_s"},
            "method_s": {"value": result["slots"]["method_s"], "unit": "ref_s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return record, metrics, run


def run_one(args) -> int:
    load_library()
    untraced = untraced_reference(args) if args.trace else None
    record, metrics, run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        record["tracing_overhead"] = "absent: the untraced child run failed" if untraced is None else {
            k: {"traced": v, "untraced": untraced[k], "difference": v - untraced[k]}
            for k, v in record["route_metrics"].items() if k.endswith("_s") and k in untraced
        }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str))
    report(record, out_path)
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics,
    }))
    return 0


def untraced_reference(args) -> dict | None:
    """Run the same workload untraced in a child process; its route metrics."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    path = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
    try:
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=170)
        return json.loads(path.read_text())["route_metrics"]
    except (subprocess.SubprocessError, OSError, ValueError, KeyError):
        return None


UNITS = {"peak_rss_mb": "MB"}  # every other route metric is in reference seconds


def report(record: dict, out_path: Path) -> None:
    w = record["workload"]
    print(f"# {w} seed={record['seed']} seconds={record['seconds']} trace={record['trace']} "
          f"rounds={record['rounds']} wall={record['wall_s']:.2f} s")
    print(f"# environment {json.dumps(record['environment'])}")
    print(f"# inputs {json.dumps(record['inputs'])}")
    clock = record["environment"]["clock"]
    print(f"# reference clock: {clock['probes']} probes, median {clock['probe_median_s'] * 1e3:.4f} ms "
          f"(p10 {clock['probe_p10_s'] * 1e3:.4f}, p90 {clock['probe_p90_s'] * 1e3:.4f}); the run took "
          f"{clock['run_reference_s']:.2f} reference s, {clock['run_wall_s']:.2f} wall s, "
          f"{clock['run_cpu_s']:.2f} CPU s")
    for name, value in record["route_metrics"].items():
        print(f"{w}  {name:<22} {value:.6g} {UNITS.get(name, 'ref_s')}")
    print(f"{w}  {'failed_frac':<22} {record['failed_frac']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} checks)")
    for name, ratio in record["ratios"].items():
        print(f"{w}  {name:<22} {ratio['value']:.4g}x  base: {ratio['base']}")
    for line in record["failures"]:
        print(f"# failure: {line}")
    known = record["known_defects"]
    if known["probed"]:
        print(f"{w}  {'known_defects':<22} {known['mismatched']} of {known['probed']} probe checks "
              f"(+inf deaths; not counted in failed_frac)")
    for line in known["what"]:
        print(f"# known defect: {line}")
    if record["trace"]:
        for name, m in record["per_layer"].items():
            print(f"{w}  {name:<34} {m['value']:.6g} {m['unit']}")
        print(f"# tracing cost estimate: {len(record['trace_data']['spans'])} spans x measured "
              f"span cost = {record['tracing_cost_estimate_s']:.4f} reference s over the run")
        if record["absent"]:
            print(f"# absent (helper missing from the library): {', '.join(record['absent'])}")
        overhead = record["tracing_overhead"]
        if isinstance(overhead, str):
            print(f"# tracing overhead {overhead}")
        for name, o in (overhead.items() if isinstance(overhead, dict) else ()):
            print(f"# tracing overhead {name}: traced {o['traced']:.6g} - untraced "
                  f"{o['untraced']:.6g} = {o['difference']:+.6g} reference s")
        print("# self time by span (reference s):")
        for name, row in sorted(record["trace_data"]["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"#   {name:<28} calls={row['calls']:<7} total={row['total_s']:.4f} self={row['self_s']:.4f}")
    print(f"# record written to {out_path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload, each in a fresh process (the intern table is process-global)."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        summary[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"exit": proc.returncode}
    print(json.dumps(summary))
    return 0 if all("exit" not in v for v in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
