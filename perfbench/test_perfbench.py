"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

from hopd import core, harmonic, wasserstein  # noqa: E402

TINY = {
    "graph-mean": {
        "models": ("er", "ws", "ba"), "samples": 3, "batches": 3, "block": 3,
        "explicit_pair": ("er", "ws"), "min_rounds": 1,
    },
    "synth-large": {"rungs": (60, 300), "ladders": 2, "pairs_max": 300, "inf_share": 0.05, "min_rounds": 1},
    "transport": {
        "shapes": ((2, 2), (3, 2)), "instances": 3, "exponents": (1.0, math.inf),
        "graph_pairs": 3, "graph_exponents": (1.0,), "batches": 3, "min_rounds": 1,
    },
    "envelope": {"sweep": ((1, 1), (1, 2), (2, 2)), "batches": 3, "builds": 2, "min_rounds": 1},
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def brute_nets(atoms, coeffs) -> np.ndarray:
    """Quadratic reference for `oracles.dominance_nets`."""
    pts = [core.atom_coords(a) for a in atoms]
    w = [int(c) for c in coeffs]
    out = []
    for v, cv in zip(pts, w):
        down = sum(cu for u, cu in zip(pts, w) if u[0] <= v[0] and u[1] <= v[1])
        up = sum(cu for u, cu in zip(pts, w) if u[0] >= v[0] and u[1] >= v[1])
        out.append(cv * (down - up))
    return np.array(out, dtype=np.int64)


def small_diagram(seed: int, n: int = 40, inf_count: int = 0):
    return workloads.synth_level1(np.random.default_rng(seed), n, inf_count)


def test_dominance_oracle_matches_brute_force_with_inf_deaths():
    for seed in range(5):
        x = small_diagram(seed, n=60, inf_count=6)
        atoms = [a for a, _ in x.entries]
        coeffs = [c for _, c in x.entries]
        assert np.array_equal(oracles.dominance_nets(atoms, coeffs), brute_nets(atoms, coeffs))


def test_wrong_phase_or_potential_counts_as_failure():
    x = small_diagram(1)
    ref = workloads.Reference(x)
    raw = harmonic.harmonic_eval_raw(x, harmonic.CoboundaryCharacter(1))
    run = workloads.Run(NullTracer(), 0.0)
    workloads.check_harmonic(run.check, [raw], [ref])
    assert (run.attempted, run.failed) == (1, 0)
    workloads.check_harmonic(run.check, [raw + 0.5], [ref])
    assert (run.attempted, run.failed) == (2, 1)
    wrong = workloads.Reference(x)
    wrong.psi = wrong.psi.copy()
    wrong.psi[int(np.flatnonzero(wrong.net)[0])] += 0.1
    wrong.phase = oracles.phase_of_nets(wrong.psi, wrong.net)
    workloads.check_harmonic(run.check, [raw], [wrong])
    assert (run.attempted, run.failed) == (3, 2)


def test_route_time_sums_per_item_medians():
    run = workloads.Run(NullTracer(), 0.0)
    # a slow spell hits item 0 in round 1 and item 1 in round 2
    for times in ([1.0, 2.0], [9.0, 2.2], [1.2, 9.0]):
        run.rounds.append({})
        for k, t in enumerate(times):
            run.record("r", k, t)
    assert run.rounds[1] == {"r": 11.2}
    assert run.item_medians("r") == [1.2, 2.2]
    assert run.route_time("r") == pytest.approx(3.4)


def test_raising_call_is_counted_and_run_continues():
    run = workloads.Run(NullTracer(), 0.0)
    out = run.call("x", "boom", lambda: 1 / 0)
    assert out is workloads.FAILED and (run.attempted, run.failed) == (1, 1)
    assert run.call("x", "fine", lambda: 7) == 7


def test_w1_linprog_matches_library_norm():
    x = small_diagram(2, n=12)
    atoms = [a for a, _ in x.entries]
    lp = oracles.w1_linprog(oracles.w1_cost_matrix(atoms), [c for _, c in x.entries])
    assert lp == pytest.approx(wasserstein.linear_w1_norm(x), rel=1e-7)


@pytest.mark.parametrize("name", list(TINY))
def test_metric_names_equal_declared(name):
    _, metrics, run = bench.measure(name, 0, 0.0, False, TINY[name])
    assert {k: m["unit"] for k, m in metrics.items()} == {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    assert run.attempted >= 1
    record, metrics, _ = bench.measure(name, 0, 0.0, True, TINY[name])
    assert {k: m["unit"] for k, m in metrics.items()} == {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert record["trace_data"]["spans"]


def test_declared_workloads_are_the_runnable_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert set(bench.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def _graph_inputs(seed):
    run = workloads.Run(NullTracer(), 0.0)
    diffs = workloads.graph_mean_inputs(run, seed, TINY["graph-mean"])
    return {k: [x.entries for x in v] for k, v in diffs.items()}


def test_seed_changes_inputs_but_not_metric_set():
    assert _graph_inputs(0) == _graph_inputs(0)
    assert _graph_inputs(0) != _graph_inputs(1)
    sets = [set(bench.measure("synth-large", s, 0.0, False, TINY["synth-large"])[1]) for s in (0, 1)]
    assert sets[0] == sets[1]


def test_synth_large_contains_inf_deaths():
    run = workloads.Run(NullTracer(), 0.0)
    xs, probe = workloads.synth_inputs(run, 0, TINY["synth-large"])
    rungs = TINY["synth-large"]["rungs"]
    infs = [sum(math.isinf(a.plus.coords[0]) for a, _ in x.entries) for x in xs + probe]
    assert infs == [0] * (2 * len(rungs)) + [round(0.05 * n) for n in rungs]


def test_known_defect_probe_reports_inf_mismatches_apart_from_failures():
    record, _, run = bench.measure("synth-large", 0, 0.0, False, TINY["synth-large"])
    assert run.failed == 0 and run.attempted >= 1
    assert record["known_defects"]["probed"] == 2 * len(TINY["synth-large"]["rungs"])
    # the default kernel is wrong on +inf deaths; the probe must show it
    assert record["known_defects"]["mismatched"] >= 1


def test_tracer_self_time_excludes_children():
    tr = Tracer()
    tr.begin_op("round")
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    rows = tr.self_times()
    assert rows["outer"]["self_s"] == pytest.approx(rows["outer"]["total_s"] - rows["inner"]["total_s"])


def test_fails_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "envelope", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_missing_traced_helper_is_absent_not_a_crash(monkeypatch):
    from hopd import aggregation

    monkeypatch.delattr(aggregation, "level1_arrays")
    monkeypatch.delattr(harmonic, "level1_arrays")
    record, metrics, run = bench.measure("synth-large", 0, 0.0, True, TINY["synth-large"])
    assert record["absent"] == ["aggregation.warm_s"]
    assert metrics["aggregation.warm_s"]["value"] == 0.0
    assert run.attempted >= 1


def test_traced_run_splits_public_calls_and_restores_the_library():
    from hopd import aggregation

    originals = (wasserstein.min_cost_transport, aggregation.bilinear_aggregate,
                 aggregation.linear_diagram, core.VirtualDiagram.__add__, harmonic.level1_arrays)
    _, transport, _ = bench.measure("transport", 0, 0.0, True, TINY["transport"])
    _, graph, _ = bench.measure("graph-mean", 0, 0.0, True, TINY["graph-mean"])
    for name in ("flow.solve_s", "core.cost_matrix_s"):
        assert transport[name]["value"] > 0
    for name in ("aggregation.loop_s", "core.add_s", "core.linear_s", "aggregation.warm_s"):
        assert graph[name]["value"] > 0
    assert originals == (wasserstein.min_cost_transport, aggregation.bilinear_aggregate,
                         aggregation.linear_diagram, core.VirtualDiagram.__add__, harmonic.level1_arrays)
