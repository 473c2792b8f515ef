"""End-to-end pipeline checks: golden value, concurrency, CLI odds and ends."""

import threading
from pathlib import Path

from hopd.aggregation import mean_aggregate
from hopd.bench import convert_units
from hopd.cli import cli_main
from hopd.filtration import build_clique_filtration, persistence_h1
from hopd.graphgen import generate, model_index, model_spec, seed_for
from hopd.serialize import from_text, to_text

GOLDEN = Path(__file__).parent / "golden" / "mean_aggregate_er_ws_m2.txt"


def _pipeline_mean(m=2):
    xs = []
    for k in range(m):
        g = generate(model_spec("er"), seed_for(model_index("er"), k))
        h = generate(model_spec("ws"), seed_for(model_index("ws"), k))
        dg = persistence_h1(build_clique_filtration(g.graph)).to_virtual()
        dh = persistence_h1(build_clique_filtration(h.graph)).to_virtual()
        xs.append(dg - dh)
    return mean_aggregate(xs)


def test_mean_aggregate_matches_golden():
    mean = _pipeline_mean()
    assert to_text(mean) + "\n" == GOLDEN.read_text()


def test_golden_parses_back():
    assert from_text(GOLDEN.read_text()) == _pipeline_mean()


def test_interning_is_thread_safe():
    from hopd.core import interval

    out = [None] * 8
    barrier = threading.Barrier(8)

    def work(slot):
        barrier.wait()
        atoms = [interval(k / 997.0, 1.0 + k / 997.0) for k in range(400)]
        out[slot] = atoms

    threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    first = out[0]
    for other in out[1:]:
        assert all(a is b for a, b in zip(first, other))


def test_units_conversion():
    assert convert_units(1_500_000, "ms") == 1.5
    assert convert_units(60_000_000_000, "min") == 1.0
    assert convert_units(7, "ns") == 7


def test_wbench_cli(tmp_path):
    code = cli_main(["wbench", "--repeats", "3", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "wbench.csv").read_text().splitlines()
    assert lines[0].startswith("instance,p,t_naive_ns,t_certified_ns")
    assert len(lines) == 1 + 6
