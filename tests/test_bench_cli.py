import json

import numpy as np
import pytest

from hopd.bench import (
    ExperimentConfig,
    SCALING_COLUMNS,
    SPEEDUP_COLUMNS,
    format_rows,
    load_psi,
    run_runtime_scaling,
    run_speedup_matrix,
    run_wbench,
    scaling_summary,
    scaling_svg,
    support_for_index,
    synth_level1,
)
from hopd.cli import cli_main
from hopd.harmonic import CoboundaryCharacter

GOLDEN_SPEEDUP_HEADER = "model_a,model_b,m,support,t_naive_ns,t_harmonic_ns,speedup"


class TestConfig:
    def test_defaults_match_experiment_protocol(self):
        cfg = ExperimentConfig()
        assert cfg.m == 30 and cfg.repeats == 30
        assert cfg.n_range == (0, 30)
        assert cfg.seed == 20260502

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(models=("bogus",))
        with pytest.raises(ValueError):
            ExperimentConfig(m=0)
        with pytest.raises(ValueError):
            ExperimentConfig(units="hours")
        with pytest.raises(ValueError):
            ExperimentConfig(n_range=(5, 2))


class TestSynth:
    def test_support_ladder_span(self):
        assert support_for_index(0) == 100
        assert support_for_index(30) == 100000

    @pytest.mark.parametrize("family", ["uniform", "narrow"])
    def test_sizes_and_coefficients(self, family):
        rng = np.random.default_rng(5)
        xi = synth_level1(500, family, rng)
        assert xi.support_size() == 500
        assert all(1 <= abs(c) <= 10 for _, c in xi.entries)


class TestSpeedupMatrix:
    def test_smoke_two_models(self):
        cfg = ExperimentConfig(models=("er", "ws"), m=2, repeats=1)
        rows = run_speedup_matrix(cfg)
        assert len(rows) == 1
        row = rows[0]
        assert tuple(row) == SPEEDUP_COLUMNS
        assert row["model_a"] == "er" and row["model_b"] == "ws"
        assert row["support"] > 0 and row["t_naive_ns"] > 0

    def test_self_pair_emits_one_row(self):
        cfg = ExperimentConfig(models=("er",), m=1, repeats=1)
        rows = run_speedup_matrix(cfg)
        assert len(rows) == 1
        assert rows[0]["model_a"] == rows[0]["model_b"] == "er"

    def test_upper_triangle_once(self):
        cfg = ExperimentConfig(models=("er", "ws", "ba"), m=1, repeats=1)
        rows = run_speedup_matrix(cfg)
        cells = {(r["model_a"], r["model_b"]) for r in rows}
        assert cells == {("er", "ws"), ("er", "ba"), ("ws", "ba")}

    def test_csv_schema_golden(self):
        cfg = ExperimentConfig(models=("er",), m=1)
        rows = run_speedup_matrix(cfg)
        text = format_rows(rows, SPEEDUP_COLUMNS, "csv")
        assert text.splitlines()[0] == GOLDEN_SPEEDUP_HEADER

    def test_jsonl_format(self):
        cfg = ExperimentConfig(models=("er",), m=1, fmt="jsonl")
        rows = run_speedup_matrix(cfg)
        text = format_rows(rows, SPEEDUP_COLUMNS, "jsonl")
        parsed = json.loads(text.splitlines()[0])
        assert set(parsed) == set(SPEEDUP_COLUMNS)


class TestScaling:
    def test_rows_and_bands(self):
        cfg = ExperimentConfig(n_range=(0, 2), repeats=3, family="narrow")
        rows = run_runtime_scaling(cfg)
        assert len(rows) == 9
        assert tuple(rows[0]) == SCALING_COLUMNS
        summary = scaling_summary(rows)
        for entry in summary:
            assert entry["naive_min"] <= entry["naive_median"] <= entry["naive_max"]
            assert (
                entry["harmonic_min"]
                <= entry["harmonic_median"]
                <= entry["harmonic_max"]
            )

    def test_deterministic_supports(self):
        cfg = ExperimentConfig(n_range=(0, 1), repeats=2)
        a = run_runtime_scaling(cfg)
        b = run_runtime_scaling(cfg)
        strip = lambda rows: [
            {k: v for k, v in r.items() if not k.startswith("t_")} for r in rows
        ]
        assert strip(a) == strip(b)

    def test_svg_output(self):
        cfg = ExperimentConfig(n_range=(0, 2), repeats=2)
        summary = scaling_summary(run_runtime_scaling(cfg))
        svg = scaling_svg(summary)
        assert svg.startswith("<svg") and "polyline" in svg


class TestWbench:
    def test_counters_and_equality(self):
        cfg = ExperimentConfig(repeats=6, seed=11)
        rows = run_wbench(cfg)
        assert len(rows) == 12  # two p values per instance
        for row in rows:
            assert row["certified_expansions"] <= row["naive_expansions"]


class TestOracleGuard:
    def test_mismatch_withholds_rows(self):
        # a corrupted harmonic value must be rejected before any row is emitted
        from hopd.bench import OracleMismatch, _verify, timed_naive

        rng = np.random.default_rng(3)
        xi = synth_level1(50, "uniform", rng)
        psi = load_psi("golden")
        _, parts, _ = timed_naive([xi], "loop")
        with pytest.raises(OracleMismatch):
            _verify([xi], parts, [1.0e6], psi, 1)


class TestPsiLoading:
    def test_golden(self):
        psi = load_psi("golden")
        assert isinstance(psi, CoboundaryCharacter)

    def test_file(self, tmp_path):
        from hopd.core import interval
        from hopd.serialize import to_text

        a = interval(0.1, 0.9)
        path = tmp_path / "psi.txt"
        path.write_text(f"1.25 {to_text(a)}\n")
        psi = load_psi(f"file:{path}")
        assert psi.psi_of(a) == pytest.approx(1.25)

    def test_unknown(self):
        with pytest.raises(ValueError):
            load_psi("magic")


class TestCli:
    def test_envelope_exits_zero(self, capsys):
        assert cli_main(["envelope", "--c", "1", "--n", "2", "--r", "2"]) == 0
        out = capsys.readouterr().out
        assert "naive_aggregation = 16" in out
        assert "ratio = 2" in out

    def test_demo_writes_diagram(self, tmp_path, capsys):
        code = cli_main(["demo", "--models", "er", "--m", "1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "demo_er.txt").exists()

    def test_speedup_smoke(self, tmp_path):
        code = cli_main(
            ["speedup", "--models", "er,ws", "--m", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "speedup.csv").read_text().splitlines()
        assert lines[0] == GOLDEN_SPEEDUP_HEADER
        assert len(lines) == 2

    def test_bad_model_exits_2(self):
        assert cli_main(["speedup", "--models", "nonsense", "--m", "1"]) == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli_main(["speedup", "--bogus"])
        assert err.value.code == 2

    def test_config_file_defaults(self, tmp_path, capsys):
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text("models=er\nm=1\nunits=ms\n")
        code = cli_main(
            ["--config", str(cfg_file), "demo", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "demo_er.txt").exists()

    def test_scaling_cli(self, tmp_path):
        code = cli_main(
            [
                "scaling",
                "--n-range",
                "0:1",
                "--repeats",
                "2",
                "--family",
                "narrow",
                "--out",
                str(tmp_path),
                "--format",
                "jsonl",
            ]
        )
        assert code == 0
        assert (tmp_path / "scaling.jsonl").exists()
        assert (tmp_path / "scaling.svg").exists()

    def test_envelope_guard_exits_2(self):
        assert cli_main(["envelope", "--c", "1", "--n", "13", "--average", "naive"]) == 2
        assert cli_main(["envelope", "--c", "7", "--n", "6", "--average", "naive"]) == 2
