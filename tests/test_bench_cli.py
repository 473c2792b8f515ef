import argparse
import json
import sys

import numpy as np
import pytest

from hopd import bench
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
from hopd.cli import _build_parser, cli_main
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
        with pytest.raises(ValueError, match="no models given"):
            ExperimentConfig(models=())
        with pytest.raises(ValueError):
            ExperimentConfig(m=0)
        with pytest.raises(ValueError):
            ExperimentConfig(units="hours")
        with pytest.raises(ValueError):
            ExperimentConfig(n_range=(5, 2))
        with pytest.raises(ValueError):
            ExperimentConfig(psi="magic")


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
        # supports 100-158 take the dense kernel: 2 n^2 cells
        assert [r["transform_ops"] for r in rows] == [2 * r["support"] ** 2 for r in rows]
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
        _, parts = timed_naive([xi], "loop")
        with pytest.raises(OracleMismatch):
            _verify([xi], parts, [1.0e6], psi, 1)

    def test_wrong_class_coefficient_withholds_rows(self):
        # the raws stay correct, so the nets must reject the corrupted class
        from hopd.bench import OracleMismatch, _verify, timed_harmonic, timed_naive

        xi = synth_level1(50, "uniform", np.random.default_rng(3))
        psi = load_psi("golden")
        _, parts = timed_naive([xi], "vectorized")
        _, raws = timed_harmonic([xi], psi)
        _verify([xi], parts, raws, psi, 1)
        agg = parts[0]
        agg.coeff[np.flatnonzero(agg.i != agg.j)[0]] += 1
        with pytest.raises(OracleMismatch, match="nets"):
            _verify([xi], parts, raws, psi, 1)


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

    def test_file_angles_are_wrapped_when_loaded(self, tmp_path):
        # the table holds wrap_angle of each value, so the phases are those
        # of a wrap per atom
        from hopd.core import interval
        from hopd.harmonic import psi_vector, wrap_angle

        a, b = interval(0.1, 0.9), interval(0.2, 0.7)
        path = tmp_path / "psi.txt"
        path.write_text("-1.0 (a (p 0.1) (p 0.9))\n20.5 (a (p 0.2) (p 0.7))\n")
        psi = load_psi(f"file:{path}")
        phi = np.array([[-0.1, 0.9], [-0.2, 0.7]])
        assert psi_vector(psi, phi).tolist() == [wrap_angle(-1.0), wrap_angle(20.5)]
        assert psi.psi_of(b) == wrap_angle(20.5) and psi.psi_of(a) == wrap_angle(-1.0)

    def test_atom_named_twice_is_refused(self, tmp_path):
        path = tmp_path / "psi.txt"
        path.write_text("1.0 (a (p 0.1) (p 0.9))\n# again\n2.0 (a (p 0.1) (p 0.9))\n")
        with pytest.raises(ValueError, match="lines 1 and 3"):
            load_psi(f"file:{path}")

    def test_unknown(self):
        with pytest.raises(ValueError):
            load_psi("magic")


class TestCli:
    def test_envelope_exits_zero(self, capsys):
        assert cli_main(["envelope", "--c", "1", "--n", "2", "--r", "2"]) == 0
        out = capsys.readouterr().out
        assert "naive_aggregation = 16" in out
        assert "ratio = 2" in out

    def test_envelope_prints_values_past_the_digit_limit(self, capsys):
        # the exact certified average at (2, 6) has about 5,500 digits
        assert cli_main(["envelope", "--c", "2", "--n", "6", "--r", "2", "--average", "certified"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("average_certified = ") and len(line) > sys.get_int_max_str_digits()

    def test_demo_writes_diagram(self, tmp_path, capsys):
        code = cli_main(["demo", "--models", "er", "--m", "1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "demo_er.txt").exists()

    def test_runtime_failure_exits_1(self, tmp_path, capsys):
        # the output directory cannot be made where a regular file stands
        out = tmp_path / "taken"
        out.write_text("")
        assert cli_main(["demo", "--models", "er", "--m", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["demo", "speedup"])
    def test_unusable_out_fails_before_any_graph(self, command, tmp_path, capsys, monkeypatch):
        calls = []

        def no_graphs(*args):
            calls.append(args)
            raise AssertionError("model_h1 called")

        monkeypatch.setattr(bench, "model_h1", no_graphs)
        out = tmp_path / "taken"
        out.write_text("")
        assert cli_main([command, "--models", "er", "--m", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "model_h1" not in err
        assert calls == []

    def test_rows_go_to_stdout_without_out(self, capsys):
        assert cli_main(["speedup", "--models", "er", "--m", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == GOLDEN_SPEEDUP_HEADER
        assert lines[1].startswith("er,er,1,")
        assert lines[2].startswith("er vs er: naive ")

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

    def test_no_models_is_a_config_error(self, capsys):
        for models in (",", ""):
            assert cli_main(["speedup", "--models", models, "--m", "1"]) == 2
            assert "config error: no models given" in capsys.readouterr().err

    def test_unknown_psi_exits_2(self, capsys):
        for command in ("speedup", "scaling"):
            assert cli_main([command, "--psi", "bogus"]) == 2
            assert "unknown psi spec 'bogus'" in capsys.readouterr().err

    @staticmethod
    def psi_file_error(monkeypatch, capsys, path) -> str:
        """The config error of ``speedup`` on ``--psi file:path``, which
        must come before any graph is generated."""
        monkeypatch.setattr(bench, "generate", pytest.fail)
        code = cli_main(["speedup", "--psi", f"file:{path}", "--m", "1", "--models", "er,ws"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        return err

    def test_missing_psi_file_exits_2(self, tmp_path, monkeypatch, capsys):
        err = self.psi_file_error(monkeypatch, capsys, tmp_path / "missing.txt")
        assert "No such file" in err

    def test_malformed_psi_line_exits_2(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "psi.txt"
        for text in ("1.25\n", "x (a (p 0.1) (p 0.9))\n", "1.25 (a (p 0.1)\n"):
            path.write_text("# angle atom\n" + text)
            err = self.psi_file_error(monkeypatch, capsys, path)
            assert "line 2: expected '<float> <atom>'" in err
        for angle in ("nan", "inf"):
            path.write_text(f"{angle} (a (p 0.1) (p 0.9))\n")
            assert "is not finite" in self.psi_file_error(monkeypatch, capsys, path)

    def test_psi_entry_not_level1_atom_exits_2(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "psi.txt"
        for text in ("(p 0.5)", "(d 1 (a (p 0.1) (p 0.9))*1)", "(a (d 1) (d 1))"):
            path.write_text(f"1.25 {text}\n")
            err = self.psi_file_error(monkeypatch, capsys, path)
            assert "is not a level-1 atom" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli_main(["speedup", "--bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            # a flag that the command never reads
            ["speedup", "--models", "er", "--m", "1", "--seed", "1"],
            ["scaling", "--n-range", "0:0", "--repeats", "1", "--m", "1"],
            ["wbench", "--repeats", "1", "--models", "er"],
            ["demo", "--models", "er", "--m", "1", "--psi", "golden"],
            # an abbreviated flag
            ["speedup", "--mod", "er", "--m", "1"],
            ["scaling", "--n-r", "0:1", "--repeats", "1"],
            ["wbench", "--rep", "1"],
            ["demo", "--mod", "er", "--m", "1"],
            ["envelope", "--c", "1", "--n", "2", "--ave", "naive"],
        ],
    )
    def test_flag_not_taken_exits_2(self, argv):
        # each would run in a second if the flag were accepted
        with pytest.raises(SystemExit) as err:
            cli_main(argv)
        assert err.value.code == 2

    def test_retired_threads_setting_exits_2(self, tmp_path, capsys):
        # sample generation is serial; a worker count is an unknown flag or key
        with pytest.raises(SystemExit) as err:
            cli_main(["speedup", "--models", "er", "--m", "1", "--threads", "2"])
        assert err.value.code == 2
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text("threads=2\n")
        assert cli_main(["--config", str(cfg_file), "speedup", "--models", "er", "--m", "1"]) == 2
        assert "config error: unknown config key 'threads'" in capsys.readouterr().err

    def test_each_command_takes_only_the_flags_it_reads(self):
        # a new flag fails here until it is added on purpose
        parser = _build_parser({})
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        found = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert found == {
            "speedup": {"--models", "--m", "--psi", "--units", "--out", "--format"},
            "scaling": {
                "--n-range", "--repeats", "--seed", "--family", "--engine", "--psi", "--out",
                "--format",
            },
            "wbench": {"--repeats", "--seed", "--out", "--format"},
            "demo": {"--models", "--m", "--out"},
            "envelope": {"--c", "--n", "--r", "--average"},
        }

    def test_demo_takes_one_model(self, capsys):
        assert cli_main(["demo", "--models", "ws,er", "--m", "1"]) == 2
        assert "demo takes one model, got 2" in capsys.readouterr().err

    def test_bad_units_is_a_config_error(self, capsys):
        assert cli_main(["speedup", "--models", "er", "--m", "1", "--units", "hours"]) == 2
        assert "config error: unknown units 'hours'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, argv", [("m=abc\n", ["demo", "--models", "er"]), ("n_range=5\n", ["scaling"])]
    )
    def test_config_value_that_does_not_parse_exits_2(self, tmp_path, text, argv):
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text(text)
        with pytest.raises(SystemExit) as err:
            cli_main(["--config", str(cfg_file)] + argv)
        assert err.value.code == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text("bogus=1\n")
        assert cli_main(["--config", str(cfg_file), "demo", "--models", "er", "--m", "1"]) == 2
        assert "config error: unknown config key 'bogus'" in capsys.readouterr().err

    def test_config_key_of_another_command_is_ignored(self, tmp_path):
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text("family=narrow\nmodels=er\nm=1\n")
        code = cli_main(["--config", str(cfg_file), "speedup", "--out", str(tmp_path)])
        assert code == 0

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text("models=er\nm=abc\n")
        code = cli_main(["--config", str(cfg_file), "speedup", "--m", "2", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "speedup.csv").read_text().splitlines()[1].split(",")[2] == "2"

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        argv = ["--config", str(tmp_path / "missing.cfg"), "demo", "--models", "er", "--m", "1"]
        assert cli_main(argv) == 2
        assert "config error: " in capsys.readouterr().err

    def test_config_line_without_equals_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text("models=er\nm 1\n")
        assert cli_main(["--config", str(cfg_file), "demo"]) == 2
        assert "config error: bad config line 'm 1'" in capsys.readouterr().err

    def test_config_comments_and_blank_lines_are_skipped(self, tmp_path):
        cfg_file = tmp_path / "bench.cfg"
        cfg_file.write_text("# demo settings\n\nmodels=er\n   # one sample\n   \nm=1\n")
        code = cli_main(["--config", str(cfg_file), "demo", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "demo_er.txt").exists()

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
