"""Command-line entry point for the benchmark harness.

Subcommands: speedup, scaling, wbench, envelope, demo.  Each experiment
command takes only the flags that its runner reads (``_COMMANDS``), and an
unset flag takes its ``ExperimentConfig`` default.  ``--config FILE``
presets flags (docs/formats.md).  Exit codes: 0 success, 2 configuration
or usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import bench
from .aggregation import mean_aggregate
from .bench import ExperimentConfig
from .envelopes import GuardExceeded, envelope_average, envelope_worst
from .serialize import to_text


class ConfigError(ValueError):
    pass


def _parse_models(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected LO:HI") from None


def _read_config_file(path: str) -> dict:
    """The ``key=value`` lines of a config file, keyed by the flag each names."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    table = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}")
        key, value = line.split("=", 1)
        table["--" + key.strip().replace("_", "-")] = value.strip()
    return table


def _run_experiment(handler, **given) -> int:
    """``handler`` on the config of the flags that were set, typed or
    preset; every other field keeps its ``ExperimentConfig`` default."""
    try:
        cfg = ExperimentConfig(**given)
        bench.load_psi(cfg.psi)  # a bad psi file is found before any graph is made
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.out is not None:  # an unusable --out fails (exit 1) before the run
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
    return handler(cfg)


def _emit(cfg: ExperimentConfig, rows, columns, stem: str) -> None:
    text = bench.format_rows(rows, columns, cfg.fmt)
    path = bench.write_output(cfg, f"{stem}.{cfg.fmt}", text)
    if path is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {path}")


def _cmd_speedup(cfg: ExperimentConfig) -> int:
    """model-pair aggregation speedup matrix"""
    rows = bench.run_speedup_matrix(cfg)
    _emit(cfg, rows, bench.SPEEDUP_COLUMNS, "speedup")
    for row in rows:
        tn = bench.convert_units(row["t_naive_ns"], cfg.units)
        th = bench.convert_units(row["t_harmonic_ns"], cfg.units)
        print(
            f"{row['model_a']} vs {row['model_b']}: naive {tn:.6g} {cfg.units}, "
            f"harmonic {th:.6g} {cfg.units}, speedup {row['speedup']}x"
        )
    return 0


def _cmd_scaling(cfg: ExperimentConfig) -> int:
    """runtime scaling over the support ladder"""
    rows = bench.run_runtime_scaling(cfg)
    _emit(cfg, rows, bench.SCALING_COLUMNS, "scaling")
    summary = bench.scaling_summary(rows)
    if cfg.out is not None:
        bench.write_output(cfg, "scaling.svg", bench.scaling_svg(summary))
    naive_slope = bench.loglog_slope(
        [(r["support"], r["naive_median"]) for r in summary]
    ) if len(summary) > 1 else float("nan")
    harm_slope = bench.loglog_slope(
        [(r["support"], r["harmonic_median"]) for r in summary]
    ) if len(summary) > 1 else float("nan")
    print(f"naive slope {naive_slope:.3f}, harmonic slope {harm_slope:.3f}")
    return 0


def _cmd_wbench(cfg: ExperimentConfig) -> int:
    """naive vs certified transport timing"""
    rows = bench.run_wbench(cfg)
    _emit(cfg, rows, bench.WBENCH_COLUMNS, "wbench")
    return 0


def _cmd_envelope(c: int, n: int, r: int, average: str | None) -> int:
    """complexity envelope calculator"""
    bounds = envelope_worst(c, n, r)
    for key in (
        "naive_aggregation",
        "harmonic_evaluation",
        "naive_wasserstein",
        "certified_wasserstein",
    ):
        print(f"{key} = {bounds[key]}")
    print(f"ratio = {bounds['ratio']}")
    if average:
        value = envelope_average(c, n, average)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the exact value runs past the 4300-digit default
        try:
            print(f"average_{average} = {value} (~{float(value):.6g})")
        finally:
            sys.set_int_max_str_digits(limit)
    return 0


def _cmd_demo(cfg: ExperimentConfig) -> int:
    """end-to-end single aggregate"""
    if len(cfg.models) != 1:
        raise ConfigError(f"demo takes one model, got {len(cfg.models)}")
    model = cfg.models[0]
    diagrams = bench.model_h1(model, 0, cfg.m)
    first = diagrams[0]
    print(f"model {model}, sample 0: {len(first)} cycle intervals")
    for a, mult in first.entries[:12]:
        b = a.minus.coords[0]
        d = a.plus.coords[0]
        print(f"  [{b:.4f}, {d:.4f}] x{mult}")
    if len(first.entries) > 12:
        print(f"  ... {len(first.entries) - 12} more")
    mean = mean_aggregate([d.to_virtual() for d in diagrams])
    print(f"mean second-order aggregate: {len(mean.entries)} classes")
    path = bench.write_output(cfg, f"demo_{model}.txt", to_text(first) + "\n")
    if path is not None:
        print(f"wrote {path}")
    return 0


# How each experiment flag's text is read, and the ExperimentConfig field
# it sets when that is not its own name.
_FLAGS = {
    "--models": {"type": _parse_models},
    "--m": {"type": int},
    "--repeats": {"type": int},
    "--n-range": {"type": _parse_range},
    "--seed": {"type": int},
    "--out": {},
    "--units": {},
    "--psi": {},
    "--format": {"dest": "fmt", "metavar": "FORMAT"},
    "--family": {},
    "--engine": {},
}

# Each experiment command's handler and the flags that its runner reads.
_COMMANDS = {
    "speedup": (_cmd_speedup, "--models --m --psi --units --out --format"),
    "scaling": (_cmd_scaling, "--n-range --repeats --seed --family --engine --psi --out --format"),
    "wbench": (_cmd_wbench, "--repeats --seed --out --format"),
    "demo": (_cmd_demo, "--models --m --out"),
}


def _build_parser(presets: dict) -> argparse.ArgumentParser:
    """The parser; ``presets`` (flag -> text) become the string defaults of
    the flags they name, so they parse like typed text."""
    unknown = sorted(set(presets) - set(_FLAGS))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0][2:]!r}")
    parser = argparse.ArgumentParser(
        prog="hopd",
        description="higher-order persistence diagram benchmarks",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(required=True)
    for name, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(
            name, help=handler.__doc__, allow_abbrev=False, argument_default=argparse.SUPPRESS
        )
        for flag in flags.split():
            p.add_argument(flag, default=presets.get(flag, argparse.SUPPRESS), **_FLAGS[flag])
        p.set_defaults(run=functools.partial(_run_experiment, handler))

    p_env = sub.add_parser("envelope", help=_cmd_envelope.__doc__, allow_abbrev=False)
    p_env.add_argument("--c", type=int, required=True)
    p_env.add_argument("--n", type=int, required=True)
    p_env.add_argument("--r", type=int, default=2)
    p_env.add_argument("--average", choices=("naive", "certified"))
    p_env.set_defaults(run=_cmd_envelope)
    return parser


def cli_main(argv=None) -> int:
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    try:
        parser = _build_parser(_read_config_file(known.config) if known.config else {})
        given = vars(parser.parse_args(rest))
        run = given.pop("run")
        return run(**given)
    except (ConfigError, GuardExceeded) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
