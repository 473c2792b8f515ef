"""Command-line entry point for the benchmark harness.

Subcommands: speedup, scaling, wbench, envelope, demo.  A key=value config
file can preload any flag default; explicit flags win.  HOPD_THREADS sets
the default worker count for the untimed generation phase.  Exit codes:
0 success, 2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import bench
from .bench import ExperimentConfig
from .envelopes import GuardExceeded, envelope_average, envelope_worst
from .graphgen import MODELS


class ConfigError(ValueError):
    pass


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}, expected LO:HI") from exc


def _read_config_file(path: str) -> dict:
    table = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r}")
        key, value = line.split("=", 1)
        table[key.strip().replace("-", "_")] = value.strip()
    return table


def _build_parser(defaults: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopd",
        description="higher-order persistence diagram benchmarks",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--models", default=defaults.get("models", ",".join(MODELS)))
        p.add_argument("--m", type=int, default=int(defaults.get("m", 30)))
        p.add_argument("--repeats", type=int, default=int(defaults.get("repeats", 30)))
        p.add_argument("--n-range", default=defaults.get("n_range", "0:30"))
        p.add_argument("--seed", type=int, default=int(defaults.get("seed", 20260502)))
        p.add_argument("--out", default=defaults.get("out"))
        p.add_argument(
            "--units", choices=("ns", "ms", "min"), default=defaults.get("units", "ns")
        )
        p.add_argument("--threads", type=int, default=int(defaults.get("threads", _default_threads())))
        p.add_argument("--psi", default=defaults.get("psi", "golden"))
        p.add_argument(
            "--format", choices=("csv", "jsonl"), default=defaults.get("format", "csv")
        )

    p_speedup = sub.add_parser("speedup", help="model-pair aggregation speedup matrix")
    common(p_speedup)

    p_scaling = sub.add_parser("scaling", help="runtime scaling over the support ladder")
    common(p_scaling)
    p_scaling.add_argument(
        "--family", choices=("uniform", "narrow"), default=defaults.get("family", "uniform")
    )
    p_scaling.add_argument(
        "--engine", choices=("vectorized", "loop"), default=defaults.get("engine", "vectorized")
    )

    p_wbench = sub.add_parser("wbench", help="naive vs certified transport timing")
    common(p_wbench)

    p_env = sub.add_parser("envelope", help="complexity envelope calculator")
    p_env.add_argument("--c", type=int, required=True)
    p_env.add_argument("--n", type=int, required=True)
    p_env.add_argument("--r", type=int, default=2)
    p_env.add_argument("--average", choices=("naive", "certified"))

    p_demo = sub.add_parser("demo", help="end-to-end single aggregate")
    common(p_demo)
    return parser


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("HOPD_THREADS", "1")))
    except ValueError:
        return 1


def _config_from_args(args) -> ExperimentConfig:
    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    try:
        cfg = ExperimentConfig(
            models=models,
            m=args.m,
            repeats=args.repeats,
            n_range=_parse_range(args.n_range),
            seed=args.seed,
            out=args.out,
            units=args.units,
            threads=args.threads,
            psi=args.psi,
            fmt=args.format,
            family=getattr(args, "family", "uniform"),
            engine=getattr(args, "engine", "vectorized"),
        )
        bench.load_psi(cfg.psi)  # a bad psi file is found before any graph is made
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _emit(cfg: ExperimentConfig, rows, columns, stem: str) -> None:
    text = bench.format_rows(rows, columns, cfg.fmt)
    path = bench.write_output(cfg, f"{stem}.{cfg.fmt}", text)
    if path is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {path}")


def _cmd_speedup(cfg: ExperimentConfig) -> int:
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
    rows = bench.run_wbench(cfg)
    _emit(cfg, rows, bench.WBENCH_COLUMNS, "wbench")
    return 0


def _cmd_envelope(args) -> int:
    bounds = envelope_worst(args.c, args.n, args.r)
    for key in (
        "naive_aggregation",
        "harmonic_evaluation",
        "naive_wasserstein",
        "certified_wasserstein",
    ):
        print(f"{key} = {bounds[key]}")
    print(f"ratio = {bounds['ratio']}")
    if args.average:
        value = envelope_average(args.c, args.n, args.average)
        print(f"average_{args.average} = {value} (~{float(value):.6g})")
    return 0


def _cmd_demo(cfg: ExperimentConfig) -> int:
    from .aggregation import mean_aggregate
    from .filtration import build_clique_filtration, persistence_h1
    from .graphgen import generate, model_index, model_spec, seed_for
    from .serialize import to_text

    model = cfg.models[0]
    spec = model_spec(model)
    diagrams = []
    for k in range(cfg.m):
        sample = generate(spec, seed_for(model_index(model), k))
        filt = build_clique_filtration(sample.graph, normalize=True)
        diagrams.append(persistence_h1(filt))
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


def cli_main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    try:
        defaults = _read_config_file(known.config) if known.config else {}
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser(defaults)
    args = parser.parse_args(rest)
    try:
        if args.command == "envelope":
            return _cmd_envelope(args)
        cfg = _config_from_args(args)
        if args.command == "speedup":
            return _cmd_speedup(cfg)
        if args.command == "scaling":
            return _cmd_scaling(cfg)
        if args.command == "wbench":
            return _cmd_wbench(cfg)
        if args.command == "demo":
            return _cmd_demo(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
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
