"""Command-line front end.

Subcommands: synth (generate synthetic data), ingest (normalize a raw CSV),
backtest (full experiment, emits a report bundle + manifest), single (one
fixed model or the benchmark), report (summarize a report bundle).

Exit codes: 0 success, 1 runtime failure, 2 usage/configuration error.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import datetime as _dt
import errno
import json
import math
import os
import sys

from . import __version__, backtest_engine, bess_trading, market_data
from .backtest_engine import BacktestConfig
from .errors import ConfigError, QuantbessError

# CPython's own sha256 (`_sha2` from 3.12, `_sha256` before): importing
# hashlib would map and initialise OpenSSL's libcrypto, 3.5 MB of every run's
# peak, for a few file digests
try:
    from _sha2 import sha256 as _new_sha256
except ImportError:
    try:
        from _sha256 import sha256 as _new_sha256
    except ImportError:  # a build without them
        from hashlib import sha256 as _new_sha256

MANIFEST_FILE = "run_manifest.json"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _sha256(path) -> str:
    digest = _new_sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Config file parsing (flat key = value lines, '#' comments)
# ---------------------------------------------------------------------------

def read_config_file(path) -> dict:
    values, first_line = {}, {}
    problems = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read config file {path}: not UTF-8 text") from None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {line_no}: expected key = value")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            problems.append(f"line {line_no}: key {key!r} given more than once "
                            f"(first on line {first_line[key]})")
            continue
        first_line[key] = line_no
        values[key] = value
    if problems:
        raise ConfigError(problems)
    return values


def _parse_value(default, value: str):
    """`value` as the type of a `BacktestConfig` default: a tuple as
    comma-separated elements of its first element's type, anything else by
    its own type."""
    if isinstance(default, tuple):
        return tuple(_parse_value(default[0], part.strip())
                     for part in value.split(",") if part.strip())
    return type(default)(value)


def build_config(values: dict) -> BacktestConfig:
    """Typed BacktestConfig from string key-values, each key parsed by the
    type of its field's default; reports all problems at once."""
    kwargs = {}
    problems = []
    defaults = {f.name: f.default for f in dataclasses.fields(BacktestConfig)}
    for key, value in values.items():
        if key not in defaults:
            problems.append(f"unknown config key {key!r}")
            continue
        try:
            kwargs[key] = _parse_value(defaults[key], value)
        except ValueError as exc:
            problems.append(f"config key {key!r}: {exc}")
    if problems:
        raise ConfigError(problems)
    config = BacktestConfig(**kwargs)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    if args.days < 1:
        raise UsageError(f"--days must be at least 1, got {args.days}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    series = market_data.synth_generate(args.days, args.seed, args.regime)
    market_data.export_csv(series, args.output)
    print(f"wrote {args.output}: {series.n_days} days, regime={args.regime}, seed={args.seed}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    if len(args.delimiter) != 1:
        raise UsageError(f"--delimiter must be one character, got {args.delimiter!r}")
    schema = {
        "timestamp": args.timestamp_col,
        "price": args.price_col,
        "load": args.load_col,
    }
    series = _load_dataset(args.input, schema=schema, delimiter=args.delimiter,
                           min_days=args.min_days)
    market_data.export_csv(series, args.output)
    print(f"wrote {args.output}: {series.n_days} days "
          f"({series.n_days * 24} hourly records)")
    return EXIT_OK


def _load_dataset(path, **options) -> market_data.MarketSeries:
    """`market_data.ingest_csv(path, **options)`; a missing file, or a
    directory, is a usage error."""
    if not os.path.isfile(path):
        raise UsageError(f"dataset file not found: {path}")
    return market_data.ingest_csv(path, **options)


def cmd_backtest(args) -> int:
    started = _dt.datetime.now(_dt.timezone.utc).isoformat()
    values = read_config_file(args.config) if args.config else {}
    config = build_config(values)
    series = _load_dataset(args.data)
    # a dataset too short for the config, or an unusable report directory,
    # fails here, before the backtest and without leaving an empty directory
    config.validate(series.n_days)
    outdir = args.output
    os.makedirs(outdir, exist_ok=True)
    report = backtest_engine.run_backtest(series, config)
    paths = backtest_engine.write_report(report, outdir)

    manifest = {
        "tool_version": __version__,
        "created_utc": started,
        "finished_utc": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "dataset_path": os.path.abspath(args.data),
        "dataset_sha256": _sha256(args.data),
        "config": config.as_dict(),
        "files": {os.path.basename(p): _sha256(p) for p in paths},
    }
    with open(os.path.join(outdir, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    n_trading = len(report.trading_days)
    print(f"report written to {outdir}: {n_trading} trading days, "
          f"{len(config.alphas)} alphas x {len(backtest_engine.METRICS)} metrics")
    return EXIT_OK


def cmd_single(args) -> int:
    values = read_config_file(args.config) if args.config else {}
    config = build_config(values)
    series = _load_dataset(args.data)
    # a ledger onto a directory or into a missing one fails here, not after the run
    if args.output and os.path.isdir(args.output):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.output)
    if args.output and not os.path.isdir(os.path.dirname(os.path.abspath(args.output))):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.output)
    ledger = backtest_engine.run_single_model(series, config, args.model, args.alpha)
    if args.output:
        bess_trading.export_ledger(
            ledger, args.output, extra={"model": args.model, "alpha": args.alpha}
        )
        print(f"ledger written to {args.output}")
    profit = bess_trading.profit_per_mwh(ledger)[0]
    print(f"model={args.model} alpha={args.alpha} days={len(ledger.day)} "
          f"profit_per_mwh={profit:.4f}")
    return EXIT_OK


def cmd_report(args) -> int:
    outdir = args.report_dir
    profits_path = os.path.join(outdir, backtest_engine.PROFITS_FILE)
    if not os.path.isdir(outdir):
        raise UsageError(f"report directory not found: {outdir}")
    if not os.path.exists(profits_path):
        raise UsageError(f"no {backtest_engine.PROFITS_FILE} in {outdir}")

    manifest_path = os.path.join(outdir, MANIFEST_FILE)
    if os.path.exists(manifest_path):
        with open(manifest_path, encoding="utf-8") as fh:
            try:
                files = json.load(fh).get("files", {})
            except (json.JSONDecodeError, AttributeError) as exc:
                raise QuantbessError(f"{manifest_path}: not a JSON object ({exc})") from None
        if not isinstance(files, dict):
            raise QuantbessError(f'{manifest_path}: "files" is not a JSON object')
        for name, digest in files.items():
            try:
                intact = _sha256(os.path.join(outdir, name)) == digest
            except OSError:  # missing, a directory or unreadable
                intact = False
            if not intact:
                print(f"warning: checksum mismatch for {name}", file=sys.stderr)

    best = {}  # alpha -> (profit, metric)
    with open(profits_path, newline="", encoding="utf-8") as fh:
        try:  # a missing column, a short row (None) or a bad number
            for row in csv.DictReader(fh):
                alpha, profit = float(row["alpha"]), float(row["profit_per_mwh"])
                # a strategy that never traded (nan) ranks below every number
                if math.isnan(profit):
                    best.setdefault(alpha, (profit, "none traded"))
                elif alpha not in best or math.isnan(best[alpha][0]) or profit > best[alpha][0]:
                    best[alpha] = (profit, row["metric"])
        except (KeyError, TypeError, ValueError) as exc:
            raise QuantbessError(f"{profits_path}: {type(exc).__name__}: {exc}") from None
    if not best:
        raise QuantbessError(f"{profits_path} holds no rows")

    print(f"{'alpha':>6}  {'best metric':<18} {'profit/MWh':>12}")
    for alpha in sorted(best):
        profit, metric = best[alpha]
        print(f"{alpha:>6.2f}  {metric:<18} {profit:>12.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantbess",
        description="Probabilistic electricity-price forecasting and "
                    "battery-storage trading backtests.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic hourly dataset")
    p.add_argument("output", help="output CSV path")
    p.add_argument("--days", type=int, default=700)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--regime", choices=market_data.REGIMES, default="low")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="normalize a raw hourly CSV")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--timestamp-col", default="timestamp")
    p.add_argument("--price-col", default="price")
    p.add_argument("--load-col", default="load_forecast")
    p.add_argument("--min-days", type=int, default=0,
                   help="minimum complete days required "
                        f"({BacktestConfig().first_trading_day + 1} for a default backtest)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("backtest", help="run the full rolling backtest")
    p.add_argument("--data", required=True, help="normalized dataset CSV")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--output", default="report", help="report directory")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("single", help="trade one fixed model (or 'benchmark')")
    p.add_argument("--data", required=True)
    p.add_argument("--model", default="hs")
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--config")
    p.add_argument("--output", help="optional ledger CSV path")
    p.set_defaults(func=cmd_single)

    p = sub.add_parser("report", help="summarize a report bundle")
    p.add_argument("report_dir")
    p.set_defaults(func=cmd_report)

    return parser


# glibc's malloc returns a freed block over 128 KB to the system and maps it
# afresh, a page fault per 4 KB, on the next allocation; a run allocates and
# frees blocks of about 1 MB thousands of times (29,600 faults in a 700-day
# `single --model benchmark` run).  Below 32 MB blocks come from the heap,
# which keeps up to 64 MB of freed memory for reuse.
_MALLOPT = ((-3, 32 << 20), (-1, 64 << 20))     # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _keep_freed_memory() -> None:
    """Set `_MALLOPT` where the C library has mallopt (glibc, musl)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    for param, value in _MALLOPT:
        mallopt(param, value)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, QuantbessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, (UsageError, ConfigError)) else EXIT_RUNTIME
    except OSError as exc:  # a path the command cannot read or write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
