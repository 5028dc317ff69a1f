"""The benchmark's own copy of the documented synthetic market model.

The workloads generate their inputs here rather than through
`quantbess.market_data`, so a change to the program's generator cannot change
what the benchmark measures.  The model and the CSV layout follow
`synth_generate` and `export_csv` as documented in `src/quantbess/market_data.py`:
a daily sinusoidal price shape, a weekend level shift, AR(1) hourly noise,
occasional jumps in the spiky regime, and a load correlated with the price
shape.  Day 0 is a Thursday, 2018-01-04.

Confirm that this copy still matches the program's generator with

    python3 benchmark/datagen.py --compare

which writes a few datasets both ways and compares them byte for byte.
"""
from __future__ import annotations

import argparse
import csv
import datetime as dt
import os
import subprocess
import sys
import tempfile

import numpy as np

REGIME_NOISE = {"low": 1.5, "high": 7.0, "spiky": 5.0}
WEEKDAY_LEVEL = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -8.0, -13.0])  # Mon..Sun
START_WEEKDAY = 4  # Thursday
START_DATE = dt.date(2018, 1, 4)


def generate(n_days: int, seed: int, regime: str) -> tuple[np.ndarray, np.ndarray]:
    """(prices, loads), each of shape (n_days, 24)."""
    rng = np.random.default_rng(seed)
    hours = np.arange(24)
    shape = np.sin(2 * np.pi * (hours - 6) / 24) + 0.35 * np.sin(4 * np.pi * (hours - 1) / 24)
    base = 45.0 + 14.0 * shape
    weekdays = (START_WEEKDAY - 1 + np.arange(n_days)) % 7
    level = WEEKDAY_LEVEL[weekdays]

    sigma = REGIME_NOISE[regime]
    innov = rng.normal(0.0, sigma, n_days * 24)
    noise = np.empty(n_days * 24)
    acc = 0.0
    for t in range(n_days * 24):
        acc = 0.7 * acc + innov[t]
        noise[t] = acc
    prices = base[None, :] + level[:, None] + noise.reshape(n_days, 24)

    if regime == "spiky":
        for d in np.flatnonzero(rng.random(n_days) < 0.08):
            h = rng.integers(0, 24)
            prices[d, h] += rng.choice([-1.0, 1.0]) * rng.uniform(180.0, 450.0)

    loads = (
        28000.0
        + 5500.0 * shape[None, :]
        + 900.0 * level[:, None] / 8.0
        + rng.normal(0.0, 600.0, (n_days, 24))
        + 0.15 * 1000.0 * noise.reshape(n_days, 24) / max(sigma, 1.0)
    )
    return prices, np.clip(loads, 0.0, None)


def write_csv(path, prices: np.ndarray, loads: np.ndarray) -> None:
    """The normalized layout `timestamp,price,load_forecast`, one row per hour."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "price", "load_forecast"])
        for d in range(prices.shape[0]):
            day = START_DATE + dt.timedelta(days=d)
            for h in range(24):
                ts = dt.datetime.combine(day, dt.time(hour=h))
                writer.writerow([ts.isoformat(), repr(float(prices[d, h])), repr(float(loads[d, h]))])


def read_csv(path) -> tuple[np.ndarray, np.ndarray, int]:
    """(prices, loads, weekday of day 0 with 1=Mon) from a normalized dataset.

    Rows must be consecutive whole hours, 24 per day, as this generator writes.
    """
    stamps, prices, loads = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["timestamp", "price", "load_forecast"]:
            raise ValueError(f"{path}: unexpected header")
        for ts, price, load in reader:
            stamps.append(ts)
            prices.append(float(price))
            loads.append(float(load))
    if len(prices) % 24:
        raise ValueError(f"{path}: {len(prices)} rows is not a whole number of days")
    first = dt.datetime.fromisoformat(stamps[0])
    if first.hour != 0 or any(
        dt.datetime.fromisoformat(ts) != first + dt.timedelta(hours=i)
        for i, ts in enumerate(stamps)
    ):
        raise ValueError(f"{path}: timestamps are not consecutive hours from midnight")
    n_days = len(prices) // 24
    return (np.array(prices).reshape(n_days, 24), np.array(loads).reshape(n_days, 24),
            first.isoweekday())


def compare_with_program(root) -> int:
    """Write datasets with this copy and with `quantbess synth`; 0 when identical."""
    cases = [(561, 0, "spiky"), (700, 3, "low"), (120, 7, "high")]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for n_days, seed, regime in cases:
            ours = os.path.join(tmp, "ours.csv")
            theirs = os.path.join(tmp, "theirs.csv")
            write_csv(ours, *generate(n_days, seed, regime))
            subprocess.run(
                [sys.executable, "-m", "quantbess.cli", "synth", theirs,
                 "--days", str(n_days), "--seed", str(seed), "--regime", regime],
                env=env, check=True, stdout=subprocess.DEVNULL,
            )
            with open(ours, "rb") as a, open(theirs, "rb") as b:
                same = a.read() == b.read()
            mismatches += not same
            print(f"{regime:>5} days={n_days} seed={seed}: {'identical' if same else 'DIFFERENT'}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", action="store_true",
                        help="compare this generator with `quantbess synth`")
    args = parser.parse_args()
    if not args.compare:
        parser.error("nothing to do; pass --compare")
    sys.exit(compare_with_program(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
