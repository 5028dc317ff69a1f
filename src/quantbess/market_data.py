"""Hourly day-ahead market data: ingestion, validation, synthesis.

The canonical in-memory representation is a dense calendar-aligned matrix of
shape (n_days, 24).  Hours are numbered 1..24 externally (column h-1
internally), days are 0-based.  Prices may be negative; load forecasts may not.
"""
from __future__ import annotations

import csv
import datetime as _dt
from dataclasses import dataclass

import numpy as np

from .errors import GapError, InsufficientDataError, ParseError

DEFAULT_SCHEMA = {
    "timestamp": "timestamp",
    "price": "price",
    "load": "load_forecast",
}

REGIMES = ("low", "high", "spiky")


@dataclass(frozen=True)
class MarketSeries:
    """Dense hourly price/load matrices plus the weekday of day 0 (1=Mon..7=Sun).

    Immutable after construction; safe to share across threads.
    """

    prices: np.ndarray
    loads: np.ndarray
    start_weekday: int = 1

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        loads = np.asarray(self.loads, dtype=float)
        if prices.ndim != 2 or prices.shape[1] != 24:
            raise ValueError("prices must have shape (n_days, 24)")
        if loads.shape != prices.shape:
            raise ValueError("loads must match the shape of prices")
        if not (np.isfinite(prices).all() and np.isfinite(loads).all()):
            raise ValueError("prices and loads must be finite (no missing cells)")
        if (loads < 0).any():
            raise ValueError("load forecasts must be non-negative")
        if not 1 <= self.start_weekday <= 7:
            raise ValueError("start_weekday must be in 1..7")
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "loads", loads)
        self.prices.setflags(write=False)
        self.loads.setflags(write=False)

    @property
    def n_days(self) -> int:
        return self.prices.shape[0]

    def weekday(self, d) -> int | np.ndarray:
        """Weekday (1=Mon..7=Sun) of day d; periodic with period 7."""
        return (self.start_weekday - 1 + np.asarray(d)) % 7 + 1


# ---------------------------------------------------------------------------
# CSV ingestion / export
# ---------------------------------------------------------------------------

def ingest_csv(path, schema=None, delimiter: str = ",", min_days: int = 0) -> MarketSeries:
    """Parse an hourly CSV into a dense MarketSeries.

    Expected columns (remappable via `schema`): an ISO-8601 local timestamp,
    a price and a day-ahead load forecast.  Days shortened to 23 hours by the
    spring DST shift have the missing hour filled with the mean of its two
    chronological neighbours; 25-hour autumn days have the duplicated hour
    averaged into one.  Any longer gap raises GapError.
    """
    schema = dict(DEFAULT_SCHEMA, **(schema or {}))
    rows = []  # (datetime, price, load, line_no)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None:
            raise ParseError(1, "empty file")
        for key in ("timestamp", "price", "load"):
            if schema[key] not in reader.fieldnames:
                raise ParseError(1, f"missing column {schema[key]!r}")
        for line_no, row in enumerate(reader, start=2):
            try:
                ts = _dt.datetime.fromisoformat(row[schema["timestamp"]].strip())
                price = float(row[schema["price"]])
                load = float(row[schema["load"]])
            except (ValueError, TypeError, AttributeError) as exc:
                raise ParseError(line_no, str(exc)) from exc
            if not (np.isfinite(price) and np.isfinite(load)):
                raise ParseError(line_no, "price and load must be finite")
            if load < 0:
                raise ParseError(line_no, f"negative load forecast {load}")
            rows.append((ts, price, load, line_no))
    if not rows:
        raise ParseError(1, "no data rows")

    rows.sort(key=lambda r: r[0])
    first_date = rows[0][0].date()
    last_date = rows[-1][0].date()
    n_days = (last_date - first_date).days + 1

    price_cells = np.full((n_days, 24), np.nan)
    load_cells = np.full((n_days, 24), np.nan)
    counts = np.zeros((n_days, 24), dtype=int)
    for ts, price, load, line_no in rows:
        d = (ts.date() - first_date).days
        h = ts.hour
        if counts[d, h] == 0:
            price_cells[d, h] = price
            load_cells[d, h] = load
        elif counts[d, h] == 1:
            # DST fall-back duplicate: average the two observations
            price_cells[d, h] = 0.5 * (price_cells[d, h] + price)
            load_cells[d, h] = 0.5 * (load_cells[d, h] + load)
        else:
            raise ParseError(line_no, f"hour {h} of {ts.date()} appears more than twice")
        counts[d, h] += 1

    for cells in (price_cells, load_cells):
        _fill_single_gaps(cells)

    if n_days < min_days:
        raise InsufficientDataError(
            f"dataset has {n_days} complete days; at least {min_days} required"
        )
    return MarketSeries(
        prices=price_cells,
        loads=load_cells,
        start_weekday=first_date.isoweekday(),
    )


def _fill_single_gaps(cells: np.ndarray) -> None:
    """Fill isolated missing hours in-place; raise GapError on longer gaps."""
    flat = cells.reshape(-1)
    missing = np.flatnonzero(np.isnan(flat))
    if missing.size == 0:
        return
    if missing[0] == 0 or missing[-1] == flat.size - 1:
        raise GapError("dataset starts or ends with a missing hour")
    if np.any(np.diff(missing) == 1):
        raise GapError("gap longer than 1 hour in the hourly sequence")
    flat[missing] = 0.5 * (flat[missing - 1] + flat[missing + 1])


def export_csv(series: MarketSeries, path, delimiter: str = ",", start_date=None) -> None:
    """Write the dense series back to the normalized CSV layout.

    The default start date is chosen so that its weekday matches
    series.start_weekday, making ingest(export(s)) an identity.
    """
    if start_date is None:
        # 2018-01-01 is a Monday
        start_date = _dt.date(2018, 1, 1) + _dt.timedelta(days=series.start_weekday - 1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["timestamp", "price", "load_forecast"])
        for d in range(series.n_days):
            day = start_date + _dt.timedelta(days=d)
            for h in range(24):
                ts = _dt.datetime.combine(day, _dt.time(hour=h))
                writer.writerow(
                    [
                        ts.isoformat(),
                        repr(float(series.prices[d, h])),
                        repr(float(series.loads[d, h])),
                    ]
                )


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------

_REGIME_NOISE = {"low": 1.5, "high": 7.0, "spiky": 5.0}
_WEEKDAY_LEVEL = np.array([0.0, 0.0, 0.0, 0.0, 0.0, -8.0, -13.0])  # Mon..Sun


def synth_generate(n_days: int, seed: int, regime: str = "low") -> MarketSeries:
    """Deterministic synthetic hourly market data.

    Daily sinusoidal price shape, weekly level shift, AR(1) hourly noise and
    (for the spiky regime) occasional large positive/negative jumps.  Load is
    correlated with the intraday price shape.
    """
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    rng = np.random.default_rng(seed)
    start_weekday = 4  # Thursday

    hours = np.arange(24)
    shape = np.sin(2 * np.pi * (hours - 6) / 24) + 0.35 * np.sin(4 * np.pi * (hours - 1) / 24)
    base = 45.0 + 14.0 * shape

    weekdays = (start_weekday - 1 + np.arange(n_days)) % 7  # 0=Mon
    level = _WEEKDAY_LEVEL[weekdays]

    sigma = _REGIME_NOISE[regime]
    innov = rng.normal(0.0, sigma, n_days * 24)
    noise = np.empty(n_days * 24)
    acc = 0.0
    for t in range(n_days * 24):
        acc = 0.7 * acc + innov[t]
        noise[t] = acc

    prices = base[None, :] + level[:, None] + noise.reshape(n_days, 24)

    if regime == "spiky":
        spike_days = rng.random(n_days) < 0.08
        for d in np.flatnonzero(spike_days):
            h = rng.integers(0, 24)
            prices[d, h] += rng.choice([-1.0, 1.0]) * rng.uniform(180.0, 450.0)

    loads = (
        28000.0
        + 5500.0 * shape[None, :]
        + 900.0 * level[:, None] / 8.0
        + rng.normal(0.0, 600.0, (n_days, 24))
        + 0.15 * 1000.0 * noise.reshape(n_days, 24) / max(sigma, 1.0)
    )
    loads = np.clip(loads, 0.0, None)

    return MarketSeries(prices=prices, loads=loads, start_weekday=start_weekday)
