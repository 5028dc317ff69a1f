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

from .errors import DataError, GapError, InsufficientDataError, ParseError

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

    Line numbers count the header as line 1 and skip blank lines.  Of
    several bad rows the first in the file is reported; of an hour that
    appears three times, its third row in time order.
    """
    schema = dict(DEFAULT_SCHEMA, **(schema or {}))
    stamps, prices, loads, bad_row = [], [], [], None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            header = next(reader, None)
            if header is None:
                raise ParseError(1, "empty file")
            columns = []
            for key in ("timestamp", "price", "load"):
                if schema[key] not in header:
                    raise ParseError(1, f"missing column {schema[key]!r}")
                # a repeated column name means its last column
                columns.append(len(header) - 1 - header[::-1].index(schema[key]))
            ti, pi, li = columns
            for row in filter(None, reader):  # blank lines are skipped
                try:
                    stamps.append(_dt.datetime.fromisoformat(row[ti].strip()))
                    prices.append(float(row[pi]))
                    loads.append(float(row[li]))
                except (ValueError, IndexError):
                    bad_row = row
                    break
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    n_rows = len(loads)  # the rows parsed in full, all before bad_row
    prices, loads = np.array(prices[:n_rows]), np.array(loads)
    bad = np.flatnonzero(~(np.isfinite(prices) & np.isfinite(loads)) | (loads < 0))
    if bad.size:
        _check_row(float(prices[bad[0]]), float(loads[bad[0]]), int(bad[0]) + 2)
    if bad_row is not None:
        _parse_row(bad_row, columns, n_rows + 2)
    if not n_rows:
        raise ParseError(1, "no data rows")

    # the first and the last row of a stable sort by time
    first_date, last_date = min(stamps).date(), max(reversed(stamps)).date()
    n_days = (last_date - first_date).days + 1
    day = np.array([ts.toordinal() for ts in stamps]) - first_date.toordinal()
    outside = np.flatnonzero((day < 0) | (day >= n_days))
    if outside.size:
        # only timestamps with differing UTC offsets get here
        i = int(outside[0])
        raise ParseError(i + 2, f"{stamps[i]} falls outside the days {first_date} to {last_date}")
    cell = day * 24 + np.array([ts.hour for ts in stamps])
    counts = np.bincount(cell, minlength=n_days * 24)
    if counts.max() > 2:
        _raise_third_row(stamps, cell, np.flatnonzero(counts[cell] > 2))

    twice = np.flatnonzero(counts[cell] == 2)
    pairs = twice[np.argsort(cell[twice], kind="stable")].reshape(-1, 2).T
    grids = []
    for values in (prices, loads):
        grid = np.full(n_days * 24, np.nan)
        grid[cell] = values
        # DST fall-back duplicate: average the two observations
        grid[cell[pairs[0]]] = 0.5 * (values[pairs[0]] + values[pairs[1]])
        _fill_single_gaps(grid)
        grids.append(grid.reshape(n_days, 24))

    if n_days < min_days:
        raise InsufficientDataError(
            f"dataset has {n_days} complete days; at least {min_days} required"
        )
    return MarketSeries(prices=grids[0], loads=grids[1], start_weekday=first_date.isoweekday())


def _parse_row(row, columns, line_no) -> None:
    """Raise ParseError if the row is bad, as a `csv.DictReader` loop would:
    a short row's missing cells read as None."""
    ts, price, load = (row[i] if i < len(row) else None for i in columns)
    try:
        _dt.datetime.fromisoformat(ts.strip())
        price, load = float(price), float(load)
    except (ValueError, TypeError, AttributeError) as exc:
        raise ParseError(line_no, str(exc)) from exc
    _check_row(price, load, line_no)


def _check_row(price: float, load: float, line_no: int) -> None:
    if not (np.isfinite(price) and np.isfinite(load)):
        raise ParseError(line_no, "price and load must be finite")
    if load < 0:
        raise ParseError(line_no, f"negative load forecast {load}")


def _raise_third_row(stamps, cell, crowded) -> None:
    """ParseError at the first row, in a stable sort by time, that is the
    third of its hour; `crowded` holds the rows of the hours seen 3+ times."""
    seen = {}
    for i in sorted(crowded.tolist(), key=stamps.__getitem__):
        seen[cell[i]] = seen.get(cell[i], 0) + 1
        if seen[cell[i]] == 3:
            ts = stamps[i]
            raise ParseError(i + 2, f"hour {ts.hour} of {ts.date()} appears more than twice")


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


def export_csv(series: MarketSeries, path) -> None:
    """Write the dense series back to the normalized CSV layout.

    The start date is chosen so that its weekday matches
    series.start_weekday, making ingest(export(s)) an identity.
    """
    # 2018-01-01 is a Monday
    start_date = _dt.date(2018, 1, 1) + _dt.timedelta(days=series.start_weekday - 1)
    stamps = []
    for d in range(series.n_days):
        midnight = _dt.datetime.combine(start_date + _dt.timedelta(days=d), _dt.time())
        day = midnight.isoformat()[: -len("00:00:00")]
        stamps += [f"{day}{h:02d}:00:00" for h in range(24)]
    _write_csv(
        path, ["timestamp", "price", "load_forecast"], series.prices.shape,
        [(np.arange(len(stamps)).reshape(-1, 24), stamps), series.prices, series.loads],
    )


#: Rows formatted and written at a time, so that a writer's memory stays flat.
_BLOCK_ROWS = 4096


class _Echo:
    """A file whose `write` returns its text: `csv.writer(_Echo()).writerow`
    returns the line it would write."""

    def write(self, text):
        return text


def _field_texts(values) -> np.ndarray:
    """Each value as `csv.writer` writes one field of a row of several: its
    str, quoted when it holds a comma, a quote or a line break."""
    values = list(values)
    texts = np.empty(len(values), dtype=object)
    if all(type(v) is str for v in values):
        joined = "".join(values)
        if not any(c in joined for c in (",", '"', "\r", "\n")):
            texts[:] = values
            return texts
    line = csv.writer(_Echo(), lineterminator="").writerow
    texts[:] = [line((v, ""))[:-1] for v in values]
    return texts


def _number_texts(values: np.ndarray) -> np.ndarray:
    """The repr of each float and the str of each int (bools as 0 and 1),
    formatted once per distinct bit pattern, so -0.0, nan and inf keep
    their own text."""
    if values.dtype.kind == "f":
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        texts = list(map(repr, distinct.view(np.float64).tolist()))
    elif values.dtype.kind in "biu":
        distinct, inverse = np.unique(values.astype(np.int64), return_inverse=True)
        texts = list(map(str, distinct.tolist()))
    else:
        raise TypeError(f"cannot write a column of dtype {values.dtype}")
    return np.array(texts, dtype=object)[inverse]


def _labels_along(labels, axis: int, ndim: int) -> tuple:
    """The `_write_csv` column (codes, labels) that holds labels[i] at index
    i of `axis` of an `ndim`-axis grid."""
    shape = [1] * ndim
    shape[axis] = len(labels)
    return np.arange(len(labels)).reshape(shape), labels


def _write_csv(path, header, shape, columns) -> None:
    """Write the CSV file that `csv.writer` would, one column at a time.

    The rows run over the index grid `shape` in C order.  A column is either
    an array broadcast to the grid, written as the repr of its floats or the
    str of its ints, or a pair (codes, labels): codes broadcast to the grid,
    and labels written as `csv.writer` writes a field.  Labels are formatted
    once per file.  The rows go out in blocks of whole indices of the first
    axis, about _BLOCK_ROWS rows each, with numbers formatted once per
    distinct value in a block; one block is in memory at a time.
    """
    shape = tuple(shape)
    prepared = []  # (values or codes on the grid, label texts or None)
    for column in columns:
        if isinstance(column, tuple):
            codes, labels = column
            prepared.append((np.broadcast_to(codes, shape), _field_texts(labels)))
        else:
            prepared.append((np.broadcast_to(column, shape), None))
    step = max(1, _BLOCK_ROWS // max(1, int(np.prod(shape[1:]))))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, shape[0], step):
            block = []
            for values, texts in prepared:
                values = values[lo : lo + step].reshape(-1)
                block.append(
                    (texts[values] if texts is not None else _number_texts(values))
                    .tolist()
                )
            fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


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
