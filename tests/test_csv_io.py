"""The columnar CSV reader and writers against the row-by-row oracles.

`ingest_csv` must accept and refuse the same files as a `csv.DictReader`
loop, with the same error, message and line number; every writer must write
the same bytes as `csv.writer` fed one row at a time.
"""
import datetime
import filecmp
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    export_csv_by_rows,
    export_ledger_by_rows,
    ingest_csv_by_rows,
    write_report_by_rows,
)
from quantbess.backtest_engine import BacktestReport, run_single_model, write_report
from quantbess.bess_trading import LEDGER_COLUMNS, TradeLedger, export_ledger
from quantbess.errors import QuantbessError
from quantbess.market_data import MarketSeries, export_csv, ingest_csv, synth_generate
from quantbess.model_selector import ScoreStore
from quantbess.prob_models import MethodContext, hs_offsets, register_method

#: A method tag that csv.writer must quote.
ODD_TAG = 'hs,"wide"'


def _same_files(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert filecmp.cmp(a, b, shallow=False), (a, b)


# ---------------------------------------------------------------------------
# ingest_csv
# ---------------------------------------------------------------------------

#: Bad cells as (column: timestamp 0, price 1, load 2; text).
BAD_CELLS = {
    "timestamp": (0, "2021-13-01T00:00:00"),
    "price": (1, "n/a"),
    "split price": (1, "12,5"),
    "nan price": (1, "nan"),
    "inf load": (2, "inf"),
    "negative load": (2, "-1.5"),
}
BAD_ROWS = (*BAD_CELLS, "short row", "third occurrence")


@st.composite
def dataset_files(draw):
    """CSV text of a few hourly days: shuffled rows, 23- and 25-hour days,
    a custom schema and delimiter, padded timestamps, blank lines, and up
    to two bad rows at random positions."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_days = draw(st.integers(1, 4))
    start = datetime.datetime(2020, 1, 1) + datetime.timedelta(days=draw(st.integers(0, 1500)))
    cells = [(d, h) for d in range(n_days) for h in range(24)]
    for d in draw(st.sets(st.integers(0, n_days - 1), max_size=2)):  # 23-hour days
        cells.remove((d, draw(st.integers(0, 23))))
    for d in draw(st.sets(st.integers(0, n_days - 1), max_size=2)):  # 25-hour days
        cells.append((d, draw(st.integers(0, 23))))
    stamps = [start + datetime.timedelta(days=d, hours=h) for d, h in cells]
    prices = np.round(rng.normal(40.0, 30.0, len(cells)), draw(st.integers(0, 12)))
    loads = rng.uniform(0.0, 3e4, len(cells))
    sep = draw(st.sampled_from(["T", " "]))
    rows = [[ts.isoformat(sep), repr(float(p)), repr(float(v))]
            for ts, p, v in zip(stamps, prices, loads)]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]

    for bad in draw(st.lists(st.sampled_from(BAD_ROWS), max_size=2)):
        i = draw(st.integers(0, len(rows) - 1))
        if bad == "short row":
            rows[i] = rows[i][: draw(st.integers(1, 2))]
        elif bad == "third occurrence":
            j = draw(st.integers(0, len(rows) - 1))
            rows[i:i] = [list(rows[j]), list(rows[j])]
        else:
            k, text = BAD_CELLS[bad]
            rows[i] = rows[i][:k] + [text] + rows[i][k + 1 :]

    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    names = draw(st.sampled_from([("timestamp", "price", "load_forecast"), ("ts", "p", "l")]))
    order = draw(st.permutations(range(3)))
    extra = draw(st.booleans())  # an unused column at the end
    lines = [delimiter.join([names[k] for k in order] + ["note"] * extra)]
    for row in rows:
        pad = " " * draw(st.integers(0, 2))
        cells_out = [pad + row[0] + pad, *row[1:]]
        cells_out = [cells_out[k] for k in order if k < len(cells_out)] + ["x"] * extra
        lines.append(delimiter.join(cells_out))
        if draw(st.integers(0, 30)) == 0:
            lines.append("")
    schema = dict(zip(("timestamp", "price", "load"), names))
    return "\n".join(lines) + "\n", schema, delimiter


def _outcome(reader, path, **kwargs):
    """The series' bits, or the error's class, message and line number."""
    try:
        series = reader(path, **kwargs)
    except QuantbessError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return (series.prices.view(np.int64).tolist(), series.loads.view(np.int64).tolist(),
            series.start_weekday)


class TestIngestMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(dataset_files())
    def test_randomized_files(self, tmp_path_factory, case):
        text, schema, delimiter = case
        path = tmp_path_factory.mktemp("ingest") / "data.csv"
        path.write_text(text, encoding="utf-8")
        kwargs = dict(schema=schema, delimiter=delimiter)
        assert _outcome(ingest_csv, path, **kwargs) == _outcome(ingest_csv_by_rows, path, **kwargs)

    @pytest.mark.parametrize("text", [
        "",
        "\n2021-01-01T00:00:00,1,2\n",
        "timestamp,price\n2021-01-01T00:00:00,5\n",
        "timestamp,price,load_forecast\n",
        "timestamp,price,load_forecast,price\n2021-01-01T00:00:00,1,2\n",
        "timestamp,price,load_forecast\n2021-01-01T00:00:00,1,2,3\n",
    ])
    def test_headers_and_empty_files(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        assert _outcome(ingest_csv, path) == _outcome(ingest_csv_by_rows, path)

    def test_first_bad_row_in_file_order(self, tmp_path):
        # a non-finite price before a malformed timestamp is the one reported
        rows = [f"2021-01-01T{h:02d}:00:00,{h},1" for h in range(24)]
        rows[3] = "2021-01-01T03:00:00,inf,1"
        rows[9] = "not-a-time,1,1"
        path = tmp_path / "data.csv"
        path.write_text("timestamp,price,load_forecast\n" + "\n".join(rows) + "\n")
        assert _outcome(ingest_csv, path)[1:] == ("line 5: price and load must be finite", 5)
        assert _outcome(ingest_csv, path) == _outcome(ingest_csv_by_rows, path)

    def test_local_date_outside_the_series_is_refused(self, tmp_path):
        # UTC offsets that disagree put this row's local date before the
        # date of the earliest instant; the row-by-row reader averaged it
        # into hour 23 of the last day
        rows = [f"2021-01-01T{h:02d}:00:00+00:00,{h},1" for h in range(24)]
        rows.append("2020-12-31T23:00:00-05:00,99,1")
        path = tmp_path / "data.csv"
        path.write_text("timestamp,price,load_forecast\n" + "\n".join(rows) + "\n")
        assert _outcome(ingest_csv, path)[1:] == (
            "line 26: 2020-12-31 23:00:00-05:00 falls outside the days 2021-01-01 to 2021-01-01",
            26,
        )
        assert ingest_csv_by_rows(path).prices[0, 23] == 0.5 * (23 + 99)

    def test_min_days(self, tmp_path):
        path = tmp_path / "data.csv"
        export_csv(synth_generate(3, seed=1), path)
        for min_days in (3, 4):
            assert (_outcome(ingest_csv, path, min_days=min_days)
                    == _outcome(ingest_csv_by_rows, path, min_days=min_days))


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

def _odd_report(report):
    """`report` with -0.0, nan and inf among its floats and a model tag
    that holds a comma and a quote."""
    register_method(ODD_TAG, lambda inputs: MethodContext(ODD_TAG, offsets=hs_offsets(inputs.errors)))
    registry = (report.config.model_registry[0], ODD_TAG, *report.config.model_registry[2:])
    store = ScoreStore(registry, report.store.alphas, report.store.days)
    store.cube = report.store.cube.copy()
    store.cube[0, 0, :, :3] = [-0.0, np.nan, np.inf]
    averages = report.averages.copy()
    averages[0, 0, 0, :3] = [-0.0, np.nan, -np.inf]
    columns = {name: getattr(report.ledger, name).copy() for name in LEDGER_COLUMNS}
    columns["bid_price"][0, :3] = [np.inf, -0.0, np.nan]
    columns["cash_flow"][1, :2] = [-0.0, 0.0]
    chosen = report.chosen.copy()
    chosen[0] = 1
    return replace(report, config=replace(report.config, model_registry=registry),
                   ledger=TradeLedger(**columns), store=store, chosen=chosen,
                   averages=averages)


class TestWritersMatchOracles:
    def test_report_bundle(self, small_report, tmp_path):
        _same_files(write_report(small_report, tmp_path / "new"),
                    write_report_by_rows(small_report, tmp_path / "old"))

    def test_report_bundle_with_odd_values_and_tag(self, small_report, tmp_path):
        report = _odd_report(small_report)
        _same_files(write_report(report, tmp_path / "new"),
                    write_report_by_rows(report, tmp_path / "old"))
        assert '"hs,""wide"""' in (tmp_path / "new" / "selection_log.csv").read_text()

    @pytest.mark.parametrize("extra", [None, {"model": "hs", "alpha": 0.8},
                                       {"model": ODD_TAG, "alpha": 0.98, "note": ""}])
    def test_export_ledger(self, small_report, tmp_path, extra):
        ledger = _odd_report(small_report).ledger
        export_ledger(ledger, tmp_path / "new.csv", extra=extra)
        export_ledger_by_rows(ledger, tmp_path / "old.csv", extra=extra)
        _same_files([tmp_path / "new.csv"], [tmp_path / "old.csv"])

    def test_export_benchmark_ledger(self, small_series, small_config, tmp_path):
        # the price taker's unlimited orders carry inf and -inf limits
        ledger = run_single_model(small_series, small_config, "benchmark")
        export_ledger(ledger, tmp_path / "new.csv", extra={"model": "benchmark"})
        export_ledger_by_rows(ledger, tmp_path / "old.csv", extra={"model": "benchmark"})
        _same_files([tmp_path / "new.csv"], [tmp_path / "old.csv"])

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", "e", "0", "-"])
    @pytest.mark.parametrize("start_date", [None, datetime.date(1999, 12, 30),
                                            datetime.datetime(2024, 2, 28, 17, 45)])
    def test_export_csv(self, tmp_path, delimiter, start_date):
        series = synth_generate(5, seed=4, regime="spiky")
        prices = series.prices.copy()
        prices[0, :3] = [-0.0, 0.0, 1e300]
        series = MarketSeries(prices=prices, loads=series.loads, start_weekday=6)
        export_csv(series, tmp_path / "new.csv", delimiter, start_date)
        export_csv_by_rows(series, tmp_path / "old.csv", delimiter, start_date)
        _same_files([tmp_path / "new.csv"], [tmp_path / "old.csv"])


def _longer(report, times: int) -> BacktestReport:
    """`report` with its trading and forecast days repeated `times` times."""
    days = report.store.days
    store = ScoreStore(report.store.registry_order, report.store.alphas,
                       range(days.start, days.start + times * len(days)))
    store.cube = np.tile(report.store.cube, (1, 1, 1, times))
    ledger = TradeLedger(*(np.tile(getattr(report.ledger, name), (times, 1))
                           for name in LEDGER_COLUMNS))
    return replace(
        report, n_days=report.first_trading_day + times * len(report.trading_days),
        ledger=ledger, store=store, chosen=np.tile(report.chosen, (times, 1, 1)),
        averages=np.tile(report.averages, (times, 1, 1, 1)),
    )


def test_bundle_writer_memory_does_not_grow_with_days(small_report, tmp_path):
    """The writer formats a block of rows at a time: writing twice the
    trading days (each file several blocks long) peaks no higher."""
    peaks = []
    for times in (25, 50):
        report = _longer(small_report, times)
        tracemalloc.start()
        write_report(report, tmp_path)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0], peaks
