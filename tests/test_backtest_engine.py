import csv
import tracemalloc
import weakref

import numpy as np
import pytest
from dataclasses import replace

from oracles import (
    sp_coverage_all,
    sp_coverage_hours,
    sp_pinball_all,
    sp_pinball_buy,
    sp_pinball_buysell,
    sp_pinball_sell,
    stack_ledgers,
)
from recorder import recorded_forecasts
from quantbess.backtest_engine import (
    BacktestConfig,
    LEDGERS_FILE,
    METRICS_FILE,
    PROFITS_FILE,
    SELECTION_FILE,
    run_backtest,
    run_single_model,
    write_report,
)
from quantbess import bess_trading, point_model
from quantbess.bess_trading import (
    LEDGER_COLUMNS,
    LEDGER_DTYPES,
    benchmark_orders,
    build_orders,
    choose_hours,
    profit_per_mwh,
    settle,
)
from quantbess.errors import BacktestStageError, CalibrationError, ConfigError
from quantbess.eval_metrics import DEFAULT_ALPHAS, METRICS
from quantbess.market_data import MarketSeries, synth_generate
from quantbess.point_model import design_tensor, forecast_pool
from quantbess.prob_models import (
    MEDIAN_INDEX,
    CalibrationInputs,
    ErrorSample,
    MethodContext,
    get_calibrator,
    hs_offsets,
    quantile_matrix,
    register_method,
)


class TestConfig:
    def test_default_timeline(self):
        config = BacktestConfig()
        assert config.first_point_day == 371
        assert config.first_forecast_day == 553
        assert config.first_trading_day == 584
        # 700 synthetic days leave 700 - (7+364+182+30) - 1 trading days
        assert 700 - config.first_trading_day == 116

    def test_small_timeline(self, small_config):
        assert small_config.first_point_day == 63
        assert small_config.first_forecast_day == 71
        assert small_config.first_trading_day == 77

    def test_metric_window_exceeding_data(self, small_config):
        config = replace(small_config, metric_window=100)
        with pytest.raises(ConfigError):
            config.validate(90)

    def test_all_problems_reported_at_once(self):
        config = BacktestConfig(
            prob_window=1,
            metric_window=0,
            model_registry=("hs", "nope"),
            alphas=(0.8, 0.85),
        )
        problems = config.problems()
        assert len(problems) == 4
        with pytest.raises(ConfigError):
            config.validate()

    def test_point_window_must_be_in_pool(self):
        config = BacktestConfig(point_window=100, pool_window_lengths=(56, 84))
        assert any("pool_window_lengths" in p for p in config.problems())

    @pytest.mark.parametrize("windows, problem", [
        ((20, 56), "pool window(s) [20] below minimum 30"),
        ((56, 56), "pool window(s) [56] given more than once"),
    ])
    def test_bad_pool_windows_reported(self, small_config, windows, problem):
        # (20, 56) used to pass and abort the run at its first pool day
        config = replace(small_config, pool_window_lengths=windows)
        assert config.problems(synth_generate(110, seed=0).n_days) == [problem]

    @pytest.mark.parametrize("registry, problem", [
        (("hs", "cp", "hs"), "model tag(s) ['hs'] given more than once"),
        (("hs", "nope"), "unknown model tag 'nope'"),
        ((), "model_registry must be non-empty"),
    ])
    def test_bad_registry_reported(self, small_config, registry, problem):
        # a repeated tag used to pass and abort the run at its first
        # forecast day with a duplicate score
        config = replace(small_config, model_registry=registry)
        assert config.problems(synth_generate(110, seed=0).n_days) == [problem]

    @pytest.mark.parametrize("alphas, problem", [
        ((-0.5,), "alpha -0.5 outside [0, 1)"),
        ((0.8, float("inf")), "alpha inf outside [0, 1)"),
        ((float("nan"),), "alpha nan outside [0, 1)"),
        ((), "alphas must be non-empty"),
        ((0.5, 0.8, 0.5), "alpha(s) [0.5] given more than once"),
    ])
    def test_bad_alphas_reported(self, small_config, alphas, problem):
        # all used to pass: -0.5 then traded with its bounds swapped, inf and
        # no alphas ended the run with a traceback, and a repeated alpha
        # wrote its strategies twice
        config = replace(small_config, alphas=alphas)
        assert config.problems(90) == [problem]

    def test_as_dict_round_trip(self, small_config):
        values = small_config.as_dict()
        assert values["point_window"] == 56
        assert BacktestConfig(**values) == small_config


class TestRunBacktest:
    def test_every_trading_day_in_every_ledger(self, small_report, small_config):
        expected_days = list(small_report.trading_days)
        assert expected_days[0] == small_config.first_trading_day
        ledger = small_report.ledger
        assert len(small_report.strategies) == len(METRICS) * len(small_config.alphas)
        for name in LEDGER_COLUMNS:
            assert getattr(ledger, name).shape == (len(expected_days), len(small_report.strategies))
        for k in range(len(small_report.strategies)):
            assert ledger.day[:, k].tolist() == expected_days

    def test_selection_log_complete(self, small_report, small_config, tmp_path):
        n_trading = len(small_report.trading_days)
        n_alphas, n_models = len(small_config.alphas), len(small_config.model_registry)
        assert small_report.chosen.shape == (n_trading, len(METRICS), n_alphas)
        assert small_report.averages.shape == (n_trading, len(METRICS), n_alphas, n_models)
        assert ((small_report.chosen >= 0) & (small_report.chosen < n_models)).all()
        write_report(small_report, tmp_path)
        with open(tmp_path / SELECTION_FILE) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(METRICS) * n_alphas * n_trading

    def test_deterministic(self, small_series, small_config, small_report):
        again = run_backtest(small_series, small_config)
        assert (dict(zip(again.strategies, profit_per_mwh(again.ledger).tolist()))
                == dict(zip(small_report.strategies, profit_per_mwh(small_report.ledger).tolist())))
        assert np.array_equal(again.chosen, small_report.chosen)
        assert np.array_equal(again.averages, small_report.averages)
        assert np.array_equal(again.store.cube, small_report.store.cube)

    def test_battery_invariant_and_continuity(self, small_report):
        ledger = small_report.ledger
        for k in range(len(small_report.strategies)):
            levels = [1] + ledger.end_level[:, k].tolist()
            for start, end, expect in zip(ledger.start_level[:, k].tolist(), levels[1:], levels):
                assert start == expect
                assert end in (0, 1, 2)

    def test_scores_cover_all_models_and_days(self, small_report, small_config):
        store = small_report.store
        assert store.days == range(small_config.first_forecast_day, small_report.n_days)
        assert store.registry_order == small_config.model_registry
        assert not np.isnan(store.cube).any()

    def test_method_with_98_offsets_fails_at_its_forecast_stage(self, small_series, small_config):
        tag = "hs_98_test"
        register_method(tag, lambda inputs: MethodContext(tag, offsets=hs_offsets(inputs.errors)[:98]))
        config = replace(small_config, model_registry=("hs", tag))
        with pytest.raises(BacktestStageError) as err:
            run_backtest(small_series, config)
        assert (err.value.day, err.value.stage) == (config.first_forecast_day, f"forecast:{tag}")
        assert f"model {tag!r} produced quantiles of shape (24, 98)" in str(err.value)

    def test_failed_pool_fit_fails_at_point_pool(self, small_series, small_config, monkeypatch):
        def failing_ridge(Xy, hours):
            raise CalibrationError("ridge failed")

        # hour 24 is always rank deficient, so the first pool day takes the ridge
        monkeypatch.setattr(point_model, "_ridge", failing_ridge)
        with pytest.raises(BacktestStageError) as err:
            run_backtest(small_series, small_config)
        assert (err.value.day, err.value.stage) == (small_config.first_point_day, "point-pool")
        assert "ridge failed" in str(err.value)

    def test_golden_profit(self, small_report):
        # Regression pin: frozen after the first verified run of this config.
        table = dict(zip(small_report.strategies, profit_per_mwh(small_report.ledger).tolist()))
        profit = table[("pinball_all", 0.8)]
        assert profit == pytest.approx(GOLDEN_PINBALL_ALL_08, abs=1e-9)


class TestLedgerInPlace:
    """The day loop copies each settled day into one preallocated ledger."""

    @pytest.mark.parametrize("run", [
        lambda series, config: run_backtest(series, config).ledger,
        lambda series, config: run_single_model(series, config, "benchmark", 0.8),
    ], ids=["backtest", "benchmark"])
    def test_ledger_is_the_settled_days_stacked(self, small_series, small_config, monkeypatch, run):
        settled = []

        def recording_settle(*args, **kwargs):
            settled.append(settle(*args, **kwargs))
            return settled[-1]

        monkeypatch.setattr(bess_trading, "settle", recording_settle)
        ledger = run(small_series, replace(small_config, model_registry=("hs", "cp")))
        want = stack_ledgers(settled)
        for name in LEDGER_COLUMNS:
            got = getattr(ledger, name)
            assert got.dtype == getattr(want, name).dtype == LEDGER_DTYPES[name], name
            assert np.array_equal(got, getattr(want, name)), name

    def test_traced_peak_within_budget_of_the_report(self, small_config):
        """What a run keeps is its report; everything else it allocates stays
        under a fixed budget.  Per-day ledgers kept until the end, and a
        stacked copy of them, would add about twice the ledger."""
        series = synth_generate(150, seed=11, regime="low")
        config = replace(small_config, model_registry=("hs", "cp"), alphas=DEFAULT_ALPHAS)
        tracemalloc.start()
        try:
            report = run_backtest(series, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(getattr(report.ledger, name).nbytes for name in LEDGER_COLUMNS)
        kept += report.chosen.nbytes + report.averages.nbytes + report.store.cube.nbytes
        assert len(report.trading_days) == 73 and kept > 1_000_000
        assert peak - kept < 1_500_000, (peak, kept)


class TestDesignTensorLifetime:
    """The day loop owns the series' design tensor: it is freed when the run
    returns, before the caller writes the bundle or the ledger."""

    @pytest.mark.parametrize("run", [
        lambda series, config: run_backtest(series, config),
        lambda series, config: run_single_model(series, config, "benchmark", 0.8),
        lambda series, config: run_single_model(series, config, "qra", 0.8),
    ], ids=["backtest", "benchmark", "qra"])
    def test_freed_when_the_run_returns(self, small_series, small_config, monkeypatch, run):
        built = []

        def keeping_weakref(series):
            tensor = design_tensor(series)
            built.append(weakref.ref(tensor))
            return tensor

        monkeypatch.setattr(point_model, "design_tensor", keeping_weakref)
        # the run's result is still alive here, and must not hold the tensor
        result = run(small_series, replace(small_config, model_registry=("hs", "cp")))
        assert len(built) == 1 and built[0]() is None, result


class TestRunSingleModel:
    # run_single_model calibrates qra cold on its first day, where
    # run_backtest starts it from the previous calibration's betas.
    @pytest.mark.parametrize("model", ["cp", "qra"])
    def test_equivalence_with_single_model_registry(self, small_series, small_config, model):
        config = replace(small_config, model_registry=(model,), alphas=(0.8,))
        full = run_backtest(small_series, config)
        single = run_single_model(small_series, config, model, 0.8)
        assert full.strategies == [(metric, 0.8) for metric in METRICS]
        for k in range(len(METRICS)):
            for name in LEDGER_COLUMNS:
                assert getattr(full.ledger, name)[:, k].tolist() == (
                    getattr(single, name)[:, 0].tolist()
                ), name

    # qra and sqra read the pool history; a C-ordered copy of it moves
    # sqra's fit in the last bits
    @pytest.mark.parametrize("model", ["benchmark", "hs", "qra", "sqra"])
    def test_matches_full_schedule(self, small_series, small_config, model):
        config = replace(small_config, alphas=(0.8,))
        want = _full_schedule_single(small_series, config, model)
        got = run_single_model(small_series, config, model, 0.8)
        for name in LEDGER_COLUMNS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_benchmark_all_accepted(self, small_series, small_config):
        ledger = run_single_model(small_series, small_config, "benchmark", 0.8)
        assert ledger.day[:, 0].tolist() == list(range(small_config.first_trading_day, 90))
        assert ledger.bid_accepted.all() and ledger.offer_accepted.all()

    def test_unknown_model_rejected(self, small_series, small_config):
        with pytest.raises(ConfigError):
            run_single_model(small_series, small_config, "oracle", 0.8)

    def test_doubled_series_doubles_the_cash(self):
        # the price taker's hours follow the forecasts, which scale exactly
        series = synth_generate(700, seed=1, regime="spiky")
        doubled = MarketSeries(prices=2.0 * series.prices, loads=2.0 * series.loads,
                               start_weekday=series.start_weekday)
        base = run_single_model(series, BacktestConfig(), "benchmark", 0.8)
        got = run_single_model(doubled, BacktestConfig(), "benchmark", 0.8)
        assert len(base.day) == 116
        for name in LEDGER_COLUMNS:
            want = getattr(base, name)
            want = 2.0 * want if name == "cash_flow" else want
            assert np.array_equal(getattr(got, name), want), name


def _full_schedule_single(series, config, model):
    """run_single_model's reference: the whole pool on every day from the
    first point day, each trading day calibrated on the `prob_window` days
    before it, from the previous trading day's calibration."""
    primary, pool = {}, {}
    level, days, previous = np.ones(1, dtype=int), [], {}
    tensor = design_tensor(series)
    for d in range(config.first_point_day, series.n_days):
        forecasts, _ = forecast_pool(tensor, d, config.pool_window_lengths)
        pool[d] = forecasts.values
        primary[d] = pool[d][config.pool_window_lengths.index(config.point_window)]
        if d < config.first_trading_day:
            continue
        if model == "benchmark":
            orders = benchmark_orders(primary[d])
        else:
            window_days = range(d - config.prob_window, d)
            ctx = get_calibrator(model)(CalibrationInputs(
                errors=ErrorSample(np.concatenate(
                    [series.prices[t] - primary[t] for t in window_days])),
                pool=np.vstack([pool[t].T for t in window_days]),
                prices=series.prices[window_days.start:d].reshape(-1),
                previous=previous,
            ))
            previous = {model: ctx}
            qf = quantile_matrix(ctx, primary[d], pool[d])
            orders = build_orders([qf], [choose_hours(qf[:, MEDIAN_INDEX])], [0],
                                  config.alphas, level)
        days.append(settle(orders, series.prices[d], level, d))
        level = days[-1].end_level[0]
    return stack_ledgers(days)


class TestNoLookAhead:
    def test_price_mutation_leaves_forecasts_unchanged(self, small_config):
        base = synth_generate(80, seed=21)
        day = small_config.first_trading_day
        mutated_prices = base.prices.copy()
        mutated_prices[day] += 25.0
        mutated = type(base)(
            prices=mutated_prices, loads=base.loads, start_weekday=base.start_weekday
        )
        with recorded_forecasts() as f1:
            r1 = run_backtest(base, small_config)
        with recorded_forecasts() as f2:
            r2 = run_backtest(mutated, small_config)
        for tag in small_config.model_registry:
            assert np.array_equal(f1[day][tag], f2[day][tag])
        assert r1.ledger.day[0, 0] == day
        assert r1.ledger.cash_flow[0].tolist() != r2.ledger.cash_flow[0].tolist()

    @pytest.mark.parametrize("model", ["benchmark", "hs"])
    def test_single_model_orders_ignore_same_day_prices(self, small_config, model):
        base = synth_generate(80, seed=21)
        day = small_config.first_trading_day
        mutated_prices = base.prices.copy()
        # a ramp moves the day's cheapest and dearest hours, which orders
        # built from realized prices would follow
        mutated_prices[day] += np.linspace(0.0, 100.0, 24)
        mutated = type(base)(
            prices=mutated_prices, loads=base.loads, start_weekday=base.start_weekday
        )
        l1 = run_single_model(base, small_config, model, 0.8)
        l2 = run_single_model(mutated, small_config, model, 0.8)
        assert l1.day[0, 0] == day
        for name in ("h1", "h2", "bid_price", "offer_price"):
            assert getattr(l1, name)[0].tolist() == getattr(l2, name)[0].tolist(), name
        assert l1.cash_flow[0].tolist() != l2.cash_flow[0].tolist()


class TestWriteReport:
    def test_bundle_files_and_row_counts(self, small_report, small_config, tmp_path):
        paths = write_report(small_report, tmp_path)
        names = {p.split("/")[-1] for p in paths}
        assert names == {PROFITS_FILE, SELECTION_FILE, METRICS_FILE, LEDGERS_FILE}
        with open(tmp_path / PROFITS_FILE) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(METRICS) * len(small_config.alphas)

    def test_profit_recomputable_from_ledger_csv(self, small_report, tmp_path):
        write_report(small_report, tmp_path)
        sums = {}
        with open(tmp_path / LEDGERS_FILE) as fh:
            for row in csv.DictReader(fh):
                key = (row["metric"], float(row["alpha"]))
                cash, vol = sums.get(key, (0.0, 0.0))
                sums[key] = (
                    cash + float(row["cash_flow"]),
                    vol + float(row["volume_bought"]) + float(row["volume_sold"]),
                )
        assert list(sums) == small_report.strategies
        for key, profit in zip(small_report.strategies, profit_per_mwh(small_report.ledger)):
            cash, vol = sums[key]
            assert cash / vol == pytest.approx(profit, abs=1e-9)


class TestReportBundle:
    """The written bundle against the reference scorers and the selection rule."""

    @pytest.fixture(scope="class")
    def bundle(self, small_report, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("bundle")
        write_report(small_report, outdir)
        with open(outdir / METRICS_FILE) as fh:
            scores = {
                (int(r["day"]), r["model_id"], float(r["alpha"])): r
                for r in csv.DictReader(fh)
            }
        with open(outdir / SELECTION_FILE) as fh:
            selections = list(csv.DictReader(fh))
        return scores, selections

    def test_metric_table_matches_oracles(self, bundle, small_run, small_series, small_config):
        scores, _ = bundle
        small_report, forecasts = small_run
        days = range(small_config.first_forecast_day, small_report.n_days)
        assert len(scores) == len(days) * len(small_config.model_registry) * len(small_config.alphas)
        assert sorted(forecasts) == list(days)
        for (day, model, alpha), row in scores.items():
            qf = forecasts[day][model]
            prices = small_series.prices[day]
            h1, h2 = choose_hours(qf[:, MEDIAN_INDEX])
            row1, row2 = qf[h1 - 1], qf[h2 - 1]
            p1, p2 = prices[h1 - 1], prices[h2 - 1]
            oracle = {
                "pinball_all": sp_pinball_all(qf, prices),
                "pinball_buysell": sp_pinball_buysell(row1, row2, p1, p2, alpha),
                "pinball_sell": sp_pinball_sell(row2, p2, alpha),
                "pinball_buy": sp_pinball_buy(row1, p1, alpha),
                "coverage_all": sp_coverage_all(qf, prices, alpha),
                "coverage_hours": float(sp_coverage_hours(row1, row2, p1, p2, alpha)),
            }
            for metric in METRICS:
                assert float(row[metric]) == oracle[metric], (day, model, alpha, metric)

    def test_selection_averages_are_window_means(self, bundle, small_config):
        scores, selections = bundle
        window = small_config.metric_window
        for row in selections:
            day, alpha = int(row["day"]), float(row["alpha"])
            for model in small_config.model_registry:
                values = [float(scores[(t, model, alpha)][row["metric"]])
                          for t in range(day - window, day)]
                assert float(row[f"avg_{model}"]) == np.mean(values), (row, model)

    def test_chosen_models_follow_rule(self, bundle, small_config):
        _, selections = bundle
        models = small_config.model_registry
        for row in selections:
            metric, alpha = row["metric"], float(row["alpha"])
            averages = [float(row[f"avg_{m}"]) for m in models]
            if metric.startswith("pinball"):
                keys = averages
            elif metric == "coverage_all":
                keys = [abs(a - alpha) for a in averages]
            else:
                keys = [abs(a - ((1.0 + alpha) / 2.0) ** 2) for a in averages]
            # strict "<" keeps the earliest model among equal keys
            best = 0
            for i, key in enumerate(keys):
                if key < keys[best]:
                    best = i
            assert row["chosen_model"] == models[best], row


GOLDEN_PINBALL_ALL_08 = 12.049773683515937
