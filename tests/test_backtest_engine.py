import csv

import numpy as np
import pytest
from dataclasses import replace

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
from quantbess.bess_trading import profit_per_mwh
from quantbess.errors import ConfigError
from quantbess.eval_metrics import METRICS
from quantbess.market_data import synth_generate


@pytest.fixture(scope="module")
def small_report(small_series, small_config):
    return run_backtest(small_series, small_config)


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
            metric_window=0,
            model_registry=("hs", "nope"),
            alphas=(0.8, 0.85),
            coverage_mode="sometimes",
        )
        problems = config.problems()
        assert len(problems) >= 4
        with pytest.raises(ConfigError):
            config.validate()

    def test_point_window_must_be_in_pool(self):
        config = BacktestConfig(point_window=100, pool_window_lengths=(56, 84))
        assert any("pool_window_lengths" in p for p in config.problems())

    def test_as_dict_round_trip(self, small_config):
        values = small_config.as_dict()
        assert values["point_window"] == 56
        assert BacktestConfig(**values) == small_config


class TestRunBacktest:
    def test_every_trading_day_in_every_ledger(self, small_report, small_config):
        expected_days = list(small_report.trading_days)
        assert expected_days[0] == small_config.first_trading_day
        for (metric, alpha), ledger in small_report.ledgers.items():
            assert [e.day for e in ledger.entries] == expected_days

    def test_selection_log_complete(self, small_report, small_config):
        n_keys = len(METRICS) * len(small_config.alphas)
        assert len(small_report.selection_log) == n_keys * len(list(small_report.trading_days))
        for outcome in small_report.selection_log:
            assert outcome.chosen_model in small_config.model_registry
            assert set(outcome.score_table) == set(small_config.model_registry)

    def test_deterministic(self, small_series, small_config, small_report):
        again = run_backtest(small_series, small_config)
        assert again.profit_table() == small_report.profit_table()
        assert [o.chosen_model for o in again.selection_log] == [
            o.chosen_model for o in small_report.selection_log
        ]
        assert all(
            a.score_table == b.score_table
            for a, b in zip(again.selection_log, small_report.selection_log)
        )

    def test_battery_invariant_and_continuity(self, small_report):
        for ledger in small_report.ledgers.values():
            levels = [1] + [e.end_level for e in ledger.entries]
            for entry, start in zip(ledger.entries, levels):
                assert entry.start_level == start
                assert entry.end_level in (0, 1, 2)

    def test_scores_cover_all_models_and_days(self, small_report, small_config):
        days = {row.day for row in small_report.score_rows}
        assert min(days) == small_config.first_forecast_day
        models = {row.model_id for row in small_report.score_rows}
        assert models == set(small_config.model_registry)

    def test_golden_profit(self, small_report):
        # Regression pin: frozen after the first verified run of this config.
        profit = small_report.profit_table()[("pinball_all", 0.8)]
        assert profit == pytest.approx(GOLDEN_PINBALL_ALL_08, abs=1e-9)


class TestRunSingleModel:
    @pytest.mark.parametrize("recalibrate_every", [1, 4])
    def test_equivalence_with_single_model_registry(
        self, small_series, small_config, recalibrate_every
    ):
        config = replace(
            small_config, model_registry=("cp",), alphas=(0.8,),
            recalibrate_every=recalibrate_every,
        )
        full = run_backtest(small_series, config)
        single = run_single_model(small_series, config, "cp", 0.8)
        for metric in METRICS:
            ledger = full.ledgers[(metric, 0.8)]
            assert [e.cash_flow for e in ledger.entries] == [
                e.cash_flow for e in single.entries
            ]

    def test_benchmark_all_accepted(self, small_series, small_config):
        ledger = run_single_model(small_series, small_config, "benchmark", 0.8)
        assert ledger.entries
        assert all(e.bid_accepted and e.offer_accepted for e in ledger.entries)

    def test_unknown_model_rejected(self, small_series, small_config):
        with pytest.raises(ConfigError):
            run_single_model(small_series, small_config, "oracle", 0.8)


class TestNoLookAhead:
    def test_price_mutation_leaves_forecasts_unchanged(self, small_config):
        base = synth_generate(80, seed=21)
        config = replace(small_config, keep_forecasts=True)
        day = config.first_trading_day
        mutated_prices = base.prices.copy()
        mutated_prices[day] += 25.0
        mutated = type(base)(
            prices=mutated_prices, loads=base.loads, start_weekday=base.start_weekday
        )
        r1 = run_backtest(base, config)
        r2 = run_backtest(mutated, config)
        for tag in config.model_registry:
            assert np.array_equal(r1.forecasts[day][tag], r2.forecasts[day][tag])
        cash1 = [r1.ledgers[k].entries[0].cash_flow for k in r1.ledgers]
        cash2 = [r2.ledgers[k].entries[0].cash_flow for k in r2.ledgers]
        assert cash1 != cash2


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
        for key, ledger in small_report.ledgers.items():
            cash, vol = sums[key]
            assert cash / vol == pytest.approx(profit_per_mwh(ledger), abs=1e-9)


GOLDEN_PINBALL_ALL_08 = 12.049773683515937
