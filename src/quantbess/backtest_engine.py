"""Rolling three-window backtest: calibrate, forecast, score, select, trade.

Timeline for day indices (0-based), with defaults 364/182/30:

* day >= 7 + point_window                     -- point-model pool forecasts
* day >= ... + prob_window                    -- probabilistic forecasts & scores
* day >= ... + metric_window + 1              -- trading (selection needs a full
  score window ending the previous day)

Forecasts for day d use only data through day d-1 plus day d's load forecast;
scores for day d are added after day d has been traded, so selection never
sees same-day information.
"""
from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, replace

import numpy as np

from . import bess_trading, eval_metrics, point_model, prob_models
from .bess_trading import TradeLedger
from .errors import BacktestStageError, ConfigError, QuantbessError
from .eval_metrics import DEFAULT_ALPHAS, METRICS
from .market_data import MarketSeries
from .model_selector import COVERAGE_MODES, ScoreStore
from .point_model import DEFAULT_POOL_WINDOWS, FEATURE_LAG
from .prob_models import CalibrationInputs, ErrorSample, MEDIAN_INDEX, get_calibrator


@dataclass(frozen=True)
class BacktestConfig:
    """Full experiment configuration; every field has a sensible default."""

    point_window: int = 364
    prob_window: int = 182
    metric_window: int = 30
    alphas: tuple = DEFAULT_ALPHAS
    model_registry: tuple = prob_models.METHODS
    pool_window_lengths: tuple = DEFAULT_POOL_WINDOWS
    coverage_mode: str = "target"
    forced_sell_mode: str = "before_h2"
    recalibrate_every: int = 1
    bandwidth: float | None = None
    keep_forecasts: bool = False

    @property
    def first_point_day(self) -> int:
        return FEATURE_LAG + self.point_window

    @property
    def first_forecast_day(self) -> int:
        return self.first_point_day + self.prob_window

    @property
    def first_trading_day(self) -> int:
        return self.first_forecast_day + self.metric_window + 1

    def problems(self, n_days: int | None = None) -> list:
        out = []
        if self.point_window < point_model.MIN_CALIBRATION_DAYS:
            out.append(f"point_window {self.point_window} below minimum "
                       f"{point_model.MIN_CALIBRATION_DAYS}")
        if self.prob_window * 24 < prob_models.MIN_ERROR_SAMPLE:
            out.append(f"prob_window {self.prob_window} leaves fewer than "
                       f"{prob_models.MIN_ERROR_SAMPLE} residuals")
        if self.metric_window < 1:
            out.append("metric_window must be >= 1")
        if not self.pool_window_lengths:
            out.append("pool_window_lengths must be non-empty")
        elif self.point_window not in self.pool_window_lengths:
            out.append("point_window must be one of pool_window_lengths "
                       "(it provides the primary point forecast)")
        elif self.point_window < max(self.pool_window_lengths):
            out.append("point_window must cover the longest pool window")
        if not self.model_registry:
            out.append("model_registry must be non-empty")
        for tag in self.model_registry:
            try:
                get_calibrator(tag)
            except KeyError:
                out.append(f"unknown model tag {tag!r}")
        for alpha in self.alphas:
            try:
                eval_metrics.alpha_quantiles(alpha)
            except ValueError:
                out.append(f"alpha {alpha} does not land on the 1% quantile grid")
        if self.coverage_mode not in COVERAGE_MODES:
            out.append(f"coverage_mode must be one of {COVERAGE_MODES}")
        if self.forced_sell_mode not in bess_trading.FORCED_SELL_MODES:
            out.append(f"forced_sell_mode must be one of {bess_trading.FORCED_SELL_MODES}")
        if self.recalibrate_every < 1:
            out.append("recalibrate_every must be >= 1")
        if self.bandwidth is not None and self.bandwidth <= 0:
            out.append("bandwidth must be positive when given")
        if n_days is not None and not out and self.first_trading_day >= n_days:
            out.append(
                f"dataset of {n_days} days too short: warm-up needs "
                f"{self.first_trading_day} days plus at least one trading day"
            )
        return out

    def validate(self, n_days: int | None = None) -> None:
        problems = self.problems(n_days)
        if problems:
            raise ConfigError(problems)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class BacktestReport:
    """Everything a run produced, ready for export or inspection."""

    config: BacktestConfig
    n_days: int
    ledger: TradeLedger                # (trading day, strategy), strategies as `strategies`
    store: ScoreStore                  # every forecast day's scores
    chosen: np.ndarray                 # (trading day, metric, alpha) -> registry index
    averages: np.ndarray               # (trading day, metric, alpha, model) rolling means
    forecasts: dict | None = None      # day -> {model: (24, 99)} when kept

    @property
    def first_trading_day(self) -> int:
        return self.config.first_trading_day

    @property
    def trading_days(self) -> range:
        return range(self.config.first_trading_day, self.n_days)

    @property
    def strategies(self) -> list:
        """(metric, alpha) of each ledger strategy: metric-major, alpha-minor,
        the order of `chosen[d].ravel()`."""
        return [(metric, alpha) for metric in METRICS for alpha in self.config.alphas]

    def profit_table(self) -> dict:
        return dict(zip(self.strategies, bess_trading.profit_per_mwh(self.ledger).tolist()))


def _stage(day, stage, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except QuantbessError as exc:
        raise BacktestStageError(day, stage, exc) from exc


class _ForecastPipeline:
    """Shared per-day machinery: pool forecasts, residuals, model contexts."""

    def __init__(self, series: MarketSeries, config: BacktestConfig):
        self.series = series
        self.config = config
        self.pool_hist = {}     # day -> (n_var, 24)
        self.primary_hist = {}  # day -> (24,)
        self._contexts = None
        self._calib_day = None

    def advance_point(self, d: int) -> None:
        pool, failures = _stage(
            d, "point-pool", point_model.forecast_pool,
            self.series, d, self.config.pool_window_lengths,
        )
        if failures:
            raise BacktestStageError(
                d, "point-pool", f"pool variants failed: {sorted(failures)}"
            )
        self.pool_hist[d] = pool.values
        self.primary_hist[d] = pool.variant(self.config.point_window)

    def contexts_for(self, d: int) -> dict:
        """Model contexts for day d, calibrated on the window of the last day
        on the schedule that recalibrates every `recalibrate_every` days from
        the first forecast day, whichever day the caller starts at."""
        calib_day = d - (d - self.config.first_forecast_day) % self.config.recalibrate_every
        if calib_day == self._calib_day:
            return self._contexts
        window_days = range(calib_day - self.config.prob_window, calib_day)
        residuals = np.concatenate([
            self.series.prices[t] - self.primary_hist[t] for t in window_days
        ])
        pool_X = np.vstack([self.pool_hist[t].T for t in window_days])
        realized = self.series.prices[window_days.start : calib_day].reshape(-1)
        inputs = CalibrationInputs(
            errors=ErrorSample(residuals),
            pool=pool_X,
            prices=realized,
            bandwidth=self.config.bandwidth,
            previous=self._contexts or {},
        )
        contexts = {}
        for tag in self.config.model_registry:
            inputs.contexts = contexts
            contexts[tag] = _stage(d, f"calibrate:{tag}", get_calibrator(tag), inputs)
        self._contexts = contexts
        self._calib_day = calib_day
        return contexts

    def forecast_day(self, d: int) -> tuple[list, list]:
        """Per model for day d, in registry order: the (24, 99) quantile
        matrix and the trading hours."""
        contexts = self.contexts_for(d)
        matrices = [
            _stage(
                d, f"forecast:{tag}", prob_models.quantile_matrix,
                contexts[tag], self.primary_hist[d], self.pool_hist[d],
            )
            for tag in self.config.model_registry
        ]
        return matrices, [bess_trading.choose_hours(qf[:, MEDIAN_INDEX]) for qf in matrices]


def run_backtest(series: MarketSeries, config: BacktestConfig | None = None) -> BacktestReport:
    """Full experiment: all models, all metrics, all alphas; deterministic."""
    config = config or BacktestConfig()
    config.validate(series.n_days)

    pipeline = _ForecastPipeline(series, config)
    registry = config.model_registry
    store = ScoreStore(registry, config.alphas, range(config.first_forecast_day, series.n_days))
    # strategies run metric-major, alpha-minor, as chosen.ravel() does
    alphas = tuple(config.alphas) * len(METRICS)
    level = np.ones(len(alphas), dtype=int)
    days, chosen_log, averages_log = [], [], []
    forecasts = {} if config.keep_forecasts else None

    for d in range(config.first_point_day, series.n_days):
        pipeline.advance_point(d)
        if d < config.first_forecast_day:
            continue
        matrices, hours = pipeline.forecast_day(d)
        if forecasts is not None:
            forecasts[d] = dict(zip(registry, matrices))

        # Trade day d before its realized prices influence anything.
        if d >= config.first_trading_day:
            chosen, averages = _stage(
                d, "select", store.select, d - 1, config.metric_window, config.coverage_mode,
            )
            chosen_log.append(chosen)
            averages_log.append(averages)
            orders = _stage(
                d, "orders", bess_trading.build_orders,
                matrices, hours, chosen.ravel(), alphas, level, config.forced_sell_mode,
            )
            days.append(_stage(d, "settle", bess_trading.settle, orders, series.prices[d], level, d))
            level = days[-1].end_level[0]

        # Score day d once trading is done.
        for tag, qf, hrs in zip(registry, matrices, hours):
            store.add_scores(d, tag, eval_metrics.daily_scores(
                qf, series.prices[d], hrs, config.alphas
            ))

    return BacktestReport(
        config=config,
        n_days=series.n_days,
        ledger=TradeLedger.stack(days),
        store=store,
        chosen=np.array(chosen_log),
        averages=np.array(averages_log),
        forecasts=forecasts,
    )


def run_single_model(
    series: MarketSeries,
    config: BacktestConfig | None = None,
    model: str = "hs",
    alpha: float = 0.8,
) -> TradeLedger:
    """Trade every out-of-sample day with one fixed model (no selection);
    the ledger holds one strategy.

    `model` may also be "benchmark": price-taker orders at the extremes of
    the primary point forecast.  The day loop is run_backtest's without
    scoring, so no forecasts are made for the score warm-up days.
    """
    config = replace(config or BacktestConfig(), alphas=(alpha,))
    if model != "benchmark":
        config = replace(config, model_registry=(model,))
    config.validate(series.n_days)

    pipeline = _ForecastPipeline(series, config)
    level = np.ones(1, dtype=int)
    days = []

    for d in range(config.first_point_day, series.n_days):
        pipeline.advance_point(d)
        if d < config.first_trading_day:
            continue
        if model == "benchmark":
            orders = bess_trading.benchmark_orders(pipeline.primary_hist[d])
        else:
            matrices, hours = pipeline.forecast_day(d)
            orders = _stage(
                d, "orders", bess_trading.build_orders,
                matrices, hours, [0], config.alphas, level, config.forced_sell_mode,
            )
        days.append(_stage(d, "settle", bess_trading.settle, orders, series.prices[d], level, d))
        level = days[-1].end_level[0]
    return TradeLedger.stack(days)


# ---------------------------------------------------------------------------
# Report bundle export
# ---------------------------------------------------------------------------

PROFITS_FILE = "profits_by_metric.csv"
SELECTION_FILE = "selection_log.csv"
METRICS_FILE = "metric_table.csv"
LEDGERS_FILE = "ledgers.csv"


def write_report(report: BacktestReport, outdir) -> list:
    """Write the CSV bundle; returns the written file paths."""
    import os

    os.makedirs(outdir, exist_ok=True)
    paths = []

    path = os.path.join(outdir, PROFITS_FILE)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "metric", "profit_per_mwh"])
        profits = report.profit_table()
        for alpha in report.config.alphas:
            for metric in METRICS:
                writer.writerow([alpha, metric, repr(float(profits[(metric, alpha)]))])
    paths.append(path)

    path = os.path.join(outdir, SELECTION_FILE)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        config = report.config
        models = config.model_registry
        writer.writerow(["day", "metric", "alpha", "chosen_model",
                         *[f"avg_{m}" for m in models]])
        for d, chosen, averages in zip(
            report.trading_days, report.chosen.tolist(), report.averages.tolist()
        ):
            for i, metric in enumerate(METRICS):
                for j, alpha in enumerate(config.alphas):
                    writer.writerow([d, metric, alpha, models[chosen[i][j]],
                                     *map(repr, averages[i][j])])
    paths.append(path)

    path = os.path.join(outdir, METRICS_FILE)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "model_id", "alpha", *METRICS])
        store = report.store
        # cube [metric, alpha, model, day] -> rows [day][model][alpha]
        for d, per_model in zip(store.days, store.cube.transpose(3, 2, 1, 0).tolist()):
            for model, per_alpha in zip(store.registry_order, per_model):
                for alpha, scores in zip(store.alphas, per_alpha):
                    writer.writerow([d, model, alpha, *map(repr, scores)])
    paths.append(path)

    path = os.path.join(outdir, LEDGERS_FILE)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "alpha", *bess_trading.LEDGER_COLUMNS])
        for k, (metric, alpha) in enumerate(report.strategies):
            for row in bess_trading.ledger_rows(report.ledger, k):
                writer.writerow([metric, alpha, *row])
    paths.append(path)

    return paths
