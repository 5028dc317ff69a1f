"""Rolling three-window backtest: calibrate, forecast, score, select, trade.

Timeline for day indices (0-based), with defaults 364/182/30:

* day >= 7 + point_window                     -- point-model pool forecasts
* day >= ... + prob_window                    -- probabilistic forecasts & scores
* day >= ... + metric_window + 1              -- trading (selection needs a full
  score window ending the previous day)

One private day loop runs both entry points.  `run_backtest` gives it a
score store: it forecasts and scores from the first forecast day and selects
a model per metric and alpha each trading day.  `run_single_model` gives it
none: it forecasts from the first trading day, and an empty registry (the
"benchmark" model) trades the price taker.  Point forecasts start at the
first day the first forecast day reads, in one (day, variant, hour) array of
which the primary forecast is a view; it holds the whole pool only when a
method outside `prob_models.OFFSET_METHODS` reads it.  The loop owns the
series' point-model design tensor: it builds it and frees it on return.

Every forecast day d recalibrates each method on days d - prob_window ..
d - 1, warm-started from the previous day's contexts (qra's betas, sqra's
Newton start).  Forecasts for day d use only data through day d-1 plus day
d's load forecast; scores for day d are added after day d has been traded,
so selection never sees same-day information.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, replace

import numpy as np

from . import bess_trading, eval_metrics, point_model, prob_models
from .bess_trading import TradeLedger
from .errors import BacktestStageError, ConfigError, QuantbessError
from .eval_metrics import DEFAULT_ALPHAS, METRICS
from .market_data import MarketSeries, _labels_along, _write_csv
from .model_selector import ScoreStore
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
        pool = tuple(self.pool_window_lengths)
        short = sorted({w for w in pool if w < point_model.MIN_CALIBRATION_DAYS})
        if short:
            out.append(f"pool window(s) {short} below minimum "
                       f"{point_model.MIN_CALIBRATION_DAYS}")
        repeated = sorted({w for w in pool if pool.count(w) > 1})
        if repeated:
            out.append(f"pool window(s) {repeated} given more than once")
        if not pool:
            out.append("pool_window_lengths must be non-empty")
        elif self.point_window not in pool:
            out.append("point_window must be one of pool_window_lengths "
                       "(it provides the primary point forecast)")
        elif self.point_window < max(pool):
            out.append("point_window must cover the longest pool window")
        if not self.model_registry:
            out.append("model_registry must be non-empty")
        repeated = sorted({t for t in self.model_registry if self.model_registry.count(t) > 1})
        if repeated:
            out.append(f"model tag(s) {repeated} given more than once")
        for tag in self.model_registry:
            try:
                get_calibrator(tag)
            except KeyError:
                out.append(f"unknown model tag {tag!r}")
        if not self.alphas:
            out.append("alphas must be non-empty")
        repeated = sorted({a for a in self.alphas if self.alphas.count(a) > 1})
        if repeated:
            out.append(f"alpha(s) {repeated} given more than once")
        for alpha in self.alphas:
            try:
                eval_metrics.alpha_quantiles(alpha)
            except ValueError as exc:
                out.append(str(exc))
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


def _stage(day, stage, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except QuantbessError as exc:
        raise BacktestStageError(day, stage, exc) from exc


def _calibrate(series, config, registry, d, primary, pool, previous) -> dict:
    """Each method of `registry`, in order, calibrated for day d from
    `previous`, the previous day's contexts, and the forecasts of the
    `prob_window` days before it: `primary` (days, 24) and `pool`
    (days, variants, 24)."""
    window = slice(d - config.prob_window, d)
    contexts = {}
    inputs = CalibrationInputs(
        errors=ErrorSample((series.prices[window] - primary).reshape(-1)),
        # F-ordered (hours, variants): on a C-ordered copy sqra's fit moves in the last bits
        pool=pool.transpose(1, 0, 2).reshape(pool.shape[1], -1).T,
        prices=series.prices[window].reshape(-1),
        contexts=contexts,
        previous=previous,
    )
    for tag in registry:
        contexts[tag] = _stage(d, f"calibrate:{tag}", get_calibrator(tag), inputs)
    return contexts


def _day_loop(series: MarketSeries, config: BacktestConfig, registry: tuple, store=None):
    """Trade every trading day with `registry`'s models; an empty registry
    trades the price taker.  With a `store`, days are forecast and scored from
    the first forecast day and each metric x alpha trades its selected model;
    without one, forecasts start at the first trading day and every alpha
    trades the registry's first model.  Returns the ledger, the selections
    and their averages (None without a store).

    The ledger, selections and averages are allocated once with a row per
    trading day; each day's settlement and selection is copied into its row
    and dropped, so nothing per day outlives the day.  The point forecasts
    fill one array with a row per day from the loop's first day.
    """
    first = config.first_forecast_day if store is not None else config.first_trading_day
    start = first - config.prob_window if registry else first
    reads_pool = not set(registry) <= set(prob_models.OFFSET_METHODS)
    variants = tuple(config.pool_window_lengths) if reads_pool else (config.point_window,)
    pool = np.empty((series.n_days - start, len(variants), 24))
    primary = pool[:, variants.index(config.point_window)]
    contexts = {}
    # with a store, strategies run metric-major, alpha-minor, as chosen.ravel() does
    alphas = tuple(config.alphas) * (len(METRICS) if store is not None else 1)
    model = np.zeros(len(alphas), dtype=int)
    level = np.ones(len(alphas), dtype=int)
    trading_days = range(config.first_trading_day, series.n_days)
    ledger = TradeLedger.empty(len(trading_days), len(alphas))
    chosen = averages = None
    if store is not None:
        selections = (len(trading_days), len(METRICS), len(config.alphas))
        chosen = np.empty(selections, dtype=int)
        averages = np.empty(selections + (len(registry),))

    # after the arrays that outlive the loop, so the heap space it frees is at the top
    tensor = point_model.design_tensor(series)

    for d in range(start, series.n_days):
        i = d - start
        pool[i] = _stage(d, "point-pool", point_model.forecast_pool,
                         tensor, d, config.pool_window_lengths, variants)[0].values
        if d < first:
            continue

        if registry:
            window = slice(i - config.prob_window, i)
            contexts = _calibrate(series, config, registry, d, primary[window],
                                  pool[window], contexts)
            matrices = [
                _stage(d, f"forecast:{tag}", prob_models.quantile_matrix,
                       contexts[tag], primary[i], pool[i])
                for tag in registry
            ]
            hours = [bess_trading.choose_hours(qf[:, MEDIAN_INDEX]) for qf in matrices]

        # Trade day d before its realized prices influence anything.
        if d in trading_days:
            row = d - trading_days.start
            if not registry:
                orders = _stage(d, "orders", bess_trading.benchmark_orders, primary[i])
            else:
                if store is not None:
                    chosen[row], averages[row] = _stage(
                        d, "select", store.select, d - 1, config.metric_window
                    )
                    model = chosen[row].ravel()
                orders = _stage(d, "orders", bess_trading.build_orders,
                                matrices, hours, model, alphas, level)
            settled = _stage(d, "settle", bess_trading.settle, orders, series.prices[d], level, d)
            for name in bess_trading.LEDGER_COLUMNS:
                getattr(ledger, name)[row] = getattr(settled, name)[0]
            level = ledger.end_level[row]

        # Score day d once trading is done.
        if store is not None:
            for tag, qf, hrs in zip(registry, matrices, hours):
                store.add_scores(d, tag, eval_metrics.daily_scores(
                    qf, series.prices[d], hrs, config.alphas
                ))

    return ledger, chosen, averages


def run_backtest(series: MarketSeries, config: BacktestConfig | None = None) -> BacktestReport:
    """Full experiment: all models, all metrics, all alphas; deterministic."""
    config = config or BacktestConfig()
    config.validate(series.n_days)
    store = ScoreStore(
        config.model_registry, config.alphas, range(config.first_forecast_day, series.n_days)
    )
    ledger, chosen, averages = _day_loop(series, config, config.model_registry, store)
    return BacktestReport(
        config=config, n_days=series.n_days, ledger=ledger, store=store,
        chosen=chosen, averages=averages,
    )


def run_single_model(
    series: MarketSeries, config: BacktestConfig, model: str, alpha: float
) -> TradeLedger:
    """Trade every out-of-sample day with one fixed model (no selection);
    the ledger holds one strategy.  `model` may also be "benchmark": the
    price taker, at the extremes of the primary point forecast.  Nothing is
    scored, so point forecasts start at the first trading day for the
    benchmark, else at the first day of that day's calibration window.
    """
    config = replace(config, alphas=(alpha,))
    registry = () if model == "benchmark" else (model,)
    if registry:
        config = replace(config, model_registry=registry)
    config.validate(series.n_days)
    return _day_loop(series, config, registry)[0]


# ---------------------------------------------------------------------------
# Report bundle export
# ---------------------------------------------------------------------------

PROFITS_FILE = "profits_by_metric.csv"
SELECTION_FILE = "selection_log.csv"
METRICS_FILE = "metric_table.csv"
LEDGERS_FILE = "ledgers.csv"


def write_report(report: BacktestReport, outdir) -> list:
    """Write the CSV bundle; returns the written file paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, name)
             for name in (PROFITS_FILE, SELECTION_FILE, METRICS_FILE, LEDGERS_FILE)]
    config, store = report.config, report.store
    models, alphas = config.model_registry, config.alphas

    # rows [alpha][metric]; the ledger's strategies run metric-major
    profits = bess_trading.profit_per_mwh(report.ledger).reshape(len(METRICS), -1).T
    _write_csv(paths[0], ["alpha", "metric", "profit_per_mwh"], profits.shape,
               [_labels_along(alphas, 0, 2), _labels_along(METRICS, 1, 2), profits])

    # rows [trading day][metric][alpha]
    _write_csv(
        paths[1], ["day", "metric", "alpha", "chosen_model", *[f"avg_{m}" for m in models]],
        report.chosen.shape,
        [_labels_along(report.trading_days, 0, 3), _labels_along(METRICS, 1, 3),
         _labels_along(alphas, 2, 3), (report.chosen, models),
         *np.moveaxis(report.averages, -1, 0)],
    )

    # cube [metric, alpha, model, day] -> rows [day][model][alpha]
    cube = store.cube.transpose(3, 2, 1, 0)
    _write_csv(
        paths[2], ["day", "model_id", "alpha", *METRICS], cube.shape[:3],
        [_labels_along(store.days, 0, 3), _labels_along(store.registry_order, 1, 3),
         _labels_along(store.alphas, 2, 3), *np.moveaxis(cube, -1, 0)],
    )

    # rows [strategy][trading day]
    strategies = report.strategies
    _write_csv(
        paths[3], ["metric", "alpha", *bess_trading.LEDGER_COLUMNS], report.ledger.day.T.shape,
        [_labels_along([metric for metric, _ in strategies], 0, 2),
         _labels_along([alpha for _, alpha in strategies], 0, 2),
         *bess_trading.ledger_columns(report.ledger)],
    )
    return paths
