"""Probabilistic electricity-price forecasting with a battery trading backtest."""

__version__ = "0.1.0"

from .backtest_engine import BacktestConfig, BacktestReport, run_backtest, run_single_model
from .market_data import MarketSeries, ingest_csv, synth_generate

__all__ = [
    "BacktestConfig",
    "BacktestReport",
    "MarketSeries",
    "ingest_csv",
    "run_backtest",
    "run_single_model",
    "synth_generate",
    "__version__",
]
