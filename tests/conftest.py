from dataclasses import replace

import numpy as np
import pytest

from quantbess.backtest_engine import BacktestConfig, run_backtest
from quantbess.market_data import synth_generate


@pytest.fixture(scope="session")
def small_series():
    """90 synthetic days, enough for the small backtest config."""
    return synth_generate(90, seed=11, regime="low")


@pytest.fixture(scope="session")
def small_config():
    """Config sized for fast engine tests (13 trading days on 90 days)."""
    return BacktestConfig(
        point_window=56,
        prob_window=8,
        metric_window=5,
        alphas=(0.5, 0.8, 0.98),
        pool_window_lengths=(30, 56),
    )


@pytest.fixture(scope="session")
def small_report(small_series, small_config):
    """The small config's backtest, with its quantile matrices kept."""
    return run_backtest(small_series, replace(small_config, keep_forecasts=True))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
