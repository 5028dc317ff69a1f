import numpy as np
import pytest

from recorder import recorded_forecasts
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
def small_run(small_series, small_config):
    """The small config's backtest and the quantile matrices it built, as
    day -> {method: (24, 99)}."""
    with recorded_forecasts() as forecasts:
        report = run_backtest(small_series, small_config)
    return report, forecasts


@pytest.fixture(scope="session")
def small_report(small_run):
    return small_run[0]


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
