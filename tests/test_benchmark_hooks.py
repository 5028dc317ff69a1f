"""Every name the benchmark's tracer wraps must exist on the package.

The tracer replaces these attributes at run time; a renamed or deleted one
makes `benchmark/run.py --trace 1` fail.  The tracer's tables are read from
its source without importing it.
"""
import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from quantbess import point_model

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _tables() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "COUNTERS")
    }


HOOKS = [hook for table in _tables().values() for hook in table]


def test_tracer_tables_found():
    assert set(_tables()) == {"SPANS", "COUNTERS"}
    assert HOOKS


@pytest.mark.parametrize("module_name, attr", HOOKS, ids=[f"{m}.{a}" for m, a in HOOKS])
def test_hook_resolves(module_name, attr):
    owner = importlib.import_module(f"quantbess.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


TINY_CONFIG = """\
point_window = 56
prob_window = 8
metric_window = 5
alphas = 0.5, 0.8
pool_window_lengths = 30, 56
model_registry = hs, cp
"""


#: Spans that only one of the two commands below reaches.
BACKTEST_ONLY = {
    "backtest_engine.run_backtest", "backtest_engine.write_report",
    "model_selector.ScoreStore.select", "model_selector.ScoreStore.add_scores",
    "bess_trading.build_orders",
}
SINGLE_ONLY = {
    "backtest_engine.run_single_model", "bess_trading.benchmark_orders",
    "bess_trading.export_ledger",
}


def test_every_span_is_called(tmp_path, monkeypatch):
    """A hook the program no longer calls through its module attribute would
    read 0 in the benchmark's per-layer metrics: count the calls of every
    span on a tiny `quantbess backtest` and `quantbess single --model benchmark`.
    Neither reads the pool's 30-day variant, so neither solves it."""
    from quantbess import cli, market_data

    data, config = tmp_path / "series.csv", tmp_path / "tiny.cfg"
    market_data.export_csv(market_data.synth_generate(84, seed=3), data)
    config.write_text(TINY_CONFIG)

    calls, solved = {}, []

    def keep_variants(fn):
        def solving(*args, **kwargs):
            pool, failures = fn(*args, **kwargs)
            solved.append(pool.window_lengths)
            return pool, failures
        return solving

    monkeypatch.setattr(point_model, "forecast_pool", keep_variants(point_model.forecast_pool))
    for module_name, attr in _tables()["SPANS"]:
        owner = importlib.import_module(f"quantbess.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        name = f"{module_name}.{attr}"
        calls[name] = 0

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, leaf, counted)
    assert BACKTEST_ONLY | SINGLE_ONLY < set(calls)

    common = ["--data", str(data), "--config", str(config)]
    assert cli.main(["backtest", *common, "--output", str(tmp_path / "report")]) == 0
    assert {name for name, n in calls.items() if n == 0} == SINGLE_ONLY
    # one order step per trading day, for all strategies at once
    assert calls["bess_trading.build_orders"] == calls["model_selector.ScoreStore.select"]
    assert calls["bess_trading.settle"] == calls["model_selector.ScoreStore.select"]
    # hs and cp read only the primary (56-day) variant, from day 63 on
    assert solved == [(56,)] * (84 - 63)

    calls.update(dict.fromkeys(calls, 0))
    solved.clear()
    assert cli.main(["single", *common, "--model", "benchmark",
                     "--output", str(tmp_path / "ledger.csv")]) == 0
    assert {name for name, n in calls.items() if n == 0} == BACKTEST_ONLY
    # one primary forecast per trading day, days 77-83
    assert calls["point_model.forecast_pool"] == calls["bess_trading.settle"] == 84 - 77
    assert solved == [(56,)] * (84 - 77)


def test_qra_fallback_counted_through_module_attribute(monkeypatch):
    """The tracer counts simplex fallbacks by replacing `prob_models.qra_fit`;
    the grid must reach the fallback through that attribute.  Duplicated pool
    columns make every basis singular, so each quantile falls back."""
    from quantbess import prob_models

    calls = []
    original = prob_models.qra_fit

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(prob_models, "qra_fit", counted)
    x = np.random.default_rng(7).normal(50, 10, 120)
    qs = [0.1, 0.5, 0.9]
    prob_models.qra_fit_grid(np.column_stack([x, x]), 0.8 * x + np.sin(x), qs)
    assert calls == qs
