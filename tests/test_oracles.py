"""`oracles.py` stays an independent check of the package.

An oracle that called `daily_scores`, `design_tensor` or `alpha_quantiles`
would agree with the code it checks by construction.  So the oracles may
import from `quantbess` only constants (upper-case names bound to values),
`MarketSeries` and the error classes.
"""
import ast
import importlib
from pathlib import Path

import pytest

ORACLES = Path(__file__).with_name("oracles.py")

#: Package names the oracles may import besides constants and error classes.
ALLOWED = {("quantbess.market_data", "MarketSeries")}


def _allowed(module: str, name: str) -> bool:
    if (module, name) in ALLOWED:
        return True
    value = getattr(importlib.import_module(module), name, None)
    if isinstance(value, type) and issubclass(value, Exception):
        return value.__module__ == "quantbess.errors"
    public_constant = name.isupper() and not name.startswith("_")
    return public_constant and value is not None and not callable(value)


def _violations(source: str) -> list:
    """Names that `source` imports from `quantbess` against the rule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "quantbess"]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] == "quantbess":
                found += [f"{node.module}.{a.name}" for a in node.names
                          if not _allowed(node.module, a.name)]
    return found


def test_oracles_import_only_constants_and_types():
    assert _violations(ORACLES.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "from quantbess.eval_metrics import daily_scores",
    "from quantbess.eval_metrics import alpha_quantiles",
    "from quantbess.point_model import design_tensor",
    "from quantbess.prob_models import MethodContext",
    "from quantbess import prob_models",
    "import quantbess.eval_metrics",
    "from quantbess.eval_metrics import METRICS, _pi_columns",
    "from quantbess.prob_models import _CALIBRATORS",
])
def test_rule_rejects_code_under_test(source):
    assert _violations(source)


def test_rule_accepts_constants_series_and_errors():
    assert _violations(
        "from quantbess.eval_metrics import METRICS, DEFAULT_ALPHAS\n"
        "from quantbess.prob_models import QUANTILE_GRID, MEDIAN_INDEX\n"
        "from quantbess.market_data import MarketSeries\n"
        "from quantbess.errors import InsufficientDataError, FitError\n"
        "import numpy as np\n"
    ) == []
