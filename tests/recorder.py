"""Record the quantile matrices a backtest builds, without the engine keeping them.

The day loop looks up `point_model.forecast_pool` and
`prob_models.quantile_matrix` at call time, so replacing both inside a block
sees every call: the pool call notes the day, and each matrix built after it
is kept under that day and the method's tag.
"""
import contextlib

import pytest

from quantbess import point_model, prob_models


@contextlib.contextmanager
def recorded_forecasts():
    """Within the block, a dict day -> {method: (24, 99) matrix} of every
    quantile matrix the backtest builds."""
    forecast_pool, quantile_matrix = point_model.forecast_pool, prob_models.quantile_matrix
    forecasts, day = {}, [None]

    def noting_day(tensor, d, *args, **kwargs):
        day[0] = d
        return forecast_pool(tensor, d, *args, **kwargs)

    def keeping_matrix(ctx, *args, **kwargs):
        qf = quantile_matrix(ctx, *args, **kwargs)
        forecasts.setdefault(day[0], {})[ctx.method] = qf
        return qf

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(point_model, "forecast_pool", noting_day)
        patch.setattr(prob_models, "quantile_matrix", keeping_matrix)
        yield forecasts
