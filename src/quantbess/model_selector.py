"""Rolling score histories and best-model selection per ranking metric.

Pinball metrics rank by lowest average.  Coverage metrics rank by proximity
to a nominal target: alpha for coverage_all, ((1+alpha)/2)^2 for
coverage_hours (joint probability of the two trading-quantile conditions
under independence).  Ties break by registry order.

The score history is one float cube indexed [metric, alpha, model, day] over
the forecast days, with NaN for a model-day not yet scored.  The day axis is
last so that a window's scores are contiguous: the mean over it then runs the
same pairwise summation as ``np.mean`` over a plain list of those scores, and
the rolling averages in the report come out bit for bit as a per-series mean
would give them.  With the day axis first the sums are taken in another order
and differ in the last bit.
"""
from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError
from .eval_metrics import METRICS


def coverage_hours_target(alpha):
    return ((1.0 + alpha) / 2.0) ** 2


def select_best(averages, metric: str, alpha):
    """Index of the best model under the metric's ordering.

    `averages` holds rolling averages with the models, in registry order, on
    its last axis; `alpha` broadcasts against the leading axes.  Ties go to
    the earlier model.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    averages = np.asarray(averages, dtype=float)
    if averages.ndim == 0 or averages.shape[-1] == 0:
        raise ValueError("empty score table")
    if metric.startswith("pinball"):
        key = averages
    elif metric == "coverage_all":
        key = np.abs(averages - alpha)
    else:
        key = np.abs(averages - coverage_hours_target(alpha))
    return np.argmin(key, axis=-1)


class ScoreStore:
    """Append-only score cube [metric, alpha, model, day] over `days`, a
    range of consecutive days.

    Single writer (the backtest loop); reads are pure.
    """

    def __init__(self, registry_order, alphas, days):
        self.registry_order = tuple(registry_order)
        self.alphas = tuple(alphas)
        self.days = days
        self.cube = np.full(
            (len(METRICS), len(self.alphas), len(self.registry_order), len(self.days)), np.nan
        )
        self._alpha_col = np.array(self.alphas, dtype=float)[:, None]

    def add_scores(self, day: int, model: str, block) -> None:
        """Store one model-day: `block` is (n_alphas, 6), columns in METRICS order."""
        block = np.asarray(block, dtype=float)
        if block.shape != (len(self.alphas), len(METRICS)):
            raise ValueError(f"score block of shape {block.shape}; expected "
                             f"{(len(self.alphas), len(METRICS))}")
        if np.isnan(block).any():
            raise ValueError(f"{model}: NaN score for day {day}")
        if day not in self.days:
            raise ValueError(f"day {day} outside the store's days {self.days}")
        slot = self.cube[:, :, self.registry_order.index(model), day - self.days.start]
        if not np.isnan(slot).all():
            raise ValueError(f"duplicate score for {model} on day {day}")
        slot[...] = block.T

    def select(self, end_day: int, window: int):
        """Rolling means over the `window` days ending at `end_day` (inclusive)
        and the model each (metric, alpha) strategy picks from them.

        Returns (chosen, averages): registry indices of shape (6, n_alphas)
        and averages of shape (6, n_alphas, n_models).
        """
        first = end_day - window + 1
        lo, hi = first - self.days.start, end_day + 1 - self.days.start
        if lo < 0 or hi > len(self.days):
            raise InsufficientDataError(
                f"window {first}..{end_day} reaches outside the scored days "
                f"{self.days.start}..{self.days.stop - 1}"
            )
        scores = self.cube[..., lo:hi]
        missing = np.isnan(scores)
        if missing.any():
            metric, _, model, k = np.argwhere(missing)[0]
            raise InsufficientDataError(
                f"{self.registry_order[model]}/{METRICS[metric]}: missing score for day "
                f"{first + int(k)} in window ending {end_day}"
            )
        averages = scores.mean(axis=-1)
        chosen = np.stack([
            select_best(averages[i], metric, self._alpha_col)
            for i, metric in enumerate(METRICS)
        ])
        return chosen, averages
