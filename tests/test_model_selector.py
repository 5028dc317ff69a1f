import numpy as np
import pytest

from quantbess.errors import InsufficientDataError
from quantbess.eval_metrics import METRICS
from quantbess.model_selector import ScoreStore, coverage_hours_target, select_best

WINDOW = 30


def _block(pinball=1.0, coverage=0.8, n_alphas=1):
    """(n_alphas, 6) score block: every pinball column holds `pinball`."""
    row = [pinball] * 4 + [coverage, 1.0]
    return np.tile(row, (n_alphas, 1))


def _series(values, start_day=0, n_days=None):
    """One-model, one-alpha store scored on consecutive days from start_day."""
    n_days = len(values) if n_days is None else n_days
    store = ScoreStore(["m"], [0.8], range(start_day, start_day + n_days))
    for offset, value in enumerate(values):
        store.add_scores(start_day + offset, "m", _block(pinball=value))
    return store


def _average(store, end_day, window=WINDOW):
    _, averages = store.select(end_day, window, "target")
    return averages[METRICS.index("pinball_all"), 0, 0]


class TestRollingAverage:
    def test_constant_scores(self):
        assert _average(_series([3.25] * 40), end_day=39) == 3.25

    def test_arithmetic_sequence(self):
        assert _average(_series(range(1, 31)), end_day=29) == 15.5

    def test_brute_force(self, rng):
        values = rng.normal(0, 1, 60)
        store = _series(values)
        for end in (29, 40, 59):
            # bit for bit the mean of a plain list of the window's scores
            expected = np.mean([float(v) for v in values[end - 29 : end + 1]])
            assert _average(store, end) == expected

    def test_missing_day_rejected(self):
        with pytest.raises(InsufficientDataError):
            _average(_series(range(20)), end_day=19)
        store = _series(range(10), n_days=30)
        for day in range(11, 30):
            store.add_scores(day, "m", _block())
        with pytest.raises(InsufficientDataError, match="m/pinball_all: missing score for day 10"):
            _average(store, end_day=29)

    def test_custom_window(self):
        assert _average(_series([1.0, 2.0, 3.0, 4.0]), end_day=3, window=2) == 3.5

    def test_duplicate_day_rejected(self):
        store = _series([1.0])
        with pytest.raises(ValueError):
            store.add_scores(0, "m", _block(pinball=2.0))


class TestSelectBest:
    def test_pinball_argmin(self):
        assert select_best([1.0, 0.5], "pinball_all", 0.8, "target") == 1

    def test_coverage_all_closest_to_nominal(self):
        assert select_best([0.95, 0.89], "coverage_all", 0.9, "target") == 1
        # one row per alpha: each row ranks against its own nominal level
        averages = np.array([[0.95, 0.89], [0.95, 0.89]])
        alphas = np.array([[0.9], [0.96]])
        assert select_best(averages, "coverage_all", alphas, "target").tolist() == [1, 0]

    def test_tie_breaks_by_registry_order(self):
        assert select_best([1.0, 1.0], "pinball_buy", 0.8, "target") == 0
        assert select_best([2.0, 0.5, 0.5], "pinball_buy", 0.8, "target") == 1

    def test_coverage_hours_target(self):
        alpha = 0.8
        target = coverage_hours_target(alpha)
        assert target == pytest.approx(0.81)
        averages = [0.95, 0.80]
        assert select_best(averages, "coverage_hours", alpha, "target") == 1
        assert select_best(averages, "coverage_hours", alpha, "maximize") == 0

    def test_constant_shift_invariance(self, rng):
        averages = rng.uniform(0, 5, 5)
        for metric in ("pinball_all", "pinball_sell"):
            shifted = select_best(averages + 17.0, metric, 0.8, "target")
            assert select_best(averages, metric, 0.8, "target") == shifted

    def test_errors(self):
        with pytest.raises(ValueError):
            select_best([], "pinball_all", 0.8, "target")
        with pytest.raises(ValueError):
            select_best([1.0], "sharpe", 0.8, "target")
        with pytest.raises(ValueError):
            select_best([1.0], "coverage_hours", 0.8, "middle")


class TestScoreStore:
    def test_round_trip_selection(self):
        store = ScoreStore(["good", "bad"], [0.8], range(WINDOW))
        for day in range(WINDOW):
            store.add_scores(day, "good", _block(pinball=0.5))
            store.add_scores(day, "bad", _block(pinball=2.0))
        chosen, averages = store.select(WINDOW - 1, WINDOW, "target")
        assert chosen.shape == (len(METRICS), 1)
        assert averages.shape == (len(METRICS), 1, 2)
        i = METRICS.index("pinball_all")
        assert chosen[i, 0] == 0
        assert averages[i, 0].tolist() == [0.5, 2.0]

    def test_duplicate_day_guarded(self):
        store = ScoreStore(["m"], [0.8], range(1))
        store.add_scores(0, "m", _block())
        with pytest.raises(ValueError):
            store.add_scores(0, "m", _block())

    def test_averages_window(self):
        store = _series([float(day) for day in range(10)])
        assert _average(store, end_day=9, window=4) == pytest.approx(np.mean([6, 7, 8, 9]))

    def test_selection_deterministic(self):
        chosen_models = []
        for registry in (["a", "b"], ["b", "a"]):
            store = ScoreStore(registry, [0.8], range(5))
            for day in range(5):
                store.add_scores(day, "a", _block(pinball=1.0))
                store.add_scores(day, "b", _block(pinball=1.0))
            chosen, _ = store.select(4, 5, "target")
            chosen_models.append(registry[chosen[METRICS.index("pinball_all"), 0]])
        # exact tie: the registry order decides
        assert chosen_models == ["a", "b"]
