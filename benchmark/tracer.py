"""Spans and counters around the calls into each `quantbess` module.

The tracer changes no file of the program.  `install` replaces module
attributes with timing wrappers; calibrators are swapped through the
program's own `register_method`/`get_calibrator`.  The engine looks these
names up at call time, so every call goes through a wrapper.

A span is (name, start, end, parent) and is kept in memory in flat arrays
until `write`.  A layer's self time is its spans' durations minus the part
covered by their child spans.  Hot inner functions (`point_model.calibrate`,
`sqra_objective`, `jsu_neg_loglik`, the simplex fallback `qra_fit`) get
counters instead, since a span per call would cost more than the call.

The first and the last calibration of each method, and the first and the
last pool forecast, are kept with their inputs so that `checks.py` can verify
them independently of the program.
"""
from __future__ import annotations

import json
import os
import time
from array import array
from collections import Counter

import numpy as np

#: (module, attribute) pairs that get a span named "<module>.<attribute>".
SPANS = (
    ("cli", "main"),
    ("market_data", "ingest_csv"),
    ("backtest_engine", "run_backtest"),
    ("backtest_engine", "run_single_model"),
    ("backtest_engine", "write_report"),
    ("point_model", "forecast_pool"),
    ("model_selector", "ScoreStore.select"),
    ("model_selector", "ScoreStore.add_scores"),
    ("bess_trading", "choose_hours"),
    ("bess_trading", "build_orders"),
    ("bess_trading", "benchmark_orders"),
    ("bess_trading", "settle"),
    ("bess_trading", "export_ledger"),
)

#: (module, attribute) pairs that only count calls.
COUNTERS = (
    ("point_model", "calibrate"),
    ("prob_models", "qra_fit"),
    ("prob_models", "sqra_objective"),
    ("prob_models", "jsu_neg_loglik"),
)

SPANS_FILE = "spans.npz"
COUNTERS_FILE = "counters.json"
SAMPLES_FILE = "samples.npz"


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = Counter()
        self.samples = {}
        self._sampled = set()
        self._restore = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(args, result)` sees each result."""
        nid = self._name_id(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        import importlib

        from quantbess import prob_models

        for module_name, attr in SPANS + COUNTERS:
            owner = importlib.import_module(f"quantbess.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            name = f"{module_name}.{leaf}"
            if (module_name, attr) in COUNTERS:
                wrapped = self.count(name, getattr(owner, leaf))
            else:
                after = self._keep_pool if name == "point_model.forecast_pool" else None
                wrapped = self.span(name, getattr(owner, leaf), after)
            self._patch(owner, leaf, wrapped)

        for tag in prob_models.METHODS:
            original = prob_models.get_calibrator(tag)
            self._restore.append((None, tag, original))
            prob_models.register_method(tag, self.span(
                f"prob_models.calibrate.{tag}", original, self._keep_calibration
            ))

    def uninstall(self) -> None:
        from quantbess import prob_models

        for owner, attr, original in reversed(self._restore):
            if owner is None:
                prob_models.register_method(attr, original)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- samples kept for the fit checks -------------------------------------

    def _keep(self, key: str, arrays: dict) -> None:
        """Keep the first and the latest sample under `key`."""
        slot = "last" if key in self._sampled else "first"
        self._sampled.add(key)
        for name, value in arrays.items():
            self.samples[f"{key}.{slot}.{name}"] = np.asarray(value)

    def _keep_pool(self, args, result) -> None:
        self.counters["point_model.variants_failed"] += len(result[1])
        pool = result[0]
        self._keep("pool", {"day": pool.day, "windows": pool.window_lengths,
                            "values": pool.values})

    def _keep_calibration(self, args, ctx) -> None:
        inputs = args[0]
        arrays = {}
        if ctx.method in ("hs", "cp", "jsu"):
            arrays.update(residuals=inputs.errors.residuals, offsets=ctx.offsets)
        if ctx.jsu is not None:
            p = ctx.jsu
            arrays["jsu"] = [p.gamma, p.delta, p.xi, p.lam]
        if ctx.betas is not None:
            arrays.update(pool=inputs.pool, prices=inputs.prices, betas=ctx.betas)
        if ctx.bandwidth is not None:
            arrays["bandwidth"] = ctx.bandwidth
        self._keep(ctx.method, arrays)

    # -- output ---------------------------------------------------------------

    def write(self, outdir) -> None:
        os.makedirs(outdir, exist_ok=True)
        np.savez(
            os.path.join(outdir, SPANS_FILE),
            names=np.array(self.names), name_of=np.asarray(self.name_of),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
        np.savez(os.path.join(outdir, SAMPLES_FILE), **self.samples)
        with open(os.path.join(outdir, COUNTERS_FILE), "w", encoding="utf-8") as fh:
            json.dump(self.counters, fh, indent=1, sort_keys=True)


def summarize(outdir) -> dict:
    """Per-span-name call count, total time and self time, plus the counters."""
    with np.load(os.path.join(outdir, SPANS_FILE)) as z:
        names = [str(n) for n in z["names"]]
        name_of, parent = z["name_of"], z["parent"]
        duration = z["end"] - z["start"]
    child_time = np.zeros(duration.size)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    self_time = duration - child_time
    k = len(names)
    spans = {
        name: {
            "calls": int(calls),
            "total_s": float(total),
            "self_s": float(own),
        }
        for name, calls, total, own in zip(
            names,
            np.bincount(name_of, minlength=k),
            np.bincount(name_of, weights=duration, minlength=k),
            np.bincount(name_of, weights=self_time, minlength=k),
        )
    }
    with open(os.path.join(outdir, COUNTERS_FILE), encoding="utf-8") as fh:
        counters = json.load(fh)
    return {"spans": spans, "counters": counters}
