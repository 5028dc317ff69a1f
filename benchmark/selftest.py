"""Mutation self-test of the output checks.

    python3 benchmark/selftest.py

Runs one small traced `quantbess backtest` (110 low-regime days, short
windows, all five methods, three alphas), confirms that every check passes
on its outputs, then corrupts one value at a time and confirms that each
corruption is reported:

* bundle files: a cash flow in ledgers.csv, a chosen model in
  selection_log.csv, a profit in profits_by_metric.csv and a score in
  metric_table.csv;
* fits the tracer kept: a historical-simulation offset, a JSU location, a qra
  coefficient, an sqra coefficient and a pool forecast.

Exits 0 when the checks pass on the clean outputs and report every
corruption.
"""
from __future__ import annotations

import csv
import os
import shutil
import sys

import checks
import datagen
import run

WORKLOAD = run.Workload(
    regime="low", n_days=110, command="backtest",
    config={"point_window": "56", "pool_window_lengths": "30, 56", "prob_window": "12",
            "metric_window": "5", "alphas": "0.5, 0.8, 0.98"},
    round_s=1.0, windows=(56, 12, 5), alphas=(0.5, 0.8, 0.98),
)
SEED = 5


def _edit_csv(path, row_index: int, column: str, change) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row_index + 1][col] = change(rows[row_index + 1][col])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


BUNDLE_CASES = (
    (checks.LEDGERS, 10, "cash_flow", lambda v: repr(float(v) + 0.5)),
    (checks.SELECTION, 3, "chosen_model", lambda v: "cp" if v != "cp" else "hs"),
    (checks.PROFITS, 4, "profit_per_mwh", lambda v: repr(float(v) * 1.001)),
    (checks.SCORES, 7, "pinball_sell", lambda v: repr(float(v) + 0.25)),
)


def _shift(key, index, amount):
    def mutate(samples):
        value = samples[key].astype(float).copy()
        value.flat[index] += amount
        samples[key] = value
    return mutate


FIT_CASES = (
    ("hs offset", _shift("hs.first.offsets", 10, 0.01)),
    ("jsu location", _shift("jsu.last.jsu", 2, 0.05)),
    # betas are (99 quantiles, intercept + 2 pool variants); row 49 is q = 0.5
    ("qra coefficient", _shift("qra.first.betas", 49 * 3, 0.05)),
    ("sqra coefficient", _shift("sqra.last.betas", 49 * 3 + 1, 0.02)),
    ("pool forecast", _shift("pool.last.values", 5, 0.01)),
)


def main() -> int:
    workdir = os.path.join(run.WORK, "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    prices, loads = datagen.generate(WORKLOAD.n_days, SEED, WORKLOAD.regime)
    datagen.write_csv(os.path.join(workdir, "data.csv"), prices, loads)
    with open(os.path.join(workdir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in WORKLOAD.config.items())
    prices, loads, weekday = datagen.read_csv(os.path.join(workdir, "data.csv"))
    trace_dir = os.path.join(workdir, "trace")
    result = run.run_round(WORKLOAD, workdir, "clean", run.child_env(), trace_dir)
    if result["exit_code"] != 0:
        print(f"the small backtest failed:\n{result.get('error', '')}")
        return 1

    failures = 0
    clean = run.check_outputs(WORKLOAD, result, prices, loads, weekday)
    samples = run.load_samples(trace_dir)
    fit_problems, n_fits = checks.check_fits(samples, prices, loads, weekday)
    for problem in clean + fit_problems:
        print(f"FAIL clean outputs: {problem}")
        failures += 1
    print(f"clean outputs: {len(clean) + len(fit_problems)} problems, {n_fits} fits checked")

    report = os.path.join(result["out"], "report")
    cfg = run.check_config(WORKLOAD)
    for name, row, column, change in BUNDLE_CASES:
        mutated = os.path.join(workdir, "mutated")
        shutil.rmtree(mutated, ignore_errors=True)
        shutil.copytree(report, mutated)
        _edit_csv(os.path.join(mutated, name), row, column, change)
        found = checks.check_bundle(mutated, prices, cfg)
        failures += _report(f"{name} {column} row {row}", found)

    for label, mutate in FIT_CASES:
        corrupted = dict(samples)
        mutate(corrupted)
        found, _ = checks.check_fits(corrupted, prices, loads, weekday)
        failures += _report(label, found)
    print("self-test passed" if not failures else f"self-test FAILED: {failures}")
    return 1 if failures else 0


def _report(label, found) -> int:
    if found:
        print(f"ok   {label}: reported ({found[0]})")
        return 0
    print(f"FAIL {label}: not reported")
    return 1


if __name__ == "__main__":
    sys.exit(main())
