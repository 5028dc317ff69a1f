"""Benchmark of the `quantbess` command line, run the way a user runs it.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
`src/`.  The benchmark generates the workload's dataset from the seed with
its own copy of the synthetic model (`datagen.py`), then:

* times `setup_s`, a fresh interpreter importing `quantbess.cli`, over
  several processes;
* runs the workload's `quantbess` command as whole rounds, one fresh process
  each (`child.py`), recording `run_s` and `peak_rss_mb` per round;
* with `--trace 1`, adds one round under the tracer (`tracer.py`) and
  reports per-layer metrics instead, with the sampled fits checked;
* checks the outputs with `checks.py`, which does not import the program,
  and checks that every round wrote byte-identical files.

The number of rounds depends only on `--seconds` and the workload, so every
commit does the same work.  Every child runs with one BLAS/OpenMP thread:
with the default two threads on a two-core machine the spinning threads made
the timings measure the scheduler.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  Progress and problems
go to standard error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import datagen  # noqa: E402
import tracer  # noqa: E402

SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 150
PAPER_ALPHAS = tuple(round(a / 100, 2) for a in range(50, 99, 2))


@dataclass(frozen=True)
class Workload:
    regime: str
    n_days: int
    command: str                 # "backtest" or "single"
    config: dict                 # quantbess config-file keys, as strings
    round_s: float               # one round on the reference machine, in seconds
    extra_args: tuple = ()
    models: tuple = ("hs", "cp", "jsu", "qra", "sqra")
    windows: tuple = (364, 182, 30)  # point, probabilistic, metric
    alphas: tuple = PAPER_ALPHAS

    @property
    def first_forecast_day(self) -> int:
        return 7 + self.windows[0] + self.windows[1]

    @property
    def first_trading_day(self) -> int:
        return self.first_forecast_day + self.windows[2] + 1


# Why each workload is here is in BENCHMARK.json and README.md.
WORKLOADS = {
    "paper-short": Workload(
        regime="spiky", n_days=558, command="backtest",
        config={"metric_window": "1"}, windows=(364, 182, 1), round_s=14.5,
    ),
    "select-long": Workload(
        regime="low", n_days=400, command="backtest",
        config={"point_window": "56", "pool_window_lengths": "30, 56",
                "prob_window": "28", "metric_window": "30",
                "model_registry": "hs, cp"},
        models=("hs", "cp"), windows=(56, 28, 30), round_s=10.0,
    ),
    "pricetaker": Workload(
        regime="low", n_days=700, command="single", config={},
        extra_args=("--model", "benchmark"), round_s=9.5,
    ),
}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUANTBESS_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def time_setup(env) -> float:
    """Median wall time of fresh interpreters importing quantbess.cli."""
    code = f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); import quantbess.cli"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)  # writes .pyc
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_round(wl: Workload, workdir: str, name: str, env, trace_dir=None) -> dict:
    """One `quantbess` command in a fresh process; its result and output files."""
    out = os.path.join(workdir, name)
    os.makedirs(out)
    data = os.path.join(workdir, "data.csv")
    argv = [wl.command, "--data", data, "--config", os.path.join(workdir, "config.txt"),
            *wl.extra_args, "--output", os.path.join(out, "ledger.csv" if wl.command == "single" else "report")]
    result_path = os.path.join(out, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, result_path,
           *([trace_dir] if trace_dir else []), "--", *argv]
    proc = subprocess.run(cmd, env=env, timeout=ROUND_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"exit_code": proc.returncode, "error": proc.stderr[-2000:], "out": out}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["out"] = out
    if result["exit_code"] != 0:
        result["error"] = proc.stderr[-2000:]
    return result


def output_digests(result) -> dict:
    """sha256 of every file the command wrote, the manifest aside (it holds
    timestamps and paths), plus the command's standard output, which names
    the round's output path."""
    stdout = result["stdout"].replace(result["out"], "<round>")
    digests = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    for base, _, files in os.walk(result["out"]):
        for f in files:
            if f in ("result.json", "run_manifest.json"):
                continue
            with open(os.path.join(base, f), "rb") as fh:
                digests[f] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_manifest(report_dir) -> list:
    with open(os.path.join(report_dir, "run_manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = []
    if sorted(manifest.get("files", {})) != sorted(checks.BUNDLE):
        problems.append("run_manifest.json does not list the four bundle files")
    for name, digest in manifest.get("files", {}).items():
        with open(os.path.join(report_dir, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                problems.append(f"run_manifest.json: checksum of {name} does not match")
    return problems


def check_config(wl: Workload) -> dict:
    return {
        "first_forecast_day": wl.first_forecast_day,
        "first_trading_day": wl.first_trading_day,
        "metric_window": wl.windows[2],
        "point_window": wl.windows[0],
        "alphas": wl.alphas,
        "models": wl.models,
    }


def check_outputs(wl: Workload, result, prices, loads, weekday) -> list:
    cfg = check_config(wl)
    if wl.command == "single":
        return checks.check_pricetaker(os.path.join(result["out"], "ledger.csv"), result["stdout"],
                                       prices, loads, weekday, cfg)
    report = os.path.join(result["out"], "report")
    return check_manifest(report) + checks.check_bundle(report, prices, cfg)


def layer_metrics(summary: dict, traced_run_s: float, run_s: float, report_bytes: int) -> dict:
    spans, counters = summary["spans"], summary["counters"]

    def total(*names):
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)

    def own(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    calib = [f"prob_models.calibrate.{m}" for m in ("hs", "cp", "jsu", "qra", "sqra")]
    qra_fits = 99 * calls("prob_models.calibrate.qra")
    fallbacks = counters.get("prob_models.qra_fit", 0)
    layers = {
        "market_data.ingest_csv_s": own("market_data.ingest_csv"),
        "point_model.forecast_pool_s": own("point_model.forecast_pool"),
        "prob_models.self_s": own(*calib),
        "model_selector.self_s": own("model_selector.select", "model_selector.add_scores"),
        "bess_trading.self_s": own("bess_trading.choose_hours", "bess_trading.build_orders",
                                   "bess_trading.benchmark_orders", "bess_trading.settle",
                                   "bess_trading.export_ledger"),
        "backtest_engine.self_s": own("backtest_engine.run_backtest",
                                      "backtest_engine.run_single_model"),
        "backtest_engine.write_report_s": own("backtest_engine.write_report"),
        "cli.self_s": own("cli.main"),
    }
    metrics = {
        "point_model.forecast_pool_calls": (calls("point_model.forecast_pool"), "count"),
        "point_model.hour_fits": (counters.get("point_model.calibrate", 0), "count"),
        "point_model.variants_failed": (counters.get("point_model.variants_failed", 0), "count"),
        "prob_models.calibrate.qra_s": (total("prob_models.calibrate.qra"), "s"),
        "prob_models.qra.quantile_fits": (qra_fits, "count"),
        "prob_models.qra.highs_fallbacks": (fallbacks, "count"),
        "prob_models.qra.certified_share": ((qra_fits - fallbacks) / qra_fits if qra_fits else 0.0,
                                            "share"),
        "prob_models.calibrate.sqra_s": (total("prob_models.calibrate.sqra"), "s"),
        "prob_models.sqra.objective_evals": (counters.get("prob_models.sqra_objective", 0), "count"),
        "prob_models.calibrate.jsu_s": (total("prob_models.calibrate.jsu"), "s"),
        "prob_models.jsu.nll_evals": (counters.get("prob_models.jsu_neg_loglik", 0), "count"),
        "prob_models.calibrate.hs_s": (total("prob_models.calibrate.hs"), "s"),
        "prob_models.calibrate.cp_s": (total("prob_models.calibrate.cp"), "s"),
        "prob_models.calibrations": (calls(*calib), "count"),
        "model_selector.select_s": (total("model_selector.select"), "s"),
        "model_selector.select_calls": (calls("model_selector.select"), "count"),
        "model_selector.add_scores_s": (total("model_selector.add_scores"), "s"),
        "bess_trading.build_orders_s": (total("bess_trading.build_orders"), "s"),
        "bess_trading.settle_s": (total("bess_trading.settle"), "s"),
        "bess_trading.orders_calls": (calls("bess_trading.build_orders", "bess_trading.benchmark_orders"),
                                      "count"),
        "backtest_engine.report_bytes": (report_bytes, "B"),
        "trace.run_s": (traced_run_s, "s"),
        "trace.layer_sum_s": (sum(layers.values()), "s"),
        "trace.overhead_s": (traced_run_s - run_s, "s"),
    }
    metrics.update({name: (value, "s") for name, value in layers.items()})
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="intended run length; sets the fixed number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "quantbess", "cli.py")):
        log(f"error: no quantbess sources under {os.path.join(ROOT, 'src')}")
        return 2
    wl = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / wl.round_s))
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    prices, loads = datagen.generate(wl.n_days, args.seed, wl.regime)
    datagen.write_csv(os.path.join(workdir, "data.csv"), prices, loads)
    with open(os.path.join(workdir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in wl.config.items())
    # The checks use the dataset as the program reads it, from the CSV text.
    prices, loads, weekday = datagen.read_csv(os.path.join(workdir, "data.csv"))
    env = child_env()

    setup_s = time_setup(env)
    log(f"{args.workload} seed {args.seed}: setup_s {setup_s:.3f}, {rounds} rounds")
    results, failed, problems = [], 0, []
    names = [f"round{i}" for i in range(rounds)] + (["traced"] if args.trace else [])
    for name in names:
        trace_dir = os.path.join(workdir, "trace") if name == "traced" else None
        result = run_round(wl, workdir, name, env, trace_dir)
        if result["exit_code"] != 0:
            failed += 1
            log(f"  {name}: exit {result['exit_code']}\n{result.get('error', '')}")
            continue
        log(f"  {name}: run_s {result['run_s']:.3f}, peak_rss {result['peak_rss_kb'] / 1024:.1f} MB")
        result["name"] = name
        result["digests"] = output_digests(result)
        if results and result["digests"] != results[0]["digests"]:
            problems.append(f"{name} wrote different files than {results[0]['name']}")
        if not results:
            problems += check_outputs(wl, result, prices, loads, weekday)
        elif name != "traced":
            shutil.rmtree(result["out"])
        results.append(result)

    untraced = [r for r in results if r["name"] != "traced"]
    if not untraced:
        log("error: every round failed")
        return 1
    problems += check_across_runs(args.workload, args.seed, untraced[0]["digests"])
    run_s = statistics.median(r["run_s"] for r in untraced)
    if args.trace:
        traced = results[-1]
        if traced["name"] != "traced":
            log("error: the traced round failed")
            return 1
        fit_problems, n_fits = checks.check_fits(
            load_samples(os.path.join(workdir, "trace")), prices, loads, weekday)
        problems += fit_problems
        log(f"  traced round: {n_fits} sampled fits checked")
        metrics = layer_metrics(tracer.summarize(os.path.join(workdir, "trace")),
                                traced["run_s"], run_s, _bytes_under(traced["out"]))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_kb"] for r in untraced) / 1024,
                            "unit": "MB"},
        }
    for p in problems:
        log(f"problem: {p}")
    print(json.dumps({"correct": not problems, "attempted": len(names), "failed": failed,
                      "metrics": metrics}))
    return 0


def load_samples(trace_dir) -> dict:
    import numpy as np

    with np.load(os.path.join(trace_dir, tracer.SAMPLES_FILE)) as z:
        return {key: z[key] for key in z.files}


def _bytes_under(out) -> int:
    return sum(os.path.getsize(os.path.join(base, f))
               for base, _, files in os.walk(out) for f in files if f != "result.json")


def check_across_runs(workload, seed, digests) -> list:
    """Same seed, same files: compare with the first run of this seed here."""
    path = os.path.join(WORK, "digests", f"{workload}-{seed}.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
        return []
    with open(path, encoding="utf-8") as fh:
        earlier = json.load(fh)
    return [] if earlier == digests else [f"outputs differ from an earlier run of seed {seed}"]


if __name__ == "__main__":
    sys.exit(main())
