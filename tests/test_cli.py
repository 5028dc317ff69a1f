import dataclasses
import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from quantbess.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    MANIFEST_FILE,
    build_config,
    main,
    read_config_file,
)
from quantbess import backtest_engine, cli
from quantbess.backtest_engine import BacktestConfig
from quantbess.errors import ConfigError

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# settings fixed to the one value every run used, which their keys held;
# the keys are refused
REMOVED_SETTINGS = {"coverage_mode": "target", "forced_sell_mode": "before_h2",
                    "recalibrate_every": "1", "bandwidth": "auto"}
# a line saved in a Windows code page: 0x80, the euro sign, is not UTF-8
NOT_UTF8 = "# prices in \u20ac/MWh\n".encode("cp1252")

SMALL_CONFIG = """\
# fast experiment for CLI tests
point_window = 56
prob_window = 8
metric_window = 5
alphas = 0.5, 0.8
pool_window_lengths = 30, 56
model_registry = hs, cp
"""


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "series.csv"
    assert main(["synth", str(path), "--days", "90", "--seed", "11"]) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return path


@pytest.fixture(scope="module")
def report_dir(dataset, config_file, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("report")
    code = main([
        "backtest", "--data", str(dataset), "--config", str(config_file),
        "--output", str(outdir),
    ])
    assert code == EXIT_OK
    return outdir


class TestConfigParsing:
    def test_round_trip(self, config_file):
        values = read_config_file(config_file)
        config = build_config(values)
        assert config.point_window == 56
        assert config.alphas == (0.5, 0.8)
        assert config.model_registry == ("hs", "cp")

    def test_all_problems_listed(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("point_window = soon\nunknown_key = 1\n"
                        "alphas = 0.5, half\nmetric_window = often\n")
        with pytest.raises(ConfigError) as err:
            build_config(read_config_file(path))
        assert len(err.value.problems) == 4

    @pytest.mark.parametrize("field", dataclasses.fields(BacktestConfig),
                             ids=lambda field: field.name)
    def test_every_field_parses_its_default(self, field):
        default = field.default
        text = ", ".join(map(str, default)) if isinstance(default, tuple) else str(default)
        value = getattr(build_config({field.name: text}), field.name)
        # the repr also tells 30 from 30.0 and a float from a numpy float
        assert repr(value) == repr(default)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "noequals.cfg"
        path.write_text("just some text\n")
        with pytest.raises(ConfigError):
            read_config_file(path)

    def test_readme_config_section_names_every_field(self):
        """The README's config section documents each `BacktestConfig` field
        and none of the removed settings."""
        text = README.read_text(encoding="utf-8")
        section = re.search(r"^### Config file\n(.*?)^##", text, re.M | re.S)
        assert section, "README has no '### Config file' section"
        names = set(re.findall(r"`(\w+)`", section.group(1)))
        assert {f.name for f in dataclasses.fields(BacktestConfig)} <= names
        assert not any(key in section.group(1) for key in REMOVED_SETTINGS)


class TestSynthAndIngest:
    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", str(a), "--days", "4", "--seed", "3"]) == EXIT_OK
        assert main(["synth", str(b), "--days", "4", "--seed", "3"]) == EXIT_OK
        assert a.read_text() == b.read_text()

    def test_ingest_idempotent(self, dataset, tmp_path, capsys):
        out1 = tmp_path / "norm1.csv"
        out2 = tmp_path / "norm2.csv"
        assert main(["ingest", str(dataset), str(out1)]) == EXIT_OK
        assert main(["ingest", str(out1), str(out2)]) == EXIT_OK
        assert out1.read_text() == out2.read_text()
        assert "90 days" in capsys.readouterr().out

    def test_corrupt_file_reports_line(self, tmp_path, capsys):
        path = tmp_path / "corrupt.csv"
        path.write_text("timestamp,price,load_forecast\n2021-01-01T00:00:00,oops,1\n")
        code = main(["ingest", str(path), str(tmp_path / "out.csv")])
        assert code == EXIT_RUNTIME
        assert "line 2" in capsys.readouterr().err

    def test_help_states_default_minimum(self, capsys):
        n = BacktestConfig().first_trading_day + 1
        assert BacktestConfig().problems(n) == [] and BacktestConfig().problems(n - 1)
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", "--help"])
        assert exit_info.value.code == 0
        assert f"({n} for a default backtest)" in " ".join(capsys.readouterr().out.split())

    def test_missing_input(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "nope.csv"), str(tmp_path / "out.csv")])
        assert code == EXIT_USAGE


class TestBacktest:
    def test_report_bundle(self, report_dir):
        manifest = json.loads((report_dir / MANIFEST_FILE).read_text())
        assert "seed" not in manifest
        assert set(manifest["files"]) == {
            "profits_by_metric.csv", "selection_log.csv",
            "metric_table.csv", "ledgers.csv",
        }
        profits = (report_dir / "profits_by_metric.csv").read_text().strip().splitlines()
        assert len(profits) == 1 + 6 * 2  # header + metrics x alphas

    def test_manifest_digests_are_sha256(self, report_dir, dataset):
        manifest = json.loads((report_dir / MANIFEST_FILE).read_text())
        paths = {name: report_dir / name for name in manifest["files"]}
        digests = dict(manifest["files"])
        paths["dataset"], digests["dataset"] = dataset, manifest["dataset_sha256"]
        for name, path in paths.items():
            assert digests[name] == hashlib.sha256(path.read_bytes()).hexdigest(), name

    # empty, one byte, exactly one 1 MiB read chunk, and two chunks and a tail
    @pytest.mark.parametrize("size", [0, 1, 1 << 20, (2 << 20) + 7])
    def test_sha256_is_hashlib_sha256(self, tmp_path, size):
        data = bytes(range(256)) * (size // 256) + bytes(size % 256)
        path = tmp_path / "blob"
        path.write_bytes(data)
        assert cli._sha256(path) == hashlib.sha256(data).hexdigest()

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        code = main(["backtest", "--data", str(tmp_path / "none.csv")])
        assert code == EXIT_USAGE
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_exit_2(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("metric_window = 0\nalphas = 0.85\n")
        code = main(["backtest", "--data", str(dataset), "--config", str(cfg)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "metric_window" in err and "0.85" in err

    def test_short_pool_window_exit_2(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(SMALL_CONFIG.replace("= 30, 56", "= 20, 56"))
        code = main(["backtest", "--data", str(dataset), "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "pool window(s) [20]" in capsys.readouterr().err

    def test_repeated_model_tag_exit_2(self, dataset, tmp_path, capsys):
        # a repeated tag used to abort at the first forecast day with a traceback
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_CONFIG.replace("= hs, cp", "= hs, hs"))
        code = main(["backtest", "--data", str(dataset), "--config", str(cfg),
                     "--output", str(tmp_path / "report")])
        assert code == EXIT_USAGE
        assert "model tag(s) ['hs'] given more than once" in capsys.readouterr().err

    def test_seed_is_not_a_setting(self, dataset, config_file, tmp_path, capsys):
        cfg = tmp_path / "seeded.cfg"
        cfg.write_text(config_file.read_text() + "seed = 3\n")
        code = main(["backtest", "--data", str(dataset), "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "unknown config key 'seed'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["backtest", "--data", str(dataset), "--seed", "3"])
        assert exc.value.code == EXIT_USAGE

    def test_runs_load_no_scipy_openssl_or_numpy_ma(self, dataset, tmp_path):
        # the run path needs numpy and the standard library alone: scipy is
        # imported only by the rare fallback, qra's HiGHS simplex; the
        # digests use CPython's own sha256, not hashlib's OpenSSL
        # (`_hashlib`); and the quantiles never reach np.unique's lazy import
        # of numpy.ma.  The spiky sqra run restarts stalled Newton solves.
        cfg = tmp_path / "five.cfg"
        cfg.write_text(SMALL_CONFIG.replace("= hs, cp", "= hs, cp, jsu, qra, sqra"))
        spiky_cfg = tmp_path / "spiky.cfg"
        spiky_cfg.write_text("point_window = 56\nprob_window = 5\nmetric_window = 1\n"
                             "pool_window_lengths = 30, 56\n")
        spiky = str(tmp_path / "spiky.csv")
        # numpy.random, which only synth uses, loads `_hashlib` through `secrets`
        assert main(["synth", spiky, "--days", "160", "--seed", "1", "--regime", "spiky"]) == EXIT_OK
        report = str(tmp_path / "report")
        runs = [["backtest", "--data", str(dataset), "--config", str(cfg), "--output", report],
                ["report", report],
                ["single", "--data", str(dataset), "--config", str(cfg), "--model", "benchmark"],
                ["single", "--data", spiky, "--config", str(spiky_cfg), "--model", "sqra",
                 "--alpha", "0.8"]]
        script = (
            "import json, sys\n"
            "from quantbess import cli\n"
            "def loaded():\n"
            "    return sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'\n"
            "                  or name in ('_hashlib', 'numpy.ma') or name.startswith('numpy.ma.'))\n"
            "on_import = loaded()\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            "print(json.dumps([on_import, codes, loaded()]))\n"
        )
        src = str(pathlib.Path(backtest_engine.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        on_import, codes, after_runs = json.loads(done.stdout.splitlines()[-1])
        assert codes == [EXIT_OK] * len(runs)
        assert on_import == after_runs == []


class TestSingle:
    def test_single_model_run(self, dataset, config_file, tmp_path, capsys):
        ledger_path = tmp_path / "ledger.csv"
        code = main([
            "single", "--data", str(dataset), "--config", str(config_file),
            "--model", "hs", "--alpha", "0.8", "--output", str(ledger_path),
        ])
        assert code == EXIT_OK
        assert "profit_per_mwh=" in capsys.readouterr().out
        assert ledger_path.exists()

    def test_benchmark_run(self, dataset, config_file, capsys):
        code = main([
            "single", "--data", str(dataset), "--config", str(config_file),
            "--model", "benchmark",
        ])
        assert code == EXIT_OK
        assert "model=benchmark" in capsys.readouterr().out

    @pytest.mark.parametrize("model", ["hs", "benchmark"])
    def test_off_grid_alpha_exit_2(self, dataset, config_file, model, capsys):
        code = main([
            "single", "--data", str(dataset), "--config", str(config_file),
            "--model", model, "--alpha", "0.85",
        ])
        assert code == EXIT_USAGE
        assert "0.85" in capsys.readouterr().err


NEVER_TRADES_CONFIG = """\
point_window = 56
pool_window_lengths = 30, 56
prob_window = 28
metric_window = 1
model_registry = hs, cp
alphas = 0.02, 0.5
"""


class TestStrategyThatNeverTrades:
    """alpha 0.02 on a 94-day series: one trading day, on which no 0.02
    strategy trades.  Its profit per MWh is undefined and written as nan."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("never_trades")
        assert main(["synth", str(root / "series.csv"), "--days", "94", "--seed", "1"]) == EXIT_OK
        (root / "never.cfg").write_text(NEVER_TRADES_CONFIG)
        return root / "series.csv", root / "never.cfg"

    def test_backtest_writes_nan_and_report_ranks_numbers(self, inputs, tmp_path, capsys):
        data, cfg = inputs
        outdir = tmp_path / "report"
        code = main(["backtest", "--data", str(data), "--config", str(cfg), "--output", str(outdir)])
        assert code == EXIT_OK
        rows = (outdir / "profits_by_metric.csv").read_text().splitlines()[1:]
        assert {row.rsplit(",", 1)[1] for row in rows if row.startswith("0.02,")} == {"nan"}
        assert all(row.rsplit(",", 1)[1] != "nan" for row in rows if row.startswith("0.5,"))
        capsys.readouterr()
        assert main(["report", str(outdir)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["0.02", "none", "traded", "nan"]
        assert lines[2].split()[0] == "0.50" and lines[2].split()[2] != "nan"

    def test_report_skips_nan_rows(self, report_dir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(report_dir, bundle)
        (bundle / MANIFEST_FILE).unlink()
        path = bundle / "profits_by_metric.csv"
        path.write_text("alpha,metric,profit_per_mwh\n0.5,pinball_all,nan\n"
                        "0.5,pinball_sell,1.5\n0.5,pinball_buy,nan\n")
        assert main(["report", str(bundle)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].split() == ["0.50", "pinball_sell", "1.5000"]

    def test_single_prints_nan(self, inputs, capsys):
        data, cfg = inputs
        code = main(["single", "--data", str(data), "--config", str(cfg),
                     "--model", "hs", "--alpha", "0.02"])
        assert code == EXIT_OK
        assert "profit_per_mwh=nan" in capsys.readouterr().out


class TestReport:
    def test_summary_table(self, report_dir, capsys):
        assert main(["report", str(report_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "best metric" in out
        assert "0.50" in out and "0.80" in out

    def test_tampered_csv_warns(self, report_dir, capsys):
        path = report_dir / "profits_by_metric.csv"
        original = path.read_bytes()  # CRLF lines, which read_text would not give back
        try:
            path.write_bytes(original + b"0.5,pinball_all,999.0\r\n")
            assert main(["report", str(report_dir)]) == EXIT_OK
            assert "checksum mismatch" in capsys.readouterr().err
        finally:
            path.write_bytes(original)

    def test_unreadable_listed_file_warns(self, report_dir, tmp_path, capsys):
        # a listed name that is a directory, or missing, is a mismatch, and
        # the summary still prints
        bundle = tmp_path / "bundle"
        shutil.copytree(report_dir, bundle)
        manifest = json.loads((bundle / MANIFEST_FILE).read_text())
        manifest["files"].update(sub="00", gone="00")
        (bundle / MANIFEST_FILE).write_text(json.dumps(manifest))
        (bundle / "sub").mkdir()
        assert main(["report", str(bundle)]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "best metric" in out
        assert err.splitlines() == ["warning: checksum mismatch for sub",
                                    "warning: checksum mismatch for gone"]

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == EXIT_USAGE

    def test_missing_directory(self, tmp_path):
        assert main(["report", str(tmp_path / "ghost")]) == EXIT_USAGE


def _error_line(capsys) -> str:
    """The one line, checksum warnings aside, that a refused command writes
    to stderr."""
    lines = [line for line in capsys.readouterr().err.splitlines()
             if not line.startswith("warning: ")]
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


class TestInputErrors:
    """Bad input ends the command with one `error:` line, not a traceback."""

    @pytest.mark.parametrize("command", ["backtest", "single"])
    def test_missing_config_file_exit_2(self, dataset, tmp_path, capsys, command):
        cfg = tmp_path / "missing.cfg"
        assert main([command, "--data", str(dataset), "--config", str(cfg)]) == EXIT_USAGE
        assert str(cfg) in _error_line(capsys)

    def test_config_directory_exit_2(self, dataset, tmp_path, capsys):
        code = main(["backtest", "--data", str(dataset), "--config", str(tmp_path)])
        assert code == EXIT_USAGE
        assert str(tmp_path) in _error_line(capsys)

    def test_synth_zero_days_exit_2(self, tmp_path, capsys):
        assert main(["synth", str(tmp_path / "out.csv"), "--days", "0"]) == EXIT_USAGE
        assert "--days" in _error_line(capsys)
        assert not (tmp_path / "out.csv").exists()

    def test_synth_negative_seed_exit_2(self, tmp_path, capsys):
        # used to end in numpy's ValueError traceback with exit 1
        assert main(["synth", str(tmp_path / "out.csv"), "--seed", "-1"]) == EXIT_USAGE
        assert "--seed" in _error_line(capsys)
        assert not (tmp_path / "out.csv").exists()

    def test_ingest_empty_delimiter_exit_2(self, dataset, tmp_path, capsys):
        code = main(["ingest", str(dataset), str(tmp_path / "out.csv"), "--delimiter", ""])
        assert code == EXIT_USAGE
        assert "--delimiter" in _error_line(capsys)

    @pytest.mark.parametrize("line, problem", [
        ("alphas = -0.5", "alpha -0.5 outside [0, 1)"),
        ("alphas = inf", "alpha inf outside [0, 1)"),
        ("alphas =", "alphas must be non-empty"),
        ("alphas = 0.5, 0.5", "alpha(s) [0.5] given more than once"),
    ])
    def test_bad_alphas_exit_2(self, dataset, tmp_path, capsys, line, problem):
        # -0.5 used to write a bundle, inf and an empty list to end in a
        # traceback, and a repeated alpha to write its strategies twice
        cfg = tmp_path / "alphas.cfg"
        cfg.write_text(SMALL_CONFIG.replace("alphas = 0.5, 0.8", line))
        code = main(["backtest", "--data", str(dataset), "--config", str(cfg),
                     "--output", str(tmp_path / "report")])
        assert code == EXIT_USAGE
        assert problem in _error_line(capsys)
        assert not (tmp_path / "report").exists()

    def test_single_infinite_alpha_exit_2(self, dataset, config_file, capsys):
        code = main(["single", "--data", str(dataset), "--config", str(config_file),
                     "--model", "hs", "--alpha", "inf"])
        assert code == EXIT_USAGE
        assert "alpha inf outside [0, 1)" in _error_line(capsys)

    @pytest.mark.parametrize("name, edit", [
        ("profits_by_metric.csv", lambda text: text.replace("profit_per_mwh", "profit", 1)),
        ("profits_by_metric.csv", lambda text: text.replace("0.5,", "half,", 1)),
        (MANIFEST_FILE, lambda text: text[: len(text) // 2]),
        (MANIFEST_FILE, lambda text: "[]"),
        (MANIFEST_FILE, lambda text: '{"files": []}'),
    ], ids=["profit-column", "alpha", "manifest", "manifest-list", "manifest-files-list"])
    def test_unreadable_bundle_names_the_file(self, report_dir, tmp_path, capsys, name, edit):
        bundle = tmp_path / "bundle"
        shutil.copytree(report_dir, bundle)
        path = bundle / name
        path.write_text(edit(path.read_text()))
        assert main(["report", str(bundle)]) == EXIT_RUNTIME
        assert str(path) in _error_line(capsys)

    @pytest.mark.parametrize("key, value", REMOVED_SETTINGS.items())
    def test_removed_setting_exit_2(self, dataset, tmp_path, capsys, key, value):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(SMALL_CONFIG + f"{key} = {value}\n")
        code = main(["backtest", "--data", str(dataset), "--config", str(cfg),
                     "--output", str(tmp_path / "report")])
        assert code == EXIT_USAGE
        assert _error_line(capsys) == f"error: unknown config key {key!r}"

    def test_config_key_given_twice_exit_2(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(SMALL_CONFIG + "metric_window = 7\nno equals\n")
        code = main(["backtest", "--data", str(dataset), "--config", str(cfg),
                     "--output", str(tmp_path / "report")])
        assert code == EXIT_USAGE
        assert _error_line(capsys) == (
            "error: line 8: key 'metric_window' given more than once (first on line 4); "
            "line 9: expected key = value"
        )
        assert not (tmp_path / "report").exists()

    def test_report_path_is_a_file_fails_before_the_run(
        self, dataset, config_file, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "report.csv"
        out.write_text("")
        monkeypatch.setattr(backtest_engine, "run_backtest",
                            lambda *args: pytest.fail("the backtest ran"))
        code = main(["backtest", "--data", str(dataset), "--config", str(config_file),
                     "--output", str(out)])
        assert code == EXIT_RUNTIME
        assert str(out) in _error_line(capsys)

    def test_ledger_into_missing_directory_exit_1(
        self, dataset, config_file, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "missing" / "ledger.csv"
        monkeypatch.setattr(backtest_engine, "run_single_model",
                            lambda *args: pytest.fail("the run ran"))
        code = main(["single", "--data", str(dataset), "--config", str(config_file),
                     "--model", "benchmark", "--output", str(out)])
        assert code == EXIT_RUNTIME
        assert _error_line(capsys) == f"error: [Errno 2] No such file or directory: '{out}'"

    def test_ledger_onto_directory_fails_before_the_run(
        self, dataset, config_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(backtest_engine, "run_single_model",
                            lambda *args: pytest.fail("the run ran"))
        code = main(["single", "--data", str(dataset), "--config", str(config_file),
                     "--model", "benchmark", "--output", str(tmp_path)])
        assert code == EXIT_RUNTIME
        assert _error_line(capsys) == f"error: [Errno 21] Is a directory: '{tmp_path}'"

    def test_dataset_too_short_leaves_no_report_directory(self, dataset, tmp_path, capsys):
        # the default windows need more than the 90 days of `dataset`
        out = tmp_path / "report"
        assert main(["backtest", "--data", str(dataset), "--output", str(out)]) == EXIT_USAGE
        assert "too short" in _error_line(capsys)
        assert not out.exists()

    def test_synth_into_missing_directory_exit_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "data.csv"
        assert main(["synth", str(out), "--days", "2"]) == EXIT_RUNTIME
        assert str(out) in _error_line(capsys)

    def test_dataset_directory_exit_2(self, tmp_path, capsys):
        assert main(["backtest", "--data", str(tmp_path)]) == EXIT_USAGE
        assert str(tmp_path) in _error_line(capsys)

    def test_config_not_utf8_exit_2(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cp1252.cfg"
        cfg.write_bytes(NOT_UTF8 + SMALL_CONFIG.encode())
        assert main(["backtest", "--data", str(dataset), "--config", str(cfg)]) == EXIT_USAGE
        assert f"cannot read config file {cfg}: not UTF-8 text" in _error_line(capsys)

    def test_dataset_not_utf8_exit_1(self, dataset, tmp_path, capsys):
        data = tmp_path / "cp1252.csv"
        data.write_bytes(NOT_UTF8 + dataset.read_bytes())
        assert main(["backtest", "--data", str(data)]) == EXIT_RUNTIME
        assert _error_line(capsys) == f"error: {data}: not UTF-8 text"
