"""Smoke tests for the command-line interfaces."""

import io
from contextlib import redirect_stdout

import pytest

from repro.__main__ import main as repro_main
from repro.evaluation.cli import run as eval_cli


def _capture(fn, *args):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = fn(*args)
    return code, buffer.getvalue()


class TestReproMain:
    def test_list(self):
        code, out = _capture(repro_main, ["list"])
        assert code == 0
        assert "179.art" in out and "hot loops" in out

    def test_run_single_benchmark(self):
        code, out = _capture(repro_main, ["run", "LU", "--widths", "8"])
        assert code == 0
        assert "baseline" in out and "match" in out
        assert "DIVERGED" not in out

    def test_run_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            repro_main(["run", "not-a-benchmark"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            repro_main([])


class TestEvaluationCli:
    def test_table2_only(self):
        code, out = _capture(eval_cli, ["--experiments", "table2"])
        assert code == 0
        assert "174,117" in out

    def test_subset_table5(self):
        code, out = _capture(
            eval_cli, ["--benchmarks", "LU", "--experiments", "table5"])
        assert code == 0
        assert "LU" in out and "Mean" in out

    def test_evaluate_subcommand_delegates(self):
        code, out = _capture(repro_main,
                             ["evaluate", "--experiments", "table2"])
        assert code == 0
        assert "174,117" in out

    def test_rejects_unknown_benchmark_with_choices(self, capsys):
        with pytest.raises(SystemExit):
            eval_cli(["--benchmarks", "LU", "BOGUS",
                      "--experiments", "table5"])
        err = capsys.readouterr().err
        assert "'BOGUS'" in err
        assert "Valid choices:" in err and "179.art" in err

    def test_rejects_unknown_ucache_benchmark(self, capsys):
        with pytest.raises(SystemExit):
            eval_cli(["--experiments", "ucache",
                      "--ucache-benchmark", "nope"])
        assert "--ucache-benchmark" in capsys.readouterr().err

    def test_rejects_bad_jobs(self, capsys):
        with pytest.raises(SystemExit):
            eval_cli(["--experiments", "table2", "--jobs", "0"])
        assert "--jobs" in capsys.readouterr().err

    def test_ucache_benchmark_flag_selects_benchmark(self):
        code, out = _capture(
            eval_cli, ["--benchmarks", "FIR", "--experiments", "ucache",
                       "--ucache-benchmark", "FIR", "--no-cache"])
        assert code == 0
        assert "Microcode cache entries sweep (FIR)" in out

    def test_cache_flow_cold_then_warm(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["--benchmarks", "LU", "--experiments", "table5", "table6",
                "--cache-dir", cache_dir, "--jobs", "1"]
        code, cold = _capture(eval_cli, argv)
        assert code == 0
        assert "cache: 0 hits / 1 simulated" in cold
        code, warm = _capture(eval_cli, argv)
        assert code == 0
        assert "cache: 1 hits / 0 simulated" in warm
        # Identical rendered output whatever the cache state (strip the
        # trailing timing/stats line, which reports hits vs simulated).
        strip = lambda out: out.splitlines()[:-1]
        assert strip(cold) == strip(warm)

    def test_no_cache_flag_disables_reporting(self):
        code, out = _capture(eval_cli, ["--benchmarks", "LU",
                                        "--experiments", "table5",
                                        "--no-cache"])
        assert code == 0
        assert "cache:" not in out


class TestCacheSubcommand:
    def test_info_and_clear(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        code, _ = _capture(eval_cli, ["--benchmarks", "LU",
                                      "--experiments", "table6",
                                      "--cache-dir", cache_dir])
        assert code == 0
        code, out = _capture(repro_main,
                             ["cache", "info", "--cache-dir", cache_dir])
        assert code == 0
        assert "entries   1" in out
        code, out = _capture(repro_main,
                             ["cache", "clear", "--cache-dir", cache_dir])
        assert code == 0
        assert "cleared 1 cached run" in out
        code, out = _capture(repro_main,
                             ["cache", "info", "--cache-dir", cache_dir])
        assert code == 0
        assert "entries   0" in out

    def test_info_reports_local_backend(self, tmp_path):
        code, out = _capture(
            repro_main, ["cache", "info", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert f"run cache at {tmp_path}" in out
        assert "fragment store" in out
