import csv
import subprocess
import sys

import pytest

from soprl.cli import main


def run_cli(*args):
    return main(list(args))


# a run small enough that a value missed by the config checks fails within seconds
SMALL_RUN = ["--steps", "300", "--warmup", "100", "--buffer", "2000", "--batch", "16",
             "--hidden", "8", "--eval-interval", "100"]


class TestRunCommand:
    def test_run_writes_csvs(self, tmp_path, capsys):
        code = run_cli("run", "--env", "pointmass1d", "--steps", "150",
                       "--seeds", "1", "--out", str(tmp_path),
                       "--eval-interval", "50", "--buffer", "2000",
                       "--batch", "16", "--warmup", "50", "--hidden", "8")
        assert code == 0
        assert (tmp_path / "seed_1.csv").exists()
        assert (tmp_path / "aggregate.csv").exists()
        out = capsys.readouterr().out
        assert "final eval return" in out

    def test_rejects_bad_gamma(self, capsys):
        code = run_cli("run", "--env", "pointmass1d", "--gamma", "1.5")
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_config_file_plus_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("env = pointmass1d\nsteps = 120\nbuffer = 2000\n"
                       "batch = 16\nwarmup = 50\nhidden = 8\neval_interval = 60\n")
        out = tmp_path / "out"
        code = run_cli("run", "--config", str(cfg), "--seeds", "2",
                       "--out", str(out))
        assert code == 0
        assert (out / "seed_2.csv").exists()


@pytest.mark.parametrize("argv, key", [
    (["run", "--lr", "-1"], "lr"), (["run", "--lr", "0"], "lr"),
    (["run", "--buffer", "0"], "buffer"), (["run", "--hidden", "0"], "hidden"),
    (["run", "--eval-rollouts", "0"], "eval_rollouts"), (["run", "--warmup", "-1"], "warmup"),
    (["run", "--sigma", "-0.1"], "sigma"), (["run", "--eta0", "1.5"], "eta0"),
    (["run", "--config", "missing.cfg"], "config"),
    (["analyze", "counts", "--scheme", "ere_full", "--eta", "1.5"], "eta"),
    (["analyze", "counts", "--scheme", "uniform_empty", "--buffer", "50",
      "--updates", "60"], "updates"),
    (["analyze", "counts", "--scheme", "uniform_full", "--trials", "0"], "trials"),
    (["run", "--sigma", "0"], "sigma"),
    (["run", *SMALL_RUN, "--sampler", "exp", "--exp_lambda", "0"], "exp_lambda"),
    (["run", *SMALL_RUN, "--sampler", "exp", "--exp_lambda", "-1"], "exp_lambda"),
    (["run", *SMALL_RUN, "--sampler", "exp", "--exp_lambda", "inf"], "exp_lambda"),
    (["run", *SMALL_RUN, "--sampler", "per", "--beta1", "nan"], "beta1"),
    (["run", *SMALL_RUN, "--sampler", "per", "--beta1", "-0.5"], "beta1"),
    (["run", *SMALL_RUN, "--sampler", "per", "--beta2", "nan"], "beta2"),
    (["run", *SMALL_RUN, "--sampler", "per", "--beta2", "inf"], "beta2"),
    (["run", *SMALL_RUN, "--lr", "inf"], "lr")])
def test_bad_input_is_a_config_error_before_any_work(argv, key, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "run":
        argv = [*argv, "--env", "pointmass1d", "--out", "out"]
    else:
        argv = [*argv, "--out", "counts.csv"]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["analyze", "counts", "--scheme", "uniform_full", "--out", "missing_dir/x.csv"],
    ["run", "--env", "pointmass1d", "--out", "taken"]], ids=["analyze", "run"])
def test_unwritable_out_is_a_config_error(argv, tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("soprl.analysis.expected_counts", no_work)
    monkeypatch.setattr("soprl.harness.train", no_work)
    (tmp_path / "taken").write_text("a file, not a directory")
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("config error: out: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert (tmp_path / "taken").read_text() == "a file, not a directory"


class TestAnalyzeCommand:
    def test_counts_csv_schema(self, tmp_path):
        out = tmp_path / "counts.csv"
        code = run_cli("analyze", "counts", "--scheme", "uniform_full",
                       "--buffer", "100", "--updates", "100",
                       "--trials", "200", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "analytic", "empirical_mean", "empirical_sigma"]
        assert len(rows) == 1 + 200  # capacity + updates positions

    def test_ere_scheme_uses_eta(self, tmp_path):
        out = tmp_path / "ere.csv"
        code = run_cli("analyze", "counts", "--scheme", "ere_full",
                       "--eta", "0.99", "--buffer", "50", "--updates", "50",
                       "--trials", "100", "--out", str(out))
        assert code == 0


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "soprl", "analyze", "counts",
                           "--scheme", "uniform_full", "--buffer", "10", "--updates", "10",
                           "--trials", "10"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "index,analytic,empirical_mean,empirical_sigma"
    assert len(lines) == 1 + 20  # capacity + updates positions
