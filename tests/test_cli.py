import csv
import errno
import os
import subprocess
import sys

import numpy as np
import pytest

from soprl import analysis, cli
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
    (["analyze", "counts", "--scheme", "uniform_full", "--buffer", "3", "--updates", "2",
      "--trials", "2", "--eta", "7"], "eta"),
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
    (["run", *SMALL_RUN, "--lr", "inf"], "lr"),
    (["run", *SMALL_RUN, "--sigma", "inf"], "sigma"),
    (["run", *SMALL_RUN, "--sigma", "nan"], "sigma"),
    (["run", "--seeds", "1,1"], "seeds"),
    (["analyze", "counts", "--scheme", "uniform_full", "--buffer", "0"], "buffer")])
def test_bad_input_is_a_config_error_before_any_work(argv, key, tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "run":
        argv = [*argv, "--env", "pointmass1d", "--out", "out"]
    else:
        argv = [*argv, "--out", "counts.csv"]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ")
    if argv[0] == "analyze":  # the message names flags, not internal fields
        assert "capacity" not in err
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


def test_empty_start_error_names_the_flags_and_values(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["analyze", "counts", "--scheme", "ere_empty", "--out", "counts.csv"]
    assert run_cli(*argv, "--buffer", "50", "--updates", "60") == 2
    assert capsys.readouterr().err == ("config error: updates: an empty start needs "
                                       "--updates <= --buffer (got 60 > 50)\n")
    assert run_cli(*argv, "--buffer", "0", "--updates", "60") == 2  # buffer is checked first
    assert capsys.readouterr().err.startswith("config error: buffer: ")
    assert not any(tmp_path.iterdir())


def test_counts_out_that_is_a_directory_is_a_config_error(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output was checked")

    monkeypatch.setattr("soprl.analysis.expected_counts", no_work)
    (tmp_path / "taken").mkdir()
    assert run_cli("analyze", "counts", "--scheme", "uniform_full",
                   "--out", str(tmp_path / "taken")) == 2
    assert capsys.readouterr().err.startswith("config error: out: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert not any((tmp_path / "taken").iterdir())


COUNTS_SMALL = ["analyze", "counts", "--scheme", "ere_full", "--buffer", "30",
                "--updates", "20", "--trials", "10"]


def test_counts_write_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch):
    out = tmp_path / "counts.csv"
    out.write_bytes(b"previous\r\n")

    def fail_midway(fh, *columns):
        fh.write("index,analytic,empirical_mean,empirical_sigma\r\n0,")
        fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_write_counts", fail_midway)
    with pytest.raises(OSError, match="No space left"):
        run_cli(*COUNTS_SMALL, "--out", str(out))
    assert out.read_bytes() == b"previous\r\n"
    assert sorted(tmp_path.iterdir()) == [out]


def test_counts_out_replaces_the_previous_file(tmp_path, capsys):
    out = tmp_path / "counts.csv"
    out.write_bytes(b"previous\r\n")
    reference = tmp_path / "reference"
    with open(reference, "w"):  # the mode a plain open gives
        pass
    assert run_cli(*COUNTS_SMALL) == 0
    printed = capsys.readouterr().out.encode()
    assert run_cli(*COUNTS_SMALL, "--out", str(out)) == 0
    assert out.read_bytes() == printed
    assert out.stat().st_mode == reference.stat().st_mode
    assert sorted(tmp_path.iterdir()) == [out, reference]


def test_counts_csv_repr_per_bit_pattern(tmp_path, monkeypatch):
    # 0.0 == -0.0 and both hash alike, so a memo keyed by value renders one as the other
    tiny = 5e-324  # the smallest subnormal
    analytic = np.array([0.0, -0.0, 0.0, -0.0, 0.1, 0.1])
    empirical = np.array([-0.0, tiny, tiny, 0.0, 2.2250738585072014e-308 / 3, -0.0])
    sigma = np.array([1 / 3, 1 / 3, -0.0, float("nan"), float("inf"), 0.0])
    monkeypatch.setattr("soprl.analysis.expected_counts", lambda scn: analytic)
    monkeypatch.setattr("soprl.analysis.empirical_counts",
                        lambda scn, trials, rng: (empirical, sigma))
    out = tmp_path / "counts.csv"
    assert run_cli("analyze", "counts", "--scheme", "uniform_full", "--buffer", "4",
                   "--updates", "2", "--out", str(out)) == 0
    expected = "index,analytic,empirical_mean,empirical_sigma\r\n" + "".join(
        f"{i},{a!r},{e!r},{s!r}\r\n" for i, (a, e, s) in enumerate(zip(
            analytic.tolist(), empirical.tolist(), sigma.tolist())))
    assert out.read_bytes() == expected.encode()
    assert b"-0.0" in out.read_bytes() and b"5e-324" in out.read_bytes()


def test_counts_call_works_out_each_window_once(tmp_path, monkeypatch):
    # no work count is carried from one call to the next
    asked = []
    ere_range = analysis.ere_range

    def counted(k, *args, **kwargs):
        asked.append(k)
        return ere_range(k, *args, **kwargs)

    monkeypatch.setattr("soprl.analysis.ere_range", counted)
    argv = [*COUNTS_SMALL, "--out", str(tmp_path / "counts.csv")]
    assert run_cli(*argv) == 0
    assert asked == list(range(1, 21))
    assert run_cli(*argv) == 0
    assert asked == 2 * list(range(1, 21))


def test_run_where_every_seed_fails_writes_no_aggregate(tmp_path, monkeypatch, capsys):
    # lr = 1e300 passes the config checks, and the first update overflows
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", "--env", "pointmass1d", *SMALL_RUN, "--lr", "1e300",
                   "--out", "o") == 1
    out = capsys.readouterr().out
    assert "seed 0: FAILED (" in out
    assert "CSV output in" not in out
    assert not (tmp_path / "o" / "aggregate.csv").exists()


@pytest.mark.parametrize("flags, failure", [
    (["--sigma", "1e308"], "FloatingPointError: overflow encountered in multiply"),
    (["--sigma", "1e308", "--variant", "sop_ig"],
     "FloatingPointError: overflow encountered in multiply"),
    # Python-float arithmetic overflows with no numpy error: the CSV refuses it
    (["--sigma", "1e154"], "ValueError: entropy_estimate: inf at step 100 is not finite"),
    (["--lr", "1e200"], "FloatingPointError: overflow encountered in "),
])
def test_run_that_goes_non_finite_fails_the_seed_and_writes_no_csv(flags, failure, tmp_path):
    # a subprocess, so that numpy warnings reach stderr as a CLI run shows them
    proc = subprocess.run([sys.executable, "-m", "soprl", "run", "--env", "pointmass1d",
                           "--steps", "150", "--warmup", "50", "--batch", "8", "--hidden", "4",
                           "--buffer", "100", "--eval-interval", "100",
                           "--out", str(tmp_path), *flags],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[1].startswith(f"seed 0 failed: {failure}")
    assert list(tmp_path.iterdir()) == []  # no CSV, no aggregate, no temp file


def test_run_where_a_seed_csv_cannot_be_written_fails_only_that_seed(tmp_path, capsys):
    (tmp_path / "o" / "seed_2.csv").mkdir(parents=True)
    assert run_cli("run", "--env", "pointmass1d", *SMALL_RUN, "--seeds", "1,2,3",
                   "--out", str(tmp_path / "o")) == 1
    captured = capsys.readouterr()
    assert "seed 2 failed: IsADirectoryError: " in captured.err
    assert "seed 2: FAILED (IsADirectoryError: " in captured.out
    assert "seed 1: final eval return" in captured.out
    assert "seed 3: final eval return" in captured.out
    # the other seeds' CSVs, and an aggregate over them alone
    assert run_cli("run", "--env", "pointmass1d", *SMALL_RUN, "--seeds", "1,3",
                   "--out", str(tmp_path / "ref")) == 0
    for name in ("seed_1.csv", "seed_3.csv", "aggregate.csv"):
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_run_whose_aggregate_cannot_be_written_ends_in_one_error_line(tmp_path, capsys):
    (tmp_path / "aggregate.csv").mkdir()
    assert run_cli("run", "--env", "pointmass1d", *SMALL_RUN, "--seeds", "1",
                   "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("pointmass1d: ")  # the env's description
    assert err[1] == (f"aggregate not written: [Errno {errno.EISDIR}] "
                      f"{os.strerror(errno.EISDIR)}: '{tmp_path / 'aggregate.csv'}'")
    assert (tmp_path / "seed_1.csv").is_file()


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
