import csv
from pathlib import Path

import numpy as np
import pytest

from soprl.agent import AgentConfig, SopAgent, evaluate_policy
from soprl.actions import ActionBounds
from soprl.envs import make_env
from soprl.harness import (CSV_COLUMNS, ConfigError, ExperimentConfig, config_defaults,
                           parse_config, run_experiment)
from soprl.seeds import derive_seed, make_rng


def tiny_overrides(**extra):
    base = dict(env="pointmass1d", steps=200, eval_interval=100, seeds=(1,),
                buffer=2000, batch=16, warmup=50, hidden=8)
    base.update(extra)
    return base


class TestParseConfig:
    def test_reference_defaults(self):
        cfg = parse_config({"env": "pointmass1d"})
        assert cfg.agent == AgentConfig()
        assert cfg.agent.gamma == 0.99
        assert cfg.agent.lr == 3e-4
        assert cfg.agent.sigma == 0.29
        assert cfg.agent.eta0 == 0.995
        assert cfg.agent.per_beta1 == 0.4 and cfg.agent.per_beta2 == 0.4
        assert cfg.agent.exp_lambda == 5e-6
        assert cfg.eval_interval == 5000 and cfg.eval_rollouts == 5
        assert cfg.agent.buffer_capacity == 1_000_000

    def test_missing_env_names_key(self):
        with pytest.raises(ConfigError, match="env"):
            parse_config({})

    def test_cli_overrides_apply(self):
        cfg = parse_config({"env": "pointmass1d", "sampler": "ere", "eta0": "0.993"})
        assert cfg.agent.sampler == "ere"
        assert cfg.agent.eta0 == 0.993

    def test_gamma_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config({"env": "pointmass1d", "gamma": "1.5"})

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config({"env": "pointmass1d", "learning_rate": "0.1"})

    def test_file_values_overridden_by_cli(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("env = pointmass1d\nsteps = 500  # comment\nsigma = 0.3\n")
        cfg = parse_config({"sigma": "0.25"}, config_file=path)
        assert cfg.env == "pointmass1d"
        assert cfg.steps == 500
        assert cfg.agent.sigma == 0.25

    def test_file_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning = 1\n")
        with pytest.raises(ConfigError, match="learning"):
            parse_config({"env": "pointmass1d"}, config_file=path)

    def test_file_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lr = 0.5\nlr = 0.001\n")
        with pytest.raises(ConfigError, match="^lr: repeated"):
            parse_config({"env": "pointmass1d"}, config_file=path)

    def test_bad_file_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps 500\n")
        with pytest.raises(ConfigError):
            parse_config({"env": "pointmass1d"}, config_file=path)

    def test_seed_list_parsing(self):
        cfg = parse_config({"env": "pointmass1d", "seeds": "3,5,8"})
        assert cfg.seeds == (3, 5, 8)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"env": "pointmass1d", "seeds": ""})

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config({"env": "pointmass1d", "steps": "many"})


# one legal non-default value per key, as a file and flag would spell it
NON_DEFAULT = {"env": "pointmass2d", "steps": "300", "eval_interval": "100",
               "eval_rollouts": "2", "seeds": "4,5", "out": "runs/x", "walltime": "true",
               "variant": "sop_ig", "sampler": "per", "gamma": "0.9", "tau": "0.01",
               "sigma": "0.2", "batch": "32", "lr": "0.001", "hidden": "16",
               "buffer": "5000", "eta0": "0.99", "beta1": "0.5", "beta2": "0.6",
               "exp_lambda": "1e-05", "warmup": "10"}


class TestConfigSurface:
    def test_every_key_has_a_non_default_case(self):
        assert set(NON_DEFAULT) == set(config_defaults())

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_file_key_and_flag_agree(self, key, tmp_path):
        from soprl.cli import _build_parser
        base = {"env": "pointmass1d"} if key != "env" else {}
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in {**base, key: NON_DEFAULT[key]}.items()))
        from_file = parse_config({}, config_file=path)
        assert from_file != parse_config(base or {"env": "pointmass1d"})
        for flag in dict.fromkeys([f"--{key}", f"--{key.replace('_', '-')}"]):
            argv = [flag] if key == "walltime" else [flag, NON_DEFAULT[key]]
            args = _build_parser().parse_args(
                ["run", *[tok for k, v in base.items() for tok in (f"--{k}", v)], *argv])
            assert parse_config({k: getattr(args, k) for k in config_defaults()}) == from_file

    def test_hand_written_flag_spellings_still_parse(self):
        from soprl.cli import _build_parser
        old = ["--env", "--variant", "--sampler", "--steps", "--seeds", "--out",
               "--eval-interval", "--eval-rollouts", "--gamma", "--tau", "--sigma", "--lr",
               "--eta0", "--beta1", "--beta2", "--exp_lambda", "--batch", "--hidden",
               "--buffer", "--warmup"]
        argv = [tok for flag in old for tok in (flag, NON_DEFAULT[flag[2:].replace("-", "_")])]
        args = _build_parser().parse_args(["run", *argv, "--walltime"])
        assert all(getattr(args, key) is not None for key in config_defaults())

    def test_non_string_overrides_pass_through(self):
        cfg = parse_config({"env": "pointmass1d", "seeds": (1,), "hidden": 16})
        assert cfg.seeds == (1,) and cfg.agent.hidden_dim == 16


class TestRunExperiment:
    def test_zero_steps_header_only_csv(self, tmp_path):
        cfg = parse_config(tiny_overrides(steps=0, out=str(tmp_path)))
        run_experiment(cfg)
        with open(tmp_path / "seed_1.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [CSV_COLUMNS]

    def test_csv_schema_exact(self, tmp_path):
        cfg = parse_config(tiny_overrides(out=str(tmp_path)))
        run_experiment(cfg)
        with open(tmp_path / "seed_1.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["step", "seed", "eval_return_mean", "eval_return_std",
                          "entropy_estimate", "saturation_fraction",
                          "mean_abs_mu_pre_norm", "eta_current", "wall_ms"]

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = parse_config(tiny_overrides(out=str(out_a)))
        cfg_b = parse_config(tiny_overrides(out=str(out_b)))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert (out_a / "seed_1.csv").read_bytes() == (out_b / "seed_1.csv").read_bytes()
        assert (out_a / "aggregate.csv").read_bytes() == (out_b / "aggregate.csv").read_bytes()

    def test_walltime_flag_populates_column(self, tmp_path):
        cfg = parse_config(tiny_overrides(out=str(tmp_path), walltime=True))
        run_experiment(cfg)
        with open(tmp_path / "seed_1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["wall_ms"]) > 0.0

    def test_default_wall_ms_zero(self, tmp_path):
        cfg = parse_config(tiny_overrides(out=str(tmp_path)))
        run_experiment(cfg)
        with open(tmp_path / "seed_1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["wall_ms"]) == 0.0 for r in rows)

    def test_failing_seed_isolated(self, tmp_path, monkeypatch):
        import soprl.harness as H

        orig = H.train
        calls = []

        def flaky(env, cfg, steps, seed, **kw):
            calls.append(seed)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return orig(env, cfg, steps, seed, **kw)

        monkeypatch.setattr(H, "train", flaky)
        cfg = parse_config(tiny_overrides(seeds="1,2", out=str(tmp_path)))
        summary = run_experiment(cfg)
        assert 1 in summary.failures and 2 in summary.records
        assert (tmp_path / "seed_2.csv").exists()

    def test_aggregate_mean_of_seeds(self, tmp_path):
        cfg = parse_config(tiny_overrides(seeds="1,2", out=str(tmp_path)))
        summary = run_experiment(cfg)
        with open(tmp_path / "aggregate.csv") as fh:
            agg = list(csv.DictReader(fh))
        step = int(agg[0]["step"])
        per_seed = [next(r.eval_return_mean for r in summary.records[s].rows
                         if r.step == step) for s in (1, 2)]
        assert float(agg[0]["eval_return_mean"]) == pytest.approx(np.mean(per_seed))


class TestEvaluate:
    def test_deterministic_policy_zero_std_per_fixed_start(self):
        cfg = AgentConfig(buffer_capacity=2000, hidden_dim=8, batch_size=16)
        agent = SopAgent(1, 1, ActionBounds.symmetric(0.1, 1), cfg, seed=0)
        env = make_env("pointmass1d")
        mean, std, _ = evaluate_policy(agent, env, rollouts=1, seed=3)
        assert std == 0.0

    def test_zero_policy_from_half_start(self):
        cfg = AgentConfig(buffer_capacity=2000, hidden_dim=8, batch_size=16)
        agent = SopAgent(1, 1, ActionBounds.symmetric(0.1, 1), cfg, seed=0)
        for _, arr in agent.policy.params.named_tensors():
            arr[...] = 0.0

        class FixedStart(type(make_env("pointmass1d"))):
            def _initial_state(self, rng):
                return np.array([0.5])

        mean, std, _ = evaluate_policy(agent, FixedStart(), rollouts=3, seed=1)
        assert mean == pytest.approx(-50 * 0.25)
        assert std == 0.0

    def test_rollouts_use_distinct_seeds(self):
        cfg = AgentConfig(buffer_capacity=2000, hidden_dim=8, batch_size=16)
        agent = SopAgent(1, 1, ActionBounds.symmetric(0.1, 1), cfg, seed=0)
        env = make_env("pointmass1d")
        mean, std, _ = evaluate_policy(agent, env, rollouts=5, seed=2)
        assert std > 0.0  # different starts produce different returns

    def test_rollout_count_validated(self):
        cfg = AgentConfig(buffer_capacity=2000, hidden_dim=8, batch_size=16)
        agent = SopAgent(1, 1, ActionBounds.symmetric(0.1, 1), cfg, seed=0)
        with pytest.raises(ValueError):
            evaluate_policy(agent, make_env("pointmass1d"), rollouts=0, seed=0)


class TestSeedDerivation:
    def test_derivation_deterministic_and_tag_sensitive(self):
        assert derive_seed(5, "a", 1) == derive_seed(5, "a", 1)
        assert derive_seed(5, "a", 1) != derive_seed(5, "a", 2)
        assert derive_seed(5, "a") != derive_seed(5, "b")
        assert derive_seed(5) != derive_seed(6)

    def test_make_rng_streams_independent(self):
        a = make_rng(0, "x").standard_normal(4)
        b = make_rng(0, "y").standard_normal(4)
        assert not np.array_equal(a, b)
