import json
import os
import re
import shlex
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from laifo import cli, imitate, nets
from laifo.cli import aggregate_runs, load_config, run
from laifo.theory import verify_instances
from laifo.envs import make_env
from laifo.imitate import Config


def test_load_config_defaults_match_reference_values(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("# nothing here\n\n")
    cfg = load_config(empty)
    assert cfg.d == 3
    assert cfg.gamma == 0.99
    assert cfg.batch == 256
    assert cfg.lr == 1e-4
    assert cfg.disc_lr == 4e-4
    assert cfg.penalty_weight == 10.0
    assert cfg.tau == 0.01
    assert cfg.clip_c == 0.3
    assert cfg.pad == 4
    assert cfg.eval_episodes == 10
    # the pixel size comes from the environment id, not the configuration
    with pytest.raises(ValueError, match="unknown config key 'image_size'"):
        load_config(None, {"image_size": 32})


def test_load_config_rejects_invalid_values(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma=1.1\n")
    with pytest.raises(ValueError, match="gamma"):
        load_config(bad)
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("niceness=3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(unknown)


@pytest.mark.parametrize("line", ["bc_steps=4", "stop_at_return=100"])
def test_load_config_refuses_retired_keys(tmp_path, line):
    # bc's budget is `frames`, and runs stop only at their budget
    path = tmp_path / "old.cfg"
    path.write_text(f"frames=8\n{line}\n")
    key = line.split("=")[0]
    with pytest.raises(ValueError, match=re.escape(f"unknown config key '{key}' in {path}:2")):
        load_config(path)


def test_load_config_booleans_are_strict(tmp_path):
    for raw, want in (("1", True), ("TRUE", True), ("Yes", True),
                      ("0", False), ("False", False), ("NO", False)):
        assert load_config(None, {"float32": raw}).float32 is want
    f = tmp_path / "typo.cfg"
    f.write_text("float32=ture\n")
    with pytest.raises(ValueError, match="'float32'.*'ture'"):
        load_config(f)


def test_load_config_numbers_name_the_key(tmp_path, capsys):
    with pytest.raises(ValueError, match="'batch' in command line expects an integer, got 'abc'"):
        load_config(None, {"batch": "abc"})
    f = tmp_path / "sci.cfg"
    f.write_text("seed=1\nframes=1e3\n")
    with pytest.raises(ValueError, match=f"'frames' in {f}:2 expects an integer"):
        load_config(f)
    with pytest.raises(ValueError, match="'lr' in command line expects a number"):
        load_config(None, {"lr": "fast"})
    code = run(["train-expert", "--env", "pointmass-v", "--out-dir",
                str(tmp_path / "x"), "--set", "batch=abc"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: config key 'batch' in command line expects an integer, got 'abc'\n"


def test_cli_misspelt_boolean_exits_1(tmp_path, capsys):
    code = run(["train-expert", "--env", "pointmass-v", "--out-dir",
                str(tmp_path / "x"), "--frames", "1", "--set", "float32=ture"])
    assert code == 1
    assert "error: config key 'float32'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_load_config_overrides_beat_file(tmp_path):
    f = tmp_path / "a.cfg"
    f.write_text("batch=256\nseed=3  # comment\n")
    cfg = load_config(f, {"batch": 64})
    assert cfg.batch == 64
    assert cfg.seed == 3


def test_cli_verify_theory_writes_json(tmp_path, capsys):
    out = tmp_path / "theorem2.json"
    code = run(["verify-theory", "--claim", "theorem2", "--instances", "5",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 5
    assert all(r["claim"] == "theorem2" for r in reports)
    assert all(r["slack"] >= -1e-8 for r in reports)
    text = capsys.readouterr().out
    assert "theorem2" in text and "5/5 hold" in text


def test_cli_verify_theory_prints_json_without_out(capsys):
    assert run(["verify-theory", "--claim", "lemma4", "--instances", "2"]) == 0
    text = capsys.readouterr().out
    printed = json.loads(text[text.index("\n[") + 1:])
    assert printed == [r.to_dict() for r in verify_instances("lemma4", 2, seed=0)]


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_command_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # like `laifo ... | head` once head has exited
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-m", "laifo.cli", "verify-theory", "--claim",
                               "all", "--instances", "2"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == -signal.SIGPIPE


def test_verify_instances_search_each_instance_once(monkeypatch):
    search, calls = cli.theory.pair_step, []

    def counted(pomdp, scheme):
        calls.append(scheme)
        return search(pomdp, scheme)

    monkeypatch.setattr(cli.theory, "pair_step", counted)
    # every claim generates POMDPs, each searched once: 7 claims x 25 instances
    for claim in cli.theory.CLAIMS:
        verify_instances(claim, 25, seed=0)
    assert len(calls) == 175


def test_verify_instances_lemma4():
    reports = verify_instances("lemma4", 50, seed=3)
    assert all(r.slack >= -1e-12 for r in reports)


def test_cli_unknown_flag_errors():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["imitate", "--frobnicate"])


def test_cli_end_to_end_tiny_run(tmp_path, capsys):
    exp_dir = tmp_path / "expert"
    code = run(["train-expert", "--env", "pointmass-v", "--out-dir", str(exp_dir),
                "--frames", "300",
                "--set", "batch=8", "--set", "hidden=8", "--set", "z_dim=4",
                "--set", "warmup=50", "--set", "eval_interval=300",
                "--set", "eval_episodes=1", "--set", "sigma_decay_frames=100"])
    assert code == 0
    assert (exp_dir / "expert.ckpt").exists()
    assert (exp_dir / "metrics.csv").exists()
    assert "expert_score" in json.loads((exp_dir / "meta.json").read_text())

    data_path = tmp_path / "E.laifo"
    code = run(["record", "--env", "pointmass-v", "--ckpt",
                str(exp_dir / "expert.ckpt"), "--episodes", "3",
                "--out", str(data_path), "--seed", "1"])
    assert code == 0
    assert data_path.exists()

    run_dir = tmp_path / "runs" / "a"
    code = run(["imitate", "--algo", "laifo", "--env", "pointmass-v",
                "--expert-data", str(data_path), "--out-dir", str(run_dir),
                "--frames", "120", "--seed", "0",
                "--set", "batch=8", "--set", "hidden=8", "--set", "z_dim=4",
                "--set", "warmup=40", "--set", "eval_interval=60",
                "--set", "eval_episodes=1", "--set", "sigma_decay_frames=60"])
    assert code == 0
    assert (run_dir / "metrics.csv").exists()
    assert (run_dir / "final.ckpt").exists()
    assert (run_dir / "config.txt").exists()
    meta = json.loads((run_dir / "meta.json").read_text())
    assert meta["algo"] == "laifo"
    assert len(meta["expert_data_sha256"]) == 64
    assert "expert_score" in meta

    rep_dir = tmp_path / "report"
    code = run(["report", "--run-dirs", str(run_dir), "--out-dir", str(rep_dir)])
    assert code == 0
    agg = (rep_dir / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "algo,env,seed,final_return,normalized_return,frames_to_75pct"
    assert len(agg) == 2


def _tiny_dataset(path):
    from laifo.replay import Episode, ExpertDataset, save_dataset
    rng = np.random.default_rng(0)
    save_dataset(ExpertDataset("pointmass-v", (2,), (2,), [
        Episode(rng.uniform(-1, 1, (6, 2)).astype(np.float32),
                rng.uniform(-1, 1, (5, 2)).astype(np.float32),
                np.ones(5, dtype=np.float32))]), path)


def _run_bc(tmp_path):
    data_path = tmp_path / "E.laifo"
    _tiny_dataset(data_path)
    run_dir = tmp_path / "bc"
    code = run(["imitate", "--algo", "bc", "--env", "pointmass-v",
                "--expert-data", str(data_path), "--out-dir", str(run_dir),
                "--frames", "4", "--set", "eval_interval=2", "--set", "batch=4",
                "--set", "hidden=8", "--set", "z_dim=4", "--set", "eval_episodes=1"])
    assert code == 0
    return run_dir


def test_cli_bc_writes_run_dir(tmp_path):
    run_dir = _run_bc(tmp_path)
    for name in ("metrics.csv", "final.ckpt", "config.txt", "meta.json"):
        assert (run_dir / name).exists(), name
    assert json.loads((run_dir / "meta.json").read_text())["algo"] == "bc"
    # --frames counts bc's gradient steps: one row per eval_interval steps
    rows = (run_dir / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["2", "4"]
    assert "frames=4\n" in (run_dir / "config.txt").read_text()


def test_cli_bc_checkpoint_holds_only_the_actor_and_encoder(tmp_path):
    # bc trains no critic, so it builds and saves none
    names = nets.load_checkpoint(_run_bc(tmp_path) / "final.ckpt")
    assert {name.split(".")[0] for name in names} == {"actor", "enc"}


def test_cli_rl_plus_videos_baseline_writes_run_dir(tmp_path):
    data_path = tmp_path / "E.laifo"
    _tiny_dataset(data_path)
    run_dir = tmp_path / "rlv"
    code = run(["imitate", "--algo", "rl_plus_videos", "--env", "pointmass-v",
                "--expert-data", str(data_path), "--out-dir", str(run_dir),
                "--set", "imit_reward_scale=0", "--frames", "30", "--set", "batch=4",
                "--set", "hidden=8", "--set", "z_dim=4", "--set", "warmup=10",
                "--set", "eval_interval=30", "--set", "eval_episodes=1"])
    assert code == 0
    for name in ("metrics.csv", "final.ckpt", "config.txt", "meta.json"):
        assert (run_dir / name).exists(), name
    assert "imit_reward_scale=0.0\n" in (run_dir / "config.txt").read_text()
    assert json.loads((run_dir / "meta.json").read_text())["algo"] == "rl_plus_videos"


def test_cli_zero_frame_dataset_exits_1(tmp_path, capsys):
    from laifo.replay import DATASET_MAGIC
    data_path = tmp_path / "empty.laifo"
    header = json.dumps({"env": "pointmass-v", "obs_shape": [2], "act_shape": [2],
                         "episodes": 1, "dtype": "f32le", "has_actions": True,
                         "has_rewards": True}).encode()
    data_path.write_bytes(DATASET_MAGIC + struct.pack("<I", len(header))
                          + header + struct.pack("<I", 0))
    code = run(["imitate", "--algo", "laifo", "--env", "pointmass-v",
                "--expert-data", str(data_path), "--out-dir", str(tmp_path / "x"),
                "--frames", "50"])
    assert code == 1
    assert capsys.readouterr().err == "error: dataset episode 0 declares no frames\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_cli_bc_without_steps_exits_1(tmp_path, capsys, steps):
    data_path = tmp_path / "E.laifo"
    _tiny_dataset(data_path)
    run_dir = tmp_path / "bc"
    code = run(["imitate", "--algo", "bc", "--env", "pointmass-v",
                "--expert-data", str(data_path), "--out-dir", str(run_dir),
                "--frames", steps])
    assert code == 1
    assert capsys.readouterr().err == "error: frames must be >= 1\n"
    assert not run_dir.exists()


def test_cli_train_expert_writes_resolved_config(tmp_path):
    # the expert's run directory is written like an imitation run's: its
    # config.txt holds the resolved budget and the one privileged state
    exp_dir = tmp_path / "expert"
    assert run(["train-expert", "--env", "pointmass-v", "--out-dir", str(exp_dir),
                "--frames", "2", "--set", "d=3", "--set", "batch=8", "--set", "hidden=8",
                "--set", "eval_episodes=1"]) == 0
    assert sorted(p.name for p in exp_dir.iterdir()) == [
        "config.txt", "expert.ckpt", "meta.json", "metrics.csv"]
    lines = (exp_dir / "config.txt").read_text().splitlines()
    assert [line.split("=")[0] for line in lines] == list(cli._CONFIG_FIELDS)
    assert "frames=2" in lines and "d=1" in lines and "batch=8" in lines


def test_cli_record_privileged_stores_states(tmp_path):
    exp_dir = tmp_path / "expert"
    assert run(["train-expert", "--env", "pointmass-v", "--out-dir", str(exp_dir),
                "--frames", "1", "--set", "batch=8", "--set", "hidden=8",
                "--set", "z_dim=4", "--set", "eval_episodes=1"]) == 0
    paths = {}
    for flag in ("", "--privileged"):
        paths[flag] = tmp_path / f"E{flag}.laifo"
        assert run(["record", "--env", "pointmass-v", "--ckpt",
                    str(exp_dir / "expert.ckpt"), "--episodes", "2",
                    "--out", str(paths[flag])] + ([flag] if flag else [])) == 0
    from laifo.replay import load_dataset
    obs, states = (load_dataset(paths[k]) for k in ("", "--privileged"))
    assert obs.obs_shape == (2,) and states.obs_shape == (4,)
    for o, st in zip(obs.episodes, states.episodes):
        # the observation is the position, the first half of the state
        assert np.array_equal(o.observations, st.observations[:, :2])
        assert np.array_equal(o.actions, st.actions)


_BAD_SETTINGS = [("eval_interval=0", "eval_interval must be >= 1"),
                 ("eval_interval=-3", "eval_interval must be >= 1"),
                 ("z_dim=0", "z_dim must be >= 1"),
                 ("hidden=0", "hidden must be >= 1"),
                 ("sigma_decay_frames=-1", "sigma_decay_frames must be >= 0"),
                 ("warmup=-5", "warmup must be >= 0"),
                 ("lr=-1", "lr must be > 0"),
                 ("disc_lr=0", "disc_lr must be > 0"),
                 ("lr=inf", "lr must be finite, got inf"),
                 ("imit_reward_scale=nan", "imit_reward_scale must be finite, got nan"),
                 ("disc_lr=inf", "disc_lr must be finite, got inf"),
                 ("sigma_end=inf", "sigma_end must be finite, got inf"),
                 ("penalty_weight=inf", "penalty_weight must be finite, got inf"),
                 ("clip_c=inf", "clip_c must be finite, got inf")]


@pytest.mark.parametrize("setting, message", _BAD_SETTINGS,
                         ids=[s for s, _ in _BAD_SETTINGS])
def test_cli_bad_config_exits_1(tmp_path, capsys, setting, message):
    code = run(["train-expert", "--env", "pointmass-v", "--out-dir",
                str(tmp_path / "x"), "--frames", "1", "--set", setting])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


def test_cli_verify_theory_zero_instances_exits_1(tmp_path, capsys):
    code = run(["verify-theory", "--instances", "0", "--out", str(tmp_path / "t.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: --instances must be >= 1, got 0\n"
    assert not (tmp_path / "t.json").exists()


def test_cli_lail_without_actions_exits_2(tmp_path, capsys):
    exp_dir = tmp_path / "expert"
    run(["train-expert", "--env", "pointmass-v", "--out-dir", str(exp_dir),
         "--frames", "1", "--set", "batch=8", "--set", "hidden=8",
         "--set", "z_dim=4", "--set", "eval_episodes=1"])
    data_path = tmp_path / "noact.laifo"
    run(["record", "--env", "pointmass-v", "--ckpt", str(exp_dir / "expert.ckpt"),
         "--episodes", "2", "--out", str(data_path), "--no-with-actions"])
    code = run(["imitate", "--algo", "lail", "--env", "pointmass-v",
                "--expert-data", str(data_path), "--out-dir",
                str(tmp_path / "x"), "--frames", "50"])
    assert code == 2
    assert "expert actions required" in capsys.readouterr().err


def test_cli_tabular_env_id_exits_1(tmp_path, capsys):
    from laifo.replay import Episode, ExpertDataset, save_dataset
    data_path = tmp_path / "tiny.laifo"
    obs = np.zeros((3, 2), dtype=np.float32)
    save_dataset(ExpertDataset("pointmass-v", (2,), (2,), [
        Episode(obs, np.zeros((2, 2), dtype=np.float32),
                np.zeros(2, dtype=np.float32))]), data_path)
    for command in (["imitate", "--algo", "rl_plus_videos"], ["imitate", "--algo", "bc"],
                    ["imitate", "--algo", "rl_plus_videos", "--set", "imit_reward_scale=0"]):
        code = run(command + ["--env", "tabular:mdp-s4-a2",
                              "--expert-data", str(data_path), "--out-dir",
                              str(tmp_path / "x"), "--frames", "50"])
        assert code == 1
        assert "unknown environment id 'tabular:mdp-s4-a2'" in capsys.readouterr().err


def test_cli_dataset_action_shape_mismatch_exits_2(tmp_path, capsys):
    from laifo.replay import Episode, ExpertDataset, save_dataset
    data_path = tmp_path / "wide.laifo"
    save_dataset(ExpertDataset("pointmass-v", (2,), (3,), [
        Episode(np.zeros((3, 2), dtype=np.float32), np.zeros((2, 3), dtype=np.float32),
                np.zeros(2, dtype=np.float32))]), data_path)
    code = run(["imitate", "--algo", "lail", "--env", "pointmass-v",
                "--expert-data", str(data_path), "--out-dir", str(tmp_path / "x"),
                "--frames", "50"])
    assert code == 2
    err = capsys.readouterr().err
    assert "actions (3,)" in err and "(2,)" in err
    assert not (tmp_path / "x").exists()


def test_cli_non_finite_dataset_exits_1(tmp_path, capsys):
    from laifo.replay import Episode, ExpertDataset, save_dataset
    data_path = tmp_path / "nan.laifo"
    obs = np.zeros((3, 2), dtype=np.float32)
    obs[1, 0] = 7.0
    save_dataset(ExpertDataset("pointmass-v", (2,), (2,), [
        Episode(obs, np.zeros((2, 2), dtype=np.float32),
                np.zeros(2, dtype=np.float32))]), data_path)
    raw = data_path.read_bytes()
    data_path.write_bytes(raw.replace(np.float32(7.0).tobytes(),
                                      np.float32(np.nan).tobytes()))
    code = run(["imitate", "--algo", "lail", "--env", "pointmass-v",
                "--expert-data", str(data_path), "--out-dir", str(tmp_path / "x"),
                "--frames", "50"])
    assert code == 1
    assert capsys.readouterr().err == "error: episode 0: observations hold NaN or inf\n"
    assert not (tmp_path / "x").exists()


def test_cli_sparse_pendulum_exits_1(tmp_path, capsys):
    code = run(["train-expert", "--env", "pendulum-po", "--reward-mode", "sparse",
                "--out-dir", str(tmp_path / "x"), "--frames", "1"])
    assert code == 1
    assert "error: pendulum-po has only the dense reward" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_record_truncated_checkpoint_exits_1(tmp_path, capsys):
    ckpt = tmp_path / "expert.ckpt"
    nets.save_checkpoint(ckpt, [("actor.l0.W", np.ones((4, 2)))])
    ckpt.write_bytes(ckpt.read_bytes()[:len(nets.CKPT_MAGIC) + 2])
    code = run(["record", "--env", "pointmass-v", "--ckpt", str(ckpt),
                "--episodes", "1", "--out", str(tmp_path / "E.laifo")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_record_manifest_without_params_exits_1(tmp_path, capsys):
    ckpt = tmp_path / "expert.ckpt"
    ckpt.write_bytes(nets.CKPT_MAGIC + struct.pack("<I", 2) + b"{}")
    code = run(["record", "--env", "pointmass-v", "--ckpt", str(ckpt),
                "--episodes", "1", "--out", str(tmp_path / "E.laifo")])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: checkpoint manifest has no 'params' entry\n"


def test_cli_header_value_of_wrong_type_exits_1(tmp_path, capsys):
    from laifo.replay import DATASET_MAGIC
    data_path = tmp_path / "bad.laifo"
    header = json.dumps({"env": "pointmass-v", "obs_shape": [2], "act_shape": [2],
                         "episodes": "1", "dtype": "f32le", "has_actions": True,
                         "has_rewards": True}).encode()
    data_path.write_bytes(DATASET_MAGIC + struct.pack("<I", len(header)) + header)
    code = run(["imitate", "--algo", "laifo", "--env", "pointmass-v",
                "--expert-data", str(data_path), "--out-dir", str(tmp_path / "x"),
                "--frames", "50"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: dataset header entry 'episodes' must be int, got '1'\n"
    ckpt = tmp_path / "expert.ckpt"
    ckpt.write_bytes(nets.CKPT_MAGIC + struct.pack("<I", 13) + b'{"params": 5}')
    code = run(["record", "--env", "pointmass-v", "--ckpt", str(ckpt),
                "--episodes", "1", "--out", str(tmp_path / "E.laifo")])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: checkpoint manifest entry 'params' must be list, got 5\n"


def _save_bundle(path, obs_shape, full_state, pairing="transition"):
    """A checkpoint of freshly built networks (hidden 8, z_dim 4) acting on
    2-wide actions."""
    imitate.build_bundle(Config(hidden=8, z_dim=4), obs_shape, 2, pairing,
                         np.random.default_rng(0), full_state=full_state).save(path)


def test_cli_record_refuses_an_actor_that_does_not_act_on_the_state(tmp_path, capsys):
    # a laifo learner's actor acts on 4-wide latents: as wide as the state
    ckpt = tmp_path / "final.ckpt"
    _save_bundle(ckpt, (2,), full_state=False)
    out = tmp_path / "E.laifo"
    code = run(["record", "--env", "pointmass-v", "--ckpt", str(ckpt),
                "--episodes", "1", "--out", str(out)])
    assert code == 1
    assert "has encoder parameters" in capsys.readouterr().err
    # a pointmass-v state actor on pendulum-po, whose state and action are narrower
    expert = tmp_path / "expert.ckpt"
    _save_bundle(expert, (4,), full_state=True)
    code = run(["record", "--env", "pendulum-po", "--ckpt", str(expert),
                "--episodes", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: checkpoint actor.l0.W has shape (4, 8), expected (2, 8)\n"
    assert not out.exists()


@pytest.mark.parametrize("pairing", ["action", "transition"])  # dac, dacfo
def test_cli_record_accepts_full_state_learners(tmp_path, pairing):
    ckpt = tmp_path / "final.ckpt"
    _save_bundle(ckpt, (4,), full_state=True, pairing=pairing)
    out = tmp_path / "E.laifo"
    assert run(["record", "--env", "pointmass-v", "--ckpt", str(ckpt),
                "--episodes", "1", "--out", str(out), "--privileged"]) == 0
    assert out.exists()


def _readme_commands():
    """The argv of each `laifo ...` line of README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("laifo ")]


def test_readme_command_lines_are_accepted():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "train-expert", "record", "imitate", "report", "verify-theory"}
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if "set" in vars(args):
            cli._build_config(args)
        if "env" in vars(args):
            make_env(args.env)


def test_report_requires_expert_score(tmp_path):
    run_dir = tmp_path / "r"
    os.makedirs(run_dir)
    (run_dir / "meta.json").write_text(json.dumps({"algo": "laifo",
                                                   "env": "pointmass-v",
                                                   "seed": 0}))
    (run_dir / "metrics.csv").write_text("frame,episode,eval_return\n1,0,5.0\n")
    with pytest.raises(ValueError, match="expert score"):
        aggregate_runs([str(run_dir)])


def _report_run(run_dir, meta):
    os.makedirs(run_dir)
    (run_dir / "meta.json").write_text(json.dumps(meta))
    (run_dir / "metrics.csv").write_text("frame,episode,eval_return\n1,0,5.0\n")


def test_cli_report_expert_run_dir_exits_1(tmp_path, capsys):
    # train-expert writes no algo into its meta.json
    run_dir = tmp_path / "expert"
    _report_run(run_dir, {"kind": "expert", "env": "pointmass-v", "seed": 0,
                          "expert_score": 50.0})
    code = run(["report", "--run-dirs", str(run_dir), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == \
        f"error: {run_dir}: not an imitation run (meta.json names no algo)\n"


def test_cli_report_zero_expert_score_exits_1(tmp_path, capsys):
    run_dir = tmp_path / "r"
    _report_run(run_dir, {"algo": "laifo", "env": "pointmass-v", "seed": 0,
                          "expert_score": 0.0})
    code = run(["report", "--run-dirs", str(run_dir), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run_dir}: the expert score is 0")


_METRICS = "frame,episode,eval_return,disc_loss,critic_loss,actor_loss,imit_reward_mean," \
    "wall_clock_s,seed\n1000,0,5.0,0,0,0,0,0,0\n"
_GOOD_META = {"algo": "laifo", "env": "pointmass-v", "seed": 0, "expert_score": 10.0}


@pytest.mark.parametrize("meta, metrics, message", [
    ({k: v for k, v in _GOOD_META.items() if k != "env"}, _METRICS,
     "meta.json has no 'env' entry"),
    ({k: v for k, v in _GOOD_META.items() if k != "seed"}, _METRICS,
     "meta.json has no 'seed' entry"),
    ({**_GOOD_META, "seed": "0"}, _METRICS, "meta.json entry 'seed' must be int"),
    ({**_GOOD_META, "expert_score": "10"}, _METRICS,
     "meta.json entry 'expert_score' must be float"),
    (7, _METRICS, "meta.json holds 7, not an object"),
    (_GOOD_META, _METRICS.replace("frame,", "step,", 1), "metrics.csv header"),
    (_GOOD_META, _METRICS.replace("eval_return", "return"), "metrics.csv header"),
    (_GOOD_META, _METRICS + "2000,0\n", "metrics.csv line 3 does not hold"),
    (_GOOD_META, _METRICS + "2000,0,x,0,0,0,0,0,0\n", "metrics.csv line 3 does not hold"),
], ids=["no-env", "no-seed", "str-seed", "str-expert-score", "bare-number",
        "no-frame-column", "no-eval-return-column", "short-row", "non-numeric-return"])
def test_cli_report_malformed_run_dir_exits_1(tmp_path, capsys, meta, metrics, message):
    run_dir = tmp_path / "r"
    os.makedirs(run_dir)
    (run_dir / "meta.json").write_text(json.dumps(meta))
    (run_dir / "metrics.csv").write_text(metrics)
    code = run(["report", "--run-dirs", str(run_dir), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {run_dir}: {message}")


def test_report_normalization_and_na(tmp_path):
    def make_run(name, algo, seed, returns, expert=100.0):
        d = tmp_path / name
        os.makedirs(d)
        (d / "meta.json").write_text(json.dumps(
            {"algo": algo, "env": "pointmass-v", "seed": seed,
             "expert_score": expert}))
        rows = ["frame,episode,eval_return,disc_loss,critic_loss,actor_loss,"
                "imit_reward_mean,wall_clock_s,seed"]
        for i, ret in enumerate(returns, 1):
            rows.append(f"{i * 1000},0,{ret},0,0,0,0,0,{seed}")
        (d / "metrics.csv").write_text("\n".join(rows) + "\n")
        return str(d)

    a = make_run("a", "laifo", 0, [10.0, 80.0, 100.0])
    b = make_run("b", "laifo", 1, [10.0, 20.0, 30.0])
    rows = aggregate_runs([a, b])
    assert rows[0]["normalized_return"] == pytest.approx(1.0)
    assert rows[0]["frames_to_75pct"] == 2000
    assert rows[1]["frames_to_75pct"] == "NA"
    # aggregate mean equals the hand-computed arithmetic mean
    mean = np.mean([r["normalized_return"] for r in rows])
    assert mean == pytest.approx((1.0 + 0.3) / 2)
