import json
import os

import numpy as np
import pytest

from laifo import cli, nets
from laifo.cli import aggregate_runs, load_config, run, verify_instances
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
    assert cfg.image_size == 84
    assert cfg.eval_episodes == 10


def test_load_config_rejects_invalid_values(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma=1.1\n")
    with pytest.raises(ValueError, match="gamma"):
        load_config(bad)
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("niceness=3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(unknown)


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


def test_cli_tabular_env_exits_2(tmp_path, capsys):
    from laifo.replay import Episode, ExpertDataset, save_dataset
    data_path = tmp_path / "tiny.laifo"
    obs = np.zeros((3, 2), dtype=np.float32)
    save_dataset(ExpertDataset("pointmass-v", (2,), (2,), [
        Episode(obs, np.zeros((2, 2), dtype=np.float32),
                np.zeros(2, dtype=np.float32))]), data_path)
    for algo in ("rl_plus_videos", "bc"):
        code = run(["imitate", "--algo", algo, "--env", "tabular:mdp-s4-a2",
                    "--expert-data", str(data_path), "--out-dir",
                    str(tmp_path / "x"), "--frames", "50"])
        assert code == 2
        assert "tabular:mdp-s4-a2" in capsys.readouterr().err


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


def test_report_requires_expert_score(tmp_path):
    run_dir = tmp_path / "r"
    os.makedirs(run_dir)
    (run_dir / "meta.json").write_text(json.dumps({"algo": "laifo",
                                                   "env": "pointmass-v",
                                                   "seed": 0}))
    (run_dir / "metrics.csv").write_text("frame,episode,eval_return\n1,0,5.0\n")
    with pytest.raises(ValueError, match="expert score"):
        aggregate_runs([str(run_dir)])


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
