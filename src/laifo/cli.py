"""Command-line entry point: expert training, dataset recording,
imitation runs, bound verification, and run-directory aggregation."""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import signal
import sys
from dataclasses import fields

import numpy as np

from . import expertgen, imitate, nets, replay, theory
from .envs import FullyObservableWrapper, make_env
from .imitate import CapabilityError, Config, ReportRow

_CONFIG_FIELDS = tuple(f.name for f in fields(Config))
_METRICS_HEADER = tuple(f.name for f in fields(ReportRow))
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def load_config(path=None, overrides=None):
    """Config from a key=value file plus override pairs (CLI flags win)."""
    defaults = Config()
    values = {}

    def ingest(key, raw, where):
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"unknown config key {key!r} in {where}")
        kind = type(getattr(defaults, key))
        if kind is bool:
            word = str(raw).lower()
            if word not in _BOOLEANS:
                raise ValueError(f"config key {key!r} in {where} expects one of "
                                 f"{'/'.join(_BOOLEANS)}, got {raw!r}")
            values[key] = _BOOLEANS[word]
        else:
            try:
                values[key] = kind(raw)
            except ValueError:
                raise ValueError(f"config key {key!r} in {where} expects "
                                 f"{'an integer' if kind is int else 'a number'}, "
                                 f"got {raw!r}") from None

    if path:
        with open(path) as f:
            for ln, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{ln}: expected key=value")
                key, raw = (s.strip() for s in line.split("=", 1))
                ingest(key, raw, f"{path}:{ln}")
    for key, raw in (overrides or {}).items():
        ingest(key, str(raw), "command line")
    return Config(**values)


def _dataset_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_run_dir(out_dir, report, ckpt, **meta):
    """A run directory: `metrics.csv` (a `ReportRow` a line), the trained
    bundle as `ckpt`, `config.txt` (the configuration as the run resolved
    it) and `meta.json` (the `meta` entries)."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(_METRICS_HEADER)
        w.writerows([r.frame, r.episode, f"{r.eval_return:.10g}", f"{r.disc_loss:.10g}",
                     f"{r.critic_loss:.10g}", f"{r.actor_loss:.10g}",
                     f"{r.imit_reward_mean:.10g}", f"{r.wall_clock_s:.3f}", r.seed]
                    for r in report.rows)
    report.bundle.save(os.path.join(out_dir, ckpt))
    with open(os.path.join(out_dir, "config.txt"), "w") as f:
        f.writelines(f"{key}={getattr(report.cfg, key)}\n" for key in _CONFIG_FIELDS)
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)


def _config_flags(parser):
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config entry (repeatable)")
    parser.add_argument("--frames", type=int)
    parser.add_argument("--seed", type=int)


def _build_config(args):
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        overrides[key.strip()] = raw.strip()
    for key in ("frames", "seed"):
        v = getattr(args, key, None)
        if v is not None:
            overrides[key] = v
    return load_config(args.config, overrides)


def _load_state_policy(ckpt_path, env):
    """The checkpoint's actor, which must map `env`'s privileged state to
    its actions, as a `StatePolicy`; only its width is read from the file."""
    loaded = nets.load_checkpoint(ckpt_path)
    first = loaded.get("actor.l0.W")
    if first is None or first.ndim != 2:
        raise ValueError(f"{ckpt_path}: no actor weight matrix in checkpoint")
    if any(n.startswith("enc.") for n in loaded):
        raise ValueError(f"{ckpt_path}: the checkpoint has encoder parameters, so its "
                         f"actor acts on latents, not on the state")
    actor = nets.make_actor(np.random.default_rng(0), env.state_dim, env.act_dim,
                            hidden=first.shape[1])
    nets.load_into([actor], loaded)
    return expertgen.StatePolicy(imitate.AgentBundle(actor=actor))


def cmd_train_expert(args):
    cfg = _build_config(args)
    env = make_env(args.env, seed=cfg.seed, reward_mode=args.reward_mode)
    report = expertgen.train_expert(env, cfg.frames, cfg)
    _write_run_dir(args.out_dir, report, "expert.ckpt", kind="expert", env=args.env,
                   seed=cfg.seed, expert_score=report.expert_score)
    print(f"expert score {report.expert_score:.3f} "
          f"-> {args.out_dir}/expert.ckpt")
    return 0


def cmd_record(args):
    env = make_env(args.env, seed=args.seed, reward_mode=args.reward_mode)
    policy = _load_state_policy(args.ckpt, env)
    if args.privileged:
        env = FullyObservableWrapper(env)
    ds = expertgen.record(env, policy, args.episodes,
                          with_actions=args.with_actions, seed=args.seed,
                          env_id=args.env)
    replay.save_dataset(ds, args.out)
    print(f"recorded {ds.count} episodes (mean return {ds.mean_return():.3f}) "
          f"-> {args.out}")
    return 0


def cmd_imitate(args):
    cfg = _build_config(args)
    env = make_env(args.env, seed=cfg.seed, reward_mode=args.reward_mode)
    # unnamed, so that `train` holds the only reference and frees the frames
    report = imitate.train(args.algo, env, replay.load_dataset(args.expert_data), cfg)
    meta = {"kind": "imitate", "algo": args.algo, "env": args.env, "seed": cfg.seed,
            "expert_data_sha256": _dataset_hash(args.expert_data)}
    if report.expert_score is not None:
        meta["expert_score"] = report.expert_score
    _write_run_dir(args.out_dir, report, "final.ckpt", **meta)
    print(f"final return {report.final_return():.3f} -> {args.out_dir}")
    return 0


def cmd_verify_theory(args):
    if args.instances < 1:
        raise ValueError(f"--instances must be >= 1, got {args.instances}")
    claims = theory.CLAIMS if args.claim == "all" else (args.claim,)
    all_reports = []
    failed = 0
    for claim in claims:
        reports = theory.verify_instances(claim, args.instances, args.seed)
        all_reports.extend(reports)
        slacks = np.array([r.slack for r in reports])
        ok = int(np.sum(slacks >= -1e-8))
        failed += len(reports) - ok
        print(f"{claim:11s} {ok}/{len(reports)} hold   "
              f"min slack {slacks.min():.3e}   "
              f"max violation {max(r.assumption_violation for r in reports):.3e}")
    payload = json.dumps([r.to_dict() for r in all_reports], indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(payload)
        print(f"wrote {len(all_reports)} reports -> {args.out}")
    else:
        print(payload)
    return 0 if failed == 0 else 1


def read_run_dir(run_dir):
    """The `meta.json` of an imitation run directory, and the (frame,
    eval_return) of each `metrics.csv` row. A file that lacks an entry or
    holds one of another type is refused, naming the directory."""
    with open(os.path.join(run_dir, "meta.json")) as f:
        meta = json.load(f)
    what = f"{run_dir}: meta.json"
    if not isinstance(meta, dict):
        raise ValueError(f"{what} holds {meta!r}, not an object")
    if "algo" not in meta:
        raise ValueError(f"{run_dir}: not an imitation run (meta.json names no algo)")
    if "expert_score" not in meta:
        raise ValueError(f"{run_dir}: no expert score recorded")
    replay._require(meta, {"algo": str, "env": str, "seed": int, "expert_score": float},
                    what)
    if meta["expert_score"] == 0.0:
        raise ValueError(f"{run_dir}: the expert score is 0, so returns cannot "
                         f"be normalized by it")
    rows = []
    with open(os.path.join(run_dir, "metrics.csv"), newline="") as f:
        reader = csv.DictReader(f)
        if tuple(reader.fieldnames or ()) != _METRICS_HEADER:
            raise ValueError(f"{run_dir}: metrics.csv header {reader.fieldnames} is not "
                             f"{list(_METRICS_HEADER)}")
        for row in reader:
            try:
                rows.append((int(row["frame"]), float(row["eval_return"])))
            except (TypeError, ValueError):
                raise ValueError(f"{run_dir}: metrics.csv line {reader.line_num} "
                                 f"does not hold a frame and a return") from None
    if not rows:
        raise ValueError(f"{run_dir}: empty metrics file")
    return meta, rows


def aggregate_runs(run_dirs):
    """Per-run summary rows: final and normalized return, frames to 75%."""
    out = []
    for run_dir in run_dirs:
        meta, rows = read_run_dir(run_dir)
        expert = meta["expert_score"]
        final = rows[-1][1]
        frames_to = next((frame for frame, ret in rows if ret >= 0.75 * expert), "NA")
        out.append({
            "algo": meta["algo"], "env": meta["env"], "seed": meta["seed"],
            "final_return": final, "normalized_return": final / expert,
            "frames_to_75pct": frames_to,
        })
    return out


def cmd_report(args):
    rows = aggregate_runs(args.run_dirs)
    os.makedirs(args.out_dir, exist_ok=True)
    agg_path = os.path.join(args.out_dir, "aggregate.csv")
    with open(agg_path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=["algo", "env", "seed", "final_return",
                                          "normalized_return", "frames_to_75pct"])
        w.writeheader()
        w.writerows(rows)
    groups = {}
    for row in rows:
        groups.setdefault((row["algo"], row["env"]), []).append(row)
    sum_path = os.path.join(args.out_dir, "summary.csv")
    with open(sum_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["algo", "env", "seeds", "mean_normalized_return",
                    "std_normalized_return"])
        for (algo, env), rs in sorted(groups.items()):
            vals = np.array([r["normalized_return"] for r in rs])
            w.writerow([algo, env, len(rs), f"{vals.mean():.6g}",
                        f"{vals.std(ddof=1) if len(rs) > 1 else 0.0:.6g}"])
            print(f"{algo:15s} {env:15s} n={len(rs)} "
                  f"normalized {vals.mean():.3f} +- "
                  f"{vals.std(ddof=1) if len(rs) > 1 else 0.0:.3f}")
    print(f"wrote {agg_path} and {sum_path}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="laifo",
                                description="latent adversarial imitation lab")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("train-expert", help="train a privileged-state expert")
    sp.add_argument("--env", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--reward-mode", default="dense", choices=("dense", "sparse"))
    _config_flags(sp)
    sp.set_defaults(fn=cmd_train_expert)

    sp = sub.add_parser("record", help="record expert episodes to a dataset")
    sp.add_argument("--env", required=True)
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--episodes", type=int, default=100)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--with-actions", action=argparse.BooleanOptionalAction,
                    default=True)
    sp.add_argument("--privileged", action="store_true",
                    help="store privileged states instead of observations")
    sp.add_argument("--reward-mode", default="dense", choices=("dense", "sparse"))
    sp.set_defaults(fn=cmd_record)

    sp = sub.add_parser("imitate", help="train an imitation learner")
    sp.add_argument("--algo", required=True, choices=imitate.ALGOS)
    sp.add_argument("--env", required=True)
    sp.add_argument("--expert-data", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--reward-mode", default="dense", choices=("dense", "sparse"))
    _config_flags(sp)
    sp.set_defaults(fn=cmd_imitate)

    sp = sub.add_parser("verify-theory", help="run exact bound checks")
    sp.add_argument("--claim", default="all",
                    choices=("all",) + theory.CLAIMS)
    sp.add_argument("--instances", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write the JSON report array here")
    sp.set_defaults(fn=cmd_verify_theory)

    sp = sub.add_parser("report", help="aggregate finished run directories")
    sp.add_argument("--run-dirs", nargs="+", required=True)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(fn=cmd_report)
    return p


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CapabilityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    if hasattr(signal, "SIGPIPE"):
        # a closed stdout (`laifo ... | head`) ends the process quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
