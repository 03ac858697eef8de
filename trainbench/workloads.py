"""The three training workloads and one benchmark run of each: inputs
made from the seed, one training call through laifo's public API, set-up
probes, the trained policy's action latency, the traced run, and the
checks on every output.

Importing this module imports numpy, so the caller pins BLAS first.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, fields

import numpy as np

import spans
from probe import setup
from laifo import envs, expertgen, imitate, replay
from laifo.imitate import Config

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")

GOAL = envs.PointMass.goal
RETURN_MAX = envs.PointMass.episode_limit * envs.PointMass.r_max

# (metric, unit) of the untraced run, in BENCHMARK.json order
END_TO_END = (
    ("update_frames_per_s", "frames/s"),
    ("collect_frames_per_s", "frames/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("act_ms_p1", "ms"),
    ("act_ms_p90", "ms"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    env_id: str
    # Update frames per second measured on a 2-core x86 box with one BLAS
    # thread; it sets how many update frames fill the requested seconds, so
    # the traced and untraced runs of one seed do identical work.
    nominal_rate: float
    needs_data: bool
    # Warmup frames per ring slot. Vector frames are cheap, so their warmup
    # wraps the full ring once more to time collection over a few seconds.
    warmup_fills: int


WORKLOADS = {w.name: w for w in (
    Workload("vector-laifo", "pointmass-v", 12.0, True, 2),
    Workload("px32-rl", "pointmass-px32", 4.2, False, 1),
    Workload("state-expert", "pointmass-v", 400.0, False, 2),
)}


@dataclass(frozen=True)
class Size:
    capacity: int       # replay ring; warmup fills it before updates start
    episodes: int       # recorded expert episodes
    blocks: int         # set-up probes, each followed by a block of actions
    act_seconds: float  # timed policy actions per block, at least
    act_calls: int      # ... and at least this many per block
    update_frames: int = 0  # 0: nominal_rate x seconds


# Host speed on a shared 2-core box drifts over seconds, so set-up and
# action latency are sampled in alternating blocks spread over several
# seconds rather than in one burst.
FULL = Size(capacity=100_000, episodes=100, blocks=20, act_seconds=0.4, act_calls=1000)
TINY = Size(capacity=400, episodes=3, blocks=1, act_seconds=0.0, act_calls=40,
            update_frames=3)


class PDController:
    """Scripted expert on the privileged state (position, velocity): a
    proportional-derivative pull towards the goal, clamped to the action box."""

    kp, kd = 4.0, 3.0

    def action(self, state):
        return np.clip(self.kp * (GOAL - state[:2]) - self.kd * state[2:], -1.0, 1.0)


def update_frames(workload, seconds, size):
    return size.update_frames or max(2, round(workload.nominal_rate * seconds))


def config(workload, seed, size, n_updates):
    """Defaults except the schedule: warmup fills the ring, one evaluation
    episode closes the warmup and one closes the run."""
    w = size.capacity * workload.warmup_fills
    common = dict(seed=seed, warmup=w, capacity=size.capacity, frames=w + n_updates,
                  eval_interval=w, eval_episodes=1)
    if workload.name == "state-expert":
        # the README's expert configuration
        return Config(lr=1e-3, gamma=0.97, batch=64, hidden=64, z_dim=16, **common)
    return Config(**common)


def make_inputs(workload, seed, size):
    """Record the scripted expert and write the dataset the program will
    read; returns (path, dataset) or (None, None) for workloads without one."""
    if not workload.needs_data:
        return None, None
    os.makedirs(OUT_DIR, exist_ok=True)
    ds = expertgen.record(envs.make_env(workload.env_id), PDController(),
                          size.episodes, with_actions=True, seed=seed,
                          env_id=workload.env_id)
    path = os.path.join(OUT_DIR, f"{workload.env_id}-s{seed}.laifo")
    replay.save_dataset(ds, path)
    return path, ds


def train(workload, env, data, cfg):
    if workload.name == "vector-laifo":
        return imitate.train("laifo", env, data, cfg)
    if workload.name == "px32-rl":
        return imitate.train("rl_plus_videos", env, None, cfg)
    return expertgen.train_expert(env, cfg.frames, cfg)


def phase_rates(report, cfg):
    """(collect, update) frames per second from the two evaluation rows.
    Each phase's time includes the single evaluation episode closing it."""
    warm, last = report.rows[0], report.rows[-1]
    collect = cfg.warmup / warm.wall_clock_s
    update = (last.frame - warm.frame) / (last.wall_clock_s - warm.wall_clock_s)
    return collect, update


def setup_seconds(workload, path):
    """Wall time from spawning a fresh interpreter to the point where it
    would enter the training call (imports, dataset load, env build)."""
    probe = os.path.join(BENCH_DIR, "probe.py")
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, probe, workload.env_id, path or ""],
                         capture_output=True, text=True, timeout=120, check=True)
    # CLOCK_MONOTONIC is system-wide, so the child's stamp compares with t0
    return float(out.stdout.split()[-1]) - t0


def policy_env(workload, report, cfg):
    env = envs.make_env(workload.env_id)
    if workload.name == "state-expert":
        return expertgen.StatePolicy(report.bundle), envs.FullyObservableWrapper(env)
    return imitate.WindowPolicy(report.bundle, cfg.d), env


def act_latency(workload, report, cfg, seconds, calls, seed, failures):
    """Per-call seconds of the trained policy's action() over whole episodes
    on fresh environments, for at least `seconds` and `calls`; checks every
    action and episode return."""
    policy, env = policy_env(workload, report, cfg)
    state_policy = workload.name == "state-expert"
    times = []
    clock = time.perf_counter
    stop = clock() + seconds
    episode = 0
    while len(times) < calls or clock() < stop:
        obs = env.reset(seed=seed * 1000 + episode)
        episode += 1
        if not state_policy:
            policy.reset(obs)
        ret, done = 0.0, False
        while not done:
            t0 = clock()
            a = policy.action(obs) if state_policy else policy.action()
            times.append(clock() - t0)
            if not (np.all(np.isfinite(a)) and np.all(np.abs(a) <= 1.0)):
                failures.append(f"policy action out of [-1, 1] or non-finite: {a}")
                return np.array(times)
            obs, r, done = env.step(a)
            if not state_policy:
                policy.observe(obs)
            ret += r
        if not 0.0 <= ret <= RETURN_MAX:
            failures.append(f"policy episode return {ret} outside [0, {RETURN_MAX}]")
    return np.array(times)


def check_dataset(recorded, path, failures):
    loaded = replay.load_dataset(path)
    same = (loaded.env_id == recorded.env_id
            and tuple(loaded.obs_shape) == tuple(recorded.obs_shape)
            and tuple(loaded.act_shape) == tuple(recorded.act_shape)
            and loaded.count == recorded.count
            and all(np.array_equal(a.observations, b.observations)
                    and np.array_equal(a.actions, b.actions)
                    and np.array_equal(a.rewards, b.rewards)
                    for a, b in zip(loaded.episodes, recorded.episodes)))
    if not same:
        failures.append("dataset changed in the save/load round trip")
    expert = recorded.mean_return()
    if not 0.0 <= expert <= RETURN_MAX:
        failures.append(f"expert mean return {expert} outside [0, {RETURN_MAX}]")


ROW_VALUES = ("eval_return", "disc_loss", "critic_loss", "actor_loss", "imit_reward_mean")


def check_report(report, cfg, failures):
    """Rows sit at the end of warmup and of the run; every loss and return
    is finite and every return lies in [0, episode_limit * r_max]. Returns
    False when a loss or parameter is non-finite."""
    frames = [r.frame for r in report.rows]
    if frames != [cfg.warmup, cfg.frames]:
        failures.append(f"evaluation rows at frames {frames}, "
                        f"expected {[cfg.warmup, cfg.frames]}")
    for row in report.rows:
        for name in ROW_VALUES:
            if not math.isfinite(getattr(row, name)):
                failures.append(f"row at frame {row.frame}: {name} is not finite")
        if not 0.0 <= row.eval_return <= RETURN_MAX:
            failures.append(f"row at frame {row.frame}: eval return "
                            f"{row.eval_return} outside [0, {RETURN_MAX}]")
    params = report.bundle.named_params()
    bad = [name for name, values in params if not np.all(np.isfinite(values))]
    if bad:
        failures.append(f"non-finite parameters after training: {bad}")
    return not bad and all(math.isfinite(getattr(r, n))
                           for r in report.rows for n in ROW_VALUES)


def row_values(report):
    """Everything a row holds except its wall clock."""
    return [tuple(getattr(r, f.name) for f in fields(r) if f.name != "wall_clock_s")
            for r in report.rows]


def blas_runtime_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_runtime_threads(),
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def train_once(wl, path, cfg, failures):
    """Set-up and one training call; returns (report, t_start, t_end), or
    None after recording why training raised."""
    env, data = setup(wl.env_id, path)
    t0 = time.perf_counter()
    try:
        report = train(wl, env, data, cfg)
    except Exception:
        failures.append("training raised:\n" + traceback.format_exc())
        return None
    return report, t0, time.perf_counter()


def timed_metrics(wl, path, cfg, size, seed, failures, info):
    """End-to-end metrics: one training call, then set-up probes alternating
    with blocks of policy actions. Returns (metrics, failed updates)."""
    done = train_once(wl, path, cfg, failures)
    if done is None:
        return {}, cfg.frames - cfg.warmup
    report = done[0]
    # rows show losses only at evaluations; a non-finite loss poisons every
    # later update, so it fails the whole update phase
    failed = 0 if check_report(report, cfg, failures) else cfg.frames - cfg.warmup
    collect, update = phase_rates(report, cfg)
    setups, blocks = [], []
    for block in range(size.blocks):
        setups.append(setup_seconds(wl, path))
        blocks.append(1e3 * act_latency(wl, report, cfg, size.act_seconds,
                                        size.act_calls, seed * size.blocks + block,
                                        failures))
    # A single action() call runs at one of two speeds, whichever the shared
    # host happens to give it, and their mix changes from one run to the
    # next; the median follows the mix. The 1st percentile over all calls
    # is the uncontended latency, and it does not. The tail is the median
    # of block p90s: one slow second on the host moves a block, not the
    # result, and p99 follows the host's own stalls.
    ms = np.concatenate(blocks)
    p90 = float(np.median([np.percentile(b, 90) for b in blocks]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = (update, collect, float(np.median(setups)), rss_mb,
              float(np.percentile(ms, 1)), p90)
    info.update(act_calls=len(ms), act_blocks=size.blocks, setup_probes=len(setups),
                act_ms_p50=float(np.percentile(ms, 50)),
                act_ms_p99=float(np.median([np.percentile(b, 99) for b in blocks])))
    return {m: (v, u) for (m, u), v in zip(END_TO_END, values)}, failed


def traced_metrics(wl, path, cfg, size, seed, failures, info):
    """Per-layer metrics: an untraced reference training call, then the
    same call traced and one block of policy actions. Returns (metrics,
    failed updates)."""
    n_updates = cfg.frames - cfg.warmup
    reference = train_once(wl, path, cfg, failures)
    tracer = spans.Tracer()
    with tracer:
        traced = train_once(wl, path, cfg, failures)
        if traced is not None:
            act_latency(wl, traced[0], cfg, size.act_seconds, size.act_calls, seed,
                        failures)
    if traced is None:
        return {}, n_updates
    failed = tracer.failed_updates(n_updates)
    if reference is None:
        return {}, failed
    for report, _, _ in (reference, traced):
        check_report(report, cfg, failures)
    rows, ref_rows = row_values(traced[0]), row_values(reference[0])
    if rows != ref_rows:
        failures.append(f"traced rows differ from untraced rows: {rows} vs {ref_rows}")
    metrics = tracer.metrics(traced[1], traced[2], n_updates,
                             phase_rates(reference[0], cfg)[1],
                             phase_rates(traced[0], cfg)[1])
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"trace-{wl.name}-s{seed}.json")
    info["trace_file"] = os.path.relpath(out, os.path.dirname(BENCH_DIR))
    tracer.write(out, info)
    return metrics, failed


def run(name, seed, seconds, trace, size):
    """One benchmark run; returns (result dict, info dict, failures list)."""
    wl = WORKLOADS[name]
    failures = []
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "env": environment()}
    if info["env"]["blas_threads"] not in (None, 1):
        failures.append(f"BLAS runs {info['env']['blas_threads']} threads, not 1")
    n_updates = update_frames(wl, seconds, size)
    cfg = config(wl, seed, size, n_updates)
    info.update(warmup_frames=cfg.warmup, update_frames=n_updates, batch=cfg.batch)

    path, recorded = make_inputs(wl, seed, size)
    if recorded is not None:
        check_dataset(recorded, path, failures)
    if trace:
        metrics, failed = traced_metrics(wl, path, cfg, size, seed, failures, info)
    else:
        metrics, failed = timed_metrics(wl, path, cfg, size, seed, failures, info)
    info["error_rate"] = failed / n_updates
    return {"attempted": n_updates, "failed": failed, "metrics": metrics}, info, failures
