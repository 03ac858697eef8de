"""Fast self-test of the benchmark: every workload at a tiny size, traced
and untraced, plus the output checks and the refusal to run without the
laifo sources.

    python3 -m pytest trainbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import spans  # noqa: E402
import workloads as W  # noqa: E402
from laifo.imitate import ReportRow  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def run_bench(*args, cwd=ROOT, script=os.path.join(BENCH_DIR, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_list_matches_tracer():
    assert SPEC["per_layer"] == spans.per_layer_spec()


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "trainbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "px32-rl", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path,
                     script=str(tmp_path / "trainbench" / "run.py"))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _report(eval_return, critic_loss):
    wl = W.WORKLOADS["state-expert"]
    cfg = W.config(wl, 0, W.TINY, 2)
    env, _ = W.setup(wl.env_id, None)
    report = W.train(wl, env, None, cfg)
    last = report.rows[-1]
    report.rows[-1] = ReportRow(last.frame, last.episode, eval_return, 0.0,
                                critic_loss, 0.0, 0.0, last.wall_clock_s, 0)
    return report, cfg


@pytest.mark.parametrize("eval_return, critic_loss", [
    (50.0, float("nan")), (-1.0, 0.5), (W.RETURN_MAX + 1.0, 0.5)])
def test_report_check_flags_bad_rows(eval_return, critic_loss):
    report, cfg = _report(eval_return, critic_loss)
    failures = []
    finite = W.check_report(report, cfg, failures)
    assert failures
    assert finite == math.isfinite(critic_loss)


def test_dataset_check_flags_a_changed_file(tmp_path, monkeypatch):
    monkeypatch.setattr(W, "OUT_DIR", str(tmp_path))
    path, recorded = W.make_inputs(W.WORKLOADS["vector-laifo"], 5, W.TINY)
    failures = []
    W.check_dataset(recorded, path, failures)
    assert failures == []
    recorded.episodes[0].observations[0, 0] += 1.0
    W.check_dataset(recorded, path, failures)
    assert failures == ["dataset changed in the save/load round trip"]


def test_inputs_depend_only_on_the_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(W, "OUT_DIR", str(tmp_path))
    wl = W.WORKLOADS["vector-laifo"]
    first = open(W.make_inputs(wl, 7, W.TINY)[0], "rb").read()
    assert open(W.make_inputs(wl, 7, W.TINY)[0], "rb").read() == first
    assert open(W.make_inputs(wl, 8, W.TINY)[0], "rb").read() != first


def test_tracer_restores_every_attribute():
    targets = [(owner, attr) for owner, attr, _ in spans.SPANS] + [
        (W.imitate, "backward"), (W.expertgen, "update_critic"),
        (spans.autodiff.TensorNode, "__init__"), (spans.autodiff._EagerExec, "matmul")]
    before = [(owner, attr, vars(owner)[attr] if isinstance(owner, type)
               else getattr(owner, attr)) for owner, attr in targets]
    with spans.Tracer():
        pass
    for owner, attr, original in before:
        now = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original
