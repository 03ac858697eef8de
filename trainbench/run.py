"""Training benchmark for laifo: one workload per process, BLAS pinned to
one thread, end-to-end metrics from an untraced run and per-layer metrics
from a separate traced run.

    python3 trainbench/run.py --workload vector-laifo --seed 0 --seconds 15 --trace 0
    python3 trainbench/run.py --workload all        # every workload, one process each

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
output check passed. See README.md beside this file for the workloads and
the metric-to-layer map.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy loads: unpinned runs on a 2-core box
# show 10x outliers.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("vector-laifo", "px32-rl", "state-expert")


def print_result(result, info, failures):
    print("# " + json.dumps(info, sort_keys=True))
    for metric, (value, unit) in result["metrics"].items():
        print(f"{metric} {value:.6g} {unit}")
    for metric in ("act_ms_p50", "act_ms_p99"):
        if metric in info:
            print(f"{metric} {info[metric]:.6g} ms (not bounded: it follows the "
                  "host's contention)")
    print(f"error_rate {info['error_rate']:.6g} ({result['failed']}/{result['attempted']} "
          "updates failed)")
    for msg in failures:
        print("CHECK FAILED: " + msg, file=sys.stderr)
    line = {"correct": not failures, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: {"value": v, "unit": u}
                        for m, (v, u) in result["metrics"].items()}}
    print(json.dumps(line), flush=True)


def run_all(args):
    """Each workload in its own process; exit code 1 if any fails."""
    code = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0:
            code = 1
        try:
            part = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        merged["metrics"].update({f"{name}/{m}": v for m, v in part["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes for the self-test; numbers are meaningless")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "laifo", "__init__.py")):
        print(f"error: laifo sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, SRC)
    import laifo
    if os.path.dirname(os.path.dirname(os.path.abspath(laifo.__file__))) != SRC:
        print(f"error: imported laifo from {laifo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    size = workloads.TINY if args.tiny else workloads.FULL
    result, info, failures = workloads.run(args.workload, args.seed, args.seconds,
                                           args.trace, size)
    print_result(result, info, failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
