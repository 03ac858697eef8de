"""Set-up probe: a fresh interpreter imports laifo, loads the dataset and
builds the environment, then prints the system-wide monotonic clock. The
parent subtracts its spawn time to get setup_s. It imports nothing else,
so setup_s counts only the program's own set-up.

    python3 trainbench/probe.py <env id> <dataset path or "">
"""

import os
import sys
import time

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from laifo import envs, replay  # noqa: E402


def setup(env_id, path):
    """Everything between process start and the training call, after the
    imports: load the dataset (if any) and build the environment."""
    data = replay.load_dataset(path) if path else None
    return envs.make_env(env_id), data


if __name__ == "__main__":
    setup(sys.argv[1], sys.argv[2])
    print(time.monotonic())
