"""Set-up probe: a fresh interpreter imports lobsim and builds one workload's
inputs, warm-up included. ``run.py`` starts it several times per run.

Usage: python3 bench/probe.py <workload> <seed> <size>
Prints {"setup_s": busy seconds, "scale": speed scale} as JSON (see speed.py).
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402


def main() -> None:
    name, seed, size = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    with speed.SpeedSampler() as sampler:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import workloads

        workloads.WORKLOADS[name].prepare(seed, size)
        end = time.perf_counter()
    setup = end - _T0 - sampler.sampled_between(_T0, end)
    print(json.dumps({"setup_s": setup, "scale": sampler.scale()}))


if __name__ == "__main__":
    main()
