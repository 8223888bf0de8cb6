"""Regenerate ``golden.json``: the recorded outputs the benchmark checks.

    python3 perfbench/record_golden.py

For every input pool variant it records the ``train`` loss trajectory
of one round and the ``simulate`` FrameSimulation fields of the sweep.
Run it only when a change is meant to alter those outputs, and say so
in the change's description.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import repro.models  # noqa: E402,F401  (first: hardware imports models)

import inputs  # noqa: E402
from workloads import SimulateWorkload, TrainWorkload  # noqa: E402


def main() -> None:
    cache = inputs.DiskCache(ROOT)
    golden = {"train": {}, "simulate": {}}
    for pool in range(inputs.POOL):
        train = TrainWorkload(cache, pool, {})
        train.setup()
        train.round(lambda: False)
        golden["train"][str(pool)] = train.trajectory
        simulate = SimulateWorkload(cache, pool, {})
        simulate.setup()
        simulate.round(lambda: False)
        golden["simulate"][str(pool)] = simulate.record()
        print(f"pool {pool}: recorded", flush=True)
    with open(os.path.join(HERE, "golden.json"), "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
