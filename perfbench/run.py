"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload render --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--workload all`` runs the four
workloads one after another, each in its own process.  With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the run alternates untraced and
traced rounds and reports per-layer self times, counts and the tracing
overhead.  Every output is checked; a failed check is a failed
operation, makes the process exit with status 1, and keeps the run from
being written to ``.perfbench_out/``.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("render", "train", "simulate", "serve")

# Per-layer counts reported by ``Workload.counts`` (unit per name); a
# workload that does not produce a count reports 0 for it.
COUNTS = {
    "sampling.points_per_ray": "count", "sparse.occupancy": "ratio",
    "sparse.packed_share": "ratio", "footprint.engaged_share": "ratio",
    "scheduler.patches": "count", "accelerator.prefetch_mb": "MB",
    "accelerator.pe_utilization": "ratio",
    "accelerator.exposed_data_share": "ratio",
    "serve.rays_per_dispatch": "count", "serve.merged_ray_share": "ratio",
    "serve.latency_ticks_p50": "ticks", "serve.latency_ticks_p99": "ticks",
    "serve.scene_hit_ratio": "ratio",
}
GENERIC_UNITS = {"throughput_per_s": "1/s", "latency_ms_p50": "ms",
                 "latency_ms_p90": "ms", "quality": "score"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so imports and set-up are
    measured cold every time."""
    status = {}
    for name in WORKLOAD_NAMES:
        code = subprocess.call([sys.executable, os.path.abspath(__file__),
                                "--workload", name, "--seed", str(args.seed),
                                "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
        status[name] = code
    print(json.dumps({"exit_codes": status}))
    return 0 if not any(status.values()) else 1


# ``repro.models`` first: importing ``repro.hardware`` first is circular.
IMPORT = ("import sys, time; sys.path.insert(0, {src!r}); "
          "start = time.perf_counter(); "
          "import repro.models, repro.core, repro.hardware; "
          "print(time.perf_counter() - start)")


def import_program() -> float:
    """Import the program from this checkout's ``src``; returns the
    median import time of ``SETUP_REPEATS`` fresh interpreters."""
    src = os.path.join(ROOT, "src")
    package = os.path.join(src, "repro")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {package}")
    sys.path.insert(0, src)
    import repro.models  # noqa: F401
    import repro.core  # noqa: F401
    import repro.hardware  # noqa: F401
    if not os.path.abspath(repro.models.__file__).startswith(package):
        raise SystemExit("perfbench: imported repro from outside the "
                         "checkout")
    code = IMPORT.format(src=src)
    return statistics.median(
        float(subprocess.check_output([sys.executable, "-c", code]))
        for _ in range(SETUP_REPEATS))


def measure(workload, seconds: float, trace: bool):
    """Run rounds until ``seconds`` have passed (at least one whole
    round, or one untraced/traced pair); returns the tracer or None."""
    deadline = time.perf_counter() + seconds
    if not trace:
        rounds = [0]

        def stop():
            return rounds[0] >= 1 and time.perf_counter() >= deadline

        while True:
            workload.round(stop)
            rounds[0] += 1
            if time.perf_counter() >= deadline:
                return None, 0.0
    from tracing import Tracer

    tracer = Tracer()
    untraced_s = 0.0
    while True:
        start = time.perf_counter()
        workload.round(lambda: False)
        untraced_s += time.perf_counter() - start
        tracer.run(lambda: workload.round(lambda: False))
        if time.perf_counter() >= deadline:
            return tracer, untraced_s


def layer_metrics(workload, tracer, untraced_s):
    """Per-layer metrics of a traced run, after checking that self times
    plus the untraced remainder add up to the traced wall time."""
    from tracing import LAYER_NAMES

    per_layer, root_s = tracer.summary()
    wall = tracer.wall_s
    self_total = sum(entry[0] for entry in per_layer.values())
    remainder = wall - root_s
    slack = 1e-6 * wall
    if abs(self_total - root_s) > slack or remainder < -slack or any(
            entry[0] < -slack for entry in per_layer.values()):
        workload.fail(f"trace does not add up: self {self_total!r} s + "
                      f"remainder {remainder!r} s vs wall {wall!r} s")
    metrics = {}
    for layer in LAYER_NAMES:
        self_s, calls = per_layer[layer]
        metrics[f"{layer}_ms"] = (1e3 * self_s / calls if calls else 0.0,
                                  "ms")
        metrics[f"{layer}_share"] = (100.0 * self_s / wall, "%")
    counts = workload.counts()
    for name, unit in COUNTS.items():
        metrics[name] = (counts.get(name, (0.0, unit))[0], unit)
    metrics["trace.remainder_share"] = (100.0 * remainder / wall, "%")
    metrics["trace.overhead_pct"] = (100.0 * (wall / untraced_s - 1.0), "%")
    return metrics


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_s = import_program()
    subprocess.check_call([sys.executable, os.path.join(HERE, "inputs.py"),
                           args.workload, str(args.seed)])
    sys.path.insert(0, HERE)
    import inputs
    import manifest
    from workloads import WORKLOADS

    golden_path = os.path.join(HERE, "golden.json")
    with open(golden_path) as handle:
        golden = json.load(handle)
    workload = WORKLOADS[args.workload](inputs.DiskCache(ROOT), args.seed,
                                        golden)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    tracer, untraced_s = measure(workload, args.seconds, bool(args.trace))
    if hasattr(workload, "verify_samples"):
        workload.verify_samples()

    if tracer is None:
        result = workload.metrics()
        metrics = {name: (value, GENERIC_UNITS[name])
                   for name, value in result["generic"].items()}
        metrics["setup_s"] = (import_s + statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        named = result["named"]
    else:
        metrics = layer_metrics(workload, tracer, untraced_s)
        named = {}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": manifest.host_manifest(),
        "settings": manifest.resolved_knobs(),
        "attempted": workload.attempted, "failed": workload.failed,
        "errors": workload.errors,
        "named": as_json(named),
        "metrics": as_json(metrics),
    }
    correct = workload.failed == 0
    print("host:", json.dumps(record["host"]))
    print("settings:", json.dumps(record["settings"]))
    for name, (value, unit) in list(named.items()) + list(metrics.items()):
        print(f"  {args.workload:8s} {name:36s} {value:14.6g} {unit}")
    for message in workload.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    if correct:
        out = os.path.join(ROOT, OUT_DIR)
        os.makedirs(out, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(out, stem + ".json"), "w") as handle:
            json.dump(record, handle, indent=1)
        if tracer is not None:
            tracer.write(os.path.join(out, stem + "-spans.json"))
    print(json.dumps({"correct": correct, "attempted": workload.attempted,
                      "failed": workload.failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
