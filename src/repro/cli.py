"""``python -m repro`` — the experiment-registry command line.

Four subcommands drive :mod:`repro.core.registry`:

* ``list`` — every registered experiment (name, kind, artefact,
  one-line description);
* ``run <name>`` — execute one experiment (``--seed`` / ``--scale`` /
  ``--workers`` overrides; ``--write`` atomically regenerates the
  committed artefact, ``--results-dir`` redirects it);
* ``sweep [axis=v1,v2 ...]`` — a dataset x views x points x
  hardware-variant grid through the co-design pipeline
  (``variant=`` names map to :func:`repro.hardware.variant_config`);
* ``batch <jobs_dir>`` — fault-isolated bulk ingestion of a directory
  of JSON job specs (:mod:`repro.core.batch`): malformed or crashing
  jobs are quarantined under ``errors/`` with traceback reports, the
  run continues, and a re-invocation resumes by skipping jobs whose
  artefact already exists;
* ``serve`` — the long-lived render daemon (:mod:`repro.core.serve`):
  JSON-lines requests on stdin, JSON-lines responses on stdout, with
  cross-request micro-batching under the ``REPRO_BATCH_WINDOW`` /
  ``REPRO_MAX_BATCH`` knobs (see ``docs/serving.md``).

Examples::

    python -m repro list
    python -m repro run table1
    python -m repro run table2 --scale 0.1 --workers 2
    python -m repro sweep dataset=llff,nerf_synthetic views=2,6 \
        variant=ours,var1 --out sweep_dataflow
    python -m repro batch customer_jobs/ --out results/customer_a
    echo '{"scene": "fern", "quality": "draft"}' | python -m repro serve
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core.batch import run_batch
from .core.context import RunContext
from .core.registry import (all_experiments, get_experiment,
                            parse_sweep_grid, run_sweep)
from .core.scene_cache import ENV_KNOB
from .core.serve import (MAX_BATCH_ENV, QUEUE_ENV, WINDOW_ENV, ServeConfig,
                         run_daemon)
from .models.footprint import FOOTPRINT_ENV
from .models.sparse import SPARSE_ENV


def _add_common_options(parser: argparse.ArgumentParser,
                        experiment: bool = True) -> None:
    if experiment:
        parser.add_argument("--workers", type=int, default=None,
                            help="worker count for sharding source-view "
                                 "renders (scene preparation) and serve "
                                 "dispatches over the frame pool; "
                                 "experiment units always run in "
                                 "process, and results are "
                                 "byte-identical at any width. Default: "
                                 "REPRO_WORKERS env, then CPU count; "
                                 "<= 0 forces fully sequential runs")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the experiment's seed parameter")
    if experiment:
        parser.add_argument("--scale", type=float, default=1.0,
                            help="work multiplier applied through the "
                                 "experiment's scale rules (1.0 = the "
                                 "committed-artefact configuration)")
    parser.add_argument("--cache-dir", default=None,
                        help=f"disk scene-cache directory (default: the "
                             f"{ENV_KNOB} env knob)")
    parser.add_argument("--results-dir", default=None,
                        help="artefact output directory (default: the "
                             "committed benchmarks/results)")
    parser.add_argument("--sparse", action=argparse.BooleanOptionalAction,
                        default=None,
                        help=f"force the packed fine pass on/off for "
                             f"every render in this invocation "
                             f"(exported as the {SPARSE_ENV} env knob; "
                             f"default: the knob, then on — outputs "
                             f"are byte-identical either way)")
    parser.add_argument("--footprint", action=argparse.BooleanOptionalAction,
                        default=None,
                        help=f"force the footprint-restricted training "
                             f"encode on/off for every training run in "
                             f"this invocation (exported as the "
                             f"{FOOTPRINT_ENV} env knob; default: the "
                             f"knob, then on — training trajectories "
                             f"are byte-identical either way)")


def _context(args: argparse.Namespace) -> RunContext:
    kwargs = dict(seed=args.seed, scale=getattr(args, "scale", 1.0),
                  workers=getattr(args, "workers", None),
                  cache_dir=args.cache_dir)
    if args.results_dir is not None:
        kwargs["results_dir"] = args.results_dir
    return RunContext(**kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Declarative experiment registry for the Gen-NeRF "
                    "(ISCA 2023) reproduction.")
    commands = parser.add_subparsers(dest="command")

    commands.add_parser(
        "list", help="list every registered experiment")

    run_parser = commands.add_parser(
        "run", help="run one experiment and print its artefact text")
    run_parser.add_argument("name", help="registered experiment name")
    run_parser.add_argument("--write", action="store_true",
                            help="also (re)write the artefact file "
                                 "atomically")
    _add_common_options(run_parser)

    sweep_parser = commands.add_parser(
        "sweep", help="run a dataset x views x points x variant grid")
    sweep_parser.add_argument("grid", nargs="*", metavar="axis=v1,v2",
                              help="grid axes: dataset=, views=, "
                                   "points=, variant= (unset axes use "
                                   "single-point defaults)")
    sweep_parser.add_argument("--out", default=None, metavar="NAME",
                              help="also write the sweep table as "
                                   "artefact NAME.txt")
    # No --scale or --workers: a sweep's cost is its grid (there are no
    # scale rules), and its simulator points run in process.
    _add_common_options(sweep_parser, experiment=False)

    batch_parser = commands.add_parser(
        "batch", help="fault-isolated bulk ingestion of a directory of "
                      "JSON job specs")
    batch_parser.add_argument("jobs_dir",
                              help="directory of <job>.json specs "
                                   "({'experiment': ..., 'overrides': "
                                   "..., 'seed': ..., 'scale': ..., "
                                   "'artefact': ...})")
    batch_parser.add_argument("--out", default=None, metavar="DIR",
                              help="artefact output directory "
                                   "(default: <jobs_dir>/out; "
                                   "quarantine lands in DIR/errors)")
    batch_parser.add_argument("--strict", action="store_true",
                              help="exit 1 when any job was quarantined "
                                   "(the run itself always continues "
                                   "past bad jobs)")
    _add_common_options(batch_parser)

    serve_parser = commands.add_parser(
        "serve", help="long-lived render daemon: JSON-lines requests on "
                      "stdin, responses on stdout, with cross-request "
                      "micro-batching")
    serve_parser.add_argument("--batch-window", type=int, default=None,
                              help=f"ticks a request may wait for "
                                   f"batch-mates (default: the "
                                   f"{WINDOW_ENV} env knob)")
    serve_parser.add_argument("--max-batch", type=int, default=None,
                              help=f"rays per dispatch before the window "
                                   f"cuts (default: the {MAX_BATCH_ENV} "
                                   f"env knob)")
    serve_parser.add_argument("--queue-limit", type=int, default=None,
                              help=f"in-flight requests before shedding "
                                   f"with a 429-style refusal (default: "
                                   f"the {QUEUE_ENV} env knob)")
    serve_parser.add_argument("--scene-capacity", type=int, default=4,
                              help="prepared-scene LRU capacity")
    serve_parser.add_argument("--source-points", type=int, default=32,
                              help="quadrature points for source-view "
                                   "preparation on a scene-cache miss")
    serve_parser.add_argument("--deadline", type=int, default=None,
                              help="fail a request not completed within "
                                   "this many ticks (default: off)")
    serve_parser.add_argument("--tick-s", type=float, default=0.02,
                              help="wall seconds per scheduler tick")
    serve_parser.add_argument("--out-dir", default=None, metavar="DIR",
                              help="also write each rendered image as "
                                   "DIR/<request_id>.npy")
    serve_parser.add_argument("--workers", type=int, default=None,
                              help="intra-batch shard width over the "
                                   "frame pool (default: REPRO_WORKERS, "
                                   "then CPU count)")
    serve_parser.add_argument("--seed", type=int, default=None,
                              help="serving model weight seed "
                                   "(default: 0)")
    serve_parser.add_argument("--cache-dir", default=None,
                              help=f"disk scene-cache directory "
                                   f"(default: the {ENV_KNOB} env knob)")
    return parser


def _cmd_list() -> int:
    experiments = all_experiments()
    width = max(len(e.name) for e in experiments)
    kind_width = max(len(e.kind) for e in experiments)
    print(f"{len(experiments)} registered experiments "
          f"(artefacts under benchmarks/results/):\n")
    for experiment in experiments:
        print(f"  {experiment.name.ljust(width)}  "
              f"[{experiment.kind.ljust(kind_width)}]  "
              f"{experiment.artefact}.txt  —  {experiment.description}")
    print("\nrun one with: python -m repro run <name> "
          "[--scale F] [--seed N] [--workers N]")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        experiment = get_experiment(args.name)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    ctx = _context(args)
    if args.write:
        result, path = experiment.regenerate(ctx)
        print(result.text)
        print(f"\n[wrote {path}]", file=sys.stderr)
    else:
        print(experiment.run(ctx).text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        grid = parse_sweep_grid(args.grid)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    ctx = _context(args)
    rows, text = run_sweep(grid, ctx)
    print(text)
    if args.out:
        path = ctx.write_artifact(args.out, text)
        print(f"\n[wrote {path}]", file=sys.stderr)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    try:
        summary = run_batch(args.jobs_dir, ctx=_context(args),
                            out_dir=args.out or args.results_dir)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(summary.render())
    print(f"\n[wrote {summary.summary_path}]", file=sys.stderr)
    if args.strict and summary.quarantined:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    overrides = dict(scene_capacity=args.scene_capacity,
                     source_points=args.source_points,
                     request_deadline=args.deadline,
                     workers=args.workers, cache_dir=args.cache_dir)
    if args.seed is not None:
        overrides["model_seed"] = args.seed
    config = ServeConfig.from_env(batch_window=args.batch_window,
                                  max_batch=args.max_batch,
                                  queue_limit=args.queue_limit,
                                  **overrides)
    stats = run_daemon(config, tick_s=args.tick_s, out_dir=args.out_dir)
    print(f"[served {stats['completed']} requests, "
          f"{stats['dispatches']} dispatches, shed {stats['shed']}, "
          f"failed {stats['failed']}]", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    sparse = getattr(args, "sparse", None)
    if sparse is not None:
        # Exported (not passed through call chains) so worker-pool
        # subprocesses inherit the choice too.
        os.environ[SPARSE_ENV] = "1" if sparse else "0"
    footprint = getattr(args, "footprint", None)
    if footprint is not None:
        os.environ[FOOTPRINT_ENV] = "1" if footprint else "0"
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_sweep(args)
