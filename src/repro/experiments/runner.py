"""Command-line entry point: regenerate any table or figure.

Usage::

    accelflow-repro list
    accelflow-repro fig11 --scale quick --seed 0
    accelflow-repro all --scale smoke --jobs 4

Experiments are decomposed into independent shards (one per design
point) that run across ``--jobs`` worker processes and land in an
on-disk result cache, so re-runs after an interruption or a seed/scale
revisit are served from disk. Results are byte-identical for any
``--jobs`` value.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import EXPERIMENTS, SCALES
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .parallel import ProgressReporter, ShardExecutor, default_jobs

__all__ = ["main", "reject_unknown"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelflow-repro",
        description="Reproduce the tables and figures of the AccelFlow paper "
        "(HPCA 2026).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig11, table4, char-glue), 'all', or 'list'",
    )
    parser.add_argument(
        "--scale",
        default="quick",
        choices=sorted(SCALES),
        help="run size: smoke (seconds), quick (default), full (minutes)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for shard execution "
        "(default: number of CPUs; 1 disables multiprocessing)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk shard result cache",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="recompute every shard, overwriting any cached results",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"shard cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-shard progress reporting on stderr",
    )
    parser.add_argument(
        "--dashboard",
        action="store_true",
        help="after the experiment, run a small telemetry-enabled cell "
        "and print its live-dashboard snapshot (fig_faults/fig_cluster)",
    )
    return parser


def reject_unknown(names) -> bool:
    """Report the ids in ``names`` that name no experiment on stderr;
    True when there is at least one (the caller exits 2)."""
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"known: {', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
    return bool(unknown)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if reject_unknown(names):
        return 2

    jobs = default_jobs() if args.jobs is None else max(1, args.jobs)
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir, refresh=args.refresh)
    progress = None if args.quiet else ProgressReporter(stream=sys.stderr)

    with ShardExecutor(jobs=jobs, cache=cache, progress=progress) as executor:
        for name in names:
            start = time.time()
            result = EXPERIMENTS[name].run(
                scale=args.scale, seed=args.seed, executor=executor
            )
            elapsed = time.time() - start
            print(result["table"])
            print(f"\n[{name} completed in {elapsed:.1f}s at scale={args.scale}]\n")
            if args.dashboard:
                from ..obs.dashboard import preview

                snapshot = preview(name, scale=args.scale, seed=args.seed)
                if snapshot is None:
                    print(f"[no dashboard preview for {name}]\n")
                else:
                    print(snapshot + "\n")
    if cache is not None:
        print(f"[cache {cache.stats.summary()} dir={args.cache_dir}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
