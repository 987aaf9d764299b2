"""Generate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Runs the whole experiment harness at a chosen scale and renders a
markdown report with, per experiment, the paper's claim, our measured
value, and the regenerated table. Used as::

    python -m repro.analysis.report --scale quick -o EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List

from ..experiments import EXPERIMENTS, SCALES
from ..experiments.cache import DEFAULT_CACHE_DIR, ResultCache
from ..experiments.parallel import ShardExecutor, default_jobs
from ..experiments.runner import reject_unknown

__all__ = ["generate_report", "metrics_section", "main"]


def generate_report(
    scale: str = "quick",
    seed: int = 0,
    only: List[str] = None,
    executor: ShardExecutor = None,
) -> str:
    """Run the harness and render the markdown report.

    ``executor`` (a :class:`~repro.experiments.parallel.ShardExecutor`)
    spreads each experiment's shards over worker processes and serves
    repeat runs from the on-disk cache; the report text is identical
    for any worker count.
    """
    names = only or list(EXPERIMENTS)
    sections: List[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"Generated by `python -m repro.analysis.report --scale {scale} "
        f"--seed {seed}`.",
        "",
        "This reproduction targets the *shape* of each result (ordering,",
        "rough factors, trends), not absolute numbers: the paper's",
        "cycle-level QEMU+SST testbed is replaced by a high-level",
        "discrete-event model (see DESIGN.md). Each section quotes the",
        "paper's claim and shows the regenerated table. Tables can be",
        "regenerated in parallel (`accelflow-repro all --jobs N`); shard",
        "results are cached under `.accelflow_cache/`.",
        "",
    ]
    for name in names:
        experiment = EXPERIMENTS[name]
        start = time.time()
        result = experiment.run(scale=scale, seed=seed, executor=executor)
        elapsed = time.time() - start
        sections.append(f"## {name}")
        sections.append("")
        sections.append(f"**Paper:** {experiment.claim}")
        sections.append("")
        sections.append("```text")
        sections.append(result["table"])
        sections.append("```")
        sections.append("")
        sections.append(f"_(regenerated in {elapsed:.1f}s at scale={scale})_")
        sections.append("")
        print(f"[report] {name} done in {elapsed:.1f}s", file=sys.stderr)
    return "\n".join(sections)


def metrics_section(registry, title: str = "Time-series metrics",
                    width: int = 60) -> str:
    """Markdown section with the sparklines of an obs metrics registry.

    ``registry`` is a :class:`repro.obs.MetricsRegistry` captured from a
    run (e.g. ``obs.registry`` after ``run_experiment``).
    """
    body = registry.render(width=width)
    interval_ms = registry.interval_ns / 1e6
    return "\n".join(
        [
            f"## {title}",
            "",
            f"Sampled every {interval_ms:g} ms of simulated time "
            f"({registry.ticks} ticks).",
            "",
            "```text",
            body,
            "```",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="quick", choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", default="EXPERIMENTS.md")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of experiment ids")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: number of CPUs)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk shard result cache")
    args = parser.parse_args(argv)
    if reject_unknown(args.only or ()):
        return 2
    jobs = default_jobs() if args.jobs is None else max(1, args.jobs)
    cache = None if args.no_cache else ResultCache(DEFAULT_CACHE_DIR)
    with ShardExecutor(jobs=jobs, cache=cache) as executor:
        report = generate_report(
            scale=args.scale, seed=args.seed, only=args.only, executor=executor
        )
    with open(args.output, "w") as handle:
        handle.write(report)
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
