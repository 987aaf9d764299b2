#!/usr/bin/env python3
"""Host cost of the simulator that regenerates the AccelFlow paper.

Runs one workload (see perfbench/README.md) in this process with a
serial executor and every observability feature off, checks that every
simulated output is unchanged, and prints the metrics. The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (host wall and CPU
seconds per unit of simulated work, simulated requests per host
second, set-up seconds in a fresh interpreter, peak RSS). ``--trace 1``
reports the per-layer metrics from separate counting, cProfile and
kernel-profile passes. All times are host time.

Usage::

    python3 perfbench/run.py --workload accel-steady --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --write-reference --seeds 0-23
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cases import WORKLOADS
from hostref import HostSpeed
from layers import (
    GROUPS, LAYERS, CountPass, KernelPass, percentile, self_time_shares,
)

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = REPO_ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

#: Timed units per run, at least (slow units overrun ``--seconds``).
MIN_REPS = 3
#: Reference-loop time run after each timed piece, as a share of its time.
REF_SHARE = 0.3
#: Fresh-interpreter set-up measurements per run (one more is discarded).
SETUP_SAMPLES = 5

_SETUP_CHILD = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import cases
cases.WORKLOADS[sys.argv[3]].first_event(int(sys.argv[4]))
print(repr(time.monotonic()))
"""


class Checker:
    """Counts cells attempted and failed against the reference digests.

    A cell fails if its invariants do not hold, its digest differs from
    the stored reference for this seed, or it differs from the first
    run of the same seed in this process. A unit that raises ends the
    run with the traceback and no result line.
    """

    def __init__(self, workload: str, seed: int):
        references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.reference = references.get(workload, {}).get(str(seed))
        self.first = {}
        self.attempted = 0
        self.failed = 0

    def check(self, cells) -> None:
        for cell in cells:
            self.attempted += 1
            expected = self.first.setdefault(cell.label, cell.digest)
            good = cell.ok and cell.digest == expected
            if self.reference is not None:
                good = good and self.reference.get(cell.label) == cell.digest
            if not good:
                self.failed += 1
                print(f"FAIL {cell.label}: digest {cell.digest} ok={cell.ok}",
                      file=sys.stderr)


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from spawning an interpreter to its first event,
    scaled to the nominal host speed."""
    samples = []
    speed = HostSpeed()
    for _ in range(SETUP_SAMPLES + 1):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(BENCH_DIR), str(SRC),
             workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(child.stdout.split()[-1]) - start)
        speed.run(REF_SHARE * samples[-1])
    setup = statistics.median(samples[1:])  # the first one fills caches
    print(f"setup: {setup:.4f} s raw", flush=True)
    return setup * speed.wall_scale()


def timed_units(unit, seed, seconds, checker):
    """Run the unit back to back for ``seconds`` (at least MIN_REPS
    times), with the reference loop after each cell for REF_SHARE of
    the cell's time. Returns the mean unit (wall_s, cpu_s) scaled to
    the nominal host speed."""
    walls, cpus = [], []
    speed = HostSpeed()
    began = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - began < seconds:
        gc.collect()
        cells = unit(seed, lambda cell_wall_s: speed.run(REF_SHARE * cell_wall_s))
        checker.check(cells)
        walls.append(sum(cell.wall_s for cell in cells))
        cpus.append(sum(cell.cpu_s for cell in cells))
        print(f"unit {len(walls)}: wall {walls[-1]:.3f} s, "
              f"cpu {cpus[-1]:.3f} s raw", flush=True)
    print(f"reference loop: {speed.wall / speed.calls * 1e3:.2f} ms, "
          f"mean of {speed.calls}", flush=True)
    return (statistics.fmean(walls) * speed.wall_scale(),
            statistics.fmean(cpus) * speed.cpu_scale())


def count_pass(unit, seed, checker):
    """One unit under the counting wrappers; returns (cells, ledger, pass)."""
    with CountPass() as counts:
        cells = unit(seed)
    for cell in cells:
        cell.ok = cell.ok and counts.search_ok.get(cell.label, True)
    checker.check(cells)
    return cells, counts.ledger(cells), counts


def print_ledger(ledger) -> None:
    for label, row in ledger.items():
        done = row["completed"] or 1
        print(f"ledger {label}: " + ", ".join(
            f"{key}={value}" for key, value in row.items()
        ) + f", events_per_req={row['events'] / done:.4f}", flush=True)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, checker):
    setup_s = measure_setup(workload.name, seed)
    # Warm-up: the counting pass fills caches and gives the exact
    # completed-request count that sim_req_per_s divides by.
    _, ledger, _ = count_pass(workload.unit, seed, checker)
    print_ledger(ledger)
    wall_s, cpu_s = timed_units(workload.unit, seed, seconds, checker)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": metric(wall_s, "s"),
        "cpu_s": metric(cpu_s, "s"),
        "sim_req_per_s": metric(ledger["all"]["completed"] / wall_s, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


def per_layer(workload, seed, seconds, checker):
    cells, ledger, counts = count_pass(workload.unit, seed, checker)
    print_ledger(ledger)
    wall_s, _ = timed_units(workload.unit, seed, seconds, checker)

    # The counts must repeat exactly on a second counting pass.
    _, again, _ = count_pass(workload.unit, seed, checker)
    if again != ledger:
        print("FAIL: exact counts differ between two runs of one seed",
              file=sys.stderr)
        checker.failed += len(cells)

    traced, traced_wall, shares = self_time_shares(
        lambda: workload.unit(seed), SRC / "repro"
    )
    checker.check(traced)
    speed = HostSpeed()
    speed.run(REF_SHARE * traced_wall)
    traced_wall *= speed.wall_scale()
    with KernelPass() as kernel:
        checker.check(workload.unit(seed))
    groups = kernel.summary()

    total = ledger["all"]
    done = total["completed"] or 1
    probe_ms = [wall * 1e3 for wall, _ in counts.probes]
    values = {
        "sim.events_per_req": (total["events"] / done, "count"),
        "sim.processes_per_req": (total["processes"] / done, "count"),
        "sim.events_per_s": (total["events"] / wall_s, "1/s"),
        "sim.peak_queue": (groups["peak_queue"], "count"),
        "sim.heapq_frac": (shares["heapq"], "fraction"),
        "hw.dma_transfers_per_req": (total["dma_transfers"] / done, "count"),
        "hw.accel_ops_per_req": (total["accel_ops"] / done, "count"),
        "orchestration.steps_per_req": (total["steps"] / done, "count"),
        "orchestration.recoveries_per_req": (total["recoveries"] / done, "count"),
        "workloads.make_request_us": (
            statistics.fmean(counts.make_request_s) * 1e6
            if counts.make_request_s else 0.0, "us"),
        "server.build_ms": (
            statistics.fmean(counts.build_s) * 1e3 if counts.build_s else 0.0,
            "ms"),
        "server.servers_built": (len(counts.build_s), "count"),
        "experiments.shards": (
            len(cells) if counts.search_ok else 0, "count"),
        "experiments.probes": (len(counts.probes), "count"),
        "experiments.probes_violating": (
            sum(1 for _, violating in counts.probes if violating), "count"),
        "experiments.probe_wall_ms_p50": (percentile(probe_ms, 50), "ms"),
        "experiments.probe_wall_ms_p90": (percentile(probe_ms, 90), "ms"),
        "faults.injected_per_req": (total["faults_injected"] / done, "count"),
        "trace.overhead_frac": (traced_wall / wall_s - 1.0, "fraction"),
        "trace.builtins_frac": (shares["builtins"], "fraction"),
        "trace.other_frac": (shares["other"], "fraction"),
    }
    for layer in LAYERS:
        values[f"{layer}.self_frac"] = (shares[layer], "fraction")
    for group in GROUPS + ("other",):
        values[f"sim.group.{group}.events"] = (groups[f"{group}.events"], "count")
        values[f"sim.group.{group}.wall_s"] = (groups[f"{group}.wall_s"], "s")
    return {name: metric(v, u) for name, (v, u) in sorted(values.items())}


def write_reference(workloads, seeds) -> int:
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for workload in workloads:
        name = workload.name
        for seed in seeds:
            cells = workload.unit(seed)
            if not all(cell.ok for cell in cells):
                print(f"{name} seed {seed}: invariants fail", file=sys.stderr)
                return 1
            references.setdefault(name, {})[str(seed)] = {
                cell.label: cell.digest for cell in cells
            }
            print(f"{name} seed {seed}: {len(cells)} cells", flush=True)
    REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


def _seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store output digests for --seeds (of --workload, "
                             "or of every workload) and exit")
    parser.add_argument("--seeds", type=_seed_range, default=range(0, 1),
                        help="seed range for --write-reference, e.g. 0-23")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        chosen = [WORKLOADS[args.workload]] if args.workload else WORKLOADS.values()
        return write_reference(chosen, args.seeds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    checker = Checker(workload.name, args.seed)
    if checker.reference is None:
        print(f"no stored digests for seed {args.seed}: checking invariants "
              "and run-to-run identity only", flush=True)
    report = per_layer if args.trace else end_to_end
    metrics = report(workload, args.seed, args.seconds, checker)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
