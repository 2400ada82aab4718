"""Wall-clock scaling of parallel measurement campaigns.

Runs a default-size paper campaign — a 300-run MBPTA campaign of one
EEMBC stand-in on the Random Modulo platform — at several ``jobs`` settings,
verifies that every parallel campaign is bit-exact with the serial one, and
prints the measured speedups.  On an otherwise idle machine with ``N`` free
cores the speedup approaches ``min(jobs, N)`` (the per-run simulation
dominates and the seed chunks are independent); on a single-core container
the numbers degenerate to ~1x, so treat the output as a property of the
hardware, not of the executor.

Usage::

    python benchmarks/bench_parallel_scaling.py
    python benchmarks/bench_parallel_scaling.py --runs 300 --jobs 1 2 4 8
    REPRO_RUNS=1000 python benchmarks/bench_parallel_scaling.py
"""

from __future__ import annotations

import argparse
import os
import time

from repro.analysis.campaign import run_campaign
from repro.analysis.report import format_table
from repro.platform.leon3 import platform_setup
from repro.workloads.eembc import eembc_trace

MASTER_SEED = 20160605


def measure(trace, config, runs: int, jobs: int) -> tuple[float, list[int]]:
    start = time.perf_counter()
    campaign = run_campaign(
        trace, config, runs=runs, master_seed=MASTER_SEED, setup="rm", jobs=jobs
    )
    return time.perf_counter() - start, campaign.execution_times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="a2time", help="EEMBC stand-in to measure")
    parser.add_argument(
        "--runs",
        type=int,
        default=int(os.environ.get("REPRO_RUNS", "300")),
        help="measurement runs per campaign (default 300, the study default)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="jobs values to sweep (1 is the serial baseline)",
    )
    args = parser.parse_args()

    trace = eembc_trace(args.benchmark)
    config = platform_setup("rm")
    print(
        f"campaign: {args.benchmark}, {len(trace)} accesses/run, {args.runs} runs, "
        f"{os.cpu_count()} CPUs visible"
    )

    serial_seconds, serial_times = measure(trace, config, args.runs, jobs=1)
    rows = [("1 (serial)", f"{serial_seconds:.2f}", "1.00x", "yes")]
    for jobs in args.jobs:
        if jobs == 1:
            continue
        seconds, times = measure(trace, config, args.runs, jobs=jobs)
        rows.append(
            (
                str(jobs),
                f"{seconds:.2f}",
                f"{serial_seconds / seconds:.2f}x",
                "yes" if times == serial_times else "NO",
            )
        )
    print(format_table(["jobs", "seconds", "speedup", "bit-exact"], rows,
                       title="Parallel campaign scaling"))
    if any(row[3] == "NO" for row in rows):
        raise SystemExit("parallel campaign diverged from the serial baseline")


if __name__ == "__main__":
    main()
