"""Shared pieces of the end-to-end benchmark: settings, child processes,
statistics and the digest gate.

Everything here is stdlib-only so the benchmark can start (and fail cleanly)
before the program under test is importable.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import json
import os
import pickle
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space of every run (stores, span dumps); removed after the run.
WORK_ROOT = ROOT / ".e2ebench_work"
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: The engine every workload is pinned to (see NOTES.md).
ENGINE = "numpy"
#: Campaign size of every workload (the paper's protocol minimum is lower;
#: 300 is the repository default).
RUNS = 300
#: Workload iteration scale of the layout workload: keeps the 11 x 200
#: layout campaigns of cold ``fig4b`` but shortens each trace to a tenth,
#: so a benchmark run holds several cold passes to take the median of.
LAYOUT_SCALE = 0.1
#: The repository's default master seed; digests are recorded for it.
DEFAULT_SEED = 20160605

STUDY_WORKLOADS = {
    "fig4b_layouts": ("fig4b",),
    "seed_studies": (
        "table1",
        "table2",
        "fig1",
        "fig4a",
        "fig5",
        "avg_perf",
        "ablation_seg",
        "ablation_repl",
    ),
}


def workload_scale(workload: str) -> float:
    return LAYOUT_SCALE if workload == "fig4b_layouts" else 1.0


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> Dict[str, str]:
    """The environment of every child: the source tree on the path, no
    ``REPRO_*`` override (engine, runs, jobs, shard size, estimator, map
    cache, ...) leaking in from the caller, and one fixed string-hash seed
    so that runs differ only in their inputs."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Child:
    """A child Python process whose stdout lines are read one at a time."""

    def __init__(self, script: str, args: Sequence[str]) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), *args],
            cwd=str(ROOT),
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )

    def expect(self, prefix: str) -> str:
        """Block until a stdout line starting with ``prefix``; returns it."""
        assert self.process.stdout is not None
        for line in self.process.stdout:
            if line.startswith(prefix):
                return line.rstrip("\n")
        raise RuntimeError(f"child exited before printing {prefix!r}")

    def finish(self, timeout: float) -> None:
        """Wait for a clean exit; kill and raise on timeout or failure."""
        try:
            code = self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(f"child did not finish within {timeout:.0f}s") from None
        finally:
            if self.process.stdout is not None:
                self.process.stdout.close()
        if code != 0:
            raise RuntimeError(f"child exited with code {code}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb(pid: int) -> float:
    """Resident set size of ``pid`` now (0 where /proc is unavailable)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: Seconds one calibration kernel takes on a quiet 2-core container of the
#: kind NOTES.md was measured on.  It only sets the scale of the adjusted
#: times: a run on a host running at this speed reports host seconds.
HOST_REFERENCE_S = 0.04
#: Kernel repetitions per calibration sample around a cold pass.
CALIBRATION_REPS = 2


@functools.lru_cache(maxsize=None)
def _calibration_inputs() -> tuple:
    source = "\n".join(
        f"def f{i}(a, b=3):\n"
        f"    x = [a * k for k in range({i % 7 + 2})]\n"
        f"    return {{'k': x, 's': str(b) + '{i}'}}\n"
        for i in range(300)
    )
    records = {
        "rows": [
            {"id": i, "name": f"n{i}", "vals": list(range(i % 13)), "f": i / 7}
            for i in range(1500)
        ]
    }
    text = " ".join(f"k{i}={i * 31}" for i in range(3000))
    return source, records, text


def calibration_kernel_s() -> float:
    """Seconds one fixed kernel takes on this host now.

    The kernel is the benchmark's own and uses the standard library only:
    it parses, compiles and calls 300 small generated functions,
    round-trips 1 500 records through json and pickle, and scans a text
    with a regular expression.  That wide spread of interpreter code slows
    down under host contention much as the program does (NOTES.md), and no
    change to the program moves it.
    """
    source, records, text = _calibration_inputs()
    started = time.perf_counter()
    namespace: Dict[str, object] = {}
    exec(compile(ast.parse(source), "<calibration>", "exec"), namespace)
    for index in range(300):
        namespace[f"f{index}"](index)  # type: ignore[operator]
    pickle.loads(pickle.dumps(json.loads(json.dumps(records))))
    sum(int(value) for _, value in re.findall(r"(\w+)=(\d+)", text))
    return time.perf_counter() - started


def calibration_sample() -> List[float]:
    return [calibration_kernel_s() for _ in range(CALIBRATION_REPS)]


def host_speed_factor(samples: Sequence[float]) -> float:
    """How much faster than its own reference speed the host ran while
    ``samples`` were taken: multiply a host time measured next to them by
    this to get the time at the reference speed."""
    return HOST_REFERENCE_S / statistics.median(samples)


def write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

#: Percentiles a latency report may use, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)


def percentile(values: Sequence[float], pct: float, min_beyond: int = 10) -> Optional[float]:
    """The ``pct`` percentile of ``values``, or ``None`` when fewer than
    ``min_beyond`` samples lie beyond it (a tail estimated from a handful
    of samples is noise).

    Nearest-rank definition: the smallest sample with at least ``pct`` % of
    the samples at or below it.
    """
    n = len(values)
    rank = max(1, -(-round(pct * n) // 100))  # ceil(pct / 100 * n)
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]


def highest_tail(values: Sequence[float]) -> Optional[tuple]:
    """(pct, value) of the highest reportable tail percentile, if any."""
    for pct in TAIL_PERCENTILES:
        value = percentile(values, pct)
        if value is not None:
            return pct, value
    return None


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------

def reference_cycles(scenario, index: int) -> int:
    """Run ``index`` of ``scenario``'s campaign re-simulated with the
    ``reference`` engine (the model every other engine must match bit for
    bit)."""
    from repro.core.prng import derive_run_seeds
    from repro.cpu.core import TraceDrivenCore
    from repro.workloads.base import random_layouts

    config = scenario.hierarchy.config()
    if scenario.campaign == "layouts":
        layout = random_layouts(scenario.runs, master_seed=scenario.effective_seed)[index]
        core = TraceDrivenCore(config, scenario.workload.layout_builder()(layout))
        return core.run(0, engine="reference").cycles
    run_seed = derive_run_seeds(scenario.effective_seed, scenario.runs)[index]
    core = TraceDrivenCore(config, scenario.workload.build_trace())
    return core.run(run_seed, engine="reference").cycles


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text())


def digest_mismatches(
    workload: str, seed: int, digests: Dict[str, str], recorded: Dict[str, object]
) -> List[str]:
    """Studies whose ``--format json`` rendering digest differs from the
    recorded one (only checked at the seed the digests were recorded for)."""
    if seed != recorded["seed"]:
        return []
    expected = recorded["workloads"][workload]  # type: ignore[index]
    return [
        f"{study}: rendering differs from the recorded digest"
        for study in sorted(set(expected) | set(digests))
        if digests.get(study) != expected.get(study)
    ]
