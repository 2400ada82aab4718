"""End-to-end benchmark of the Random Modulo reproduction.

    python3 e2ebench/run.py --workload fig4b_layouts --seed 1 --seconds 35 --trace 0

Workloads (see NOTES.md for why each was chosen):

* ``fig4b_layouts`` -- cold ``study run fig4b`` (11 RM seed campaigns plus
  11 x 200 deterministic-layout campaigns);
* ``seed_studies`` -- every other study;

  each cold pass runs in a fresh process on an empty store and is followed
  by warm passes over the populated store in the same process;
* ``serve_mixed`` -- ``repro serve`` driven by two closed-loop clients
  submitting one cold job per three warm resubmits.  ``BENCHMARK.json``
  leaves it out while its failure count varies between runs of the same
  code (NOTES.md says why).

The study workloads report times scaled to a reference host speed by a
calibration kernel timed next to each measurement; the host seconds are
printed alongside.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once with span wrappers installed, and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  Any correctness mismatch makes the run exit non-zero with
``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

from common import (
    ENGINE,
    RUNS,
    SRC,
    STUDY_WORKLOADS,
    WORK_ROOT,
    Child,
    calibration_kernel_s,
    digest_mismatches,
    highest_tail,
    host_speed_factor,
    load_digests,
    median,
    percentile,
    workload_scale,
)

WORKLOADS = (*STUDY_WORKLOADS, "serve_mixed")

#: End-to-end metrics (every workload reports each; see NOTES.md).
END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "sim_accesses_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Per-layer metrics the serve_mixed clients measure.
SERVICE_CLIENT_METRICS = (
    "exec.queue_wait_ms",
    "service.submit_rtt_ms",
    "service.events_per_job",
    "service.rss_growth_mb",
    "service.jobs_failed",
)
#: Set-up samples per run: probe processes (study workloads) or probe
#: servers (``serve_mixed``) on top of the measured ones.
STUDY_SETUP_PROBES = 4
SERVE_SETUP_PROBES = 2
#: Served jobs whose payload is compared with the CLI path per session.
SERVE_GATE_SAMPLE = 4
#: Distance between the master seeds of a run's cold passes.
PASS_SEED_STRIDE = 7919
#: Seconds between the parent's host-speed samples during a pass.
SAMPLE_GAP = 0.4
#: A cold pass that takes longer than this is a failed run.
PASS_TIMEOUT = 150.0


class Outcome:
    """What one workload run measured and found."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0


# ---------------------------------------------------------------------------
# Study workloads
# ---------------------------------------------------------------------------

def _study_child(work: Path, name: str, args: List[str], sample: bool = False) -> tuple:
    """Run one ``studies.py`` child; returns (set-up seconds, output, samples).

    With ``sample`` the parent times the calibration kernel every
    ``SAMPLE_GAP`` seconds while the child runs (on the other core):
    ``(wall-clock start, seconds)`` pairs.
    """
    out = work / f"{name}.json"
    child = Child("studies.py", [*args, "--store", str(work / f"{name}-store"), "--out", str(out)])
    samples = []
    try:
        child.expect("ready")
        setup = time.perf_counter() - child.started
        deadline = time.perf_counter() + PASS_TIMEOUT
        while sample and child.process.poll() is None and time.perf_counter() < deadline:
            samples.append((time.time(), calibration_kernel_s()))
            time.sleep(SAMPLE_GAP)
        child.finish(timeout=max(0.0, deadline - time.perf_counter()))
    finally:
        child.kill()
    return setup, (json.loads(out.read_text()) if out.exists() else None), samples


def _study_pass(work: Path, name: str, workload: str, seed: int,
                trace: bool = False, gate: bool = False, sample: bool = False) -> dict:
    setup, result, samples = _study_child(
        work,
        name,
        [
            "pass",
            "--workload", workload,
            "--seed", str(seed),
            "--trace", str(int(trace)),
            "--gate", str(int(gate)),
        ],
        sample=sample,
    )
    result["setup_s"] = setup
    # Half the cold pass's factor from the samples next to it in its own
    # process, half from the samples the parent took during it.
    start, end = result["cold_window"]
    during = [seconds for at, seconds in samples if start <= at <= end]
    if during:
        result["cold_factor"] = (result["cold_factor"] + host_speed_factor(during)) / 2
    return result


def _pass_seed(seed: int, index: int) -> int:
    """Master seed of a run's ``index``-th cold pass: the workload seed, then
    seeds derived from it.  The cold-pass cost of ``seed_studies`` depends
    on the seed (0.035 quartile spread over five runs of one seed, 0.116
    over five seeds), so a run's median spans several inputs."""
    return seed + PASS_SEED_STRIDE * index


def _measured(result: dict) -> float:
    return result["cold_s"] + sum(result["warm_s"])


def _adjusted_cold(result: dict) -> float:
    return result["cold_s"] * result["cold_factor"]


def run_study_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    passes: List[dict] = []
    setups: List[float] = []
    if trace:
        passes.append(_study_pass(work, "untraced", workload, seed, gate=True))
        traced = _study_pass(work, "traced", workload, seed, trace=True)
        if traced["renders"] != passes[0]["renders"]:
            outcome.problems.append("tracing changed a study rendering")
        outcome.problems.extend(traced["problems"])
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = _adjusted_cold(traced) / _adjusted_cold(passes[0]) - 1.0
        layers.update(dict.fromkeys(SERVICE_CLIENT_METRICS, 0.0))  # no server here
        outcome.metrics = layers
    else:
        for index in range(STUDY_SETUP_PROBES):
            setup, probe, _ = _study_child(work, f"probe{index}", ["probe"])
            setups.append(setup * probe["setup_factor"])
        # Cold passes, each in a fresh process on an empty store, while the
        # run would end within half a pass of --seconds of measured (cold +
        # warm) time: a median over several passes where they are short.
        measured = 0.0
        while not passes or measured + median([_measured(p) for p in passes]) / 2 <= seconds:
            index = len(passes)
            passes.append(
                _study_pass(
                    work, f"pass{index}", workload, _pass_seed(seed, index),
                    gate=not index, sample=True,
                )
            )
            measured += _measured(passes[-1])

    first = passes[0]
    outcome.notes.append(
        f"{first['reference_checked']} sampled runs re-simulated with the reference engine"
    )
    for result in passes:
        outcome.problems.extend(result["problems"])
    outcome.problems.extend(digest_mismatches(workload, seed, first["renders"], load_digests()))
    outcome.attempted = sum(result["scenarios"] for result in passes)
    if not trace:
        # Every time is scaled to the reference host speed by the calibration
        # samples taken next to it (see NOTES.md).
        setups.extend(result["setup_s"] * result["setup_factor"] for result in passes)
        cold = [result["cold_s"] * result["cold_factor"] for result in passes]
        warm = [
            value * factor
            for result in passes
            for value, factor in zip(result["warm_s"], result["warm_factors"])
        ]
        outcome.metrics = {
            "setup_s": median(setups),
            "cold_s": median(cold),
            "warm_s": median(warm),
            "sim_accesses_per_s": median([r["accesses"] / c for r, c in zip(passes, cold)]),
            "peak_rss_mb": median([result["peak_rss_mb"] for result in passes]),
        }
        outcome.notes.extend(
            [
                f"{len(setups)} set-ups, {len(cold)} cold pass(es), {len(warm)} warm pass(es); "
                f"failed_frac 0 of {outcome.attempted} scenarios",
                "cold passes, host seconds: "
                + ", ".join(f"{result['cold_s']:.2f}" for result in passes),
                "cold-pass host speed factors: "
                + ", ".join(f"{result['cold_factor']:.3f}" for result in passes),
                f"host seconds: cold_s {median([r['cold_s'] for r in passes]):.4g}, warm_s "
                f"{median([v for r in passes for v in r['warm_s']]):.4g}",
            ]
        )
    return outcome


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

def _ms(values: List[float]) -> float:
    return 1000.0 * median(values) if values else 0.0


def _latency_note(name: str, values: List[float], tail: float) -> str:
    pct = percentile(values, tail)
    shown = f"{1000 * pct:.1f} ms" if pct is not None else "n/a (under 10 samples beyond)"
    best = highest_tail(values)
    extra = f", highest reportable p{best[0]:g} {1000 * best[1]:.1f} ms" if best else ""
    return (
        f"{name}_p50_ms {1000 * median(values):.1f} ms, {name}_p{tail:g}_ms {shown}"
        f"{extra} (n={len(values)})"
    )


def run_serve_workload(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    from serve_load import Session

    outcome = Outcome()
    if trace:
        untraced = Session(work / "untraced", seed)
        outcome.problems.extend(untraced.run(seconds, SERVE_GATE_SAMPLE))
        session = Session(work / "traced", seed, trace=True)
        outcome.problems.extend(session.run(seconds))
    else:
        setups = []
        for index in range(SERVE_SETUP_PROBES):
            probe = Session(work / f"probe{index}", seed)
            probe.run(None)
            setups.append(probe.setup_s)
        session = Session(work / "main", seed)
        outcome.problems.extend(session.run(seconds, SERVE_GATE_SAMPLE))
        setups.append(session.setup_s)

    records = session.records
    done = [record for record in records if record.state == "done"]
    cold = [record.latency() for record in done if record.kind == "cold"]
    warm = [record.latency() for record in done if record.kind == "warm"]
    if not cold or not warm:
        raise RuntimeError("no cold or no warm job completed; nothing to report")
    outcome.attempted = len(records)
    outcome.failed = len(records) - len(done)
    errors = sorted({record.error for record in records if record.state != "done"})
    outcome.notes.extend(
        [
            f"failed_frac {outcome.failed / outcome.attempted:.4f} "
            f"({outcome.failed} of {outcome.attempted} jobs failed)",
            *(f"failure: {error}" for error in errors[:3]),
            _latency_note("cold_job", cold, 90.0),
            _latency_note("warm_job", warm, 95.0),
            f"first_event_p50_ms {_ms([r.first_event - r.submitted for r in done]):.1f} ms",
            f"jobs_per_s {len(done) / session.phase_s:.2f} 1/s over {session.phase_s:.1f} s",
        ]
    )
    if trace:
        layers = dict(session.layers)
        started = [record for record in records if record.started is not None]
        layers.update(
            {
                "exec.queue_wait_ms": _ms([r.started - r.submitted for r in started]),
                "service.submit_rtt_ms": _ms([r.submit_rtt for r in records if r.job_id]),
                "service.events_per_job": statistics.fmean(r.events for r in records),
                "service.rss_growth_mb": session.rss_growth_mb,
                "service.jobs_failed": outcome.failed,
                "trace.overhead_frac": session.phase_s / untraced.phase_s - 1.0,
            }
        )
        outcome.metrics = layers
    else:
        # The job list is fixed by the seed and --seconds, so the seconds it
        # takes to serve are this workload's cold pass; the accesses are the
        # ones its cold jobs request (failed jobs are counted separately).
        lengths = {}
        accesses = 0
        for record in records:
            if record.kind == "cold":
                workload = record.scenario.workload
                if workload not in lengths:
                    lengths[workload] = len(workload.build_trace())
                accesses += lengths[workload] * RUNS
        outcome.metrics = {
            "setup_s": median(setups),
            "cold_s": session.phase_s,
            "warm_s": median(warm),
            "sim_accesses_per_s": accesses / session.phase_s,
            "peak_rss_mb": session.peak_rss_mb,
        }
    return outcome


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark (see NOTES.md).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources ({SRC}) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK_ROOT / f"{args.workload}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "serve_mixed":
            outcome = run_serve_workload(args.seed, args.seconds, bool(args.trace), work)
        else:
            outcome = run_study_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), work
            )
    except Exception:  # the benchmark's boundary: report, no result
        traceback.print_exc()
        print(f"error: {args.workload} failed", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    if args.trace:
        from tracing import per_layer_units

        units = per_layer_units()
    else:
        units = END_TO_END
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(
        f"workload {args.workload}  seed {args.seed}  engine {ENGINE}  runs {RUNS}  "
        f"scale {workload_scale(args.workload)}  trace {args.trace}"
    )
    for name, unit in units.items():
        print(f"  {name:<32} {outcome.metrics[name]:>14.6g} {unit}")
    for note in outcome.notes:
        print(f"  # {note}")
    for problem in outcome.problems:
        print(f"  ! {problem}")
    correct = not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(outcome.metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
