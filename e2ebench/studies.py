"""Child process of the study workloads (``fig4b_layouts``, ``seed_studies``).

One process is one cold pass: it imports the program, opens an empty result
store, prints ``ready`` (the parent times process start to this line as
set-up), runs every study of the workload through the store, then repeats
the studies as warm passes on a fresh ``ResultStore`` instance over the now
populated store, each followed by a run-table rebuild.  Results, counters
and gate findings are written as JSON to ``--out``.

    python e2ebench/studies.py probe --store DIR
    python e2ebench/studies.py pass --workload seed_studies --seed 1 \\
        --store DIR --out FILE [--trace 0|1] [--gate 0|1]

``probe`` stops after set-up and a host-speed calibration sample.  A pass
takes samples before and after its cold pass and after every block of warm
passes, and reports the host-speed factor of each time it measured (see
``common.host_speed_factor``).  Warm passes run for at least
``WARM_SECONDS`` and ``WARM_PASSES``, so their median never rests on a
handful of samples.  ``--trace 1`` installs the span wrappers and
adds the per-layer summary of the timed section to the output.  ``--gate
1`` re-simulates a sample of every distinct campaign with the ``reference``
engine after the timed section.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    ENGINE,
    RUNS,
    STUDY_WORKLOADS,
    calibration_kernel_s,
    calibration_sample,
    digest,
    host_speed_factor,
    peak_rss_mb,
    reference_cycles,
    workload_scale,
    write_json,
)


WARM_PASSES = 3
WARM_SECONDS = 1.5
WARM_BLOCK_SECONDS = 0.25


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("probe", "pass"))
    parser.add_argument("--store", required=True)
    parser.add_argument("--workload", choices=sorted(STUDY_WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gate", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _analysis_files(store) -> Dict[str, Tuple[int, int]]:
    """(inode, mtime) of every persisted analysis: any EVT fit rewrites one."""
    root = store.analysis_root
    if not root.is_dir():
        return {}
    return {
        path.name: (stat.st_ino, stat.st_mtime_ns)
        for path in root.iterdir()
        for stat in (path.stat(),)
    }


def run_studies(studies, settings, store, span):
    """Run each study through ``store`` and render it as ``study run
    --format json`` does; returns (renderings, outcomes) by study name."""
    from repro.analysis.report import render_result
    from repro.study import get_study

    renders: Dict[str, str] = {}
    outcomes = {}
    for name in studies:
        outcome = get_study(name).run(settings, store=store)
        with span("report.render"):
            renders[name] = render_result(
                name,
                outcome.result,
                "json",
                miss_rates=outcome.results.miss_rates(),
                analysis=outcome.results.analysis_summaries(settings.estimator),
            )
        outcomes[name] = outcome
    return renders, outcomes


def _expected_cold_hits(studies, settings) -> Dict[str, int]:
    """Per study, the scenarios an earlier study of the pass already ran."""
    from repro.study import get_study

    seen = set()
    expected = {}
    for name in studies:
        hashes = {scenario.spec_hash() for scenario in get_study(name).plan(settings)}
        expected[name] = len(hashes & seen)
        seen |= hashes
    return expected


def _simulated_accesses(outcomes) -> int:
    """Trace length x runs, summed over the campaigns the pass simulated."""
    lengths: Dict[object, int] = {}
    counted = set()
    total = 0
    for outcome in outcomes.values():
        for scenario_outcome in outcome.results:
            if scenario_outcome.from_cache or scenario_outcome.spec_hash in counted:
                continue
            counted.add(scenario_outcome.spec_hash)
            workload = scenario_outcome.scenario.workload
            if workload not in lengths:
                lengths[workload] = len(workload.build_trace())
            total += lengths[workload] * len(scenario_outcome.campaign.execution_times)
    return total


def reference_mismatches(outcomes, seed: int) -> Tuple[int, List[str]]:
    """Re-simulate one sampled run of every distinct (workload, hierarchy,
    campaign kind) with the ``reference`` engine; returns (checked, problems)."""
    rng = random.Random(seed)
    seen = set()
    problems: List[str] = []
    for outcome in outcomes.values():
        for scenario_outcome in outcome.results:
            scenario = scenario_outcome.scenario
            key = (scenario.workload, scenario.hierarchy, scenario.campaign)
            if key in seen:
                continue
            seen.add(key)
            times = scenario_outcome.campaign.execution_times
            index = rng.randrange(len(times))
            cycles = reference_cycles(scenario, index)
            if cycles != times[index]:
                problems.append(
                    f"{scenario_outcome.label} run {index}: numpy {times[index]} "
                    f"!= reference {cycles}"
                )
    return len(seen), problems


def main(argv=None) -> int:
    args = _parse(argv)
    import repro.__main__  # noqa: F401  (the CLI's own import set)
    from repro.analysis.experiments import ExperimentSettings
    from repro.engine.mapcache import map_cache_stats
    from repro.study import ResultStore, build_run_table

    tracer = None
    if args.trace:
        from tracing import Tracer, install_program_wrappers

        tracer = Tracer()
        install_program_wrappers(tracer)
    store = ResultStore(args.store)
    print("ready", flush=True)
    if args.command == "probe":
        write_json(Path(args.out), {"setup_factor": host_speed_factor(calibration_sample())})
        return 0

    studies = STUDY_WORKLOADS[args.workload]
    settings = ExperimentSettings(
        runs=RUNS,
        master_seed=args.seed,
        scale=workload_scale(args.workload),
        engine=ENGINE,
        jobs=1,
    )
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    problems: List[str] = []

    before_cold = calibration_sample()
    ready, ready_wall = time.perf_counter(), time.time()
    maps_before = map_cache_stats()
    renders, cold = run_studies(studies, settings, store, span)
    cold_end, cold_end_wall = time.perf_counter(), time.time()
    maps_cold = map_cache_stats()
    # Host speed next to every measurement; not while tracing, where the
    # kernel would sit inside the traced window.
    calibrate = tracer is None
    after_cold = calibration_sample() if calibrate else []

    def warm_pass() -> float:
        before = _analysis_files(store)
        started = time.perf_counter()
        warm_store = ResultStore(args.store)
        warm_renders, warm = run_studies(studies, settings, warm_store, span)
        with span("runtable.build"):
            table = build_run_table(warm_store, refresh=True)
        elapsed = time.perf_counter() - started
        if warm_renders != renders:
            problems.append("a warm pass renders differently from the cold pass")
        if _analysis_files(store) != before:
            problems.append("a warm pass ran an EVT fit")
        if len(table) == 0:
            problems.append("the run table is empty")
        for name, outcome in warm.items():
            report = outcome.report
            if report.simulated or (report.planned and not report.full_cache_hit):
                problems.append(f"warm {name}: {report.summary()}")
        return elapsed

    # Warm passes in blocks of WARM_BLOCK_SECONDS, each block scaled by the
    # calibration samples taken right before and right after it.
    warm_s: List[float] = []
    warm_factors: List[float] = []
    latest = after_cold[-1:]
    while len(warm_s) < WARM_PASSES or sum(warm_s) < WARM_SECONDS:
        block = [warm_pass()]
        while sum(block) < WARM_BLOCK_SECONDS:
            block.append(warm_pass())
        warm_s.extend(block)
        if calibrate:
            sample = calibration_kernel_s()
            warm_factors.extend([host_speed_factor([*latest, sample])] * len(block))
            latest = [sample]
    window_end = time.perf_counter()
    maps_after = map_cache_stats()
    layers = None
    if tracer is not None:
        from tracing import map_cache_metrics, summarize

        tracer.uninstall()
        layers = summarize(tracer.spans, (ready, window_end))
        layers.update(map_cache_metrics(maps_before, maps_after))

    expected_hits = _expected_cold_hits(studies, settings)
    for name, outcome in cold.items():
        if outcome.report.cache_hits != expected_hits[name]:
            problems.append(
                f"cold {name}: {outcome.report.cache_hits} cache hits, "
                f"expected {expected_hits[name]} shared scenarios"
            )
    if maps_cold["misses"] - maps_before["misses"] <= 0:
        problems.append("cold pass built no placement map (map cache not cold)")
    result = {
        "cold_s": cold_end - ready,
        "warm_s": warm_s,
        "accesses": _simulated_accesses(cold),
        "scenarios": sum(outcome.report.planned for outcome in cold.values()),
        "peak_rss_mb": peak_rss_mb(),
        "setup_factor": host_speed_factor(before_cold),
        "cold_factor": host_speed_factor(before_cold + after_cold),
        "cold_window": [ready_wall, cold_end_wall],
        "warm_factors": warm_factors,
        "renders": {name: digest(text) for name, text in renders.items()},
        "problems": problems,
        "layers": layers,
    }
    if args.gate:
        checked, mismatches = reference_mismatches(cold, args.seed)
        result["reference_checked"] = checked
        problems.extend(mismatches)
    write_json(Path(args.out), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
