"""The benchmark's own tests: ``python -m pytest e2ebench/tests``."""

from __future__ import annotations

import json
import re
import time

import pytest

from common import BENCH_DIR, DEFAULT_SEED, digest, digest_mismatches, highest_tail, load_digests, percentile
from run import END_TO_END
from tracing import Tracer, install_program_wrappers, per_layer_units, summarize

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _render(study_name, settings, store):
    from repro.analysis.report import render_result
    from repro.study import get_study

    outcome = get_study(study_name).run(settings, store=store)
    return render_result(
        study_name,
        outcome.result,
        "json",
        miss_rates=outcome.results.miss_rates(),
        analysis=outcome.results.analysis_summaries(settings.estimator),
    )


def test_wrappers_are_transparent(tmp_path):
    from repro.analysis.experiments import ExperimentSettings
    from repro.cache import fastsim
    from repro.study import ResultStore, get_study, runner

    settings = ExperimentSettings(runs=24, scale=0.05, engine="numpy", master_seed=7)
    plain = {name: _render(name, settings, ResultStore(tmp_path / "plain")) for name in ("fig1", "fig4b")}
    builder = get_study("fig1").builder

    tracer = Tracer()
    install_program_wrappers(tracer)
    try:
        traced = {name: _render(name, settings, ResultStore(tmp_path / "traced")) for name in ("fig1", "fig4b")}
    finally:
        tracer.uninstall()

    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"workloads.trace_build", "plan.compile", "engine.run_batch", "campaign.layout_loop",
            "pwcet.fit", "store.save", "study.build"} <= names
    # Uninstalling restores the program exactly.
    assert runner.CompiledTrace is fastsim.CompiledTrace
    assert get_study("fig1").builder is builder


def test_self_times_and_other_add_up_to_wall():
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.span("study.run"):
        time.sleep(0.01)
        with tracer.span("report.render"):
            time.sleep(0.01)
    time.sleep(0.005)
    end = time.perf_counter()
    outer, inner = tracer.spans
    assert inner[3] == 0  # parent index

    metrics = summarize(tracer.spans, (start, end))
    inner_s = inner[2] - inner[1]
    outer_s = outer[2] - outer[1]
    assert metrics["report.render.self_s"] == pytest.approx(inner_s)
    assert metrics["study.run.self_s"] == pytest.approx(outer_s - inner_s)
    assert metrics["other.self_s"] == pytest.approx(end - start - outer_s)
    self_total = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.wall_s"])
    assert metrics["trace.lanes"] == 1


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 90.0) == 90
    assert percentile(values, 95.0) is None
    assert percentile(list(range(200)), 95.0) is not None
    assert percentile(list(range(19)), 50.0) is None
    assert percentile([], 50.0) is None
    assert highest_tail(values) == (90.0, 90)
    assert highest_tail(list(range(40))) == (75.0, 29)
    assert highest_tail(list(range(30))) is None  # p75 would have 7 beyond


def test_job_generator_is_deterministic():
    from serve_load import JobGenerator, job_request

    def cold_hashes(seed, seconds=25.0):
        return [scenario.spec_hash() for scenario in JobGenerator(seed, seconds).cold]

    assert cold_hashes(5) == cold_hashes(5)
    assert cold_hashes(5) != cold_hashes(6)
    assert len(cold_hashes(5)) == 66 and len(set(cold_hashes(5))) == 66
    assert len(cold_hashes(5, seconds=1.0)) == 22  # at least one full cycle

    generator = JobGenerator(5, 25.0)
    for start in (0, 22, 44):  # every cycle holds each kernel x {rm, hrp} once
        cycle = generator.cold[start : start + 22]
        assert len({(s.workload.name, s.hierarchy.label) for s in cycle}) == 22
    taken = [generator.take_cold() for _ in range(67)]
    assert taken[:66] == generator.cold and taken[66] is None

    finished = generator.cold[:5]
    first, second = generator.warm_picker(0), JobGenerator(5, 25.0).warm_picker(0)
    assert [first(finished) for _ in range(10)] == [second(finished) for _ in range(10)]
    assert job_request(finished[0])["engine"] == "numpy"


def test_metric_names():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    end_to_end = [metric["name"] for metric in bench["end_to_end"]]
    per_layer = [metric["name"] for metric in bench["per_layer"]]
    assert end_to_end == list(END_TO_END)
    assert per_layer == list(per_layer_units())
    for name in [*end_to_end, *per_layer, *(w["name"] for w in bench["workloads"])]:
        assert NAME.match(name), name
    assert len(set(end_to_end + per_layer)) == len(end_to_end) + len(per_layer)


def test_digest_gate_catches_a_perturbed_output(tmp_path):
    from repro.analysis.experiments import ExperimentSettings
    from repro.study import ResultStore

    recorded = load_digests()
    settings = ExperimentSettings(master_seed=DEFAULT_SEED, engine="numpy")
    digests = dict(recorded["workloads"]["seed_studies"])
    # table1 is analytical (no campaign), so its real rendering is cheap.
    rendering = _render("table1", settings, ResultStore(tmp_path))
    digests["table1"] = digest(rendering)
    assert digest_mismatches("seed_studies", DEFAULT_SEED, digests, recorded) == []

    digests["table1"] = digest(rendering.replace("0", "1", 1))
    problems = digest_mismatches("seed_studies", DEFAULT_SEED, digests, recorded)
    assert problems == ["table1: rendering differs from the recorded digest"]
    del digests["fig5"]
    assert len(digest_mismatches("seed_studies", DEFAULT_SEED, digests, recorded)) == 2
    # Other seeds have no recorded digests; the reference gate covers them.
    assert digest_mismatches("seed_studies", DEFAULT_SEED + 1, digests, recorded) == []


def test_host_speed_factor_scales_to_the_reference_speed():
    from common import HOST_REFERENCE_S, host_speed_factor

    # A host running at half the reference speed doubles the kernel's time,
    # so its measured times are halved; the median ignores one outlier.
    assert host_speed_factor([2 * HOST_REFERENCE_S] * 2) == 0.5
    assert host_speed_factor([HOST_REFERENCE_S, HOST_REFERENCE_S, 9.0]) == 1.0
