"""Span tracing installed from outside the program under test.

The benchmark never edits ``src/``: it wraps the public entry points of each
layer at every module attribute where callers look them up, records one span
per call (name, start, end, parent, thread, counters) in memory, and
summarises the spans once the run is over.  A layer's self time is its span
duration minus the time its child spans (same thread) cover; whatever no
span covers on a traced thread is reported as ``other.self_s``.

``Tracer.install`` swaps one attribute for a timing wrapper and remembers the
original, so ``Tracer.uninstall`` restores the program exactly.  Without a
tracer installed nothing of the program is wrapped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One span: [name, start, end, parent index (-1 = root), thread id, counters].
Span = list

Observer = Callable[[Dict[str, float], object, tuple, dict], None]


class Tracer:
    """Collects spans in memory; thread-safe, one span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object]] = []
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> Tuple[Span, list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span: Span = [name, 0.0, 0.0, stack[-1] if stack else -1, threading.get_ident(), {}]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        return span, stack

    @staticmethod
    def _close(span: Span, stack: list) -> None:
        span[2] = time.perf_counter()
        stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a span."""
        span, stack = self._open(name)
        try:
            yield span[5]
        finally:
            self._close(span, stack)

    def wrap(self, function, name: str, observe: Optional[Observer] = None):
        """``function`` with every call recorded as a span called ``name``.

        ``observe(counters, result, args, kwargs)`` may add counts to the
        span from the call's result; it runs inside the span.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span, stack = self._open(name)
            try:
                result = function(*args, **kwargs)
                if observe is not None:
                    observe(span[5], result, args, kwargs)
                return result
            finally:
                self._close(span, stack)

        return traced

    # --------------------------------------------------------- installation

    def install(
        self, owner: object, attribute: str, name: str, observe: Optional[Observer] = None
    ) -> None:
        """Replace ``owner.attribute`` (module or class) by a traced wrapper."""
        original = vars(owner)[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, observe))

    def on_uninstall(self, undo: Callable[[], None]) -> None:
        """Register an undo step for an installation done by other means."""
        self._restore.append(undo)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (reverse order)."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)
        while self._restore:
            self._restore.pop()()


# ---------------------------------------------------------------------------
# The program's layers
# ---------------------------------------------------------------------------

def _count_accesses(counters, trace, args, kwargs) -> None:
    counters["accesses"] = len(trace)


def _count_plan(counters, plan, args, kwargs) -> None:
    counters["plan_accesses"] = plan.n_accesses
    counters["plan_steps"] = plan.n_steps


def _count_runs(counters, results, args, kwargs) -> None:
    counters["runs"] = len(results)


def _count_one_campaign(counters, result, args, kwargs) -> None:
    counters["campaigns"] = 1


def _count_campaigns(counters, results, args, kwargs) -> None:
    counters["campaigns"] = len(results)


def _count_hit(counters, result, args, kwargs) -> None:
    counters["hit"] = 0 if result is None else 1


def _count_bytes(counters, path, args, kwargs) -> None:
    counters["bytes"] = path.stat().st_size


#: ``ExecutionReport`` fields summed into the ``runner.*`` metrics.
REPORT_FIELDS = ("planned", "cache_hits", "simulated", "batches", "stored")


def _count_report(counters, results, args, kwargs) -> None:
    for field in REPORT_FIELDS:
        counters[field] = getattr(results.report, field)


def install_program_wrappers(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are built from.

    Functions are wrapped where they are looked up, not only where they are
    defined: ``CompiledTrace`` is called by name from four modules, and a
    site left unwrapped would show up as growth of ``other.self_s``.
    """
    import repro
    import repro.analysis as analysis
    from repro.analysis import campaign
    from repro.cpu import core
    from repro.engine import numpy_engine
    from repro.exec import executor, pool, worker
    from repro.service.services import jobs
    from repro.study import registry, resultset, runner, scenario, store
    from repro.workloads import eembc

    tracer.install(scenario.WorkloadSpec, "build_trace", "workloads.trace_build", _count_accesses)
    tracer.install(
        eembc.EembcLayoutTraceBuilder, "__call__", "workloads.trace_build", _count_accesses
    )
    for module in (core, runner, worker, pool):
        tracer.install(module, "CompiledTrace", "fastsim.compiled_trace")
    tracer.install(numpy_engine, "compile_plan", "plan.compile", _count_plan)
    tracer.install(numpy_engine, "cached_set_index_matrix", "mapcache.build")
    tracer.install(numpy_engine._VectorSimulator, "run_batch", "engine.run_batch", _count_runs)
    for module in (runner, campaign, analysis, repro):
        tracer.install(module, "run_layout_campaign", "campaign.layout_loop")
    tracer.install(resultset, "apply_mbpta", "pwcet.fit", _count_one_campaign)
    tracer.install(resultset, "apply_mbpta_batch", "pwcet.fit", _count_campaigns)
    for module in (registry, jobs):
        tracer.install(module, "execute_scenarios", "runner.execute", _count_report)
    tracer.install(registry.Study, "run", "study.run")
    ResultStore = store.ResultStore
    tracer.install(ResultStore, "save", "store.save", _count_bytes)
    tracer.install(ResultStore, "load", "store.load", _count_hit)
    tracer.install(ResultStore, "save_analysis", "store.save_analysis", _count_bytes)
    tracer.install(ResultStore, "load_analysis", "store.load_analysis", _count_hit)
    tracer.install(ResultStore, "save_shard", "exec.shard_publish", _count_bytes)
    tracer.install(ResultStore, "record_study", "store.record_study")
    tracer.install(worker.ShardRunner, "execute", "exec.shard")
    tracer.install(executor, "reassemble_campaign", "exec.reassemble")
    tracer.install(jobs.JobManager, "_execute", "service.job")
    tracer.install(jobs.JobManager, "submit", "service.submit")

    # Study builders are captured by the registry at registration time, so
    # they are wrapped by re-registering each study.
    originals = [registry.get_study(name) for name in registry.available_studies()]
    for study in originals:
        registry.register_study(
            dataclasses.replace(study, builder=tracer.wrap(study.builder, "study.build")),
            replace=True,
        )

    def restore_studies() -> None:
        for study in originals:
            registry.register_study(study, replace=True)

    tracer.on_uninstall(restore_studies)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

#: Span names whose ``calls`` and ``self_s`` are per-layer metrics.
LAYER_SPANS = (
    "workloads.trace_build",
    "fastsim.compiled_trace",
    "plan.compile",
    "mapcache.build",
    "engine.run_batch",
    "campaign.layout_loop",
    "pwcet.fit",
    "runner.execute",
    "study.run",
    "study.build",
    "report.render",
    "runtable.build",
    "store.save",
    "store.load",
    "store.save_analysis",
    "store.load_analysis",
    "store.record_study",
    "exec.shard",
    "exec.shard_publish",
    "exec.reassemble",
    "service.job",
    "service.submit",
)

#: Per-layer metrics that are not span calls/self times, with their units.
LAYER_COUNTS = {
    "workloads.accesses_built": "count",
    "plan.elided_frac": "ratio",
    "mapcache.memory_hits": "count",
    "mapcache.disk_hits": "count",
    "mapcache.misses": "count",
    "mapcache.hit_ratio": "ratio",
    "engine.runs": "count",
    "engine.us_per_run": "us",
    "pwcet.campaigns_fitted": "count",
    "runner.planned": "count",
    "runner.cache_hits": "count",
    "runner.simulated": "count",
    "runner.batches": "count",
    "runner.stored": "count",
    "resultset.analysis_hit_ratio": "ratio",
    "store.bytes_written": "bytes",
    "store.load.hit_ratio": "ratio",
    "exec.shards_executed": "count",
    "exec.queue_wait_ms": "ms",
    "service.submit_rtt_ms": "ms",
    "service.events_per_job": "count",
    "service.rss_growth_mb": "MB",
    "service.jobs_failed": "count",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.lanes": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for name in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(LAYER_COUNTS)
    return units


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(spans: Sequence[Span], window: Tuple[float, float]) -> Dict[str, float]:
    """Per-layer metrics of the spans that lie inside ``window``.

    Self times of all spans plus ``other.self_s`` add up to ``trace.wall_s``,
    which is the window length times the number of threads that recorded a
    span in it (one for the study workloads; the event loop and the job
    threads for the server, whose idle time therefore lands in
    ``other.self_s``).
    """
    start, end = window
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    threads = set()
    selected = 0
    for index, span in enumerate(spans):
        name, begin, finish, _parent, thread, counters = span
        if begin < start or finish > end or finish == 0.0:
            continue
        selected += 1
        threads.add(thread)
        calls[name] += 1
        self_s[name] += (finish - begin) - child_time[index]
        for key, value in counters.items():
            counts[f"{name}:{key}"] += value
    metrics: Dict[str, float] = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    wall = (end - start) * len(threads)
    metrics["workloads.accesses_built"] = counts["workloads.trace_build:accesses"]
    metrics["plan.elided_frac"] = 1.0 - _ratio(
        counts["plan.compile:plan_steps"], counts["plan.compile:plan_accesses"]
    ) if counts["plan.compile:plan_accesses"] else 0.0
    for field in REPORT_FIELDS:
        metrics[f"runner.{field}"] = counts[f"runner.execute:{field}"]
    metrics["engine.runs"] = counts["engine.run_batch:runs"]
    run_batch_time = sum(
        span[2] - span[1]
        for span in spans
        if span[0] == "engine.run_batch" and span[1] >= start and 0.0 < span[2] <= end
    )
    metrics["engine.us_per_run"] = 1e6 * _ratio(run_batch_time, metrics["engine.runs"])
    metrics["pwcet.campaigns_fitted"] = counts["pwcet.fit:campaigns"]
    loaded = counts["store.load_analysis:hit"]
    metrics["resultset.analysis_hit_ratio"] = _ratio(
        loaded, loaded + metrics["pwcet.campaigns_fitted"]
    )
    metrics["store.bytes_written"] = (
        counts["store.save:bytes"]
        + counts["store.save_analysis:bytes"]
        + counts["exec.shard_publish:bytes"]
    )
    metrics["store.load.hit_ratio"] = _ratio(counts["store.load:hit"], calls["store.load"])
    metrics["exec.shards_executed"] = calls["exec.shard"]
    metrics["other.self_s"] = wall - sum(self_s.values())
    metrics["trace.wall_s"] = wall
    metrics["trace.lanes"] = len(threads)
    metrics["trace.spans"] = selected
    return metrics


def map_cache_metrics(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    """Map-cache tier counts between two ``map_cache_stats()`` snapshots."""
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    hits = delta.get("memory_hits", 0) + delta.get("disk_hits", 0)
    return {
        "mapcache.memory_hits": delta.get("memory_hits", 0),
        "mapcache.disk_hits": delta.get("disk_hits", 0),
        "mapcache.misses": delta.get("misses", 0),
        "mapcache.hit_ratio": _ratio(hits, hits + delta.get("misses", 0)),
    }
