"""Measurement campaigns.

A *campaign* is the measurement-collection phase of MBPTA: the same program
(trace) is executed many times on the target platform, each run with a fresh
random seed, and the end-to-end execution times are recorded.  For the
deterministic baseline the seed is irrelevant, so the campaign instead varies
the memory layout across runs, emulating the stressing conditions of the
industrial high-water-mark practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..cache.fastsim import CompiledTrace
from ..cache.hierarchy import HierarchyConfig
from ..core.prng import derive_run_seeds
from ..cpu.core import (
    ExecutionTimingModel,
    TraceDrivenCore,
    TraceRunResult,
    timing_overhead_cycles,
)
from ..cpu.trace import Trace
from ..engine import get_engine
from ..workloads.base import MemoryLayout, random_layouts
from ..workloads.relocation import check_relocation, layout_line_table

__all__ = ["CampaignResult", "run_campaign", "run_layout_campaign"]


@dataclass
class CampaignResult:
    """Execution times (and cache statistics) of one measurement campaign."""

    workload: str
    setup: str
    execution_times: List[int]
    run_results: List[TraceRunResult] = field(default_factory=list)
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not self.execution_times:
            raise ValueError(
                f"campaign for workload {self.workload!r} (setup {self.setup!r}) "
                "has no execution times; a CampaignResult needs at least one run"
            )

    @property
    def runs(self) -> int:
        return len(self.execution_times)

    @property
    def high_water_mark(self) -> int:
        """Largest observed execution time."""
        return max(self.execution_times)

    @property
    def minimum(self) -> int:
        return min(self.execution_times)

    @property
    def mean(self) -> float:
        return sum(self.execution_times) / len(self.execution_times)

    def miss_summary(self) -> Dict[str, float]:
        """Average per-run miss counts and per-level miss rates.

        Rates are normalised by the per-run memory accesses (``*_miss_rate``
        keys), so they are comparable across workloads of different trace
        lengths.  Empty if detailed run results were not kept.
        """
        if not self.run_results:
            return {}
        n = len(self.run_results)
        summary = {
            "il1_misses": sum(r.il1_misses for r in self.run_results) / n,
            "dl1_misses": sum(r.dl1_misses for r in self.run_results) / n,
            "l2_misses": sum(r.l2_misses for r in self.run_results) / n,
            "memory_accesses": sum(r.memory_accesses for r in self.run_results) / n,
        }
        accesses = summary["memory_accesses"]
        for level in ("il1", "dl1", "l2"):
            summary[f"{level}_miss_rate"] = (
                summary[f"{level}_misses"] / accesses if accesses else 0.0
            )
        return summary


def run_campaign(
    trace: Trace,
    config: HierarchyConfig,
    runs: int,
    master_seed: int = 0,
    setup: str = "",
    engine: str = "fast",
    timing: ExecutionTimingModel = ExecutionTimingModel(),
    keep_run_results: bool = False,
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> CampaignResult:
    """Measure ``trace`` on ``config`` for ``runs`` runs with fresh seeds.

    Per-run seeds are derived deterministically from ``master_seed``, so the
    campaign (and everything downstream: i.i.d. tests, pWCET estimates) is
    exactly reproducible.

    ``engine`` names a registered simulation backend (see
    :func:`repro.engine.available_engines`); every bit-exact engine returns
    identical campaigns, so the knob only trades wall-clock time.  ``jobs``
    selects the execution mode: ``1`` (the default) runs every seed serially
    in-process, while ``jobs > 1`` (or ``0`` for one worker per CPU)
    distributes seed chunks over a process pool — see
    :mod:`repro.analysis.parallel`.  Both paths are bit-exact: the parallel
    executor reassembles results in seed order, so the returned campaign is
    identical for any ``jobs`` value, with any engine.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    get_engine(engine)  # reject unknown engines before any simulation work
    from .parallel import resolve_jobs, run_campaign_parallel

    effective_jobs = min(resolve_jobs(jobs), runs)
    if effective_jobs > 1:
        return run_campaign_parallel(
            trace,
            config,
            runs,
            master_seed=master_seed,
            setup=setup,
            engine=engine,
            timing=timing,
            keep_run_results=keep_run_results,
            jobs=effective_jobs,
            chunk_size=chunk_size,
        )
    core = TraceDrivenCore(config, trace, timing=timing)
    seeds = derive_run_seeds(master_seed, runs)
    results = core.run_batch(seeds, engine=engine)
    return CampaignResult(
        workload=trace.name,
        setup=setup or f"{config.il1.placement}/{config.il1.replacement}",
        execution_times=[result.cycles for result in results],
        run_results=list(results) if keep_run_results else [],
        master_seed=master_seed,
    )


def run_layout_campaign(
    trace_builder: Callable[[MemoryLayout], Trace],
    config: HierarchyConfig,
    runs: int,
    master_seed: int = 0,
    setup: str = "deterministic",
    layouts: Optional[Sequence[MemoryLayout]] = None,
    engine: str = "fast",
    timing: ExecutionTimingModel = ExecutionTimingModel(),
    jobs: int = 1,
    chunk_size: Optional[int] = None,
) -> CampaignResult:
    """Measure a workload on a deterministic platform under varying layouts.

    ``trace_builder`` maps a :class:`MemoryLayout` to the workload's trace.
    If ``layouts`` is not given, ``runs`` layouts with randomly shifted
    segments are generated from ``master_seed``.  The cache seed is fixed
    (deterministic placement ignores it, and LRU replacement has no
    randomness), so all execution-time variability comes from the memory
    layout — exactly the situation the industrial high-water-mark practice
    faces.

    The trace is built and compiled once, at the first layout (the
    template); every layout is then the template relocated by its code and
    data shifts (:mod:`repro.workloads.relocation`), and the engine runs all
    of them through :meth:`repro.engine.Engine.run_layouts`.  One more build,
    at the layout that moves the most segments, checks that
    ``trace_builder`` honours the relocation contract.  Raises
    :class:`ValueError` when a shift is not a multiple of the L1 line size,
    a layout makes the segments overlap, or the check build is not the
    relocated template.

    With ``jobs > 1`` (or ``0`` for one worker per CPU) column chunks of
    the relocated line table are distributed over a process pool (see
    :mod:`repro.analysis.parallel`).  Results are reassembled in layout
    order, so serial and parallel campaigns are bit-exact.
    """
    if layouts is None:
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        layouts = random_layouts(runs, master_seed=master_seed)
    if not layouts:
        raise ValueError("layout campaign needs at least one memory layout")
    backend = get_engine(engine)  # reject unknown engines before any simulation work
    from .parallel import resolve_jobs, run_layouts_parallel

    template = trace_builder(layouts[0])
    compiled = CompiledTrace(template, line_size=config.il1.line_size)
    line_table = layout_line_table(compiled, layouts[0], layouts)
    check = _check_layout_index(layouts)
    if check:
        layout = layouts[check]
        built = CompiledTrace(trace_builder(layout), line_size=compiled.line_size)
        check_relocation(compiled.relocated(line_table[:, check]), built, layout)
    overhead_cycles = timing_overhead_cycles(template, timing)

    effective_jobs = min(resolve_jobs(jobs), len(layouts))
    if effective_jobs > 1:
        results = run_layouts_parallel(
            config, compiled, line_table, backend,
            jobs=effective_jobs, chunk_size=chunk_size,
        )
    else:
        results = backend.run_layouts(config, compiled, line_table)
    return CampaignResult(
        workload=template.name,
        setup=setup,
        execution_times=[result.cycles + overhead_cycles for result in results],
        master_seed=master_seed,
    )


def _check_layout_index(layouts: Sequence[MemoryLayout]) -> int:
    """The layout the relocation contract is checked at: the first one that
    moves the most segments away from the template (``layouts[0]``); ``0``
    when every layout is the template, which needs no check."""
    template = layouts[0]

    def moved(layout: MemoryLayout) -> int:
        return (
            (layout.code_base != template.code_base)
            + (layout.data_base != template.data_base)
            + (layout.stack_base != template.stack_base)
        )

    return max(range(len(layouts)), key=lambda index: moved(layouts[index]))
