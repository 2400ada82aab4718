"""Process-pool parallel execution of measurement campaigns (compatibility shim).

The pool machinery moved to :mod:`repro.exec.pool`, the in-process tier of
the :mod:`repro.exec` execution subsystem — campaigns are partitioned by the
shard planner (:mod:`repro.exec.plan`) and reassembled in seed order, so
``run_campaign(..., jobs=N)`` stays **bit-exact** with serial execution for
any worker count and chunk size.  This module re-exports the public surface
(and the worker entry points, which are process-pool targets and must stay
importable by path) so existing imports keep working.  New code should
import from :mod:`repro.exec` directly.
"""

from __future__ import annotations

from ..exec.plan import DEFAULT_SHARD_SIZE as DEFAULT_CHUNK_SIZE
from ..exec.plan import resolve_jobs
from ..exec.pool import (
    _init_layout_worker,
    _init_seed_worker,
    _run_layout_chunk,
    _run_seed_chunk,
    _worker_layout_state,
    _worker_simulator,
    partition_chunks,
    run_campaign_parallel,
    run_layouts_parallel,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "resolve_jobs",
    "partition_chunks",
    "run_campaign_parallel",
    "run_layouts_parallel",
]
