"""Sharded, resumable campaign execution.

``repro.exec`` is the execution subsystem behind every parallel campaign in
the repository, layered as **planner → queue → workers → reassembler**:

* :mod:`repro.exec.plan` — split a campaign into deterministic
  ``(spec_hash, seed-range)`` **shards**;
* :mod:`repro.exec.queue` — a file-backed **work queue** with atomic shard
  leases (owner id + expiry; stale and dead-owner leases are reclaimed);
* :mod:`repro.exec.worker` — **workers** that claim shards, execute them
  through the engine registry and publish content-hash-keyed shard entries
  into the :class:`~repro.study.store.ResultStore`, with heartbeat
  telemetry (:mod:`repro.exec.telemetry`);
* :mod:`repro.exec.executor` — the orchestrated pipeline plus the
  **reassembler** that merges shards in seed order, bit-exact with serial
  execution for any shard size and worker count;
* :mod:`repro.exec.pool` — the non-persistent in-process pool tier behind
  ``run_campaign(..., jobs=N)`` (no queue directory, no store).

Two execution modes share the worker loop: the executor's in-process pool,
and separately launched ``python -m repro worker`` processes attached to
the same queue directory.  ``python -m repro exec status`` renders queue
occupancy and worker telemetry (:mod:`repro.exec.status`).
"""

from __future__ import annotations

from .plan import (
    DEFAULT_SHARD_SIZE,
    Shard,
    plan_shards,
    resolve_jobs,
    resolve_shard_size,
    shard_key,
)
from .queue import DEFAULT_LEASE_TTL, FileQueue, Lease, default_owner_id
from .telemetry import HEARTBEAT_INTERVAL, WorkerHeartbeat, WorkerTelemetry, read_heartbeats
from .worker import ShardRunner, WorkerStats, run_worker, shard_task
from .executor import ShardReport, execute_scenario_sharded, reassemble_campaign
from .pool import (
    partition_chunks,
    run_campaign_parallel,
    run_layouts_parallel,
)
from .status import exec_status_snapshot, format_exec_status, render_exec_status

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_SHARD_SIZE",
    "HEARTBEAT_INTERVAL",
    "FileQueue",
    "Lease",
    "Shard",
    "ShardReport",
    "ShardRunner",
    "WorkerHeartbeat",
    "WorkerStats",
    "WorkerTelemetry",
    "default_owner_id",
    "exec_status_snapshot",
    "execute_scenario_sharded",
    "format_exec_status",
    "render_exec_status",
    "partition_chunks",
    "plan_shards",
    "read_heartbeats",
    "reassemble_campaign",
    "resolve_jobs",
    "resolve_shard_size",
    "run_campaign_parallel",
    "run_layouts_parallel",
    "run_worker",
    "shard_key",
    "shard_task",
]
