"""Content-hash memoization of per-seed placement maps.

With the plan executor making the per-access loop nearly free, the largest
cost left in a batched campaign is building the ``(n_lines, n_seeds)``
set-index matrix of each randomized placement policy — dominated by the
Random Modulo switch-network routing.  The map is a pure function of the
placement policy (name + geometry + network), the line addresses, and the
seed block, so it is memoized in a bounded in-memory LRU, keyed by a
SHA-256 digest of those inputs.  Repeated batches over the same trace —
sweeps varying only replacement/latency parameters, the service's warm
jobs, the equivalence tests — skip the build entirely.

The cache is per process and never touches disk: a build costs a few
milliseconds, about what reading a stored map back would, and a miss can
never produce a wrong answer.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Sequence

import numpy as np

__all__ = [
    "cached_set_index_matrix",
    "map_cache_stats",
    "reset_map_cache",
    "map_digest",
]

#: How many maps the in-memory LRU holds (a constant, not an option).
_MEMORY_ENTRIES = 32

_memory: "OrderedDict[str, np.ndarray]" = OrderedDict()
_stats: Dict[str, int] = {"memory_hits": 0, "misses": 0}
# The server runs jobs on worker threads: a lookup's ``move_to_end`` must not
# race another thread's eviction of the same key, nor a counter lose updates.
_lock = threading.Lock()


def map_cache_stats() -> Dict[str, int]:
    """Counters since the last reset (memory hits and misses)."""
    return dict(_stats)


def reset_map_cache() -> None:
    """Drop every memoized map and zero the counters."""
    with _lock:
        _memory.clear()
        _stats.update(memory_hits=0, misses=0)


# ----------------------------------------------------------------- digesting


def _policy_token(policy) -> bytes:
    """Canonical byte string identifying the placement function itself."""
    geometry = policy.geometry
    parts = [
        policy.name,
        str(geometry.num_sets),
        str(geometry.line_size),
        str(geometry.address_bits),
    ]
    network = getattr(policy, "network", None)
    if network is not None:
        # RM routing depends on the exact switch wiring, not just its width.
        parts.append(";".join(f"{a},{b}" for a, b in network.switches))
    return "\x1f".join(parts).encode()


def map_digest(policy, lines: np.ndarray, seeds: Sequence[int]) -> str:
    """SHA-256 content key of ``(placement, geometry, lines, seed block)``."""
    hasher = hashlib.sha256()
    hasher.update(_policy_token(policy))
    hasher.update(b"\x00lines")
    hasher.update(np.ascontiguousarray(lines, dtype=np.uint64).tobytes())
    hasher.update(b"\x00seeds")
    seed_arr = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF for seed in seeds], dtype=np.uint64)
    hasher.update(seed_arr.tobytes())
    return hasher.hexdigest()


def _map_dtype(index_bits: int):
    if index_bits <= 8:
        return np.uint8
    if index_bits <= 16:
        return np.uint16
    return np.int64


# ------------------------------------------------------------------ frontend


def cached_set_index_matrix(
    policy, lines: np.ndarray, seeds: Sequence[int]
) -> np.ndarray:
    """The per-seed set-index matrix of ``policy`` over ``lines``, memoized.

    Shape ``(len(lines), len(seeds))``; the narrowest unsigned dtype holding
    an index (uint8/uint16, int64 beyond 16 index bits).  Returned arrays are
    shared between callers and therefore read-only — copy before mutating.
    """
    lines = np.asarray(lines, dtype=np.uint64)
    digest = map_digest(policy, lines, seeds)
    with _lock:
        cached = _memory.get(digest)
        if cached is not None:
            _memory.move_to_end(digest)
            _stats["memory_hits"] += 1
            return cached
        _stats["misses"] += 1
    matrix = policy.set_index_matrix(lines, list(seeds))
    matrix = np.ascontiguousarray(matrix, dtype=_map_dtype(policy.geometry.index_bits))
    matrix.flags.writeable = False
    with _lock:
        _memory[digest] = matrix
        while len(_memory) > _MEMORY_ENTRIES:
            _memory.popitem(last=False)
    return matrix
