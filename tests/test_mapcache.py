"""The in-memory placement-map cache (repro.engine.mapcache).

The maps themselves are pure functions pinned by the placement tests; what
these tests certify is the *caching*: memory hits return the shared frozen
array with the uncached values, the digest separates every input, threads
racing on one missing map agree, and the LRU stays bounded.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.placement import PlacementGeometry, make_placement
from repro.engine import mapcache
from repro.engine.mapcache import (
    cached_set_index_matrix,
    map_cache_stats,
    map_digest,
    reset_map_cache,
)

LINES = np.arange(64, dtype=np.uint64) * 32 + 0x40000000
SEEDS = [1, 2, 0xDEADBEEF]


@pytest.fixture(autouse=True)
def isolated_cache():
    """Start and end every test with an empty cache and zeroed counters."""
    reset_map_cache()
    yield
    reset_map_cache()


def _policy(name="rm", num_sets=16, seed=0):
    geometry = PlacementGeometry(num_sets=num_sets, line_size=32, address_bits=32)
    return make_placement(name, geometry, seed=seed)


class TestTiers:
    def test_values_match_the_uncached_build(self):
        policy = _policy()
        cached = cached_set_index_matrix(policy, LINES, SEEDS)
        direct = policy.set_index_matrix(LINES, list(SEEDS))
        assert cached.shape == (len(LINES), len(SEEDS))
        assert (cached.astype(np.int64) == direct.astype(np.int64)).all()

    def test_memory_hit_returns_the_shared_frozen_array(self):
        policy = _policy()
        first = cached_set_index_matrix(policy, LINES, SEEDS)
        second = cached_set_index_matrix(policy, LINES, SEEDS)
        assert second is first  # the LRU shares, it does not copy
        assert not first.flags.writeable
        assert map_cache_stats() == {"memory_hits": 1, "misses": 1}

    def test_reset_drops_entries_and_counters(self):
        policy = _policy()
        first = cached_set_index_matrix(policy, LINES, SEEDS)
        reset_map_cache()
        assert map_cache_stats() == {"memory_hits": 0, "misses": 0}
        again = cached_set_index_matrix(policy, LINES, SEEDS)
        assert again is not first and (again == first).all()
        assert map_cache_stats() == {"memory_hits": 0, "misses": 1}

    def test_narrow_dtype_storage(self):
        assert cached_set_index_matrix(_policy(num_sets=16), LINES, SEEDS).dtype == np.uint8
        assert (
            cached_set_index_matrix(_policy(num_sets=1024), LINES, SEEDS).dtype
            == np.uint16
        )

    def test_digest_separates_policy_lines_and_seeds(self):
        policy = _policy()
        base = map_digest(policy, LINES, SEEDS)
        assert map_digest(policy, LINES, [9, 10]) != base
        assert map_digest(policy, LINES[:32], SEEDS) != base
        assert map_digest(_policy(num_sets=64), LINES, SEEDS) != base
        assert map_digest(_policy(name="hrp"), LINES, SEEDS) != base


class TestConcurrency:
    def test_concurrent_writers_race_benignly(self):
        """Threads building the same missing map (the server runs jobs on
        worker threads) all end with identical values, and the cache holds
        one entry for them."""
        policy = _policy()
        results = []
        errors = []
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait(timeout=30)
                results.append(cached_set_index_matrix(policy, LINES, SEEDS))
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == 8
        for matrix in results[1:]:
            assert (matrix == results[0]).all()
        assert len(mapcache._memory) == 1

    def test_threads_evicting_each_other_count_every_lookup(self):
        """More threads than cores cycling through more maps than the LRU
        holds: lookups race evictions, and a lost counter update or a
        ``move_to_end`` on an evicted key would show."""
        policy = _policy()
        seed_blocks = [[seed] for seed in range(48)]  # > the 32-entry bound
        threads_n, rounds = 16, 6
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def worker(offset):
                try:
                    for step in range(rounds * len(seed_blocks)):
                        block = seed_blocks[(offset + step) % len(seed_blocks)]
                        cached_set_index_matrix(policy, LINES, block)
                except Exception as error:  # pragma: no cover - failure detail
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        stats = map_cache_stats()
        assert stats["memory_hits"] + stats["misses"] == (
            threads_n * rounds * len(seed_blocks)
        )
        assert len(mapcache._memory) == mapcache._MEMORY_ENTRIES

    def test_memory_lru_is_bounded(self, monkeypatch):
        monkeypatch.setattr(mapcache, "_MEMORY_ENTRIES", 2)
        policies = [_policy(num_sets=sets) for sets in (8, 16, 32, 64)]
        for policy in policies:
            cached_set_index_matrix(policy, LINES, SEEDS)
        assert len(mapcache._memory) == 2
