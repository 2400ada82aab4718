"""Fast flat-array engine for measurement campaigns.

MBPTA needs hundreds to thousands of end-to-end runs per benchmark and
configuration.  The object-oriented reference model in
:mod:`repro.cache.cache` is convenient to inspect but too slow for that, so
this module re-implements the exact same semantics with flat Python lists
and no per-access object allocation.  It is registered as the ``"fast"``
backend of the engine registry (:mod:`repro.engine`); the vectorized
``"numpy"`` backend (:mod:`repro.engine.numpy_engine`) builds on the same
:class:`CompiledTrace` representation and is kept bit-exact with it.

The two engines are kept bit-exact with each other: they share the seed
derivation helpers (:func:`repro.cache.cache.derive_policy_seeds`,
:func:`repro.cache.hierarchy.derive_cache_seeds`), the placement policy
objects and the :class:`~repro.core.prng.SplitMix64` victim stream, and the
test suite asserts that cycles and miss counts agree exactly on random
traces.

Supported configuration subset (everything the paper's experiments need):

* L1 caches: write-through + no-write-allocate or write-back + write-allocate,
  ``random`` or ``lru`` replacement, any placement policy.
* L2 cache (optional): write-back + write-allocate, ``random`` or ``lru``
  replacement, any placement policy.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.placement import make_placement, placement_is_randomized
from ..core.prng import SplitMix64
from .cache import WRITE_BACK, CacheConfig, derive_policy_seeds
from .hierarchy import HierarchyConfig, derive_cache_seeds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.trace import Trace

# Access-kind encodings, kept numerically identical to
# :class:`repro.cpu.trace.AccessKind` (the cpu package imports this one, so
# the constants live here to avoid a circular package import).
FETCH_KIND = 0
LOAD_KIND = 1
STORE_KIND = 2

__all__ = [
    "CompiledTrace",
    "FastRunResult",
    "FastHierarchySimulator",
    "simulate_trace",
    "simulate_trace_batch",
]


@dataclass(frozen=True)
class FastRunResult:
    """Counters produced by one simulated run."""

    cycles: int
    memory_accesses: int
    il1_accesses: int
    il1_misses: int
    dl1_accesses: int
    dl1_misses: int
    l2_accesses: int
    l2_misses: int

    @property
    def il1_miss_rate(self) -> float:
        return self.il1_misses / self.il1_accesses if self.il1_accesses else 0.0

    @property
    def dl1_miss_rate(self) -> float:
        return self.dl1_misses / self.dl1_accesses if self.dl1_accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "memory_accesses": self.memory_accesses,
            "il1_accesses": self.il1_accesses,
            "il1_misses": self.il1_misses,
            "dl1_accesses": self.dl1_accesses,
            "dl1_misses": self.dl1_misses,
            "l2_accesses": self.l2_accesses,
            "l2_misses": self.l2_misses,
        }


class CompiledTrace:
    """A trace pre-processed for repeated fast simulation.

    Addresses are replaced by indices into the table of unique line
    addresses, so each run only has to evaluate the (possibly expensive)
    placement hash once per unique line rather than once per access.
    """

    def __init__(self, trace: "Trace", line_size: int = 32) -> None:
        self.name = trace.name
        self.line_size = line_size
        line_mask = ~(line_size - 1) & 0xFFFFFFFF
        unique: Dict[int, int] = {}
        kinds: List[int] = []
        line_ids: List[int] = []
        for kind, address in zip(trace.kinds, trace.addresses):
            line = address & line_mask
            uid = unique.get(line)
            if uid is None:
                uid = len(unique)
                unique[line] = uid
            kinds.append(kind)
            line_ids.append(uid)
        self.kinds = kinds
        self.line_ids = line_ids
        self.unique_lines: List[int] = list(unique.keys())

    def __len__(self) -> int:
        return len(self.kinds)

    def relocated(self, unique_lines: Sequence[int]) -> "CompiledTrace":
        """This trace with its line table replaced by ``unique_lines``.

        ``kinds`` and ``line_ids`` are shared, not copied; line ``uid`` of
        the copy is ``unique_lines[uid]`` (see
        :mod:`repro.workloads.relocation`).
        """
        lines = [int(line) for line in unique_lines]
        if len(lines) != len(self.unique_lines):
            raise ValueError(
                f"relocation needs {len(self.unique_lines)} line addresses, "
                f"got {len(lines)}"
            )
        clone = copy.copy(self)
        clone.unique_lines = lines
        return clone

    @property
    def footprint_bytes(self) -> int:
        """Footprint at line granularity."""
        return len(self.unique_lines) * self.line_size


class _FastCache:
    """Flat-array mirror of :class:`~repro.cache.cache.SetAssociativeCache`."""

    def __init__(
        self,
        config: CacheConfig,
        unique_lines: Sequence[int],
        seed: int,
        static_maps: Optional[Tuple[List[int], List[int]]] = None,
    ) -> None:
        if config.replacement not in ("random", "lru"):
            raise ValueError(
                f"fast engine supports 'random' and 'lru' replacement, "
                f"got {config.replacement!r} for {config.name}"
            )
        self.config = config
        self.ways = config.ways
        self.num_sets = config.num_sets
        self.write_back = config.write_policy == WRITE_BACK
        self.lru = config.replacement == "lru"

        placement_seed, replacement_seed = derive_policy_seeds(seed)
        self.rng = SplitMix64(replacement_seed)

        # Per-unique-line set index and tag, evaluated once per run — or
        # shared across runs (``static_maps``) when the placement policy is
        # deterministic, i.e. its mapping does not depend on the seed.
        if static_maps is not None:
            self.line_sets, self.line_tags = static_maps
        else:
            self.placement = make_placement(
                config.placement, config.geometry, seed=placement_seed
            )
            set_index = self.placement.set_index
            tag = self.placement.tag
            self.line_sets: List[int] = [set_index(line) for line in unique_lines]
            self.line_tags: List[int] = [tag(line) for line in unique_lines]
        self.line_addresses = list(unique_lines)

        # Contents: one list of tags per set (None = invalid), parallel dirty
        # bits and line ids (needed to reconstruct victim addresses).
        self.tags: List[List[Optional[int]]] = [
            [None] * self.ways for _ in range(self.num_sets)
        ]
        self.dirty: List[List[bool]] = [
            [False] * self.ways for _ in range(self.num_sets)
        ]
        self.victims: List[List[int]] = [[0] * self.ways for _ in range(self.num_sets)]
        self.lru_order: List[List[int]] = [
            list(range(self.ways)) for _ in range(self.num_sets)
        ]

        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def lookup_way(self, set_index: int, tag: int) -> int:
        """Return the way holding ``tag`` in ``set_index`` or -1."""
        try:
            return self.tags[set_index].index(tag)
        except ValueError:
            return -1

    def choose_victim(self, set_index: int) -> int:
        """First invalid way, else the replacement policy's victim."""
        tags = self.tags[set_index]
        for way in range(self.ways):
            if tags[way] is None:
                return way
        if self.lru:
            return self.lru_order[set_index][0]
        return self.rng.next_below(self.ways)

    def touch(self, set_index: int, way: int) -> None:
        if self.lru:
            order = self.lru_order[set_index]
            order.remove(way)
            order.append(way)


class FastHierarchySimulator:
    """Simulates many seeded runs of one compiled trace on one hierarchy."""

    def __init__(self, config: HierarchyConfig, compiled: CompiledTrace) -> None:
        if config.l2 is not None and config.l2.write_policy != WRITE_BACK:
            raise ValueError("fast engine models the L2 as write-back only")
        self.config = config
        self.compiled = compiled
        # Seed-invariant placement maps: deterministic policies (modulo, xor)
        # map every run identically, so their per-unique-line set/tag tables
        # are evaluated once here instead of once per run.  Randomised
        # policies (hrp, rm) are redrawn from the per-run seed and stay on
        # the per-run path.
        self._static_maps: Dict[str, Tuple[List[int], List[int]]] = {}
        for slot, cache_config in (("il1", config.il1), ("dl1", config.dl1), ("l2", config.l2)):
            if cache_config is None:
                continue
            if placement_is_randomized(cache_config.placement):
                continue
            policy = make_placement(cache_config.placement, cache_config.geometry, seed=0)
            self._static_maps[slot] = (
                [policy.set_index(line) for line in compiled.unique_lines],
                [policy.tag(line) for line in compiled.unique_lines],
            )

    # The body below is one long function on purpose: it is the hot loop of
    # every experiment, and factoring it into per-level helpers costs ~2x in
    # Python function-call overhead.
    def run(self, seed: int) -> FastRunResult:
        """Simulate one run with hierarchy seed ``seed``."""
        config = self.config
        compiled = self.compiled
        timings = config.timings
        l1_hit_latency = timings.l1_hit
        l2_hit_latency = timings.l2_hit
        memory_latency = timings.memory
        writeback_latency = timings.writeback

        static_maps = self._static_maps
        il1_seed, dl1_seed, l2_seed = derive_cache_seeds(seed)
        il1 = _FastCache(
            config.il1, compiled.unique_lines, il1_seed, static_maps.get("il1")
        )
        dl1 = _FastCache(
            config.dl1, compiled.unique_lines, dl1_seed, static_maps.get("dl1")
        )
        l2 = (
            _FastCache(config.l2, compiled.unique_lines, l2_seed, static_maps.get("l2"))
            if config.l2 is not None
            else None
        )

        cycles = 0
        memory_accesses = 0

        kinds = compiled.kinds
        line_ids = compiled.line_ids
        fetch_kind = FETCH_KIND
        store_kind = STORE_KIND

        for position in range(len(kinds)):
            kind = kinds[position]
            uid = line_ids[position]
            is_store = kind == store_kind
            l1 = il1 if kind == fetch_kind else dl1

            latency = l1_hit_latency
            set_index = l1.line_sets[uid]
            tag = l1.line_tags[uid]
            l1.accesses += 1

            way = l1.lookup_way(set_index, tag)
            l1_writeback_uid = -1
            if way >= 0:
                # L1 hit.
                l1.hits += 1
                l1.touch(set_index, way)
                if is_store:
                    if l1.write_back:
                        l1.dirty[set_index][way] = True
                        cycles += latency
                        continue
                    # Write-through store hit: latency-free L2 update.
                    if l2 is not None:
                        self._l2_write(l2, uid)
                    else:
                        memory_accesses += 1
                    cycles += latency
                    continue
                cycles += latency
                continue

            # L1 miss.
            l1.misses += 1
            allocate = not (is_store and not l1.write_back)
            if allocate:
                victim_way = l1.choose_victim(set_index)
                if l1.tags[set_index][victim_way] is not None:
                    if l1.dirty[set_index][victim_way] and l1.write_back:
                        l1.writebacks += 1
                        l1_writeback_uid = l1.victims[set_index][victim_way]
                l1.tags[set_index][victim_way] = tag
                l1.victims[set_index][victim_way] = uid
                l1.dirty[set_index][victim_way] = is_store and l1.write_back
                l1.touch(set_index, victim_way)

            if l1_writeback_uid >= 0:
                # Dirty L1 victim written to the next level first.
                if l2 is not None:
                    latency += writeback_latency
                    self._l2_write(l2, l1_writeback_uid)
                else:
                    latency += memory_latency
                    memory_accesses += 1

            # The demand request goes to the next level.
            next_is_write = is_store and not l1.write_back
            if l2 is None:
                latency += memory_latency
                memory_accesses += 1
                cycles += latency
                continue

            l2.accesses += 1
            l2_set = l2.line_sets[uid]
            l2_tag = l2.line_tags[uid]
            l2_way = l2.lookup_way(l2_set, l2_tag)
            latency += l2_hit_latency
            if l2_way >= 0:
                l2.hits += 1
                l2.touch(l2_set, l2_way)
                if next_is_write:
                    l2.dirty[l2_set][l2_way] = True
                cycles += latency
                continue

            # L2 miss: write-allocate fill, possibly evicting a dirty line.
            l2.misses += 1
            victim_way = l2.choose_victim(l2_set)
            if l2.tags[l2_set][victim_way] is not None and l2.dirty[l2_set][victim_way]:
                l2.writebacks += 1
                latency += writeback_latency
                memory_accesses += 1
            l2.tags[l2_set][victim_way] = l2_tag
            l2.victims[l2_set][victim_way] = uid
            l2.dirty[l2_set][victim_way] = next_is_write
            l2.touch(l2_set, victim_way)
            latency += memory_latency
            memory_accesses += 1
            cycles += latency

        return FastRunResult(
            cycles=cycles,
            memory_accesses=memory_accesses,
            il1_accesses=il1.accesses,
            il1_misses=il1.misses,
            dl1_accesses=dl1.accesses,
            dl1_misses=dl1.misses,
            l2_accesses=l2.accesses if l2 is not None else 0,
            l2_misses=l2.misses if l2 is not None else 0,
        )

    def run_batch(self, seeds: Sequence[int]) -> List[FastRunResult]:
        """Simulate one run per seed in ``seeds``, sharing the compiled trace.

        The compiled trace and the seed-invariant placement maps of
        deterministic caches are set up once for the whole batch, so calling
        this with K seeds is cheaper than K :meth:`run` calls through
        freshly-built simulators.  This is the unit of work the parallel
        campaign executor (:mod:`repro.analysis.parallel`) ships to each
        worker process.
        """
        return [self.run(seed) for seed in seeds]

    @staticmethod
    def _l2_write(l2: "_FastCache", uid: int) -> None:
        """Latency-free write-through update of the L2 (store-buffer model)."""
        l2.accesses += 1
        set_index = l2.line_sets[uid]
        tag = l2.line_tags[uid]
        way = l2.lookup_way(set_index, tag)
        if way >= 0:
            l2.hits += 1
            l2.touch(set_index, way)
            l2.dirty[set_index][way] = True
            return
        l2.misses += 1
        victim_way = l2.choose_victim(set_index)
        if l2.tags[set_index][victim_way] is not None and l2.dirty[set_index][victim_way]:
            l2.writebacks += 1
        l2.tags[set_index][victim_way] = tag
        l2.victims[set_index][victim_way] = uid
        l2.dirty[set_index][victim_way] = True
        l2.touch(set_index, victim_way)


def simulate_trace(
    trace: "Trace", config: HierarchyConfig, seed: int, line_size: int | None = None
) -> FastRunResult:
    """Convenience wrapper: compile ``trace`` and simulate a single run."""
    compiled = CompiledTrace(trace, line_size=line_size or config.il1.line_size)
    return FastHierarchySimulator(config, compiled).run(seed)


def simulate_trace_batch(
    trace: "Trace",
    config: HierarchyConfig,
    seeds: Sequence[int],
    line_size: int | None = None,
) -> List[FastRunResult]:
    """Compile ``trace`` once and simulate one run per seed in ``seeds``."""
    compiled = CompiledTrace(trace, line_size=line_size or config.il1.line_size)
    return FastHierarchySimulator(config, compiled).run_batch(seeds)
