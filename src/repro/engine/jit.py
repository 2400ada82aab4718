"""JIT engine tier: the compiled plan executed by a numba-compiled kernel.

The numpy plan path (:mod:`repro.engine.numpy_engine`) vectorizes across
seeds, so its per-step cost is a handful of small array operations — fast,
but still bounded by numpy dispatch overhead at ~3k steps per trace.  This
tier runs the *same* :class:`~repro.engine.plan.TracePlan` through a scalar
per-lane kernel written in nopython-compatible Python: one tight loop over
the plan steps per seed, compiled by numba when it is installed.

numba is an **optional** dependency (the ``jit`` extra).  The engine is
always registered so ``--engine jit`` resolves everywhere; asking for a
simulator without numba raises :class:`JitUnavailable` with the install
hint, and :func:`repro.engine.available_engines` simply omits the tier.

The kernel itself (:func:`_simulate_lane`) is plain Python over numpy
scalars and arrays — exactly the subset numba compiles — so the equivalence
suite certifies its logic bit-exactly against the other engines *without*
numba by running it interpreted (``JitEngine(force_python=True)``).  With
numba installed the identical code object is compiled on first use
(:func:`_ensure_compiled` rebinds the module globals), so the certified
semantics and the compiled semantics are one implementation.

**In-kernel seed routing.**  Randomized placements do not materialize their
``(lines, seeds)`` set-index matrices up front: each lane's kernel call
derives the hRP hash matrix / RM control words from the lane's placement
seed and routes only the rows its slot can reach
(:meth:`repro.core.placement.PlacementPolicy.routing_params`), so the
placement-map build cost disappears into the compiled prologue.  Policies
whose vector paths fall back to the scalar model (hash or upper field wider
than one machine word) return no routing recipe and are materialized
through the content-hash map cache instead (:mod:`repro.engine.mapcache`).

Bit-exactness notes (same invariants as the numpy plan path):

* victim draws replicate ``SplitMix64.next_below`` exactly, including the
  rejection-sampling loop for non-power-of-two associativities;
* elision never removes a draw, so the per-cache victim streams are
  consumed in the reference model's order;
* in-kernel routing replays the exact SplitMix64 draw sequence of
  ``set_index_matrix`` (two draws per hash row, zero-row redraw pairs, the
  two-word RM control draw), so the maps are bit-identical to the
  materialized ones;
* all four replacement policies are modelled (random, LRU stamps, FIFO
  cyclic counters, tree-PLRU bits), as are write-through L2s;
* all uint64 arithmetic wraps modulo 2**64 (numba's native behaviour; the
  interpreted path runs under ``np.errstate(over="ignore")``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..cache.cache import WRITE_BACK
from ..cache.fastsim import CompiledTrace, FastRunResult
from ..cache.hierarchy import HierarchyConfig
from .base import Engine
from .mapcache import cached_set_index_matrix
from .numpy_engine import _VectorSimulator, derive_seed_arrays

__all__ = ["JitEngine", "JitUnavailable", "numba_missing_reason"]

#: SplitMix64 constants (mirrors :mod:`repro.core.prng`).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: Replacement policy codes used inside the kernel.
_REPL_CODE = {"random": 0, "lru": 1, "fifo": 2, "plru": 3}

#: Placement routing codes (0 = materialized map passed in).
_PLACE_CODE = {"hrp": 1, "rm": 2}

_INSTALL_HINT = (
    "engine 'jit' needs numba, which is not installed; install the 'jit' "
    "extra (pip install 'repro-random-modulo[jit]') or pick another engine"
)


class JitUnavailable(RuntimeError):
    """Raised when the jit engine is used without numba installed."""


def numba_missing_reason() -> Optional[str]:
    """``None`` when numba is importable, else the install hint."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return _INSTALL_HINT
    return None


# ---------------------------------------------------------------------------
# The kernel (nopython-compatible: compiled by numba when installed)
# ---------------------------------------------------------------------------


def _splitmix64_next(state):
    """One SplitMix64 draw: returns ``(value, new_state)`` (uint64 wrap)."""
    state = state + _GAMMA
    z = (state ^ (state >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31)), state


def _next_below(state, bound):
    """Scalar ``SplitMix64.next_below(bound)``: ``(victim, new_state)``.

    Mirrors :meth:`repro.core.prng.SplitMix64.next_below` exactly,
    rejection loop included, so the victim stream is bit-identical.
    """
    ub = np.uint64(bound)
    # (2**64 - bound) % bound == 2**64 % bound without the un-representable
    # 2**64 literal; limit == 2**64 - 2**64 % bound via the uint64 wrap.
    rem = (np.uint64(0) - ub) % ub
    limit = np.uint64(0) - rem
    while True:
        value, state = _splitmix64_next(state)
        if bound & (bound - 1) == 0 or value < limit:
            return np.int64(value % ub), state


def _popcount64(x):
    """SWAR popcount of one uint64 value."""
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


def _line_address(address, offset_bits, address_bits):
    """``PlacementGeometry.line_address`` on one uint64 byte address."""
    if address_bits >= 64:
        addr_mask = np.uint64(0xFFFFFFFFFFFFFFFF)
    else:
        addr_mask = (np.uint64(1) << np.uint64(address_bits)) - np.uint64(1)
    return (address & addr_mask) >> np.uint64(offset_bits)


def _fill_sets_hrp(
    sets_row, lines, rows, seed, index_bits, hash_width, offset_bits,
    address_bits,
):
    """hRP in-kernel routing: fill ``sets_row[rows]`` for one lane.

    Replays the exact draw sequence of
    :meth:`~repro.core.placement.HashRandomPlacement.set_index_matrix`: two
    SplitMix64 outputs per hash row (the high half is masked away for
    ``hash_width <= 64``), redraw pairs while a row comes out zero, then one
    offset draw; the index is the offset XOR the row parities.
    """
    state = seed
    if hash_width >= 64:
        hash_mask = np.uint64(0xFFFFFFFFFFFFFFFF)
    else:
        hash_mask = (np.uint64(1) << np.uint64(hash_width)) - np.uint64(1)
    index_mask = (np.uint64(1) << np.uint64(index_bits)) - np.uint64(1)
    row_masks = np.zeros(max(index_bits, 1), dtype=np.uint64)
    for bit in range(index_bits):
        row = np.uint64(0)
        while row == np.uint64(0):
            low, state = _splitmix64_next(state)
            high, state = _splitmix64_next(state)
            row = low & hash_mask
        row_masks[bit] = row
    offset, state = _splitmix64_next(state)
    offset = offset & index_mask
    for k in range(rows.shape[0]):
        r = rows[k]
        line = _line_address(lines[r], offset_bits, address_bits)
        index = offset
        for bit in range(index_bits):
            index ^= (_popcount64(line & row_masks[bit]) & np.uint64(1)) << np.uint64(bit)
        sets_row[r] = np.int64(index)


def _fill_sets_rm(
    sets_row, lines, rows, seed, index_bits, n_controls, upper_bits,
    n_switches, offset_bits, address_bits, wire_a, wire_b,
):
    """RM in-kernel routing: fill ``sets_row[rows]`` for one lane.

    Two SplitMix64 draws assemble the 128-bit seed word (control slice in
    the low word, upper-pad slice straddling the boundary, exactly like
    :meth:`~repro.core.placement.RandomModuloPlacement.reseed`); each line's
    upper bits are XOR-folded onto the control width, padded with seed bits,
    XORed with the seed controls, and the modulo index is routed through the
    2x2 pass/swap switch column.
    """
    state = seed
    low, state = _splitmix64_next(state)
    high, state = _splitmix64_next(state)
    control_mask = (np.uint64(1) << np.uint64(n_controls)) - np.uint64(1)
    index_mask = (np.uint64(1) << np.uint64(index_bits)) - np.uint64(1)
    if upper_bits >= 64:
        upper_mask = np.uint64(0xFFFFFFFFFFFFFFFF)
    else:
        upper_mask = (np.uint64(1) << np.uint64(upper_bits)) - np.uint64(1)
    seed_controls = low & control_mask
    seed_upper = (
        (low >> np.uint64(n_controls)) | (high << np.uint64(64 - n_controls))
    ) & control_mask
    for k in range(rows.shape[0]):
        r = rows[k]
        line = _line_address(lines[r], offset_bits, address_bits)
        value = (line >> np.uint64(index_bits)) & upper_mask
        folded = np.uint64(0)
        while value != np.uint64(0):
            folded ^= value & control_mask
            value >>= np.uint64(n_controls)
        if upper_bits < n_controls:
            folded |= (seed_upper << np.uint64(upper_bits)) & control_mask
        controls = (folded ^ seed_controls) & control_mask
        value = line & index_mask
        for p in range(n_switches):
            swap = (controls >> np.uint64(p)) & np.uint64(1)
            a = np.uint64(wire_a[p])
            b = np.uint64(wire_b[p])
            moved = (((value >> a) ^ (value >> b)) & np.uint64(1)) & swap
            value ^= (moved << a) | (moved << b)
        sets_row[r] = np.int64(value)


def _touch_way(repl, stamp, plru_bits, clock, set_index, ways, way):
    """Record a hit/fill of ``way``; returns the (possibly advanced) clock.

    LRU stamps the way cell; tree-PLRU flips the leaf-to-root bits to point
    away from the used way (a node is its parent's left child iff its heap
    index is odd).  Random and FIFO hits are stateless: no-op.
    """
    if repl == 1:
        clock += 1
        stamp[set_index * ways + way] = clock
    elif repl == 3:
        pbase = set_index * (ways - 1)
        node = way + (ways - 1)
        while node > 0:
            parent = (node - 1) >> 1
            plru_bits[pbase + parent] = node & 1
            node = parent
    return clock


def _pick_victim(repl, ways, stamp, fifo_next, plru_bits, set_index, rng):
    """Victim way of a full set; returns ``(victim, new_rng)``.

    LRU scans for the minimum stamp, FIFO advances the per-set cyclic
    counter, tree-PLRU follows the bits from the root, random draws from
    the lane's SplitMix64 victim stream.
    """
    if repl == 1:
        base = set_index * ways
        victim = np.int64(0)
        best = stamp[base]
        for w in range(1, ways):
            if stamp[base + w] < best:
                best = stamp[base + w]
                victim = np.int64(w)
        return victim, rng
    if repl == 2:
        head = fifo_next[set_index]
        nxt = head + 1
        if nxt == ways:
            nxt = np.int64(0)
        fifo_next[set_index] = nxt
        return np.int64(head), rng
    if repl == 3:
        pbase = set_index * (ways - 1)
        node = np.int64(0)
        while node < ways - 1:
            node = 2 * node + 1 + plru_bits[pbase + node]
        return node - (ways - 1), rng
    victim, rng = _next_below(rng, ways)
    return victim, rng


def _l2_write_line(
    uid, wb, repl, ways, sets, way_of, occ, dirty, victims, stamp,
    fifo_next, plru_bits, clock, rng,
):
    """Latency-free L2 write of ``uid`` (store-through / L1 dirty victim).

    Returns ``(miss, mem, clock, rng)``.  Write-back L2: hits touch and
    dirty the line, misses write-allocate dirty (the displaced line's own
    dirtiness is dropped, as in the reference's latency-free write path).
    Write-through L2: hits touch only, misses do not allocate and forward
    the write to memory.
    """
    way = way_of[uid]
    set_index = sets[uid]
    if way >= 0:
        clock = _touch_way(repl, stamp, plru_bits, clock, set_index, ways, way)
        if wb:
            dirty[set_index * ways + way] = 1
        return np.int64(0), np.int64(0), clock, rng
    if not wb:
        return np.int64(1), np.int64(1), clock, rng
    occ_count = occ[set_index]
    if occ_count >= ways:
        victim, rng = _pick_victim(
            repl, ways, stamp, fifo_next, plru_bits, set_index, rng
        )
        cell = set_index * ways + victim
        way_of[victims[cell]] = np.int64(-1)
    else:
        occ[set_index] = occ_count + 1
        cell = set_index * ways + occ_count
    victims[cell] = uid
    dirty[cell] = 1
    filled = cell - set_index * ways
    way_of[uid] = filled
    clock = _touch_way(repl, stamp, plru_bits, clock, set_index, ways, filled)
    return np.int64(1), np.int64(0), clock, rng


def _l2_demand_line(
    uid, is_write, wb, repl, ways, sets, way_of, occ, dirty, victims,
    stamp, fifo_next, plru_bits, clock, rng, memory_latency,
    writeback_latency,
):
    """L2 demand access of ``uid`` (an L1 miss); the L2-hit latency is
    charged by the caller.  Returns ``(miss, mem, cycles, clock, rng)``.

    Misses fetch from memory; write-back L2s write-allocate (dirty iff the
    demand is a write-through L1 store) and write dirty victims back, while
    write-through L2s never allocate a store miss and fill reads clean.
    """
    way = way_of[uid]
    set_index = sets[uid]
    if way >= 0:
        clock = _touch_way(repl, stamp, plru_bits, clock, set_index, ways, way)
        if is_write and wb:
            dirty[set_index * ways + way] = 1
        return np.int64(0), np.int64(0), np.int64(0), clock, rng
    cycles = memory_latency
    mem = np.int64(1)
    if is_write and not wb:
        return np.int64(1), mem, cycles, clock, rng
    occ_count = occ[set_index]
    if occ_count >= ways:
        victim, rng = _pick_victim(
            repl, ways, stamp, fifo_next, plru_bits, set_index, rng
        )
        cell = set_index * ways + victim
        way_of[victims[cell]] = np.int64(-1)
        if dirty[cell] != 0:
            cycles += writeback_latency
            mem += 1
    else:
        occ[set_index] = occ_count + 1
        cell = set_index * ways + occ_count
    victims[cell] = uid
    dirty[cell] = 1 if (is_write and wb) else 0
    filled = cell - set_index * ways
    way_of[uid] = filled
    clock = _touch_way(repl, stamp, plru_bits, clock, set_index, ways, filled)
    return np.int64(1), mem, cycles, clock, rng


def _simulate_lane(
    # Plan step columns.
    step_slot, step_uid, step_store, step_sure_hit, step_dirty_after,
    # Line addresses and per-slot reachable rows (in-kernel routing inputs).
    lines, rows_il1, rows_dl1, rows_l2,
    # Per-slot routing: kind codes, geometry constants, lane placement
    # seeds, RM switch wiring (row per slot: IL1, DL1, L2).
    place_kind, place_bits, place_seed, wire_a, wire_b,
    # (2, U) per-L1-slot set indices and per-slot config (index 0 = IL1).
    l1_sets, l1_ways, l1_nsets, l1_repl, l1_wb, l1_rng,
    # L2 map and config (l2_nsets == 0 means "no L2").
    l2_sets, l2_ways, l2_nsets, l2_repl, l2_wb, l2_rng,
    # Timings.
    l2_hit_latency, memory_latency, writeback_latency,
):
    """Replay the plan for one seed; returns the six variable counters.

    Output: ``(extra_cycles, memory_accesses, il1_misses, dl1_misses,
    l2_accesses, l2_misses)`` — everything else in a
    :class:`~repro.cache.fastsim.FastRunResult` is a trace constant.
    """
    # ----- In-kernel routing prologue: derive this lane's placement maps.
    if place_kind[0] == 1:
        _fill_sets_hrp(
            l1_sets[0], lines, rows_il1, place_seed[0], place_bits[0, 0],
            place_bits[0, 1], place_bits[0, 4], place_bits[0, 5],
        )
    elif place_kind[0] == 2:
        _fill_sets_rm(
            l1_sets[0], lines, rows_il1, place_seed[0], place_bits[0, 0],
            place_bits[0, 1], place_bits[0, 2], place_bits[0, 3],
            place_bits[0, 4], place_bits[0, 5], wire_a[0], wire_b[0],
        )
    if place_kind[1] == 1:
        _fill_sets_hrp(
            l1_sets[1], lines, rows_dl1, place_seed[1], place_bits[1, 0],
            place_bits[1, 1], place_bits[1, 4], place_bits[1, 5],
        )
    elif place_kind[1] == 2:
        _fill_sets_rm(
            l1_sets[1], lines, rows_dl1, place_seed[1], place_bits[1, 0],
            place_bits[1, 1], place_bits[1, 2], place_bits[1, 3],
            place_bits[1, 4], place_bits[1, 5], wire_a[1], wire_b[1],
        )
    if place_kind[2] == 1:
        _fill_sets_hrp(
            l2_sets, lines, rows_l2, place_seed[2], place_bits[2, 0],
            place_bits[2, 1], place_bits[2, 4], place_bits[2, 5],
        )
    elif place_kind[2] == 2:
        _fill_sets_rm(
            l2_sets, lines, rows_l2, place_seed[2], place_bits[2, 0],
            place_bits[2, 1], place_bits[2, 2], place_bits[2, 3],
            place_bits[2, 4], place_bits[2, 5], wire_a[2], wire_b[2],
        )

    n_lines = l1_sets.shape[1]
    max_l1_cells = max(l1_nsets[0] * l1_ways[0], l1_nsets[1] * l1_ways[1])
    max_l1_nsets = max(l1_nsets[0], l1_nsets[1])
    max_l1_plru = max(
        max(l1_nsets[0] * (l1_ways[0] - 1), l1_nsets[1] * (l1_ways[1] - 1)), 1
    )
    l1_way_of = np.full((2, n_lines), -1, dtype=np.int64)
    l1_occ = np.zeros((2, max_l1_nsets), dtype=np.int64)
    l1_dirty = np.zeros((2, max_l1_cells), dtype=np.uint8)
    l1_victims = np.zeros((2, max_l1_cells), dtype=np.int64)
    l1_stamp = np.zeros((2, max_l1_cells), dtype=np.int64)
    l1_fifo = np.zeros((2, max_l1_nsets), dtype=np.int64)
    l1_plru = np.zeros((2, max_l1_plru), dtype=np.uint8)
    l1_clock = np.zeros(2, dtype=np.int64)
    l1_misses = np.zeros(2, dtype=np.int64)

    has_l2 = l2_nsets > 0
    l2_cells = l2_nsets * l2_ways if has_l2 else 1
    l2_way_of = np.full(n_lines, -1, dtype=np.int64)
    l2_occ = np.zeros(max(l2_nsets, 1), dtype=np.int64)
    l2_dirty = np.zeros(l2_cells, dtype=np.uint8)
    l2_victims = np.zeros(l2_cells, dtype=np.int64)
    l2_stamp = np.zeros(l2_cells, dtype=np.int64)
    l2_fifo = np.zeros(max(l2_nsets, 1), dtype=np.int64)
    l2_plru = np.zeros(max(l2_nsets * (l2_ways - 1), 1), dtype=np.uint8)
    l2_clock = np.int64(0)
    l2_accesses = np.int64(0)
    l2_misses = np.int64(0)
    l2_is_wb = l2_wb != 0

    extra_cycles = np.int64(0)
    memory_accesses = np.int64(0)

    for i in range(step_slot.shape[0]):
        slot = step_slot[i]
        uid = step_uid[i]
        is_store = step_store[i] != 0
        sure_hit = step_sure_hit[i] != 0
        dirty_after = step_dirty_after[i] != 0
        ways = l1_ways[slot]
        wb = l1_wb[slot] != 0
        repl = l1_repl[slot]
        touches = repl == 1 or repl == 3

        way = l1_way_of[slot, uid]
        if sure_hit or way >= 0:
            # L1 hit: replacement touch, store dirty / write-through traffic.
            if touches or (is_store and wb) or dirty_after:
                set_index = l1_sets[slot, uid]
                l1_clock[slot] = _touch_way(
                    repl, l1_stamp[slot], l1_plru[slot], l1_clock[slot],
                    set_index, ways, way,
                )
                if (is_store and wb) or dirty_after:
                    l1_dirty[slot, set_index * ways + way] = 1
            if is_store and not wb:
                if has_l2:
                    l2_accesses += 1
                    miss, mem, l2_clock, l2_rng = _l2_write_line(
                        uid, l2_is_wb, l2_repl, l2_ways, l2_sets, l2_way_of,
                        l2_occ, l2_dirty, l2_victims, l2_stamp, l2_fifo,
                        l2_plru, l2_clock, l2_rng,
                    )
                    l2_misses += miss
                    memory_accesses += mem
                else:
                    memory_accesses += 1
            continue

        # ----- L1 miss.
        l1_misses[slot] += 1
        set_index = l1_sets[slot, uid]
        if not (is_store and not wb):
            # Allocate (write-through store misses do not).
            occ = l1_occ[slot, set_index]
            if occ >= ways:
                victim, l1_state = _pick_victim(
                    repl, ways, l1_stamp[slot], l1_fifo[slot], l1_plru[slot],
                    set_index, l1_rng[slot],
                )
                l1_rng[slot] = l1_state
                cell = set_index * ways + victim
                evicted = l1_victims[slot, cell]
                l1_way_of[slot, evicted] = -1
                if wb and l1_dirty[slot, cell] != 0:
                    # Dirty L1 victim goes to the next level first.
                    if has_l2:
                        extra_cycles += writeback_latency
                        l2_accesses += 1
                        miss, mem, l2_clock, l2_rng = _l2_write_line(
                            evicted, l2_is_wb, l2_repl, l2_ways, l2_sets,
                            l2_way_of, l2_occ, l2_dirty, l2_victims,
                            l2_stamp, l2_fifo, l2_plru, l2_clock, l2_rng,
                        )
                        l2_misses += miss
                        memory_accesses += mem
                    else:
                        extra_cycles += memory_latency
                        memory_accesses += 1
            else:
                l1_occ[slot, set_index] = occ + 1
                cell = set_index * ways + occ
            l1_victims[slot, cell] = uid
            l1_dirty[slot, cell] = 1 if (is_store and wb) else 0
            filled = cell - set_index * ways
            l1_way_of[slot, uid] = filled
            l1_clock[slot] = _touch_way(
                repl, l1_stamp[slot], l1_plru[slot], l1_clock[slot],
                set_index, ways, filled,
            )
        if dirty_after:
            # Elided write-back store hits of this step's run.
            l1_dirty[
                slot, l1_sets[slot, uid] * ways + l1_way_of[slot, uid]
            ] = 1

        # ----- The demand request goes to the next level.
        if not has_l2:
            extra_cycles += memory_latency
            memory_accesses += 1
            continue
        is_write = is_store and not wb
        extra_cycles += l2_hit_latency
        l2_accesses += 1
        miss, mem, cycles, l2_clock, l2_rng = _l2_demand_line(
            uid, is_write, l2_is_wb, l2_repl, l2_ways, l2_sets, l2_way_of,
            l2_occ, l2_dirty, l2_victims, l2_stamp, l2_fifo, l2_plru,
            l2_clock, l2_rng, memory_latency, writeback_latency,
        )
        l2_misses += miss
        memory_accesses += mem
        extra_cycles += cycles

    return (
        extra_cycles,
        memory_accesses,
        l1_misses[0],
        l1_misses[1],
        l2_accesses,
        l2_misses,
    )


_COMPILED = False


def _ensure_compiled() -> None:
    """Compile the kernel on first use, rebinding the module globals.

    ``_simulate_lane`` resolves its helpers through the module namespace at
    (lazy) compile time, so swapping them all for their njit forms before
    the first call compiles the whole chain; subsequent simulators reuse
    the compiled dispatcher.
    """
    global _COMPILED, _splitmix64_next, _next_below, _popcount64
    global _line_address, _fill_sets_hrp, _fill_sets_rm
    global _touch_way, _pick_victim
    global _l2_write_line, _l2_demand_line, _simulate_lane
    if _COMPILED:
        return
    import numba

    _splitmix64_next = numba.njit(cache=True)(_splitmix64_next)
    _next_below = numba.njit(cache=True)(_next_below)
    _popcount64 = numba.njit(cache=True)(_popcount64)
    _line_address = numba.njit(cache=True)(_line_address)
    _fill_sets_hrp = numba.njit(cache=True)(_fill_sets_hrp)
    _fill_sets_rm = numba.njit(cache=True)(_fill_sets_rm)
    _touch_way = numba.njit(cache=True)(_touch_way)
    _pick_victim = numba.njit(cache=True)(_pick_victim)
    _l2_write_line = numba.njit(cache=True)(_l2_write_line)
    _l2_demand_line = numba.njit(cache=True)(_l2_demand_line)
    _simulate_lane = numba.njit(cache=True)(_simulate_lane)
    _COMPILED = True


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class _JitSimulator(_VectorSimulator):
    """Plan setup shared with the numpy engine; execution per lane, compiled.

    Reuses the vector simulator's seed derivation and plan compilation
    (which raises :class:`~repro.engine.plan.PlanUnsupported` for configs
    outside the model, exactly as for the numpy engine), then replays
    each lane through :func:`_simulate_lane`.  Randomized placements with a
    routing recipe are evaluated *inside* the kernel; the rest are
    materialized through the map cache.
    """

    def __init__(self, config, compiled, compile_kernel=True):
        super().__init__(config, compiled)
        self._compile_kernel = compile_kernel
        if compile_kernel:
            _ensure_compiled()

    def routing_kinds(self) -> List[Optional[str]]:
        """Per-slot map strategy: ``"hrp"``/``"rm"`` (in-kernel routing),
        ``"materialized"`` (randomized, no recipe), ``"static"``
        (deterministic), ``None`` (slot absent)."""
        kinds: List[Optional[str]] = []
        for state in self._slots:
            if state is None:
                kinds.append(None)
                continue
            _config, policy, randomized, _tags, _static = state
            if not randomized:
                kinds.append("static")
                continue
            params = policy.routing_params()
            kinds.append(str(params["kind"]) if params is not None else "materialized")
        return kinds

    def _run_lanes_plan(self, seeds: Sequence[int]) -> List[FastRunResult]:
        if not seeds:
            return []
        plan = self._plan
        n = len(seeds)
        timings = self.config.timings
        n_lines = len(self._lines)
        lines = np.ascontiguousarray(self._lines, dtype=np.uint64)
        per_cache = derive_seed_arrays(seeds)
        all_rows = np.arange(n_lines, dtype=np.int64)
        slot_rows = [
            np.ascontiguousarray(rows, dtype=np.int64)
            if rows is not None
            else all_rows
            for rows in self._slot_rows
        ]

        # Per-slot map strategy: in-kernel routing parameters, or a
        # materialized matrix (static map / cached randomized map).
        place_kind = np.zeros(3, dtype=np.int64)
        place_bits = np.zeros((3, 6), dtype=np.int64)
        routed_seeds: List[Optional[np.ndarray]] = [None, None, None]
        matrices: List[Optional[np.ndarray]] = [None, None, None]
        repl_states: List[Optional[np.ndarray]] = [None, None, None]
        wires: List[Optional[tuple]] = [None, None, None]
        max_switches = 1
        for slot, state in enumerate(self._slots):
            if state is None:
                continue
            _config, policy, randomized, _tags, static_sets = state
            repl_states[slot] = per_cache[slot][1]
            if not randomized:
                matrices[slot] = static_sets
                continue
            params = policy.routing_params()
            if params is None:
                rows = slot_rows[slot]
                seed_list = [int(seed) for seed in per_cache[slot][0]]
                if rows.size < n_lines:
                    matrix = np.zeros((n_lines, n), dtype=np.int64)
                    matrix[rows] = cached_set_index_matrix(
                        policy, lines[rows], seed_list
                    )
                else:
                    matrix = cached_set_index_matrix(policy, lines, seed_list)
                matrices[slot] = matrix
                continue
            routed_seeds[slot] = per_cache[slot][0]
            place_kind[slot] = _PLACE_CODE[str(params["kind"])]
            place_bits[slot, 0] = int(params["index_bits"])
            place_bits[slot, 4] = int(params["offset_bits"])
            place_bits[slot, 5] = int(params["address_bits"])
            if params["kind"] == "hrp":
                place_bits[slot, 1] = int(params["hash_width"])
            else:
                place_bits[slot, 1] = int(params["n_controls"])
                place_bits[slot, 2] = int(params["upper_bits"])
                place_bits[slot, 3] = len(params["wire_a"])
                wires[slot] = (params["wire_a"], params["wire_b"])
                max_switches = max(max_switches, len(params["wire_a"]))
        wire_a = np.zeros((3, max_switches), dtype=np.int64)
        wire_b = np.zeros((3, max_switches), dtype=np.int64)
        for slot, pair in enumerate(wires):
            if pair is not None:
                wire_a[slot, : len(pair[0])] = pair[0]
                wire_b[slot, : len(pair[1])] = pair[1]

        def slot_params(slot):
            slot_config = self._slots[slot][0]
            return (
                slot_config.ways,
                slot_config.num_sets,
                _REPL_CODE[slot_config.replacement],
                1 if slot_config.write_policy == WRITE_BACK else 0,
            )

        il1_p, dl1_p = slot_params(0), slot_params(1)
        l1_ways = np.array([il1_p[0], dl1_p[0]], dtype=np.int64)
        l1_nsets = np.array([il1_p[1], dl1_p[1]], dtype=np.int64)
        l1_repl = np.array([il1_p[2], dl1_p[2]], dtype=np.int64)
        l1_wb = np.array([il1_p[3], dl1_p[3]], dtype=np.int64)
        if self._slots[2] is not None:
            l2_ways, l2_nsets, l2_repl, l2_wb = slot_params(2)
        else:
            l2_ways, l2_nsets, l2_repl, l2_wb = 1, 0, 0, 0
        shared_l2_sets = np.zeros(n_lines, dtype=np.int64)

        def column(matrix, lane):
            if matrix.ndim == 2:
                return np.ascontiguousarray(matrix[:, lane], dtype=np.int64)
            return np.ascontiguousarray(matrix, dtype=np.int64)

        kernel_args = []
        for lane in range(n):
            l1_sets = np.zeros((2, n_lines), dtype=np.int64)
            for slot in range(2):
                if matrices[slot] is not None:
                    l1_sets[slot] = column(matrices[slot], lane)
            if self._slots[2] is None:
                l2_sets = shared_l2_sets
            elif matrices[2] is not None:
                l2_sets = column(matrices[2], lane)
            else:
                l2_sets = np.zeros(n_lines, dtype=np.int64)
            place_seed = np.zeros(3, dtype=np.uint64)
            for slot in range(3):
                if routed_seeds[slot] is not None:
                    place_seed[slot] = routed_seeds[slot][lane]
            l1_rng = np.array(
                [repl_states[0][lane], repl_states[1][lane]], dtype=np.uint64
            )
            l2_rng = (
                np.uint64(repl_states[2][lane])
                if repl_states[2] is not None
                else np.uint64(0)
            )
            kernel_args.append((
                plan.step_slot, plan.step_uid, plan.step_store,
                plan.step_sure_hit, plan.step_dirty_after,
                lines, slot_rows[0], slot_rows[1], slot_rows[2],
                place_kind, place_bits, place_seed, wire_a, wire_b,
                l1_sets, l1_ways, l1_nsets, l1_repl, l1_wb, l1_rng,
                l2_sets, np.int64(l2_ways), np.int64(l2_nsets),
                np.int64(l2_repl), np.int64(l2_wb), np.uint64(l2_rng),
                np.int64(timings.l2_hit), np.int64(timings.memory),
                np.int64(timings.writeback),
            ))

        kernel = _simulate_lane
        if self._compile_kernel:
            outputs = [kernel(*args) for args in kernel_args]
        else:
            # Interpreted certification path: numpy scalars wrap like the
            # compiled kernel, but warn without the errstate guard.
            with np.errstate(over="ignore"):
                outputs = [kernel(*args) for args in kernel_args]

        base_cycles = len(self._kinds) * timings.l1_hit
        elided_mem = plan.elided_store_memory_accesses
        return [
            FastRunResult(
                cycles=int(base_cycles + extra),
                memory_accesses=int(mem) + elided_mem,
                il1_accesses=self._il1_accesses,
                il1_misses=int(il1_misses),
                dl1_accesses=self._dl1_accesses,
                dl1_misses=int(dl1_misses),
                l2_accesses=int(l2_accesses),
                l2_misses=int(l2_misses),
            )
            for extra, mem, il1_misses, dl1_misses, l2_accesses, l2_misses
            in outputs
        ]


class JitEngine(Engine):
    """Optional numba tier: the compiled plan run by a compiled kernel.

    Always registered; :meth:`simulator` raises :class:`JitUnavailable`
    with the install hint when numba is missing, so ``--engine jit``
    degrades with a one-line actionable error instead of an import crash.
    ``force_python=True`` runs the identical kernel interpreted (slow) —
    the certification path the equivalence suite uses on machines without
    numba.
    """

    name = "jit"
    supports_batch = True
    bit_exact = True
    requires_pickle = True

    def __init__(self, force_python: bool = False) -> None:
        self.force_python = force_python

    def availability(self) -> Optional[str]:
        if self.force_python:
            return None
        return numba_missing_reason()

    def simulator(
        self, config: HierarchyConfig, compiled: CompiledTrace
    ) -> _JitSimulator:
        reason = self.availability()
        if reason is not None:
            raise JitUnavailable(reason)
        return _JitSimulator(
            config, compiled, compile_kernel=not self.force_python
        )
