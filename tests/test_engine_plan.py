"""Unit tests of the trace plan compiler (repro.engine.plan).

The cross-engine suite certifies that plan execution matches the fast
engine bit-exactly; these tests pin the compiler's *derived structure*
directly — which accesses are elided and under which rule, where dirty
bits fold, when guarantees are dropped, and when a whole hierarchy is
proven seed-invariant — so a regression shows up as a readable structural
diff instead of a counter mismatch three layers down.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import CacheConfig
from repro.cache.fastsim import CompiledTrace
from repro.cache.hierarchy import HierarchyConfig, MemoryTimings
from repro.cpu.trace import Trace
from repro.engine.plan import PlanUnsupported, compile_plan


def make_config(
    l1_placement="modulo",
    l1_replacement="random",
    l1_write="write-through",
    with_l2=False,
    ways=2,
    num_sets=8,
):
    cache = dict(
        size_bytes=ways * 32 * num_sets, ways=ways, line_size=32,
        placement=l1_placement, replacement=l1_replacement,
        write_policy=l1_write,
    )
    l2 = (
        CacheConfig(
            name="L2", size_bytes=2048, ways=4, line_size=32,
            placement="modulo", replacement="random", write_policy="write-back",
        )
        if with_l2
        else None
    )
    return HierarchyConfig(
        il1=CacheConfig(name="IL1", **cache),
        dl1=CacheConfig(name="DL1", **cache),
        l2=l2,
        timings=MemoryTimings(),
    )


def make_trace(accesses):
    """accesses: list of ("fetch"|"load"|"store", line_number)."""
    trace = Trace(name="plan-unit")
    for kind, line in accesses:
        getattr(trace, kind)(0x40000000 + line * 32)
    return trace


def plan_for(config, accesses):
    compiled = CompiledTrace(make_trace(accesses), line_size=32)
    return compile_plan(config, compiled)


class TestSameLineRunElision:
    def test_repeated_fetches_collapse_to_one_step(self):
        plan = plan_for(make_config(), [("fetch", 0)] * 6)
        assert plan.n_steps == 1
        assert plan.elided == {"il1": 5, "dl1": 0}
        assert plan.n_accesses == 6
        assert plan.elided_fraction == pytest.approx(5 / 6)

    def test_alternating_lines_randomized_placement_never_elide(self):
        # Singleton rule: a different line always voids the guarantee.
        plan = plan_for(
            make_config(l1_placement="rm"),
            [("fetch", 0), ("fetch", 1)] * 4,
        )
        assert plan.n_steps == 8
        assert plan.elided == {"il1": 0, "dl1": 0}

    def test_alternating_sets_deterministic_placement_elide(self):
        # Per-set rule: lines 0 and 1 map (modulo) to different sets, so
        # each keeps its own guarantee and every revisit is a sure hit.
        plan = plan_for(
            make_config(l1_placement="modulo"),
            [("fetch", 0), ("fetch", 1)] * 4,
        )
        assert plan.n_steps == 2
        assert plan.elided == {"il1": 6, "dl1": 0}

    def test_same_set_conflict_voids_deterministic_guarantee(self):
        # Lines 0 and 8 share a set in an 8-set modulo cache: a potential
        # miss on one may evict the other, so nothing can be elided.
        plan = plan_for(
            make_config(l1_placement="modulo"),
            [("fetch", 0), ("fetch", 8)] * 4,
        )
        assert plan.n_steps == 8

    def test_slots_track_guarantees_independently(self):
        plan = plan_for(
            make_config(l1_placement="rm"),
            [("fetch", 0), ("load", 0), ("fetch", 0), ("load", 0)],
        )
        # Interleaving slots does not break the per-slot same-line runs.
        assert plan.n_steps == 2
        assert plan.elided == {"il1": 1, "dl1": 1}


class TestStoreRules:
    def test_write_through_store_never_establishes_guarantee(self):
        plan = plan_for(
            make_config(l1_write="write-through"),
            [("store", 0), ("store", 0), ("store", 0)],
        )
        # A WT store does not allocate, so no run ever forms.
        assert plan.n_steps == 3
        assert plan.elided_store_memory_accesses == 0

    def test_elided_wt_store_hit_without_l2_counts_memory_access(self):
        plan = plan_for(
            make_config(l1_write="write-through", with_l2=False),
            [("load", 0), ("store", 0), ("store", 0)],
        )
        assert plan.n_steps == 1
        assert plan.elided == {"il1": 0, "dl1": 2}
        assert plan.elided_store_memory_accesses == 2

    def test_sure_hit_wt_store_with_l2_stays_a_step(self):
        # Each one advances shared L2 state, so it cannot be elided; it is
        # flagged sure_hit so executors skip the L1 lookup.
        plan = plan_for(
            make_config(l1_write="write-through", with_l2=True),
            [("load", 0), ("store", 0), ("store", 0)],
        )
        assert plan.n_steps == 3
        assert plan.steps[1][3] and plan.steps[2][3]  # sure_hit
        assert plan.elided_store_memory_accesses == 0

    def test_write_back_store_hit_folds_dirty_bit_into_anchor(self):
        plan = plan_for(
            make_config(l1_write="write-back"),
            [("load", 0), ("store", 0), ("load", 0)],
        )
        assert plan.n_steps == 1
        anchor = plan.steps[0]
        assert not anchor[2]  # still the load...
        assert anchor[4]  # ...but dirty_after records the folded store
        assert plan.elided == {"il1": 0, "dl1": 2}


class TestLruGuardDrop:
    """A WT store to a *different* line may touch that line's LRU stamp,
    demoting the guaranteed line from MRU; the guard must be dropped."""

    def test_wt_store_to_other_line_drops_lru_guarantee(self):
        config = make_config(
            l1_placement="modulo", l1_replacement="lru",
            l1_write="write-through",
        )
        plan = plan_for(
            config,
            [("load", 0), ("store", 8), ("load", 0)],  # lines 0, 8 share a set
        )
        assert plan.n_steps == 3  # the final load is NOT elided

    def test_wt_store_keeps_random_replacement_guarantee(self):
        # Without stamps there is nothing a foreign store hit can corrupt.
        config = make_config(
            l1_placement="modulo", l1_replacement="random",
            l1_write="write-through",
        )
        plan = plan_for(
            config,
            [("load", 0), ("store", 8), ("load", 0)],
        )
        assert plan.n_steps == 2
        assert plan.elided == {"il1": 0, "dl1": 1}

    def test_wt_store_in_other_set_keeps_lru_guarantee(self):
        # Deterministic placement scopes guards per set: a store elsewhere
        # cannot touch this set's stamps.
        config = make_config(
            l1_placement="modulo", l1_replacement="lru",
            l1_write="write-through",
        )
        plan = plan_for(
            config,
            [("load", 0), ("store", 1), ("load", 0)],  # line 1: another set
        )
        assert plan.n_steps == 2

    def test_sure_hit_same_line_wt_store_keeps_guarantee(self):
        # A sure-hit store to the guaranteed line itself only re-touches
        # the MRU way — stamp order is preserved, the guard survives.
        config = make_config(
            l1_placement="modulo", l1_replacement="lru",
            l1_write="write-through", with_l2=True,
        )
        plan = plan_for(
            config,
            [("load", 0), ("store", 0), ("load", 0)],
        )
        # store stays a step (L2 traffic) but the final load is elided.
        assert plan.n_steps == 2


class TestSeedInvariance:
    def test_deterministic_lru_hierarchy_is_seed_invariant(self):
        config = make_config(l1_placement="modulo", l1_replacement="lru")
        plan = plan_for(config, [("fetch", i % 4) for i in range(20)])
        assert plan.seed_invariant
        assert all(sig.inert for sig in plan.signatures)

    def test_randomized_placement_is_never_inert(self):
        config = make_config(l1_placement="rm")
        plan = plan_for(config, [("fetch", i % 4) for i in range(20)])
        assert not plan.seed_invariant
        il1 = next(sig for sig in plan.signatures if sig.name == "il1")
        assert il1.randomized and not il1.inert
        assert il1.max_lines_per_set is None

    def test_undersubscribed_random_replacement_is_inert(self):
        # 4 distinct lines over 8 sets, 2 ways: no set ever overflows its
        # associativity, so the victim stream is never drawn.
        config = make_config(l1_placement="modulo", l1_replacement="random")
        plan = plan_for(config, [("fetch", i % 4) for i in range(20)])
        il1 = next(sig for sig in plan.signatures if sig.name == "il1")
        assert il1.inert
        assert il1.max_lines_per_set == 1

    def test_oversubscribed_random_replacement_is_not_inert(self):
        # Lines 0, 8, 16 all map (modulo, 8 sets) to set 0 in a 2-way
        # cache: victims are drawn, so seeds can diverge.
        config = make_config(l1_placement="modulo", l1_replacement="random")
        plan = plan_for(
            config, [("fetch", line) for line in (0, 8, 16)] * 3
        )
        il1 = next(sig for sig in plan.signatures if sig.name == "il1")
        assert not il1.inert
        assert il1.max_lines_per_set == 3
        assert not plan.seed_invariant

    def test_per_lane_maps_use_singleton_rule_and_are_never_inert(self):
        # Layout lanes map each line to a different set per lane, so the
        # per-set guarantee of a seed-invariant modulo/LRU plan is void.
        config = make_config(l1_placement="modulo", l1_replacement="lru", with_l2=True)
        accesses = [("fetch", 0), ("fetch", 1)] * 4
        compiled = CompiledTrace(make_trace(accesses), line_size=32)
        assert compile_plan(config, compiled).seed_invariant
        plan = compile_plan(config, compiled, per_lane_maps=True)
        assert plan.n_steps == 8
        assert not plan.seed_invariant
        assert not any(sig.inert for sig in plan.signatures)
        assert all(sig.max_lines_per_set is None for sig in plan.signatures)


class TestPlanShape:
    def test_describe_summarises_the_plan(self):
        plan = plan_for(make_config(), [("fetch", 0)] * 4 + [("load", 1)])
        summary = plan.describe()
        assert summary["n_accesses"] == 5
        assert summary["n_steps"] == 2
        assert summary["elided"] == {"il1": 3, "dl1": 0}
        assert len(summary["signatures"]) == len(plan.signatures)

    def test_step_columns_mirror_steps(self):
        plan = plan_for(
            make_config(l1_write="write-back"),
            [("fetch", 0), ("load", 1), ("store", 1), ("fetch", 0)],
        )
        assert plan.step_slot.tolist() == [step[0] for step in plan.steps]
        assert plan.step_uid.tolist() == [step[1] for step in plan.steps]
        assert [bool(x) for x in plan.step_store] == [s[2] for s in plan.steps]
        assert [bool(x) for x in plan.step_dirty_after] == [
            s[4] for s in plan.steps
        ]

    def test_empty_trace_compiles_to_empty_plan(self):
        plan = plan_for(make_config(), [])
        assert plan.n_steps == 0
        assert plan.elided_fraction == 0.0
        assert plan.seed_invariant  # trivially: nothing can diverge


class TestPlanCoverage:
    """Every registered replacement policy and write policy compiles."""

    @pytest.mark.parametrize("replacement", ["random", "lru", "fifo", "plru"])
    def test_all_replacement_policies_compile(self, replacement):
        config = make_config(l1_replacement=replacement)
        plan = plan_for(config, [("fetch", 0), ("fetch", 1), ("fetch", 0)])
        assert plan.n_steps >= 1

    def test_write_through_l2_compiles(self):
        config = make_config(with_l2=True)
        object.__setattr__(config.l2, "write_policy", "write-through")
        plan = plan_for(config, [("fetch", 0), ("store", 1)])
        assert plan.n_steps == 2

    def test_fifo_hits_keep_guarantees(self):
        # FIFO never reorders on a hit, so revisits stay elidable even
        # where LRU-style policies would have to keep the step.
        plan = plan_for(
            make_config(l1_replacement="fifo"),
            [("fetch", 0)] * 4,
        )
        assert plan.elided == {"il1": 3, "dl1": 0}

    def test_unknown_replacement_raises(self):
        config = make_config()
        object.__setattr__(config.il1, "replacement", "clock")
        with pytest.raises(PlanUnsupported, match="clock"):
            plan_for(config, [("fetch", 0)])


class TestInKernelRouting:
    """The jit kernel's on-the-fly placement routing vs materialized maps.

    The kernel evaluates hrp/rm set indices per access from a compact
    routing recipe (:meth:`PlacementPolicy.routing_params`) instead of
    gathering from a prebuilt ``(lines, seeds)`` matrix; these properties
    pin the two forms bit-for-bit against each other over random line sets,
    seeds and geometries.
    """

    @staticmethod
    def _fill(policy, name, lines, seed):
        import numpy as np

        from repro.engine.jit import _fill_sets_hrp, _fill_sets_rm

        params = policy.routing_params()
        assert params is not None, f"{name} lost its routing recipe"
        rows = np.arange(len(lines), dtype=np.int64)
        out = np.zeros(len(lines), dtype=np.int64)
        with np.errstate(over="ignore"):
            if name == "hrp":
                _fill_sets_hrp(
                    out, lines, rows, np.uint64(seed),
                    params["index_bits"], params["hash_width"],
                    params["offset_bits"], params["address_bits"],
                )
            else:
                wire_a = np.array(params["wire_a"], dtype=np.int64)
                wire_b = np.array(params["wire_b"], dtype=np.int64)
                _fill_sets_rm(
                    out, lines, rows, np.uint64(seed),
                    params["index_bits"], params["n_controls"],
                    params["upper_bits"], len(wire_a),
                    params["offset_bits"], params["address_bits"],
                    wire_a, wire_b,
                )
        return out

    @given(
        name=st.sampled_from(["hrp", "rm"]),
        num_sets=st.sampled_from([8, 16, 64, 128]),
        line_ids=st.lists(
            st.integers(0, 2**20 - 1), min_size=1, max_size=40, unique=True
        ),
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_routing_matches_materialized_maps(
        self, name, num_sets, line_ids, seeds
    ):
        import numpy as np

        from repro.core.placement import PlacementGeometry, make_placement

        geometry = PlacementGeometry(
            num_sets=num_sets, line_size=32, address_bits=32
        )
        policy = make_placement(name, geometry, seed=0)
        # Byte addresses of whole lines: the kernel masks and shifts the
        # address itself, so feeding it anything but real addresses would
        # hide an offset-handling bug.
        lines = (np.array(line_ids, dtype=np.uint64) * 32) + 0x40000000
        want = policy.set_index_matrix(lines, [int(s) for s in seeds])
        for column, seed in enumerate(seeds):
            got = self._fill(policy, name, lines, seed)
            assert got.tolist() == [int(x) for x in want[:, column]]
            assert ((got >= 0) & (got < num_sets)).all()

    def test_routing_kinds_reports_the_strategy(self):
        from repro.engine import JitEngine
        from repro.platform.leon3 import platform_setup
        from repro.workloads.eembc import eembc_trace

        compiled = CompiledTrace(eembc_trace("bitmnp"))
        simulator = JitEngine(force_python=True).simulator(
            platform_setup("rm"), compiled
        )
        kinds = simulator.routing_kinds()
        # The leon3 "rm" setup routes both L1s through the switch network
        # and the L2 through the parametric hash — both in-kernel.
        assert kinds == ["rm", "rm", "hrp"]
