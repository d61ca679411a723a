"""Tests for caches, BTB/RAS, and the cycle simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.core.dualpath import DualPathPolicy
from repro.core.gshare_fast import build_gshare_fast
from repro.core.overriding import OverridingPredictor
from repro.predictors.gshare import GsharePredictor
from repro.uarch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.uarch.caches import Cache, MemoryHierarchy, machine_hierarchy
from repro.uarch.config import PAPER_MACHINE, MachineConfig
from repro.uarch.policies import DualPathFetchPolicy, OverridingPolicy, SingleCyclePolicy
from repro.uarch.simulator import CycleSimulator, memory_columns
from repro.workloads.trace import Block, Trace


class TestCache:
    def test_hit_after_fill(self):
        cache = Cache(1024, 64, ways=1)
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.access(0x1004)  # same line

    def test_direct_mapped_conflict(self):
        cache = Cache(1024, 64, ways=1)  # 16 sets
        cache.access(0x0000)
        cache.access(0x0000 + 1024)  # same set, evicts
        assert not cache.access(0x0000)

    def test_two_way_avoids_simple_conflict(self):
        cache = Cache(1024, 64, ways=2)  # 8 sets
        cache.access(0x0000)
        cache.access(0x0000 + 512)
        assert cache.access(0x0000)
        assert cache.access(0x0000 + 512)

    def test_lru_eviction(self):
        cache = Cache(256, 64, ways=2)  # 2 sets
        a, b, c = 0x0000, 0x0080, 0x0100  # same set (set stride 128)
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a most recent
        cache.access(c)  # evicts b
        assert cache.probe(a)
        assert not cache.probe(b)

    def test_stats(self):
        cache = Cache(1024, 64)
        cache.access(0x0)
        cache.access(0x0)
        assert cache.stats.accesses == 2
        assert cache.stats.misses == 1
        assert cache.stats.miss_rate == 0.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Cache(1000, 60)
        with pytest.raises(ConfigurationError):
            Cache(128, 64, ways=3)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
    def test_rereference_always_hits(self, addresses):
        cache = Cache(64 * 1024, 64)
        for address in addresses:
            cache.access(address)
            assert cache.access(address)


class TestHierarchy:
    def test_l1_hit_costs_nothing(self):
        hierarchy = machine_hierarchy()
        hierarchy.access_data(0x1000)
        assert hierarchy.access_data(0x1000) == 0

    def test_l2_hit_cost(self):
        hierarchy = machine_hierarchy(MachineConfig(l2_hit_cycles=12))
        hierarchy.access_data(0x1000)  # fills both levels
        hierarchy.access_data(0x1000 + 64 * 1024)  # evicts L1 line (same set)
        assert hierarchy.access_data(0x1000) == 12

    def test_memory_cost_on_cold_access(self):
        hierarchy = machine_hierarchy(MachineConfig(memory_cycles=200))
        assert hierarchy.access_data(0x5000) == 200

    @staticmethod
    def geometry(hierarchy):
        return [
            (cache.size_bytes, cache.line_bytes, cache.ways)
            for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
        ] + [hierarchy.l2_hit_cycles, hierarchy.memory_cycles]

    def test_default_machine_is_table1(self):
        """Table 1 prints PAPER_MACHINE's cache fields; they are what the
        simulator builds."""
        table1 = [(64 * 1024, 64, 1), (64 * 1024, 64, 1), (2 * 1024 * 1024, 128, 4), 12, 200]
        assert self.geometry(machine_hierarchy()) == table1

    def test_machine_hierarchy_follows_config(self):
        config = MachineConfig(
            l1_size=1024, l1_line=32, l2_size=8192, l2_line=64, l2_ways=1,
            l2_hit_cycles=9, memory_cycles=90,
        )
        assert self.geometry(machine_hierarchy(config)) == [
            (1024, 32, 1), (1024, 32, 1), (8192, 64, 1), 9, 90
        ]


class TestBtb:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=64, ways=2)
        assert btb.lookup(0x1000) is None
        btb.install(0x1000, 0x2000)
        assert btb.lookup(0x1000) == 0x2000

    def test_update_existing(self):
        btb = BranchTargetBuffer(entries=64, ways=2)
        btb.install(0x1000, 0x2000)
        btb.install(0x1000, 0x3000)
        assert btb.lookup(0x1000) == 0x3000

    def test_lru_within_set(self):
        btb = BranchTargetBuffer(entries=4, ways=2)  # 2 sets
        # Three pcs mapping to set 0 (pc>>2 even).
        btb.install(0x0, 0xA)
        btb.install(0x10, 0xB)
        btb.lookup(0x0)  # refresh
        btb.install(0x20, 0xC)  # evicts 0x10
        assert btb.lookup(0x0) == 0xA
        assert btb.lookup(0x10) is None

    def test_stats(self):
        btb = BranchTargetBuffer(entries=64, ways=2)
        btb.lookup(0x1000)
        btb.install(0x1000, 0x2000)
        btb.lookup(0x1000)
        assert btb.stats.lookups == 2
        assert btb.stats.misses == 1


class TestRas:
    def test_push_pop(self):
        ras = ReturnAddressStack(depth=4)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100
        assert ras.pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        ras.push(0x1)
        ras.push(0x2)
        ras.push(0x3)
        assert ras.overflows == 1
        assert ras.pop() == 0x3
        assert ras.pop() == 0x2
        assert ras.pop() is None


class TestMachineConfig:
    def test_paper_defaults(self):
        assert PAPER_MACHINE.issue_width == 8
        assert PAPER_MACHINE.pipeline_depth == 20
        assert PAPER_MACHINE.btb_entries == 512

    def test_front_depth(self):
        assert PAPER_MACHINE.front_depth == 14

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(issue_width=0)
        with pytest.raises(ConfigurationError):
            MachineConfig(pipeline_depth=4)


class TestSimulator:
    def _run(self, policy, trace, ilp=2.8, config=PAPER_MACHINE):
        return CycleSimulator(policy, config=config, ilp=ilp).run(trace)

    def test_ipc_bounds(self, small_trace):
        result = self._run(SingleCyclePolicy(build_gshare_fast(16 * 1024)), small_trace)
        assert 0.05 < result.ipc < PAPER_MACHINE.issue_width
        assert result.instructions == small_trace.instruction_count

    def test_better_predictor_means_better_ipc(self, small_trace):
        # A trained gshare.fast against a static not-taken predictor on a
        # taken-heavy trace: accuracy must translate into IPC.
        from repro.predictors.base import BranchPredictor

        class AlwaysNotTaken(BranchPredictor):
            name = "always-nt"

            @property
            def storage_bits(self):
                return 0

            def _predict(self, pc):
                return False, None

            def _update(self, pc, taken, predicted, context):
                pass

        good = self._run(SingleCyclePolicy(build_gshare_fast(64 * 1024)), small_trace)
        bad = self._run(SingleCyclePolicy(AlwaysNotTaken()), small_trace)
        assert good.ipc > bad.ipc
        assert good.misprediction_rate < bad.misprediction_rate

    def test_deeper_pipeline_hurts(self, small_trace):
        shallow = self._run(
            SingleCyclePolicy(build_gshare_fast(16 * 1024)),
            small_trace,
            config=MachineConfig(pipeline_depth=10),
        )
        deep = self._run(
            SingleCyclePolicy(build_gshare_fast(16 * 1024)),
            small_trace,
            config=MachineConfig(pipeline_depth=40),
        )
        assert deep.ipc < shallow.ipc

    def test_override_bubbles_cost_cycles(self, small_trace):
        """The same slow predictor with a larger override latency must lose
        IPC — the core mechanism behind Figure 2/7's right panel."""
        def run_with_latency(latency):
            overriding = OverridingPredictor(
                GsharePredictor(64 * 1024, history_length=14), slow_latency=latency
            )
            return self._run(OverridingPolicy(overriding), small_trace)

        fast = run_with_latency(2)
        slow = run_with_latency(10)
        assert slow.ipc < fast.ipc
        assert slow.stalls.override_bubble > fast.stalls.override_bubble

    def test_override_counts_reported(self, small_trace):
        overriding = OverridingPredictor(
            GsharePredictor(64 * 1024, history_length=14), slow_latency=4
        )
        result = self._run(OverridingPolicy(overriding), small_trace)
        assert result.overrides > 0
        assert result.overrides <= result.conditional_branches

    def test_dualpath_costs_bandwidth(self, small_trace):
        single = self._run(SingleCyclePolicy(GsharePredictor(8192)), small_trace)
        dual = self._run(
            DualPathFetchPolicy(DualPathPolicy(GsharePredictor(8192), latency=4)),
            small_trace,
        )
        assert dual.ipc < single.ipc

    def test_higher_ilp_helps(self, small_trace):
        low = self._run(SingleCyclePolicy(build_gshare_fast(16 * 1024)), small_trace, ilp=1.5)
        high = self._run(SingleCyclePolicy(build_gshare_fast(16 * 1024)), small_trace, ilp=4.0)
        assert high.ipc > low.ipc

    def test_stall_breakdown_populated(self, small_trace):
        result = self._run(SingleCyclePolicy(build_gshare_fast(16 * 1024)), small_trace)
        assert result.stalls.mispredict > 0
        assert result.stalls.dcache > 0

    def test_ilp_validation(self):
        with pytest.raises(ConfigurationError):
            CycleSimulator(SingleCyclePolicy(GsharePredictor(1024)), ilp=0)

    def test_small_caches_raise_stalls(self, small_trace):
        """The simulator builds the hierarchy MachineConfig describes: a 1KB
        L1 over an 8KB direct-mapped L2 must stall more than Table 1's."""
        small = MachineConfig(l1_size=1024, l2_size=8 * 1024, l2_ways=1)
        paper = self._run(SingleCyclePolicy(build_gshare_fast(16 * 1024)), small_trace)
        tiny = self._run(
            SingleCyclePolicy(build_gshare_fast(16 * 1024)), small_trace, config=small
        )
        assert tiny.stalls.icache > paper.stalls.icache
        assert tiny.stalls.dcache > paper.stalls.dcache
        assert tiny.cycles > paper.cycles

    def test_line_crossing_uses_l1_line(self):
        """A 16-byte block straddling a 64-byte boundary touches two L1
        I-lines with 64-byte lines (the second one hits the 128-byte L2 line
        the first one filled) and one with 128-byte lines."""
        trace = Trace("straddle", [Block(pc=0x1038, instructions=4)])
        paper = PAPER_MACHINE
        assert memory_columns(trace, paper)[0] == [paper.memory_cycles + paper.l2_hit_cycles]
        wide = MachineConfig(l1_line=128)
        assert memory_columns(trace, wide)[0] == [wide.memory_cycles]

    def test_memory_columns_memoized_per_hierarchy(self, small_trace):
        trace = Trace(small_trace.name, list(small_trace.blocks))
        paper = memory_columns(trace, PAPER_MACHINE)
        assert memory_columns(trace, MachineConfig(pipeline_depth=30)) is paper
        slow = memory_columns(trace, MachineConfig(memory_cycles=400))
        assert slow is not paper and slow != paper
        assert memory_columns(trace, PAPER_MACHINE) is paper
        # A grown trace is annotated afresh (the length guard).
        trace.blocks.append(Block(pc=0x7F_0000, instructions=4, loads=(0x7F_8000,)))
        grown = memory_columns(trace, PAPER_MACHINE)
        assert grown[0][:-1] == paper[0] and grown[1][:-1] == paper[1]
        assert len(grown[0]) == len(paper[0]) + 1

    def test_runs_are_self_contained(self, small_trace):
        """Caches, BTB and RAS start cold on every run: with a stateless
        predictor, two runs on one simulator agree exactly."""
        from repro.predictors.static import AlwaysTakenPredictor

        simulator = CycleSimulator(SingleCyclePolicy(AlwaysTakenPredictor()))
        first = simulator.run(small_trace)
        assert first.stalls.btb_miss > 0
        assert simulator.run(small_trace) == first


class TestMultiBlockFetch:
    """Section 3.3.1: multiple fetch blocks (branch predictions) per cycle."""

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(blocks_per_cycle=0)

    def test_never_hurts(self, small_trace):
        base = CycleSimulator(
            SingleCyclePolicy(build_gshare_fast(16 * 1024)),
            config=MachineConfig(blocks_per_cycle=1),
            ilp=2.8,
        ).run(small_trace)
        dual = CycleSimulator(
            SingleCyclePolicy(build_gshare_fast(16 * 1024)),
            config=MachineConfig(blocks_per_cycle=2),
            ilp=2.8,
        ).run(small_trace)
        assert dual.ipc >= base.ipc - 1e-9

    def test_helps_frontend_bound_machines(self, small_trace):
        """With the backend wide open (ilp = issue width) fetch bandwidth is
        the limiter, so consuming two blocks per cycle must gain IPC."""
        base = CycleSimulator(
            SingleCyclePolicy(build_gshare_fast(16 * 1024)),
            config=MachineConfig(blocks_per_cycle=1),
            ilp=8.0,
        ).run(small_trace)
        dual = CycleSimulator(
            SingleCyclePolicy(build_gshare_fast(16 * 1024)),
            config=MachineConfig(blocks_per_cycle=2),
            ilp=8.0,
        ).run(small_trace)
        assert dual.ipc > base.ipc

    def test_buffer_sizing_matches_fetch_width(self):
        """The gshare.fast PHT buffer must grow with predictions per cycle
        (the 2**k * p rule), tying the front-end knob to the predictor."""
        from repro.core.gshare_fast import multi_branch_buffer_entries

        for blocks in (1, 2, 4, 8):
            entries = multi_branch_buffer_entries(3, blocks)
            assert entries == 8 * blocks
