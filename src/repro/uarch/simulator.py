"""Cycle-level processor model: trace + fetch policy -> IPC.

A SimpleScalar stand-in built for the effects this paper measures.  The
front end is modelled cycle by cycle — every fetch block pays for I-cache
misses, fetch-width limits, BTB misses, override bubbles and misprediction
redirects — because all of the paper's phenomena live there.  The back end
is an interval model: an in-order retirement cursor paced by the workload's
exploitable ILP, data-cache stalls (with a memory-level-parallelism
factor), and a ROB window that throttles fetch when the back end falls too
far behind.  DESIGN.md records this substitution for the authors' full
out-of-order SimpleScalar/Alpha.

A run has two phases:

1. **Memory annotation, once per trace.**  The model never fetches down the
   wrong path, so each block's cache behaviour depends only on the trace
   and the memory hierarchy.  :func:`memory_columns` replays the trace's
   exact access order — the block's first I-line, a second I-line when the
   block crosses one, its loads, then its stores; the L2 is shared, so the
   order matters — through a fresh hierarchy built from the
   :class:`MachineConfig`'s cache geometry and latencies.  It yields two
   flat per-block columns: the I-cache stall and the summed load stall.
   The columns are memoized on the trace object, keyed by the hierarchy's
   geometry and latencies and guarded by the trace's length, so every cell
   that replays the same in-process trace (all policies, budgets and modes
   of a figure grid) shares one pass.
2. **Fetch/back-end recurrence, once per cell.**  :meth:`CycleSimulator.run`
   walks flat columns (instruction counts, branch kind/pc/direction/target
   and the two stall columns) with a fresh BTB and RAS, calling the fetch
   policy once per conditional branch in trace order.

Event accounting per block:

    fetch_start  = next free fetch slot (after bubbles/redirects)
    fetch_end    = fetch_start + icache stalls + ceil(instrs / width)
    exec_ready   = fetch_end + front_depth          (decode/rename/issue)
    backend_end  = max(backend_end, exec_ready) + instrs/min(ilp, width)
                   + dcache stalls / MLP
    mispredict   -> next fetch_start = max(exec_ready, prev backend_end)+1
                    (the branch must reach execute before redirecting)

IPC = instructions / cycles at the last block's completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import obs
from repro.common.errors import ConfigurationError
from repro.uarch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.uarch.caches import machine_hierarchy
from repro.uarch.config import PAPER_MACHINE, MachineConfig
from repro.uarch.policies import FetchPolicy
from repro.workloads.io import trace_to_columns
from repro.workloads.trace import BranchKind, Trace

_CONDITIONAL = int(BranchKind.CONDITIONAL)
_CALL = int(BranchKind.CALL)
_RETURN = int(BranchKind.RETURN)
_NONE = int(BranchKind.NONE)


@dataclass
class StallBreakdown:
    """Where the cycles went (beyond ideal single-cycle fetch flow)."""

    icache: int = 0
    dcache: int = 0
    mispredict: int = 0
    override_bubble: int = 0
    btb_miss: int = 0
    ras_miss: int = 0


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    trace: str
    policy: str
    instructions: int
    cycles: int
    conditional_branches: int
    mispredictions: int
    overrides: int
    stalls: StallBreakdown = field(default_factory=StallBreakdown)

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the whole run."""
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def misprediction_rate(self) -> float:
        """Fraction of conditional branches the policy got wrong."""
        if self.conditional_branches == 0:
            return 0.0
        return self.mispredictions / self.conditional_branches


class _TraceColumns:
    """What the simulator keeps on a trace object: its flat fetch columns
    and one pair of memory columns per hierarchy."""

    def __init__(self, trace: Trace) -> None:
        source = trace.columns() if hasattr(trace, "columns") else trace_to_columns(trace)
        self.length = len(trace)
        self.source = source
        self.fetch = (
            source["instructions"].tolist(),
            source["branch_kind"].tolist(),
            source["branch_pc"].tolist(),
            source["taken"].tolist(),
            source["target"].tolist(),
        )
        self.instruction_count = sum(self.fetch[0])
        self.memory: dict[tuple, tuple[list[int], list[int]]] = {}


def _trace_columns(trace: Trace) -> _TraceColumns:
    """The trace's memoized columns (rebuilt when its length changes, the
    guard :meth:`Trace.branch_arrays` uses)."""
    cached = getattr(trace, "_simulator_columns", None)
    if cached is None or cached.length != len(trace):
        cached = _TraceColumns(trace)
        trace._simulator_columns = cached
    return cached


def memory_columns(trace: Trace, config: MachineConfig) -> tuple[list[int], list[int]]:
    """Per-block ``(icache_stall, load_stall)`` columns of ``trace`` on
    ``config``'s memory hierarchy (phase 1; memoized on the trace).

    ``icache_stall`` covers the block's first line plus a second line when
    the block crosses an L1 line boundary; ``load_stall`` is the summed
    stall of the block's loads.  Stores fill the caches but stall nothing.
    """
    key = (
        config.l1_size,
        config.l1_line,
        config.l2_size,
        config.l2_line,
        config.l2_ways,
        config.l2_hit_cycles,
        config.memory_cycles,
    )
    columns = _trace_columns(trace)
    annotation = columns.memory.get(key)
    if annotation is None:
        annotation = columns.memory[key] = _annotate(columns.source, config)
    return annotation


def _annotate(source: dict, config: MachineConfig) -> tuple[list[int], list[int]]:
    """Replay every block's accesses, in trace order, through a fresh
    hierarchy built from ``config``."""
    hierarchy = machine_hierarchy(config)
    access_instruction = hierarchy.access_instruction
    access_data = hierarchy.access_data
    line_shift = hierarchy.l1i.line_shift
    loads = source["loads"].tolist()
    stores = source["stores"].tolist()
    load_offsets = source["load_offsets"].tolist()
    store_offsets = source["store_offsets"].tolist()
    icache: list[int] = []
    load_stall: list[int] = []
    for i, (pc, instructions) in enumerate(
        zip(source["pc"].tolist(), source["instructions"].tolist())
    ):
        stall = access_instruction(pc)
        last_byte = pc + instructions * 4 - 1
        if (last_byte >> line_shift) != (pc >> line_shift):
            stall += access_instruction(last_byte)
        icache.append(stall)
        stall = 0
        for address in loads[load_offsets[i] : load_offsets[i + 1]]:
            stall += access_data(address)
        for address in stores[store_offsets[i] : store_offsets[i + 1]]:
            access_data(address)
        load_stall.append(stall)
    return icache, load_stall


class CycleSimulator:
    """Runs one trace through the machine under a given fetch policy."""

    def __init__(
        self,
        policy: FetchPolicy,
        config: MachineConfig = PAPER_MACHINE,
        ilp: float = 2.8,
    ) -> None:
        if ilp <= 0:
            raise ConfigurationError("ilp must be positive")
        self.policy = policy
        self.config = config
        self.ilp = min(ilp, float(config.issue_width))

    def run(self, trace: Trace) -> SimulationResult:
        """Simulate ``trace`` start to finish and return cycles/IPC/stats.

        Caches, BTB and RAS start cold on every call; only the fetch
        policy's predictor state carries over between calls.
        """
        config = self.config
        policy = self.policy
        ilp = self.ilp
        columns = _trace_columns(trace)
        icache_column, load_column = memory_columns(trace, config)
        btb = BranchTargetBuffer(entries=config.btb_entries, ways=config.btb_ways)
        ras = ReturnAddressStack(depth=config.ras_depth)
        btb_lookup = btb.lookup
        btb_install = btb.install
        predict = policy.predict
        update = policy.update
        note_gap = getattr(policy, "note_gap", None)  # gap-aware (cascading)
        issue_width = config.issue_width
        half_width = max(issue_width // 2, 1)
        blocks_per_cycle = config.blocks_per_cycle
        front_depth = config.front_depth
        mlp = config.memory_level_parallelism
        btb_miss_penalty = config.btb_miss_penalty

        icache = dcache = mispredict = override_bubble = btb_miss = ras_miss = 0
        next_fetch = 0.0  # next free fetch cycle
        backend_end = float(front_depth)  # in-order retirement cursor
        half_width_until = 0.0  # dual-path window
        rob_lead = config.rob_size / ilp  # max cycles fetch may lead
        last_branch_fetch_end = 0.0  # for gap-aware (cascading) policies
        # Multi-block fetch group (Section 3.3.1): consecutive blocks share
        # a fetch cycle while the group has slots and width to spare.
        group_end = -1.0
        group_count = 0
        mispredictions = 0
        overrides = 0
        branches = 0

        for instructions, kind, branch_pc, taken, target, icache_stall, load_stall in zip(
            *columns.fetch, icache_column, load_column
        ):
            # ROB throttle: fetch cannot run arbitrarily ahead of retire.
            if next_fetch < backend_end - rob_lead:
                next_fetch = backend_end - rob_lead

            fetch_start = next_fetch
            icache += icache_stall

            width = half_width if fetch_start < half_width_until else issue_width
            # EV8-style multi-block fetch: each block in a group gets a full
            # fetch-block's width (bandwidth scales with blocks_per_cycle),
            # so a block joins the open group when slots remain, it follows
            # immediately (no bubble/redirect in between), it hit the
            # I-cache, and it fits one fetch block by itself.
            if (
                blocks_per_cycle > 1
                and group_count < blocks_per_cycle
                and fetch_start == group_end
                and icache_stall == 0
                and instructions <= width
            ):
                fetch_end = group_end
                group_count += 1
            else:
                fetch_end = fetch_start + icache_stall + math.ceil(instructions / width)
                group_end = fetch_end
                group_count = 1
            next_fetch = fetch_end

            # Back end: pace retirement by ILP and data stalls.
            data_stall = load_stall / mlp
            dcache += int(data_stall)
            exec_ready = fetch_end + front_depth
            prev_backend_end = backend_end
            backend_end = max(backend_end, exec_ready) + instructions / ilp + data_stall

            if kind == _NONE:
                continue

            # -- branch handling at the block terminator -------------------
            if kind == _CONDITIONAL:
                branches += 1
                if note_gap is not None:
                    note_gap(int(fetch_end - last_branch_fetch_end))
                last_branch_fetch_end = fetch_end
                prediction = predict(branch_pc)
                correct = update(branch_pc, taken)
                if prediction.bubble_cycles:
                    overrides += 1
                    next_fetch += prediction.bubble_cycles
                    override_bubble += prediction.bubble_cycles
                if prediction.half_width_cycles:
                    # A second branch inside an open window cannot fork
                    # again: fetch waits for the window to close first.
                    if fetch_end < half_width_until:
                        stall = half_width_until - fetch_end
                        next_fetch += stall
                        override_bubble += int(stall)
                    half_width_until = next_fetch + prediction.half_width_cycles
                if prediction.taken:
                    if btb_lookup(branch_pc) != target:
                        # Redirect waits for decode to compute the target.
                        next_fetch += btb_miss_penalty
                        btb_miss += btb_miss_penalty
                    btb_install(branch_pc, target)
                if not correct:
                    mispredictions += 1
                    resolve = max(exec_ready, prev_backend_end) + 1
                    if resolve > next_fetch:
                        mispredict += int(resolve - next_fetch)
                        next_fetch = resolve
            elif kind == _RETURN:
                if ras.pop() != target:
                    # RAS miss: treated like a mispredicted branch.
                    resolve = max(exec_ready, prev_backend_end) + 1
                    if resolve > next_fetch:
                        ras_miss += int(resolve - next_fetch)
                        next_fetch = resolve
            else:  # call or unconditional direct jump
                if kind == _CALL:
                    ras.push(branch_pc + 4)
                if btb_lookup(branch_pc) != target:
                    next_fetch += btb_miss_penalty
                    btb_miss += btb_miss_penalty
                btb_install(branch_pc, target)

        cycles = int(math.ceil(max(next_fetch, backend_end)))
        result = SimulationResult(
            trace=trace.name,
            policy=policy.name,
            instructions=columns.instruction_count,
            cycles=max(cycles, 1),
            conditional_branches=branches,
            mispredictions=mispredictions,
            overrides=overrides,
            stalls=StallBreakdown(
                icache=icache,
                dcache=dcache,
                mispredict=mispredict,
                override_bubble=override_bubble,
                btb_miss=btb_miss,
                ras_miss=ras_miss,
            ),
        )
        if obs.enabled():
            self._publish(result)
        return result

    def _publish(self, result: SimulationResult) -> None:
        """Account this run's cycles — bubbles broken down by cause — into
        the default metrics registry (once per run, never per block)."""
        registry = obs.registry()
        registry.counter("sim.runs").inc()
        registry.counter("sim.instructions").inc(result.instructions)
        registry.counter("sim.cycles").inc(result.cycles)
        registry.counter("sim.branches").inc(result.conditional_branches)
        registry.counter("sim.mispredictions").inc(result.mispredictions)
        registry.counter("sim.overrides").inc(result.overrides)
        stalls = result.stalls
        for cause, amount in (
            ("icache", stalls.icache),
            ("dcache", stalls.dcache),
            ("mispredict", stalls.mispredict),
            ("override_bubble", stalls.override_bubble),
            ("btb_miss", stalls.btb_miss),
            ("ras_miss", stalls.ras_miss),
        ):
            registry.counter(f"sim.stall.{cause}").inc(amount)
        overriding = getattr(self.policy, "overriding", None)
        if overriding is not None and hasattr(overriding, "record_stats"):
            overriding.record_stats(registry)
