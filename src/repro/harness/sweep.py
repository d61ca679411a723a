"""Budget-sweep building blocks used by the figure generators.

A sweep runs one predictor configuration per (benchmark, budget) cell and
aggregates across benchmarks per the paper's conventions.  Predictors are
constructed fresh per cell (no state leaks across benchmarks), while traces
are cached by the workload layer so the expensive part is paid once — and,
with ``REPRO_TRACE_STORE`` set, persisted to the content-addressed trace
store so later *processes* pay nothing either (warm runs replay columnar
traces with byte-identical sweep results).

Because cells are independent, both sweeps accept ``jobs`` (default: the
``REPRO_JOBS`` environment variable, 1 = serial): with more than one job
the grid is executed by the process-pool executor in
:mod:`repro.harness.parallel`, which shards per cell, checkpoints finished
shards under ``run_dir`` (default ``REPRO_RUN_DIR``) for crash resume, and
merges results back in this module's serial iteration order — the returned
cells are identical either way.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import asdict, dataclass

from repro import obs
from repro.common.errors import ConfigurationError
from repro.core.overriding import OverridingPredictor
from repro.harness.aggregate import arithmetic_mean, harmonic_mean
from repro.harness.experiment import default_engine, measure_accuracy, measure_override
from repro.harness.resultstore import (
    ResultCell,
    accuracy_result_key,
    active_result_store,
    ipc_result_key,
)
from repro.harness.scale import (
    WARMUP_FRACTION,
    accuracy_instructions,
    benchmark_names,
    ipc_instructions,
    warmup_branches,
)
from repro.predictors import registry
from repro.predictors.base import BranchPredictor
from repro.timing.latency import predictor_latency
from repro.uarch.config import PAPER_MACHINE, MachineConfig
from repro.uarch.policies import FetchPolicy, OverridingPolicy, SingleCyclePolicy
from repro.uarch.simulator import CycleSimulator, StallBreakdown
from repro.workloads.spec2000 import get_profile, spec2000_trace

#: IPC fetch-policy modes (see :func:`make_policy`).
POLICY_MODES = ("ideal", "overriding")


def _resolve_parallel(
    jobs: int | None, run_dir: str | None
) -> tuple[int, str | None]:
    """Resolve the (jobs, run_dir) pair a sweep call should use.

    ``jobs=None`` defers to ``REPRO_JOBS`` (default 1: serial in-process);
    ``run_dir=None`` defers to ``REPRO_RUN_DIR`` (default: no checkpoints).
    """
    from repro.harness.experiment import default_jobs

    if jobs is None:
        jobs = default_jobs()
    if run_dir is None:
        run_dir = os.environ.get("REPRO_RUN_DIR", "").strip() or None
    return jobs, run_dir


def build_family(family: str, budget_bytes: int) -> BranchPredictor:
    """Construct any registered predictor family — one registry lookup,
    covering the factory families and the pipelined ``repro.core`` ones."""
    return registry.build(family, budget_bytes)


@dataclass(frozen=True)
class AccuracyCell:
    """One (benchmark, family, budget) accuracy measurement."""

    benchmark: str
    family: str
    budget_bytes: int
    misprediction_percent: float


def accuracy_sweep(
    families: list[str],
    budgets: list[int],
    benchmarks: list[str] | None = None,
    instructions: int | None = None,
    engine: str | None = None,
    jobs: int | None = None,
    run_dir: str | None = None,
    max_retries: int | None = None,
) -> list[AccuracyCell]:
    """Misprediction rate for every (family, budget, benchmark) cell.

    ``engine`` selects the evaluation engine per cell (scalar reference or
    the vectorized batch engine); ``None`` defers to ``REPRO_ENGINE``.

    ``jobs`` > 1 fans the grid out across worker processes (``None`` defers
    to ``REPRO_JOBS``); ``run_dir`` checkpoints finished shards there so an
    interrupted sweep resumes without recomputation, retrying failed shards
    ``max_retries`` times.  Results are identical to the serial path.
    """
    if benchmarks is None:
        benchmarks = benchmark_names()
    if instructions is None:
        instructions = accuracy_instructions()
    jobs, run_dir = _resolve_parallel(jobs, run_dir)
    # The sweep-level span is the trace's local root for this sweep: the
    # serial per-benchmark spans (and, with jobs > 1, the executor's
    # parallel.run span plus every worker shard span) all parent beneath it.
    with obs.span(
        "accuracy_sweep",
        benchmarks=len(benchmarks),
        families=len(families),
        budgets=len(budgets),
        jobs=jobs,
    ):
        # Any run with a run directory goes through the planned-work
        # executor (even serially, jobs=1): checkpoints, campaign
        # classification, and selective rerun all live there now.
        if jobs > 1 or run_dir is not None:
            from repro.harness.parallel import parallel_accuracy_sweep

            return parallel_accuracy_sweep(
                families,
                budgets,
                benchmarks,
                instructions,
                engine,
                jobs=jobs,
                run_dir=run_dir,
                max_retries=max_retries,
            )
        engine_name = engine if engine is not None else default_engine()
        store = active_result_store()
        cells = []
        for benchmark in benchmarks:
            with obs.span(
                "accuracy_sweep.benchmark",
                benchmark=benchmark,
                families=",".join(families),
                budgets=len(budgets),
            ):
                # Lazy: with a warm result store the trace (and every
                # predictor) is never touched — the whole benchmark resolves
                # from disk.
                loader = _LazyTrace(benchmark, instructions)
                for family in families:
                    for budget in budgets:
                        payload = _accuracy_cell_payload(
                            store, benchmark, family, budget, instructions,
                            engine_name, loader,
                        )
                        cells.append(
                            AccuracyCell(
                                benchmark=benchmark,
                                family=family,
                                budget_bytes=budget,
                                misprediction_percent=payload["misprediction_percent"],
                            )
                        )
        return cells


class _LazyTrace:
    """One benchmark trace fetched at most once, and only when some cell
    actually misses the result store."""

    def __init__(self, benchmark: str, instructions: int) -> None:
        self.benchmark = benchmark
        self.instructions = instructions
        self._trace = None

    @property
    def trace(self):
        if self._trace is None:
            self._trace = spec2000_trace(self.benchmark, instructions=self.instructions)
        return self._trace

    @property
    def warmup(self) -> int:
        return warmup_branches(self.trace.conditional_branch_count)


def _accuracy_cell_payload(
    store,
    benchmark: str,
    family: str,
    budget: int,
    instructions: int,
    engine_name: str,
    loader: _LazyTrace,
) -> dict:
    """One accuracy cell through the result store (or computed directly).

    Cached and computed payloads are both JSON round-trips of the same
    floats, so warm sweeps are byte-identical to cold ones.
    """

    def compute() -> dict:
        predictor = build_family(family, budget)
        result = measure_accuracy(
            predictor, loader.trace, warmup_branches=loader.warmup, engine=engine_name
        )
        return {"misprediction_percent": result.misprediction_percent}

    if store is None:
        return compute()
    key = accuracy_result_key(
        benchmark, family, budget, instructions, engine_name, WARMUP_FRACTION
    )
    cell = ResultCell("accuracy", benchmark, family, budget)
    return store.get_or_compute(key, cell, compute)


def mean_by_family_budget(cells: list[AccuracyCell]) -> dict[tuple[str, int], float]:
    """Arithmetic mean misprediction (%) per (family, budget)."""
    groups: dict[tuple[str, int], list[float]] = {}
    for cell in cells:
        groups.setdefault((cell.family, cell.budget_bytes), []).append(
            cell.misprediction_percent
        )
    return {key: arithmetic_mean(values) for key, values in groups.items()}


# -- IPC sweeps ---------------------------------------------------------------


def make_policy(
    family: str,
    budget_bytes: int,
    mode: str,
    predictor: BranchPredictor | None = None,
) -> FetchPolicy:
    """Build the fetch policy for a family/budget under ``mode``.

    Modes: ``ideal`` (zero-delay complex predictor — Figure 7 left),
    ``overriding`` (quick 2K gshare + slow complex predictor — Figure 7
    right).  Which path a family takes is read off its registry spec:
    ``single_cycle`` families (pipelined by construction) accept either
    mode and never need overriding; ``override_eligible`` families have a
    latency model and can play the slow side of an overriding pair.

    ``predictor`` lets callers that already built the predictor (e.g. from
    a serialized spec) skip the registry build.
    """
    if mode not in POLICY_MODES:
        raise ValueError(f"unknown policy mode {mode!r}")
    spec = registry.get_spec(family)
    if predictor is None:
        predictor = registry.build(family, budget_bytes)
    if spec.single_cycle or mode == "ideal":
        return SingleCyclePolicy(predictor)
    if not spec.override_eligible:
        raise ConfigurationError(
            f"family {family!r} is not override-eligible "
            f"(no latency model registers it as a slow predictor)"
        )
    latency = predictor_latency(family, budget_bytes)
    return OverridingPolicy(OverridingPredictor(predictor, slow_latency=latency))


@dataclass(frozen=True)
class IpcCell:
    """One (benchmark, family, mode, budget) cycle-simulation result."""

    benchmark: str
    family: str
    mode: str
    budget_bytes: int
    ipc: float
    misprediction_percent: float
    override_rate: float
    #: cycles lost per cause (mispredicts, override bubbles, caches, BTB, RAS)
    stalls: StallBreakdown

    @classmethod
    def from_payload(
        cls, benchmark: str, family: str, mode: str, budget_bytes: int, payload: dict
    ) -> "IpcCell":
        """The cell a stored IPC payload (see :func:`ipc_payload`) describes."""
        return cls(
            benchmark=benchmark,
            family=family,
            mode=mode,
            budget_bytes=budget_bytes,
            ipc=payload["ipc"],
            misprediction_percent=payload["misprediction_percent"],
            override_rate=payload["override_rate"],
            stalls=StallBreakdown(**payload["stalls"]),
        )


def ipc_sweep(
    families: list[str],
    budgets: list[int],
    mode: str,
    benchmarks: list[str] | None = None,
    instructions: int | None = None,
    config: MachineConfig = PAPER_MACHINE,
    jobs: int | None = None,
    run_dir: str | None = None,
    max_retries: int | None = None,
) -> list[IpcCell]:
    """Cycle-simulated IPC for every (family, budget, benchmark) cell.

    Parallel execution mirrors :func:`accuracy_sweep`: ``jobs`` > 1 shards
    the grid across worker processes with optional ``run_dir`` checkpoints.
    """
    if benchmarks is None:
        benchmarks = benchmark_names()
    if instructions is None:
        instructions = ipc_instructions()
    jobs, run_dir = _resolve_parallel(jobs, run_dir)
    # Same trace shape as accuracy_sweep: one sweep-level root span over
    # either the serial per-benchmark spans or the parallel executor's tree.
    with obs.span(
        "ipc_sweep",
        mode=mode,
        benchmarks=len(benchmarks),
        families=len(families),
        budgets=len(budgets),
        jobs=jobs,
    ):
        if jobs > 1 or run_dir is not None:
            from repro.harness.parallel import parallel_ipc_sweep

            return parallel_ipc_sweep(
                families,
                budgets,
                mode,
                benchmarks,
                instructions,
                config,
                jobs=jobs,
                run_dir=run_dir,
                max_retries=max_retries,
            )
        store = active_result_store()
        machine = asdict(config)
        cells = []
        for benchmark in benchmarks:
            with obs.span(
                "ipc_sweep.benchmark", benchmark=benchmark, mode=mode, budgets=len(budgets)
            ):
                loader = _LazyTrace(benchmark, instructions)
                for family in families:
                    for budget in budgets:
                        payload = _ipc_cell_payload(
                            store, benchmark, family, budget, mode, instructions,
                            machine, config, loader,
                        )
                        cells.append(
                            IpcCell.from_payload(benchmark, family, mode, budget, payload)
                        )
        return cells


def _ipc_cell_payload(
    store,
    benchmark: str,
    family: str,
    budget: int,
    mode: str,
    instructions: int,
    machine: dict,
    config: MachineConfig,
    loader: _LazyTrace,
) -> dict:
    """One IPC cell through the result store (or simulated directly)."""

    def compute() -> dict:
        return ipc_payload(benchmark, family, budget, mode, config, loader.trace)

    if store is None:
        return compute()
    key = ipc_result_key(benchmark, family, budget, mode, instructions, machine)
    cell = ResultCell("ipc", benchmark, family, budget, mode)
    return store.get_or_compute(key, cell, compute)


def ipc_payload(
    benchmark: str,
    family: str,
    budget: int,
    mode: str,
    config: MachineConfig,
    trace,
    predictor: BranchPredictor | None = None,
) -> dict:
    """Simulate one IPC cell: the payload the result store keeps for it —
    IPC, misprediction %, override rate and the stall breakdown."""
    policy = make_policy(family, budget, mode, predictor=predictor)
    simulator = CycleSimulator(policy, config=config, ilp=get_profile(benchmark).ilp)
    result = simulator.run(trace)
    override_rate = (
        result.overrides / result.conditional_branches
        if result.conditional_branches
        else 0.0
    )
    return {
        "ipc": result.ipc,
        "misprediction_percent": 100.0 * result.misprediction_rate,
        "override_rate": override_rate,
        "stalls": asdict(result.stalls),
    }


def hmean_ipc_by_family_budget(cells: list[IpcCell]) -> dict[tuple[str, int], float]:
    """Harmonic mean IPC per (family, budget)."""
    groups: dict[tuple[str, int], list[float]] = {}
    for cell in cells:
        groups.setdefault((cell.family, cell.budget_bytes), []).append(cell.ipc)
    return {key: harmonic_mean(values) for key, values in groups.items()}


Builder = Callable[[str, int], BranchPredictor]


def override_statistics(
    family: str,
    budget_bytes: int,
    benchmarks: list[str] | None = None,
    instructions: int | None = None,
) -> dict[str, float]:
    """Per-benchmark override (disagreement) rates for a quick/slow pair."""
    if benchmarks is None:
        benchmarks = benchmark_names()
    if instructions is None:
        instructions = accuracy_instructions()
    latency = predictor_latency(family, budget_bytes)
    rates = {}
    for benchmark in benchmarks:
        with obs.span("override_statistics.benchmark", benchmark=benchmark, family=family):
            trace = spec2000_trace(benchmark, instructions=instructions)
            overriding = OverridingPredictor(
                build_family(family, budget_bytes), slow_latency=latency
            )
            result = measure_override(overriding, trace)
            rates[benchmark] = result.override_rate
    return rates
