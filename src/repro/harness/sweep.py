"""Budget-sweep building blocks used by the figure generators.

A sweep runs one predictor configuration per (benchmark, budget) cell and
aggregates across benchmarks per the paper's conventions.  Predictors are
constructed fresh per cell (no state leaks across benchmarks), while traces
are cached by the workload layer so the expensive part is paid once — and,
with ``REPRO_TRACE_STORE`` set, persisted to the content-addressed trace
store so later *processes* pay nothing either (warm runs replay columnar
traces with byte-identical sweep results).

Every cell executes through :func:`repro.harness.parallel._execute_shard`
(which computes it with :func:`cell_payload`), on one of two routes:

* ``jobs == 1`` and no run directory: a plain in-process loop over the
  grid's shards;
* anything else (``jobs`` > 1 and/or ``run_dir``): a campaign
  (:func:`repro.harness.campaign.execute`) on the run directory — or on a
  temporary one — drained by ``jobs`` workers, with per-cell checkpoints
  for crash resume.

``jobs`` defaults to ``REPRO_JOBS`` (1) and ``run_dir`` to
``REPRO_RUN_DIR``.  The returned cells are identical on either route, in
this module's canonical grid order (benchmark, family, budget).
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import groupby

from repro import obs
from repro.common.errors import ConfigurationError
from repro.core.overriding import OverridingPredictor
from repro.harness import parallel
from repro.harness.aggregate import arithmetic_mean, harmonic_mean
from repro.harness.experiment import default_jobs, measure_accuracy, measure_override
from repro.harness.figconfig import GridSpec, grid_cfg, grid_shards
from repro.harness.resultstore import (
    ResultCell,
    accuracy_result_key,
    active_result_store,
    ipc_result_key,
)
from repro.harness.scale import (
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


def _run_grid(
    name: str,
    grid: GridSpec,
    cfg: dict,
    jobs: int | None,
    run_dir: str | None,
    max_retries: int | None,
    label: str,
    **attrs: object,
) -> list[tuple[parallel.Shard, dict]]:
    """(shard, payload) for every cell of ``grid``, in canonical order.

    Opens the sweep-level span ``name``: the trace's local root for this
    sweep, over either the serial per-benchmark spans or the campaign's
    ``parallel.run`` span and every worker shard span.
    """
    jobs = default_jobs(jobs)
    if run_dir is None:
        run_dir = os.environ.get("REPRO_RUN_DIR", "").strip() or None
    shards = list(grid_shards(grid))
    with obs.span(name, jobs=jobs, **attrs):
        if jobs > 1 or run_dir is not None:
            from repro.harness.campaign import execute

            outcomes = execute(shards, cfg, jobs, run_dir, max_retries, label=label)
            return [(outcome.shard, outcome.payload) for outcome in outcomes]
        cells = []
        for benchmark, group in groupby(shards, key=lambda shard: shard.benchmark):
            with obs.span(f"{name}.benchmark", benchmark=benchmark):
                # Resolved per call: the module attribute may be wrapped.
                cells += [
                    (shard, parallel._execute_shard(shard, cfg, 0)["payload"])
                    for shard in group
                ]
        return cells


def cell_result_key(shard: parallel.Shard, cfg: dict) -> tuple[str, ResultCell]:
    """The cell's result-store (key, cell) pair — one recipe for every
    route, so serial runs, campaigns and ``--dry-run`` share one cache."""
    if shard.kind == "accuracy":
        key = accuracy_result_key(
            shard.benchmark,
            shard.family,
            shard.budget_bytes,
            cfg["instructions"],
            cfg["engine"],
            cfg["warmup_fraction"],
        )
        return key, ResultCell("accuracy", shard.benchmark, shard.family, shard.budget_bytes)
    key = ipc_result_key(
        shard.benchmark,
        shard.family,
        shard.budget_bytes,
        shard.mode,
        cfg["instructions"],
        cfg["machine"],
    )
    return key, ResultCell(
        "ipc", shard.benchmark, shard.family, shard.budget_bytes, shard.mode
    )


def cell_payload(shard: parallel.Shard, cfg: dict, spec_payload: dict | None = None) -> dict:
    """One cell's payload through the result store, or computed directly.

    The predictor is rebuilt from ``spec_payload`` (a serialized spec)
    when given, else sized fresh from the registry — bit-identical either
    way.  Cached and computed payloads are both JSON round-trips of the
    same floats, so warm sweeps are byte-identical to cold ones.
    """

    def compute() -> dict:
        if spec_payload is not None:
            predictor = registry.build_serialized(spec_payload)
        else:
            predictor = build_family(shard.family, shard.budget_bytes)
        trace = spec2000_trace(shard.benchmark, instructions=cfg["instructions"])
        if shard.kind == "ipc":
            return ipc_payload(
                shard.benchmark,
                shard.family,
                shard.budget_bytes,
                shard.mode,
                MachineConfig(**cfg["machine"]),
                trace,
                predictor=predictor,
            )
        result = measure_accuracy(
            predictor,
            trace,
            warmup_branches=warmup_branches(trace.conditional_branch_count),
            engine=cfg["engine"],
        )
        return {"misprediction_percent": result.misprediction_percent}

    store = active_result_store()
    if store is None:
        return compute()
    key, cell = cell_result_key(shard, cfg)
    return store.get_or_compute(key, cell, compute)


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

    ``jobs`` > 1 runs the grid as a campaign drained by that many worker
    processes (``None`` defers to ``REPRO_JOBS``); ``run_dir`` keeps the
    campaign there, one checkpoint per finished cell, so an interrupted
    sweep resumes without recomputation.  A failing cell is retried
    ``max_retries`` times.  Results are identical on every route.
    """
    if benchmarks is None:
        benchmarks = benchmark_names()
    if instructions is None:
        instructions = accuracy_instructions()
    grid = GridSpec("accuracy", tuple(families), tuple(budgets), tuple(benchmarks))
    cells = _run_grid(
        "accuracy_sweep",
        grid,
        grid_cfg("accuracy", instructions=instructions, engine=engine),
        jobs,
        run_dir,
        max_retries,
        label="accuracy_sweep",
        benchmarks=len(benchmarks),
        families=len(families),
        budgets=len(budgets),
    )
    return [
        AccuracyCell(
            benchmark=shard.benchmark,
            family=shard.family,
            budget_bytes=shard.budget_bytes,
            misprediction_percent=payload["misprediction_percent"],
        )
        for shard, payload in cells
    ]


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

    ``jobs``, ``run_dir`` and ``max_retries`` route the grid as in
    :func:`accuracy_sweep`.
    """
    if benchmarks is None:
        benchmarks = benchmark_names()
    if instructions is None:
        instructions = ipc_instructions()
    grid = GridSpec("ipc", tuple(families), tuple(budgets), tuple(benchmarks), (mode,))
    cells = _run_grid(
        "ipc_sweep",
        grid,
        grid_cfg("ipc", instructions=instructions, machine=config),
        jobs,
        run_dir,
        max_retries,
        label=f"ipc_sweep.{mode}",
        mode=mode,
        benchmarks=len(benchmarks),
        families=len(families),
        budgets=len(budgets),
    )
    return [
        IpcCell.from_payload(shard.benchmark, shard.family, mode, shard.budget_bytes, payload)
        for shard, payload in cells
    ]


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
