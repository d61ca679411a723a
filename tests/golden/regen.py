"""Regenerate the golden fixtures under ``tests/golden/``.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

Fixtures:

* ``branch_stream.csv`` — a recorded (pc, taken) conditional-branch stream
  from the gcc stand-in workload at seed 1.  The differential batch tests
  replay it through both engines; pinning the stream in a file keeps those
  tests meaningful even if the workload generator changes.
* ``table2.txt`` — the rendered Table 2 (predictor access latencies).  Pure
  function of the SRAM delay model; any drift is a real behaviour change.
* ``figure1_small.txt`` — a small, fixed-configuration Figure 1 run (two
  benchmarks, two of ``configs/figure1.json``'s budgets, 30k instructions).  Pins the full accuracy
  pipeline: workload generation, warmup policy, every Figure 1 predictor
  family, aggregation and rendering.
* ``figure2.txt`` .. ``figure8.txt``, ``extension.txt`` — every other grid
  figure exactly as ``repro-figures <name>`` prints it from
  ``configs/<name>.json``, at the smallest
  scale (``REPRO_SCALE=0.02`` on gzip and eon).  One temporary result store
  is shared across them, so Figures 2 and 8 resolve from Figure 7's cells.
* ``simulator_results.json`` — every ``SimulationResult`` field (cycles,
  instructions, branches, mispredictions, overrides and the six stall
  causes) of the cycle simulator over a matrix of profiles x fetch
  policies x machine configurations, each run on both trace
  representations (``Trace`` blocks and the store's ``ColumnarTrace``).

Regenerating is the *intentional* way to accept a behaviour change: rerun
this script, eyeball the diff, and commit the new fixtures with the change
that caused them.  To keep that diff honest, the script refuses to run
while the working tree has uncommitted changes (fixtures regenerated on
top of unrelated edits are impossible to review); pass ``--force`` to
override.  It also prints the engine and seed each fixture was generated
with, so the commit message can record them.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
REPO_ROOT = GOLDEN_DIR.parent.parent

#: Fixed configuration for the small Figure 1 fixture (kept identical in
#: tests/test_golden.py — change both together).
FIGURE1_BENCHMARKS = "gcc,eon"
FIGURE1_BUDGETS = [4 * 1024, 32 * 1024]
FIGURE1_INSTRUCTIONS = 30_000

#: Grid-figure fixtures: rendered in this order (Figure 7 first, so Figures
#: 2 and 8 resolve from its stored cells) at this scale and benchmark subset.
GRID_FIGURES = ["figure7", "figure2", "figure8", "figure5", "figure6", "extension"]
GRID_SCALE = "0.02"
GRID_BENCHMARKS = "gzip,eon"

#: Cycle-simulator fixture matrix: profiles, fetch policies, machines.  The
#: machines keep the default cache geometry (geometry has its own tests).
SIM_BENCHMARKS = ["gcc", "mcf", "eon"]
SIM_INSTRUCTIONS = 20_000
SIM_BUDGET = 16 * 1024
SIM_POLICIES = [
    "gshare_fast-1cyc",
    "perceptron-ideal",
    "multicomponent-overriding",
    "gshare-dualpath",
    "perceptron-cascading",
]
SIM_MACHINES = {
    "paper": {},
    "blocks2": {"blocks_per_cycle": 2},
    "slow-memory": {"l2_hit_cycles": 20, "memory_cycles": 350},
    "depth30": {"pipeline_depth": 30},
}
SIM_REPRESENTATIONS = ["trace", "columnar"]

#: The recorded stream: benchmark, seed, trace length and branch count.
STREAM_BENCHMARK = "gcc"
STREAM_SEED = 1
STREAM_INSTRUCTIONS = 40_000
STREAM_BRANCHES = 2_500


def dirty_files() -> list[str]:
    """Paths with uncommitted changes (``git status --porcelain``).

    Returns [] when the tree is clean or when git is unavailable (for
    example a source tarball) — the guard only blocks when it *knows*
    the tree is dirty.
    """
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return []
    if proc.returncode != 0:
        return []
    return [line for line in proc.stdout.splitlines() if line.strip()]


def regen_branch_stream() -> None:
    from repro.workloads.spec2000 import spec2000_trace

    trace = spec2000_trace(
        STREAM_BENCHMARK, instructions=STREAM_INSTRUCTIONS, seed=STREAM_SEED
    )
    lines = ["pc,taken"]
    for pc, taken in list(trace.conditional_branches())[:STREAM_BRANCHES]:
        lines.append(f"{pc:#x},{int(taken)}")
    (GOLDEN_DIR / "branch_stream.csv").write_text("\n".join(lines) + "\n")
    print(
        f"branch_stream.csv: {len(lines) - 1} branches "
        f"(benchmark={STREAM_BENCHMARK}, seed={STREAM_SEED})"
    )


def regen_table2() -> None:
    (GOLDEN_DIR / "table2.txt").write_text(render_target("table2") + "\n")
    print("table2.txt (pure delay model; no engine or seed)")


def regen_figure1_small() -> None:
    os.environ["REPRO_BENCHMARKS"] = FIGURE1_BENCHMARKS
    from repro.harness.experiment import default_engine

    (GOLDEN_DIR / "figure1_small.txt").write_text(render_figure1_small() + "\n")
    print(
        f"figure1_small.txt (engine={default_engine()}, "
        f"benchmarks={FIGURE1_BENCHMARKS}, default trace seeds)"
    )


@contextlib.contextmanager
def scoped_env(**values: str):
    """Set environment variables for the block, restoring them after."""
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def render_target(name: str) -> str:
    """The text ``repro-figures <name>`` prints for one target."""
    from repro.harness.figconfig import builtin_config, run_target

    return run_target(builtin_config(name))


def render_figure1_small() -> str:
    """``configs/figure1.json`` thinned to the fixture's budgets and length."""
    from repro.harness.figconfig import builtin_config, figure_panels

    (figure,) = figure_panels(
        builtin_config("figure1"),
        budgets=FIGURE1_BUDGETS,
        instructions=FIGURE1_INSTRUCTIONS,
    )
    return figure.render()


def regen_grid_figures() -> None:
    from repro.harness.experiment import default_engine

    with tempfile.TemporaryDirectory() as store, scoped_env(
        REPRO_SCALE=GRID_SCALE,
        REPRO_BENCHMARKS=GRID_BENCHMARKS,
        REPRO_RESULT_STORE=store,
    ):
        for name in GRID_FIGURES:
            (GOLDEN_DIR / f"{name}.txt").write_text(render_target(name) + "\n")
        print(
            f"{', '.join(f'{name}.txt' for name in GRID_FIGURES)} "
            f"(engine={default_engine()}, scale={GRID_SCALE}, "
            f"benchmarks={GRID_BENCHMARKS}, default trace seeds)"
        )


def sim_policy(name: str):
    """A fresh fetch policy for one ``SIM_POLICIES`` entry."""
    from repro.core.cascading import CascadingPredictor
    from repro.core.dualpath import DualPathPolicy
    from repro.harness.sweep import build_family, make_policy
    from repro.timing.latency import predictor_latency
    from repro.uarch.policies import CascadingFetchPolicy, DualPathFetchPolicy

    family, mode = name.split("-")
    if mode == "dualpath":
        latency = predictor_latency(family, SIM_BUDGET)
        return DualPathFetchPolicy(DualPathPolicy(build_family(family, SIM_BUDGET), latency))
    if mode == "cascading":
        latency = predictor_latency(family, SIM_BUDGET)
        return CascadingFetchPolicy(
            CascadingPredictor(build_family(family, SIM_BUDGET), slow_latency=latency)
        )
    return make_policy(family, SIM_BUDGET, "ideal" if mode == "1cyc" else mode)


def sim_traces(benchmark: str) -> dict:
    """The benchmark's fixture trace in each representation (fresh objects,
    never shared with the in-process trace cache)."""
    from repro.workloads.spec2000 import spec2000_trace
    from repro.workloads.store import ColumnarTrace
    from repro.workloads.trace import Trace

    cached = spec2000_trace(benchmark, instructions=SIM_INSTRUCTIONS)
    blocks = list(cached.blocks)
    return {
        "trace": Trace(name=cached.name, blocks=blocks),
        "columnar": ColumnarTrace.from_trace(Trace(name=cached.name, blocks=blocks)),
    }


def simulator_results(benchmark: str) -> dict:
    """Every fixture cell of one benchmark: ``policy/machine/representation``
    -> the ``SimulationResult`` as a dict."""
    from dataclasses import asdict

    from repro.uarch.config import MachineConfig
    from repro.uarch.simulator import CycleSimulator
    from repro.workloads.spec2000 import get_profile

    traces = sim_traces(benchmark)
    ilp = get_profile(benchmark).ilp
    results = {}
    for policy in SIM_POLICIES:
        for machine, overrides in SIM_MACHINES.items():
            for representation in SIM_REPRESENTATIONS:
                simulator = CycleSimulator(
                    sim_policy(policy), config=MachineConfig(**overrides), ilp=ilp
                )
                result = simulator.run(traces[representation])
                results[f"{policy}/{machine}/{representation}"] = asdict(result)
    return results


def regen_simulator_results() -> None:
    import json

    fixture = {
        "instructions": SIM_INSTRUCTIONS,
        "budget_bytes": SIM_BUDGET,
        "results": {name: simulator_results(name) for name in SIM_BENCHMARKS},
    }
    (GOLDEN_DIR / "simulator_results.json").write_text(
        json.dumps(fixture, indent=1, sort_keys=True) + "\n"
    )
    print(
        f"simulator_results.json (benchmarks={','.join(SIM_BENCHMARKS)}, "
        f"instructions={SIM_INSTRUCTIONS}, default trace seeds)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force",
        action="store_true",
        help="regenerate even with uncommitted changes in the working tree",
    )
    args = parser.parse_args(argv)
    dirty = dirty_files()
    if dirty and not args.force:
        print(
            "refusing to regenerate golden fixtures: the working tree has "
            "uncommitted changes, so the fixture diff would mix with them.\n"
            "Commit or stash first, or rerun with --force:\n  "
            + "\n  ".join(dirty),
            file=sys.stderr,
        )
        return 1
    regen_branch_stream()
    regen_table2()
    regen_figure1_small()
    regen_grid_figures()
    regen_simulator_results()
    return 0


if __name__ == "__main__":
    sys.exit(main())
