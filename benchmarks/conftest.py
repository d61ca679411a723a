"""Shared plumbing for the figure-regeneration benchmarks.

Each benchmark regenerates one of the paper's tables/figures (see
DESIGN.md's experiment index), asserts its headline *shape* property, and
writes the rendered text to ``results/<id>.txt`` next to this directory.

Scale: benchmarks default to a reduced trace length so the full suite
finishes in tens of minutes; ``REPRO_SCALE`` multiplies it (values >= 3
approach the asymptotic numbers recorded in EXPERIMENTS.md), and
``REPRO_BENCHMARKS`` selects a benchmark subset.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.figconfig import builtin_config
from repro.harness.scale import scale_factor

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Reduced per-benchmark trace lengths for the benchmark suite.
ACCURACY_INSTRUCTIONS = 300_000
IPC_INSTRUCTIONS = 200_000

#: Budgets kept when thinning a figure config's ladder (runtime stays sane);
#: :func:`thinned` checks each choice against the config it thins.
FIG1_THINNED = [4 * 1024, 32 * 1024, 256 * 1024]
LARGE_THINNED = [16 * 1024, 64 * 1024, 512 * 1024]


def accuracy_instructions() -> int:
    return max(int(ACCURACY_INSTRUCTIONS * scale_factor()), 10_000)


def ipc_instructions() -> int:
    return max(int(IPC_INSTRUCTIONS * scale_factor()), 10_000)


def thinned(name: str, budgets: list[int]) -> list[int]:
    """``budgets``, asserted to be a subset of ``configs/<name>.json``'s
    budget ladder (the config is the only declaration of the ladder)."""
    ladder = builtin_config(name).grids[0].budgets
    assert set(budgets) <= set(ladder), f"{budgets} is not on {name}'s ladder {ladder}"
    return list(budgets)


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture
def once(benchmark):
    """Run the figure generator exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
