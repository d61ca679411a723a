"""Figure 2: ideal (zero-delay) vs realistic (overriding) IPC for the
perceptron and multi-component predictors across large budgets."""

from __future__ import annotations

from benchmarks.conftest import LARGE_THINNED, ipc_instructions, thinned, write_result
from repro.harness.figconfig import builtin_config, figure_panels

BUDGETS = thinned("figure2", LARGE_THINNED)


def test_figure2_ideal_vs_overriding(once):
    (figure,) = once(
        figure_panels,
        builtin_config("figure2"),
        budgets=BUDGETS,
        instructions=ipc_instructions(),
    )
    write_result("figure2", figure.render("Budget", "{:.3f}"))

    largest = BUDGETS[-1]
    smallest = BUDGETS[0]
    for family in ("multicomponent", "perceptron"):
        ideal = figure.series[f"{family} (no delay)"]
        real = figure.series[f"{family} (overriding)"]
        # Realistic never beats ideal, and the gap widens with budget —
        # the paper's core observation.
        for budget in BUDGETS:
            assert real[budget] <= ideal[budget] + 1e-9
        assert (ideal[largest] - real[largest]) >= (ideal[smallest] - real[smallest]) - 1e-9
