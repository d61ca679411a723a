"""Figure 5: mean misprediction of the four large predictors (2Bc-gskew,
multi-component, perceptron, gshare.fast) at large budgets."""

from __future__ import annotations

from benchmarks.conftest import LARGE_THINNED, accuracy_instructions, thinned, write_result
from repro.harness.figconfig import builtin_config, figure_panels

BUDGETS = thinned("figure5", LARGE_THINNED)


def test_figure5_large_budget_accuracy(once):
    (figure,) = once(
        figure_panels,
        builtin_config("figure5"),
        budgets=BUDGETS,
        instructions=accuracy_instructions(),
    )
    write_result("figure5", figure.render())

    # Paper shape: the complex predictors are more accurate than
    # gshare.fast at every budget (gshare.fast trades accuracy for a
    # single-cycle pipeline), and the perceptron leads.
    for budget in BUDGETS:
        fast = figure.series["gshare_fast"][budget]
        assert figure.series["perceptron"][budget] < fast
        assert figure.series["multicomponent"][budget] < fast
        assert figure.series["perceptron"][budget] <= (
            figure.series["multicomponent"][budget] + 1.0
        )
