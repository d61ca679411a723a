"""Figure 7: harmonic-mean IPC vs budget — ideal single-cycle (left panel)
vs realistic overriding (right panel) for the complex predictors, with
gshare.fast in both panels (it is single-cycle by construction)."""

from __future__ import annotations

from benchmarks.conftest import LARGE_THINNED, ipc_instructions, thinned, write_result
from repro.harness.figconfig import builtin_config, figure_panels

BUDGETS = thinned("figure7", LARGE_THINNED)


def test_figure7_ipc_panels(once):
    left, right = once(
        figure_panels,
        builtin_config("figure7"),
        budgets=BUDGETS,
        instructions=ipc_instructions(),
    )
    write_result("figure7_ideal", left.render("Budget", "{:.3f}"))
    write_result("figure7_overriding", right.render("Budget", "{:.3f}"))

    smallest, largest = BUDGETS[0], BUDGETS[-1]

    # gshare.fast pays no override penalty: identical in both panels.
    for budget in BUDGETS:
        assert abs(left.series["gshare_fast"][budget] - right.series["gshare_fast"][budget]) < 1e-9

    for family in ("2bcgskew", "multicomponent", "perceptron"):
        # Overriding loses IPC relative to ideal, more at larger budgets
        # where access latency (and therefore the override bubble) grows.
        assert right.series[family][largest] < left.series[family][largest]
        ideal_gain = left.series[family][largest] - left.series[family][smallest]
        real_gain = right.series[family][largest] - right.series[family][smallest]
        assert real_gain < ideal_gain + 1e-9

    # The realistic panel shows the paper's key reversal pressure: the
    # complex predictors' margin over gshare.fast shrinks once override
    # bubbles are charged.
    for family in ("2bcgskew", "multicomponent", "perceptron"):
        ideal_margin = left.series[family][largest] - left.series["gshare_fast"][largest]
        real_margin = right.series[family][largest] - right.series["gshare_fast"][largest]
        assert real_margin < ideal_margin
