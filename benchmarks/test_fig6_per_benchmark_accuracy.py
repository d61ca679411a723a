"""Figure 6: per-benchmark misprediction rates at the mid (53-64KB)
budget for the complex predictors and gshare.fast."""

from __future__ import annotations

from benchmarks.conftest import accuracy_instructions, write_result
from repro.harness.figconfig import builtin_config, figure_panels
from repro.harness.scale import benchmark_names


def test_figure6_per_benchmark(once):
    (figure,) = once(
        figure_panels, builtin_config("figure6"), instructions=accuracy_instructions()
    )
    write_result("figure6", figure.render())

    assert figure.benchmarks == benchmark_names()
    # Mean ordering matches the paper: complex predictors beat gshare.fast.
    assert figure.means["perceptron"] < figure.means["gshare_fast"]
    assert figure.means["multicomponent"] < figure.means["gshare_fast"]
    # The hard benchmarks are hard for everyone (twolf worst-or-near-worst,
    # when the full benchmark list is in play).
    if "twolf" in figure.benchmarks and "vortex" in figure.benchmarks:
        for family in figure.series:
            assert figure.series[family]["twolf"] > figure.series[family]["vortex"]
