"""Golden-file regression tests.

Pins rendered experiment output against fixtures under ``tests/golden/``.
Any intentional behaviour change (timing model, workload generator, warmup
policy, predictor logic, rendering) must come with regenerated fixtures::

    PYTHONPATH=src python tests/golden/regen.py

and a diff of the fixture files reviewed alongside the code change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness.cli import main
from repro.harness.figconfig import CONFIG_DIR, builtin_config, run_target
from tests.golden.regen import (
    FIGURE1_BENCHMARKS,
    GRID_BENCHMARKS,
    GRID_FIGURES,
    GRID_SCALE,
    SIM_BENCHMARKS,
    STREAM_BENCHMARK,
    STREAM_INSTRUCTIONS,
    STREAM_SEED,
    render_figure1_small,
    simulator_results,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def read_fixture(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


def test_table2_matches_golden():
    assert run_target(builtin_config("table2")) + "\n" == read_fixture("table2.txt")


def test_table2_cli_matches_golden(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert read_fixture("table2.txt") in out


def test_figure1_small_matches_golden(monkeypatch):
    monkeypatch.setenv("REPRO_BENCHMARKS", FIGURE1_BENCHMARKS)
    assert render_figure1_small() + "\n" == read_fixture("figure1_small.txt")


@pytest.fixture(scope="module")
def grid_result_store(tmp_path_factory):
    """One result store shared by the grid-figure goldens, as when the
    fixtures were generated (Figures 2 and 8 resolve from Figure 7's cells)."""
    return str(tmp_path_factory.mktemp("grid-results"))


@pytest.mark.parametrize("via", ["config", "positional"])
@pytest.mark.parametrize("name", GRID_FIGURES)
def test_grid_figure_matches_golden(name, via, grid_result_store, monkeypatch, capsys):
    """Every grid figure's ``configs/<name>.json`` prints its fixture byte
    for byte, through ``--config`` and through the positional name."""
    monkeypatch.setenv("REPRO_SCALE", GRID_SCALE)
    monkeypatch.setenv("REPRO_BENCHMARKS", GRID_BENCHMARKS)
    monkeypatch.setenv("REPRO_RESULT_STORE", grid_result_store)
    argv = ["--config", str(CONFIG_DIR / f"{name}.json")] if via == "config" else [name]
    assert main(argv) == 0
    assert capsys.readouterr().out == read_fixture(f"{name}.txt") + "\n"


@pytest.mark.parametrize("profile", SIM_BENCHMARKS)
def test_simulator_results_match_golden(profile):
    """Every ``SimulationResult`` field, bit for bit, across fetch policies,
    machines and both trace representations."""
    import json

    fixture = json.loads(read_fixture("simulator_results.json"))
    assert simulator_results(profile) == fixture["results"][profile]


def test_golden_branch_stream_matches_workload():
    """The recorded stream is reproducible from the generator at its pinned
    seed — i.e. the workload layer hasn't drifted under the fixture."""
    from repro.workloads.spec2000 import spec2000_trace

    trace = spec2000_trace(
        STREAM_BENCHMARK, instructions=STREAM_INSTRUCTIONS, seed=STREAM_SEED
    )
    lines = read_fixture("branch_stream.csv").splitlines()[1:]
    recorded = [
        (int(pc, 16), taken == "1")
        for pc, taken in (line.split(",") for line in lines)
    ]
    live = list(trace.conditional_branches())[: len(recorded)]
    assert live == recorded


def test_regen_refuses_dirty_tree(monkeypatch, capsys):
    """regen.py must not rewrite fixtures on top of uncommitted changes."""
    from tests.golden import regen

    calls = []
    for name in (
        "regen_branch_stream",
        "regen_table2",
        "regen_figure1_small",
        "regen_grid_figures",
        "regen_simulator_results",
    ):
        monkeypatch.setattr(regen, name, lambda name=name: calls.append(name))
    monkeypatch.setattr(regen, "dirty_files", lambda: [" M src/thing.py"])
    assert regen.main([]) == 1
    assert calls == []
    assert "uncommitted changes" in capsys.readouterr().err

    # --force overrides the guard; a clean tree never needed it.
    assert regen.main(["--force"]) == 0
    monkeypatch.setattr(regen, "dirty_files", lambda: [])
    assert regen.main([]) == 0
    assert len(calls) == 10


def test_regen_prints_engine_and_seed(monkeypatch, capsys, tmp_path):
    """The regen log records what the fixtures were generated with."""
    from tests.golden import regen

    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(regen, "dirty_files", lambda: [])
    # The grid figures and the simulator results are pinned by their own
    # golden tests; regenerating them here would only repeat that work.
    grid_calls = []
    monkeypatch.setattr(regen, "regen_grid_figures", lambda: grid_calls.append(1))
    monkeypatch.setattr(regen, "regen_simulator_results", lambda: grid_calls.append(2))
    # regen_figure1_small writes REPRO_BENCHMARKS into os.environ;
    # registering it here makes monkeypatch restore the original value.
    monkeypatch.setenv("REPRO_BENCHMARKS", FIGURE1_BENCHMARKS)
    assert regen.main([]) == 0
    out = capsys.readouterr().out
    assert f"seed={STREAM_SEED}" in out
    assert "engine=" in out
    assert (tmp_path / "branch_stream.csv").exists()
    assert (tmp_path / "table2.txt").exists()
    assert (tmp_path / "figure1_small.txt").exists()
    assert grid_calls == [1, 2]
