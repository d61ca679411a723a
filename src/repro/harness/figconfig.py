"""Declarative figure/table targets: ``configs/*.json`` (``repro-figures``).

A config file is a small JSON document that declares one regeneration
target.  Every grid figure of the paper is a config and nothing else: its
family list, budget ladder, IPC modes and titles live only in its file,
and one generic path (:func:`figure_panels`) sweeps and renders it.
Positional targets (``repro-figures figure1``) resolve to the file of the
same name in :data:`CONFIG_DIR`.  Three modes:

``sweep``
    One grid: families x budgets (accuracy) or families x budgets x modes
    (IPC).  ``renderer`` picks the figure shape:

    * ``series`` (default) — a :class:`~repro.harness.figures.SeriesFigure`
      with budgets on x.  An IPC grid whose ``title`` is a list renders one
      panel per mode (Figure 7); with a single title, a multi-mode grid
      labels each series with the mode's fixed suffix from
      :data:`MODE_SUFFIXES` (Figure 2).
    * ``per_benchmark`` — a :class:`~repro.harness.figures.PerBenchmarkFigure`
      at the grid's single budget (and single mode), with the grid kind's
      mean row: ``arith.mean`` of misprediction rates or ``harm.mean`` of
      IPCs (Figures 6 and 8).

    Because families resolve through the predictor registry — and
    ``family_modules`` lists modules to import first — an external family
    (e.g. the test-suite toy family) gets a figure with zero harness edits.

``inferred``
    A sweep-shaped projection assembled *purely from already-stored
    results* of other configs: it declares ``based_on`` (the config names
    whose grids cover it) and its cell set must be a subset of the union of
    those base grids — the inference graph, validated up front.  Resolution
    goes through the ordinary sweeps, so with the bases warm in the result
    store an inferred target performs zero predictor work; with a cold
    store it still produces correct output.

``runner``
    One of the four targets that sweep no grid (``table1``, ``table2``,
    ``delayed-update``, ``override``), named by its ``target`` and rendered
    by :data:`repro.harness.figures.RUNNERS`.

``--dry-run`` probes the active result store for every declared cell and
reports hit/miss/inferred per target without mutating anything (corrupt
entries are left in place for the real run to count and repair).

Cell keys are derived with the exact recipe the sweeps use
(:mod:`repro.harness.resultstore`), resolving instructions, engine and
benchmarks from the current environment — a classification is a statement
about *this* scale/engine/benchmark configuration, like every figure.
"""

from __future__ import annotations

import importlib
import json
import os
from collections.abc import Iterator, Mapping
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.common.errors import ConfigurationError

#: Bumped when the config-file layout changes.
CONFIG_SCHEMA = 1

#: The shipped target configs, located from the source tree (the package
#: is installed in editable mode, ``pip install -e .``).
CONFIG_DIR = Path(__file__).resolve().parents[3] / "configs"

_MODES = ("runner", "sweep", "inferred")
_GRID_KINDS = ("accuracy", "ipc")
_RENDERERS = ("series", "per_benchmark")
_TOP_FIELDS = {
    "schema", "target", "mode", "title", "renderer", "based_on",
    "family_modules", "grids",
}
_GRID_FIELDS = {"kind", "families", "budgets", "benchmarks", "modes"}

#: Series-label suffix per IPC mode when one panel shows several modes
#: (Figure 2's "ideal vs overriding" lines).
MODE_SUFFIXES = {"ideal": "(no delay)", "overriding": "(overriding)"}


@dataclass(frozen=True)
class GridSpec:
    """One declared sweep grid: the cells a target iterates."""

    kind: str  # "accuracy" | "ipc"
    families: tuple[str, ...]
    budgets: tuple[int, ...]
    #: None = resolve ``benchmark_names()`` (REPRO_BENCHMARKS) at use time.
    benchmarks: tuple[str, ...] | None = None
    #: IPC policy modes ("ideal"/"overriding"); empty for accuracy grids.
    modes: tuple[str, ...] = ()

    def resolved_benchmarks(self) -> list[str]:
        """The declared benchmarks, or the environment's subset."""
        from repro.harness.scale import benchmark_names

        return list(self.benchmarks) if self.benchmarks is not None else benchmark_names()

    def cells(self) -> Iterator[tuple]:
        """Every (benchmark, family, budget[, mode]) cell in the grid."""
        for benchmark in self.resolved_benchmarks():
            for family in self.families:
                for budget in self.budgets:
                    if self.kind == "ipc":
                        for mode in self.modes:
                            yield (benchmark, family, budget, mode)
                    else:
                        yield (benchmark, family, budget)


@dataclass(frozen=True)
class TargetConfig:
    """One parsed config file (see module docstring for the modes)."""

    name: str
    mode: str
    path: str = ""  # source file, for diagnostics
    #: sweep/inferred: the rendered title, or one title per IPC mode panel.
    title: str | tuple[str, ...] = ""
    renderer: str = "series"  # sweep/inferred: "series" | "per_benchmark"
    based_on: tuple[str, ...] = ()  # inferred: covering config names
    family_modules: tuple[str, ...] = ()  # imported before family resolution
    grids: tuple[GridSpec, ...] = field(default_factory=tuple)

    def cell_set(self) -> set[tuple]:
        """The union of every grid's cells (inference-graph currency)."""
        cells: set[tuple] = set()
        for grid in self.grids:
            cells.update(grid.cells())
        return cells


def _require(data: Mapping, key: str, path: str):
    if key not in data:
        raise ConfigurationError(f"config {path}: missing required field {key!r}")
    return data[key]


def _str_tuple(value, key: str, path: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigurationError(f"config {path}: {key!r} must be a list of strings")
    return tuple(value)


def _refuse_unknown_fields(data: Mapping, allowed: set[str], where: str, path: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigurationError(
            f"config {path}: unknown {where} field(s) {unknown} "
            f"(allowed: {sorted(allowed)})"
        )


def _parse_grid(data, path: str) -> GridSpec:
    from repro.harness.sweep import POLICY_MODES
    from repro.workloads.catalog import workload_names

    if not isinstance(data, Mapping):
        raise ConfigurationError(f"config {path}: each grid must be an object")
    _refuse_unknown_fields(data, _GRID_FIELDS, "grid", path)
    kind = _require(data, "kind", path)
    if kind not in _GRID_KINDS:
        raise ConfigurationError(
            f"config {path}: grid kind must be one of {_GRID_KINDS}, got {kind!r}"
        )
    families = _str_tuple(_require(data, "families", path), "families", path)
    budgets = _require(data, "budgets", path)
    if (
        not isinstance(budgets, list)
        or not budgets
        # bool is an int subclass: refuse ``true`` before it reaches sizing.
        or not all(type(b) is int and b > 0 for b in budgets)
    ):
        raise ConfigurationError(
            f"config {path}: 'budgets' must be a non-empty list of positive integers"
        )
    benchmarks = data.get("benchmarks")
    if benchmarks is not None:
        benchmarks = _str_tuple(benchmarks, "benchmarks", path)
        known = set(workload_names())
        unknown = [name for name in benchmarks if name not in known]
        if unknown:
            raise ConfigurationError(
                f"config {path}: unknown benchmarks {unknown} "
                f"(not in the workload catalog)"
            )
    modes: tuple[str, ...] = ()
    if kind == "ipc":
        modes = _str_tuple(_require(data, "modes", path), "modes", path)
        if not modes:
            raise ConfigurationError(f"config {path}: an ipc grid needs 'modes'")
        unknown = [mode for mode in modes if mode not in POLICY_MODES]
        if unknown:
            raise ConfigurationError(
                f"config {path}: unknown ipc modes {unknown} "
                f"(choose from {list(POLICY_MODES)})"
            )
    elif "modes" in data:
        raise ConfigurationError(f"config {path}: 'modes' is only valid for ipc grids")
    return GridSpec(
        kind=kind,
        families=families,
        budgets=tuple(budgets),
        benchmarks=benchmarks,
        modes=modes,
    )


def load_config(path: str | os.PathLike) -> TargetConfig:
    """Parse and validate one config file; raises ConfigurationError."""
    path = str(path)
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(data, path)


def _parse_view(data: Mapping, mode: str, grids: tuple[GridSpec, ...], path: str):
    """(title, renderer) of a sweep/inferred config, checked against its
    single grid: a non-empty title, or one per mode for an IPC series."""
    if len(grids) != 1:
        raise ConfigurationError(f"config {path}: {mode} mode requires exactly one grid")
    grid = grids[0]
    renderer = data.get("renderer", "series")
    if renderer not in _RENDERERS:
        raise ConfigurationError(
            f"config {path}: renderer must be one of {_RENDERERS}, got {renderer!r}"
        )
    if renderer == "per_benchmark" and (len(grid.budgets) != 1 or len(grid.modes) > 1):
        raise ConfigurationError(
            f"config {path}: a per_benchmark figure needs exactly one budget "
            f"(and, for ipc, one mode)"
        )
    title = _require(data, "title", path)
    if isinstance(title, list) and renderer == "series" and grid.kind == "ipc":
        title = _str_tuple(title, "title", path)
        valid = len(title) == len(grid.modes) and all(title)
    else:
        valid = isinstance(title, str) and bool(title)
    if not valid:
        raise ConfigurationError(
            f"config {path}: 'title' must be a non-empty string (or, for an ipc "
            f"series grid, one per mode: {len(grid.modes)} panel titles)"
        )
    return title, renderer


def parse_config(data: object, path: str = "<memory>") -> TargetConfig:
    """Validate one already-parsed config document (the prediction service
    submits these over the wire, so validation must not require a file);
    ``path`` labels diagnostics.  Raises ConfigurationError."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"config {path}: top level must be an object")
    if data.get("schema") != CONFIG_SCHEMA:
        raise ConfigurationError(
            f"config {path}: schema {data.get('schema')!r} unsupported "
            f"(expected {CONFIG_SCHEMA})"
        )
    _refuse_unknown_fields(data, _TOP_FIELDS, "top-level", path)
    name = _require(data, "target", path)
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"config {path}: 'target' must be a non-empty string")
    mode = _require(data, "mode", path)
    if mode not in _MODES:
        raise ConfigurationError(
            f"config {path}: mode must be one of {_MODES}, got {mode!r}"
        )
    grids = tuple(_parse_grid(grid, path) for grid in data.get("grids", []))
    based_on = _str_tuple(data.get("based_on", []), "based_on", path)
    family_modules = _str_tuple(
        data.get("family_modules", []), "family_modules", path
    )
    title, renderer = "", "series"
    if mode == "runner":
        from repro.harness.figures import RUNNERS

        if name not in RUNNERS:
            raise ConfigurationError(
                f"config {path}: runner mode is for the grid-less targets "
                f"{sorted(RUNNERS)}, not {name!r}"
            )
        extra = sorted(set(data) & {"title", "renderer", "grids"})
        if extra:
            raise ConfigurationError(
                f"config {path}: runner mode takes no {extra} "
                f"(a grid figure is a sweep config)"
            )
    else:
        title, renderer = _parse_view(data, mode, grids, path)
    if mode == "inferred" and not based_on:
        raise ConfigurationError(
            f"config {path}: inferred mode requires a non-empty 'based_on'"
        )
    if mode != "inferred" and based_on:
        raise ConfigurationError(
            f"config {path}: 'based_on' is only valid for inferred configs"
        )
    return TargetConfig(
        name=name,
        mode=mode,
        path=path,
        title=title,
        renderer=renderer,
        based_on=based_on,
        family_modules=family_modules,
        grids=grids,
    )


def builtin_config(name: str) -> TargetConfig:
    """The shipped config a positional ``repro-figures <name>`` runs."""
    return load_config(CONFIG_DIR / f"{name}.json")


def load_configs(paths: list[str]) -> list[TargetConfig]:
    """Load every config named by ``paths`` (files, or directories whose
    ``*.json`` entries are loaded in sorted order); duplicate target names
    are refused, every family must resolve in the predictor registry, and
    every inferred config's inference graph is validated."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            entries = sorted(
                entry for entry in os.listdir(path) if entry.endswith(".json")
            )
            if not entries:
                raise ConfigurationError(f"config directory {path} has no *.json files")
            files.extend(os.path.join(path, entry) for entry in entries)
        else:
            files.append(path)
    configs = [load_config(path) for path in files]
    seen: dict[str, str] = {}
    for config in configs:
        if config.name in seen:
            raise ConfigurationError(
                f"duplicate config target {config.name!r} "
                f"({seen[config.name]} and {config.path})"
            )
        seen[config.name] = config.path
        validate_families(config)
    validate_inference(configs)
    return configs


def validate_families(config: TargetConfig) -> None:
    """Every family the config names must resolve in the predictor registry
    once its ``family_modules`` are imported."""
    from repro.predictors import registry

    _import_family_modules(config)
    known = set(registry.family_names())
    for grid in config.grids:
        unknown = [family for family in grid.families if family not in known]
        if unknown:
            raise ConfigurationError(
                f"config {config.path}: unregistered predictor families "
                f"{unknown} (registered: {sorted(known)})"
            )


def validate_inference(configs: list[TargetConfig]) -> None:
    """Check the inference graph: every inferred config names loaded bases
    and declares only cells those bases' grids cover."""
    by_name = {config.name: config for config in configs}
    for config in configs:
        if config.mode != "inferred":
            continue
        covered: set[tuple] = set()
        for base_name in config.based_on:
            base = by_name.get(base_name)
            if base is None:
                raise ConfigurationError(
                    f"config {config.path}: inferred target {config.name!r} is "
                    f"based on {base_name!r}, which is not among the loaded configs"
                )
            if base.mode == "inferred":
                raise ConfigurationError(
                    f"config {config.path}: base {base_name!r} is itself inferred "
                    f"(inference is one level deep; base on its bases instead)"
                )
            covered.update(base.cell_set())
        uncovered = config.cell_set() - covered
        if uncovered:
            sample = sorted(uncovered)[:3]
            raise ConfigurationError(
                f"config {config.path}: {len(uncovered)} cell(s) of inferred "
                f"target {config.name!r} are not covered by its bases "
                f"{list(config.based_on)} (e.g. {sample})"
            )


# -- dry-run classification ----------------------------------------------------


def _import_family_modules(config: TargetConfig) -> None:
    for module in config.family_modules:
        importlib.import_module(module)


def grid_cfg(
    kind: str,
    instructions: int | None = None,
    engine: str | None = None,
    machine=None,
) -> dict:
    """The per-kind sweep configuration every route executes a grid's
    cells under (and a campaign pins): trace length and engine for
    accuracy grids, trace length and machine for IPC grids.  Arguments
    left None resolve from the environment, so a config target's cell
    keys match the sweeps' exactly."""
    from repro.harness.experiment import default_engine
    from repro.harness.scale import (
        WARMUP_FRACTION,
        accuracy_instructions,
        ipc_instructions,
    )
    from repro.uarch.config import PAPER_MACHINE

    if kind == "accuracy":
        return {
            "instructions": instructions or accuracy_instructions(),
            "engine": engine or default_engine(),
            "warmup_fraction": WARMUP_FRACTION,
        }
    return {
        "instructions": instructions or ipc_instructions(),
        "machine": asdict(machine or PAPER_MACHINE),
    }


def grid_shards(grid: GridSpec) -> Iterator:
    """Every grid cell as a :class:`~repro.harness.parallel.Shard`, in the
    canonical order (benchmark, family, budget[, mode]) every sweep route
    executes and merges in."""
    from repro.harness.parallel import Shard

    if grid.kind == "accuracy":
        for benchmark, family, budget in grid.cells():
            yield Shard("accuracy", benchmark, family, budget)
    else:
        for benchmark, family, budget, mode in grid.cells():
            yield Shard("ipc", benchmark, family, budget, mode)


def classify(config: TargetConfig, store, run_dir: str | None = None) -> dict:
    """Dry-run classification of one target through the campaign scanner.

    Non-mutating (store probes only).  Without ``run_dir`` the result
    store is the only evidence, so cells classify as ``completed`` (hit)
    or ``missing``; with one, checkpoints, failure markers, and claims
    classify into all five campaign classes.  ``hit``/``miss`` summarize
    the counts either way: hit = recoverable without predictor work
    (completed + results_missing), miss = everything that must execute.
    """
    from repro.harness.campaign import CLASSES, CampaignLayout, classify_shard

    _import_family_modules(config)
    layout = CampaignLayout(run_dir) if run_dir else None
    counts = dict.fromkeys(CLASSES, 0)
    for grid in config.grids:
        cfg = grid_cfg(grid.kind)
        for shard in grid_shards(grid):
            counts[
                classify_shard(shard, layout=layout, result_store=store, cfg=cfg)
            ] += 1
    return {
        "target": config.name,
        "mode": config.mode,
        "inferred": config.mode == "inferred",
        "based_on": list(config.based_on),
        "cells": sum(counts.values()),
        "counts": counts,
        "hit": counts["completed"] + counts["results_missing"],
        "miss": counts["failed"] + counts["partial"] + counts["missing"],
    }


# -- execution -----------------------------------------------------------------


def figure_panels(
    config: TargetConfig,
    budgets: list[int] | None = None,
    instructions: int | None = None,
) -> list:
    """Sweep a sweep/inferred config's grid and build its figure panel(s).

    One sweep call per IPC mode (one for an accuracy grid), each under a
    ``<target>.sweep`` span.  Resolution goes through the ordinary sweeps,
    so the result store (when active) supplies every already-computed cell;
    with the declared grid warm, rendering performs zero predictor work.

    ``budgets`` thins the budget ladder (it must be a subset of the
    config's) and ``instructions`` overrides the scaled trace length — for
    callers, such as the benchmark suite, that pin a reduced grid.
    """
    from repro import obs
    from repro.harness.figures import PerBenchmarkFigure, SeriesFigure
    from repro.harness.sweep import (
        accuracy_sweep,
        hmean_ipc_by_family_budget,
        ipc_sweep,
        mean_by_family_budget,
    )

    _import_family_modules(config)
    grid = config.grids[0]
    if budgets is None:
        budgets = list(grid.budgets)
    elif not set(budgets) <= set(grid.budgets):
        raise ConfigurationError(
            f"config {config.path}: budgets {sorted(set(budgets) - set(grid.budgets))} "
            f"are not on the declared ladder {list(grid.budgets)}"
        )
    families = list(grid.families)
    benchmarks = grid.resolved_benchmarks()
    accuracy = grid.kind == "accuracy"
    modes = [None] if accuracy else list(grid.modes)
    panel_per_mode = isinstance(config.title, tuple)
    panels: list = []
    for index, mode in enumerate(modes):
        if accuracy:
            with obs.span(f"{config.name}.sweep", budgets=len(budgets)):
                cells = accuracy_sweep(
                    families, budgets, benchmarks=benchmarks, instructions=instructions
                )
            means = mean_by_family_budget(cells)
        else:
            with obs.span(f"{config.name}.sweep", mode=mode, budgets=len(budgets)):
                cells = ipc_sweep(
                    families, budgets, mode=mode, benchmarks=benchmarks,
                    instructions=instructions,
                )
            means = hmean_ipc_by_family_budget(cells)
        if config.renderer == "per_benchmark":
            figure = PerBenchmarkFigure(
                title=config.title,
                benchmarks=benchmarks,
                mean_label="arith.mean" if accuracy else "harm.mean",
            )
            for cell in cells:
                figure.series.setdefault(cell.family, {})[cell.benchmark] = (
                    cell.misprediction_percent if accuracy else cell.ipc
                )
            figure.means = {family: value for (family, _), value in means.items()}
            panels.append(figure)
            continue
        if panel_per_mode or not panels:
            title = config.title[index] if panel_per_mode else config.title
            panels.append(SeriesFigure(title=title, x_values=budgets))
        suffix = "" if panel_per_mode or len(modes) == 1 else f" {MODE_SUFFIXES[mode]}"
        for (family, budget), value in means.items():
            panels[-1].series.setdefault(family + suffix, {})[budget] = value
    return panels


def run_target(config: TargetConfig) -> str:
    """Regenerate one config target; returns the rendered text (panels
    separated by a blank line)."""
    if config.mode == "runner":
        from repro.harness.figures import RUNNERS

        return RUNNERS[config.name]()
    return "\n\n".join(panel.render() for panel in figure_panels(config))
