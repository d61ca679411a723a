"""Workload definitions shared by the benchmark's runner, pass runner and
reference generator.

A workload's only input is a subset of the twelve SPEC CPU2000 stand-in
profiles, drawn from the seed.  The draw is stratified: the profiles are
ranked by their measured cold-pass cost at the workload's scale and split
into equal tiers, and the seed picks one profile per tier.  Every subset
therefore carries about the same amount of work, so seed-to-seed spread
measures the program rather than the luck of the draw.
"""

from __future__ import annotations

import json
import os
import random

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

#: Grid kinds.  A kind fixes the trace scale, the figure configs and the
#: tiers; workloads of one kind share the committed reference.
KINDS = {
    "accuracy": {
        "scale": "0.03",
        "configs": ["figure1", "figure5", "figure6"],
        # Cheapest tier first; ranked by median cold-pass seconds of the
        # accuracy grid per profile (2-core x86-64, Python 3.11).
        "tiers": [
            ["gzip", "crafty", "vortex", "eon"],
            ["parser", "mcf", "perlbmk", "twolf"],
            ["vpr", "gap", "bzip2", "gcc"],
        ],
    },
    "ipc": {
        "scale": "0.025",
        "configs": ["figure7", "figure2", "figure8"],
        # Ranked by median cold-pass seconds of the Figure 7 grid per
        # profile, trace store pre-filled (same host).
        "tiers": [
            ["gap", "crafty", "parser", "twolf", "eon", "gcc"],
            ["perlbmk", "vpr", "mcf", "vortex", "bzip2", "gzip"],
        ],
    },
}

#: Benchmark workloads: grid kind, worker processes, and whether the trace
#: store is pre-filled (untimed) before the measured passes.
WORKLOADS = {
    "accuracy": {"kind": "accuracy", "jobs": 1, "prefill_traces": False},
    "ipc": {"kind": "ipc", "jobs": 1, "prefill_traces": True},
    "accuracy_2proc": {"kind": "accuracy", "jobs": 2, "prefill_traces": False},
}

#: The twelve profiles in the program's canonical order; a subset keeps it.
SPEC_ORDER = [
    "gzip", "vpr", "gcc", "mcf", "crafty", "parser",
    "eon", "perlbmk", "gap", "vortex", "bzip2", "twolf",
]


def subset_for(kind: str, seed: int) -> list[str]:
    """The seed's profile subset for grid ``kind``, in canonical order."""
    rng = random.Random(f"{kind}:{seed}")
    chosen = {rng.choice(tier) for tier in KINDS[kind]["tiers"]}
    return [name for name in SPEC_ORDER if name in chosen]


def all_subsets(kind: str) -> list[list[str]]:
    """Every subset :func:`subset_for` can draw for ``kind``."""
    subsets = [[]]
    for tier in KINDS[kind]["tiers"]:
        subsets = [chosen + [name] for chosen in subsets for name in tier]
    return [[name for name in SPEC_ORDER if name in chosen] for chosen in subsets]


def config_paths(root: str, kind: str) -> list[str]:
    """Absolute paths of the kind's figure configs inside checkout ``root``."""
    return [os.path.join(root, "configs", f"{name}.json") for name in KINDS[kind]["configs"]]


def cell_id(benchmark: str, family: str, budget: int, mode: str | None = None) -> str:
    """Reference key of one sweep cell."""
    parts = [benchmark, family, str(budget)] + ([mode] if mode else [])
    return "/".join(parts)


def load_reference(path: str = REFERENCE_PATH) -> dict:
    """The committed reference (cell statistics and output digests)."""
    with open(path, encoding="utf-8") as f:
        return json.load(f)
