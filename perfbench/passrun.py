"""One benchmark child process: set-up, measured passes, then checks.

Run as ``python3 perfbench/passrun.py SPEC.json`` with ``PYTHONPATH`` naming
the checkout's ``src``; ``run.py`` writes the spec and reads the
result file it names.  Each child is a fresh interpreter, so a cold pass
pays no in-process cache and peak RSS belongs to this pass alone.

Modes:

* ``prepare`` — untimed: import the whole entry point (compiling bytecode),
  and pre-fill the trace store when the spec asks for it;
* ``pass`` — one cold pass of the CLI from the stores' starting state,
  then warm passes over the stores it filled.  Interleaving cold and warm
  passes across the run keeps either kind from landing in one slow stretch
  of a shared host.

Every mode first times set-up: importing ``repro.harness.cli`` and resolving
the configuration (figure configs plus ``scale.resolved_config()``).

A ``pass`` child runs pinned to as many CPUs as the pass uses (one, or
``--jobs``).  From before set-up until the cold pass ends, a calibration
sidecar on each of those CPUs wakes every ``CALIBRATION_PERIOD_S`` and
times a fixed calibration loop (a gshare-like counter-table update in pure
Python, about a millisecond).  Its samples show how fast that CPU ran while
the pass ran on it, so ``run.py`` can scale set-up and cold-pass wall time
to a fixed host speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import resource
import sys
import time

#: A sidecar takes one calibration sample of CALIBRATION_ROUNDS loop rounds
#: (about 1 ms) every CALIBRATION_PERIOD_S, so it costs the pass about 1% of
#: its CPU.
CALIBRATION_PERIOD_S = 0.1
CALIBRATION_ROUNDS = 3_000


def run_cli(cli_main, argv: list[str]) -> tuple[str, str | None]:
    """(captured stdout, error or None) of one CLI invocation."""
    buf = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        if code:
            error = f"exit status {code}"
    except (Exception, SystemExit) as exc:  # argparse errors exit
        error = f"{type(exc).__name__}: {exc}"
    return buf.getvalue(), error


def calibration_loop(rounds: int) -> int:
    """A fixed amount of interpreter work shaped like a predictor's inner
    loop: hash a PC with global history, step a 2-bit counter, shift."""
    table = [1] * 4096
    history = 0
    for i in range(rounds):
        index = ((i * 40503) ^ history) & 4095
        taken = (i * 7 >> 2) & 1
        counter = table[index]
        if taken:
            if counter < 3:
                table[index] = counter + 1
        elif counter:
            table[index] = counter - 1
        history = ((history << 1) | taken) & 4095
    return sum(table)


def _sidecar(cpu: int, conn, parent: int) -> None:
    """Sample the calibration loop on ``cpu`` until told to stop, then send
    back the samples' wall seconds.  Ends on its own if ``parent`` dies."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not conn.poll(CALIBRATION_PERIOD_S):
        if os.getppid() != parent:
            return
        started = time.perf_counter()
        calibration_loop(CALIBRATION_ROUNDS)
        samples.append(time.perf_counter() - started)
    conn.send(samples)


class Calibration:
    """Pin this process to ``jobs`` of its CPUs and run one sidecar on each."""

    def __init__(self, jobs: int) -> None:
        cpus = sorted(os.sched_getaffinity(0))[:jobs]
        os.sched_setaffinity(0, cpus)
        context = multiprocessing.get_context("fork")
        self.sidecars = []
        for cpu in cpus:
            conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_sidecar, args=(cpu, child_conn, os.getpid()), daemon=True
            )
            proc.start()
            self.sidecars.append((proc, conn))

    def stop(self) -> list[float]:
        """Stop every sidecar, wait for it to end, and return all samples."""
        samples = []
        for proc, conn in self.sidecars:
            try:
                conn.send(None)
                samples += conn.recv()
            except (EOFError, OSError):
                pass
            proc.join(5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.sidecars = []
        return samples


def collect_cells(configs) -> dict:
    """Every cell of the configs' grids, read back through the public sweeps
    (jobs=1, so reads never fork); keys from ``spec.cell_id``."""
    from repro.harness.sweep import accuracy_sweep, ipc_sweep
    from spec import cell_id

    cells = {}
    for config in configs:
        for grid in config.grids:
            families, budgets = list(grid.families), list(grid.budgets)
            if grid.kind == "accuracy":
                for cell in accuracy_sweep(families, budgets, jobs=1):
                    key = cell_id(cell.benchmark, cell.family, cell.budget_bytes)
                    cells[key] = cell.misprediction_percent
                continue
            for mode in grid.modes:
                for cell in ipc_sweep(families, budgets, mode=mode, jobs=1):
                    key = cell_id(cell.benchmark, cell.family, cell.budget_bytes, mode)
                    cells[key] = [cell.ipc, cell.misprediction_percent, cell.override_rate]
    return cells


def _verify(configs, reference_cells: dict) -> dict:
    """Compare the stored cells with the reference.  A cell the pass did not
    store is recomputed here and counted as missing."""
    from repro.harness.resultstore import result_store_stats

    misses = result_store_stats()["misses"]
    cells = collect_cells(configs)
    return {
        "cells": len(cells),
        "missing": result_store_stats()["misses"] - misses,
        "mismatched": sorted(
            key for key, value in cells.items() if reference_cells.get(key) != value
        ),
        "unexpected": sorted(set(reference_cells) - set(cells)),
    }


def _measured_pass(cli_main, spec: dict, ledger) -> dict:
    """One timed CLI pass: wall time, stdout digest, error, traced ledger."""
    before = ledger.snapshot() if ledger else None
    started = time.perf_counter()
    text, error = run_cli(cli_main, spec["argv"])
    entry = {
        "wall_s": time.perf_counter() - started,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "error": error,
    }
    if ledger:
        entry["ledger"] = ledger.delta(before, ledger.snapshot())
        if spec.get("worker_dir"):
            entry["workers"], entry["worker_procs"] = ledger.merge_worker_ledgers(
                spec["worker_dir"]
            )
    return entry


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    calibration = Calibration(spec["jobs"]) if spec["mode"] == "pass" else None
    try:
        _run(spec, calibration)
    finally:
        if calibration:
            calibration.stop()


def _run(spec: dict, calibration: "Calibration | None") -> None:
    started = time.perf_counter()
    from repro.harness import figconfig, scale
    from repro.harness.cli import main as cli_main

    configs = figconfig.load_configs(spec["configs"])
    scale.resolved_config()
    result = {"setup_s": time.perf_counter() - started}

    if spec["mode"] == "prepare":
        import repro.batch  # noqa: F401  (compiled and cached like the rest)

        if spec.get("prefill_store"):
            argv = ["--warm-traces", "--trace-store", spec["prefill_store"]]
            result["error"] = run_cli(cli_main, argv)[1]
        _write(spec["out"], result)
        return

    ledger = None
    if spec["trace"]:
        import ledger

        ledger.install(worker_dir=spec.get("worker_dir"))
    # One cold pass, then warm passes over the stores it filled for
    # ``warm_ratio`` times the cold pass's wall time (at least
    # ``min_warm`` of them).
    cold = _measured_pass(cli_main, spec, ledger)
    result["calibration_s"] = calibration.stop()
    result["cold"] = cold
    result["warm"] = []
    if not cold["error"]:
        deadline = time.perf_counter() + spec["warm_ratio"] * cold["wall_s"]
        while len(result["warm"]) < spec["min_warm"] or time.perf_counter() < deadline:
            entry = _measured_pass(cli_main, spec, ledger)
            result["warm"].append(entry)
            if entry["error"]:
                break
    result["peak_rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if not any(entry["error"] for entry in [cold, *result["warm"]]):
        result["verify"] = _verify(configs, spec["reference_cells"])
    _write(spec["out"], result)


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
