"""Figure-regeneration benchmark: cold and warm regeneration of the paper's
accuracy and IPC figures through ``repro-figures --config``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload accuracy --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run whose per-layer ledger comes from wrappers around each
layer's public functions (``ledger.py``).  The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (sweep cells)
and ``metrics``.  ``--reference PATH`` checks against another reference
file (the self-check uses it to prove a corrupted digest is caught).

Each measured pass runs in a fresh interpreter (``passrun.py``); stores live
under ``.bench_work/`` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spec import (
    BENCH_DIR,
    KINDS,
    REFERENCE_PATH,
    WORKLOADS,
    config_paths,
    load_reference,
    subset_for,
)

#: A run must exit within 180 s; children are cut at this deadline.
HARD_LIMIT_S = 170.0
#: In traced runs (which report ``warm_s``) each child follows its cold pass
#: with warm passes for this multiple of the cold pass's wall time, and at
#: least MIN_WARM_PASSES of them.  Untraced runs make CHECK_WARM_PASSES warm
#: passes per child, enough for the warm-equals-cold check, so more of the
#: window goes to cold passes.
WARM_RATIO = 0.3
MIN_WARM_PASSES = 6
CHECK_WARM_PASSES = 2
#: Mean seconds of one calibration sample (``passrun.calibration_loop``)
#: on the reference host (2-vCPU x86-64, Python 3.11).  A shared host's
#: speed drifts by tens of percent within seconds; each child's calibration
#: sidecars sample its CPUs' speed throughout set-up and the cold pass.
#: ``cold_s`` and ``setup_s`` scale each child's wall times by this over the
#: mean of its samples, then take the median over children: seconds on a
#: host running at the reference speed.
CALIBRATION_REFERENCE_S = 0.0012

#: Layers whose traced cold pass must record calls, per grid kind.
EXPECTED_COLD = {
    "accuracy": [
        "workloads.generate", "workloads.store.load", "workloads.store.save",
        "predictors.perceptron.scalar", "predictors.multicomponent.scalar",
        "predictors.2bcgskew.scalar", "batch.gshare", "batch.bimode",
        "batch.gshare_fast", "predictors.build", "harness.resultstore.key",
        "harness.resultstore.load", "harness.resultstore.save",
    ],
    "ipc": [
        "workloads.store.load", "predictors.build", "uarch.setup", "uarch.run",
        "uarch.cache", "uarch.policy", "uarch.btb", "harness.resultstore.key",
        "harness.resultstore.load", "harness.resultstore.save",
    ],
}
EXPECTED_WARM = ["harness.resultstore.key", "harness.resultstore.load"]

SCALAR_FAMILIES = ["perceptron", "multicomponent", "2bcgskew"]
BATCH_FAMILIES = ["gshare", "bimode", "gshare_fast"]


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


class Run:
    """One benchmark run: a workload, a seed, a measured window."""

    def __init__(self, root: str, args) -> None:
        self.root = root
        self.args = args
        self.started = time.perf_counter()
        self.workload = WORKLOADS[args.workload]
        self.kind = self.workload["kind"]
        self.subset = subset_for(self.kind, args.seed)
        self.work = os.path.join(
            root, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}"
        )
        reference = load_reference(args.reference)["kinds"][self.kind]
        for key in ("scale", "configs", "tiers"):
            if reference[key] != KINDS[self.kind][key]:
                raise BenchError(
                    f"reference {args.reference} was made for another {key} of "
                    f"{self.kind!r}; regenerate it with perfbench/reference.py"
                )
        self.ref_cells = {
            key: value
            for key, value in reference["cells"].items()
            if key.split("/")[0] in self.subset
        }
        self.ref_output = reference["outputs"][",".join(self.subset)]
        self.ref_digest = hashlib.sha256(
            json.dumps(
                {"output": self.ref_output, "cells": self.ref_cells}, sort_keys=True
            ).encode("utf-8")
        ).hexdigest()
        self.prefilled = (
            os.path.join(self.work, "prefilled-traces")
            if self.workload["prefill_traces"]
            else None
        )
        self.children: list[dict] = []
        self.seq = 0

    # -- children ---------------------------------------------------------

    def _env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=os.path.join(self.root, "src"),
            REPRO_SCALE=KINDS[self.kind]["scale"],
            REPRO_BENCHMARKS=",".join(self.subset),
            TMPDIR=self.work,
        )
        return env

    def child(self, spec: dict, label: str) -> dict:
        """Run ``passrun.py`` on ``spec`` in its own directory; returns its
        result (with ``label`` and the parent-side wall time) or an error."""
        self.seq += 1
        cwd = os.path.join(self.work, f"{self.seq:02d}-{label}")
        os.makedirs(cwd)
        spec = dict(spec, out=os.path.join(cwd, "result.json"))
        spec_path = os.path.join(cwd, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(spec, f)
        log_path = os.path.join(cwd, "child.log")
        timeout = max(HARD_LIMIT_S - (time.perf_counter() - self.started), 1.0)
        started = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            # A session of its own, so a child cut at the deadline is killed
            # with its calibration sidecars and sweep workers.
            proc = subprocess.Popen(
                [sys.executable, os.path.join(BENCH_DIR, "passrun.py"), spec_path],
                cwd=cwd, env=self._env(), stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                code = "timeout"
        result = {"error": f"child {label} ended with {code}"}
        if code == 0 and os.path.exists(spec["out"]):
            with open(spec["out"], encoding="utf-8") as f:
                result = json.load(f)
        else:
            with open(log_path, encoding="utf-8") as f:
                sys.stderr.write(f.read()[-2000:])
        result.update(label=label, child_s=time.perf_counter() - started)
        self.children.append(result)
        return result

    def pass_spec(self, stores: str, flavour: str) -> dict:
        """Spec of one measured child: a cold pass on empty ``stores`` (the
        trace store pre-filled for workloads that ask), then warm passes."""
        argv = []
        for path in config_paths(self.root, self.kind):
            argv += ["--config", path]
        argv += [
            "--trace-store", self.prefilled or os.path.join(stores, "traces"),
            "--result-store", os.path.join(stores, "results"),
            "--jobs", str(self.workload["jobs"]),
        ]
        if flavour == "profiled":
            argv.append("--profile")
        # --profile children make the cold pass only.
        if flavour == "profiled":
            warm_ratio, min_warm = 0.0, 0
        elif self.args.trace:
            warm_ratio, min_warm = WARM_RATIO, MIN_WARM_PASSES
        else:
            warm_ratio, min_warm = 0.0, CHECK_WARM_PASSES
        spec = {
            "mode": "pass",
            "configs": config_paths(self.root, self.kind),
            "argv": argv,
            "jobs": self.workload["jobs"],
            "trace": flavour == "traced",
            "warm_ratio": warm_ratio,
            "min_warm": min_warm,
            "reference_cells": self.ref_cells,
        }
        if flavour == "traced" and self.workload["jobs"] > 1:
            spec["worker_dir"] = os.path.join(stores, "worker-ledgers")
            os.makedirs(spec["worker_dir"])
        return spec

    # -- phases -----------------------------------------------------------

    def measure(self) -> None:
        prep = {
            "mode": "prepare",
            "configs": config_paths(self.root, self.kind),
            "prefill_store": self.prefilled,
        }
        error = self.child(prep, "prepare").get("error")
        if error:
            raise BenchError(f"preparation failed: {error}")
        window_end = time.perf_counter() + self.args.seconds
        # Traced runs rotate traced, untraced and --profile children so the
        # trace and profile overheads come from the same run.
        rotation = ["traced", "untraced", "profiled"] if self.args.trace else ["untraced"]
        durations: list[float] = []
        while True:
            flavour = rotation[len(durations) % len(rotation)]
            stores = os.path.join(self.work, f"stores-{len(durations)}")
            os.makedirs(stores)
            durations.append(self.child(self.pass_spec(stores, flavour), flavour)["child_s"])
            left = window_end - time.perf_counter()
            if len(durations) >= len(rotation) and statistics.median(durations) > left:
                break

    # -- results ----------------------------------------------------------

    def measured(self) -> list[dict]:
        return [c for c in self.children if c["label"] != "prepare"]

    def tally(self) -> tuple[int, int]:
        """(attempted, failed) sweep cells over every measured pass.  A pass
        fails all its cells when it raises or its output differs from the
        reference; otherwise its cells fail where the stored statistics do."""
        per_pass = len(self.ref_cells)
        attempted = failed = 0
        for c in self.measured():
            if "cold" not in c:
                attempted += per_pass
                failed += per_pass
                continue
            verify = c.get("verify")
            bad = per_pass
            if verify is not None:
                bad = min(
                    per_pass,
                    len(verify["mismatched"]) + len(verify["unexpected"]) + verify["missing"],
                )
            for entry in [c["cold"], *c["warm"]]:
                attempted += per_pass
                # --profile appends metrics tables to the figure text.
                text_ok = c["label"] == "profiled" or entry["digest"] == self.ref_output
                failed += per_pass if entry["error"] or not text_ok else bad
        return attempted, failed

    def passes(self, flavour: str, phase: str) -> list[dict]:
        """Successful ``phase`` ("cold"/"warm") passes of ``flavour`` children."""
        entries = []
        for c in self.measured():
            if c["label"] == flavour and "cold" in c:
                entries += [c["cold"]] if phase == "cold" else c["warm"]
        return [entry for entry in entries if not entry["error"]]

    def walls(self, flavour: str, phase: str) -> list[float]:
        return [entry["wall_s"] for entry in self.passes(flavour, phase)]

    def scaled(self, key: str) -> list[float]:
        """Each untraced child's ``key`` ("setup" or "cold") wall seconds at
        the reference host speed, for children whose cold pass succeeded."""
        values = []
        for c in self.measured():
            if c["label"] == "untraced" and "cold" in c and not c["cold"]["error"]:
                wall = c["setup_s"] if key == "setup" else c["cold"]["wall_s"]
                values.append(wall * CALIBRATION_REFERENCE_S / _mean(c["calibration_s"]))
        return values

    def calibration(self) -> float:
        """Median over untraced children of the mean calibration sample."""
        return statistics.median(
            _mean(c["calibration_s"])
            for c in self.measured()
            if c["label"] == "untraced" and "cold" in c
        )

    def end_to_end(self) -> dict:
        cold = self.scaled("cold")
        if not cold:
            raise BenchError("no successful cold pass to time")
        print(
            f"{len(cold)} cold passes: median wall "
            f"{statistics.median(self.walls('untraced', 'cold')):.4f} s, "
            f"median calibration {self.calibration():.6f} s"
        )
        return {
            "cold_s": statistics.median(cold),
            "setup_s": statistics.median(self.scaled("setup")),
            "peak_rss_mb": max(c.get("peak_rss_kb", 0) for c in self.measured()) / 1024.0,
        }

    def median_pass(self, phase: str) -> dict:
        entries = sorted(self.passes("traced", phase), key=lambda entry: entry["wall_s"])
        if not entries:
            raise BenchError(f"no successful traced {phase} pass")
        return entries[(len(entries) - 1) // 2]

    def pass_layers(self, entry: dict, expected: list[str], phase: str) -> tuple[dict, float]:
        """(layer -> [calls, s, work], outermost-layer seconds per worker) of
        a traced pass, workers merged; checks every expected layer ran."""
        layers = {name: list(rec) for name, rec in entry["ledger"]["layers"].items()}
        outer = entry["ledger"]["outer_s"]
        if entry.get("worker_procs"):
            # Worker-side times, summed over workers, spread over the pool.
            for name, rec in entry["workers"]["layers"].items():
                total = layers.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    total[i] += rec[i]
            outer += entry["workers"]["outer_s"] / self.workload["jobs"]
        missing = [name for name in expected if not layers.get(name, [0])[0]]
        if missing:
            raise BenchError(
                f"traced {phase} pass recorded zero calls for {', '.join(missing)}: "
                "a wrapper no longer sits where the program resolves that layer"
            )
        return layers, outer

    def per_layer(self, attempted: int, failed: int) -> dict:
        cold = self.median_pass("cold")
        warm = self.median_pass("warm")
        cells = len(self.ref_cells)
        layers, outer = self.pass_layers(cold, EXPECTED_COLD[self.kind], "cold")
        warm_layers, warm_outer = self.pass_layers(warm, EXPECTED_WARM, "warm")

        def rec(name, source=layers):
            return source.get(name, [0, 0.0, 0.0])

        def rate(work, seconds):
            return work / seconds if seconds else 0.0

        m = {}
        gen = rec("workloads.generate")
        m.update({
            "workloads.generate.calls": gen[0],
            "workloads.generate.s": gen[1],
            "workloads.generate.minstr": gen[2] / 1e6,
            "workloads.generate.minstr_per_s": rate(gen[2] / 1e6, gen[1]),
        })
        load, save = rec("workloads.store.load"), rec("workloads.store.save")
        m.update({
            "workloads.store.load.calls": load[0],
            "workloads.store.load.s": load[1],
            "workloads.store.load.minstr": load[2] / 1e6,
            "workloads.store.load.minstr_per_s": rate(load[2] / 1e6, load[1]),
            "workloads.store.save.calls": save[0],
            "workloads.store.save.s": save[1],
        })
        for prefix in [f"predictors.{f}.scalar" for f in SCALAR_FAMILIES] + [
            f"batch.{f}" for f in BATCH_FAMILIES
        ]:
            r = rec(prefix)
            m[f"{prefix}.cells"] = r[0]
            m[f"{prefix}.s"] = r[1]
            m[f"{prefix}.kbr"] = r[2] / 1e3
            m[f"{prefix}.kbr_per_s"] = rate(r[2] / 1e3, r[1])
        build = rec("predictors.build")
        m.update({"predictors.build.calls": build[0], "predictors.build.s": build[1]})
        run = rec("uarch.run")
        sub = {name: rec(f"uarch.{name}")[1] for name in ("cache", "policy", "btb")}
        m.update({
            "uarch.setup.s": rec("uarch.setup")[1],
            "uarch.run.cells": run[0],
            "uarch.run.s": run[1],
            "uarch.run.kinstr": run[2] / 1e3,
            "uarch.run.kinstr_per_s": rate(run[2] / 1e3, run[1]),
            "uarch.cache.s": sub["cache"],
            "uarch.policy.s": sub["policy"],
            "uarch.btb.s": sub["btb"],
            "uarch.self_s": run[1] - sum(sub.values()),
        })
        for prefix, source, wall, outer_s in (
            ("", layers, cold["wall_s"], outer),
            ("warm.", warm_layers, warm["wall_s"], warm_outer),
        ):
            probe = rec("harness.resultstore.load", source)
            overhead = wall - outer_s
            m.update({
                f"{prefix}harness.resultstore.key.s": rec("harness.resultstore.key", source)[1],
                f"{prefix}harness.resultstore.load.s": probe[1],
                f"{prefix}harness.resultstore.save.s": rec("harness.resultstore.save", source)[1],
                f"{prefix}harness.resultstore.hits": probe[2],
                f"{prefix}harness.resultstore.misses": probe[0] - probe[2],
                f"{prefix}harness.resultstore.hit_ratio": rate(probe[2], probe[0]),
                f"{prefix}harness.overhead_s": overhead,
                f"{prefix}harness.overhead_us_per_cell": overhead / cells * 1e6,
            })
        untraced, profiled = self.walls("untraced", "cold"), self.walls("profiled", "cold")
        untraced_warm = self.walls("untraced", "warm")
        if not untraced or not profiled or not untraced_warm:
            raise BenchError("no successful untraced or --profile pass to compare")
        untraced_s = statistics.median(untraced)
        m.update({
            "warm_s": statistics.median(untraced_warm),
            "harness.cells": cells,
            "harness.cells_failed_frac": failed / attempted,
            "bench.traced_cold_s": cold["wall_s"],
            "bench.traced_warm_s": warm["wall_s"],
            "bench.cold_wall_s": untraced_s,
            "bench.calibration_s": self.calibration(),
            "bench.trace_overhead_frac": (
                statistics.median(self.walls("traced", "cold")) / untraced_s - 1.0
            ),
            "obs.profile_overhead_frac": statistics.median(profiled) / untraced_s - 1.0,
        })
        self.print_ledger(layers, cold["wall_s"], outer, "cold")
        self.print_ledger(warm_layers, warm["wall_s"], warm_outer, "warm")
        print(
            "ledger rows (traced cold pass): "
            f"generation {m['workloads.generate.minstr_per_s']:.3f} M instr/s "
            f"over {m['workloads.generate.minstr']:.3f} M instr; "
            + "; ".join(
                f"scalar {f} {m[f'predictors.{f}.scalar.kbr_per_s']:.1f} k br/s "
                f"over {m[f'predictors.{f}.scalar.kbr']:.1f} k br"
                for f in SCALAR_FAMILIES
            )
            + "; "
            + "; ".join(
                f"batch {f} {m[f'batch.{f}.kbr_per_s']:.1f} k br/s "
                f"over {m[f'batch.{f}.kbr']:.1f} k br"
                for f in ("gshare", "bimode")
            )
            + f"; CycleSimulator {m['uarch.run.kinstr_per_s']:.1f} k instr/s "
            f"over {m['uarch.run.kinstr']:.1f} k instr"
        )
        return m

    def print_ledger(self, layers: dict, wall: float, outer: float, phase: str) -> None:
        jobs = self.workload["jobs"]
        summed = f"; layer seconds summed over {jobs} workers" if jobs > 1 else ""
        print(f"{phase} pass (traced): {wall:.3f} s wall{summed}")
        for name in sorted(layers):
            calls, seconds, _ = layers[name]
            print(f"  {name:36s} {calls:8d} calls {seconds:9.4f} s {100 * seconds / wall:6.1f}%")
        label = "harness.overhead (wall - outer layers" + (f" / {jobs})" if jobs > 1 else ")")
        print(f"  {label:36s} {'':14s} {wall - outer:9.4f} s")


def _mean(samples: list[float]) -> float:
    if not samples:
        raise BenchError("a child took no calibration samples")
    return statistics.fmean(samples)


def _check_checkout(root: str) -> None:
    missing = [
        path
        for path in ("src/repro/harness/cli.py", "configs", "BENCHMARK.json")
        if not os.path.exists(os.path.join(root, path))
    ]
    if missing:
        raise BenchError(
            f"not a checkout of the program: {', '.join(missing)} missing under {root}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=REFERENCE_PATH)
    args = parser.parse_args(argv)
    root = os.getcwd()
    run = None
    try:
        _check_checkout(root)
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            declared = json.load(f)
        run = Run(root, args)
        print(
            f"workload {args.workload} seed {args.seed}: profiles {','.join(run.subset)} "
            f"at REPRO_SCALE={KINDS[run.kind]['scale']}, jobs {run.workload['jobs']}; "
            f"reference digest {run.ref_digest[:16]}"
        )
        run.measure()
        attempted, failed = run.tally()
        if args.trace:
            values = run.per_layer(attempted, failed)
            wanted = declared["per_layer"]
        else:
            values = run.end_to_end()
            wanted = declared["end_to_end"]
        metrics = {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
        }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if run is not None:
            shutil.rmtree(run.work, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(run.work))
            except OSError:
                pass
    for c in run.measured():
        if "cold" not in c:
            print(f"  {c['label']:9s} {c.get('error')}")
            continue
        warm = [e["wall_s"] for e in c["warm"]]
        print(
            f"  {c['label']:9s} setup {c['setup_s']:.3f} s, cold {c['cold']['wall_s']:.3f} s "
            f"(calibration {_mean(c['calibration_s']):.6f} s), "
            f"{len(warm)} warm (median {statistics.median(warm) if warm else 0:.4f} s)"
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
