"""Fast self-check of the benchmark at its smallest size.

Usage (from the root of a checkout)::

    python3 perfbench/selfcheck.py

1. Runs every workload for one second, untraced and traced, and checks
   that the result line names exactly the metrics ``BENCHMARK.json``
   declares, each with its declared unit, and that no cell failed.  It
   prints every end-to-end metric of every workload by name and unit.
2. Runs the ``accuracy`` workload against two deliberately corrupted
   copies of the reference (one cell's statistic; the figure-output
   digest) and checks that each is counted as a failure.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

from spec import REFERENCE_PATH, WORKLOADS, load_reference, subset_for

SEED = 0


def bench(root: str, workload: str, trace: int, reference: str = REFERENCE_PATH) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace), "--reference", reference,
        ],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    problems = []
    rows = []
    for workload in sorted(WORKLOADS):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = bench(root, workload, trace)
            want = {m["name"]: m["unit"] for m in declared[group]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                problems.append(
                    f"{workload} --trace {trace}: metrics/units differ from BENCHMARK.json: "
                    f"missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}, "
                    f"wrong unit {sorted(n for n in want if n in got and got[n] != want[n])}"
                )
            if not result["correct"] or result["failed"]:
                problems.append(
                    f"{workload} --trace {trace}: {result['failed']} of "
                    f"{result['attempted']} cells failed"
                )
            if trace == 0:
                rows += [
                    f"{workload:16s} {name:14s} {m['value']:12.4f} {m['unit']}"
                    for name, m in result["metrics"].items()
                ]
    print("end-to-end metrics at --seconds 1 (seed 0):")
    print("\n".join(rows))

    reference = load_reference()
    profiles = subset_for("accuracy", SEED)
    subset = ",".join(profiles)
    cell = min(
        key for key in reference["kinds"]["accuracy"]["cells"]
        if key.startswith(profiles[0] + "/")
    )
    work = os.path.join(root, ".bench_work", f"selfcheck-{os.getpid()}")
    os.makedirs(work)
    try:
        for what in ("cell", "output"):
            broken = copy.deepcopy(reference)
            kind = broken["kinds"]["accuracy"]
            if what == "cell":
                kind["cells"][cell] += 1.0
            else:
                kind["outputs"][subset] = "0" * 64
            path = os.path.join(work, f"reference-{what}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(broken, f)
            result = bench(root, "accuracy", 0, reference=path)
            caught = not result["correct"] and result["failed"] > 0
            print(
                f"corrupted reference ({what}): {result['failed']} of "
                f"{result['attempted']} cells failed -> {'caught' if caught else 'MISSED'}"
            )
            if not caught:
                problems.append(f"a corrupted reference {what} was not counted as a failure")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    for problem in problems:
        print(f"FAIL: {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
