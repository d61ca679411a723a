"""End-to-end check of the sweep executor, as CI runs it.

Drives the real ``repro-figures`` CLI four ways over one tiny figure:

1. serial baseline (``--jobs 1``);
2. parallel (``--jobs 2``) — output must be byte-identical to (1);
3. a crash: ``--jobs 2 --max-retries 0`` with ``REPRO_CAMPAIGN_ABORT_AFTER``
   set, so both worker processes die holding a claim after K cells; with
   no retry budget the run must exit non-zero, leaving exactly 2K cell
   checkpoints and the dead workers' claims behind;
4. ``--resume`` of (3), which must skip the checkpointed cells, steal the
   dead workers' claims at once (no stale-claim override: their owner
   processes are gone) and again produce byte-identical output.

Exit status 0 means every stage behaved; any mismatch or unexpected exit
code aborts with a diagnostic.  Pass ``--expect-speedup`` (CI does, on
multi-core runners) to additionally require the parallel run to beat the
serial run's wall time.

Usage::

    PYTHONPATH=src python scripts/parallel_resume_check.py [--expect-speedup]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Small but not trivial: figure1 over two benchmarks at 5% scale is a
#: 72-shard grid that finishes in a few seconds per run.
CHECK_ENV = {
    "REPRO_SCALE": "0.05",
    "REPRO_BENCHMARKS": "gcc,eon",
}
TARGET = "figure1"
ABORT_AFTER = 3
WORKERS = 2
#: Far below the default 600 s stale-claim timeout: a resume that had to
#: wait the dead workers' claims out fails instead of hanging.
RUN_TIMEOUT_S = 300


def run_cli(args: list[str], extra_env: dict[str, str] | None = None):
    """Run ``repro-figures`` with CHECK_ENV; returns CompletedProcess."""
    env = dict(os.environ, **CHECK_ENV)
    env.pop("REPRO_CAMPAIGN_STALE_SECONDS", None)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", TARGET, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )


def fail(message: str, proc=None) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    if proc is not None:
        print(f"--- exit {proc.returncode} stderr ---\n{proc.stderr}", file=sys.stderr)
    raise SystemExit(1)


def read_output(directory: Path) -> str:
    return (directory / f"{TARGET}.txt").read_text()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--expect-speedup",
        action="store_true",
        help="require the --jobs 2 run to beat the serial wall time "
        "(only meaningful on multi-core machines)",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="resume-check-") as tmp:
        tmp_path = Path(tmp)
        serial_dir, parallel_dir, resumed_dir = (
            tmp_path / "serial", tmp_path / "parallel", tmp_path / "resumed",
        )
        run_dir = tmp_path / "run"

        print(f"[1/4] serial {TARGET}")
        started = time.perf_counter()
        proc = run_cli(["--jobs", "1", "--output-dir", str(serial_dir)])
        serial_seconds = time.perf_counter() - started
        if proc.returncode != 0:
            fail("serial run failed", proc)

        print(f"[2/4] parallel --jobs {WORKERS}")
        started = time.perf_counter()
        proc = run_cli(["--jobs", str(WORKERS), "--output-dir", str(parallel_dir)])
        parallel_seconds = time.perf_counter() - started
        if proc.returncode != 0:
            fail("parallel run failed", proc)
        if read_output(parallel_dir) != read_output(serial_dir):
            fail("parallel output differs from serial output")
        print(
            f"      byte-identical ({serial_seconds:.1f}s serial, "
            f"{parallel_seconds:.1f}s parallel)"
        )

        print(f"[3/4] crash: every worker dies after {ABORT_AFTER} cells")
        proc = run_cli(
            ["--jobs", str(WORKERS), "--max-retries", "0", "--run-dir", str(run_dir)],
            extra_env={"REPRO_CAMPAIGN_ABORT_AFTER": str(ABORT_AFTER)},
        )
        if proc.returncode == 0:
            fail("crashed run unexpectedly exited 0")
        if "SweepExecutionError" not in proc.stderr:
            fail("crashed run did not fail with SweepExecutionError", proc)
        checkpoints = sorted(
            p for p in (run_dir / "shards").glob("*.json")
            if not p.name.endswith(".failed.json")
        )
        if len(checkpoints) != WORKERS * ABORT_AFTER:
            fail(
                f"expected {WORKERS * ABORT_AFTER} checkpoints, "
                f"found {len(checkpoints)}"
            )
        if not list((run_dir / "claims").glob("*.json")):
            fail("the dead workers left no claims behind")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        if manifest["status"] != "failed":
            fail(f"expected manifest status 'failed', got {manifest['status']!r}")
        mtimes = {p.name: p.stat().st_mtime_ns for p in checkpoints}

        print("[4/4] --resume the crashed run")
        started = time.perf_counter()
        proc = run_cli(
            ["--jobs", str(WORKERS), "--resume", str(run_dir),
             "--output-dir", str(resumed_dir)]
        )
        resume_seconds = time.perf_counter() - started
        if proc.returncode != 0:
            fail("resumed run failed", proc)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        if manifest["status"] != "completed":
            fail(f"expected manifest status 'completed', got {manifest['status']!r}")
        if manifest["shards"]["resumed"] != len(checkpoints):
            fail(f"expected {len(checkpoints)} resumed shards, got {manifest['shards']}")
        if list((run_dir / "claims").glob("*.json")):
            fail("claims left behind after the resume")
        for path in checkpoints:
            if path.stat().st_mtime_ns != mtimes[path.name]:
                fail(f"resume recomputed checkpointed shard {path.name}")
        if read_output(resumed_dir) != read_output(serial_dir):
            fail("resumed output differs from serial output")
        print(f"      resumed {manifest['shards']['resumed']}, "
              f"executed {manifest['shards']['executed']} in {resume_seconds:.1f}s")

        if args.expect_speedup and parallel_seconds >= serial_seconds:
            fail(
                f"--jobs 2 ({parallel_seconds:.1f}s) not faster than serial "
                f"({serial_seconds:.1f}s)"
            )

    print("OK: serial, parallel and crash+resume outputs are byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
