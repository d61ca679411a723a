"""The parallel sweep executor: sharding, merging, checkpoints, retries.

Serial/parallel byte-identity for the full grids is asserted in
``test_conformance_matrix.py``; here we exercise the executor machinery
itself — worker-count resolution, checkpoint resume after a simulated
crash, the retry budget, config pinning, and the run reports that feed
obs manifests.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.common.errors import ConfigurationError
from repro.harness.experiment import default_jobs
from repro.harness.parallel import (
    CheckpointStore,
    Shard,
    SweepExecutionError,
    accuracy_shard_grid,
    drain_run_reports,
    parallel_accuracy_sweep,
    pool_jobs,
    resolve_max_retries,
    run_shards,
)
from repro.harness.sweep import accuracy_sweep, ipc_sweep
from repro.obs.manifest import build_manifest
from repro.workloads.spec2000 import (
    clear_trace_cache,
    trace_cache_capacity,
    trace_cache_info,
)

FAMILIES = ["gshare", "bimodal"]
BUDGETS = [2 * 1024]
BENCHMARKS = ["gcc", "eon"]
INSTRUCTIONS = 20_000

SWEEP_KWARGS = dict(
    families=FAMILIES,
    budgets=BUDGETS,
    benchmarks=BENCHMARKS,
    instructions=INSTRUCTIONS,
)


@pytest.fixture(autouse=True)
def _fresh_reports():
    """Each test sees only its own parallel-run reports."""
    drain_run_reports()
    yield
    drain_run_reports()


# -- configuration resolution --------------------------------------------------


class TestJobResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert pool_jobs(3) == 3

    def test_explicit_argument_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            pool_jobs(0)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert pool_jobs() == 5

    def test_unset_env_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert pool_jobs() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("raw", ["auto", "0", "AUTO"])
    def test_default_jobs_auto(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        assert default_jobs() == (os.cpu_count() or 1)

    def test_default_jobs_defaults_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    @pytest.mark.parametrize("raw", ["three", "1.5", "-2"])
    def test_default_jobs_rejects_garbage(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(ConfigurationError):
            default_jobs()

    def test_max_retries_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        assert resolve_max_retries() == 2

    def test_max_retries_env_and_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "9")
        assert resolve_max_retries() == 9
        assert resolve_max_retries(0) == 0

    @pytest.mark.parametrize("raw", ["many", "-1"])
    def test_max_retries_rejects_garbage(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_MAX_RETRIES", raw)
        with pytest.raises(ConfigurationError):
            resolve_max_retries()


def test_shard_key_is_stable_and_filename_safe():
    assert Shard("accuracy", "gcc", "gshare", 2048).key == "accuracy__gcc__gshare__2048"
    assert (
        Shard("ipc", "eon", "perceptron", 4096, "overriding").key
        == "ipc__eon__perceptron__4096__overriding"
    )


def test_shard_grid_matches_serial_iteration_order():
    grid = accuracy_shard_grid(FAMILIES, [1024, 2048], BENCHMARKS)
    assert [(s.benchmark, s.family, s.budget_bytes) for s in grid] == [
        (benchmark, family, budget)
        for benchmark in BENCHMARKS
        for family in FAMILIES
        for budget in [1024, 2048]
    ]


# -- serial/parallel equivalence ----------------------------------------------


def test_ipc_sweep_parallel_matches_serial():
    kwargs = dict(SWEEP_KWARGS, mode="overriding", families=["gshare", "perceptron"])
    assert ipc_sweep(**kwargs, jobs=1) == ipc_sweep(**kwargs, jobs=2)


def test_ipc_stored_payloads_match_serial(tmp_path, monkeypatch):
    """Serial and ``--jobs 2`` sweeps persist identical IPC payloads, stall
    breakdown included, and every cell carries the stored breakdown."""
    from dataclasses import astuple, fields

    from repro.uarch.simulator import StallBreakdown

    kwargs = dict(SWEEP_KWARGS, mode="overriding", families=["gshare", "perceptron"])
    stored = {}
    for jobs in (1, 2):
        root = tmp_path / f"jobs{jobs}"
        monkeypatch.setenv("REPRO_RESULT_STORE", str(root))
        cells = ipc_sweep(**kwargs, jobs=jobs)
        stored[jobs] = {
            path.name: json.loads(path.read_text())["payload"] for path in root.glob("*.json")
        }
    assert stored[1] == stored[2]
    assert len(stored[1]) == len(cells) == 4
    stall_fields = {field.name for field in fields(StallBreakdown)}
    assert all(set(payload["stalls"]) == stall_fields for payload in stored[1].values())
    assert sorted(astuple(cell.stalls) for cell in cells) == sorted(
        astuple(StallBreakdown(**payload["stalls"])) for payload in stored[1].values()
    )
    assert any(cell.stalls.override_bubble for cell in cells)


def test_parallel_sweep_writes_run_manifest(tmp_path):
    run_dir = tmp_path / "run"
    cells = parallel_accuracy_sweep(
        **SWEEP_KWARGS, engine=None, jobs=2, run_dir=str(run_dir)
    )
    assert len(cells) == len(FAMILIES) * len(BUDGETS) * len(BENCHMARKS)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["shards"] == {
        "total": 4, "resumed": 0, "regenerated": 0, "executed": 4, "incomplete": 0,
    }
    assert manifest["retries"] == 0 and manifest["failures"] == []
    assert len(manifest["shard_timings"]) == 4
    assert sum(w["shards"] for w in manifest["workers"].values()) == 4
    run = json.loads((run_dir / "run.json").read_text())
    assert run["config"]["accuracy"]["instructions"] == INSTRUCTIONS


# -- crash / resume ------------------------------------------------------------


def test_abort_then_resume_skips_checkpointed_shards(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    kwargs = dict(SWEEP_KWARGS, engine=None, jobs=1, run_dir=str(run_dir))

    monkeypatch.setenv("REPRO_PARALLEL_ABORT_AFTER", "2")
    with pytest.raises(RuntimeError, match="REPRO_PARALLEL_ABORT_AFTER"):
        parallel_accuracy_sweep(**kwargs)
    aborted = drain_run_reports()[-1]
    assert aborted["status"] == "aborted"
    assert aborted["shards"]["executed"] == 2
    assert aborted["shards"]["incomplete"] == 2

    shard_dir = run_dir / "shards"
    checkpoints = sorted(shard_dir.glob("*.json"))
    assert len(checkpoints) == 2
    mtimes = {p.name: p.stat().st_mtime_ns for p in checkpoints}

    monkeypatch.delenv("REPRO_PARALLEL_ABORT_AFTER")
    cells = parallel_accuracy_sweep(**kwargs)
    resumed = drain_run_reports()[-1]
    assert resumed["status"] == "completed"
    assert resumed["shards"]["resumed"] == 2
    assert resumed["shards"]["executed"] == 2
    # The checkpointed shards were skipped, not recomputed.
    for path in checkpoints:
        assert path.stat().st_mtime_ns == mtimes[path.name]
    # Merged results match a fresh uncheckpointed run exactly.
    assert cells == accuracy_sweep(**SWEEP_KWARGS, jobs=1)


def test_resume_refuses_different_config(tmp_path):
    run_dir = str(tmp_path / "run")
    parallel_accuracy_sweep(**SWEEP_KWARGS, engine=None, jobs=1, run_dir=run_dir)
    with pytest.raises(ConfigurationError, match="different"):
        parallel_accuracy_sweep(
            **dict(SWEEP_KWARGS, instructions=INSTRUCTIONS * 2),
            engine=None,
            jobs=1,
            run_dir=run_dir,
        )


def test_checkpoint_store_ignores_corrupt_and_mismatched_files(tmp_path):
    store = CheckpointStore(str(tmp_path))
    shard = Shard("accuracy", "gcc", "gshare", 2048)
    path = tmp_path / "shards" / f"{shard.key}.json"
    assert store.load(shard) is None  # absent
    path.write_text("{not json")
    assert store.load(shard) is None  # corrupt
    path.write_text(json.dumps({"schema": -1, "shard": {}, "payload": {}}))
    assert store.load(shard) is None  # wrong schema


def test_run_json_schema_mismatch_is_refused(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps({"schema": -1, "config": {}}))
    store = CheckpointStore(str(tmp_path))
    with pytest.raises(ConfigurationError, match="schema"):
        store.pin_config("accuracy", {"instructions": 1})


# -- retries -------------------------------------------------------------------


def test_injected_failure_is_retried_and_recorded(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_FAIL_SHARD", "gcc__gshare")
    monkeypatch.setenv("REPRO_PARALLEL_FAIL_ATTEMPTS", "2")
    cells = parallel_accuracy_sweep(**SWEEP_KWARGS, engine=None, jobs=2, max_retries=2)
    report = drain_run_reports()[-1]
    assert report["status"] == "completed"
    assert report["retries"] == 2
    assert [f["shard"] for f in report["failures"]] == [
        "accuracy__gcc__gshare__2048",
        "accuracy__gcc__gshare__2048",
    ]
    assert [f["attempt"] for f in report["failures"]] == [0, 1]
    # Retried results are still byte-identical to the clean serial run.
    monkeypatch.delenv("REPRO_PARALLEL_FAIL_SHARD")
    monkeypatch.delenv("REPRO_PARALLEL_FAIL_ATTEMPTS")
    assert cells == accuracy_sweep(**SWEEP_KWARGS, jobs=1)


def test_exhausted_retry_budget_fails_the_run(monkeypatch, tmp_path):
    run_dir = tmp_path / "run"
    monkeypatch.setenv("REPRO_PARALLEL_FAIL_SHARD", "gcc__gshare")
    monkeypatch.setenv("REPRO_PARALLEL_FAIL_ATTEMPTS", "99")
    with pytest.raises(SweepExecutionError, match="max_retries=1"):
        parallel_accuracy_sweep(
            **SWEEP_KWARGS, engine=None, jobs=1, max_retries=1, run_dir=str(run_dir)
        )
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["retries"] == 2  # initial attempt + one retry, both failed


# -- obs integration -----------------------------------------------------------


def test_run_reports_land_in_obs_manifest():
    parallel_accuracy_sweep(**SWEEP_KWARGS, engine=None, jobs=2)
    manifest = build_manifest("test", "output", 0.0, config={})
    [report] = manifest["parallel"]
    assert report["label"] == "accuracy_sweep"
    assert report["shards"]["executed"] == 4
    # drain: a second manifest must not repeat the report.
    assert "parallel" not in build_manifest("test", "output", 0.0, config={})


def test_parallel_counters_when_profiling(obs_enabled):
    run_shards(
        accuracy_shard_grid(["bimodal"], BUDGETS, ["gcc"]),
        {"instructions": INSTRUCTIONS, "engine": None, "warmup_fraction": 0.2},
        jobs=1,
    )
    counters = obs_enabled.snapshot()["counters"]
    assert counters["parallel.shards_executed"] == 1
    drain_run_reports()


# -- trace store ---------------------------------------------------------------


class TestTraceStoreIntegration:
    @pytest.fixture
    def warm_store(self, tmp_path, monkeypatch):
        """A prewarmed store for the test grid, with the parent's LRU kept
        empty so forked workers must demonstrably hit the disk store."""
        from repro.workloads.spec2000 import warm_trace_store
        from repro.workloads.store import reset_store_stats

        store_dir = tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_STORE", str(store_dir))
        clear_trace_cache()
        reset_store_stats()
        warm_trace_store(benchmarks=BENCHMARKS, instruction_counts=[INSTRUCTIONS])
        clear_trace_cache()
        reset_store_stats()
        yield store_dir
        clear_trace_cache()
        reset_store_stats()

    def test_workers_share_warm_store(self, warm_store, tmp_path):
        """Every worker loads from the shared store — per-worker manifest
        stats show store hits and zero misses (nothing regenerated)."""
        run_dir = tmp_path / "run"
        parallel_accuracy_sweep(
            **SWEEP_KWARGS, engine=None, jobs=2, run_dir=str(run_dir)
        )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["trace_store"]["hits"] >= 2  # one per benchmark at least
        assert manifest["trace_store"]["misses"] == 0
        assert manifest["trace_store"]["corrupt"] == 0
        workers = manifest["workers"].values()
        assert all("trace_store" in worker for worker in workers)
        assert sum(w["trace_store"]["hits"] for w in workers) == (
            manifest["trace_store"]["hits"]
        )

    def test_crash_resume_under_warm_store_matches_serial(
        self, warm_store, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "run"
        kwargs = dict(SWEEP_KWARGS, engine=None, jobs=1, run_dir=str(run_dir))
        monkeypatch.setenv("REPRO_PARALLEL_ABORT_AFTER", "2")
        with pytest.raises(RuntimeError, match="REPRO_PARALLEL_ABORT_AFTER"):
            parallel_accuracy_sweep(**kwargs)
        monkeypatch.delenv("REPRO_PARALLEL_ABORT_AFTER")
        resumed = parallel_accuracy_sweep(**kwargs)
        report = drain_run_reports()[-1]
        assert report["shards"]["resumed"] == 2
        # Byte-identical to the serial, storeless path.
        monkeypatch.delenv("REPRO_TRACE_STORE")
        clear_trace_cache()
        assert resumed == accuracy_sweep(**SWEEP_KWARGS, jobs=1)

    def test_parallel_store_counters_reach_obs(self, warm_store, obs_enabled):
        parallel_accuracy_sweep(**SWEEP_KWARGS, engine=None, jobs=2)
        counters = obs_enabled.snapshot()["counters"]
        assert counters["trace_store.hits"] >= 2
        drain_run_reports()


# -- checkpoint atomicity ------------------------------------------------------


class TestCheckpointAtomicity:
    def test_checkpoint_write_leaves_no_staging_files(self, tmp_path):
        from repro.harness.parallel import ShardOutcome

        store = CheckpointStore(str(tmp_path))
        shard = Shard("accuracy", "gcc", "gshare", 2048)
        store.store(
            ShardOutcome(
                shard=shard, payload={"misprediction_percent": 1.0},
                duration_seconds=0.1, worker_pid=1,
            )
        )
        leftovers = [p for p in (tmp_path / "shards").iterdir() if ".tmp" in p.name]
        assert leftovers == []
        assert store.load(shard) is not None

    def test_checkpoint_killed_mid_write_is_ignored_on_resume(self, tmp_path):
        """A writer killed mid-write leaves only a ``*.tmp.<pid>`` staging
        file; resume neither crashes on it nor trusts it — the shard is
        simply re-executed."""
        run_dir = tmp_path / "run"
        shard_dir = run_dir / "shards"
        shard_dir.mkdir(parents=True)
        key = "accuracy__gcc__gshare__2048"
        # Half-written JSON under the staging name (the only artifact an
        # atomic writer can leave behind)...
        (shard_dir / f"{key}.json.tmp.4242").write_text('{"schema": 1, "payl')
        # ...and, belt-and-braces, torn JSON under a *final* name too
        # (pre-atomic layouts could produce this).
        (shard_dir / "accuracy__eon__gshare__2048.json").write_text('{"sch')
        cells = parallel_accuracy_sweep(
            **SWEEP_KWARGS, engine=None, jobs=1, run_dir=str(run_dir)
        )
        report = drain_run_reports()[-1]
        assert report["status"] == "completed"
        assert report["shards"]["resumed"] == 0  # nothing was trusted
        assert report["shards"]["executed"] == 4
        assert cells == accuracy_sweep(**SWEEP_KWARGS, jobs=1)

    def test_torn_checkpoint_classifies_partial_and_reexecutes(self, tmp_path):
        """Fault injection: a checkpoint whose writer died mid-write (torn
        JSON under the final name, or only a staging sibling) must classify
        as ``partial`` — never ``completed`` — and the shard re-executes."""
        from repro.harness.campaign import CampaignLayout, classify_shard

        run_dir = tmp_path / "run"
        shard_dir = run_dir / "shards"
        shard_dir.mkdir(parents=True)
        layout = CampaignLayout(str(run_dir))
        grid = accuracy_shard_grid(FAMILIES, BUDGETS, BENCHMARKS)
        torn_final, torn_staging = grid[0], grid[1]
        # Torn JSON under the *final* checkpoint name...
        (shard_dir / f"{torn_final.key}.json").write_text('{"schema": 1, "payl')
        # ...and a shard that only ever got as far as its staging file.
        (shard_dir / f"{torn_staging.key}.json.tmp.4242").write_text("{")
        assert classify_shard(torn_final, layout=layout) == "partial"
        assert classify_shard(torn_staging, layout=layout) == "partial"

        cells = parallel_accuracy_sweep(
            **SWEEP_KWARGS, engine=None, jobs=1, run_dir=str(run_dir)
        )
        report = drain_run_reports()[-1]
        assert report["status"] == "completed"
        assert report["shards"]["resumed"] == 0  # the torn shard was not trusted
        assert report["shards"]["executed"] == 4
        assert cells == accuracy_sweep(**SWEEP_KWARGS, jobs=1)
        # The re-executed checkpoints are whole again.
        for shard in (torn_final, torn_staging):
            assert classify_shard(shard, layout=layout) == "completed"


# -- trace cache ---------------------------------------------------------------


class TestTraceCache:
    def test_capacity_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert trace_cache_capacity() == 32
        monkeypatch.setenv("REPRO_TRACE_CACHE", "4")
        assert trace_cache_capacity() == 4

    @pytest.mark.parametrize("raw", ["tiny", "0", "-3"])
    def test_capacity_rejects_garbage(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACE_CACHE", raw)
        with pytest.raises(ConfigurationError):
            trace_cache_capacity()

    def test_hits_misses_and_eviction(self, monkeypatch):
        from repro.workloads.spec2000 import spec2000_trace

        clear_trace_cache()
        monkeypatch.setenv("REPRO_TRACE_CACHE", "1")
        spec2000_trace("gcc", instructions=5_000)
        spec2000_trace("gcc", instructions=5_000)
        spec2000_trace("eon", instructions=5_000)  # evicts gcc
        info = trace_cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 2
        assert info["evictions"] == 1
        assert info["entries"] == 1
        clear_trace_cache()
        assert trace_cache_info()["entries"] == 0


# -- distributed tracing -------------------------------------------------------


class TestParallelTelemetry:
    def test_worker_spans_parent_to_run_trace(self, tmp_path, monkeypatch):
        """A --jobs 2 sweep with REPRO_LOG leaves one complete cross-process
        span tree: no orphans, every worker shard span resolving to the
        parent's parallel.run span, and wall times that agree."""
        from repro.obs.aggregate import aggregate_run, build_span_tree
        from repro.obs.events import read_run_events, validate_event

        log = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_LOG", str(log))
        monkeypatch.delenv("REPRO_LOG_OWNER_PID", raising=False)
        accuracy_sweep(**SWEEP_KWARGS, jobs=2)

        events = read_run_events(log)
        assert events and all(validate_event(e) == [] for e in events)
        assert not list(log.parent.glob("events.jsonl.*"))  # sidecars merged

        tree = build_span_tree(events)
        assert not tree.orphans and not tree.unclosed
        run_spans = [n for n in tree.by_id.values() if n.name == "parallel.run"]
        assert len(run_spans) == 1
        run = run_spans[0]
        shard_spans = [n for n in tree.by_id.values() if n.name == "parallel.shard"]
        assert len(shard_spans) == len(FAMILIES) * len(BUDGETS) * len(BENCHMARKS)
        assert all(n.parent_id == run.span_id for n in shard_spans)
        assert all(n.trace_id == run.trace_id for n in shard_spans)
        assert all(n.pid != run.pid for n in shard_spans)

        agg = aggregate_run(events)
        # One run summary closed the trail; its counters match the tree.
        assert agg["counters"]["shards.executed"] == len(shard_spans)
        assert agg["counters"]["retries"] == 0
        # The aggregate's wall covers the root span within rounding.
        roots = [n for n in tree.roots]
        assert agg["wall_seconds"] == pytest.approx(
            max(r.duration for r in roots), rel=0.05
        )
        # Workers were seen and attributed busy time.
        assert agg["workers"]
        assert all(w["busy_seconds"] > 0 for w in agg["workers"].values())

    def test_retry_and_checkpoint_events_recorded(self, tmp_path, monkeypatch):
        from repro.obs.events import read_run_events

        log = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_LOG", str(log))
        monkeypatch.delenv("REPRO_LOG_OWNER_PID", raising=False)
        monkeypatch.setenv("REPRO_PARALLEL_FAIL_SHARD", "gcc__gshare")
        monkeypatch.setenv("REPRO_PARALLEL_FAIL_ATTEMPTS", "1")
        run_dir = tmp_path / "run"
        accuracy_sweep(
            **SWEEP_KWARGS, engine=None, jobs=2, run_dir=str(run_dir)
        )
        events = read_run_events(log)
        retries = [e for e in events if e["event"] == "retry"]
        assert len(retries) == 1 and "gcc__gshare" in retries[0]["shard"]
        stored = [e for e in events if e["event"] == "checkpoint"]
        assert {e["action"] for e in stored} == {"store"}
        assert len(stored) == 4
        summaries = [e for e in events if e["event"] == "run_summary"]
        assert summaries[-1]["summary"]["retries"] == 1

    def test_slow_shard_hook_injects_straggler(self, tmp_path, monkeypatch):
        from repro.obs.aggregate import aggregate_run
        from repro.obs.events import read_run_events

        log = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_LOG", str(log))
        monkeypatch.delenv("REPRO_LOG_OWNER_PID", raising=False)
        monkeypatch.setenv("REPRO_PARALLEL_SLOW_SHARD", "eon__bimodal")
        monkeypatch.setenv("REPRO_PARALLEL_SLOW_SHARD_SECONDS", "0.5")
        accuracy_sweep(**SWEEP_KWARGS, jobs=2)
        agg = aggregate_run(read_run_events(log))
        stragglers = agg["stragglers"]
        assert stragglers["slowest"][0]["shard"] == "accuracy__eon__bimodal__2048"
        assert stragglers["max_seconds"] >= 0.5
        # The critical path ends in the slowed shard.
        assert agg["critical_path"][-1]["shard"] == "accuracy__eon__bimodal__2048"
