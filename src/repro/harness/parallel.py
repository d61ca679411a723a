"""Process-pool sweep executor with resumable shard checkpoints.

The figure sweeps iterate a (benchmark x family x budget) grid whose cells
are completely independent: predictors are constructed fresh per cell and
traces are pure functions of (benchmark, length, seed).  This module shards
that grid into per-cell work units, runs them across ``--jobs N`` worker
processes, and merges the results back in the canonical serial order, so
figure output is byte-identical to the serial path (each cell computes the
very same floats; JSON round-trips them exactly).

Resumability: with a run directory, every finished shard is checkpointed as
one JSON file (written atomically by the parent), so an interrupted or
crashed sweep restarted with the same directory skips completed shards.
``run.json`` pins the per-kind sweep configuration; resuming under a
different configuration (scale, engine, trace length, machine) is refused
rather than silently mixing results.

Failures: a shard that raises is retried up to ``max_retries`` times; every
failure is recorded in the run manifest (``manifest.json`` in the run
directory, mirrored into the obs manifest via :func:`drain_run_reports`).
A worker process that dies outright (broken pool) costs one retry for every
shard that was still outstanding in that round.

Workers rely on the per-process LRU trace cache in
:mod:`repro.workloads.spec2000` (capacity ``REPRO_TRACE_CACHE``) so one
worker decodes each benchmark trace once, not once per predictor config;
per-shard hit/miss deltas are reported back for the run manifest.  When
``REPRO_TRACE_STORE`` is set, workers additionally share the on-disk
content-addressed trace store (:mod:`repro.workloads.store`) under their
private LRUs, so a warmed store means *no* worker regenerates any trace;
per-shard store hit/miss/corrupt/write deltas are aggregated per worker
and run-wide into the manifest (``trace_store``) and mirrored into obs
counters when profiling.

One layer above both sits the content-addressed *result* store
(:mod:`repro.harness.resultstore`, ``REPRO_RESULT_STORE``): each worker
probes it before executing, so a shard whose key hits returns its stored
payload without loading a trace or building a predictor at all.  Workers
share the store directory exactly like the trace store; per-shard
``result_store`` stat deltas are aggregated run-wide into the manifest and
mirrored into ``result_store.*`` obs counters when profiling.

Test hooks (used by the CI kill/resume job and the test suite):

* ``REPRO_PARALLEL_ABORT_AFTER=K`` — abort the run (RuntimeError) after K
  freshly-executed shards, simulating a mid-run crash after their
  checkpoints were written;
* ``REPRO_PARALLEL_FAIL_SHARD=<substring>`` +
  ``REPRO_PARALLEL_FAIL_ATTEMPTS=N`` — shards whose key contains the
  substring fail their first N attempts, exercising the retry path
  deterministically;
* ``REPRO_PARALLEL_SLOW_SHARD=<substring>`` +
  ``REPRO_PARALLEL_SLOW_SHARD_SECONDS=S`` — shards whose key contains the
  substring sleep S seconds before executing, injecting a deterministic
  straggler (the synthetic slowdown the ``repro-stats regress`` CI gate
  and the straggler-report tests exercise).

Telemetry: when ``REPRO_LOG`` is set, the run leaves a JSONL event trail
(:mod:`repro.obs.events`).  The parent claims ownership of the log file
before the pool spawns, serializes the active span context into every
shard call so worker spans (``parallel.shard``) attach to the parent's
``parallel.run`` span, and at the end of the run merges the per-PID worker
sidecar files back into the main log and emits the run summary — the feed
for ``repro-stats timeline | flame | critical-path | stores | regress``.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

from repro import obs
from repro.common.atomic import atomic_write_json
from repro.obs import events as obs_events
from repro.common.errors import ConfigurationError, ReproError
from repro.harness.experiment import default_jobs

#: Store-statistic keys workers report per shard and manifests aggregate.
STORE_STAT_KEYS = ("hits", "misses", "corrupt", "writes", "evictions")

#: Bumped when the shard checkpoint / run manifest layout changes.
CHECKPOINT_SCHEMA = 1

#: Default retry budget per shard (``REPRO_MAX_RETRIES`` override).
DEFAULT_MAX_RETRIES = 2


class SweepExecutionError(ReproError):
    """A shard kept failing after exhausting its retry budget."""


@dataclass(frozen=True)
class Shard:
    """One independent (kind, benchmark, family, budget[, mode]) work unit."""

    kind: str  # "accuracy" | "ipc"
    benchmark: str
    family: str
    budget_bytes: int
    mode: str = ""  # ipc shards only

    @property
    def key(self) -> str:
        """Stable identifier; doubles as the checkpoint file stem."""
        parts = [self.kind, self.benchmark, self.family, str(self.budget_bytes)]
        if self.mode:
            parts.append(self.mode)
        return "__".join(parts)


@dataclass
class ShardOutcome:
    """A finished shard: its payload plus execution bookkeeping."""

    shard: Shard
    payload: dict
    duration_seconds: float
    worker_pid: int
    retries: int = 0
    from_checkpoint: bool = False
    regenerated: bool = False  # assembled from the result store, not executed
    trace_cache: dict = field(default_factory=dict)
    trace_store: dict = field(default_factory=dict)
    result_store: dict = field(default_factory=dict)


def pool_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: explicit argument, else ``REPRO_JOBS``,
    else one worker per CPU (this module's default)."""
    if jobs is not None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        return jobs
    if os.environ.get("REPRO_JOBS", "").strip():
        return default_jobs()
    return os.cpu_count() or 1


def resolve_max_retries(max_retries: int | None = None) -> int:
    """Per-shard retry budget: explicit argument, else ``REPRO_MAX_RETRIES``."""
    if max_retries is None:
        raw = os.environ.get("REPRO_MAX_RETRIES", "").strip()
        if not raw:
            return DEFAULT_MAX_RETRIES
        try:
            max_retries = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"REPRO_MAX_RETRIES must be an integer >= 0, got {raw!r}"
            ) from None
    if max_retries < 0:
        raise ConfigurationError(f"max retries must be >= 0, got {max_retries}")
    return max_retries


# -- worker side ---------------------------------------------------------------


def _build_shard_predictor(shard: Shard, spec_payload: dict | None):
    """The shard's predictor: rebuilt from the parent's serialized spec when
    one travelled with the shard (sizing ran once, in the parent), else
    sized fresh from the registry — bit-identical either way."""
    from repro.predictors import registry

    if spec_payload is not None:
        return registry.build_serialized(spec_payload)
    return registry.build(shard.family, shard.budget_bytes)


def _shard_result_key(shard: Shard, cfg: dict) -> tuple[str, "object"]:
    """The shard's result-store (key, cell) pair — the same recipe the
    serial sweeps use, so serial and parallel runs share one cache."""
    from repro.harness.resultstore import (
        ResultCell,
        accuracy_result_key,
        ipc_result_key,
    )

    if shard.kind == "accuracy":
        key = accuracy_result_key(
            shard.benchmark,
            shard.family,
            shard.budget_bytes,
            cfg["instructions"],
            cfg["engine"],
            cfg["warmup_fraction"],
        )
        return key, ResultCell("accuracy", shard.benchmark, shard.family, shard.budget_bytes)
    if shard.kind == "ipc":
        key = ipc_result_key(
            shard.benchmark,
            shard.family,
            shard.budget_bytes,
            shard.mode,
            cfg["instructions"],
            cfg["machine"],
        )
        return key, ResultCell(
            "ipc", shard.benchmark, shard.family, shard.budget_bytes, shard.mode
        )
    raise ConfigurationError(f"unknown shard kind {shard.kind!r}")


def _compute_shard_payload(shard: Shard, cfg: dict, spec_payload: dict | None) -> dict:
    """Actually execute one shard's measurement (the result-store miss path)."""
    from repro.harness.scale import warmup_branches
    from repro.workloads.spec2000 import spec2000_trace

    if shard.kind == "accuracy":
        from repro.harness.experiment import measure_accuracy

        trace = spec2000_trace(shard.benchmark, instructions=cfg["instructions"])
        warmup = warmup_branches(trace.conditional_branch_count)
        predictor = _build_shard_predictor(shard, spec_payload)
        result = measure_accuracy(
            predictor, trace, warmup_branches=warmup, engine=cfg["engine"]
        )
        return {"misprediction_percent": result.misprediction_percent}
    if shard.kind == "ipc":
        from repro.harness.sweep import ipc_payload
        from repro.uarch.config import MachineConfig

        return ipc_payload(
            shard.benchmark,
            shard.family,
            shard.budget_bytes,
            shard.mode,
            MachineConfig(**cfg["machine"]),
            spec2000_trace(shard.benchmark, instructions=cfg["instructions"]),
            predictor=_build_shard_predictor(shard, spec_payload),
        )
    raise ConfigurationError(f"unknown shard kind {shard.kind!r}")


def _execute_shard(
    shard: Shard,
    cfg: dict,
    attempt: int,
    spec_payload: dict | None = None,
    trace_ctx: dict | None = None,
) -> dict:
    """Run one shard in a worker process; returns a JSON-able result dict.

    With ``REPRO_RESULT_STORE`` set, the worker first consults the shared
    content-addressed result store: a hit returns the stored payload
    without loading a trace or building a predictor; a miss computes and
    persists the cell for every later run (and every sibling worker).

    ``trace_ctx`` is the parent run's serialized span context: the worker
    adopts it, so the ``parallel.shard`` span it opens here (and any store
    spans beneath) parent to the ``parallel.run`` span living in the parent
    process — the cross-process half of the distributed trace.

    Deferred imports keep executor scheduling importable without dragging in
    the whole measurement stack (and they are free after the first shard).
    """
    from repro.harness.resultstore import active_result_store, result_store_stats
    from repro.workloads.spec2000 import trace_cache_info
    from repro.workloads.store import store_stats

    obs.adopt_context(trace_ctx)

    fail_key = os.environ.get("REPRO_PARALLEL_FAIL_SHARD", "")
    if fail_key and fail_key in shard.key:
        fail_attempts = int(os.environ.get("REPRO_PARALLEL_FAIL_ATTEMPTS", "1"))
        if attempt < fail_attempts:
            raise RuntimeError(
                f"injected failure for shard {shard.key} (attempt {attempt})"
            )
    before = trace_cache_info()
    store_before = store_stats()
    results_before = result_store_stats()
    started = time.perf_counter()
    with obs.span("parallel.shard", shard=shard.key, attempt=attempt):
        # Inside the span so the injected straggler is visible to the
        # telemetry it exists to exercise (straggler stats, regress gate).
        slow_key = os.environ.get("REPRO_PARALLEL_SLOW_SHARD", "")
        if slow_key and slow_key in shard.key:
            time.sleep(
                float(os.environ.get("REPRO_PARALLEL_SLOW_SHARD_SECONDS", "0") or 0)
            )
        result_store = active_result_store()
        if result_store is not None:
            key, cell = _shard_result_key(shard, cfg)
            payload = result_store.get_or_compute(
                key, cell, lambda: _compute_shard_payload(shard, cfg, spec_payload)
            )
        else:
            payload = _compute_shard_payload(shard, cfg, spec_payload)
    after = trace_cache_info()
    store_after = store_stats()
    results_after = result_store_stats()
    return {
        "payload": payload,
        "duration_seconds": time.perf_counter() - started,
        "worker_pid": os.getpid(),
        "trace_cache": {
            "hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
        },
        "trace_store": {
            key: store_after[key] - store_before[key] for key in STORE_STAT_KEYS
        },
        "result_store": {
            key: results_after[key] - results_before[key] for key in STORE_STAT_KEYS
        },
    }


# -- checkpoint store ----------------------------------------------------------


class CheckpointStore:
    """Per-shard JSON checkpoints plus the pinned run configuration."""

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        self.shard_dir = os.path.join(run_dir, "shards")
        os.makedirs(self.shard_dir, exist_ok=True)
        self._run_path = os.path.join(run_dir, "run.json")

    def pin_config(self, kind: str, cfg: dict) -> None:
        """Record ``cfg`` as the run's configuration for ``kind`` sweeps.

        The first sweep of each kind pins it; later sweeps (including
        resumes) must present an identical configuration or the run
        directory is refused — mixing configurations would merge cells
        measured under different settings into one figure.
        """
        run = self._load_run()
        pinned = run["config"].get(kind)
        if pinned is None:
            run["config"][kind] = cfg
            self._write_json(self._run_path, run)
        elif pinned != _json_roundtrip(cfg):
            raise ConfigurationError(
                f"run directory {self.run_dir!r} was created with a different "
                f"{kind}-sweep configuration; resume with the original "
                f"REPRO_SCALE/REPRO_ENGINE/machine settings or use a fresh "
                f"--run-dir (pinned: {pinned}, requested: {cfg})"
            )

    def load(self, shard: Shard) -> ShardOutcome | None:
        """The checkpointed outcome for ``shard``, or None if absent/invalid."""
        path = self._shard_path(shard)
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if data.get("schema") != CHECKPOINT_SCHEMA or data.get("shard") != asdict(shard):
            return None
        worker = data.get("worker") or {}
        return ShardOutcome(
            shard=shard,
            payload=data["payload"],
            duration_seconds=worker.get("duration_seconds", 0.0),
            worker_pid=worker.get("pid", 0),
            retries=worker.get("retries", 0),
            from_checkpoint=True,
        )

    def store(self, outcome: ShardOutcome) -> None:
        """Atomically persist one finished shard."""
        self._write_json(
            self._shard_path(outcome.shard),
            {
                "schema": CHECKPOINT_SCHEMA,
                "shard": asdict(outcome.shard),
                "payload": outcome.payload,
                "worker": {
                    "pid": outcome.worker_pid,
                    "duration_seconds": outcome.duration_seconds,
                    "retries": outcome.retries,
                },
            },
        )

    def write_manifest(self, summary: dict) -> str:
        """Write the run-level manifest (shard timings, retries, failures)."""
        path = os.path.join(self.run_dir, "manifest.json")
        self._write_json(path, summary)
        return path

    def _shard_path(self, shard: Shard) -> str:
        return os.path.join(self.shard_dir, f"{shard.key}.json")

    def _load_run(self) -> dict:
        try:
            with open(self._run_path, encoding="utf-8") as handle:
                run = json.load(handle)
        except FileNotFoundError:
            return {"schema": CHECKPOINT_SCHEMA, "created_unix": time.time(), "config": {}}
        if run.get("schema") != CHECKPOINT_SCHEMA:
            raise ConfigurationError(
                f"{self._run_path} has checkpoint schema {run.get('schema')!r}; "
                f"this build reads schema {CHECKPOINT_SCHEMA} — use a fresh run dir"
            )
        return run

    @staticmethod
    def _write_json(path: str, data: dict) -> None:
        # The shared atomic helper (tmp.<pid> + rename): a writer killed
        # mid-write leaves only a staging file, which ``load`` never reads.
        atomic_write_json(path, data)


def _json_roundtrip(value: dict) -> dict:
    """``value`` as it will compare after a JSON write/read cycle."""
    return json.loads(json.dumps(value))


# -- run reports (consumed by obs manifests) -----------------------------------

_RUN_REPORTS: list[dict] = []


def drain_run_reports() -> list[dict]:
    """Pop every parallel-run summary recorded since the last drain.

    ``repro.obs.manifest.build_manifest`` calls this so each figure manifest
    carries the per-shard worker timings and retry counts of the parallel
    sweeps that produced it.
    """
    reports, _RUN_REPORTS[:] = _RUN_REPORTS[:], []
    return reports


# -- executor ------------------------------------------------------------------


def run_shards(
    shards: list[Shard],
    cfg: dict,
    jobs: int | None = None,
    run_dir: str | None = None,
    max_retries: int | None = None,
    label: str = "sweep",
) -> list[ShardOutcome]:
    """Execute ``shards`` across a process pool; returns outcomes in input
    order (the canonical serial order, so merged results are deterministic).

    ``cfg`` is the JSON-able per-shard configuration (trace length, engine,
    machine parameters); with ``run_dir`` it is pinned in ``run.json`` and
    completed shards are checkpointed and skipped on resume.
    """
    # Deferred: campaign imports this module at its own import time.
    from repro.harness import campaign as campaign_mod
    from repro.harness.resultstore import active_result_store

    jobs = pool_jobs(jobs)
    max_retries = resolve_max_retries(max_retries)
    cfg = _json_roundtrip(cfg)
    # Claim the REPRO_LOG file before any worker exists: workers inherit the
    # owner PID (env var survives both fork and spawn) and route their
    # events to per-PID sidecars instead of interleaving into our file.
    obs.claim_log_ownership()
    spec_payloads = _shard_spec_payloads(shards)
    kinds = {shard.kind for shard in shards}
    store = None
    layout = None
    if run_dir is not None:
        store = CheckpointStore(run_dir)
        layout = campaign_mod.CampaignLayout(run_dir)
        for kind in sorted(kinds):
            store.pin_config(kind, cfg)

    # Resume is a campaign scan: the classifier is the single authority on
    # what a run directory already holds (the old bespoke checkpoint loop
    # could not tell completed from torn, failed, or store-recoverable).
    outcomes: dict[str, ShardOutcome] = {}
    remaining: dict[str, Shard] = {}
    if store is None:
        remaining = {shard.key: shard for shard in shards}
    else:
        result_store = active_result_store()
        cells = [
            campaign_mod.CellStatus(
                shard,
                campaign_mod.classify_shard(
                    shard, layout=layout, result_store=result_store, cfg=cfg
                ),
            )
            for shard in shards
        ]
        obs_events.emit_classify(campaign_mod.class_counts(cells), label=label)
        for cell in cells:
            shard = cell.shard
            if cell.status == "completed":
                outcomes[shard.key] = store.load(shard)
                obs_events.emit_checkpoint(shard.key, "load")
            elif cell.status == "results_missing":
                # Regenerate-only: the checkpoint is assembled straight from
                # the result store — no trace load, no predictor work.
                key, rcell = _shard_result_key(shard, cfg)
                payload = result_store.load(key, rcell)
                if payload is None:  # evicted/corrupted since classification
                    remaining[shard.key] = shard
                    continue
                outcome = ShardOutcome(
                    shard=shard,
                    payload=payload,
                    duration_seconds=0.0,
                    worker_pid=os.getpid(),
                    regenerated=True,
                )
                outcomes[shard.key] = outcome
                store.store(outcome)
                obs_events.emit_checkpoint(shard.key, "store", regenerated=True)
            else:
                if cell.status == "failed":
                    # About to re-execute: the old exhausted-budget marker
                    # is stale evidence now.
                    try:
                        os.unlink(layout.failure_path(shard))
                    except OSError:
                        pass
                remaining[shard.key] = shard

    abort_after = int(os.environ.get("REPRO_PARALLEL_ABORT_AFTER", "0") or "0")
    attempts: dict[str, int] = dict.fromkeys(remaining, 0)
    failures: list[dict] = []
    executed = 0
    status = "completed"
    started = time.perf_counter()
    profiling = obs.enabled()

    def record_failure(shard: Shard, error: str) -> None:
        failures.append(
            {"shard": shard.key, "attempt": attempts[shard.key], "error": error}
        )
        obs_events.emit_retry(shard.key, attempts[shard.key], error)
        attempts[shard.key] += 1
        if attempts[shard.key] > max_retries:
            if layout is not None:
                # The durable evidence behind the campaign scanner's
                # ``failed`` class: a later scan offers this cell for
                # ``rerun --status failed`` instead of silently retrying.
                atomic_write_json(
                    layout.failure_path(shard),
                    {
                        "schema": campaign_mod.CAMPAIGN_SCHEMA,
                        "shard": asdict(shard),
                        "attempts": attempts[shard.key],
                        "error": error,
                        "ts": time.time(),
                    },
                )
            raise SweepExecutionError(
                f"shard {shard.key} failed {attempts[shard.key]} times "
                f"(max_retries={max_retries}); last error: {error}"
            )
        # The shard goes back on this run's in-memory queue with its budget
        # decremented — the same requeue-with-budget contract the on-disk
        # campaign queue uses.
        obs_events.emit_requeue(shard.key, attempts[shard.key], error)

    try:
        with obs.span(
            "parallel.run", label=label, jobs=jobs, shards=len(shards), resumed=len(outcomes)
        ):
            # The context workers adopt so their shard spans parent here.
            trace_ctx = obs.current_context()
            while remaining:
                round_shards = list(remaining.values())
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = {
                        pool.submit(
                            _execute_shard,
                            shard,
                            cfg,
                            attempts[shard.key],
                            spec_payloads[(shard.family, shard.budget_bytes)],
                            trace_ctx,
                        ): shard
                        for shard in round_shards
                    }
                    pending = set(futures)
                    broken = False
                    while pending:
                        done, pending = wait(pending, return_when=FIRST_COMPLETED)
                        for future in done:
                            shard = futures[future]
                            try:
                                result = future.result()
                            except BrokenProcessPool:
                                broken = True
                                continue
                            except Exception as exc:  # worker raised: retry
                                record_failure(shard, f"{type(exc).__name__}: {exc}")
                                continue
                            outcome = ShardOutcome(
                                shard=shard,
                                payload=result["payload"],
                                duration_seconds=result["duration_seconds"],
                                worker_pid=result["worker_pid"],
                                retries=attempts[shard.key],
                                trace_cache=result["trace_cache"],
                                trace_store=result.get("trace_store", {}),
                                result_store=result.get("result_store", {}),
                            )
                            outcomes[shard.key] = outcome
                            del remaining[shard.key]
                            if store is not None:
                                store.store(outcome)
                                obs_events.emit_checkpoint(shard.key, "store")
                            executed += 1
                            if profiling:
                                registry = obs.registry()
                                registry.counter("parallel.shards_executed").inc()
                                registry.timer("parallel.shard_seconds").observe(
                                    outcome.duration_seconds
                                )
                            if abort_after and executed >= abort_after:
                                pool.shutdown(wait=False, cancel_futures=True)
                                raise RuntimeError(
                                    f"aborted by REPRO_PARALLEL_ABORT_AFTER="
                                    f"{abort_after} after {executed} shards"
                                )
                        if broken:
                            break
                if broken:
                    # Every shard still outstanding in the broken round pays
                    # one retry (the dead worker is not identifiable).
                    for shard in list(remaining.values()):
                        record_failure(shard, "BrokenProcessPool: worker died")
    except SweepExecutionError:
        status = "failed"
        raise
    except BaseException:
        status = "aborted"
        raise
    finally:
        summary = _summarize(
            label, jobs, max_retries, shards, outcomes, failures, status,
            time.perf_counter() - started, spec_payloads,
        )
        _RUN_REPORTS.append(summary)
        # Pull every worker's per-PID sidecar into the main event log and
        # close the trail with the authoritative run summary (the numbers
        # ``repro-stats regress`` gates on).  Both no-op without REPRO_LOG.
        obs_events.collect_worker_events()
        obs_events.emit_counter(
            {f"trace_cache.{key}": value for key, value in summary["trace_cache"].items()}
        )
        obs_events.emit_run_summary(
            label,
            {k: v for k, v in summary.items() if k not in ("specs", "shard_timings")},
        )
        if profiling:
            registry = obs.registry()
            registry.counter("parallel.shards_resumed").inc(
                summary["shards"]["resumed"]
            )
            if summary["shards"]["regenerated"]:
                registry.counter("parallel.shards_regenerated").inc(
                    summary["shards"]["regenerated"]
                )
            registry.counter("parallel.retries").inc(summary["retries"])
            # Worker-process store activity never reaches parent counters on
            # its own; mirror the aggregated deltas here.
            for key, value in summary["trace_store"].items():
                if value:
                    registry.counter(f"trace_store.{key}").inc(value)
            for key, value in summary["result_store"].items():
                if value:
                    registry.counter(f"result_store.{key}").inc(value)
        if store is not None:
            store.write_manifest(summary)

    return [outcomes[shard.key] for shard in shards]


def _shard_spec_payloads(shards: list[Shard]) -> dict[tuple[str, int], dict | None]:
    """Serialized specs keyed by (family, budget): sizing runs once, here in
    the parent, and workers rebuild bit-identical predictors from the
    embedded configs.  A family the registry cannot resolve maps to None —
    the worker falls back to its own registry build (and raises the same
    error the serial path would)."""
    from repro.predictors import registry

    payloads: dict[tuple[str, int], dict | None] = {}
    for shard in shards:
        key = (shard.family, shard.budget_bytes)
        if key in payloads:
            continue
        try:
            payloads[key] = registry.serialize_spec(shard.family, shard.budget_bytes)
        except ReproError:
            payloads[key] = None
    return payloads


def _summarize(
    label: str,
    jobs: int,
    max_retries: int,
    shards: list[Shard],
    outcomes: dict[str, ShardOutcome],
    failures: list[dict],
    status: str,
    wall_seconds: float,
    spec_payloads: dict[tuple[str, int], dict | None] | None = None,
) -> dict:
    """The run manifest body: per-shard timings, worker load, retry counts."""
    workers: dict[str, dict] = {}
    cache = {"hits": 0, "misses": 0}
    store_totals = dict.fromkeys(STORE_STAT_KEYS, 0)
    result_totals = dict.fromkeys(STORE_STAT_KEYS, 0)
    timings = []
    for shard in shards:
        outcome = outcomes.get(shard.key)
        if outcome is None:
            continue
        timings.append(
            {
                "shard": shard.key,
                "seconds": outcome.duration_seconds,
                "pid": outcome.worker_pid,
                "retries": outcome.retries,
                "from_checkpoint": outcome.from_checkpoint,
                "regenerated": outcome.regenerated,
            }
        )
        if not outcome.from_checkpoint and not outcome.regenerated:
            worker = workers.setdefault(
                str(outcome.worker_pid),
                {"shards": 0, "seconds": 0.0, "trace_store": dict.fromkeys(STORE_STAT_KEYS, 0)},
            )
            worker["shards"] += 1
            worker["seconds"] += outcome.duration_seconds
            cache["hits"] += outcome.trace_cache.get("hits", 0)
            cache["misses"] += outcome.trace_cache.get("misses", 0)
            for key in STORE_STAT_KEYS:
                delta = outcome.trace_store.get(key, 0)
                worker["trace_store"][key] += delta
                store_totals[key] += delta
                result_totals[key] += outcome.result_store.get(key, 0)
    resumed = sum(1 for o in outcomes.values() if o.from_checkpoint)
    regenerated = sum(1 for o in outcomes.values() if o.regenerated)
    specs = {
        f"{family}@{budget}": payload
        for (family, budget), payload in sorted(spec_payloads.items())
    } if spec_payloads else {}
    return {
        "schema": CHECKPOINT_SCHEMA,
        "specs": specs,
        "label": label,
        "status": status,
        "jobs": jobs,
        "max_retries": max_retries,
        "wall_seconds": wall_seconds,
        "shards": {
            "total": len(shards),
            "resumed": resumed,
            "regenerated": regenerated,
            "executed": len(outcomes) - resumed - regenerated,
            "incomplete": len(shards) - len(outcomes),
        },
        "retries": len(failures),
        "failures": failures,
        "workers": workers,
        "trace_cache": cache,
        "trace_store": store_totals,
        "result_store": result_totals,
        "shard_timings": timings,
    }


# -- sweep entry points (called by repro.harness.sweep) ------------------------


def accuracy_shard_grid(
    families: list[str], budgets: list[int], benchmarks: list[str]
) -> list[Shard]:
    """Accuracy shards in the serial sweep's iteration order."""
    return [
        Shard("accuracy", benchmark, family, budget)
        for benchmark in benchmarks
        for family in families
        for budget in budgets
    ]


def parallel_accuracy_sweep(
    families: list[str],
    budgets: list[int],
    benchmarks: list[str],
    instructions: int,
    engine: str | None,
    jobs: int | None = None,
    run_dir: str | None = None,
    max_retries: int | None = None,
) -> list:
    """The parallel counterpart of :func:`repro.harness.sweep.accuracy_sweep`.

    Returns ``AccuracyCell`` rows identical (including float bit patterns)
    to the serial path's, in the same order.
    """
    from repro.harness.experiment import default_engine
    from repro.harness.scale import WARMUP_FRACTION
    from repro.harness.sweep import AccuracyCell

    cfg = {
        "instructions": instructions,
        "engine": engine if engine is not None else default_engine(),
        "warmup_fraction": WARMUP_FRACTION,
    }
    outcomes = run_shards(
        accuracy_shard_grid(families, budgets, benchmarks),
        cfg,
        jobs=jobs,
        run_dir=run_dir,
        max_retries=max_retries,
        label="accuracy_sweep",
    )
    return [
        AccuracyCell(
            benchmark=o.shard.benchmark,
            family=o.shard.family,
            budget_bytes=o.shard.budget_bytes,
            misprediction_percent=o.payload["misprediction_percent"],
        )
        for o in outcomes
    ]


def parallel_ipc_sweep(
    families: list[str],
    budgets: list[int],
    mode: str,
    benchmarks: list[str],
    instructions: int,
    config,
    jobs: int | None = None,
    run_dir: str | None = None,
    max_retries: int | None = None,
) -> list:
    """The parallel counterpart of :func:`repro.harness.sweep.ipc_sweep`."""
    from repro.harness.sweep import IpcCell

    cfg = {"instructions": instructions, "machine": asdict(config)}
    shards = [
        Shard("ipc", benchmark, family, budget, mode)
        for benchmark in benchmarks
        for family in families
        for budget in budgets
    ]
    outcomes = run_shards(
        shards,
        cfg,
        jobs=jobs,
        run_dir=run_dir,
        max_retries=max_retries,
        label=f"ipc_sweep.{mode}",
    )
    return [
        IpcCell.from_payload(
            o.shard.benchmark, o.shard.family, o.shard.mode, o.shard.budget_bytes, o.payload
        )
        for o in outcomes
    ]
