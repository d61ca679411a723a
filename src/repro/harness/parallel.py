"""The per-cell layer every sweep route shares: shards, execution, checkpoints.

The figure sweeps iterate a (benchmark x family x budget [x mode]) grid whose
cells are completely independent: predictors are constructed fresh per cell
and traces are pure functions of (benchmark, length, seed).  Each cell is a
:class:`Shard`, and :func:`_execute_shard` is the one function that executes
one — the serial loop in :mod:`repro.harness.sweep` calls it in-process, and
campaign workers (:mod:`repro.harness.campaign`, the executor behind
``--jobs N`` and ``--run-dir``) call it in-process or in forked worker
processes.  Every route computes the very same floats, so figure output is
byte-identical whichever one ran (JSON round-trips them exactly).

:class:`CheckpointStore` keeps one JSON checkpoint per finished cell under a
run directory (written atomically), plus the run manifest
(``manifest.json``: per-cell timings, worker load, retries and failures).

Workers rely on the per-process LRU trace cache in
:mod:`repro.workloads.spec2000` (capacity ``REPRO_TRACE_CACHE``) so one
worker decodes each benchmark trace once, not once per predictor config.
With ``REPRO_TRACE_STORE`` set they also share the on-disk content-addressed
trace store, and with ``REPRO_RESULT_STORE`` the result store one layer
above it: a cell whose key hits returns its stored payload without loading a
trace or building a predictor.  :func:`_execute_shard` reports per-cell
trace-cache and store statistic deltas for the run manifest.

Test hooks (used by the CI drills and the test suite):

* ``REPRO_PARALLEL_FAIL_SHARD=<substring>`` +
  ``REPRO_PARALLEL_FAIL_ATTEMPTS=N`` — shards whose key contains the
  substring fail their first N attempts, exercising the retry path
  deterministically;
* ``REPRO_PARALLEL_SLOW_SHARD=<substring>`` +
  ``REPRO_PARALLEL_SLOW_SHARD_SECONDS=S`` — shards whose key contains the
  substring sleep S seconds before executing, injecting a deterministic
  straggler (the synthetic slowdown the ``repro-stats regress`` CI gate
  and the straggler-report tests exercise).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field

from repro import obs
from repro.common.atomic import atomic_write_json
from repro.common.errors import ConfigurationError, ReproError

#: Store-statistic keys workers report per shard and manifests aggregate.
STORE_STAT_KEYS = ("hits", "misses", "corrupt", "writes", "evictions")

#: Bumped when the shard checkpoint / run manifest layout changes.
CHECKPOINT_SCHEMA = 1

#: Default retry budget per shard (``REPRO_MAX_RETRIES`` override).
DEFAULT_MAX_RETRIES = 2

#: The sweep kinds a shard can belong to.
SHARD_KINDS = ("accuracy", "ipc")


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

    def __post_init__(self) -> None:
        if self.kind not in SHARD_KINDS:
            raise ConfigurationError(f"unknown shard kind {self.kind!r}")

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
    duration_seconds: float = 0.0
    worker_pid: int = 0
    retries: int = 0
    regenerated: bool = False  # assembled from the result store, not computed
    #: the errors of the attempts that failed before this one succeeded
    errors: list = field(default_factory=list)
    trace_cache: dict = field(default_factory=dict)
    trace_store: dict = field(default_factory=dict)
    result_store: dict = field(default_factory=dict)


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


def _execute_shard(
    shard: Shard, cfg: dict, attempt: int, spec_payload: dict | None = None
) -> dict:
    """Execute one cell; returns a JSON-able result dict.

    ``cfg`` is the per-kind sweep configuration (see
    :func:`repro.harness.figconfig.grid_cfg`); ``spec_payload`` is the
    family's serialized spec when the caller sized it already.  The
    ``parallel.shard`` span parents to whatever span encloses the call —
    in a forked worker that is the parent's ``parallel.run`` span, whose
    context the child inherits with the rest of the parent's memory.

    Deferred imports keep this module importable without dragging in the
    whole measurement stack (and they are free after the first shard).
    """
    from repro.harness.resultstore import result_store_stats
    from repro.harness.sweep import cell_payload
    from repro.workloads.spec2000 import trace_cache_info
    from repro.workloads.store import store_stats

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
        payload = cell_payload(shard, cfg, spec_payload)
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

#: ShardOutcome fields a checkpoint keeps under ``worker`` (besides the PID).
_WORKER_FIELDS = (
    "duration_seconds", "retries", "regenerated", "errors",
    "trace_cache", "trace_store", "result_store",
)


class CheckpointStore:
    """Per-shard JSON checkpoints plus the run manifest of one run directory."""

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        self.shard_dir = os.path.join(run_dir, "shards")
        os.makedirs(self.shard_dir, exist_ok=True)

    def load(self, shard: Shard) -> ShardOutcome | None:
        """The checkpointed outcome for ``shard``, or None if absent/invalid."""
        try:
            with open(self._shard_path(shard), encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if data.get("schema") != CHECKPOINT_SCHEMA or data.get("shard") != asdict(shard):
            return None
        worker = data.get("worker") or {}
        return ShardOutcome(
            shard=shard,
            payload=data["payload"],
            worker_pid=worker.get("pid", 0),
            **{name: worker[name] for name in _WORKER_FIELDS if name in worker},
        )

    def store(self, outcome: ShardOutcome) -> None:
        """Atomically persist one finished shard.

        A writer killed mid-write leaves only a ``*.tmp.<pid>`` staging
        file, which ``load`` never reads.
        """
        worker = {"pid": outcome.worker_pid}
        worker.update({name: getattr(outcome, name) for name in _WORKER_FIELDS})
        atomic_write_json(
            self._shard_path(outcome.shard),
            {
                "schema": CHECKPOINT_SCHEMA,
                "shard": asdict(outcome.shard),
                "payload": outcome.payload,
                "worker": worker,
            },
        )

    def write_manifest(self, summary: dict) -> str:
        """Write the run-level manifest (shard timings, retries, failures)."""
        path = os.path.join(self.run_dir, "manifest.json")
        atomic_write_json(path, summary)
        return path

    def _shard_path(self, shard: Shard) -> str:
        return os.path.join(self.shard_dir, f"{shard.key}.json")
