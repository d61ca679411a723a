"""Campaign orchestrator: classify -> plan -> execute over a shared run dir.

The campaign is the one scheduler for sweep cells beyond the plain serial
loop.  :func:`execute` runs a sweep's grid as a campaign — the route behind
``--jobs N`` and ``--run-dir`` — and ``repro-campaign`` and the prediction
service drive the same classify/plan/work/merge steps directly.  It builds
on the per-cell layer in :mod:`repro.harness.parallel` (shards, the cell
function, checkpoints) and on the content-addressed trace and result
stores.

**Classification** (the ProjectScylla ``rerun_agents.py`` model).  Every cell
of a campaign's shard universe lands in exactly one class:

========================  =====================================  ============
class                     evidence                               action
========================  =====================================  ============
``completed``             valid checkpoint under the final name  skip
``partial``               torn checkpoint (unparseable /wrong    re-execute
                          schema / shard mismatch), a stale
                          ``*.tmp.<pid>`` staging file, or a
                          claim file with no checkpoint (worker
                          died mid-cell)
``failed``                failure marker (retry budget            re-execute
                          exhausted on a previous run)
``results_missing``       no checkpoint, but the result store    regenerate
                          has the cell's payload — assemble the  (no predictor
                          checkpoint from the store              work)
``missing``               none of the above                      execute
========================  =====================================  ============

Precedence: completed > partial(torn) > failed > partial(claim) >
results_missing > missing.

**Work queue.**  ``plan`` enqueues one JSON entry per actionable cell under
``<run_dir>/queue/``; any number of worker processes — on any number of
machines sharing the run directory — pull from it.  Mutual exclusion is one
claim file per cell under ``<run_dir>/claims/``, created with
``O_CREAT|O_EXCL`` (:func:`repro.common.atomic.exclusive_create_json`): the
create-or-fail race has exactly one winner.  A claim is presumed abandoned
— and may be *stolen* — when the process it names is gone from this host,
or, for a claim from another host (or a PID since reused), once it is older
than ``REPRO_CAMPAIGN_STALE_SECONDS``.  The steal is serialized by an atomic
rename of the claim to a tombstone — ``rename(2)`` succeeds for exactly one
stealer, so two workers can never both adopt the same dead cell.
Completion order is checkpoint -> dequeue -> release claim, so a crash at
any point leaves evidence the scanner maps back to a class that
re-converges.

**Retries** are requeue-with-budget: a failing cell goes back on the queue
with its attempt count (and the error) recorded until ``max_retries`` is
exhausted, at which point a failure marker is written and the cell
classifies as ``failed`` until a rerun clears it.

**The sweep executor** (:func:`execute`).  A sweep's shards join the
campaign pinned in its run directory (a temporary one when none is given):
one run directory serves every sweep of a figure run, each adding its
shards to the universe under the same pinned per-kind configuration.  The
executor plans the cells not yet checkpointed, then drains the queue with
``jobs`` workers — one in-process, or ``jobs`` forked :func:`run_worker`
processes, which return as soon as nothing is left for them to claim — and
assembles the outcomes in canonical order from the checkpoints.  A forked
worker that dies costs the cell it held one retry; a cell whose budget runs
out fails the run with :class:`SweepExecutionError`.  The run summary goes
to ``<run_dir>/manifest.json``, the event log, and the obs manifest.

Classification, claim, steal, and requeue all emit versioned events on the
:mod:`repro.obs.events` bus (no-ops without ``REPRO_LOG``), and each worker
ends with a ``campaign.worker`` run summary whose ``campaign.cells_executed``
counter is the zero-duplication proof: summed across all workers of a
campaign it must equal the number of planned executions exactly.

Environment:

* ``REPRO_CAMPAIGN_STALE_SECONDS`` — age beyond which a claim may be stolen
  when its owner's liveness cannot be checked (default 600; must exceed the
  slowest single cell's execution time);
* ``REPRO_CAMPAIGN_POLL_SECONDS`` — idle worker poll interval (default 0.2;
  0 = never wait: return once nothing is left to claim);
* ``REPRO_CAMPAIGN_ABORT_AFTER=K`` — test hook: a worker dies (RuntimeError)
  after K executed cells *while holding its next claim*, manufacturing the
  dead-claim / partial evidence the crash drills classify and steal.
"""

from __future__ import annotations

import json
import math
import os
import socket
import tempfile
import time
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from repro import obs
from repro.common.atomic import (
    atomic_write_json,
    exclusive_create_json,
    stale_tmp_siblings,
)
from repro.common.errors import ConfigurationError, ReproError
from repro.harness import parallel
from repro.harness.parallel import (
    CHECKPOINT_SCHEMA,
    STORE_STAT_KEYS,
    CheckpointStore,
    Shard,
    ShardOutcome,
    SweepExecutionError,
    resolve_max_retries,
)
from repro.obs import events as obs_events
from repro.obs.manifest import RUN_REPORTS

#: Bumped when the campaign/queue/claim file layout changes.
CAMPAIGN_SCHEMA = 1

#: The five run classes, in display order.
CLASSES = ("completed", "results_missing", "failed", "partial", "missing")

#: What the planner does about each class.
ACTIONS = {
    "completed": "skip",
    "results_missing": "regenerate",
    "failed": "execute",
    "partial": "execute",
    "missing": "execute",
}

#: Default seconds before an untouched claim is presumed abandoned.
DEFAULT_STALE_SECONDS = 600.0

#: Default idle-worker poll interval.
DEFAULT_POLL_SECONDS = 0.2

#: ``--status`` spellings accepted for each canonical class.
STATUS_ALIASES = {
    "completed": "completed",
    "results": "results_missing",
    "results-missing": "results_missing",
    "results_missing": "results_missing",
    "failed": "failed",
    "partial": "partial",
    "missing": "missing",
}


class CampaignError(ReproError):
    """A campaign operation failed (bad layout, incomplete merge, ...)."""


def stale_seconds_default() -> float:
    """The stale-claim threshold (``REPRO_CAMPAIGN_STALE_SECONDS``)."""
    raw = os.environ.get("REPRO_CAMPAIGN_STALE_SECONDS", "").strip()
    if not raw:
        return DEFAULT_STALE_SECONDS
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_CAMPAIGN_STALE_SECONDS must be a number, got {raw!r}"
        ) from None
    if value <= 0:
        raise ConfigurationError(f"stale seconds must be > 0, got {value}")
    return value


def poll_seconds_default() -> float:
    """The idle-worker poll interval (``REPRO_CAMPAIGN_POLL_SECONDS``)."""
    raw = os.environ.get("REPRO_CAMPAIGN_POLL_SECONDS", "").strip()
    if not raw:
        return DEFAULT_POLL_SECONDS
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"REPRO_CAMPAIGN_POLL_SECONDS must be a number, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigurationError(f"poll seconds must be >= 0, got {value}")
    return value


def normalize_statuses(raw: str | list[str]) -> list[str]:
    """Canonical class names for a ``--status`` value (comma-separable)."""
    if isinstance(raw, str):
        raw = raw.split(",")
    names = []
    for item in raw:
        item = item.strip().lower()
        if not item:
            continue
        canonical = STATUS_ALIASES.get(item)
        if canonical is None:
            raise ConfigurationError(
                f"unknown status {item!r}; choose from "
                + ", ".join(sorted(set(STATUS_ALIASES)))
            )
        if canonical not in names:
            names.append(canonical)
    if not names:
        raise ConfigurationError("no statuses given")
    return names


# -- on-disk layout ------------------------------------------------------------


class CampaignLayout:
    """Path arithmetic for one campaign's shared run directory.

    ::

        <run_dir>/
          campaign.json            shard universe + per-kind config (the one pin)
          shards/<key>.json        completed-cell checkpoints
          shards/<key>.failed.json failure markers (retry budget exhausted)
          queue/<key>.json         outstanding work units
          claims/<key>.json        live worker claims
          manifest.json            the sweep executor's last run summary
          merged.json              the deterministic merge
    """

    def __init__(self, run_dir: str) -> None:
        self.run_dir = run_dir
        self.shard_dir = os.path.join(run_dir, "shards")
        self.queue_dir = os.path.join(run_dir, "queue")
        self.claim_dir = os.path.join(run_dir, "claims")
        self.campaign_path = os.path.join(run_dir, "campaign.json")
        self.merged_path = os.path.join(run_dir, "merged.json")

    def ensure(self) -> "CampaignLayout":
        for directory in (self.shard_dir, self.queue_dir, self.claim_dir):
            os.makedirs(directory, exist_ok=True)
        return self

    def checkpoint_path(self, shard: Shard) -> str:
        return os.path.join(self.shard_dir, f"{shard.key}.json")

    def failure_path(self, shard: Shard) -> str:
        return os.path.join(self.shard_dir, f"{shard.key}.failed.json")

    def queue_path(self, key: str) -> str:
        return os.path.join(self.queue_dir, f"{key}.json")

    def claim_path(self, key: str) -> str:
        return os.path.join(self.claim_dir, f"{key}.json")


def _read_json(path: str) -> dict | None:
    """``path`` parsed as a JSON object, or None (absent, torn, not a dict)."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return data if isinstance(data, dict) else None


def shard_from_dict(data: dict) -> Shard:
    """Rebuild a :class:`Shard` from its ``asdict`` form."""
    return Shard(
        kind=data["kind"],
        benchmark=data["benchmark"],
        family=data["family"],
        budget_bytes=int(data["budget_bytes"]),
        mode=data.get("mode", ""),
    )


# -- campaign spec -------------------------------------------------------------


def create_campaign(
    run_dir: str,
    shards: list[Shard],
    cfg_by_kind: dict[str, dict],
    label: str = "campaign",
    extend: bool = False,
) -> dict:
    """Create (or idempotently join) the campaign pinned in ``run_dir``.

    The first creator writes ``campaign.json`` — the shard universe in
    canonical merge order plus the per-kind sweep configuration, the run
    directory's one configuration pin.  Later callers (concurrent workers,
    reruns) must present an identical universe and configuration or the
    directory is refused rather than silently mixed.  With ``extend`` (the
    sweep executor: one run directory serves several sweeps) a new grid
    joins instead — its shards are appended to the universe and new kinds
    pinned — but a kind already pinned must still match.
    """
    layout = CampaignLayout(run_dir).ensure()
    spec = json.loads(
        json.dumps(
            {
                "schema": CAMPAIGN_SCHEMA,
                "label": label,
                "cfg": cfg_by_kind,
                "shards": [asdict(shard) for shard in shards],
            }
        )
    )
    existing = _read_json(layout.campaign_path)
    if existing is None:
        atomic_write_json(layout.campaign_path, spec)
        return spec
    if existing.get("schema") != CAMPAIGN_SCHEMA:
        raise ConfigurationError(
            f"{layout.campaign_path} has campaign schema {existing.get('schema')!r}; "
            f"this build reads schema {CAMPAIGN_SCHEMA} — use a fresh run dir"
        )
    for kind, cfg in spec["cfg"].items():
        pinned = existing["cfg"].get(kind)
        if pinned is not None and pinned != cfg:
            raise ConfigurationError(
                f"run directory {run_dir!r} was created with a different "
                f"{kind}-sweep configuration; resume with the original "
                f"REPRO_SCALE/REPRO_ENGINE/machine settings or use a fresh "
                f"--run-dir (pinned: {pinned}, requested: {cfg})"
            )
    if extend:
        known = {shard_from_dict(item).key for item in existing["shards"]}
        new = [item for shard, item in zip(shards, spec["shards"]) if shard.key not in known]
        if new or not spec["cfg"].keys() <= existing["cfg"].keys():
            existing["shards"] += new
            existing["cfg"].update(spec["cfg"])
            atomic_write_json(layout.campaign_path, existing)
        return existing
    if existing.get("shards") != spec["shards"] or existing.get("cfg") != spec["cfg"]:
        raise ConfigurationError(
            f"run directory {run_dir!r} already holds a different campaign "
            f"(label {existing.get('label')!r}); use a fresh run dir or rerun "
            f"with the original grid and configuration"
        )
    return existing


def load_campaign(run_dir: str) -> dict:
    """The campaign pinned in ``run_dir`` (raises without one)."""
    layout = CampaignLayout(run_dir)
    spec = _read_json(layout.campaign_path)
    if spec is None:
        raise CampaignError(
            f"{layout.campaign_path} not found or unreadable — create the "
            f"campaign first (repro-campaign run) before scanning it"
        )
    if spec.get("schema") != CAMPAIGN_SCHEMA:
        raise CampaignError(
            f"{layout.campaign_path} has campaign schema {spec.get('schema')!r}; "
            f"this build reads schema {CAMPAIGN_SCHEMA}"
        )
    return spec


def campaign_shards(spec: dict) -> list[Shard]:
    """The campaign's shard universe, in canonical merge order."""
    return [shard_from_dict(item) for item in spec["shards"]]


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class CellStatus:
    """One classified cell: the shard, its class, and the planned action."""

    shard: Shard
    status: str

    @property
    def action(self) -> str:
        return ACTIONS[self.status]


def _checkpoint_state(layout: CampaignLayout, shard: Shard) -> str:
    """``"valid"`` / ``"torn"`` / ``"absent"`` for one cell's checkpoint.

    Torn means *evidence of an interrupted write*: a file under the final
    name that does not parse, carries the wrong schema, or describes a
    different shard — or a leftover ``*.tmp.<pid>`` staging sibling with no
    valid final file.  ``CheckpointStore.load`` collapses all of those to
    "absent" (correct for resume); classification must keep them distinct
    because a torn checkpoint proves a worker died *here*.
    """
    path = layout.checkpoint_path(shard)
    data = _read_json(path)
    if data is not None:
        if data.get("schema") == CHECKPOINT_SCHEMA and data.get("shard") == asdict(shard):
            return "valid"
        return "torn"
    if os.path.exists(path):
        return "torn"  # present but unreadable/unparseable: killed mid-write
    if stale_tmp_siblings(path):
        return "torn"
    return "absent"


def classify_shard(
    shard: Shard,
    layout: CampaignLayout | None = None,
    result_store=None,
    cfg: dict | None = None,
) -> str:
    """The class of one cell (see the module table).

    With a ``layout`` the full five-class evidence chain applies.  Without
    one (figconfig's pure-store classification, where no run directory
    exists) the result store is the only evidence: hit -> ``completed``,
    miss -> ``missing``.
    """
    hit = None
    if result_store is not None and cfg is not None:
        from repro.harness.sweep import cell_result_key

        key, cell = cell_result_key(shard, cfg)
        hit = result_store.probe(key, cell)
    if layout is None:
        return "completed" if hit else "missing"
    state = _checkpoint_state(layout, shard)
    if state == "valid":
        return "completed"
    if state == "torn":
        return "partial"
    if os.path.exists(layout.failure_path(shard)):
        return "failed"
    if os.path.exists(layout.claim_path(shard.key)):
        return "partial"
    if hit:
        return "results_missing"
    return "missing"


def scan(
    run_dir: str,
    shards: list[Shard] | None = None,
    cfg_by_kind: dict[str, dict] | None = None,
    label: str = "",
) -> list[CellStatus]:
    """Classify every cell of the campaign in ``run_dir``.

    ``shards``/``cfg_by_kind`` default to the pinned ``campaign.json``.
    Emits one ``classify`` event with the per-class counts.
    """
    if shards is None or cfg_by_kind is None:
        spec = load_campaign(run_dir)
        shards = campaign_shards(spec) if shards is None else shards
        cfg_by_kind = spec["cfg"] if cfg_by_kind is None else cfg_by_kind
        label = label or spec.get("label", "")
    layout = CampaignLayout(run_dir)
    from repro.harness.resultstore import active_result_store

    result_store = active_result_store()
    cells = [
        CellStatus(
            shard,
            classify_shard(
                shard,
                layout=layout,
                result_store=result_store,
                cfg=cfg_by_kind.get(shard.kind),
            ),
        )
        for shard in shards
    ]
    obs_events.emit_classify(class_counts(cells), label=label or "campaign.scan")
    return cells


def class_counts(cells: list[CellStatus]) -> dict[str, int]:
    """Per-class cell counts, zero-filled over all five classes."""
    counts = dict.fromkeys(CLASSES, 0)
    for cell in cells:
        counts[cell.status] += 1
    return counts


# -- work queue ----------------------------------------------------------------


class WorkQueue:
    """The file-locked on-disk work queue under ``<run_dir>/queue``.

    Entries are one JSON file per cell; claims are one JSON file per cell
    under ``<run_dir>/claims``.  Everything is safe against concurrent
    workers on machines that only share the filesystem: entry writes are
    atomic renames, claims are ``O_EXCL`` creates, and steals are
    serialized by the tombstone rename (exactly one ``rename(2)`` caller
    sees the source file).
    """

    def __init__(self, layout: CampaignLayout) -> None:
        self.layout = layout

    # entries ------------------------------------------------------------

    def enqueue(
        self, shard: Shard, action: str, attempts: int = 0, errors: list[str] | None = None
    ) -> None:
        """Idempotently (re)write one work unit; ``errors`` are those of its
        failed attempts so far."""
        atomic_write_json(
            self.layout.queue_path(shard.key),
            {
                "schema": CAMPAIGN_SCHEMA,
                "shard": asdict(shard),
                "action": action,
                "attempts": attempts,
                "errors": errors or [],
            },
        )

    def entry(self, key: str) -> dict | None:
        """The current entry for ``key`` (None once dequeued)."""
        data = _read_json(self.layout.queue_path(key))
        if data is None or data.get("schema") != CAMPAIGN_SCHEMA:
            return None
        return data

    def keys(self) -> list[str]:
        """Outstanding work-unit keys, sorted for deterministic pull order."""
        try:
            names = os.listdir(self.layout.queue_dir)
        except OSError:
            return []
        return sorted(
            name[: -len(".json")]
            for name in names
            if name.endswith(".json") and ".tmp." not in name
        )

    def dequeue(self, key: str) -> None:
        try:
            os.unlink(self.layout.queue_path(key))
        except OSError:
            pass

    # claims -------------------------------------------------------------

    def try_claim(self, key: str, owner: str, stale_seconds: float) -> str | None:
        """Claim ``key`` for ``owner``: ``"claimed"``, ``"stolen"``, or None.

        None means another worker holds a live claim — skip the cell and
        come back later.  A claim naming a process that no longer exists on
        this host is stolen at once; any other claim only once its ``ts`` is
        older than ``stale_seconds`` (an unreadable claim goes by its file
        clock).  To steal, the claim file is renamed to a PID-suffixed
        tombstone first, and since exactly one concurrent ``rename`` of the
        same source succeeds, exactly one stealer proceeds to re-create the
        claim — via the same ``O_EXCL`` create a fresh claimer uses, so a
        stealer can still lose to a faster fresh claimer and back off.
        """
        path = self.layout.claim_path(key)
        claim = {
            "schema": CAMPAIGN_SCHEMA,
            "owner": owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "ts": time.time(),
        }
        if exclusive_create_json(path, claim):
            return "claimed"
        existing = _read_json(path)
        if existing is not None:
            # Another host's claim, or a reused PID, leaves only the age rule.
            if _owner_dead(existing):
                age = math.inf
            else:
                age = time.time() - float(existing.get("ts", 0.0))
        else:
            # Unreadable claim: fall back to the file clock rather than
            # presuming its writer dead — claims are published with their
            # content (link trick), so this is a legacy/corrupt file, and
            # mtime still bounds how long its owner could have been alive.
            try:
                age = time.time() - os.stat(path).st_mtime
            except OSError:
                return None  # vanished under us: released or stolen; move on
        if age < stale_seconds:
            return None
        tombstone = f"{path}.stale.{os.getpid()}"
        try:
            os.rename(path, tombstone)
        except OSError:
            return None  # another stealer won the rename
        try:
            os.unlink(tombstone)
        except OSError:
            pass
        if exclusive_create_json(path, claim):
            return "stolen"
        return None

    def release(self, key: str) -> None:
        try:
            os.unlink(self.layout.claim_path(key))
        except OSError:
            pass

    def held_by(self, pid: int) -> list[str]:
        """Keys whose claim names process ``pid`` on this host."""
        try:
            names = os.listdir(self.layout.claim_dir)
        except OSError:
            return []
        host = socket.gethostname()
        keys = []
        for name in sorted(names):
            if not name.endswith(".json"):
                continue  # staging files and tombstones
            claim = _read_json(os.path.join(self.layout.claim_dir, name))
            if claim and claim.get("pid") == pid and claim.get("host") == host:
                keys.append(name[: -len(".json")])
        return keys


def _owner_dead(claim: dict) -> bool:
    """True when ``claim`` names a process on this host that has exited."""
    pid = claim.get("pid")
    if claim.get("host") != socket.gethostname() or not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        pass  # alive, owned by another user
    return False


# -- planner -------------------------------------------------------------------


def plan(
    run_dir: str,
    statuses: list[str] | None = None,
    cells: list[CellStatus] | None = None,
) -> dict[str, int]:
    """Turn a scan into queued work; returns per-action planned counts.

    Every actionable cell (anything but ``completed``) is enqueued —
    restricted to ``statuses`` when given (the ``rerun --status`` path).
    Planning a ``failed`` or ``partial`` cell clears its stale evidence
    (failure marker, torn checkpoint, staging droppings) so the fresh
    execution starts from a clean slate; live claims are deliberately left
    alone — the stale-claim steal in :meth:`WorkQueue.try_claim` is the
    only codepath allowed to break one.
    """
    layout = CampaignLayout(run_dir).ensure()
    queue = WorkQueue(layout)
    if cells is None:
        cells = scan(run_dir)
    planned = {"execute": 0, "regenerate": 0, "skip": 0}
    for cell in cells:
        if statuses is not None and cell.status not in statuses:
            continue
        if cell.action == "skip":
            planned["skip"] += 1
            continue
        if cell.status == "failed":
            try:
                os.unlink(layout.failure_path(cell.shard))
            except OSError:
                pass
        if cell.status == "partial":
            checkpoint = layout.checkpoint_path(cell.shard)
            for stale in stale_tmp_siblings(checkpoint):
                try:
                    os.unlink(stale)
                except OSError:
                    pass
            data = _read_json(checkpoint)
            if data is None or data.get("schema") != CHECKPOINT_SCHEMA or data.get(
                "shard"
            ) != asdict(cell.shard):
                try:
                    os.unlink(checkpoint)
                except OSError:
                    pass
        queue.enqueue(cell.shard, cell.action)
        planned[cell.action] += 1
    return planned


# -- worker --------------------------------------------------------------------


def _shard_spec_payloads(shards: list[Shard]) -> dict[tuple[str, int], dict | None]:
    """Serialized specs keyed by (family, budget): sizing runs once per
    worker, and cells rebuild bit-identical predictors from the embedded
    configs.  A family the registry cannot resolve maps to None — the cell
    then builds through the registry (and raises the same error the serial
    path would)."""
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


def run_worker(
    run_dir: str,
    owner: str | None = None,
    stale_seconds: float | None = None,
    poll_seconds: float | None = None,
    max_retries: int | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> dict:
    """Pull work units from the campaign queue until it drains.

    One call = one worker.  Run any number of these concurrently against
    the same run directory (locally or across machines sharing it); the
    claim protocol guarantees each cell executes exactly once barring
    crashes, and crash recovery is a rescan away.  While every outstanding
    cell is claimed by another live worker the worker polls every
    ``poll_seconds``; with ``poll_seconds=0`` it returns instead (the sweep
    executor's workers, whose parent rescans after joining them).

    ``should_stop`` is polled between cells (never mid-cell): when it goes
    truthy the worker finishes the cell it holds, releases its claim, and
    returns with summary status ``"stopped"`` — the graceful-drain hook the
    prediction service's SIGTERM path uses.  A stopped worker leaves the
    queue intact; rescanning and rerunning later re-converges.

    Returns (and emits as a ``campaign.worker`` run summary) this worker's
    counters: ``cells_executed``, ``cells_regenerated``, ``claims``,
    ``steals``, ``requeues``, ``failures``.
    """
    spec = load_campaign(run_dir)
    cfg_by_kind = spec["cfg"]
    layout = CampaignLayout(run_dir).ensure()
    queue = WorkQueue(layout)
    store = CheckpointStore(run_dir)
    owner = owner or f"{socket.gethostname()}:{os.getpid()}"
    stale_seconds = stale_seconds if stale_seconds is not None else stale_seconds_default()
    poll_seconds = poll_seconds if poll_seconds is not None else poll_seconds_default()
    max_retries = resolve_max_retries(max_retries)
    abort_after = int(os.environ.get("REPRO_CAMPAIGN_ABORT_AFTER", "0") or "0")
    spec_payloads = _shard_spec_payloads(campaign_shards(spec))
    obs.claim_log_ownership()
    counters = {
        "cells_executed": 0,
        "cells_regenerated": 0,
        "claims": 0,
        "steals": 0,
        "requeues": 0,
        "failures": 0,
    }
    status = "completed"
    started = time.perf_counter()
    # A worker started under a live span (the sweep executor's parallel.run,
    # a traced service request) parents its shard spans straight to it; a
    # standalone worker roots its own trace.
    root = obs.current_context() is None
    try:
        with obs.span("campaign.worker", owner=owner, run_dir=run_dir) if root else nullcontext():
            stopped = False
            while not stopped:
                keys = queue.keys()
                if not keys:
                    break
                progressed = False
                for key in keys:
                    if should_stop is not None and should_stop():
                        stopped = True
                        break
                    claim = queue.try_claim(key, owner, stale_seconds)
                    if claim is None:
                        continue
                    progressed = True
                    counters["claims"] += 1
                    if claim == "stolen":
                        counters["steals"] += 1
                    obs_events.emit_claim(key, owner, stolen=claim == "stolen")
                    # A raise out of _work_one (the abort drill, or anything
                    # unexpected) deliberately leaves the claim held — that
                    # is exactly the evidence a crashed worker leaves, and
                    # the steal path is how it gets cleaned up.
                    _work_one(
                        key, queue, store, layout, cfg_by_kind, spec_payloads,
                        counters, max_retries, abort_after,
                    )
                    queue.release(key)
                if not stopped and not progressed and queue.keys():
                    # Everything outstanding is claimed by live workers;
                    # wait for them to finish, fail, or go stale.
                    if not poll_seconds:
                        break
                    time.sleep(poll_seconds)
            if stopped:
                status = "stopped"
    except BaseException:
        status = "aborted"
        raise
    finally:
        summary = {
            "schema": CAMPAIGN_SCHEMA,
            "owner": owner,
            "status": status,
            "wall_seconds": time.perf_counter() - started,
            "cells": dict(counters),
        }
        obs_events.emit_counter(
            {f"campaign.{name}": value for name, value in counters.items()}
        )
        obs_events.emit_run_summary("campaign.worker", summary)
    return counters


def _work_one(
    key: str,
    queue: WorkQueue,
    store: CheckpointStore,
    layout: CampaignLayout,
    cfg_by_kind: dict[str, dict],
    spec_payloads: dict,
    counters: dict[str, int],
    max_retries: int,
    abort_after: int,
) -> None:
    """Process one claimed work unit.

    The entry is re-read *after* claiming: a worker that completed the cell
    moments ago dequeued it before releasing its claim, so a vanished entry
    (or an already-valid checkpoint) means the work is done, not ours.
    """
    entry = queue.entry(key)
    if entry is None:
        return
    shard = shard_from_dict(entry["shard"])
    if store.load(shard) is not None:
        queue.dequeue(key)
        return
    done = counters["cells_executed"] + counters["cells_regenerated"]
    if abort_after and done >= abort_after:
        # Crash drill: die holding this claim, leaving the dead-claim /
        # still-queued evidence the scanner must classify as partial.
        raise RuntimeError(
            f"aborted by REPRO_CAMPAIGN_ABORT_AFTER={abort_after} "
            f"after {done} cells (claim {key} left held)"
        )
    cfg = cfg_by_kind.get(shard.kind)
    if cfg is None:
        raise CampaignError(f"campaign has no configuration for kind {shard.kind!r}")
    attempt = int(entry.get("attempts", 0))
    try:
        # Resolved per call: the module attribute may be wrapped.
        result = parallel._execute_shard(
            shard, cfg, attempt, spec_payloads.get((shard.family, shard.budget_bytes))
        )
    except Exception as exc:
        counters["failures"] += 1
        error = f"{type(exc).__name__}: {exc}"
        if _record_failure(queue, layout, shard, entry, error, max_retries):
            counters["requeues"] += 1
        return
    # A cell planned for regeneration that the result store served: no
    # trace was loaded and no predictor built.
    regenerated = entry.get("action") == "regenerate" and result["result_store"]["hits"] > 0
    store.store(
        ShardOutcome(
            shard=shard,
            payload=result["payload"],
            duration_seconds=result["duration_seconds"],
            worker_pid=os.getpid(),
            retries=attempt,
            regenerated=regenerated,
            errors=entry.get("errors", []),
            trace_cache=result["trace_cache"],
            trace_store=result["trace_store"],
            result_store=result["result_store"],
        )
    )
    obs_events.emit_checkpoint(key, "store")
    counters["cells_regenerated" if regenerated else "cells_executed"] += 1
    queue.dequeue(key)


def _record_failure(
    queue: WorkQueue,
    layout: CampaignLayout,
    shard: Shard,
    entry: dict,
    error: str,
    max_retries: int,
) -> bool:
    """Charge the cell one failed attempt: requeue it while the retry
    budget lasts (True), else write its failure marker and dequeue it."""
    attempt = int(entry.get("attempts", 0))
    errors = [*entry.get("errors", []), error]
    obs_events.emit_retry(shard.key, attempt, error)
    if attempt < max_retries:
        queue.enqueue(shard, entry.get("action", "execute"), attempt + 1, errors)
        obs_events.emit_requeue(shard.key, attempt + 1, error)
        return True
    atomic_write_json(
        layout.failure_path(shard),
        {
            "schema": CAMPAIGN_SCHEMA,
            "shard": asdict(shard),
            "attempts": attempt + 1,
            "error": error,
            "errors": errors,
            "ts": time.time(),
        },
    )
    queue.dequeue(shard.key)
    return False


# -- sweep executor ------------------------------------------------------------


def execute(
    shards: list[Shard],
    cfg: dict,
    jobs: int = 1,
    run_dir: str | None = None,
    max_retries: int | None = None,
    label: str = "sweep",
) -> list[ShardOutcome]:
    """Run one sweep's ``shards`` (all of one kind) as a campaign; returns
    their outcomes in input order — the canonical order, so merged results
    are deterministic.

    ``cfg`` is the kind's JSON-able sweep configuration, pinned in the
    campaign; with ``run_dir`` every finished cell stays checkpointed
    there, and a rerun skips it.  Without one, the campaign lives in a
    temporary directory for the duration of the call.
    """
    if not shards:
        return []
    max_retries = resolve_max_retries(max_retries)
    if run_dir is not None:
        return _execute(shards, cfg, jobs, run_dir, max_retries, label, fresh=False)
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
        return _execute(shards, cfg, jobs, tmp, max_retries, label, fresh=True)


def _execute(
    shards: list[Shard],
    cfg: dict,
    jobs: int,
    run_dir: str,
    max_retries: int,
    label: str,
    fresh: bool,
) -> list[ShardOutcome]:
    """:func:`execute` on a concrete run directory (``fresh``: just made)."""
    # Own the REPRO_LOG file before any worker forks: workers inherit the
    # owner PID and route their events to per-PID sidecars.
    obs.claim_log_ownership()
    cfg_by_kind = {shards[0].kind: cfg}
    create_campaign(run_dir, shards, cfg_by_kind, label=label, extend=True)
    layout = CampaignLayout(run_dir)
    store = CheckpointStore(run_dir)
    if fresh:
        # An empty directory holds no evidence; the result store is
        # consulted per cell as it executes.
        cells = [CellStatus(shard, "missing") for shard in shards]
    else:
        cells = scan(run_dir, shards, cfg_by_kind, label=label)
    resumed = {cell.shard.key for cell in cells if cell.status == "completed"}
    plan(run_dir, cells=cells)
    pending = [shard for shard in shards if shard.key not in resumed]
    status = "completed"
    started = time.perf_counter()
    try:
        with obs.span(
            "parallel.run", label=label, jobs=jobs, shards=len(shards), resumed=len(resumed)
        ):
            while pending:
                dead, charged = _drain(run_dir, jobs, max_retries)
                left = [s for s in pending if not os.path.exists(layout.checkpoint_path(s))]
                for shard in left:
                    marker = _read_json(layout.failure_path(shard))
                    if marker is not None:
                        raise SweepExecutionError(
                            f"shard {shard.key} failed {marker.get('attempts')} times "
                            f"(max_retries={max_retries}); last error: {marker.get('error')}"
                        )
                if len(left) == len(pending) and not charged:
                    if dead:
                        raise SweepExecutionError(
                            f"{dead} worker process(es) died outside any cell "
                            f"and none finished one"
                        )
                    # Every cell left is claimed by a live worker elsewhere;
                    # wait for it to finish, fail, or go stale.
                    time.sleep(poll_seconds_default())
                pending = left
    except SweepExecutionError:
        status = "failed"
        raise
    except BaseException:
        status = "aborted"
        raise
    finally:
        outcomes = {shard.key: store.load(shard) for shard in shards}
        summary = _summarize(
            label, jobs, max_retries, shards, outcomes, resumed, layout, status,
            time.perf_counter() - started,
        )
        _publish(summary, jobs)
        store.write_manifest(summary)
    return [outcomes[shard.key] for shard in shards]


def _drain(run_dir: str, jobs: int, max_retries: int) -> tuple[int, bool]:
    """Work the queue with ``jobs`` workers until none finds anything left
    to claim; returns (worker processes that died, whether any of them held
    a cell, which is then charged one retry).

    One worker runs in this process.  More are forked — so they inherit the
    open ``parallel.run`` span, the event-log ownership and any wrapped
    functions — and joined.  The claim a dead worker held stays in place:
    its owner is gone, so the next claimer steals it at once.
    """
    layout = CampaignLayout(run_dir)
    queue = WorkQueue(layout)
    if jobs == 1:
        try:
            run_worker(run_dir, poll_seconds=0, max_retries=max_retries)
        except BaseException:
            # This process outlives its worker: release the claim the worker
            # died holding, or a resume here would wait it out.
            for key in queue.held_by(os.getpid()):
                queue.release(key)
            raise
        return 0, False
    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers = [
        context.Process(
            target=run_worker,
            args=(run_dir,),
            kwargs={"poll_seconds": 0, "max_retries": max_retries},
        )
        for _ in range(jobs)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    dead = [worker for worker in workers if worker.exitcode != 0]
    charged = False
    for worker in dead:
        for key in queue.held_by(worker.pid):
            entry = queue.entry(key)
            if entry is None:
                continue
            shard = shard_from_dict(entry["shard"])
            if os.path.exists(layout.checkpoint_path(shard)):
                continue  # died after checkpointing: the cell is done
            error = f"worker {worker.pid} died (exit code {worker.exitcode})"
            _record_failure(queue, layout, shard, entry, error, max_retries)
            charged = True
    return len(dead), charged


def _summarize(
    label: str,
    jobs: int,
    max_retries: int,
    shards: list[Shard],
    outcomes: dict[str, ShardOutcome | None],
    resumed: set[str],
    layout: CampaignLayout,
    status: str,
    wall_seconds: float,
) -> dict:
    """The run manifest body: per-shard timings, worker load, retries and
    failures of this run (resumed cells count only as resumed)."""
    workers: dict[str, dict] = {}
    cache = {"hits": 0, "misses": 0}
    store_totals = dict.fromkeys(STORE_STAT_KEYS, 0)
    result_totals = dict.fromkeys(STORE_STAT_KEYS, 0)
    counts = {"executed": 0, "regenerated": 0}
    timings = []
    failures = []
    for shard in shards:
        outcome = outcomes[shard.key]
        old = shard.key in resumed
        if outcome is not None:
            timings.append(
                {
                    "shard": shard.key,
                    "seconds": outcome.duration_seconds,
                    "pid": outcome.worker_pid,
                    "retries": outcome.retries,
                    "from_checkpoint": old,
                    "regenerated": outcome.regenerated,
                }
            )
        if old:
            continue
        if outcome is None:
            errors = (_read_json(layout.failure_path(shard)) or {}).get("errors", [])
        else:
            errors = outcome.errors
        failures += [
            {"shard": shard.key, "attempt": attempt, "error": error}
            for attempt, error in enumerate(errors)
        ]
        if outcome is None:
            continue
        counts["regenerated" if outcome.regenerated else "executed"] += 1
        worker = workers.setdefault(
            str(outcome.worker_pid),
            {"shards": 0, "seconds": 0.0, "trace_store": dict.fromkeys(STORE_STAT_KEYS, 0)},
        )
        worker["shards"] += 1
        worker["seconds"] += outcome.duration_seconds
        for key in cache:
            cache[key] += outcome.trace_cache.get(key, 0)
        for key in STORE_STAT_KEYS:
            worker["trace_store"][key] += outcome.trace_store.get(key, 0)
            store_totals[key] += outcome.trace_store.get(key, 0)
            result_totals[key] += outcome.result_store.get(key, 0)
    return {
        "schema": CHECKPOINT_SCHEMA,
        "label": label,
        "status": status,
        "jobs": jobs,
        "max_retries": max_retries,
        "wall_seconds": wall_seconds,
        "shards": {
            "total": len(shards),
            "resumed": len(resumed),
            **counts,
            "incomplete": len(shards) - len(resumed) - sum(counts.values()),
        },
        "retries": len(failures),
        "failures": failures,
        "workers": workers,
        "trace_cache": cache,
        "trace_store": store_totals,
        "result_store": result_totals,
        "shard_timings": timings,
    }


def _publish(summary: dict, jobs: int) -> None:
    """Hand the run summary to the obs manifest, the event log and (when
    profiling) the metrics registry."""
    RUN_REPORTS.append(summary)
    # Pull every worker's per-PID sidecar into the main event log and close
    # the trail with the authoritative run summary (the numbers
    # ``repro-stats regress`` gates on).  Both no-op without REPRO_LOG.
    obs_events.collect_worker_events()
    obs_events.emit_counter(
        {f"trace_cache.{key}": value for key, value in summary["trace_cache"].items()}
    )
    obs_events.emit_run_summary(
        summary["label"], {k: v for k, v in summary.items() if k != "shard_timings"}
    )
    if not obs.enabled():
        return
    registry = obs.registry()
    shards = summary["shards"]
    registry.counter("parallel.shards_executed").inc(shards["executed"])
    registry.counter("parallel.shards_resumed").inc(shards["resumed"])
    if shards["regenerated"]:
        registry.counter("parallel.shards_regenerated").inc(shards["regenerated"])
    registry.counter("parallel.retries").inc(summary["retries"])
    for row in summary["shard_timings"]:
        if not row["from_checkpoint"] and not row["regenerated"]:
            registry.timer("parallel.shard_seconds").observe(row["seconds"])
    if jobs > 1:
        # Forked workers' store activity never reaches this process's
        # counters on its own; mirror the aggregated deltas here.
        for store in ("trace_store", "result_store"):
            for key, value in summary[store].items():
                if value:
                    registry.counter(f"{store}.{key}").inc(value)


# -- merge ---------------------------------------------------------------------


def merge(run_dir: str) -> dict:
    """Assemble ``merged.json`` from the campaign's checkpoints.

    Rows are emitted in the canonical order pinned by ``campaign.json``
    and contain only the shard identity and its payload — no PIDs, no
    timings — so a merge is byte-identical across serial, parallel,
    interrupted-and-resumed, and multi-worker campaigns that computed the
    same cells.
    """
    spec = load_campaign(run_dir)
    layout = CampaignLayout(run_dir)
    store = CheckpointStore(run_dir)
    rows = []
    incomplete = []
    for shard in campaign_shards(spec):
        outcome = store.load(shard)
        if outcome is None:
            incomplete.append(shard.key)
            continue
        rows.append({"shard": asdict(shard), "payload": outcome.payload})
    if incomplete:
        raise CampaignError(
            f"campaign in {run_dir!r} is not complete; "
            f"{len(incomplete)} cells lack checkpoints "
            f"(first: {incomplete[0]}) — run workers or rerun failed cells first"
        )
    merged = {
        "schema": CAMPAIGN_SCHEMA,
        "label": spec.get("label", ""),
        "rows": rows,
    }
    atomic_write_json(layout.merged_path, merged)
    return merged
