"""Per-layer time ledger for traced benchmark passes.

``install()`` wraps each layer's public functions from outside the program,
patching every name a caller resolves at call time (a module function
imported into ``repro.harness.sweep`` is patched there as well as in its
home module).  Each wrapper counts calls, busy seconds and a unit of work
(instructions, branches, cache hits).  Layers nest — the cycle simulator
calls the cache, fetch policy and BTB — so the ledger also keeps the time
spent in *outermost* layers: a pass's wall time minus that is the
harness's own overhead (sweep loop, rendering, predictor bookkeeping).

Forked sweep workers inherit the wrappers.  ``install(worker_dir=...)``
also wraps the parallel executor's shard function so that every worker
writes its ledger delta for each shard into ``worker_dir``; the parent
merges those files with :func:`merge_worker_ledgers`.
"""

from __future__ import annotations

import importlib
import json
import os
import time

_perf = time.perf_counter

# Process-wide on purpose: the wrappers patch process-wide names, and each
# traced benchmark child installs them once and exits.
#: layer name -> [calls, seconds, work]
_stats: dict[str, list] = {}
#: [depth of active wrappers, seconds spent in outermost wrappers]
_state = [0, 0.0]
_worker_dir: str | None = None
_worker_seq = [0]
_original_execute_shard = None


def _record(name: str) -> list:
    return _stats.setdefault(name, [0, 0.0, 0.0])


def _timed(fn, layer, work=None):
    """Wrap ``fn`` so each call is charged to ``layer``: a name, or a
    function of the call's ``(args, kwargs)`` giving one.

    ``work(args, kwargs, result)`` gives the call's unit of work.
    """
    fixed = _record(layer) if isinstance(layer, str) else None

    def wrapper(*args, **kwargs):
        rec = fixed or _record(layer(args, kwargs))
        _state[0] += 1
        started = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = _perf() - started
            _state[0] -= 1
            rec[0] += 1
            rec[1] += elapsed
            if _state[0] == 0:
                _state[1] += elapsed
        if work is not None:
            rec[2] += work(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _accuracy_layer(args, kwargs) -> str:
    """``measure_accuracy(predictor, trace, warmup_branches, engine, ...)``
    is charged to ``predictors.<family>.scalar`` or ``batch.<family>`` by
    the predictor's registered family and the engine the program resolves."""
    from repro.harness.experiment import resolve_engine
    from repro.predictors.registry import spec_for_predictor

    predictor = args[0]
    engine = kwargs.get("engine", args[3] if len(args) > 3 else None)
    spec = spec_for_predictor(predictor)
    family = spec.name if spec is not None else type(predictor).__name__
    if resolve_engine(predictor, engine) == "batch":
        return f"batch.{family}"
    return f"predictors.{family}.scalar"


def _branches_evaluated(args, kwargs, result) -> int:
    """Scored branches plus the warm-up branches that trained unscored."""
    return result.branches + kwargs.get("warmup_branches", args[2] if len(args) > 2 else 0)


def _instructions_arg(index: int):
    """Work = the ``instructions`` argument (positional ``index`` after self)."""

    def work(args, kwargs, result):
        if result is None:
            return 0
        return int(kwargs.get("instructions", args[index] if len(args) > index else 0))

    return work


def _hit(args, kwargs, result):
    return 1 if result is not None else 0


#: (module, class or None, attribute, layer, work) — every patch point.
#: Module functions are listed once per module whose callers resolve them.
_PATCHES = [
    ("repro.workloads.program", "ProgramExecutor", "run", "workloads.generate",
     lambda a, k, r: int(k.get("instruction_budget", a[1]))),
    ("repro.workloads.store", "TraceStore", "load", "workloads.store.load",
     _instructions_arg(2)),
    ("repro.workloads.store", "TraceStore", "save", "workloads.store.save",
     _instructions_arg(3)),
    ("repro.predictors.registry", None, "build", "predictors.build", None),
    ("repro.predictors.registry", None, "build_serialized", "predictors.build", None),
    ("repro.uarch.simulator", "CycleSimulator", "__init__", "uarch.setup", None),
    ("repro.uarch.simulator", "CycleSimulator", "run", "uarch.run",
     lambda a, k, r: r.instructions),
    ("repro.uarch.caches", "MemoryHierarchy", "access_instruction", "uarch.cache", None),
    ("repro.uarch.caches", "MemoryHierarchy", "access_data", "uarch.cache", None),
    ("repro.uarch.btb", "BranchTargetBuffer", "lookup", "uarch.btb", None),
    ("repro.uarch.btb", "BranchTargetBuffer", "install", "uarch.btb", None),
    ("repro.harness.resultstore", None, "accuracy_result_key",
     "harness.resultstore.key", None),
    ("repro.harness.resultstore", None, "ipc_result_key", "harness.resultstore.key", None),
    ("repro.harness.sweep", None, "accuracy_result_key", "harness.resultstore.key", None),
    ("repro.harness.sweep", None, "ipc_result_key", "harness.resultstore.key", None),
    ("repro.harness.resultstore", "ResultStore", "load", "harness.resultstore.load", _hit),
    ("repro.harness.resultstore", "ResultStore", "save", "harness.resultstore.save", None),
    ("repro.harness.experiment", None, "measure_accuracy", _accuracy_layer,
     _branches_evaluated),
    ("repro.harness.sweep", None, "measure_accuracy", _accuracy_layer, _branches_evaluated),
]


def install(worker_dir: str | None = None) -> None:
    """Wrap every layer; raises if a patch point no longer exists."""
    global _worker_dir, _original_execute_shard
    for module_name, class_name, attr, layer, work in _PATCHES:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
            fn = owner.__dict__[attr]
        else:
            fn = getattr(owner, attr)
        setattr(owner, attr, _timed(fn, layer, work))
    # Every concrete fetch policy's predict/update: the predictor work the
    # simulator does per branch.
    from repro.uarch.policies import FetchPolicy

    pending = list(FetchPolicy.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr in ("predict", "update", "note_gap"):
            if attr in cls.__dict__:
                setattr(cls, attr, _timed(cls.__dict__[attr], "uarch.policy"))
    if worker_dir is not None:
        from repro.harness import parallel

        _worker_dir = worker_dir
        _original_execute_shard = parallel._execute_shard
        parallel._execute_shard = traced_execute_shard


def traced_execute_shard(*args, **kwargs):
    """The parallel executor's shard function, run in a forked worker: after
    each shard the worker writes the ledger delta the shard produced."""
    before = snapshot()
    try:
        return _original_execute_shard(*args, **kwargs)
    finally:
        _worker_seq[0] += 1
        path = os.path.join(_worker_dir, f"worker-{os.getpid()}-{_worker_seq[0]}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(delta(before, snapshot()), f)


def snapshot() -> dict:
    """The ledger's current totals (a JSON-able copy)."""
    return {
        "layers": {name: list(rec) for name, rec in _stats.items()},
        "outer_s": _state[1],
    }


def delta(before: dict, after: dict) -> dict:
    """What happened between two snapshots."""
    layers = {}
    for name, rec in after["layers"].items():
        old = before["layers"].get(name, [0, 0.0, 0.0])
        diff = [rec[i] - old[i] for i in range(3)]
        if diff[0]:
            layers[name] = diff
    return {"layers": layers, "outer_s": after["outer_s"] - before["outer_s"]}


def merge(ledgers: list[dict]) -> dict:
    """Sum several ledger deltas."""
    layers: dict[str, list] = {}
    outer = 0.0
    for ledger in ledgers:
        outer += ledger["outer_s"]
        for name, rec in ledger["layers"].items():
            total = layers.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                total[i] += rec[i]
    return {"layers": layers, "outer_s": outer}


def merge_worker_ledgers(worker_dir: str) -> tuple[dict, int]:
    """(summed worker ledger, number of worker processes) from ``worker_dir``;
    the files are removed once read."""
    ledgers = []
    pids = set()
    for name in sorted(os.listdir(worker_dir)):
        if not name.startswith("worker-"):
            continue
        path = os.path.join(worker_dir, name)
        with open(path, encoding="utf-8") as f:
            ledgers.append(json.load(f))
        pids.add(name.split("-")[1])
        os.unlink(path)
    return merge(ledgers), len(pids)
