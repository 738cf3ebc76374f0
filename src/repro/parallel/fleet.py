"""Master-side fleet sharding.

This is the dispatch target behind ``run_many_until_stable(...,
n_jobs=...)``: split a fleet of R independent replicas into contiguous
per-worker ranges, publish the distinct graphs once
(:class:`~repro.parallel.shared_graph.SharedGraphStore`), run the
shards under a self-healing
:class:`~repro.parallel.supervisor.SupervisedPool`, and graft each
worker's final process state back onto the caller's original objects.

Resilience contract (PR 9): a crashed worker is respawned and its
shard re-dispatched with bounded backoff; a shard past its deadline is
degraded to an in-process run; a poisoned result is quarantined and
retried; and with a checkpoint journal attached, every completed shard
is persisted *before* any later shard can fail, so an interrupted or
exhausted campaign resumes from its last completed shard.

Determinism contract: every replica owns an independent coin stream
and the batched engines guarantee per-replica trajectories independent
of groupmates, so the results are **bitwise-identical to the serial
path for any worker count, any shard boundaries, and any fault
schedule** — sharding stays a pure wall-clock knob even under chaos.
The shard count equals the *requested* ``n_jobs``
(machine-independent); only the pool width is clamped to the usable
CPUs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.graphs.graph import Graph
from repro.parallel.jobs import GraphRegistry, ShardJob, ShardResult
from repro.parallel.pool import resolve_n_jobs
from repro.parallel.shared_graph import SharedGraphStore
from repro.parallel.supervisor import SupervisedPool
from repro.parallel.worker import run_shard

if TYPE_CHECKING:
    from repro.core.process import MISProcess
    from repro.sim.checkpoint import CheckpointView
    from repro.sim.runner import RunResult


def shard_ranges(count: int, shards: int) -> list[tuple[int, int]]:
    """Split ``count`` items into at most ``shards`` contiguous ranges.

    Ranges are near-equal (sizes differ by at most one), cover
    ``[0, count)`` in order, and are never empty — fewer than ``shards``
    ranges come back when there are fewer items than shards.
    """
    if count <= 0:
        return []
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for i in range(shards):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def fleet_shards(
    n_jobs: int | str | None, pool: SupervisedPool | None
) -> int:
    """Shard count implied by an ``n_jobs`` spec and/or an explicit pool.

    An explicit ``n_jobs`` wins (unclamped — shard shapes are
    machine-independent); with only a pool given, one shard per worker.
    """
    if n_jobs is not None:
        return resolve_n_jobs(n_jobs, clamp=False)
    return pool.workers if pool is not None else 1


def shard_key(lo: int, hi: int) -> str:
    """Journal key of the ``[lo, hi)`` shard's checkpointed result."""
    return f"shard:{lo}:{hi}"


def adopt_state(target: MISProcess, source: MISProcess) -> None:
    """Graft a worker-final process's state onto the master's object.

    The caller keeps its object identity (references to the process
    stay valid); the whole ``__dict__`` is swapped — the process
    classes keep all state there (none defines ``__slots__``), and the
    unpickled source already references the master's own graph and ops
    through the swap tokens of :mod:`repro.parallel.jobs`.
    """
    if type(target) is not type(source):
        raise TypeError(
            f"cannot adopt {type(source).__name__} state into "
            f"{type(target).__name__}"
        )
    target.__dict__.clear()
    target.__dict__.update(source.__dict__)


def _distinct_graphs(processes: Sequence[MISProcess]) -> list[Graph]:
    graphs: list[Graph] = []
    seen: set[int] = set()  # id()-dedup: Graph.__eq__ is O(m)
    for process in processes:
        if id(process.graph) not in seen:
            seen.add(id(process.graph))
            graphs.append(process.graph)
    return graphs


def run_fleet_sharded(
    processes: Sequence[MISProcess],
    *,
    max_rounds: int,
    verify: bool,
    batch: str | int | None,
    engine: str,
    n_jobs: int | str | None,
    pool: SupervisedPool | None = None,
    journal: "CheckpointView | None" = None,
) -> list[RunResult]:
    """Run a fleet sharded across supervised worker processes.

    The parallel twin of :func:`~repro.sim.runner.run_many_until_stable`
    (which is the only intended caller): identical signature semantics,
    identical results, with replicas advanced in worker processes.  On
    return, every process in ``processes`` holds its post-run state
    exactly as the serial path would have left it.

    ``pool=None`` spins up a private :class:`SupervisedPool` of
    ``min(shards, resolve_n_jobs(n_jobs))`` workers and closes it
    before returning; passing a persistent pool amortizes worker
    startup across calls (the sweep path does).  The published graph
    store is unlinked on every exit path, including worker crashes and
    retry exhaustion.

    With a ``journal``, each completed shard is persisted under
    ``shard:{lo}:{hi}`` the moment it lands — before any later shard
    can fail — and shards already journaled are not re-dispatched; an
    interrupted campaign therefore resumes from its last completed
    shard with bitwise-identical results.
    """
    processes = list(processes)
    ranges = shard_ranges(len(processes), fleet_shards(n_jobs, pool))
    graphs = _distinct_graphs(processes)
    registry = GraphRegistry(graphs)
    for process in processes:
        registry.register_ops(process.ops)

    payloads: dict[tuple[int, int], bytes] = {}
    pending: list[tuple[int, int]] = []
    for lo, hi in ranges:
        restored = (
            journal.get_bytes(shard_key(lo, hi))
            if journal is not None
            else None
        )
        if restored is not None:
            payloads[(lo, hi)] = restored
        else:
            pending.append((lo, hi))

    own_pool = pool is None
    if pending:
        with SharedGraphStore(graphs) as store:
            try:
                if pool is None:
                    pool = SupervisedPool(
                        min(len(pending), resolve_n_jobs(n_jobs))
                    )
                jobs = [
                    ShardJob(
                        indices=(lo, hi),
                        payload=registry.dumps(processes[lo:hi]),
                        handle=store.handle,
                        max_rounds=max_rounds,
                        verify=verify,
                        batch=batch,
                        engine=engine,
                    )
                    for lo, hi in pending
                ]
                outcomes = _run_supervised(pool, jobs, registry, journal)
            finally:
                if own_pool and pool is not None:
                    pool.close()
        for key, result in outcomes.items():
            payloads[key] = result.payload

    results: list[RunResult | None] = [None] * len(processes)
    for (lo, hi), payload in payloads.items():
        shard_results, shard_processes = registry.loads(payload)
        for offset, final in enumerate(shard_processes):
            adopt_state(processes[lo + offset], final)
            results[lo + offset] = shard_results[offset]
    missing = [i for i, result in enumerate(results) if result is None]
    if missing:  # pragma: no cover - dispatch already raises
        raise RuntimeError(f"shard results missing for replicas {missing}")
    return [result for result in results if result is not None]


def _run_supervised(
    pool: SupervisedPool,
    jobs: list[ShardJob],
    registry: GraphRegistry,
    journal: "CheckpointView | None",
) -> dict[tuple[int, int], ShardResult]:
    """Dispatch shard jobs under supervision.

    Wires the three master-side hooks: *validation* (a result must
    carry the right indices and a payload that unpickles to the right
    shapes — the poisoned-result quarantine), *degradation* (a
    deadline-killed shard re-runs in-process against the master's own
    registry), and *journaling* (each completed shard is persisted
    immediately, so partial progress survives a later
    ``ShardFailedError`` or interrupt).
    """

    def validate(job: ShardJob, result: ShardResult) -> bool:
        if tuple(result.indices) != tuple(job.indices):
            return False
        try:
            shard_results, shard_processes = registry.loads(result.payload)
        except Exception:
            return False
        size = job.indices[1] - job.indices[0]
        return len(shard_results) == size and len(shard_processes) == size

    def on_result(key: tuple[int, int], result: ShardResult) -> None:
        if journal is not None:
            journal.put_bytes(shard_key(*key), result.payload)

    return pool.run_jobs(
        jobs,
        local_runner=lambda job: run_shard(registry, job),
        validate=validate,
        on_result=on_result,
    )

