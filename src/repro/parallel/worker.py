"""Worker-process entry point.

Deliberately dumb, in the Ganeti-jqueue mold: a worker loops on the
task queue, runs each shard with the ordinary in-process engines, and
ships results back.  All policy — sharding, shared-memory lifecycle,
result writeback, retry/deadline supervision — lives with the master.

:func:`worker_main` is a module-level function taking only its queues
and spawn-time configuration (no closure captures, no module-global
mutation), as the repro-lint ``parallel-safety`` rule requires of pool
entry points.  The optional :class:`~repro.parallel.chaos.ChaosPolicy`
is that configuration's fault-injection hook: consulted once per job,
it can kill the worker before it reports, make it hang or start slow,
or poison its result — each a deterministic function of
``(shard, attempt)`` so the supervisor's recovery paths are
reproducibly testable.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.parallel.chaos import ChaosPolicy


def run_shard(registry: Any, job: Any) -> Any:
    """Run one shard job against an attached (or master) registry.

    A separate function so every reference to the shard's processes —
    whose arrays view the shared mapping — dies on return; the worker
    can then unmap its cached store cleanly when the master publishes a
    new segment.  The supervisor's deadline-degradation path calls this
    too, against the *master's* registry: the payload round-trips
    through the same pickler either way, so a degraded shard is
    bitwise-identical to a worker-run one.
    """
    from repro.parallel.jobs import ShardResult
    from repro.sim.runner import run_many_until_stable

    processes = registry.loads(job.payload)
    shard_results = run_many_until_stable(
        processes,
        max_rounds=job.max_rounds,
        verify=job.verify,
        batch=job.batch,
        engine=job.engine,
        n_jobs=1,  # a worker never recurses into its own pool
    )
    return ShardResult(job.indices, registry.dumps((shard_results, processes)))


def worker_main(
    tasks: Any, results: Any, chaos: "ChaosPolicy | None" = None
) -> None:
    """Execute shard jobs from ``tasks`` until a ``None`` sentinel.

    The worker caches one attached graph store: consecutive jobs
    against the same published segment — every shard of a fleet, every
    point of a sweep — share a single mmap.  Exceptions are caught and
    shipped back as ``(job_id, "error", traceback)`` so the worker
    survives bad jobs; only a hard death (signal, ``os._exit``) kills
    it, which the master's liveness polling detects.

    With a ``chaos`` policy, each job first consults
    ``chaos.fault_for(job.indices, job.attempt)``: ``"kill"`` exits
    the process with :data:`~repro.parallel.chaos.CHAOS_KILL_EXIT`
    before touching the job, ``"hang"``/``"slow"`` sleep before
    running (the former long enough for a supervisor deadline to
    fire), and ``"poison"`` reports an unpicklable payload instead of
    running — exercising the master's quarantine-and-retry path.
    """
    from repro.parallel.chaos import CHAOS_KILL_EXIT, POISON_PAYLOAD
    from repro.parallel.jobs import GraphRegistry, ShardResult

    store = None
    registry = None
    while True:
        task = tasks.get()
        if task is None:
            break
        job_id, job = task
        if chaos is not None:
            fault = chaos.fault_for(tuple(job.indices), job.attempt)
            if fault == "kill":
                # Flush buffered results first: dying while this
                # worker's queue feeder holds the shared write lock
                # would deadlock every sibling's put().  The chaos
                # kill semantic is "die before touching *this* job",
                # not "corrupt transport of the previous one".
                results.close()
                results.join_thread()
                os._exit(CHAOS_KILL_EXIT)
            elif fault == "hang":
                time.sleep(chaos.hang_seconds)
            elif fault == "slow":
                time.sleep(chaos.slow_seconds)
            elif fault == "poison":
                results.put(
                    (job_id, "ok", ShardResult(job.indices, POISON_PAYLOAD))
                )
                continue
        try:
            if store is None or store.handle.segment != job.handle.segment:
                registry = None  # release view refs before unmapping
                if store is not None:
                    store.close()
                store = job.handle.attach()
                registry = GraphRegistry(store.graphs)
            results.put((job_id, "ok", run_shard(registry, job)))
        except Exception:
            results.put((job_id, "error", traceback.format_exc()))
    registry = None
    if store is not None:
        store.close()
