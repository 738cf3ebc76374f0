"""Which program calls the traced run wraps, and the per-layer metrics.

Every hook is a public function or method replaced at its module or
class attribute for the traced phase only (:meth:`Tracer.patch`).  The
hooks change no object's type, so every engine takes the same path as
in the untraced run; the traced run's results are checked against the
untraced ones.

Neighbour operations are split in two: a *reduce* is a whole-mask
neighbourhood reduction (``count``/``exists``/``max_closed`` and their
batched forms), a *scatter* is frontier maintenance along the changed
vertices' edges (``gather`` and ``apply_count_delta``).
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from typing import Any

from perfbench.spans import NameStats, Tracer, self_times

REDUCE = (
    "count",
    "exists",
    "count_batch",
    "exists_batch",
    "max_closed",
    "max_closed_batch",
)
SCATTER = ("gather", "apply_count_delta")


def _size(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result.size)


def _jobs(args: tuple, kwargs: dict, result: Any) -> int:
    jobs = args[1] if len(args) > 1 else kwargs["jobs"]
    return len(jobs)


def install(tracer: Tracer) -> list:
    """Patch every layer boundary; returns the pools seen, for retries."""
    from repro.core import batched, neighbor_ops
    from repro.core.process import MISProcess
    from repro.graphs import random_graphs
    from repro.graphs.graph import Graph
    from repro.parallel import fleet
    from repro.parallel.shared_graph import SharedGraphStore
    from repro.parallel.supervisor import SupervisedPool
    from repro.sim import montecarlo, runner
    from repro.sim.checkpoint import CheckpointJournal
    from repro.sim.rng import SeededCoins

    pools: list = []
    hooks: list[tuple] = [
        (random_graphs, "gnp_random_graph", "graphs.gnp"),
        (Graph, "edge_arrays", "graphs.edge_arrays"),
        (SeededCoins, "bits", "sim.rng.bits", _size),
        (SeededCoins, "bits_into", "sim.rng.bits", _size),
        (MISProcess, "step", "core.step"),
        (MISProcess, "is_stabilized", "core.is_stabilized"),
        (runner, "run_until_stable", "sim.runner.run"),
        (montecarlo, "run_many_until_stable", "sim.runner.run_many"),
        (runner, "assert_valid_mis", "core.verify"),
        (batched, "assert_valid_mis", "core.verify"),
        (montecarlo, "estimate_stabilization_time", "sim.montecarlo.estimate"),
        (montecarlo, "sweep_stabilization_times", "sim.montecarlo.sweep"),
        (CheckpointJournal, "put", "sim.checkpoint.put"),
        (
            SupervisedPool,
            "__init__",
            "parallel.pool_start",
            lambda a, k, r: pools.append(a[0]) or 0,
        ),
        (SupervisedPool, "run_jobs", "parallel.run_jobs", _jobs),
        (SupervisedPool, "close", "parallel.pool_close"),
        (
            SharedGraphStore,
            "__init__",
            "parallel.shm_publish",
            lambda a, k, r: a[0].handle.nbytes,
        ),
        (fleet, "run_fleet_sharded", "parallel.fleet_sharded"),
    ]
    for cls in (
        batched.BatchedTwoStateMIS,
        batched.BatchedThreeStateMIS,
        batched.BatchedThreeColorMIS,
        batched.BatchedScheduledTwoStateMIS,
    ):
        hooks.append((cls, "run", "core.batched.run"))
    for cls in (
        neighbor_ops.NeighborOps,
        neighbor_ops.DenseNeighborOps,
        neighbor_ops.SparseNeighborOps,
        neighbor_ops.BitsetNeighborOps,
        neighbor_ops.AdjListNeighborOps,
    ):
        for attr in REDUCE:
            if attr in vars(cls):
                hooks.append((cls, attr, "core.neighbor_ops.reduce"))
        for attr in SCATTER:
            if attr in vars(cls):
                hooks.append((cls, attr, "core.neighbor_ops.scatter"))
    for hook in hooks:
        tracer.patch(*hook)
    return pools


#: Per-layer metrics: name -> (unit, span name, statistic).
_SPAN_METRICS = {
    "graphs.gnp_s": ("s", "graphs.gnp", "total_s"),
    "graphs.gnp_calls": ("count", "graphs.gnp", "calls"),
    "graphs.edge_arrays_s": ("s", "graphs.edge_arrays", "total_s"),
    "graphs.edge_arrays_calls": ("count", "graphs.edge_arrays", "calls"),
    "sim.rng.bits_s": ("s", "sim.rng.bits", "total_s"),
    "sim.rng.bits_calls": ("count", "sim.rng.bits", "calls"),
    "sim.rng.bits_draws": ("count", "sim.rng.bits", "units"),
    "core.neighbor_ops.reduce_s": ("s", "core.neighbor_ops.reduce", "total_s"),
    "core.neighbor_ops.reduce_calls": (
        "count", "core.neighbor_ops.reduce", "calls",
    ),
    "core.neighbor_ops.scatter_s": ("s", "core.neighbor_ops.scatter", "total_s"),
    "core.neighbor_ops.scatter_calls": (
        "count", "core.neighbor_ops.scatter", "calls",
    ),
    "core.step_self_s": ("s", "core.step", "self_s"),
    "core.is_stabilized_s": ("s", "core.is_stabilized", "total_s"),
    "core.batched.run_self_s": ("s", "core.batched.run", "self_s"),
    "core.verify_s": ("s", "core.verify", "total_s"),
    "core.verify_calls": ("count", "core.verify", "calls"),
    "sim.montecarlo.factory_s": ("s", "sim.montecarlo.factory", "total_s"),
    "sim.montecarlo.factory_calls": ("count", "sim.montecarlo.factory", "calls"),
    "sim.checkpoint.put_s": ("s", "sim.checkpoint.put", "total_s"),
    "sim.checkpoint.put_calls": ("count", "sim.checkpoint.put", "calls"),
    "parallel.pool_start_s": ("s", "parallel.pool_start", "total_s"),
    "parallel.run_jobs_s": ("s", "parallel.run_jobs", "total_s"),
    "parallel.shards": ("count", "parallel.run_jobs", "units"),
    "parallel.shm_bytes": ("bytes", "parallel.shm_publish", "units"),
    "bench.iteration_self_s": ("s", "bench.iteration", "self_s"),
}

#: Units of the per-layer metrics computed outside the spans.
OTHER_UNITS = {
    "repro.import_s": "s",
    "setup.build_s": "s",
    "setup.warmup_s": "s",
    "sim.checkpoint.bytes": "bytes",
    "parallel.retries": "count",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

PER_LAYER_UNITS = {
    **{name: spec[0] for name, spec in _SPAN_METRICS.items()},
    **OTHER_UNITS,
}


def layer_metrics(
    tracer: Tracer,
    pools: list,
    traced: Sequence[Any],
    untraced: Sequence[Any],
    setup: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric, per traced iteration where it is a sum."""
    iterations = len(traced)
    stats = self_times(tracer.spans)
    out: dict[str, float] = {}
    for name, (_unit, span, field) in _SPAN_METRICS.items():
        value = getattr(stats.get(span, NameStats()), field)
        out[name] = value / iterations
    out["repro.import_s"] = setup["import_s"]
    out["setup.build_s"] = setup["build_s"]
    out["setup.warmup_s"] = setup["warmup_s"]
    out["sim.checkpoint.bytes"] = sum(o.journal_bytes for o in traced) / iterations
    out["parallel.retries"] = sum(
        1 for pool in pools for e in pool.events if e.kind == "retry"
    ) / iterations
    out["trace.overhead_s"] = statistics.median(
        o.wall_s for o in traced
    ) - statistics.median(o.wall_s for o in untraced)
    out["trace.spans"] = len(tracer.spans) / iterations
    return out
