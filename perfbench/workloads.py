"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed alone, then runs
timed iterations through the program's public API the way a user would.
An iteration times only the calls into the program; checking the
answers happens outside its timers.  Calls go through module attributes
(``random_graphs.gnp_random_graph``, ``montecarlo.sweep_stabilization_times``,
...) so that the traced run's patches see them.

Why these three (see also README.md in this directory):

* ``single-2e20`` is the headline entry point: one large run of each
  process, where coins, neighbour reductions and the frontier engine do
  all the work and batching, pools, journals and churn are bypassed.
* ``fleet-2e16`` is a Monte-Carlo fleet on one shared sparse graph with
  default arguments, the regime where auto-batching is known to lose.
* ``sweep-jobs2`` is the experiments-CLI campaign path: per-trial graph
  generation, a two-worker supervised pool and a checkpoint journal,
  with one dense grid point where batching wins.
"""

from __future__ import annotations

import hashlib
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import ThreeStateMIS, TwoStateMIS
from repro.graphs import random_graphs
from repro.sim import montecarlo, runner

from perfbench.checks import mask_of, mis_violation

#: Per-run round budget; G(n, c/n) runs here stabilize in well under 100.
BUDGET = 10_000


def derive(seed: int, *keys: int | str) -> int:
    """A 32-bit seed derived from the benchmark seed and ``keys``."""
    words = [seed] + [
        zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in keys
    ]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def digest_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@dataclass
class Outcome:
    """What one iteration did, for the metrics and the checks.

    ``wall_s`` covers only the timed calls into the program.  ``ops``
    counts runs or trials; ``failures`` holds one message per failed
    operation.  ``digest`` must be equal between the untraced and the
    traced run of the same iteration.
    """

    wall_s: float
    ops: int
    vertex_rounds: int
    failures: list[str]
    digest: Any
    journal_bytes: int = 0


class Workload:
    """Base class: inputs from ``seed``, scratch files under ``workdir``."""

    name = "abstract"
    #: Whether worker processes belong in the peak-RSS figure.
    counts_children = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    def build(self) -> None:
        """Build the inputs (part of set-up time)."""

    def iteration(self, index: int, tracer: Any) -> Outcome:
        raise NotImplementedError


def _check_members(graph: Any, members: np.ndarray, what: str) -> str | None:
    problem = mis_violation(graph.indptr, graph.indices, members)
    return None if problem is None else f"{what}: {problem}"


class SingleRun(Workload):
    """One 2-state and one 3-state run on G(2^20, 3/n) per iteration.

    Every iteration starts both processes from a fresh random start
    derived from (seed, iteration), so a run's median averages over
    trajectories rather than repeating one.
    """

    name = "single-2e20"
    N = 1 << 20
    C = 3.0

    def build(self) -> None:
        self.graph = random_graphs.gnp_random_graph(
            self.N, self.C / self.N, rng=derive(self.seed, "graph")
        )

    def iteration(self, index: int, tracer: Any) -> Outcome:
        wall = 0.0
        vertex_rounds = 0
        failures: list[str] = []
        digest = []
        for cls in (TwoStateMIS, ThreeStateMIS):
            make = tracer.wrap("core.process_init", cls)
            coins = derive(self.seed, "start", index, cls.state_count)
            start = time.perf_counter()
            try:
                proc = make(self.graph, coins=coins)
                result = runner.run_until_stable(proc, max_rounds=BUDGET)
            except Exception as exc:  # a raising run is a failed operation
                wall += time.perf_counter() - start
                failures.append(f"{cls.name} run raised {exc!r}")
                continue
            wall += time.perf_counter() - start
            vertex_rounds += self.N * result.rounds_executed
            if not result.stabilized:
                failures.append(f"{cls.name} did not stabilize in {BUDGET}")
                continue
            problem = _check_members(
                self.graph, mask_of(self.N, result.mis), cls.name
            )
            if problem:
                failures.append(problem)
            digest.append(
                (
                    cls.name,
                    result.stabilization_round,
                    result.rounds_executed,
                    digest_array(result.mis),
                )
            )
        return Outcome(wall, 2, vertex_rounds, failures, tuple(digest))


def _check_fleet(
    stats: Any, made: list, trials: int, what: str
) -> tuple[list[str], int]:
    """Failures of one Monte-Carlo campaign, and its Σ rounds."""
    failures = []
    if stats.trials != trials:
        failures.append(f"{what}: {stats.trials} trials reported, {trials} run")
    if len(made) != trials:
        failures.append(f"{what}: factory built {len(made)} of {trials}")
    failures += [
        f"{what}: trial did not stabilize in {stats.max_rounds}"
    ] * int(stats.failures)
    for j, proc in enumerate(made):
        # A 2-state configuration is stable exactly when its black set
        # is an MIS, so this also checks the written-back final state.
        problem = _check_members(proc.graph, proc.black_mask(), f"{what} #{j}")
        if problem:
            failures.append(problem)
    rounds = int(stats.times.sum()) + int(stats.failures) * stats.max_rounds
    return failures, rounds


class Fleet(Workload):
    """128 2-state trials on one shared G(2^16, 3/n), default arguments.

    Each iteration draws its trial seeds from (seed, iteration), as
    ``SingleRun`` draws its starts, so a run's median averages over many
    trajectories rather than repeating one.
    """

    name = "fleet-2e16"
    N = 1 << 16
    C = 3.0
    TRIALS = 128

    def build(self) -> None:
        self.graph = random_graphs.gnp_random_graph(
            self.N, self.C / self.N, rng=derive(self.seed, "graph")
        )
        self.master = derive(self.seed, "trials")

    def iteration(self, index: int, tracer: Any) -> Outcome:
        made: list = []
        graph = self.graph

        def factory(trial_seed: int) -> TwoStateMIS:
            proc = TwoStateMIS(graph, coins=trial_seed)
            made.append(proc)
            return proc

        factory = tracer.wrap("sim.montecarlo.factory", factory)
        start = time.perf_counter()
        try:
            stats = montecarlo.estimate_stabilization_time(
                factory,
                trials=self.TRIALS,
                max_rounds=BUDGET,
                seed=derive(self.master, index),
            )
        except Exception as exc:
            wall = time.perf_counter() - start
            return Outcome(
                wall, self.TRIALS, 0, [f"estimate raised {exc!r}"] * self.TRIALS,
                None,
            )
        wall = time.perf_counter() - start
        failures, rounds = _check_fleet(stats, made, self.TRIALS, "fleet")
        return Outcome(
            wall,
            self.TRIALS,
            self.N * rounds,
            failures,
            (digest_array(stats.times), int(stats.failures)),
        )


class Sweep(Workload):
    """A journaled two-worker sweep over four (n, c) points of G(n, c/n).

    Every trial resamples its graph, and every iteration writes a fresh
    checkpoint journal, as ``python -m repro.experiments --jobs 2
    --checkpoint`` would.  Trial seeds come from (seed, iteration), as in
    ``Fleet``.  Sixteen trials per point keep an iteration near one
    second, so a run's median is taken over a few dozen of them.
    """

    name = "sweep-jobs2"
    counts_children = True
    GRID = ((1024, 3.0), (4096, 3.0), (512, 25.0), (2048, 12.0))
    TRIALS = 16
    JOBS = 2

    def build(self) -> None:
        self.master = derive(self.seed, "sweep")

    def iteration(self, index: int, tracer: Any) -> Outcome:
        made: dict[tuple, list] = {point: [] for point in self.GRID}

        def make_factory(point: tuple) -> Any:
            n, c = point

            def factory(trial_seed: int) -> TwoStateMIS:
                rng = np.random.default_rng(trial_seed)
                graph = random_graphs.gnp_random_graph(n, c / n, rng=rng)
                proc = TwoStateMIS(graph, coins=rng)
                made[point].append(proc)
                return proc

            return tracer.wrap("sim.montecarlo.factory", factory)

        journal = self.workdir / f"sweep-{index}.jsonl"
        journal.unlink(missing_ok=True)
        trials = self.TRIALS * len(self.GRID)
        start = time.perf_counter()
        try:
            result = montecarlo.sweep_stabilization_times(
                make_factory,
                list(self.GRID),
                trials=self.TRIALS,
                max_rounds=BUDGET,
                seed=derive(self.master, index),
                n_jobs=self.JOBS,
                checkpoint=str(journal),
                resume=False,
            )
        except Exception as exc:
            wall = time.perf_counter() - start
            journal.unlink(missing_ok=True)
            return Outcome(wall, trials, 0, [f"sweep raised {exc!r}"] * trials, None)
        wall = time.perf_counter() - start
        journal_bytes = journal.stat().st_size
        journal.unlink()
        failures: list[str] = []
        vertex_rounds = 0
        digest = []
        for point in self.GRID:
            stats = result[point]
            point_failures, rounds = _check_fleet(
                stats, made[point], self.TRIALS, f"sweep point {point}"
            )
            failures += point_failures
            vertex_rounds += point[0] * rounds
            digest.append((digest_array(stats.times), int(stats.failures)))
        return Outcome(
            wall,
            trials,
            vertex_rounds,
            failures,
            tuple(digest),
            journal_bytes=journal_bytes,
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SingleRun, Fleet, Sweep)
}
