"""Batched vs serial fleet time across n: where ``batch="auto"`` should stop batching.

Under ``batch="auto"``, :func:`repro.sim.runner.run_many_until_stable`
batches a group of same-family, same-n processes only when
``n <= engine_cls.auto_max_n`` (a class constant of each engine in
:mod:`repro.core.batched`).  This script is the evidence those
constants are fitted from.  For every batchable family it times one
R-replica fleet on a shared G(n, c/n) twice, once forced onto the
batched engine (``batch=R``) and once on the serial trial loop
(``batch=None``), asserts the per-trial results are bitwise-equal, and
prints the serial/batched time ratio (> 1 means batching wins).

The cutoff rule, per family: the largest grid n at which batching is at
least as fast as the serial loop at *both* mean degrees.  A family's
grid stops at the first n where batching loses at some degree: past
the crossover the batched engine's (R, n)-sized passes grow with n
while the serial frontier loop touches only each trial's frontier, so
larger n only widen the gap (and the serial 3-color loop at 2^16 would
take minutes).

Run it standalone (it has no speedup floor and is not part of
``check-bench``; timing ratios near 1.0 flip from run to run)::

    PYTHONPATH=src python benchmarks/bench_batch_cutoff.py

``--fast`` (or ``BENCH_FAST=1``) runs a small grid in seconds; its
implied cutoffs say nothing about the real crossover, it only exercises
the script and the bitwise check.  ``make bench-cutoff`` runs the full
grid (about 6 minutes on a 2-core machine).
"""

import os
import sys
import time

import numpy as np

from repro.core.batched import engine_for
from repro.core.schedulers import IndependentScheduler, ScheduledTwoStateMIS
from repro.core.three_color import ThreeColorMIS
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.rng import spawn_seeds
from repro.sim.runner import run_many_until_stable

FAST = bool(int(os.environ.get("BENCH_FAST", "0"))) or "--fast" in sys.argv[1:]

GRID_N = (256, 512) if FAST else (4096, 8192, 16384, 32768, 65536)
DEGREES = (3.0, 12.0)
#: Timed repetitions per cell; the minimum is reported.
REPEATS = 1 if FAST else 3
MAX_ROUNDS = 100_000
SEED = 1

#: family -> (process factory (graph, trial_seed), replicas R).  The
#: 3-color switch uses the experiments' parameter a = 16 (Definition
#: 28's a = 512 makes the serial loop at n >= 8192 take minutes).
FAMILIES = {
    "2-state": (lambda g, s: TwoStateMIS(g, coins=s), 16 if FAST else 128),
    "3-state": (lambda g, s: ThreeStateMIS(g, coins=s), 16 if FAST else 128),
    "3-color": (
        lambda g, s: ThreeColorMIS(g, coins=s, a=16.0),
        8 if FAST else 64,
    ),
    "scheduled(q=0.5)": (
        lambda g, s: ScheduledTwoStateMIS(
            g, scheduler=IndependentScheduler(0.5), coins=s
        ),
        8 if FAST else 32,
    ),
}


def _timed_fleet(make, graph, seeds, batch):
    """(seconds, stabilization rounds, final state vectors) of one fleet."""
    processes = [make(graph, s) for s in seeds]
    t0 = time.perf_counter()
    results = run_many_until_stable(processes, max_rounds=MAX_ROUNDS, batch=batch)
    elapsed = time.perf_counter() - t0
    assert all(r.stabilized for r in results), "a trial did not stabilize"
    rounds = [r.stabilization_round for r in results]
    return elapsed, rounds, [p.state_vector().copy() for p in processes]


def measure(family, n, c):
    """(serial s, batched s) for one grid cell, min over REPEATS.

    Asserts the batched and serial fleets are bitwise-equal: the same
    stabilization round and final state vector for every trial.
    """
    make, replicas = FAMILIES[family]
    graph = gnp_random_graph(n, c / n, rng=SEED)
    seeds = spawn_seeds(SEED, replicas)
    assert engine_for(make(graph, seeds[0])) is not None
    serial_s = batched_s = float("inf")
    for _ in range(REPEATS):
        t_serial, rounds_serial, states_serial = _timed_fleet(
            make, graph, seeds, None
        )
        t_batched, rounds_batched, states_batched = _timed_fleet(
            make, graph, seeds, replicas
        )
        assert rounds_serial == rounds_batched, (
            f"{family} n={n} c={c}: batched rounds diverge from serial"
        )
        assert all(
            np.array_equal(a, b) for a, b in zip(states_serial, states_batched)
        ), f"{family} n={n} c={c}: batched final states diverge from serial"
        serial_s = min(serial_s, t_serial)
        batched_s = min(batched_s, t_batched)
    return serial_s, batched_s


def implied_cutoff(ratios):
    """Largest n whose serial/batched ratio is >= 1.0 at every degree.

    ``ratios`` maps n -> {c: ratio}; ``None`` when batching loses at
    every grid n.
    """
    winning = [
        n for n, by_c in ratios.items() if all(r >= 1.0 for r in by_c.values())
    ]
    return max(winning) if winning else None


def main():
    mode = "fast (smoke; implied cutoffs are not meaningful)" if FAST else "full"
    print(f"batched vs serial fleets on a shared G(n, c/n), mode: {mode}")
    print("ratio = serial s / batched s (> 1: batching wins), min of "
          f"{REPEATS} run(s)")
    # Warm the import-time and first-call costs outside every timer.
    warm = gnp_random_graph(256, 3.0 / 256, rng=0)
    for make, _ in FAMILIES.values():
        run_many_until_stable([make(warm, s) for s in (1, 2)], batch=2)
    cutoffs = {}
    for family, (_, replicas) in FAMILIES.items():
        ratios = {}
        for n in GRID_N:
            ratios[n] = {}
            for c in DEGREES:
                serial_s, batched_s = measure(family, n, c)
                ratios[n][c] = serial_s / batched_s
                print(
                    f"  {family:<17} R={replicas:<4} n={n:<6} c={c:<5g}"
                    f"serial {serial_s:7.3f}s  batched {batched_s:7.3f}s  "
                    f"ratio {ratios[n][c]:5.2f}",
                    flush=True,
                )
            if any(r < 1.0 for r in ratios[n].values()):
                break
        cutoffs[family] = implied_cutoff(ratios)
    engine_cls = {
        family: engine_for(make(gnp_random_graph(4, 0.5, rng=0), 0))
        for family, (make, _) in FAMILIES.items()
    }
    print("implied auto_max_n (largest grid n where batching wins at every c):")
    for family, cutoff in cutoffs.items():
        shown = f"{cutoff}" if cutoff is not None else f"< {GRID_N[0]}"
        current = engine_cls[family].auto_max_n
        print(f"  {family:<17} {shown:>8}   (current: {current})")
    print("per-trial results bitwise-identical in every cell")


if __name__ == "__main__":
    main()
