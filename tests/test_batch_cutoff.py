"""Routing of ``batch="auto"`` by the per-family n cutoff.

Under ``batch="auto"``, :func:`repro.sim.runner.run_many_until_stable`
batches a group of same-family, same-n processes only when ``n <=
engine_cls.auto_max_n``; larger groups take the serial trial loop.  The
two paths are bitwise-interchangeable, so the equivalence suites pass
with or without the cutoff; these tests pin the routing itself, and
that every strategy (``"auto"``, ``None``, an explicit int, sharded)
still yields the same trials past the cutoff.  ``auto_max_n`` is
monkeypatched down so the fleets stay tiny.
"""

import numpy as np
import pytest

from repro.core.batched import _ENGINE_DISPATCH, engine_for
from repro.core.schedulers import IndependentScheduler, ScheduledTwoStateMIS
from repro.core.three_color import ThreeColorMIS
from repro.core.three_state import ThreeStateMIS
from repro.core.two_state import TwoStateMIS
from repro.graphs.random_graphs import gnp_random_graph
from repro.sim.montecarlo import estimate_stabilization_time
from repro.sim.runner import run_many_until_stable

#: The patched cutoff: fleets run at n = CUTOFF and n = CUTOFF + 1.
CUTOFF = 40

FAMILIES = {
    "2-state": lambda g, s: TwoStateMIS(g, coins=s),
    "3-state": lambda g, s: ThreeStateMIS(g, coins=s),
    "3-color": lambda g, s: ThreeColorMIS(g, coins=s, a=16.0),
    "scheduled": lambda g, s: ScheduledTwoStateMIS(
        g, scheduler=IndependentScheduler(0.5), coins=s
    ),
}


def _engine(make):
    return engine_for(make(gnp_random_graph(4, 0.5, rng=0), 0))


@pytest.fixture(params=sorted(FAMILIES))
def family(request, monkeypatch):
    """(factory, engine class, constructed-n log) with the cutoff patched."""
    make = FAMILIES[request.param]
    engine_cls = _engine(make)
    monkeypatch.setattr(engine_cls, "auto_max_n", CUTOFF)
    constructed = []
    original_init = engine_cls.__init__

    def spy_init(self, processes, *args, **kwargs):
        constructed.append(processes[0].n)
        original_init(self, processes, *args, **kwargs)

    monkeypatch.setattr(engine_cls, "__init__", spy_init)
    return make, engine_cls, constructed


def _fleet(make, n, replicas, graph_seed=3):
    graph = gnp_random_graph(n, 0.1, rng=graph_seed)
    return [make(graph, 100 + i) for i in range(replicas)]


def _outcome(processes, results):
    return (
        [(r.stabilized, r.stabilization_round) for r in results],
        [p.state_vector().copy() for p in processes],
    )


def _assert_same(a, b):
    assert a[0] == b[0]
    assert len(a[1]) == len(b[1])
    for x, y in zip(a[1], b[1]):
        assert np.array_equal(x, y)


def test_every_batched_engine_is_covered():
    assert {_engine(make) for make in FAMILIES.values()} == set(
        _ENGINE_DISPATCH.values()
    )


def test_cutoffs_are_the_fitted_values():
    # Refit with `make bench-cutoff` before changing any of these.
    assert {
        family: _engine(make).auto_max_n for family, make in FAMILIES.items()
    } == {"2-state": 8192, "3-state": 4096, "3-color": 16384, "scheduled": 8192}


@pytest.mark.parametrize("replicas", [2, 5])
def test_auto_batches_at_the_cutoff_only(family, replicas):
    make, _, constructed = family
    run_many_until_stable(_fleet(make, CUTOFF, replicas), batch="auto")
    assert constructed == [CUTOFF]
    constructed.clear()
    run_many_until_stable(_fleet(make, CUTOFF + 1, replicas), batch="auto")
    assert constructed == []


def test_explicit_int_batches_past_the_cutoff(family):
    make, _, constructed = family
    run_many_until_stable(_fleet(make, CUTOFF + 1, 3), batch=3)
    assert constructed == [CUTOFF + 1]


@pytest.mark.parametrize("replicas", [2, 5])
def test_strategies_agree_past_the_cutoff(family, replicas):
    make, _, constructed = family
    outcomes = {}
    for batch in ("auto", None, 2):
        fleet = _fleet(make, CUTOFF + 1, replicas)
        outcomes[batch] = _outcome(
            fleet, run_many_until_stable(fleet, batch=batch)
        )
    _assert_same(outcomes["auto"], outcomes[None])
    _assert_same(outcomes["auto"], outcomes[2])
    # Only batch=2 builds engines: one per full pair (a lone last
    # replica runs serially).
    assert constructed == [CUTOFF + 1] * (replicas // 2)


def test_sharded_fleet_agrees_past_the_cutoff(family):
    # The private pool forks after the monkeypatch, so the workers'
    # run_many_until_stable sees the patched cutoff too.
    make, _, _ = family
    serial = _fleet(make, CUTOFF + 1, 4)
    sharded = _fleet(make, CUTOFF + 1, 4)
    expected = _outcome(serial, run_many_until_stable(serial, batch=None))
    got = _outcome(
        sharded, run_many_until_stable(sharded, batch="auto", n_jobs=2)
    )
    _assert_same(expected, got)


def test_estimate_routes_chunks_by_the_cutoff(family):
    make, _, constructed = family
    graphs = {
        n: gnp_random_graph(n, 0.1, rng=5) for n in (CUTOFF, CUTOFF + 1)
    }

    def estimate(n, batch):
        return estimate_stabilization_time(
            lambda s: make(graphs[n], s),
            trials=5,
            max_rounds=50_000,
            seed=9,
            batch=batch,
        )

    estimate(CUTOFF, "auto")
    assert constructed == [CUTOFF]
    constructed.clear()
    times = {batch: estimate(CUTOFF + 1, batch) for batch in ("auto", None, 2)}
    # Only batch=2 builds engines, for its chunks of two (the fifth
    # trial's chunk is a singleton and runs serially).
    assert constructed == [CUTOFF + 1] * 2
    for batch in (None, 2):
        assert np.array_equal(times["auto"].times, times[batch].times)
        assert times["auto"].failures == times[batch].failures
