"""Tests of the benchmark harness's own parts.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the root
of the repository.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, workloads
from perfbench.checks import mask_of, mis_violation
from perfbench.layers import PER_LAYER_UNITS
from perfbench.spans import Span, Tracer, self_times

# The path 0-1-2-3 plus the isolated vertex 4, as CSR arrays.
PATH_INDPTR = np.array([0, 1, 3, 5, 6, 6])
PATH_INDICES = np.array([1, 0, 2, 1, 3, 2])


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, "a", 0.0, 10.0),
        Span(1, 0, "b", 1.0, 4.0),
        Span(2, 1, "c", 2.0, 3.0),
        Span(3, 0, "b", 5.0, 6.0, units=7),
    ]
    stats = self_times(spans)
    assert stats["a"].calls == 1
    assert stats["a"].total_s == pytest.approx(10.0)
    assert stats["a"].self_s == pytest.approx(6.0)  # 10 - (3 + 1)
    assert stats["b"].calls == 2
    assert stats["b"].total_s == pytest.approx(4.0)
    assert stats["b"].self_s == pytest.approx(3.0)  # (3 - 1) + 1
    assert stats["b"].units == 7
    assert stats["c"].self_s == pytest.approx(1.0)
    total = sum(s.self_s for s in stats.values())
    assert total == pytest.approx(10.0)  # self times partition the root


def test_tracer_records_parents_and_skips_same_name_reentry():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("leaf", leaf, units=lambda a, k, r: r)

    def recursive(depth):
        return traced_leaf(depth) if depth == 0 else traced_rec(depth - 1)

    traced_rec = tracer.wrap("rec", recursive)
    assert tracer.wrap("root", traced_rec)(3) == 1
    by_name = {s.name: s for s in tracer.spans}
    assert [s.name for s in tracer.spans].count("rec") == 1
    assert by_name["leaf"].parent == by_name["rec"].id
    assert by_name["rec"].parent == by_name["root"].id
    assert by_name["root"].parent is None
    assert by_name["leaf"].units == 1


def test_patch_restores_inherited_and_own_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    tracer = Tracer()
    own_g = vars(Child)["g"]
    tracer.patch(Child, "f", "f")
    tracer.patch(Child, "g", "g")
    assert Child().f() == "base" and Child().g() == "child"
    assert {s.name for s in tracer.spans} == {"f", "g"}
    tracer.unpatch_all()
    assert "f" not in vars(Child)
    assert vars(Child)["g"] is own_g


def test_checker_accepts_an_mis():
    assert mis_violation(PATH_INDPTR, PATH_INDICES, mask_of(5, [0, 2, 4])) is None
    assert mis_violation(PATH_INDPTR, PATH_INDICES, mask_of(5, [1, 3, 4])) is None


def test_checker_rejects_a_set_that_is_not_independent():
    problem = mis_violation(PATH_INDPTR, PATH_INDICES, mask_of(5, [0, 1, 3, 4]))
    assert problem is not None and "not independent" in problem


def test_checker_rejects_a_set_that_is_not_maximal():
    problem = mis_violation(PATH_INDPTR, PATH_INDICES, mask_of(5, [0, 4]))
    assert problem is not None and "not maximal" in problem
    # The isolated vertex must be in the set too.
    problem = mis_violation(PATH_INDPTR, PATH_INDICES, mask_of(5, [0, 2]))
    assert problem is not None and "vertex 4" in problem


def test_checker_restricts_to_alive_vertices():
    alive = np.array([True, True, True, True, False])
    assert mis_violation(
        PATH_INDPTR, PATH_INDICES, mask_of(5, [0, 2]), alive=alive
    ) is None
    problem = mis_violation(
        PATH_INDPTR, PATH_INDICES, mask_of(5, [0, 2, 4]), alive=alive
    )
    assert problem is not None and "dead vertex 4" in problem


def test_same_seed_gives_same_inputs(tmp_path):
    a = workloads.Fleet(5, tmp_path / "a")
    b = workloads.Fleet(5, tmp_path / "b")
    c = workloads.Fleet(6, tmp_path / "c")
    for w in (a, b, c):
        w.build()
    assert np.array_equal(a.graph.indptr, b.graph.indptr)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    assert a.master == b.master
    assert a.master != c.master
    assert not (
        a.graph.m == c.graph.m
        and np.array_equal(a.graph.indices, c.graph.indices)
    )
    assert workloads.derive(5, "start", 3, 2) == workloads.derive(5, "start", 3, 2)
    assert workloads.derive(5, "start", 3, 2) != workloads.derive(5, "start", 4, 2)


def test_benchmark_json_matches_the_harness():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
    )
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
