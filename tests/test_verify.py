"""Tests for repro.core.verify."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.verify import (
    assert_valid_mis,
    greedy_mis_size_bounds,
    independence_violations,
    is_independent_set,
    is_maximal_independent_set,
    maximality_violations,
)
from repro.graphs.generators import complete_graph, cycle_graph, path_graph
from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph


class TestIndependence:
    def test_empty_set_independent(self, triangle):
        assert is_independent_set(triangle, [])

    def test_violations_listed(self, triangle):
        violations = independence_violations(triangle, [0, 1])
        assert violations == [(0, 1)]

    def test_accepts_boolean_mask(self, triangle):
        mask = np.array([True, False, True])
        assert not is_independent_set(triangle, mask)

    def test_mask_shape_validation(self, triangle):
        with pytest.raises(ValueError):
            is_independent_set(triangle, np.array([True, False]))

    def test_index_out_of_range(self, triangle):
        with pytest.raises(ValueError):
            is_independent_set(triangle, [0, 5])


class TestMaximality:
    def test_maximality_violations(self):
        g = path_graph(5)
        # {0} is independent but 2, 3, 4 are uncovered.
        assert maximality_violations(g, [0]) == [2, 3, 4]

    def test_valid_mis(self):
        g = path_graph(5)
        assert is_maximal_independent_set(g, [0, 2, 4])
        assert not is_maximal_independent_set(g, [0, 2])  # 4 uncovered
        assert not is_maximal_independent_set(g, [0, 1, 3])  # not indep

    def test_cycle_mis(self):
        g = cycle_graph(6)
        assert is_maximal_independent_set(g, [0, 2, 4])
        assert not is_maximal_independent_set(g, [0, 3, 1])

    def test_clique_mis_any_single_vertex(self):
        g = complete_graph(5)
        for u in range(5):
            assert is_maximal_independent_set(g, [u])

    def test_empty_graph_mis_is_everything(self):
        g = Graph(4)
        assert is_maximal_independent_set(g, [0, 1, 2, 3])
        assert not is_maximal_independent_set(g, [0, 1])


class TestAssertValidMis:
    def test_passes_silently(self):
        assert_valid_mis(path_graph(3), [0, 2])

    def test_independence_error_message(self, triangle):
        with pytest.raises(AssertionError, match="independence"):
            assert_valid_mis(triangle, [0, 1])

    def test_maximality_error_message(self):
        with pytest.raises(AssertionError, match="maximality"):
            assert_valid_mis(path_graph(5), [0])

    @pytest.mark.parametrize("vertices,message", [
        ([0, 1, 3], "independence violated on 1 edge(s), e.g. [(0, 1)]"),
        ([0], "maximality violated at 3 vertex(ices), e.g. [2, 3, 4]"),
        # Both fail: independence is reported first.
        ([0, 1], "independence violated on 1 edge(s), e.g. [(0, 1)]"),
    ])
    def test_exact_messages(self, vertices, message):
        with pytest.raises(AssertionError) as info:
            assert_valid_mis(path_graph(5), vertices)
        assert str(info.value) == message

    def test_empty_graph(self):
        assert_valid_mis(Graph(0), [])
        assert is_maximal_independent_set(Graph(0), np.zeros(0, bool))


def _message_from_violation_lists(graph, mask):
    """The diagnostics ``assert_valid_mis`` builds, or None for an MIS."""
    ind = independence_violations(graph, mask)
    if ind:
        return f"independence violated on {len(ind)} edge(s), e.g. {ind[:5]}"
    maxi = maximality_violations(graph, mask)
    if maxi:
        return (f"maximality violated at {len(maxi)} vertex(ices), "
                f"e.g. {maxi[:5]}")
    return None


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_one_product_agrees_with_violation_lists(n, p, seed, density):
    graph = gnp_random_graph(n, p, rng=seed)
    gen = np.random.default_rng(seed)
    masks = [gen.random(n) < density, np.zeros(n, bool), np.ones(n, bool)]
    # A greedy MIS, so the valid case is exercised on every graph.
    greedy = np.zeros(n, bool)
    for u in range(n):
        if not greedy[list(graph.neighbors(u))].any():
            greedy[u] = True
    masks.append(greedy)
    for mask in masks:
        expected = _message_from_violation_lists(graph, mask)
        assert is_maximal_independent_set(graph, mask) == (expected is None)
        if expected is None:
            assert_valid_mis(graph, mask)
        else:
            with pytest.raises(AssertionError) as info:
                assert_valid_mis(graph, mask)
            assert str(info.value) == expected


class TestSizeBounds:
    def test_bounds_bracket_known_mis(self):
        g = cycle_graph(9)
        lower, upper = greedy_mis_size_bounds(g)
        # C_9: MIS sizes range 3..4.
        assert lower <= 3
        assert upper >= 4

    def test_clique_bounds(self):
        lower, upper = greedy_mis_size_bounds(complete_graph(10))
        assert lower == 1
        assert upper >= 1

    def test_empty_graph(self):
        assert greedy_mis_size_bounds(Graph(0)) == (0, 0)
        lower, upper = greedy_mis_size_bounds(Graph(5))
        assert lower >= 1
        assert upper == 5
