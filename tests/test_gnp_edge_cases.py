"""G(n, p) sampler edge cases: extreme p, path boundaries, determinism.

Regression suite for the geometric-skip overflow (``np.log1p(-p)``
underflowing toward ``-0.0`` for denormal ``p``, sending the skip
quotient to ``inf`` before integer conversion) plus invariants at the
dense/sparse path crossover and a seed-determinism pin of the fixed
sampler's output.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.graph import Graph
from repro.graphs.random_graphs import gnp_random_graph

#: Extreme but legal probabilities, including the denormal that used to
#: raise OverflowError and values adjacent to both endpoints.
EXTREME_PS = [5e-324, 1e-320, 1e-12, 0.5, 1 - 1e-12, 1e-9, 1 - 2**-53]


def graph_invariants(g: Graph, n: int) -> None:
    assert g.n == n
    assert 0 <= g.m <= n * (n - 1) // 2
    assert int(g.degrees().sum()) == 2 * g.m
    for u, v in g.edges():
        assert 0 <= u < v < n


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=80),
    st.sampled_from(EXTREME_PS),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_extreme_p_invariants(n, p, seed):
    graph_invariants(gnp_random_graph(n, p, rng=seed), n)


def test_denormal_p_regression():
    # The exact Hypothesis counterexample class from the seed suite:
    # log1p(-p) underflows and int(inf) raised OverflowError.
    g = gnp_random_graph(50, 5e-324, rng=0)
    assert g.m == 0


def test_tiny_p_is_effectively_empty():
    # Expected edge count ~ 1e-9; any sampled edge would be a miracle.
    g = gnp_random_graph(100, 1e-12, rng=123)
    assert g.m == 0


def test_p_adjacent_to_one_is_nearly_complete():
    n = 40
    g = gnp_random_graph(n, 1 - 1e-12, rng=7)
    assert g.m == n * (n - 1) // 2


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_full_p_range_small_n(p, seed):
    graph_invariants(gnp_random_graph(25, p, rng=seed), 25)


class TestPathBoundary:
    """The sampler picks between a vectorized dense path (expected
    edges > 50k, n <= 6000) and geometric skipping; both sides of the
    crossover must satisfy the same invariants."""

    def test_just_below_dense_threshold(self):
        # n=500, p=0.4: E[m] ~ 49_900 < 50_000 -> geometric skipping.
        n, p = 500, 0.4
        assert p * n * (n - 1) / 2 < 50_000
        graph_invariants(gnp_random_graph(n, p, rng=11), n)

    def test_just_above_dense_threshold(self):
        # n=500, p=0.41: E[m] ~ 51_100 > 50_000 -> dense path.
        n, p = 500, 0.41
        assert p * n * (n - 1) / 2 > 50_000
        graph_invariants(gnp_random_graph(n, p, rng=11), n)

    def test_large_n_always_geometric(self):
        # Above the dense path's n <= 6000 cutoff the skip sampler runs
        # even when the expected edge count exceeds the dense threshold.
        n, p = 6500, 0.003
        g = gnp_random_graph(n, p, rng=13)
        graph_invariants(g, n)
        expected = p * n * (n - 1) / 2
        sigma = np.sqrt(expected * (1 - p))
        assert abs(g.m - expected) < 6 * sigma

    def test_edge_counts_concentrate_both_sides(self):
        n = 500
        for p in (0.4, 0.41):
            g = gnp_random_graph(n, p, rng=29)
            expected = p * n * (n - 1) / 2
            sigma = np.sqrt(expected * (1 - p))
            assert abs(g.m - expected) < 6 * sigma


class TestSeedDeterminism:
    def test_same_seed_same_graph(self):
        for p in (0.01, 0.3, 0.9):
            assert gnp_random_graph(64, p, rng=99) == gnp_random_graph(
                64, p, rng=99
            )

    def test_pinned_sparse_sample(self):
        # Regression pin of the fixed sampler's exact output: the
        # geometric-skip draw order must never silently change (it
        # would invalidate every recorded experiment seed).
        g = gnp_random_graph(12, 0.2, rng=2024)
        assert g.edge_list() == [
            (0, 10),
            (1, 4),
            (2, 3),
            (2, 6),
            (2, 10),
            (2, 11),
            (3, 4),
            (3, 10),
            (3, 11),
            (6, 9),
            (7, 9),
            (7, 10),
            (7, 11),
            (8, 9),
            (8, 11),
        ]

    def test_pinned_denormal_sample_is_empty(self):
        assert gnp_random_graph(1000, 5e-324, rng=0).m == 0


def test_invalid_p_still_rejected():
    for bad in (-1e-9, 1 + 1e-9, float("nan")):
        with pytest.raises(ValueError):
            gnp_random_graph(10, bad, rng=0)
