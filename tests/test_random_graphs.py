"""Tests for repro.graphs.random_graphs."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.graphs import random_graphs as rg
from repro.graphs.graph import Graph
from repro.graphs.properties import is_connected


class TestGnp:
    def test_p_zero(self):
        assert rg.gnp_random_graph(50, 0.0, rng=0).m == 0

    def test_p_one_is_complete(self):
        g = rg.gnp_random_graph(20, 1.0, rng=0)
        assert g.m == 190

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            rg.gnp_random_graph(10, 1.5)
        with pytest.raises(ValueError):
            rg.gnp_random_graph(10, -0.1)

    def test_reproducible(self):
        g1 = rg.gnp_random_graph(100, 0.1, rng=42)
        g2 = rg.gnp_random_graph(100, 0.1, rng=42)
        assert g1 == g2

    def test_edge_count_concentrates(self):
        # E[m] = p * C(n,2); check within 5 sigma.
        n, p = 300, 0.1
        expected = p * n * (n - 1) / 2
        sigma = np.sqrt(expected * (1 - p))
        g = rg.gnp_random_graph(n, p, rng=7)
        assert abs(g.m - expected) < 5 * sigma

    def test_degree_distribution_mean(self):
        n, p = 400, 0.05
        g = rg.gnp_random_graph(n, p, rng=3)
        assert abs(g.average_degree() - p * (n - 1)) < 2.0

    def test_small_n(self):
        assert rg.gnp_random_graph(0, 0.5, rng=0).n == 0
        assert rg.gnp_random_graph(1, 0.5, rng=0).m == 0

    def test_vectorized_skip_path_deterministic(self):
        # A sample above the dense path's n <= 6000 cutoff, where only
        # geometric skipping applies.
        g1 = rg.gnp_random_graph(7000, 0.0005, rng=17)
        g2 = rg.gnp_random_graph(7000, 0.0005, rng=17)
        assert g1 == g2
        expected = 0.0005 * 7000 * 6999 / 2
        sigma = (expected * (1 - 0.0005)) ** 0.5
        assert abs(g1.m - expected) < 6 * sigma

    def test_vectorized_skip_multi_block(self, monkeypatch):
        # Shrink the per-block skip cap so the sampler must continue
        # across many blocks; the sample must stay a valid G(n, p) draw.
        monkeypatch.setattr(rg, "_SKIP_BLOCK_CAP", 64)
        n, p = 7000, 0.0005  # E[m] ~ 12k edges -> ~190 blocks
        g = rg.gnp_random_graph(n, p, rng=23)
        expected = p * n * (n - 1) / 2
        sigma = (expected * (1 - p)) ** 0.5
        assert abs(g.m - expected) < 6 * sigma
        us, vs = g.edge_arrays()
        assert us.size == g.m
        assert ((0 <= us) & (us < vs) & (vs < n)).all()


def _reference_gnp(n: int, p: float, gen: np.random.Generator) -> Graph:
    """Per-edge Batagelj–Brandes loop: one ``gen.random()`` per edge.

    The sampler's specification: ``gnp_random_graph`` must produce the
    same edges and leave ``gen`` in the same state on its skip path.
    """
    total_pairs = n * (n - 1) // 2
    us: list[int] = []
    vs: list[int] = []
    log_q = float(np.log1p(-p))
    v = 1
    w = -1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while v < n:
            r = gen.random()
            skip = np.floor(np.log1p(-r) / log_q)
            if not skip < total_pairs:
                break
            w = w + 1 + int(skip)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                us.append(w)
                vs.append(v)
    return Graph.from_numpy_edges(
        n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)
    )


def _states_equal(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _states_equal(a[k], b[k]) for k in a
        )
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64]


def _assert_matches_reference(n: int, p: float, seed: int,
                              bitgen=np.random.PCG64) -> None:
    assert p * (n * (n - 1) // 2) <= 50_000 or n > 6000, "dense path"
    gen_ref = np.random.Generator(bitgen(seed))
    gen_new = np.random.Generator(bitgen(seed))
    ref = _reference_gnp(n, p, gen_ref)
    got = rg.gnp_random_graph(n, p, rng=gen_new)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert _states_equal(gen_new.bit_generator.state,
                         gen_ref.bit_generator.state)
    assert gen_new.random() == gen_ref.random()


class TestGnpSkipOracle:
    """Edges and post-call generator state match the per-edge loop."""

    # The sweep grid (n, c/n) of the perfbench sweep workload, tiny n,
    # the sparse neighbour of the dense threshold, denormal p and p
    # adjacent to 1.
    CASES = [(1024, 3 / 1024), (4096, 3 / 4096), (512, 25 / 512),
             (2048, 12 / 2048), (0, 0.5), (1, 0.5), (2, 0.5), (3, 0.5),
             (2, 0.999), (3, 0.01), (500, 0.4), (50, 5e-324),
             (1000, 1e-300), (300, 1 - 1e-6)]

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS)
    @pytest.mark.parametrize("n,p", CASES)
    def test_matches_per_edge_loop(self, n, p, bitgen):
        for seed in (0, 1, 2024):
            _assert_matches_reference(n, p, seed, bitgen)

    @pytest.mark.parametrize("bitgen", BIT_GENERATORS)
    def test_matches_across_many_blocks(self, monkeypatch, bitgen):
        monkeypatch.setattr(rg, "_SKIP_BLOCK_CAP", 7)
        for n, p in [(2, 0.5), (3, 0.9), (64, 0.2), (1024, 3 / 1024),
                     (300, 1 - 1e-6)]:
            for seed in range(3):
                _assert_matches_reference(n, p, seed, bitgen)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3000),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                  exclude_max=True),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_per_edge_loop_hypothesis(self, n, frac, seed):
        # Scale p below the dense threshold so every example takes the
        # skip path; small n still sees the whole range of p.
        total_pairs = n * (n - 1) // 2
        p = frac * min(1.0, 50_000 / max(total_pairs, 1))
        assume(0.0 < p < 1.0 and p * total_pairs <= 50_000)
        _assert_matches_reference(n, p, seed)


class TestGnm:
    def test_exact_edge_count(self):
        g = rg.gnm_random_graph(30, 50, rng=0)
        assert g.m == 50

    def test_extremes(self):
        assert rg.gnm_random_graph(10, 0, rng=0).m == 0
        assert rg.gnm_random_graph(10, 45, rng=0).m == 45

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            rg.gnm_random_graph(5, 11)

    def test_no_duplicate_edges(self):
        g = rg.gnm_random_graph(20, 100, rng=5)
        assert g.m == 100  # Graph collapses duplicates; count must survive


class TestRandomTree:
    def test_is_tree(self):
        for seed in range(5):
            g = rg.random_tree(50, rng=seed)
            assert g.m == 49
            assert is_connected(g)

    def test_small_cases(self):
        assert rg.random_tree(0).n == 0
        assert rg.random_tree(1).m == 0
        assert rg.random_tree(2).m == 1
        g3 = rg.random_tree(3, rng=0)
        assert g3.m == 2
        assert is_connected(g3)

    def test_reproducible(self):
        assert rg.random_tree(40, rng=9) == rg.random_tree(40, rng=9)

    def test_prufer_uniformity_smoke(self):
        # Over labelled trees on 3 vertices there are 3 shapes (choice of
        # center); check all appear.
        centers = set()
        for seed in range(60):
            g = rg.random_tree(3, rng=seed)
            center = max(g.vertices(), key=g.degree)
            centers.add(center)
        assert centers == {0, 1, 2}


class TestRandomRegular:
    @pytest.mark.parametrize("n,d", [(10, 3), (20, 4), (50, 2), (64, 7)])
    def test_regularity(self, n, d):
        g = rg.random_regular_graph(n, d, rng=1)
        assert all(g.degree(u) == d for u in g.vertices())
        assert g.m == n * d // 2

    def test_d_zero(self):
        assert rg.random_regular_graph(5, 0).m == 0

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            rg.random_regular_graph(5, 3)

    def test_d_too_large_rejected(self):
        with pytest.raises(ValueError):
            rg.random_regular_graph(4, 4)

    def test_no_self_loops_or_multiedges_many_seeds(self):
        for seed in range(10):
            g = rg.random_regular_graph(30, 6, rng=seed)
            assert all(g.degree(u) == 6 for u in g.vertices())


class TestBipartiteAndPlanted:
    def test_bipartite_no_intra_part_edges(self):
        g = rg.random_bipartite_graph(10, 15, 0.3, rng=0)
        for u in range(10):
            for v in range(10):
                assert not g.has_edge(u, v) or u == v
        assert g.n == 25

    def test_bipartite_p_extremes(self):
        assert rg.random_bipartite_graph(5, 5, 0.0, rng=0).m == 0
        assert rg.random_bipartite_graph(5, 5, 1.0, rng=0).m == 25

    def test_planted_partition_block_structure(self):
        g = rg.planted_partition_graph([20, 20], 0.9, 0.01, rng=3)
        intra = g.induced_edge_count(range(20))
        inter = g.edges_between(range(20), range(20, 40))
        assert intra > inter

    def test_planted_partition_validates(self):
        with pytest.raises(ValueError):
            rg.planted_partition_graph([5, 5], 1.5, 0.1)
