"""Random graph models.

The central workload of the paper's analysis is the Erdős–Rényi model
``G(n, p)`` (Theorems 2, 3, 19, 32).  We also provide random trees (for
Theorem 11), random regular graphs (for Theorem 12's Δ-sweeps), random
bipartite graphs and a planted-partition model for additional coverage.

All generators take a ``numpy.random.Generator`` (or an integer seed) so
experiments are reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph, GraphBuilder


def _as_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce seeds or generators to a ``numpy.random.Generator``."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


#: Upper bound on the number of geometric skips drawn per block by the
#: vectorized sampler (bounds transient memory; tests shrink it to
#: exercise the multi-block continuation path).
_SKIP_BLOCK_CAP = 4_000_000


def _triangle_unrank(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert the strict-lower-triangle linear index ``k = v(v-1)/2 + w``.

    Returns ``(w, v)`` with ``0 <= w < v``.  The float inversion is
    followed by integer correction passes, so it is exact for every
    ``k < 2^52`` (a million-vertex graph has ~5·10¹¹ pairs).
    """
    k = np.asarray(k, dtype=np.int64)
    v = np.floor((1.0 + np.sqrt(8.0 * k + 1.0)) / 2.0).astype(np.int64)
    w = k - v * (v - 1) // 2
    while np.any(w < 0):
        v = np.where(w < 0, v - 1, v)
        w = k - v * (v - 1) // 2
    while np.any(w >= v):
        v = np.where(w >= v, v + 1, v)
        w = k - v * (v - 1) // 2
    return w, v


def _gnp_skip_vectorized(
    n: int, p: float, gen: np.random.Generator
) -> Graph:
    """Batagelj–Brandes geometric skipping with block-drawn skips.

    Walks the linearized strict lower triangle ``k = v(v-1)/2 + w``:
    each uniform ``r`` gives a skip ``floor(log1p(-r) / log1p(-p))`` and
    the next edge sits ``skip + 1`` pairs past the previous one.  The
    uniforms are drawn in vectorized blocks and the positions accumulated
    with one ``cumsum``, so a G(10⁶, 3/n) sample costs a handful of
    numpy calls instead of ~1.5M Python loop iterations.

    Draw contract: a sample with ``m`` edges consumes exactly ``m + 1``
    uniforms from ``gen``, one per edge plus the terminating draw (a
    skip ``>= C(n, 2)`` or a position past the last pair).  This is
    what a per-edge ``gen.random()`` loop consumes, and
    ``Generator.random(k)`` yields the same doubles as ``k`` scalar
    calls, so edges and the generator's end state both match that loop
    bit for bit, for every numpy BitGenerator.
    """
    total_pairs = n * (n - 1) // 2
    log_q = float(np.log1p(-p))
    expected = p * total_pairs
    block = int(
        min(
            _SKIP_BLOCK_CAP,
            max(1024, expected * 1.1 + 6.0 * expected**0.5 + 16),
        )
    )
    start = gen.bit_generator.state
    chunks: list[np.ndarray] = []
    pos = -1  # linear triangle index of the last emitted pair
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            r = gen.random(block)
            skips = np.floor(np.log1p(-r) / log_q)
            # A single skip >= total_pairs ends the stream (inf-safe for
            # denormal p, where log_q rounds to -0.0).
            stop = np.flatnonzero(~(skips < total_pairs))
            done = stop.size > 0
            if done:
                skips = skips[: stop[0]]
            ks = pos + np.cumsum(skips.astype(np.int64) + 1)
            if ks.size:
                pos = int(ks[-1])
            in_range = ks < total_pairs
            chunks.append(ks[in_range])
            if done or not in_range.all():
                break
    ks = np.concatenate(chunks)
    # Give back the uniforms the last block drew past the terminating one.
    gen.bit_generator.state = start
    gen.random(ks.size + 1)
    if ks.size == 0:
        return Graph(n)
    us, vs = _triangle_unrank(ks)
    return Graph.from_numpy_edges(n, us, vs)


def gnp_random_graph(
    n: int, p: float, rng: np.random.Generator | int | None = None
) -> Graph:
    """Erdős–Rényi random graph ``G(n, p)``.

    Each of the ``C(n, 2)`` possible edges is present independently with
    probability ``p``.  Samples are drawn by block-vectorized geometric
    skipping (:func:`_gnp_skip_vectorized`): the cost is ``O(n + m)``
    rather than ``O(n^2)``, million-vertex sparse samples construct in
    well under a second, and a sample with ``m`` edges consumes exactly
    ``m + 1`` uniforms from ``rng``.  The one exception is a dense small
    sample (more than 50k expected edges and ``n <= 6000``), which draws
    one uniform per vertex pair over the whole upper triangle instead.

    Any ``0 <= p <= 1`` float is accepted, including denormals: skip
    lengths are computed in float space and compared against the number
    of remaining vertex pairs *before* integer conversion, so a tiny
    ``p`` (where ``log1p(-p)`` underflows toward ``-0.0`` and the skip
    quotient overflows to ``inf``) terminates cleanly instead of raising
    ``OverflowError``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if n < 0:
        raise ValueError("n must be >= 0")
    gen = _as_rng(rng)
    if p == 0.0 or n < 2:
        return Graph(n)
    if p == 1.0:
        from repro.graphs.generators import complete_graph

        return complete_graph(n)

    # Dense path: materialize the whole upper triangle with one
    # vectorized Bernoulli draw (O(n²) memory).  Its draw order differs
    # from skipping's, so the threshold is part of the seeding contract.
    total_pairs = n * (n - 1) // 2
    expected_edges = p * total_pairs
    if expected_edges > 50_000 and n <= 6000:
        iu, ju = np.triu_indices(n, k=1)
        mask = gen.random(iu.size) < p
        return Graph.from_numpy_edges(n, iu[mask], ju[mask])

    return _gnp_skip_vectorized(n, p, gen)


def gnm_random_graph(
    n: int, m: int, rng: np.random.Generator | int | None = None
) -> Graph:
    """Uniform random graph with exactly ``m`` edges."""
    max_m = n * (n - 1) // 2
    if not 0 <= m <= max_m:
        raise ValueError(f"m must be in [0, {max_m}], got {m}")
    gen = _as_rng(rng)
    # Sample m distinct positions in the strict upper triangle and
    # invert the linear indices (row v, column w with w < v) vectorized.
    chosen = gen.choice(max_m, size=m, replace=False)
    if m == 0:
        return Graph(n)
    us, vs = _triangle_unrank(chosen)
    return Graph.from_numpy_edges(n, us, vs)


def random_tree(n: int, rng: np.random.Generator | int | None = None) -> Graph:
    """Uniform random labelled tree on ``n`` vertices (Prüfer sequence).

    Trees have arboricity 1, so this is the canonical Theorem 11 workload.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= 1:
        return Graph(n)
    if n == 2:
        return Graph(2, [(0, 1)])
    gen = _as_rng(rng)
    prufer = gen.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    for x in prufer:
        degree[x] += 1
    edges = []
    # Min-leaf extraction via a pointer scan (classic O(n) decode).
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, int(x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, int(x))
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    arr = np.array(edges, dtype=np.int64)
    return Graph.from_numpy_edges(n, arr[:, 0], arr[:, 1])


def random_regular_graph(
    n: int,
    d: int,
    rng: np.random.Generator | int | None = None,
    max_attempts: int = 100,
) -> Graph:
    """Random ``d``-regular graph via the configuration model.

    Pairs up ``n*d`` half-edges uniformly at random, then repairs loops
    and multi-edges by random double-edge swaps (the standard practical
    fix; the resulting distribution is not exactly uniform over simple
    d-regular graphs but is contiguous with it for ``d = O(sqrt(n))``,
    which is all the Theorem 12 experiments need).  Dense degrees
    (``2d >= n``), where swap repair converges poorly, are generated as
    the complement of a random ``(n-1-d)``-regular graph; if a repair
    still fails, the whole pairing is redrawn (up to ``max_attempts``
    restarts).

    Raises
    ------
    ValueError
        If ``n*d`` is odd or ``d >= n``.
    RuntimeError
        If every restart's repair loop fails to converge (practically
        unreachable).
    """
    if d < 0 or n < 0:
        raise ValueError("n and d must be >= 0")
    if d >= n and not (n == 0 and d == 0):
        raise ValueError(f"need d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if d == 0:
        return Graph(n)
    gen = _as_rng(rng)
    if d == n - 1:
        # K_n is the unique (n-1)-regular simple graph.
        from repro.graphs.generators import complete_graph

        return complete_graph(n)
    if 2 * d >= n:
        # Complementation: G is d-regular iff its complement is
        # (n-1-d)-regular, and n(n-1-d) inherits evenness from nd.
        # The complement is taken vectorized — the result has Θ(n²)
        # edges, so per-edge Python construction would dominate.
        sparse = _random_regular_pairing(n, n - 1 - d, gen, max_attempts)
        absent = sparse.adjacency_dense() == 0
        iu, ju = np.triu_indices(n, k=1)
        mask = absent[iu, ju]
        return Graph.from_numpy_edges(n, iu[mask], ju[mask])
    return _random_regular_pairing(n, d, gen, max_attempts)


def _random_regular_pairing(
    n: int, d: int, gen: np.random.Generator, max_attempts: int
) -> Graph:
    """Configuration-model pairing with swap repair and full restarts."""
    if d == 0:
        return Graph(n)
    for _ in range(max(max_attempts, 1)):
        stubs = np.repeat(np.arange(n), d)
        gen.shuffle(stubs)
        pairs = [
            (int(stubs[2 * i]), int(stubs[2 * i + 1]))
            for i in range(len(stubs) // 2)
        ]

        def edge_key(u: int, v: int) -> tuple[int, int]:
            return (u, v) if u < v else (v, u)

        seen: dict[tuple[int, int], int] = {}
        bad: set[int] = set()
        for idx, (u, v) in enumerate(pairs):
            if u == v:
                bad.add(idx)
                continue
            key = edge_key(u, v)
            if key in seen:
                bad.add(idx)
            else:
                seen[key] = idx

        num_pairs = len(pairs)
        for _ in range(max_attempts * max(num_pairs, 1)):
            if not bad:
                break
            i = next(iter(bad))
            j = int(gen.integers(0, num_pairs))
            if i == j:
                continue
            u1, v1 = pairs[i]
            u2, v2 = pairs[j]
            # Swap the second endpoints: (u1, v2), (u2, v1).
            new_i, new_j = (u1, v2), (u2, v1)
            for idx in (i, j):
                u, v = pairs[idx]
                if u != v and seen.get(edge_key(u, v)) == idx:
                    del seen[edge_key(u, v)]
                bad.discard(idx)
            pairs[i], pairs[j] = new_i, new_j
            for idx in (i, j):
                u, v = pairs[idx]
                if u == v:
                    bad.add(idx)
                    continue
                key = edge_key(u, v)
                if key in seen and seen[key] != idx:
                    bad.add(idx)
                else:
                    seen[key] = idx
        if not bad:
            arr = np.array(pairs, dtype=np.int64)
            return Graph.from_numpy_edges(n, arr[:, 0], arr[:, 1])
    raise RuntimeError(
        f"failed to repair a simple {d}-regular pairing on {n} vertices"
    )


def random_bipartite_graph(
    a: int, b: int, p: float, rng: np.random.Generator | int | None = None
) -> Graph:
    """Bipartite G(a, b, p): each cross edge present with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    gen = _as_rng(rng)
    mask = gen.random((a, b)) < p
    rows, cols = np.nonzero(mask)
    return Graph.from_numpy_edges(
        a + b, rows.astype(np.int64), a + cols.astype(np.int64)
    )


def planted_partition_graph(
    sizes: list[int],
    p_in: float,
    p_out: float,
    rng: np.random.Generator | int | None = None,
) -> Graph:
    """Planted-partition (stochastic block) model.

    Vertices are split into blocks of the given ``sizes``; two vertices in
    the same block are adjacent with probability ``p_in``, in different
    blocks with probability ``p_out``.
    """
    for prob in (p_in, p_out):
        if not 0.0 <= prob <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
    gen = _as_rng(rng)
    n = sum(sizes)
    block = np.empty(n, dtype=np.int64)
    start = 0
    for b_idx, size in enumerate(sizes):
        block[start:start + size] = b_idx
        start += size
    builder = GraphBuilder(n)
    for u in range(n):
        for v in range(u + 1, n):
            prob = p_in if block[u] == block[v] else p_out
            if prob > 0.0 and gen.random() < prob:
                builder.add_edge(u, v)
    return builder.build()
