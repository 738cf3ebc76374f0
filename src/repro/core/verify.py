"""MIS verification utilities.

The correctness claim underlying every theorem is: *once the process
stabilizes, the black set is a maximal independent set*.  These functions
check independence and maximality of arbitrary vertex sets, enumerate
violations, and provide an assertion helper used across the test suite
and the experiment harness.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.graphs.graph import Graph


def _as_mask(graph: Graph, vertices: Iterable[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(vertices)
    if arr.dtype == bool:
        if arr.shape != (graph.n,):
            raise ValueError(
                f"boolean mask must have shape ({graph.n},), got {arr.shape}"
            )
        return arr
    mask = np.zeros(graph.n, dtype=bool)
    if arr.size:
        idx = arr.astype(np.int64)
        if idx.min() < 0 or idx.max() >= graph.n:
            raise ValueError("vertex index out of range")
        mask[idx] = True
    return mask


def independence_violations(
    graph: Graph, vertices: Iterable[int] | np.ndarray
) -> list[tuple[int, int]]:
    """Edges with both endpoints in the set (empty iff independent)."""
    mask = _as_mask(graph, vertices)
    us, vs = graph.edge_arrays()
    bad = mask[us] & mask[vs]
    return list(zip(us[bad].tolist(), vs[bad].tolist()))


def maximality_violations(
    graph: Graph, vertices: Iterable[int] | np.ndarray
) -> list[int]:
    """Vertices outside the set with no neighbour inside (empty iff maximal).

    Only meaningful when the set is independent.
    """
    mask = _as_mask(graph, vertices)
    if graph.n == 0:
        return []
    counts = graph.adjacency_csr().dot(mask.astype(np.int32))
    return np.flatnonzero(~mask & (counts == 0)).tolist()


def is_independent_set(
    graph: Graph, vertices: Iterable[int] | np.ndarray
) -> bool:
    """Whether the set is independent."""
    return not independence_violations(graph, vertices)


def _is_mis_mask(graph: Graph, mask: np.ndarray) -> bool:
    """Decide both MIS properties from one sparse product.

    ``counts[u]`` is the number of set members adjacent to ``u``: a
    member with ``counts > 0`` breaks independence, a non-member with
    ``counts == 0`` breaks maximality.
    """
    if graph.n == 0:
        return True
    counts = graph.adjacency_csr().dot(mask.astype(np.int32))
    covered = counts > 0
    return not (mask & covered).any() and bool((mask | covered).all())


def is_maximal_independent_set(
    graph: Graph, vertices: Iterable[int] | np.ndarray
) -> bool:
    """Whether the set is a maximal independent set."""
    return _is_mis_mask(graph, _as_mask(graph, vertices))


def assert_valid_mis(
    graph: Graph, vertices: Iterable[int] | np.ndarray
) -> None:
    """Raise ``AssertionError`` with diagnostics if the set is not an MIS.

    A valid set costs one sparse product; the violation lists behind the
    message are built only when a check fails.
    """
    mask = _as_mask(graph, vertices)
    if _is_mis_mask(graph, mask):
        return
    ind = independence_violations(graph, mask)
    if ind:
        raise AssertionError(
            f"independence violated on {len(ind)} edge(s), e.g. {ind[:5]}"
        )
    maxi = maximality_violations(graph, mask)
    if maxi:
        raise AssertionError(
            f"maximality violated at {len(maxi)} vertex(ices), "
            f"e.g. {maxi[:5]}"
        )


def greedy_mis_size_bounds(graph: Graph) -> tuple[int, int]:
    """Crude lower/upper bounds on any MIS size.

    Lower: n / (Δ + 1) (every MIS is dominating).  Upper: n minus a crude
    matching-based bound.  Used by tests as sanity envelopes for the
    MIS sizes the processes produce.
    """
    n = graph.n
    if n == 0:
        return (0, 0)
    delta = graph.max_degree()
    lower = max(1, -(-n // (delta + 1)))  # ceil
    # Greedy maximal matching: each matched edge kills at least one
    # candidate, so any independent set has size <= n - matching_size.
    matched = np.zeros(n, dtype=bool)
    matching_size = 0
    for u, v in graph.edges():
        if not matched[u] and not matched[v]:
            matched[u] = matched[v] = True
            matching_size += 1
    upper = n - matching_size
    return (lower, upper)
