"""Output checks built on a graph's CSR arrays.

The benchmark checks every answer the program gives without calling
``repro.core.verify``, which is itself a timed layer: a set of vertices
is a maximal independent set of a graph when no edge has both ends in
the set and every vertex outside it has a neighbour inside.
"""

from __future__ import annotations

import numpy as np


def mis_violation(
    indptr: np.ndarray,
    indices: np.ndarray,
    members: np.ndarray,
    alive: np.ndarray | None = None,
) -> str | None:
    """Why ``members`` is not an MIS of the CSR graph, or ``None``.

    ``members`` is a boolean mask over the vertices.  With ``alive``
    given, the set must lie inside the alive vertices and be maximal
    among them; dead vertices are not required to be covered.
    """
    indptr = np.asarray(indptr)
    n = indptr.size - 1
    members = np.asarray(members, dtype=bool)
    if members.shape != (n,):
        return f"member mask has shape {members.shape}, graph has n={n}"
    if alive is not None and np.any(members & ~alive):
        bad = int(np.flatnonzero(members & ~alive)[0])
        return f"dead vertex {bad} is in the set"
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    dst = np.asarray(indices, dtype=np.int64)
    clash = members[src] & members[dst]
    if np.any(clash):
        k = int(np.flatnonzero(clash)[0])
        return f"not independent: edge ({int(src[k])}, {int(dst[k])})"
    covered = members.copy()
    covered[src[members[dst]]] = True
    must_cover = np.ones(n, dtype=bool) if alive is None else alive
    uncovered = must_cover & ~covered
    if np.any(uncovered):
        return (
            f"not maximal: vertex {int(np.flatnonzero(uncovered)[0])} "
            "has no neighbour in the set"
        )
    return None


def mask_of(n: int, vertices: np.ndarray) -> np.ndarray:
    """Boolean mask of a vertex index array."""
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(vertices, dtype=np.int64)] = True
    return mask
