"""Job specs and the graph-swapping pickler.

Workers receive *small* payloads: a shard's process objects with every
reference to a published graph — the :class:`~repro.graphs.graph.Graph`
itself, its CSR arrays, its cached degree array, and any
:class:`~repro.core.neighbor_ops.NeighborOps` bound to it — replaced by
a token (``pickle`` persistent IDs).  The receiving side resolves
tokens against its own :class:`GraphRegistry`: a worker's registry is
built over the shared-memory view graphs, the master's over the
original objects, so a round trip master → worker → master hands the
caller back processes that reference the caller's *own* graph and ops
instances.  Adjacency structure never crosses a queue; what does cross
is O(shard size × n) bytes of process state.

:class:`ShardJob` / :class:`ShardResult` are the wire format that
:class:`~repro.parallel.supervisor.SupervisedPool` carries: fleets,
sweeps, fault campaigns and experiment workloads all reduce to shard
jobs, so no process factory is ever pickled.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core import neighbor_ops as _nops
from repro.graphs.graph import Graph
from repro.parallel.shared_graph import SharedGraphHandle

#: NeighborOps classes eligible for token swapping (rebuildable from a
#: graph alone).  Instances of other subclasses pickle by value.
_OPS_CLASSES: dict[str, type[_nops.NeighborOps]] = {
    cls.__name__: cls
    for cls in (
        _nops.SparseNeighborOps,
        _nops.DenseNeighborOps,
        _nops.BitsetNeighborOps,
        _nops.AdjListNeighborOps,
    )
}

#: Persistent-ID token: ("graph", i) | ("csr", i, which) |
#: ("degrees", i) | ("ops", i, clsname).
_Token = tuple[Any, ...]


class _SwapPickler(pickle.Pickler):
    """Pickler that swaps registered graph-adjacent objects for tokens."""

    def __init__(self, file: io.BytesIO, ids: dict[int, _Token]) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._ids = ids

    def persistent_id(self, obj: Any) -> _Token | None:
        token = self._ids.get(id(obj))
        if token is not None:
            return token
        if isinstance(obj, _nops.NeighborOps):
            clsname = type(obj).__name__
            if _OPS_CLASSES.get(clsname) is type(obj):
                slot = self._ids.get(id(obj.graph))
                if slot is not None and slot[0] == "graph":
                    return ("ops", slot[1], clsname)
        return None


class _SwapUnpickler(pickle.Unpickler):
    """Unpickler resolving swap tokens through a :class:`GraphRegistry`."""

    def __init__(self, file: io.BytesIO, registry: "GraphRegistry") -> None:
        super().__init__(file)
        self._registry = registry

    def persistent_load(self, pid: _Token) -> Any:
        return self._registry.resolve(pid)


class GraphRegistry:
    """Token table over a concrete list of graphs (one per endpoint).

    The master builds one over the fleet's original graphs, each worker
    over its attached shared-memory views — the graph at index ``i`` is
    the *same published graph* on both sides, which is what makes the
    token scheme a no-copy identity map.  NeighborOps resolve through a
    per-``(graph, class)`` cache, so every process of a shard that
    shared an ops instance (or a graph) before the trip shares one
    after it too.
    """

    def __init__(self, graphs: Sequence[Graph]) -> None:
        self.graphs: list[Graph] = list(graphs)
        self._ids: dict[int, _Token] = {}
        for i, graph in enumerate(self.graphs):
            self._ids[id(graph)] = ("graph", i)
            self._ids[id(graph.indptr)] = ("csr", i, "indptr")
            self._ids[id(graph.indices)] = ("csr", i, "indices")
            self._ids[id(graph.degrees())] = ("degrees", i)
        self._ops: dict[tuple[int, str], _nops.NeighborOps] = {}

    def index_of(self, graph: Graph) -> int | None:
        """Registry index of ``graph`` (by identity), or ``None``."""
        slot = self._ids.get(id(graph))
        if slot is not None and slot[0] == "graph":
            return int(slot[1])
        return None

    def register_ops(self, ops: _nops.NeighborOps) -> None:
        """Memoize an existing ops instance under its would-be token.

        The master registers each process's ops before dumping a shard,
        so results coming back resolve to the *original* instances
        instead of fresh rebuilds.
        """
        clsname = type(ops).__name__
        if _OPS_CLASSES.get(clsname) is not type(ops):
            return
        slot = self._ids.get(id(ops.graph))
        if slot is not None and slot[0] == "graph":
            self._ops.setdefault((int(slot[1]), clsname), ops)

    def resolve(self, pid: _Token) -> Any:
        """Materialize the object a swap token stands for."""
        kind = pid[0]
        if kind == "graph":
            return self.graphs[pid[1]]
        if kind == "csr":
            graph = self.graphs[pid[1]]
            return graph.indptr if pid[2] == "indptr" else graph.indices
        if kind == "degrees":
            return self.graphs[pid[1]].degrees()
        if kind == "ops":
            key = (int(pid[1]), str(pid[2]))
            ops = self._ops.get(key)
            if ops is None:
                ops = _OPS_CLASSES[key[1]](self.graphs[key[0]])
                self._ops[key] = ops
            return ops
        raise pickle.UnpicklingError(f"unknown swap token {pid!r}")

    def dumps(self, obj: Any) -> bytes:
        """Pickle ``obj`` with registered objects swapped for tokens."""
        buffer = io.BytesIO()
        _SwapPickler(buffer, self._ids).dump(obj)
        return buffer.getvalue()

    def loads(self, data: bytes) -> Any:
        """Unpickle swap-pickled bytes, resolving tokens locally."""
        return _SwapUnpickler(io.BytesIO(data), self).load()


@dataclass
class ShardJob:
    """One unit of worker work: run a slab of replicas to stabilization.

    ``payload`` is a swap-pickled ``list[MISProcess]`` (the shard's
    replicas); ``handle`` locates the published graphs the tokens
    resolve against.  Everything else mirrors the
    :func:`~repro.sim.runner.run_many_until_stable` parameters the
    worker forwards verbatim.
    """

    indices: tuple[int, int]
    payload: bytes
    handle: SharedGraphHandle
    max_rounds: int
    verify: bool
    batch: str | int | None
    engine: str
    #: Supervision bookkeeping: which dispatch attempt this is (the
    #: SupervisedPool bumps it on every re-dispatch; the chaos policy
    #: keys faults on it).  The payload never changes across attempts.
    attempt: int = 0


@dataclass
class ShardResult:
    """A finished shard: swap-pickled ``(results, processes)``."""

    indices: tuple[int, int]
    payload: bytes
