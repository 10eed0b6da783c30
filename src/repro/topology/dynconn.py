"""Fully-dynamic connectivity with exact per-component service aggregates.

The move engine (:mod:`repro.optimization.incremental`) prices deletions —
``RemoveLink`` and the removal half of ``Rewire`` — so it needs connectivity
that can split.  This structure keeps an insertion-ordered adjacency dict
per vertex, a vertex → component-label map and, per label, the exact sums
``(size, cores, demand, revenue)``.

Queries are O(1) label lookups.  An insertion joining two components
relabels the smaller: O(smaller side).  A deletion runs a breadth-first
search from each endpoint, one vertex at a time in turn.  If they meet, the
component did not split: O(vertices searched until they met).  If one runs
out first, its side split off and moves to a fresh label: O(smaller side).

Demand/revenue are *exact fixed-point integers*, so a component's sums, and
the correctly-rounded floats read back, depend only on its vertex set, never
on the merges and splits that built it.  Insert/delete tokens record the
edge and the vertices relabelled; :meth:`~DynamicConnectivity.undo` restores
both bit-exactly, labels included, in strict LIFO order checked by token
identity (the move engine's undo discipline).

``KERNEL_COUNTERS.dynconn_tree_ops`` counts the vertices split searches
visit plus those merges and splits relabel; ``dynconn_replacement_searches``
counts deletions (each runs a split search).  The test oracle is
:func:`~repro.topology.compiled.components_indices`.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .compiled import KERNEL_COUNTERS
from .link import edge_key

__all__ = ["DynamicConnectivity", "ComponentSummary"]


#: Fixed-point scale: 2^1074 is the reciprocal of the smallest positive
#: subnormal double, so every finite float ``x`` has ``x * _FIXED_ONE`` exact.
_FIXED_ONE = 1 << 1074


def _to_fixed(value: float) -> int:
    """Exact fixed-point integer of a finite float (lossless)."""
    if value == 0.0:
        return 0
    p, q = value.as_integer_ratio()
    return p * (_FIXED_ONE // q)


def _from_fixed(value: int) -> float:
    """Correctly-rounded float of an exact fixed-point integer."""
    if value == 0:
        return 0.0
    return value / _FIXED_ONE


#: ``(size, cores, demand, revenue)``, the last two in fixed point.
_Sums = Tuple[int, int, int, int]

#: End-of-search marker for ``next(walk, _DONE)``.
_DONE = object()


def _singleton(is_core: bool, demand: float, revenue: float) -> _Sums:
    """The sums of a one-vertex component: that vertex's payload."""
    return (1, 1 if is_core else 0, _to_fixed(demand), _to_fixed(revenue))


class ComponentSummary(NamedTuple):
    """Whole-component aggregates read off one component label."""

    size: int
    has_core: bool
    demand: float
    revenue: float


class DynamicConnectivity:
    """Component labels with exact per-component core/demand/revenue sums."""

    def __init__(self) -> None:
        # Insertion order of _adj is the vertex order components() reports;
        # a vertex's payload is its singleton component's sums.
        self._adj: Dict[Any, Dict[Any, None]] = {}
        self._payload: Dict[Any, _Sums] = {}
        self._label: Dict[Any, int] = {}
        self._sums: Dict[int, _Sums] = {}
        self._edges: Dict[Tuple[Any, Any], None] = {}
        self._labels = count()
        self._live: List[Tuple] = []

    # -- vertices ------------------------------------------------------
    def __contains__(self, vertex: Any) -> bool:
        return vertex in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def add_vertex(
        self, vertex: Any, *, is_core: bool = False, demand: float = 0.0, revenue: float = 0.0
    ) -> None:
        """Add an isolated vertex with its service payload."""
        if vertex in self._adj:
            raise ValueError(f"vertex {vertex!r} already present")
        label = next(self._labels)
        self._adj[vertex] = {}
        self._payload[vertex] = self._sums[label] = _singleton(is_core, demand, revenue)
        self._label[vertex] = label

    def remove_vertex(self, vertex: Any) -> None:
        """Remove a vertex that is currently isolated (the AddNode undo path)."""
        if self._adj[vertex]:
            raise ValueError(f"vertex {vertex!r} still has incident edges")
        del self._adj[vertex]
        del self._payload[vertex]
        del self._sums[self._label.pop(vertex)]

    # -- queries -------------------------------------------------------
    def has_edge(self, u: Any, v: Any) -> bool:
        return edge_key(u, v) in self._edges

    def connected(self, u: Any, v: Any) -> bool:
        """Whether u and v are in one component (O(1))."""
        return self._label[u] == self._label[v]

    def summary(self, vertex: Any) -> ComponentSummary:
        """Aggregates of ``vertex``'s component (O(1))."""
        size, cores, demand, revenue = self._sums[self._label[vertex]]
        return ComponentSummary(size, cores > 0, _from_fixed(demand), _from_fixed(revenue))

    def has_core_component(self, vertex: Any) -> bool:
        """Whether ``vertex``'s component contains a core vertex."""
        return self._sums[self._label[vertex]][1] > 0

    def component_size(self, vertex: Any) -> int:
        return self._sums[self._label[vertex]][0]

    def components(self) -> Dict[Any, List[Any]]:
        """The partition, first member → members, in vertex insertion order."""
        groups: Dict[int, List[Any]] = {}
        label_of = self._label
        for vertex in self._adj:
            label = label_of[vertex]
            members = groups.get(label)
            if members is None:
                groups[label] = members = []
            members.append(vertex)
        return {members[0]: members for members in groups.values()}

    # -- bulk construction ---------------------------------------------
    def build(
        self, vertices: Iterable[Tuple[Any, bool, float, float]], edges: Iterable[Tuple[Any, Any]]
    ) -> None:
        """Bulk-initialize an empty structure in O(V + E).

        ``vertices`` yields ``(id, is_core, demand, revenue)``, ``edges``
        endpoint pairs; one search per component labels it.  The move engine
        (:class:`IncrementalState`) is the only client.
        """
        if self._adj:
            raise ValueError("build() requires an empty structure")
        adj, payload = self._adj, self._payload
        for vertex, is_core, demand, revenue in vertices:
            if vertex in adj:
                raise ValueError(f"vertex {vertex!r} repeated in build()")
            adj[vertex] = {}
            payload[vertex] = _singleton(is_core, demand, revenue)
        for u, v in edges:
            key = edge_key(u, v)
            if key in self._edges:
                raise ValueError(f"edge {key!r} repeated in build()")
            if u not in adj or v not in adj:
                raise ValueError(f"edge {key!r} references an unknown vertex")
            self._link(key, u, v)
        for start in adj:
            if start not in self._label:
                seen = self._reach(start)
                label = next(self._labels)
                self._label.update(dict.fromkeys(seen, label))
                self._sums[label] = self._sum_payloads(seen)

    # -- mutation ------------------------------------------------------
    def insert(self, u: Any, v: Any) -> Tuple:
        """Insert edge (u, v); returns an undo token.

        O(1) within a component; joining two relabels the smaller one.
        """
        key = edge_key(u, v)
        if key in self._edges:
            raise ValueError(f"edge {key!r} already present")
        if u not in self._adj or v not in self._adj:
            raise ValueError(f"edge {key!r} references an unknown vertex")
        source, target = self._label[u], self._label[v]
        moved: List[Any] = []
        sums: Optional[_Sums] = None
        if source != target:
            if self._sums[source][0] > self._sums[target][0]:
                u, v, source, target = v, u, target, source
            moved = list(self._reach(u))
            sums = self._sums[source]
            self._shift(moved, source, target, sums)
        self._link(key, u, v)
        self._live.append(("insert", key, u, v, moved, source, target, sums))
        return self._live[-1]

    def delete(self, u: Any, v: Any) -> Tuple:
        """Delete edge (u, v); returns an undo token.

        A split moves the split-off side (see :meth:`_split_side`) to a
        fresh label.
        """
        key = edge_key(u, v)
        if key not in self._edges:
            raise ValueError(f"edge {key!r} not present")
        self._unlink(key, u, v)
        KERNEL_COUNTERS.dynconn_replacement_searches += 1
        moved = self._split_side(u, v)
        source = target = self._label[u]
        sums: Optional[_Sums] = None
        if moved:
            target = next(self._labels)
            sums = self._sum_payloads(moved)
            self._shift(moved, source, target, sums)
        self._live.append(("delete", key, u, v, moved, source, target, sums))
        return self._live[-1]

    def undo(self, token: Tuple) -> None:
        """Reverse the most recent live mutation (strict LIFO by identity)."""
        if not self._live or self._live[-1] is not token:
            raise AssertionError("undo token is not the most recent live mutation")
        self._live.pop()
        kind, key, u, v, moved, source, target, sums = token
        if kind == "insert":
            self._unlink(key, u, v)
        else:
            self._link(key, u, v)
        if moved:
            self._shift(moved, target, source, sums)

    # -- internals -----------------------------------------------------
    def _link(self, key: Tuple[Any, Any], u: Any, v: Any) -> None:
        self._edges[key] = None
        self._adj[u][v] = None
        self._adj[v][u] = None

    def _unlink(self, key: Tuple[Any, Any], u: Any, v: Any) -> None:
        del self._edges[key]
        del self._adj[u][v]
        del self._adj[v][u]

    def _sum_payloads(self, vertices: Iterable[Any]) -> _Sums:
        payload = self._payload
        return tuple(map(sum, zip(*(payload[vertex] for vertex in vertices))))

    def _shift(self, vertices: List[Any], source: int, target: int, moved: _Sums) -> None:
        """Relabel ``vertices`` and move their sums from ``source`` to ``target``.

        Emptied labels are dropped and missing ones created, so merges,
        splits and their undos are all one shift.
        """
        label = self._label
        for vertex in vertices:
            label[vertex] = target
        KERNEL_COUNTERS.dynconn_tree_ops += len(vertices)
        sums = self._sums
        rest = tuple(a - b for a, b in zip(sums[source], moved))
        if rest[0]:
            sums[source] = rest
        else:
            del sums[source]
        into = sums.get(target)
        sums[target] = moved if into is None else tuple(a + b for a, b in zip(into, moved))

    def _reach(self, start: Any) -> Dict[Any, None]:
        """The vertices of ``start``'s component, in search order."""
        seen = {start: None}
        deque(self._walk(start, seen), maxlen=0)
        return seen

    def _walk(self, start: Any, seen: Dict[Any, None]) -> Iterator[Any]:
        """Breadth-first search from ``start`` (already in ``seen``), yielding
        and adding to ``seen`` each newly reached vertex."""
        adj = self._adj
        queue = deque((start,))
        while queue:
            for other in adj[queue.popleft()]:
                if other not in seen:
                    seen[other] = None
                    queue.append(other)
                    yield other

    def _split_side(self, u: Any, v: Any) -> List[Any]:
        """The side that split off after removing (u, v), or ``[]`` if none.

        Advances a search from each endpoint one vertex at a time in turn.
        A vertex one search reaches that the other has seen proves u and v
        still connected: O(vertices searched until they met).  A search that
        runs out first has swept its side, at most one vertex larger than
        the other: O(smaller side).
        """
        seen_u: Dict[Any, None] = {u: None}
        seen_v: Dict[Any, None] = {v: None}
        searches = (
            (self._walk(u, seen_u), seen_u, seen_v),
            (self._walk(v, seen_v), seen_v, seen_u),
        )
        while True:
            for walk, seen, other in searches:
                vertex = next(walk, _DONE)
                if vertex is _DONE or vertex in other:
                    KERNEL_COUNTERS.dynconn_tree_ops += len(seen_u) + len(seen_v)
                    return list(seen) if vertex is _DONE else []
