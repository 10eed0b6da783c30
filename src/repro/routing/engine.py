"""Vectorized traffic engine: batched demand routing on the compiled graph.

The paper (Section 2.2) names traffic demand "one of the key inputs" to the
optimization formulation: a topology is only ever evaluated through the
traffic it carries under shortest-path routing and the capacities provisioned
for that traffic.  This module is the array pipeline behind that evaluation:

* :func:`compile_demand` / :class:`CompiledDemand` translate a
  :class:`~repro.geography.demand.DemandMatrix` into int-indexed
  source/target/volume columns aligned with a
  :class:`~repro.topology.compiled.CompiledGraph` snapshot — endpoint-name
  resolution happens exactly once, not once per routing pass.
* :func:`route_demand` is the routing **façade**: called as
  ``route_demand(topology, demand_matrix, ...)`` it compiles and routes in
  one step (a pre-compiled :class:`CompiledDemand` is also accepted), with
  switches validated through :class:`~repro.routing.options.RoutingOptions`.
  Every pair routes with **one shortest-path search per unique source**
  (``KERNEL_COUNTERS.traffic_batched_sources`` counts them).  Each source's
  volumes then flow target→source over the union of its targets'
  predecessor paths only, into a sparse per-source record — O(path union)
  per source, not O(V) and not one path resolution per pair — and the
  records add into one per-edge load column.
* **ECMP mode** (``mode="ecmp"``) splits each pair's volume equally across
  all tied shortest paths: per source, shortest-path counts are accumulated
  along the equal-distance DAG and flow is distributed proportionally
  (Brandes-style dependency accumulation), with tied predecessor edges
  visited in ascending edge-index order so splits are deterministic.
* :class:`FlowResult` holds the load column and writes it back to the
  annotated object graph in a single :meth:`~FlowResult.flush` pass —
  ``Link.load`` is a boundary concern, not a hot-loop accumulator.

Backends
--------

``route_demand`` takes the library-wide ``backend=`` switch (see
:mod:`repro.topology.compiled`).  Both backends run inside one private
per-source kernel, :func:`_route_sources`, which returns each source's flow
as a **record** ``(edge_ids, flows)``: only the edges the source loads, each
named **at most once**, every flow nonzero.  It has two callers: flat
routing here adds every record into one load column, and the temporal
engine of :mod:`repro.routing.temporal` retains the records and adds them
per step.  Because a record names an edge at most once, ``column[ids] +=
flows`` is one addition per edge and source, so records added in a fixed
source order give the same bits as one shared column filled in that order.
The ``"python"`` path is the canonical
reference: one heapq Dijkstra per unique source.  The ``"numpy"`` path
batches sources through ``scipy.sparse.csgraph.dijkstra`` (many sources per
call over the cached CSR matrix) and replaces per-node Python loops with
array programs where the work is V- or E-wide:

* **Single-path records**: one shared walk, :func:`_path_union`, climbs
  each target's predecessor chain until it meets a node already reached, so
  it visits only the union of the target→source paths and records each
  node's hop depth.  Flow then cascades over that union one depth level at
  a time, deepest first: the numpy leg pushes a whole level onto its
  parents with one ``np.add.at`` in ascending node id, the Python leg node
  by node in descending node id.  Each leg's per-parent addition order is
  pinned by the E11–E13 payload digests (E12 records Python-reference
  parity loads), so the two orders are deliberately not unified.
* **ECMP**: the equal-distance DAG is extracted edge-wise over all
  half-edges at once (``dist[u] + w == dist[v]``, exact float equality);
  path counts and flow shares are accumulated level-by-level over the sorted
  unique distance values (strictly positive weights mean equal-distance
  nodes are never DAG-ordered).  A DAG edge points one way only, so its
  share enters the record once.

The numpy backend requires strictly positive weights (csgraph's sparse
representation is ambiguous about explicit zeros); under ``backend="auto"``
nonpositive weight columns fall back to the Python path, while an explicit
``backend="numpy"`` raises instead of silently falling back.

Backend equivalence: distances are backend-identical, so *which* pairs route
and the per-source search plan agree exactly; counters
(``traffic_batched_sources``/``traffic_assigned_pairs``/
``traffic_ecmp_splits``) are backend-independent.  Edge loads agree
bit-for-bit on integral volumes, and to float-accumulation tolerance
otherwise (sources are processed in sorted rather than first-appearance
order, and subtree sums associate differently).  In single-path mode under
*tied* shortest paths (e.g. hop weights), scipy's predecessor tree may pick
a different — equally shortest — tied optimum than the canonical Python
tree; callers whose outputs depend on that choice pin ``backend="python"``
(the E11 suite does) or use ECMP mode, where tie handling is explicit and
backend-independent.

Equivalence contract with the per-pair reference
(:func:`repro.routing.assignment.assign_demand` with ``method="per-pair"``),
in single-path mode:

* **Path choice**: both route every pair over a canonical shortest path.  On
  instances whose shortest paths are unique (e.g. Euclidean lengths, where
  exact distance ties have measure zero) the paths — and hence the edges
  loaded — are identical.  When *tied* shortest paths exist (hop weights),
  each side deterministically picks one of the tied optima, but compilation
  may orient a pair's search from the opposite endpoint, whose predecessor
  tree can select a different — equally shortest — path than the
  reference's.  Use ECMP mode when tie handling should be explicit.
* **Load arithmetic**: per edge, the load is the sum of the volumes of the
  pairs routed over it.  Subtree accumulation associates that sum bottom-up
  along the tree rather than in pair order, so on unique-shortest-path
  instances loads agree with the reference bit-for-bit whenever volume sums
  are exact (integral volumes — what ``benchmarks/bench_traffic.py`` gates)
  and to float-accumulation tolerance otherwise.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from math import inf
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..topology.compiled import (
    BATCH_CHUNK_CELLS,
    CompiledGraph,
    KERNEL_COUNTERS,
    _column_min,
    dijkstra_indices,
    have_numpy_backend,
    resolve_backend,
)
from ..topology.graph import Topology, TopologyError
from .options import RoutingOptions
from .paths import resolve_weight

if have_numpy_backend():
    import numpy as _np
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra
else:  # pragma: no cover - exercised by the no-scipy CI leg
    _np = None
    _scipy_dijkstra = None

__all__ = [
    "CompiledDemand",
    "FlowResult",
    "compile_demand",
    "route_demand",
]


@dataclass
class CompiledDemand:
    """A demand matrix compiled against one :class:`CompiledGraph` snapshot.

    Attributes:
        graph: The compiled topology snapshot the indices refer to.
        sources: Source node index per pair (pair order = matrix pair order).
        targets: Target node index per pair.
        volumes: Demand volume per pair.
        labels: The original ``(a, b)`` endpoint names per pair.
        unmatched: Pairs whose endpoints are missing from the topology, as
            ``(a, b, volume)`` — recorded at compile time, reported as
            unrouted by every routing pass.
    """

    graph: CompiledGraph
    sources: array
    targets: array
    volumes: array
    labels: List[Tuple[str, str]]
    unmatched: List[Tuple[str, str, float]] = field(default_factory=list)

    @property
    def num_pairs(self) -> int:
        """Number of compiled (routable-endpoint) pairs."""
        return len(self.volumes)

    def total_volume(self) -> float:
        """Total compiled volume (excludes unmatched pairs)."""
        return sum(self.volumes)


def compile_demand(
    topology: Topology,
    demand: Any,
    endpoint_map: Optional[Dict[str, Any]] = None,
) -> CompiledDemand:
    """Compile a demand matrix against ``topology.compiled()``.

    Args:
        topology: Topology the demand will be routed over.
        demand: A :class:`~repro.geography.demand.DemandMatrix` (anything with
            a ``pairs()`` iterator of ``(a, b, volume)``).
        endpoint_map: Maps demand endpoint names to topology node ids
            (identity mapping when omitted).

    Endpoints that do not resolve to a topology node land in
    :attr:`CompiledDemand.unmatched` instead of raising, mirroring the
    per-pair assignment behaviour.

    Demand is symmetric and the graph undirected, so each pair may be routed
    from either endpoint; compilation **orients** every pair toward the
    endpoint shared by more pairs (ties keep the matrix's canonical order).
    A hub-to-all matrix therefore batches into one search per hub instead of
    one per alphabetically-smaller endpoint — the search plan is part of what
    makes batched assignment fast.
    """
    endpoint_map = endpoint_map or {}
    graph = topology.compiled()
    index_of = graph.index_of
    pairs: List[Tuple[int, int]] = []
    volumes = array("d")
    labels: List[Tuple[str, str]] = []
    unmatched: List[Tuple[str, str, float]] = []
    for a, b, volume in demand.pairs():
        source = index_of.get(endpoint_map.get(a, a))
        target = index_of.get(endpoint_map.get(b, b))
        if source is None or target is None:
            unmatched.append((a, b, volume))
            continue
        pairs.append((source, target))
        volumes.append(volume)
        labels.append((a, b))
    sources, targets = _orient_pairs(pairs)
    return CompiledDemand(
        graph=graph,
        sources=sources,
        targets=targets,
        volumes=volumes,
        labels=labels,
        unmatched=unmatched,
    )


def _orient_pairs(pairs: List[Tuple[int, int]]) -> Tuple[array, array]:
    """Orient each pair toward the endpoint shared by more pairs.

    The orientation rule of :func:`compile_demand` and
    :func:`~repro.routing.temporal.compile_series`: a pair is flipped only
    when its target appears in strictly more pairs than its source, so ties
    keep the given order.  Returns the oriented ``(sources, targets)``.
    """
    frequency: Dict[int, int] = {}
    for source, target in pairs:
        frequency[source] = frequency.get(source, 0) + 1
        frequency[target] = frequency.get(target, 0) + 1
    sources = array("q")
    targets = array("q")
    for source, target in pairs:
        if frequency[target] > frequency[source]:
            source, target = target, source
        sources.append(source)
        targets.append(target)
    return sources, targets


@dataclass
class FlowResult:
    """Edge-indexed result of routing a compiled demand matrix.

    Attributes:
        graph: The compiled snapshot the edge loads are aligned with.
        edge_loads: Load per undirected edge index (``array('d')`` from the
            Python backend, float64 numpy array from the numpy backend).
        routed_volume: Total volume that found a path.
        routed_pairs: Number of pairs that found a path.
        unrouted: ``(a, b, volume)`` for unmatched or disconnected pairs.
        mode: ``"single"`` or ``"ecmp"``.
    """

    graph: CompiledGraph
    edge_loads: Any
    routed_volume: float
    routed_pairs: int
    unrouted: List[Tuple[str, str, float]]
    mode: str

    #: What :meth:`loads_for` calls a stale result of this class.
    _stale_name = "FlowResult"

    @property
    def unrouted_volume(self) -> float:
        """Total volume that could not be routed."""
        return sum(volume for _, _, volume in self.unrouted)

    def loads_list(self) -> List[float]:
        """The edge load column as a plain Python float list."""
        return self.edge_loads.tolist()

    def link_loads(self) -> Dict[Tuple[Any, Any], float]:
        """Boundary conversion: loaded edges as a canonical-key dictionary."""
        edge_keys = self.graph.edge_keys
        return {
            edge_keys[e]: load
            for e, load in enumerate(self.loads_list())
            if load != 0.0
        }

    def flush(self, reset: bool = True) -> None:
        """Write the edge load column back onto the live ``Link`` objects.

        One pass over the edge column; with ``reset=False`` loads are added to
        whatever the links already carry instead of replacing it.  Loads land
        as plain Python floats regardless of backend.
        """
        links = self.graph.links
        loads = self.loads_list()
        if reset:
            for e, link in enumerate(links):
                link.load = loads[e]
        else:
            for e, link in enumerate(links):
                if loads[e]:
                    link.load += loads[e]

    def max_load(self) -> float:
        """Largest per-edge load (0.0 on an edgeless graph)."""
        if not len(self.edge_loads):
            return 0.0
        if _np is not None and isinstance(self.edge_loads, _np.ndarray):
            return float(self.edge_loads.max())
        return max(self.edge_loads)

    def loads_for(self, topology: Topology) -> Any:
        """The edge-load column, validated against ``topology``'s snapshot.

        This is the contract behind passing a :class:`FlowResult` to the
        analysis/provisioning consumers (``utilization_report``,
        ``load_concentration``, ``provision_topology``): the column is only
        meaningful against the exact compiled snapshot it was routed on.  If
        the topology mutated since routing (its ``version`` moved, so
        ``topology.compiled()`` is a different snapshot), repricing the stale
        column would silently mis-assign loads to reindexed links — raise a
        :class:`~repro.topology.graph.TopologyError` instead.
        """
        graph = topology.compiled()
        if graph is not self.graph:
            raise TopologyError(
                f"stale {self._stale_name}: routed against snapshot version "
                f"{self.graph.version}, but topology {topology.name!r} now "
                f"compiles to version {graph.version} — re-route the demand "
                f"instead of repricing a stale load column"
            )
        return self.edge_loads


def route_demand(
    topology: Any,
    demand: Any = None,
    weight: Optional[str] = None,
    mode: Optional[str] = None,
    backend: Optional[str] = None,
    *,
    options: Optional[RoutingOptions] = None,
    endpoint_map: Optional[Dict[str, Any]] = None,
) -> FlowResult:
    """The routing façade: route a demand over a topology in one call.

    Two calling forms share one implementation:

    * ``route_demand(topology, demand_matrix, ...)`` — the documented entry
      point.  The matrix is compiled against ``topology.compiled()`` (see
      :func:`compile_demand`; ``endpoint_map`` maps matrix endpoint names to
      node ids) and routed in the same call.
    * ``route_demand(compiled_demand, ...)`` — the pre-compiled form for
      callers that reuse one :class:`CompiledDemand` across routing passes
      (benchmarks, backend-parity checks).  A :class:`CompiledDemand` may
      also be passed as the second argument next to its topology; it is then
      validated against the topology's *current* snapshot and a stale one
      raises :class:`~repro.topology.graph.TopologyError`.

    Switches come either as individual kwargs or bundled in a
    :class:`~repro.routing.options.RoutingOptions` (``options=``; mutually
    exclusive with the individual kwargs):

    * ``weight``: named weight function for path selection (default length).
    * ``mode``: ``"single"`` routes each pair over one canonical shortest
      path (the predecessor tree of the shared per-source search; identical
      to the per-pair reference on unique-shortest-path instances — see the
      module docstring for the tie caveat); ``"ecmp"`` splits each pair's
      volume equally over all tied shortest paths.
    * ``backend``: ``"python"`` (canonical reference), ``"numpy"`` (batched
      ``csgraph`` searches + vectorized flow records; requires scipy and strictly
      positive weights), or ``"auto"``.  See the module docstring for the
      backend equivalence contract.

    Returns:
        A :class:`FlowResult` whose ``edge_loads`` column is aligned with
        the routed snapshot; call :meth:`FlowResult.flush` to annotate links
        or pass the result to ``utilization_report`` / ``load_concentration``
        / ``provision_topology`` directly.
    """
    opts = RoutingOptions.normalize(options, weight=weight, mode=mode, backend=backend)
    return _route_compiled(_resolve_demand(topology, demand, endpoint_map), opts)


def _resolve_demand(
    topology: Any, demand: Any, endpoint_map: Optional[Dict[str, Any]]
) -> CompiledDemand:
    """Normalize the façade's two calling forms to one ``CompiledDemand``."""
    if isinstance(topology, CompiledDemand):
        if demand is not None:
            raise TypeError(
                "route_demand(compiled_demand) takes no second demand "
                "argument; use route_demand(topology, demand) to compile "
                "and route in one call"
            )
        if endpoint_map is not None:
            raise TypeError(
                "endpoint_map only applies when route_demand compiles a "
                "DemandMatrix; this demand is already compiled"
            )
        return topology
    if isinstance(topology, Topology):
        if isinstance(demand, CompiledDemand):
            if endpoint_map is not None:
                raise TypeError(
                    "endpoint_map only applies when route_demand compiles a "
                    "DemandMatrix; this demand is already compiled"
                )
            graph = topology.compiled()
            if demand.graph is not graph:
                raise TopologyError(
                    f"stale CompiledDemand: compiled against snapshot version "
                    f"{demand.graph.version}, but topology {topology.name!r} "
                    f"now compiles to version {graph.version} — recompile "
                    f"with compile_demand()"
                )
            return demand
        if demand is None or not hasattr(demand, "pairs"):
            raise TypeError(
                f"route_demand(topology, demand) needs a DemandMatrix or "
                f"CompiledDemand, got {type(demand).__name__}"
            )
        return compile_demand(topology, demand, endpoint_map)
    raise TypeError(
        f"route_demand expects a Topology or CompiledDemand first, "
        f"got {type(topology).__name__}"
    )


def _route_compiled(demand: CompiledDemand, opts: RoutingOptions) -> FlowResult:
    """Route a compiled demand under validated options (the engine proper)."""
    graph = demand.graph
    weights = graph.edge_weight_column(opts.weight, resolve_weight(opts.weight))
    use_numpy = _select_backend(graph, weights, opts)
    return _route_flat(demand, weights, opts.mode, use_numpy)


def _select_backend(graph: CompiledGraph, weights: Any, opts: RoutingOptions) -> bool:
    """Backend dispatch for the per-source kernel: True for numpy.

    ECMP and the numpy path require strictly positive weights;
    ``backend="auto"`` falls back to Python on nonpositive columns while an
    explicit ``backend="numpy"`` raises.
    """
    positive = graph.num_edges == 0 or _column_min(weights) > 0
    if opts.mode == "ecmp" and not positive:
        raise ValueError("ECMP routing requires strictly positive weights")
    if resolve_backend(opts.backend) == "numpy" and graph.num_edges > 0:
        if positive:
            return True
        if opts.backend == "numpy":
            raise ValueError(
                "backend='numpy' routing requires strictly positive weights"
            )
    return False


def _pair_groups(sources: array) -> Dict[int, List[int]]:
    """Group pair positions by oriented source, in first-appearance order."""
    groups: Dict[int, List[int]] = {}
    for position, source in enumerate(sources):
        groups.setdefault(source, []).append(position)
    return groups


#: One source's flow as a sparse record ``(edge_ids, flows)``: it covers only
#: the edges on the union of the source's routed shortest paths, names each
#: edge at most once and holds only nonzero flows.
Record = Tuple[Any, Any]

#: Per-source routing outcome: ``(routed_volume, routed_pairs, unrouted,
#: record)``.
SourceRoute = Tuple[float, int, List[Tuple[str, str, float]], Record]

#: The record of a source that loads no edge.
_NO_FLOW: Record = ([], [])


def _route_flat(
    demand: CompiledDemand, weights: Any, mode: str, use_numpy: bool
) -> FlowResult:
    """Flat routing: every source's record adds into one load column."""
    graph = demand.graph
    groups = _pair_groups(demand.sources)
    routes = _route_sources(
        graph,
        weights,
        mode,
        use_numpy,
        groups,
        demand.targets,
        demand.volumes,
        demand.labels,
        list(groups),
    )
    routed_volume, routed_pairs, unrouted = _tally(routes.values(), demand.unmatched)
    return FlowResult(
        graph=graph,
        edge_loads=_add_records(graph.num_edges, use_numpy, routes.values()),
        routed_volume=routed_volume,
        routed_pairs=routed_pairs,
        unrouted=unrouted,
        mode=mode,
    )


def _add_records(num_edges: int, use_numpy: bool, routes: Iterable[SourceRoute]) -> Any:
    """Add the routes' records, in the given order, into a fresh zero column.

    A record names each edge at most once, so ``column[ids] += flows`` is one
    addition per edge and source — the same float sequence, edge by edge, as
    scattering every source straight into one shared column in that order.
    """
    if use_numpy:
        column = _np.zeros(num_edges, dtype=_np.float64)
        for *_, (ids, flows) in routes:
            column[ids] += flows
        return column
    column = array("d", [0.0]) * num_edges
    for *_, (ids, flows) in routes:
        for e, flow in zip(ids, flows):
            column[e] += flow
    return column


def _tally(
    routes: Iterable[SourceRoute], unmatched: List[Tuple[str, str, float]]
) -> Tuple[float, int, List[Tuple[str, str, float]]]:
    """Sum per-source outcomes in the given order; unmatched pairs lead."""
    routed_volume = 0.0
    routed_pairs = 0
    unrouted = list(unmatched)
    for volume, pairs, source_unrouted, _record in routes:
        routed_volume += volume
        routed_pairs += pairs
        unrouted.extend(source_unrouted)
    return routed_volume, routed_pairs, unrouted


def _route_sources(
    graph: CompiledGraph,
    weights: Any,
    mode: str,
    use_numpy: bool,
    groups: Dict[int, List[int]],
    targets: array,
    volumes: array,
    labels: List[Tuple[str, str]],
    sources: List[int],
) -> Dict[int, SourceRoute]:
    """The per-source routing kernel: one search and one flow record per source.

    Only pairs with positive volume route; a source with none is not searched
    and reports ``(0.0, 0, [], _NO_FLOW)``.  Per searched source,
    positive-volume pairs add their volume at their target in pair order and
    unreachable ones land in the source's ``unrouted`` list; a pair whose
    endpoints compile to one node counts as routed and loads nothing.  The
    routed volume then flows target→source into the source's
    :data:`Record`: single-path mode cascades it over the
    :func:`_path_union` of the predecessor tree, ECMP mode over the
    tied-path DAG.  A record names each edge at most once and only with a
    nonzero flow, so its edge ids are exactly the edges the source loads and
    records added in a fixed order give the same bits as one shared column
    filled in that order.  The Python backend searches with the heapq
    Dijkstra in the given order; the numpy backend searches in sorted order,
    many sources per chunked ``csgraph`` call.

    Returns ``{source: (routed_volume, routed_pairs, unrouted, record)}``:
    unsearched sources first, then searched ones in search order.
    """
    routes: Dict[int, SourceRoute] = {}
    searched = []
    for source in sources:
        if any(volumes[p] > 0.0 for p in groups[source]):
            searched.append(source)
        else:
            routes[source] = (0.0, 0, [], _NO_FLOW)
    if use_numpy:
        _route_sources_numpy(
            graph, weights, mode, groups, targets, volumes, labels, searched, routes
        )
        return routes
    n = graph.num_nodes
    for source in searched:
        dist, pred, pred_edge = dijkstra_indices(graph, source, weights)
        KERNEL_COUNTERS.traffic_batched_sources += 1
        node_flow = array("d", [0.0]) * n
        routed_volume = 0.0
        routed_targets: List[int] = []
        unrouted: List[Tuple[str, str, float]] = []
        for p in groups[source]:
            volume = volumes[p]
            if volume <= 0.0:
                continue
            target = targets[p]
            if dist[target] == inf:
                unrouted.append((*labels[p], volume))
                continue
            node_flow[target] += volume
            routed_volume += volume
            routed_targets.append(target)
        KERNEL_COUNTERS.traffic_assigned_pairs += len(routed_targets)
        if not routed_targets:
            record = _NO_FLOW
        elif mode == "single":
            record = _tree_record(source, pred, pred_edge, node_flow, routed_targets)
        else:
            record = _ecmp_record(graph, source, dist, weights, node_flow)
        routes[source] = (routed_volume, len(routed_targets), unrouted, record)
    return routes


def _path_union(source: int, pred: Any, targets: Iterable[int]) -> List[List[int]]:
    """The nodes on the targets' predecessor paths to ``source``, by depth.

    Each target's walk up ``pred`` stops at the first node already reached
    (``source`` starts reached), so every union node is entered once and the
    walk costs O(union), not O(V).  Returns ``levels``, where
    ``levels[d - 1]`` lists the union nodes ``d`` tree hops below
    ``source`` in no particular order; ``source`` itself is not listed.
    """
    depth = {source: 0}
    levels: List[List[int]] = []
    for v in targets:
        path = []
        while v not in depth:
            path.append(v)
            v = int(pred[v])
        d = depth[v]
        for v in reversed(path):
            d += 1
            depth[v] = d
            if d > len(levels):
                levels.append([])
            levels[d - 1].append(v)
    return levels


def _tree_record(
    source: int,
    pred: List[int],
    pred_edge: List[int],
    node_flow: array,
    targets: List[int],
) -> Record:
    """Single-path record: push subtree flows up the path union.

    Levels go deepest first and nodes within a level in descending id, so
    each node has its whole subtree flow before it passes it on, and each
    parent receives its children's flows in descending child id.  Every
    union node adds that flow to its predecessor edge exactly once.
    """
    ids: List[int] = []
    flows: List[float] = []
    for level in reversed(_path_union(source, pred, targets)):
        for v in sorted(level, reverse=True):
            flow = node_flow[v]
            ids.append(pred_edge[v])
            flows.append(flow)
            node_flow[pred[v]] += flow
    return ids, flows


def _ecmp_record(
    graph: CompiledGraph,
    source: int,
    dist: List[float],
    weights: Any,
    node_flow: array,
) -> Record:
    """Split flow over all tied shortest paths, proportionally to path counts.

    For every reached node the predecessor edges of the shortest-path DAG are
    the incident edges with ``dist[u] + w(e) == dist[v]`` (exact float
    equality — the canonical predecessor always qualifies by construction),
    visited in ascending edge-index order.  Path counts ``sigma`` accumulate
    source-outward; flow then distributes target-inward, each node passing
    ``sigma[u] / sigma[v]`` of its flow to DAG predecessor ``u`` — exactly an
    equal share per tied shortest path (Brandes-style accumulation).  A DAG
    edge points one way only, so the record names each edge at most once.
    """
    rows = graph.adjacency_rows()
    weight_values = weights.tolist()
    reached = [v for v in range(graph.num_nodes) if dist[v] != inf]
    reached.sort(key=lambda v: (dist[v], v))
    dag_preds: Dict[int, List[Tuple[int, int]]] = {}
    sigma = [0.0] * graph.num_nodes
    sigma[source] = 1.0
    for v in reached:
        if v == source:
            continue
        preds = [
            (e, u)
            for u, e in rows[v]
            if dist[u] != inf and dist[u] + weight_values[e] == dist[v]
        ]
        preds.sort()
        dag_preds[v] = preds
        total = 0.0
        for _, u in preds:
            total += sigma[u]
        sigma[v] = total
    ids: List[int] = []
    flows: List[float] = []
    for v in reversed(reached):
        flow = node_flow[v]
        if flow == 0.0 or v == source:
            continue
        preds = dag_preds[v]
        if len(preds) > 1:
            KERNEL_COUNTERS.traffic_ecmp_splits += 1
        sigma_v = sigma[v]
        for e, u in preds:
            share = flow * (sigma[u] / sigma_v)
            if share != 0.0:  # a subnormal flow can split to zero
                ids.append(e)
                flows.append(share)
            node_flow[u] += share
    return ids, flows


def _route_sources_numpy(
    graph: CompiledGraph,
    weights: Any,
    mode: str,
    groups: Dict[int, List[int]],
    targets: array,
    volumes: array,
    labels: List[Tuple[str, str]],
    sources: List[int],
    routes: Dict[int, SourceRoute],
) -> None:
    """Numpy leg of :func:`_route_sources`: batched searches, array records.

    Sources are searched in sorted order, many per scipy call (chunked to
    :data:`~repro.topology.compiled.BATCH_CHUNK_CELLS`), and each source's
    pairs are gathered as arrays.  Counter accounting matches the Python
    leg: one ``traffic_batched_sources`` per searched source, every routed
    pair as ``traffic_assigned_pairs``; the batch dispatches additionally
    land in ``batch_dijkstra_calls``/``batch_sources_total``.
    """
    n = graph.num_nodes
    target_column = _np.asarray(targets, dtype=_np.int64)
    volume_column = _np.asarray(volumes, dtype=_np.float64)
    matrix = graph.scipy_csr(weights)
    need_pred = mode == "single"
    chunk = max(1, BATCH_CHUNK_CELLS // max(1, n))
    order = sorted(sources)
    for start in range(0, len(order), chunk):
        batch = order[start : start + chunk]
        KERNEL_COUNTERS.batch_dijkstra_calls += 1
        KERNEL_COUNTERS.batch_sources_total += len(batch)
        KERNEL_COUNTERS.traffic_batched_sources += len(batch)
        KERNEL_COUNTERS.single_source += len(batch)  # backend-independent count
        if need_pred:
            dist_rows, pred_rows = _scipy_dijkstra(
                matrix, directed=False, indices=batch, return_predecessors=True
            )
        else:
            dist_rows = _scipy_dijkstra(matrix, directed=False, indices=batch)
            pred_rows = None
        if dist_rows.ndim == 1:
            dist_rows = dist_rows[_np.newaxis, :]
            if pred_rows is not None:
                pred_rows = pred_rows[_np.newaxis, :]
        for k, source in enumerate(batch):
            dist = dist_rows[k]
            positions = _np.asarray(groups[source], dtype=_np.int64)
            pair_targets = target_column[positions]
            pair_volumes = volume_column[positions]
            positive = pair_volumes > 0.0
            reachable = positive & _np.isfinite(dist[pair_targets])
            unrouted = [
                (*labels[p], volumes[p])
                for p in positions[positive & ~reachable].tolist()
            ]
            node_flow = _np.zeros(n, dtype=_np.float64)
            routed_targets = pair_targets[reachable]
            _np.add.at(node_flow, routed_targets, pair_volumes[reachable])
            routed_pairs = len(routed_targets)
            routed_volume = float(pair_volumes[reachable].sum())
            KERNEL_COUNTERS.traffic_assigned_pairs += routed_pairs
            if not routed_pairs:
                record = _NO_FLOW
            elif mode == "single":
                record = _tree_record_numpy(
                    graph, source, pred_rows[k], node_flow, routed_targets.tolist()
                )
            else:
                record = _ecmp_record_numpy(graph, source, dist, weights, node_flow)
            routes[source] = (routed_volume, routed_pairs, unrouted, record)


def _tree_record_numpy(
    graph: CompiledGraph,
    source: int,
    pred: Any,
    node_flow: Any,
    targets: List[int],
) -> Record:
    """Vectorized single-path record: a level cascade over the path union.

    Levels go deepest first; all nodes of one level, in ascending id, push
    their accumulated subtree flow onto their parents with one
    ``np.add.at``, so each parent receives its children's flows in
    ascending child id.  Predecessor edges are resolved for the union only,
    in one :meth:`~repro.topology.compiled.CompiledGraph.edge_ids_for_pairs`
    call.
    """
    nodes, parents, flows = [], [], []
    for level in reversed(_path_union(source, pred, targets)):
        vs = _np.array(sorted(level), dtype=_np.int64)
        up = pred[vs]
        level_flows = node_flow[vs]
        _np.add.at(node_flow, up, level_flows)
        nodes.append(vs)
        parents.append(up)
        flows.append(level_flows)
    if not nodes:
        return _NO_FLOW
    edge_ids = graph.edge_ids_for_pairs(_np.concatenate(parents), _np.concatenate(nodes))
    return edge_ids, _np.concatenate(flows)


def _ecmp_record_numpy(
    graph: CompiledGraph,
    source: int,
    dist: Any,
    weights: Any,
    node_flow: Any,
) -> Record:
    """Vectorized ECMP: edge-wise DAG extraction + distance-level cascade.

    The shortest-path DAG is extracted over all half-edges at once with the
    same exact float predicate as the Python reference
    (``dist[u] + w == dist[v]``).  Path counts (``sigma``) accumulate over
    ascending unique distance levels and flow shares distribute over
    descending levels — valid orderings because strictly positive weights
    mean equal-distance nodes can never precede each other in the DAG.
    Each level's shares join the record and pass to the tails with
    ``np.add.at``; a DAG edge points one way only, so no edge repeats.
    """
    n = graph.num_nodes
    indptr = _np.asarray(graph.indptr, dtype=_np.int64)
    heads = _np.asarray(graph.indices, dtype=_np.int64)
    half_edges = _np.asarray(graph.half_edge_ids)
    tails = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(indptr))
    half_weights = _np.asarray(weights, dtype=_np.float64)[half_edges]
    finite_tail = _np.isfinite(dist[tails])
    dag = finite_tail & (dist[tails] + half_weights == dist[heads])
    dag_tails = tails[dag]
    dag_heads = heads[dag]
    dag_edges = half_edges[dag]
    pred_count = _np.bincount(dag_heads, minlength=n)
    levels = _np.unique(dist[_np.isfinite(dist)])
    head_level = _np.searchsorted(levels, dist[dag_heads])
    order = _np.argsort(head_level, kind="stable")
    dag_tails = dag_tails[order]
    dag_heads = dag_heads[order]
    dag_edges = dag_edges[order]
    head_level = head_level[order]
    bounds = _np.searchsorted(head_level, _np.arange(len(levels) + 1))
    sigma = _np.zeros(n, dtype=_np.float64)
    sigma[source] = 1.0
    for level in range(1, len(levels)):
        lo, hi = bounds[level], bounds[level + 1]
        if lo == hi:
            continue
        _np.add.at(sigma, dag_heads[lo:hi], sigma[dag_tails[lo:hi]])
    ids, flows = [], []
    for level in range(len(levels) - 1, 0, -1):
        lo, hi = bounds[level], bounds[level + 1]
        if lo == hi:
            continue
        h = dag_heads[lo:hi]
        level_flows = node_flow[h]
        active = level_flows != 0.0
        if not active.any():
            continue
        level_nodes = _np.unique(h[active])
        KERNEL_COUNTERS.traffic_ecmp_splits += int(
            (pred_count[level_nodes] > 1).sum()
        )
        shares = (
            level_flows[active] * sigma[dag_tails[lo:hi]][active] / sigma[h][active]
        )
        nonzero = shares != 0.0  # a subnormal flow can split to zero
        ids.append(dag_edges[lo:hi][active][nonzero])
        flows.append(shares[nonzero])
        _np.add.at(node_flow, dag_tails[lo:hi][active], shares)
    if not ids:
        return _NO_FLOW
    return _np.concatenate(ids), _np.concatenate(flows)
