"""Temporal traffic engine: time-indexed demand, diff routing, and cascades.

The paper evaluates a topology through the traffic it carries under
shortest-path routing; this module extends that evaluation along a **time
axis**.  A :class:`DemandSeries` is an ordered sequence of
:class:`~repro.geography.demand.DemandMatrix` steps (diurnal load curves,
flash crowds); :func:`route_series` routes the whole sequence through the
batched engine of :mod:`repro.routing.engine`, and :func:`failure_cascade`
iterates route → overload → trip → re-route to a fixed point on a
capacity-provisioned topology.

The diff contract
-----------------

Routing every step from scratch repeats one shortest-path search per unique
source per step, even though consecutive steps of a realistic series differ
in only a few sources (a flash crowd touches its hotspots, everything else
carries yesterday's traffic).  :func:`compile_series` therefore compiles the
**union** of every step's pairs once, with one shared orientation, and
:func:`route_series` retains a **per-source flow record** for every demand
source — the sparse ``(edge_ids, flows)`` record of the engine kernel,
covering only the edges that source loads, each named at most once:

* At step ``t`` the engine diffs the step's per-pair volume column against
  step ``t-1`` and re-resolves only the sources whose volumes moved —
  one search + record per *changed* source
  (``KERNEL_COUNTERS.temporal_resolved_sources`` counts them, so benchmarks
  gate that the diff path actually engaged instead of assuming it).
* The step's total load column is then rebuilt **fresh** by adding the
  retained records in compile (first-appearance) source order.  The sum is
  a pure function of the records — never an incremental ``+delta`` update —
  so a step's loads are independent of the *history* of which sources
  happened to be re-resolved, and ``route_series(..., reuse=False)``
  (re-resolve everything, every step) is bit-identical to the diff path by
  construction.

This module keeps no search or flow accumulation of its own.  Every
re-resolution runs through the one per-source kernel of
:mod:`repro.routing.engine`, whose other caller is flat ``route_demand``:
both add the kernel's records into a zero column with the same helper, flat
routing once, this engine once per step from the records it retains.  The
engine's own job is what surrounds the kernel: the volume diff, the fresh
summation, and (for cascades) picking the sources a trip invalidated — an
edge-id membership test, since a record holds only nonzero flows — and
renumbering retained records into the degraded edge space.

Records are deterministic functions of (source, step volumes), so backend
parity is inherited from the engine kernel: loads are bit-identical across
backends on tie-free weights with integral volumes, and match a
from-scratch ``route_demand`` of the step's matrix under the same
conditions (compilation may orient a pair from the opposite endpoint, which
on tie-free instances routes the identical unique shortest path).

The cascade trip rule
---------------------

:func:`failure_cascade` routes the full demand, then **trips** every link
whose load exceeds ``capacity * (1 + headroom)`` (a ``1e-9`` absolute
tolerance absorbs float accumulation; links without a finite capacity never
trip).  All overloaded links of a round trip *together*, in ascending edge
order, as plain :meth:`~repro.topology.graph.Topology.remove_link` calls.
No connectivity structure is maintained: routing already sheds demand whose
targets became unreachable, so the cascade needs nothing beyond the
recompiled graph.  Only the sources that carried flow on a tripped link are
re-routed (their retained records are the ones the removals invalidated; on
tie-free instances every other source's unique shortest paths are
untouched, and in ECMP mode the retained record covers *all* tied paths, so
the record-membership test is exact).  Rounds iterate until no link trips;
demand whose targets become unreachable is **shed** and shows up in the
round's ``unrouted`` column.

Headroom semantics: ``headroom`` is survivability slack — the fraction of
extra capacity a link can absorb before tripping.  ``headroom=0.0`` trips at
the provisioned capacity; larger values resist the cascade, and the E13
suite sweeps it to map served fraction against slack.  The topology is
restored (``restore=True``) by re-inserting the original ``Link`` objects,
which keep their insertion stamps and hence their place in link order, so
the cascade is an analysis, not a mutation.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from math import pi, sin
from random import Random
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..geography.demand import DemandMatrix
from ..topology.compiled import CompiledGraph, KERNEL_COUNTERS, have_numpy_backend
from ..topology.graph import Topology, TopologyError
from .engine import (
    FlowResult,
    SourceRoute,
    _add_records,
    _orient_pairs,
    _pair_groups,
    _resolve_demand,
    _route_sources,
    _select_backend,
    _tally,
)
from .options import RoutingOptions
from .paths import resolve_weight

if have_numpy_backend():
    import numpy as _np
else:  # pragma: no cover - exercised by the no-scipy CI leg
    _np = None

__all__ = [
    "CascadeResult",
    "CascadeRound",
    "CompiledSeries",
    "DemandSeries",
    "TemporalFlowResult",
    "TemporalStepResult",
    "compile_series",
    "diurnal_series",
    "failure_cascade",
    "flash_crowd",
    "route_series",
]

#: Absolute tolerance of the cascade trip rule (absorbs float accumulation).
TRIP_TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# The time-indexed demand layer
# ----------------------------------------------------------------------
@dataclass
class DemandSeries:
    """An ordered sequence of demand matrices — one per time step.

    Attributes:
        steps: The per-step :class:`~repro.geography.demand.DemandMatrix`
            objects, in time order.  Steps may share matrix objects (a flash
            crowd outside its spike window reuses the base matrix verbatim —
            the diff engine then re-resolves nothing).
        labels: Optional per-step labels (``t00``, ``t01``, ... by default).
    """

    steps: List[DemandMatrix]
    labels: Optional[List[str]] = None

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("DemandSeries needs at least one step")
        if self.labels is None:
            self.labels = [f"t{t:02d}" for t in range(len(self.steps))]
        elif len(self.labels) != len(self.steps):
            raise ValueError(
                f"DemandSeries has {len(self.steps)} steps but "
                f"{len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[DemandMatrix]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> DemandMatrix:
        return self.steps[index]


def diurnal_series(
    base: DemandMatrix,
    num_steps: int = 24,
    amplitude: float = 0.5,
    phase: float = 0.0,
) -> DemandSeries:
    """A sinusoidal diurnal load curve over a base matrix.

    Step ``t`` scales every demand of ``base`` by
    ``1 + amplitude * sin(2*pi*(t + phase)/num_steps)`` — a deterministic
    day/night cycle.  Every step changes every pair, so the diff engine
    re-resolves every source each step: the diurnal series is the temporal
    engine's *worst case* and the flash crowd its best.

    Args:
        base: The matrix carrying the mean load.
        num_steps: Steps per cycle (hours, by the default 24).
        amplitude: Peak-to-mean swing; must satisfy ``0 <= amplitude < 1`` so
            scaled volumes stay positive.
        phase: Fractional step offset of the peak.
    """
    if num_steps < 1:
        raise ValueError(f"diurnal_series needs num_steps >= 1, got {num_steps}")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(
            f"diurnal_series needs 0 <= amplitude < 1, got {amplitude}"
        )
    steps = [
        base.scaled(1.0 + amplitude * sin(2.0 * pi * (t + phase) / num_steps))
        for t in range(num_steps)
    ]
    return DemandSeries(steps, labels=[f"h{t:02d}" for t in range(num_steps)])


def flash_crowd(
    base: DemandMatrix,
    num_steps: int = 12,
    num_hotspots: int = 2,
    spike: float = 8.0,
    duration: int = 3,
    seed: int = 0,
) -> DemandSeries:
    """Multiplicative demand spikes on sampled hotspot endpoints.

    ``num_hotspots`` endpoints are sampled (deterministically from ``seed``)
    among the endpoints that carry demand; each gets one spike window of
    ``duration`` consecutive steps, and inside the window every pair touching
    the hotspot is multiplied by ``spike``.  Steps outside every window reuse
    the ``base`` matrix object verbatim, so consecutive quiet steps diff to
    *zero* changed sources — the workload the diff engine exists for.  An
    integral ``spike`` over an integral base keeps volumes integral, which is
    what the bit-identity gates require.
    """
    if num_steps < 1:
        raise ValueError(f"flash_crowd needs num_steps >= 1, got {num_steps}")
    if not 1 <= duration <= num_steps:
        raise ValueError(
            f"flash_crowd needs 1 <= duration <= num_steps, got {duration}"
        )
    if spike <= 0:
        raise ValueError(f"flash_crowd needs spike > 0, got {spike}")
    candidates = sorted({name for a, b, _v in base.pairs() for name in (a, b)})
    if not candidates:
        raise ValueError("flash_crowd needs a base matrix with positive demand")
    if not 1 <= num_hotspots <= len(candidates):
        raise ValueError(
            f"flash_crowd needs 1 <= num_hotspots <= {len(candidates)} "
            f"(endpoints with demand), got {num_hotspots}"
        )
    rng = Random(seed)
    hotspots = rng.sample(candidates, num_hotspots)
    windows = {
        hotspot: rng.randrange(0, num_steps - duration + 1) for hotspot in hotspots
    }
    steps: List[DemandMatrix] = []
    for t in range(num_steps):
        hot = {h for h, start in windows.items() if start <= t < start + duration}
        if not hot:
            steps.append(base)
            continue
        spiked = DemandMatrix(endpoints=list(base.endpoints))
        for a, b, volume in base.pairs():
            factor = spike if (a in hot or b in hot) else 1.0
            spiked.set_demand(a, b, volume * factor)
        steps.append(spiked)
    return DemandSeries(steps)


# ----------------------------------------------------------------------
# Series compilation: one union orientation, per-step volume columns
# ----------------------------------------------------------------------
@dataclass
class CompiledSeries:
    """A demand series compiled against one compiled-graph snapshot.

    The pair list is the **union** of every step's pairs, in first-appearance
    order across steps, oriented once (toward the endpoint shared by more
    union pairs — the :func:`~repro.routing.engine.compile_demand` rule
    applied to the union).  One shared orientation is what makes per-source
    records retainable across steps: a pair that flipped orientation between
    steps would silently move between source groups.

    Attributes:
        graph: The compiled topology snapshot the indices refer to.
        sources: Oriented source node index per union pair.
        targets: Oriented target node index per union pair.
        labels: Original ``(a, b)`` endpoint names per union pair.
        step_volumes: One ``array('d')`` per step, aligned with the union
            pair list (zero where a pair is absent from the step).
        unmatched: Per step, the ``(a, b, volume)`` pairs whose endpoints are
            missing from the topology (positive volumes only).
    """

    graph: CompiledGraph
    sources: array
    targets: array
    labels: List[Tuple[str, str]]
    step_volumes: List[array]
    unmatched: List[List[Tuple[str, str, float]]] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        """Number of time steps."""
        return len(self.step_volumes)

    @property
    def num_pairs(self) -> int:
        """Number of union (routable-endpoint) pairs."""
        return len(self.sources)

    @property
    def unique_sources(self) -> int:
        """Number of distinct oriented demand sources."""
        return len(set(self.sources))


def compile_series(
    topology: Topology,
    series: DemandSeries,
    endpoint_map: Optional[Dict[str, Any]] = None,
) -> CompiledSeries:
    """Compile a demand series against ``topology.compiled()``.

    Endpoint-name resolution and pair orientation happen exactly once, over
    the union of every step's pairs; see :class:`CompiledSeries` for the
    layout.  Endpoints missing from the topology land in the per-step
    ``unmatched`` lists instead of raising, mirroring
    :func:`~repro.routing.engine.compile_demand`.
    """
    endpoint_map = endpoint_map or {}
    graph = topology.compiled()
    index_of = graph.index_of
    union: Dict[Tuple[str, str], Tuple[Optional[int], Optional[int]]] = {}
    for matrix in series.steps:
        for a, b, _volume in matrix.pairs():
            if (a, b) not in union:
                union[(a, b)] = (
                    index_of.get(endpoint_map.get(a, a)),
                    index_of.get(endpoint_map.get(b, b)),
                )
    pairs: List[Tuple[int, int]] = []
    labels: List[Tuple[str, str]] = []
    unmatched_labels: List[Tuple[str, str]] = []
    for label, (source, target) in union.items():
        if source is None or target is None:
            unmatched_labels.append(label)
            continue
        pairs.append((source, target))
        labels.append(label)
    sources, targets = _orient_pairs(pairs)
    step_volumes = [
        array("d", (matrix.demand(a, b) for a, b in labels))
        for matrix in series.steps
    ]
    unmatched = [
        [
            (a, b, matrix.demand(a, b))
            for a, b in unmatched_labels
            if matrix.demand(a, b) > 0
        ]
        for matrix in series.steps
    ]
    return CompiledSeries(
        graph=graph,
        sources=sources,
        targets=targets,
        labels=labels,
        step_volumes=step_volumes,
        unmatched=unmatched,
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class TemporalStepResult(FlowResult):
    """Edge-indexed routing result of one time step (or cascade round).

    A :class:`~repro.routing.engine.FlowResult` — including the
    :meth:`~repro.routing.engine.FlowResult.loads_for` consumer contract, so
    a step result feeds ``utilization_report`` / ``load_concentration`` /
    ``provision_topology`` directly — plus the diff accounting of the
    temporal engine.  ``unrouted`` includes shed demand, and
    ``routed_pairs`` counts pairs with positive volume at this step.

    Attributes:
        step: Time-step (or cascade-round) index.
        resolved_sources: Sources re-resolved at this step (the diff size).
    """

    step: int
    resolved_sources: int

    _stale_name = "step result"

    @property
    def served_fraction(self) -> float:
        """Routed volume over offered volume (1.0 when nothing was offered)."""
        offered = self.routed_volume + self.unrouted_volume
        if offered <= 0:
            return 1.0
        return self.routed_volume / offered

    def load_hash(self) -> str:
        """SHA-256 of the load column bytes — the determinism fingerprint.

        Bit-identical columns (the backend/serial-parallel contract on
        tie-free integral instances) hash identically; any float divergence
        is loud.
        """
        return hashlib.sha256(array("d", self.edge_loads).tobytes()).hexdigest()

    def overloaded_edges(self, capacities: Sequence[Optional[float]]) -> List[int]:
        """Edge indices whose load exceeds the aligned capacity column.

        ``None`` capacities mean unbounded and never overload; the comparison
        uses the cascade's :data:`TRIP_TOLERANCE`.
        """
        loads = self.edge_loads
        if len(capacities) != len(loads):
            raise ValueError(
                f"capacities column has {len(capacities)} entries for "
                f"{len(loads)} edges"
            )
        return [
            e
            for e, capacity in enumerate(capacities)
            if capacity is not None and loads[e] > capacity + TRIP_TOLERANCE
        ]


@dataclass
class TemporalFlowResult:
    """Result of routing a whole demand series.

    Attributes:
        graph: The compiled snapshot every step column is aligned with.
        mode: ``"single"`` or ``"ecmp"``.
        steps: One :class:`TemporalStepResult` per time step.
    """

    graph: CompiledGraph
    mode: str
    steps: List[TemporalStepResult]

    @property
    def num_steps(self) -> int:
        """Number of routed time steps."""
        return len(self.steps)

    @property
    def resolved_sources_total(self) -> int:
        """Total source re-resolutions across all steps (the diff work)."""
        return sum(step.resolved_sources for step in self.steps)

    def step_hashes(self) -> List[str]:
        """Per-step SHA-256 load-column fingerprints (determinism gates)."""
        return [step.load_hash() for step in self.steps]

    def served_fractions(self) -> List[float]:
        """Per-step served fraction (routed volume over offered volume)."""
        return [step.served_fraction for step in self.steps]

    def overload_counts(self, capacities: Sequence[Optional[float]]) -> List[int]:
        """Per-step count of overloaded edges against one capacity column."""
        return [len(step.overloaded_edges(capacities)) for step in self.steps]


@dataclass
class CascadeRound:
    """One route → trip round of a failure cascade.

    Attributes:
        flow: The routing result of this round (loads in the round's own
            edge space — ``flow.graph`` is the degraded snapshot).
        tripped: Canonical keys of the links that exceeded the trip threshold
            this round, in ascending edge order.  Empty on the fixed-point
            round.
    """

    flow: TemporalStepResult
    tripped: List[Tuple[Any, Any]]


@dataclass
class CascadeResult:
    """Fixed point of a failure cascade.

    Attributes:
        rounds: Route → trip rounds, in order; the last round tripped
            nothing (unless ``max_rounds`` cut the cascade short).
        fixed_point: Whether the cascade converged (``False`` only when
            ``max_rounds`` stopped it with overloads still standing).
        headroom: The survivability slack the cascade ran with.
        mode: ``"single"`` or ``"ecmp"``.
    """

    rounds: List[CascadeRound]
    fixed_point: bool
    headroom: float
    mode: str

    @property
    def num_rounds(self) -> int:
        """Number of routing rounds (>= 1)."""
        return len(self.rounds)

    @property
    def total_trips(self) -> int:
        """Total links tripped across all rounds."""
        return sum(len(round_.tripped) for round_ in self.rounds)

    @property
    def tripped_keys(self) -> List[Tuple[Any, Any]]:
        """Every tripped link key, in trip order."""
        return [key for round_ in self.rounds for key in round_.tripped]

    @property
    def served_fraction(self) -> float:
        """Served fraction at the fixed point (the survivability summary)."""
        return self.rounds[-1].flow.served_fraction

    def step_hashes(self) -> List[str]:
        """Per-round SHA-256 load-column fingerprints (determinism gates)."""
        return [round_.flow.load_hash() for round_ in self.rounds]


# ----------------------------------------------------------------------
# The diff engine
# ----------------------------------------------------------------------
def route_series(
    topology: Any,
    series: Any = None,
    weight: Optional[str] = None,
    mode: Optional[str] = None,
    backend: Optional[str] = None,
    *,
    options: Optional[RoutingOptions] = None,
    endpoint_map: Optional[Dict[str, Any]] = None,
    reuse: bool = True,
) -> TemporalFlowResult:
    """Route a demand series step by step, re-resolving only changed sources.

    Two calling forms, mirroring :func:`~repro.routing.engine.route_demand`:
    ``route_series(topology, demand_series, ...)`` compiles and routes in one
    call, and ``route_series(compiled_series, ...)`` takes a pre-compiled
    :class:`CompiledSeries` (also accepted as the second argument next to its
    topology, validated against the current snapshot).

    Switches follow the façade vocabulary
    (:class:`~repro.routing.options.RoutingOptions`).
    ``reuse=False`` disables the diff and re-resolves every source at every
    step — bit-identical to the diff path by the fresh-summation contract
    (see the module docstring), which is exactly what the benchmark and the
    property tests gate.
    """
    opts = RoutingOptions.normalize(options, weight=weight, mode=mode, backend=backend)
    compiled = _resolve_series(topology, series, endpoint_map)
    return _route_series_compiled(compiled, opts, reuse)


def _resolve_series(
    topology: Any, series: Any, endpoint_map: Optional[Dict[str, Any]]
) -> CompiledSeries:
    """Normalize ``route_series``'s two calling forms to a CompiledSeries."""
    if isinstance(topology, CompiledSeries):
        if series is not None:
            raise TypeError(
                "route_series(compiled_series) takes no second series "
                "argument; use route_series(topology, series) to compile "
                "and route in one call"
            )
        if endpoint_map is not None:
            raise TypeError(
                "endpoint_map only applies when route_series compiles a "
                "DemandSeries; this series is already compiled"
            )
        return topology
    if isinstance(topology, Topology):
        if isinstance(series, CompiledSeries):
            if endpoint_map is not None:
                raise TypeError(
                    "endpoint_map only applies when route_series compiles a "
                    "DemandSeries; this series is already compiled"
                )
            graph = topology.compiled()
            if series.graph is not graph:
                raise TopologyError(
                    f"stale CompiledSeries: compiled against snapshot version "
                    f"{series.graph.version}, but topology {topology.name!r} "
                    f"now compiles to version {graph.version} — recompile "
                    f"with compile_series()"
                )
            return series
        if isinstance(series, DemandSeries):
            return compile_series(topology, series, endpoint_map)
        raise TypeError(
            f"route_series(topology, series) needs a DemandSeries or "
            f"CompiledSeries, got {type(series).__name__}"
        )
    raise TypeError(
        f"route_series expects a Topology or CompiledSeries first, "
        f"got {type(topology).__name__}"
    )


def _route_series_compiled(
    compiled: CompiledSeries, opts: RoutingOptions, reuse: bool
) -> TemporalFlowResult:
    graph = compiled.graph
    weights = graph.edge_weight_column(opts.weight, resolve_weight(opts.weight))
    use_numpy = _select_backend(graph, weights, opts)
    groups = _pair_groups(compiled.sources)
    routes: Dict[int, SourceRoute] = {}
    steps: List[TemporalStepResult] = []
    previous: Optional[array] = None
    sources = compiled.sources
    for t, volumes in enumerate(compiled.step_volumes):
        if previous is None or not reuse:
            changed = list(groups)
        else:
            moved = {
                sources[p]
                for p in range(len(volumes))
                if volumes[p] != previous[p]
            }
            changed = [source for source in groups if source in moved]
        KERNEL_COUNTERS.temporal_steps += 1
        KERNEL_COUNTERS.temporal_resolved_sources += len(changed)
        routes.update(
            _route_sources(
                graph,
                weights,
                opts.mode,
                use_numpy,
                groups,
                compiled.targets,
                volumes,
                compiled.labels,
                changed,
            )
        )
        total, routed_volume, routed_pairs, unrouted = _combine(
            graph, use_numpy, groups, routes, compiled.unmatched[t]
        )
        steps.append(
            TemporalStepResult(
                graph=graph,
                step=t,
                edge_loads=total,
                routed_volume=routed_volume,
                routed_pairs=routed_pairs,
                unrouted=unrouted,
                resolved_sources=len(changed),
                mode=opts.mode,
            )
        )
        previous = volumes
    return TemporalFlowResult(graph=graph, mode=opts.mode, steps=steps)


def _combine(
    graph: CompiledGraph,
    use_numpy: bool,
    groups: Dict[int, List[int]],
    routes: Dict[int, SourceRoute],
    unmatched: List[Tuple[str, str, float]],
) -> Tuple[Any, float, int, List[Tuple[str, str, float]]]:
    """Add the retained per-source records into one fresh total, group order.

    The fixed order (compile-time first-appearance source order) is what
    makes step loads history-independent: the total is a pure function of
    the retained records, never of which sources were re-resolved when.
    Each record names an edge at most once, so every edge receives its
    sources' flows one addition each, in the same order on both backends,
    and backend parity reduces to per-source record parity.
    """
    ordered = [routes[source] for source in groups]
    total = _add_records(graph.num_edges, use_numpy, ordered)
    return (total, *_tally(ordered, unmatched))


# ----------------------------------------------------------------------
# Failure cascades
# ----------------------------------------------------------------------
def failure_cascade(
    topology: Topology,
    demand: Any,
    weight: Optional[str] = None,
    mode: Optional[str] = None,
    backend: Optional[str] = None,
    *,
    options: Optional[RoutingOptions] = None,
    endpoint_map: Optional[Dict[str, Any]] = None,
    headroom: float = 0.0,
    max_rounds: Optional[int] = None,
    restore: bool = True,
) -> CascadeResult:
    """Iterate route → overload → trip → re-route to a fixed point.

    Each round routes the full demand (retained per-source flow records —
    only the sources whose record names a tripped link are re-routed, the
    rest are renumbered into the degraded edge space), trips every
    link whose load exceeds ``capacity * (1 + headroom)`` in ascending edge
    order, removes the batch with :meth:`Topology.remove_link` (no
    connectivity upkeep: routing sheds unreachable demand on its own), and
    recompiles the degraded graph.
    Links without a finite installed capacity (``link.capacity is None``)
    never trip — run :func:`~repro.economics.provisioning.provision_topology`
    first to install capacities.  The cascade terminates because every
    applying round removes at least one link; demand whose targets become
    unreachable is shed into the round's ``unrouted`` column.

    Args:
        topology: A capacity-provisioned topology.  Mutated during the
            cascade; rewound before returning unless ``restore=False``.  The
            rewind re-inserts the original ``Link`` objects, which keep their
            insertion stamps, so link order and the compiled edge order are
            byte-identical afterwards.  With ``restore=False`` exactly the
            tripped links stay removed.
        demand: A :class:`~repro.geography.demand.DemandMatrix` or a
            :class:`~repro.routing.engine.CompiledDemand` against the
            topology's current snapshot.
        headroom: Survivability slack — see the module docstring.
        max_rounds: Optional cap on routing rounds; hitting it returns
            ``fixed_point=False`` with the last round's trips unapplied.
        restore: Rewind the topology when done (default).

    Returns:
        A :class:`CascadeResult`; ``rounds[-1].flow`` is the fixed-point
        flow and ``served_fraction`` the survivability summary.
    """
    opts = RoutingOptions.normalize(options, weight=weight, mode=mode, backend=backend)
    if headroom < 0:
        raise ValueError(f"headroom must be non-negative, got {headroom}")
    if max_rounds is not None and max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    if not isinstance(topology, Topology):
        raise TypeError(
            f"failure_cascade expects a Topology first, "
            f"got {type(topology).__name__}"
        )
    compiled = _resolve_demand(topology, demand, endpoint_map)

    # The removed Link objects, re-inserted with their stamps on restore.
    removed: List[Any] = []
    graph = compiled.graph
    groups = _pair_groups(compiled.sources)
    routes: Dict[int, SourceRoute] = {}
    unmatched = [
        (a, b, volume)
        for a, b, volume in compiled.unmatched
        if volume > 0
    ]
    to_resolve = list(groups)
    rounds: List[CascadeRound] = []
    fixed_point = True
    try:
        while True:
            weights = graph.edge_weight_column(
                opts.weight, resolve_weight(opts.weight)
            )
            use_numpy = _select_backend(graph, weights, opts)
            KERNEL_COUNTERS.temporal_steps += 1
            KERNEL_COUNTERS.temporal_resolved_sources += len(to_resolve)
            routes.update(
                _route_sources(
                    graph,
                    weights,
                    opts.mode,
                    use_numpy,
                    groups,
                    compiled.targets,
                    compiled.volumes,
                    compiled.labels,
                    to_resolve,
                )
            )
            total, routed_volume, routed_pairs, unrouted = _combine(
                graph, use_numpy, groups, routes, unmatched
            )
            capacities = [link.capacity for link in graph.links]
            tripped_edges = [
                e
                for e, capacity in enumerate(capacities)
                if capacity is not None
                and total[e] > capacity * (1.0 + headroom) + TRIP_TOLERANCE
            ]
            tripped_keys = [graph.edge_keys[e] for e in tripped_edges]
            flow = TemporalStepResult(
                graph=graph,
                step=len(rounds),
                edge_loads=total,
                routed_volume=routed_volume,
                routed_pairs=routed_pairs,
                unrouted=unrouted,
                resolved_sources=len(to_resolve),
                mode=opts.mode,
            )
            rounds.append(CascadeRound(flow=flow, tripped=tripped_keys))
            if not tripped_edges:
                break
            if max_rounds is not None and len(rounds) >= max_rounds:
                fixed_point = False
                break
            KERNEL_COUNTERS.cascade_trips += len(tripped_edges)
            for u, v in tripped_keys:
                removed.append(topology.link(u, v))
                topology.remove_link(u, v)
            # Only sources whose retained flow crossed a tripped link are
            # re-routed.  Pinned in single-path mode on both backends, on
            # unit-length grids where every path ties: each round's loads
            # equal a from-scratch route of the degraded topology bit for bit.
            to_resolve = _affected_sources(groups, routes, tripped_edges)
            new_graph = topology.compiled()
            _remap_records(routes, graph, new_graph, skip=set(to_resolve))
            graph = new_graph
    finally:
        if restore:
            for link in removed:
                topology._reinsert_link(link)
    return CascadeResult(
        rounds=rounds,
        fixed_point=fixed_point,
        headroom=headroom,
        mode=opts.mode,
    )


def _affected_sources(
    groups: Dict[int, List[int]],
    routes: Dict[int, SourceRoute],
    tripped_edges: List[int],
) -> List[int]:
    """Sources whose retained record names a tripped edge, in group order.

    A record holds only nonzero flows, so naming an edge is carrying flow on
    it.
    """
    tripped = set(tripped_edges)
    return [source for source in groups if not tripped.isdisjoint(routes[source][3][0])]


def _remap_records(
    routes: Dict[int, SourceRoute],
    old_graph: CompiledGraph,
    new_graph: CompiledGraph,
    skip: set,
) -> None:
    """Renumber retained records' edge ids from the old edge space to the new.

    Only sources in ``skip`` (about to be re-resolved) can name a removed
    edge, and they are left alone; every other record keeps its flows
    bit for bit and only its ids move.
    """
    new_index = {key: e for e, key in enumerate(new_graph.edge_keys)}
    renumber = [new_index.get(key, -1) for key in old_graph.edge_keys]
    renumber_array = _np.asarray(renumber, dtype=_np.int64) if _np is not None else None
    for source, (volume, pairs, unrouted, (ids, flows)) in routes.items():
        if source in skip:
            continue
        if isinstance(ids, list):
            ids = [renumber[e] for e in ids]
        else:
            ids = renumber_array[ids]
        routes[source] = (volume, pairs, unrouted, (ids, flows))
