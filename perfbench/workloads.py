"""The benchmark's four design-pipeline workloads.

Every workload is split the same way:

* ``build(seed, size)`` makes the inputs from a seed (this is set-up and is
  timed as ``setup_s``);
* ``prepare(inputs)`` does untimed per-iteration work (a fresh copy of a
  topology the run mutates);
* ``run(prepared)`` is the timed section, driving the library only through
  its public functions, called through their modules so that the tracer's
  rebinding sees them;
* ``check(inputs, output)`` returns the output's pinned digests (compared
  with ``pins.json``) and its invariants (each must hold for any seed).

``SIZES`` gives the instance shape of each workload at the full size and at
the tiny size the smoke pass runs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.core import access_design, fkp
from repro.core.buyatbulk import Customer
from repro.core.objectives import CostObjective
from repro.economics import provisioning
from repro.economics.cables import default_catalog
from repro.geography import demand
from repro.geography.population import City
from repro.geography.regions import metro_region
from repro.optimization import incremental
from repro.optimization.incremental import AddLink, RemoveLink, Rewire
from repro.routing import engine, temporal
from repro.topology.graph import Topology
from repro.topology.node import NodeRole

SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "fkp_pipeline": {"nodes": 8_000, "endpoints": 32},
        "metro_access": {"customers": 50, "clients_per_concentrator": 5},
        "cascade": {"nodes": 1_200},
        "anneal": {"nodes": 1_500, "moves": 1_500},
    },
    "smoke": {
        "fkp_pipeline": {"nodes": 2_000, "endpoints": 8},
        "metro_access": {"customers": 30, "clients_per_concentrator": 3},
        "cascade": {"nodes": 400},
        "anneal": {"nodes": 300, "moves": 300},
    },
}

#: E12's FKP tradeoff and gravity volume.
FKP_ALPHA = 10.0
GRAVITY_VOLUME = 1_000_000.0
#: The cable ladder's capacity steps are ~3.4-4x apart, so a provisioned
#: link trips only when the surge outruns its band: 4x clears every step.
CASCADE_SURGE = 4.0


def _sha(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


Checks = Tuple[Dict[str, str], Dict[str, bool]]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Dict[str, int]], Any]
    prepare: Callable[[Any], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Checks]


def _unchanged(inputs: Any) -> Any:
    return inputs


# -- fkp_pipeline: E12's generate -> compile -> demand -> route -> provision --
@dataclass(frozen=True)
class FkpInputs:
    nodes: int
    seed: int
    endpoints: List[int]
    populations: List[float]


def build_fkp(seed: int, size: Dict[str, int]) -> FkpInputs:
    rng = random.Random(seed)
    endpoints = sorted(rng.sample(range(size["nodes"]), size["endpoints"]))
    populations = [rng.uniform(1e4, 1e6) for _ in endpoints]
    return FkpInputs(size["nodes"], seed, endpoints, populations)


def run_fkp(inputs: FkpInputs):
    topology = fkp.generate_fkp_tree(inputs.nodes, FKP_ALPHA, seed=inputs.seed)
    topology.compiled()
    cities = [
        City(name=node_id, location=topology.node(node_id).location, population=population)
        for node_id, population in zip(inputs.endpoints, inputs.populations)
    ]
    matrix = demand.gravity_demand(cities, total_volume=GRAVITY_VOLUME)
    flow = engine.route_demand(matrix.compile(topology))
    report = provisioning.provision_topology(topology, default_catalog(), flow=flow)
    return topology, flow, report


def check_fkp(inputs: FkpInputs, output) -> Checks:
    topology, flow, report = output
    pinned = {
        "tree_edges": _sha(sorted(topology.link_keys())),
        "install_cost": float(report.total_install_cost).hex(),
    }
    invariants = {
        "spanning_tree": topology.num_nodes == inputs.nodes and topology.is_tree(),
        "all_pairs_routed": len(flow.unrouted) == 0,
    }
    return pinned, invariants


# -- metro_access: E7's metro tree (k-median concentrators + Meyerson feeders) --
@dataclass(frozen=True)
class MetroInputs:
    customers: List[Customer]
    seed: int
    clients_per_concentrator: int


def build_metro(seed: int, size: Dict[str, int]) -> MetroInputs:
    # Customer placement as design_access_network draws it (clustered).
    rng = random.Random(seed)
    count = size["customers"]
    locations = metro_region().sample_clustered(count, max(3, count // 40), rng)
    customers = [
        Customer(customer_id=f"cust{i}", location=locations[i], demand=rng.uniform(1.0, 10.0))
        for i in range(count)
    ]
    return MetroInputs(customers, seed, size["clients_per_concentrator"])


def run_metro(inputs: MetroInputs):
    region = metro_region()
    designer = access_design.AccessNetworkDesigner(
        customers=inputs.customers,
        core_location=region.center,
        region=region,
        parameters=access_design.AccessDesignParameters(
            clients_per_concentrator=inputs.clients_per_concentrator, seed=inputs.seed
        ),
    )
    return designer.design()


def check_metro(inputs: MetroInputs, result) -> Checks:
    topology = result.topology
    sites = [
        (cid, tuple(float(c).hex() for c in topology.node(cid).location))
        for cid in result.concentrator_ids
    ]
    expected = -(-len(inputs.customers) // inputs.clients_per_concentrator)
    pinned = {"concentrators": _sha(sites), "total_cost": float(result.total_cost()).hex()}
    invariants = {
        "concentrator_count": len(result.concentrator_ids) == expected,
        "all_customers_reach_core": len(topology.bfs_order("core0")) == topology.num_nodes,
    }
    return pinned, invariants


# -- cascade: a provisioned geometric backbone under a 4x surge ----------------
@dataclass(frozen=True)
class CascadeInputs:
    topology: Topology
    surge: demand.DemandMatrix
    endpoint_map: Dict[str, int]
    num_links: int


def build_cascade(seed: int, size: Dict[str, int]) -> CascadeInputs:
    """Random tree plus n/2 chords, demand on n/10 pairs, provisioned at 1x."""
    rng = random.Random(seed)
    n = size["nodes"]
    topology = Topology(name=f"cascade-{n}")
    for i in range(n):
        topology.add_node(i, location=(rng.random(), rng.random()))
    for i in range(1, n):
        topology.add_link(i, rng.randrange(i))
    chords = 0
    while chords < n // 2:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not topology.has_link(u, v):
            topology.add_link(u, v)
            chords += 1
    pairs = set()
    while len(pairs) < n // 10:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    ordered = sorted(pairs)
    volumes = [float(rng.randint(1, 16)) for _ in ordered]
    base = demand.DemandMatrix.from_arrays(
        [str(i) for i in range(n)], [u for u, _ in ordered], [v for _, v in ordered], volumes
    )
    endpoint_map = {str(i): i for i in range(n)}
    flow = engine.route_demand(topology, base, endpoint_map=endpoint_map)
    provisioning.provision_topology(topology, default_catalog(), flow=flow)
    return CascadeInputs(topology, base.scaled(CASCADE_SURGE), endpoint_map, topology.num_links)


def run_cascade(inputs: CascadeInputs):
    # failure_cascade rewinds the topology, so every iteration starts alike.
    return temporal.failure_cascade(
        inputs.topology, inputs.surge, endpoint_map=inputs.endpoint_map
    )


def check_cascade(inputs: CascadeInputs, result) -> Checks:
    pinned = {"step_hashes": _sha(result.step_hashes()), "tripped": _sha(result.tripped_keys)}
    invariants = {
        "fixed_point": result.fixed_point,
        "tripped_some": result.total_trips > 0,
        "topology_restored": inputs.topology.num_links == inputs.num_links,
    }
    return pinned, invariants


# -- anneal: a deletion-heavy apply/revert trace through IncrementalState ------
@dataclass(frozen=True)
class AnnealInputs:
    topology: Topology
    trace: List[Tuple[str, Any]]


class _IndexedSet:
    """Insertion-indexed set with O(1) removal and seeded random choice."""

    def __init__(self) -> None:
        self.items: List[Any] = []
        self.position: Dict[Any, int] = {}

    def add(self, item: Any) -> None:
        self.position[item] = len(self.items)
        self.items.append(item)

    def discard(self, item: Any) -> None:
        index = self.position.pop(item, None)
        if index is None:
            return
        last = self.items.pop()
        if index < len(self.items):
            self.items[index] = last
            self.position[last] = index

    def choice(self, rng: random.Random) -> Any:
        return self.items[rng.randrange(len(self.items))]


def build_anneal(seed: int, size: Dict[str, int]) -> AnnealInputs:
    """An access tree plus n/4 chords with integral demands, and a move trace.

    The trace is generated against a mirror of the link set so it is valid
    from the instance: 50% RemoveLink, ~15% Rewire of a leaf, the rest
    AddLink, with a revert after 20% of the applied moves.
    """
    rng = random.Random(seed)
    n = size["nodes"]
    topology = Topology(name=f"anneal-{n}")
    topology.add_node("core0", role=NodeRole.CORE, location=(0.5, 0.5))
    links = _IndexedSet()
    # Insertion-ordered neighbour dicts keep the trace independent of hashing.
    adjacency: Dict[str, Dict[str, None]] = {"core0": {}}

    def key(u: str, v: str) -> Tuple[str, str]:
        return (u, v) if u < v else (v, u)

    def link(u: str, v: str) -> None:
        links.add(key(u, v))
        adjacency[u][v] = None
        adjacency[v][u] = None

    def unlink(u: str, v: str) -> None:
        links.discard(key(u, v))
        del adjacency[u][v], adjacency[v][u]

    for i in range(n - 1):
        node = f"c{i}"
        topology.add_node(
            node,
            role=NodeRole.CUSTOMER,
            location=(rng.random(), rng.random()),
            demand=float(rng.randint(1, 9)),
        )
        adjacency[node] = {}
        target = "core0" if i == 0 else f"c{rng.randrange(i)}"
        topology.add_link(node, target, install_cost=2.0, usage_cost=0.1)
        link(node, target)
    ids = list(adjacency)
    chords = 0
    while chords < n // 4:
        u, v = rng.sample(ids, 2)
        if key(u, v) not in links.position:
            topology.add_link(u, v, install_cost=2.0, usage_cost=0.1)
            link(u, v)
            chords += 1

    trace: List[Tuple[str, Any]] = []
    undo: List[Tuple[Tuple[str, str, str], ...]] = []
    applied = 0
    while applied < size["moves"]:
        roll = rng.random()
        if roll < 0.50:
            u, v = links.choice(rng)
            move = RemoveLink(u, v)
            unlink(u, v)
            undo.append((("add", u, v),))
        elif roll < 0.65:
            node = rng.choice(ids)
            if len(adjacency[node]) != 1:
                continue
            old = next(iter(adjacency[node]))
            new = rng.choice(ids)
            if new in (node, old) or key(node, new) in links.position:
                continue
            move = Rewire(node, old, new)
            unlink(node, old)
            link(node, new)
            undo.append((("remove", node, new), ("add", node, old)))
        else:
            u, v = rng.sample(ids, 2)
            if key(u, v) in links.position:
                continue
            move = AddLink(u, v, install_cost=2.0, usage_cost=0.05)
            link(u, v)
            undo.append((("remove", u, v),))
        trace.append(("apply", move))
        applied += 1
        if rng.random() < 0.20:
            for op, a, b in undo.pop():
                (link if op == "add" else unlink)(a, b)
            trace.append(("revert", None))
    return AnnealInputs(topology, trace)


def prepare_anneal(inputs: AnnealInputs) -> AnnealInputs:
    # The replay mutates its topology: give every iteration a fresh copy.
    return AnnealInputs(inputs.topology.copy(), inputs.trace)


def run_anneal(inputs: AnnealInputs):
    state = incremental.IncrementalState(inputs.topology, CostObjective())
    for op, move in inputs.trace:
        if op == "apply":
            state.apply(move)
        else:
            state.revert()
    return state


def check_anneal(inputs: AnnealInputs, state) -> Checks:
    pinned = {
        "score": float(state.score).hex(),
        "link_keys": _sha(list(state.topology.link_keys())),
    }
    try:
        state.verify()
        verified = True
    except AssertionError:
        verified = False
    return pinned, {"score_matches_full_evaluation": verified}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fkp_pipeline", build_fkp, _unchanged, run_fkp, check_fkp),
        Workload("metro_access", build_metro, _unchanged, run_metro, check_metro),
        Workload("cascade", build_cascade, _unchanged, run_cascade, check_cascade),
        Workload("anneal", build_anneal, prepare_anneal, run_anneal, check_anneal),
    )
}
