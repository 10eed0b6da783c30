"""Link order is data: every link keeps its insertion stamp for life.

Random mixes of incremental moves with reverts, direct remove/re-insert
bursts and restoring failure cascades are checked step by step against a
fresh topology rebuilt by replaying the surviving links in stamp order: the
link order, every adjacency row, the compiled CSR arrays and the bits of an
order-dependent float sum must all agree.
"""

import random
import re
from pathlib import Path

import pytest

import repro
from repro.core.objectives import CostObjective
from repro.geography.demand import DemandMatrix
from repro.optimization.incremental import (
    AddLink,
    AddNode,
    IncrementalState,
    RemoveLink,
    Rewire,
    UpgradeCable,
)
from repro.routing.temporal import failure_cascade
from repro.topology.compiled import have_numpy_backend
from repro.topology.graph import Topology, TopologyError
from repro.topology.link import Link, edge_key
from repro.topology.node import NodeRole

NUM_NODES = 24


def random_instance(seed):
    """Random tree + chords with capacities, plus a demand that overloads some."""
    rng = random.Random(seed)
    topology = Topology(name=f"link-order-{seed}")
    for i in range(NUM_NODES):
        topology.add_node(
            i,
            role=NodeRole.CORE if i == 0 else NodeRole.CUSTOMER,
            location=(rng.random(), rng.random()),
            demand=0.0 if i == 0 else float(rng.randint(1, 4)),
        )
    for i in range(1, NUM_NODES):
        topology.add_link(i, rng.randrange(i), capacity=float(rng.randint(2, 12)))
    while topology.num_links < NUM_NODES + NUM_NODES // 2:
        u, v = rng.sample(range(NUM_NODES), 2)
        if not topology.has_link(u, v):
            topology.add_link(u, v, capacity=float(rng.randint(2, 12)))
    pairs = sorted({tuple(sorted(rng.sample(range(NUM_NODES), 2))) for _ in range(30)})
    demand = DemandMatrix.from_arrays(
        [str(i) for i in range(NUM_NODES)],
        [u for u, _ in pairs],
        [v for _, v in pairs],
        [float(rng.randint(1, 6)) for _ in pairs],
    )
    return topology, demand, {str(i): i for i in range(NUM_NODES)}


def observe(topology):
    """Every order-sensitive read, keyed by name (each call reads afresh)."""

    def compiled_arrays():
        graph = topology.compiled()
        names = ("indptr", "indices", "half_edge_ids", "edge_u", "edge_v")
        return graph.edge_keys, [list(getattr(graph, name)) for name in names]

    return {
        "link_keys": lambda: list(topology.link_keys()),
        "links": lambda: [link.key for link in topology.links()],
        "neighbors": lambda: [topology.neighbors(n) for n in topology.node_ids()],
        "incident_links": lambda: [
            [link.key for link in topology.incident_links(n)]
            for n in topology.node_ids()
        ],
        "compiled": compiled_arrays,
        "total_length": lambda: topology.total_length().hex(),
        "copy": lambda: list(topology.copy().link_keys()),
    }


def assert_stamp_order(topology, order, rng=None):
    """``topology`` reads exactly like a replay of ``order`` from scratch.

    With ``rng`` the reads run in a random order, so whichever comes first
    after a re-insert must put the links in stamp order itself.
    """
    fresh = Topology()
    for node in topology.nodes():
        fresh.add_node(node.node_id, location=node.location)
    for key in order:
        link = topology.link(*key)
        fresh.add_link(link.source, link.target, length=link.length)
    assert list(fresh.link_keys()) == order
    got, want = observe(topology), observe(fresh)
    names = sorted(got)
    if rng is not None:
        rng.shuffle(names)
    for name in names:
        assert got[name]() == want[name](), name


def random_move(topology, rng, next_id):
    ids = list(topology.node_ids())
    keys = list(topology.link_keys())
    kind = rng.randrange(5)
    if kind == 0:
        u, v = rng.sample(ids, 2)
        return AddLink(u, v, capacity=float(rng.randint(2, 12)))
    if kind == 1 and keys:
        return RemoveLink(*rng.choice(keys))
    if kind == 2 and keys:
        node, old = rng.choice(keys)
        return Rewire(node, old, rng.choice(ids))
    if kind == 3:
        return AddNode(
            next_id,
            role=NodeRole.CUSTOMER,
            location=(rng.random(), rng.random()),
            demand=1.0,
            attach_to=tuple(rng.sample(ids, 2)),
        )
    if keys:
        return UpgradeCable(*rng.choice(keys), install_cost=rng.uniform(1.0, 5.0))
    return None


def model_after(order, move):
    """The stamp order after ``move``: removals drop out, insertions append."""
    if isinstance(move, AddLink):
        return order + [edge_key(move.u, move.v)]
    if isinstance(move, RemoveLink):
        return [k for k in order if k != edge_key(move.u, move.v)]
    if isinstance(move, Rewire):
        gone = edge_key(move.node, move.old_neighbor)
        return [k for k in order if k != gone] + [edge_key(move.node, move.new_neighbor)]
    if isinstance(move, AddNode):
        return order + [edge_key(move.node_id, target) for target in move.attach_to]
    return list(order)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_random_mutations_keep_stamp_order(seed, backend):
    if backend == "numpy" and not have_numpy_backend():
        pytest.skip("scipy not available")
    rng = random.Random(seed)
    topology, demand, endpoint_map = random_instance(seed)
    state = IncrementalState(topology, CostObjective())
    order = list(topology.link_keys())
    history = []  # stamp order before each move still on the undo stack
    next_id = NUM_NODES
    trips = 0
    for _ in range(150):
        r = rng.random()
        if r < 0.08 and order:
            # Direct burst: remove several links, re-insert in random order.
            removed = [topology.link(*key) for key in rng.sample(order, min(4, len(order)))]
            for link in removed:
                topology.remove_link(link.source, link.target)
            out = {link.key for link in removed}
            assert_stamp_order(topology, [k for k in order if k not in out], rng)
            rng.shuffle(removed)
            for i, link in enumerate(removed):
                topology._reinsert_link(link)
                if rng.random() < 0.5:
                    still_out = {link.key for link in removed[i + 1:]}
                    assert_stamp_order(
                        topology, [k for k in order if k not in still_out], rng
                    )
        elif r < 0.13:
            cascade = failure_cascade(
                topology, demand, endpoint_map=endpoint_map, backend=backend
            )
            trips += cascade.total_trips
        elif r < 0.23 and history:
            depth = rng.randrange(len(history) + 1)
            state.revert_to(depth)
            if depth < len(history):
                order = history[depth]
            del history[depth:]
        else:
            move = random_move(topology, rng, next_id)
            if move is None:
                continue
            try:
                state.apply(move)
            except TopologyError:
                assert_stamp_order(topology, order, rng)
                continue
            next_id += isinstance(move, AddNode)
            history.append(order)
            order = model_after(order, move)
            if rng.random() < 0.4:
                state.revert(move)
                order = history.pop()
        assert_stamp_order(topology, order, rng)
    state.revert_to(0)
    assert_stamp_order(topology, history[0] if history else order)
    state.verify()
    assert trips > 0, "no cascade tripped a link: the cascade leg is vacuous"


def test_remove_three_links_then_revert_to_start():
    """The scripted remove → revert_to(0) round trip, step by step."""
    topology, _, _ = random_instance(7)
    state = IncrementalState(topology, CostObjective())
    start = list(topology.link_keys())
    order = list(start)
    for key in start[:3]:
        state.apply(RemoveLink(*key))
        order.remove(key)
        assert_stamp_order(topology, order)
    state.revert_to(0)
    assert_stamp_order(topology, start)


def test_public_add_link_object_appends_at_the_end():
    """Only the private undo path restores a stamp; re-adding a removed link
    through the public API is a new insertion, last in link order."""
    topology, _, _ = random_instance(3)
    first = next(topology.links())
    topology.remove_link(first.source, first.target)
    topology.add_link_object(first)
    keys = list(topology.link_keys())
    assert keys[-1] == first.key
    assert_stamp_order(topology, keys)


def test_stamp_stays_out_of_link_identity():
    topology, _, _ = random_instance(5)
    link = next(topology.links())
    twin = Link.from_dict(link.to_dict())
    assert link == twin
    assert repr(link) == repr(twin)
    assert "_stamp" not in link.to_dict()


def test_link_order_is_private_to_the_topology_package():
    """Only ``repro.topology`` reads the link/adjacency dicts: link order is
    one module's decision."""
    package = Path(repro.__file__).resolve().parent
    owner = package / "topology"
    forbidden = re.compile(r"\._links\b|\._adjacency\b|_restore_link_order")
    offenders = [
        f"{path.relative_to(package)}:{number}"
        for path in sorted(package.rglob("*.py"))
        if owner not in path.parents
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if forbidden.search(line)
    ]
    assert offenders == []
