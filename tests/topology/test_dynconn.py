"""Property tests for repro.topology.dynconn (component-label connectivity).

The structure is driven through randomized interleavings of insert/delete/
undo and checked against :func:`repro.topology.compiled.components_indices`
— the canonical connectivity oracle — on a Topology mirror kept in
lockstep.  Aggregates are cross-checked against exact :class:`~fractions`
sums (the fixed-point representation promises correctly-rounded,
shape-independent component sums), and rollback is checked *bit*-identical
(``struct``-packed doubles, not ``==``) after arbitrary revert depths.
"""

import random
import struct
from fractions import Fraction

import pytest

from repro.core.objectives import CostObjective
from repro.optimization.incremental import (
    AddLink,
    IncrementalState,
    RemoveLink,
    Rewire,
)
from repro.topology.compiled import KERNEL_COUNTERS, components_indices
from repro.topology.dynconn import ComponentSummary, DynamicConnectivity
from repro.topology.graph import Topology, TopologyError
from repro.topology.link import edge_key
from repro.topology.node import NodeRole


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _pack_summary(summary: ComponentSummary):
    """Bit-exact snapshot of one component summary."""
    return (
        summary.size,
        summary.has_core,
        _bits(summary.demand),
        _bits(summary.revenue),
    )


class Mirror:
    """A DynamicConnectivity kept in lockstep with a plain Topology.

    Every mutation pushes an (undo-token, inverse-topology-op) pair so the
    pair of structures can be rolled back together and re-compared against
    the oracle at any depth.
    """

    def __init__(self, num_vertices: int, seed: int):
        rng = random.Random(seed)
        self.topology = Topology(name=f"dynconn-mirror-{seed}")
        self.dyn = DynamicConnectivity()
        self.payload = {}
        self.vertices = [f"n{i}" for i in range(num_vertices)]
        for i, vertex in enumerate(self.vertices):
            is_core = rng.random() < 0.15
            demand = rng.uniform(0.5, 9.5) if not is_core else 0.0
            revenue = demand * rng.uniform(0.1, 2.0)
            self.payload[vertex] = (is_core, demand, revenue)
            self.topology.add_node(
                vertex,
                role=NodeRole.CORE if is_core else NodeRole.CUSTOMER,
                demand=demand,
            )
            self.dyn.add_vertex(vertex, is_core=is_core, demand=demand, revenue=revenue)
        self.stack = []

    # -- lockstep mutation ---------------------------------------------
    def insert(self, u, v):
        self.topology.add_link(u, v)
        token = self.dyn.insert(u, v)
        self.stack.append((token, ("remove", u, v)))

    def delete(self, u, v):
        self.topology.remove_link(u, v)
        token = self.dyn.delete(u, v)
        self.stack.append((token, ("add", u, v)))

    def undo(self):
        token, (op, u, v) = self.stack.pop()
        self.dyn.undo(token)
        if op == "add":
            self.topology.add_link(u, v)
        else:
            self.topology.remove_link(u, v)

    # -- oracle comparison ---------------------------------------------
    def oracle_components(self, backend):
        graph = self.topology.compiled()
        labels, count = components_indices(graph, backend=backend)
        members = [[] for _ in range(count)]
        for index, label in enumerate(labels):
            members[label].append(graph.ids[index])
        return members

    def check_against_oracle(self, backend="python"):
        oracle = self.oracle_components(backend)
        # components() reproduces the oracle's canonical first-node order.
        assert list(self.dyn.components().values()) == oracle
        for members in oracle:
            exact_demand = sum(
                (Fraction(self.payload[v][1]) for v in members), Fraction(0)
            )
            exact_revenue = sum(
                (Fraction(self.payload[v][2]) for v in members), Fraction(0)
            )
            expected = ComponentSummary(
                size=len(members),
                has_core=any(self.payload[v][0] for v in members),
                demand=float(exact_demand),
                revenue=float(exact_revenue),
            )
            for vertex in members:
                assert self.dyn.summary(vertex) == expected
                assert self.dyn.component_size(vertex) == expected.size
                assert self.dyn.has_core_component(vertex) == expected.has_core
        for u, v in (random.Random(len(oracle)).sample(self.vertices, 2),):
            label = {m: i for i, ms in enumerate(oracle) for m in ms}
            assert self.dyn.connected(u, v) == (label[u] == label[v])

    def snapshot(self):
        """Bit-exact observable state: partition plus every component summary."""
        return (
            tuple(tuple(ms) for ms in self.dyn.components().values()),
            tuple(_pack_summary(self.dyn.summary(v)) for v in self.vertices),
        )


def _random_step(mirror: Mirror, rng: random.Random) -> bool:
    roll = rng.random()
    if roll < 0.25 and mirror.stack:
        mirror.undo()
        return True
    if roll < 0.6 and mirror.dyn.num_edges:
        key = rng.choice(sorted(mirror.dyn._edges))
        mirror.delete(*key)
        return True
    u, v = rng.sample(mirror.vertices, 2)
    if mirror.dyn.has_edge(u, v):
        return False
    mirror.insert(u, v)
    return True


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("backend", ["python", None])
    def test_interleaved_mutations_match_components_indices(self, seed, backend):
        """insert/delete/undo interleavings track the canonical oracle."""
        rng = random.Random(seed)
        mirror = Mirror(num_vertices=rng.randrange(20, 40), seed=seed)
        steps = 0
        for _ in range(220):
            if _random_step(mirror, rng):
                steps += 1
            if steps % 17 == 0:
                mirror.check_against_oracle(backend=backend)
        mirror.check_against_oracle(backend=backend)
        assert steps > 150

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bulk_build_matches_incremental(self, seed):
        """build() and one-edge-at-a-time insertion agree on every observable."""
        rng = random.Random(seed)
        mirror = Mirror(num_vertices=30, seed=seed)
        edges = set()
        while len(edges) < 45:
            u, v = rng.sample(mirror.vertices, 2)
            key = edge_key(u, v)
            if key not in edges:
                edges.add(key)
                mirror.insert(u, v)
        bulk = DynamicConnectivity()
        bulk.build(
            (
                (v, mirror.payload[v][0], mirror.payload[v][1], mirror.payload[v][2])
                for v in mirror.vertices
            ),
            sorted(edges),
        )
        assert bulk.components() == mirror.dyn.components()
        for vertex in mirror.vertices:
            assert bulk.summary(vertex) == mirror.dyn.summary(vertex)
        mirror.check_against_oracle()


class TestUndo:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rollback_is_bit_identical_at_arbitrary_depths(self, seed):
        """Snapshots taken mid-sequence are restored bit-exactly by undo."""
        rng = random.Random(100 + seed)
        mirror = Mirror(num_vertices=25, seed=seed)
        snapshots = [(len(mirror.stack), mirror.snapshot())]
        for _ in range(160):
            _random_step(mirror, rng)
            # A snapshot dies once the walk undoes *below* its depth — the
            # operations later re-pushed at that depth are different ones.
            while snapshots and len(mirror.stack) < snapshots[-1][0]:
                snapshots.pop()
            if rng.random() < 0.2:
                snapshots.append((len(mirror.stack), mirror.snapshot()))
        # Unwind to each recorded depth in turn (strict LIFO) and compare.
        for depth, snapshot in reversed(snapshots):
            while len(mirror.stack) > depth:
                mirror.undo()
            assert mirror.snapshot() == snapshot
        mirror.check_against_oracle()

    def test_delete_all_then_undo_all_restores_summaries(self):
        mirror = Mirror(num_vertices=40, seed=7)
        rng = random.Random(7)
        while mirror.dyn.num_edges < 60:
            u, v = rng.sample(mirror.vertices, 2)
            if not mirror.dyn.has_edge(u, v):
                mirror.insert(u, v)
        before = mirror.snapshot()
        depth = len(mirror.stack)
        for key in sorted(mirror.dyn._edges):
            mirror.delete(*key)
        assert mirror.dyn.num_edges == 0
        assert all(mirror.dyn.component_size(v) == 1 for v in mirror.vertices)
        while len(mirror.stack) > depth:
            mirror.undo()
        assert mirror.snapshot() == before
        mirror.check_against_oracle()

    def test_double_undo_raises(self):
        dyn = DynamicConnectivity()
        for v in "ab":
            dyn.add_vertex(v)
        token = dyn.insert("a", "b")
        dyn.undo(token)
        with pytest.raises(AssertionError):
            dyn.undo(token)  # no longer live: the LIFO token check detects it

    def test_undo_out_of_order_raises(self):
        """Only the most recent live token may be undone, matched by identity."""
        dyn = DynamicConnectivity()
        for v in "abc":
            dyn.add_vertex(v)
        first = dyn.insert("a", "b")
        second = dyn.insert("b", "c")
        with pytest.raises(AssertionError):
            dyn.undo(first)
        assert dyn.component_size("a") == 3  # the failed undo changed nothing
        dyn.undo(second)
        dyn.undo(first)
        again = dyn.insert("a", "b")
        assert again == first and again is not first
        with pytest.raises(AssertionError):
            dyn.undo(first)  # an equal token that is no longer live
        dyn.undo(again)
        assert dyn.component_size("a") == 1


class TestDeletionCost:
    @staticmethod
    def _two_arms(arm: int) -> DynamicConnectivity:
        """u and v joined directly and through w, each with an ``arm``-long path.

        The bypass edges go in first, so each endpoint's search steps to w
        before its arm.
        """
        dyn = DynamicConnectivity()
        edges = [("u", "w"), ("v", "w"), ("u", "v")]
        for end in "uv":
            path = [end] + [f"{end}{i}" for i in range(arm)]
            edges += list(zip(path, path[1:]))
        vertices = sorted({x for edge in edges for x in edge})
        dyn.build(((x, x == "u", 1.0, 2.0) for x in vertices), edges)
        return dyn

    def test_cycle_edge_deletion_relabels_nothing(self):
        arm = 20
        dyn = self._two_arms(arm)
        labels = dict(dyn._label)
        sizes = {x: dyn.component_size(x) for x in labels}
        before = KERNEL_COUNTERS.snapshot()
        token = dyn.delete("u", "v")
        after = KERNEL_COUNTERS.snapshot()
        assert dyn._label == labels
        assert {x: dyn.component_size(x) for x in labels} == sizes
        assert after["dynconn_replacement_searches"] == before["dynconn_replacement_searches"] + 1
        # The searches meet at w after a handful of visits; relabelling
        # either side of the cut would add at least ``arm`` to the counter.
        assert 0 < after["dynconn_tree_ops"] - before["dynconn_tree_ops"] < arm
        dyn.undo(token)
        assert dyn._label == labels

    def test_bridge_deletion_splits_sums_exactly(self):
        """Both sides of a cut bridge keep exact (not naively summed) sums."""
        dyn = DynamicConnectivity()
        left = {"a0": 0.1, "a1": 0.2, "a2": 0.3}
        right = {"b0": 1e16, "b1": 1.0, "b2": 1.0}
        for vertex, demand in {**left, **right}.items():
            dyn.add_vertex(vertex, is_core=vertex == "a0", demand=demand, revenue=2 * demand)
        for u, v in [("a0", "a1"), ("a1", "a2"), ("b0", "b1"), ("b1", "b2"), ("a2", "b0")]:
            dyn.insert(u, v)

        def exact(side):
            demand = sum((Fraction(d) for d in side.values()), Fraction(0))
            return float(demand), float(2 * demand)

        whole = exact({**left, **right})
        assert dyn.summary("b2") == ComponentSummary(6, True, *whole)
        token = dyn.delete("a2", "b0")
        assert dyn.summary("a1") == ComponentSummary(3, True, *exact(left))
        assert dyn.summary("b1") == ComponentSummary(3, False, *exact(right))
        # Naive float accumulation would have lost the two 1.0s to rounding.
        assert dyn.summary("b1").demand == 1e16 + 2 != (1e16 + 1.0) + 1.0
        dyn.undo(token)
        assert dyn.summary("a0") == ComponentSummary(6, True, *whole)


class TestVertices:
    def test_remove_vertex_requires_isolation(self):
        dyn = DynamicConnectivity()
        dyn.add_vertex("a")
        dyn.add_vertex("b", demand=3.0)
        dyn.insert("a", "b")
        with pytest.raises(ValueError):
            dyn.remove_vertex("a")
        dyn.delete("a", "b")
        dyn.remove_vertex("a")
        assert "a" not in dyn
        assert len(dyn) == 1

    def test_duplicate_vertex_and_edge_rejected(self):
        dyn = DynamicConnectivity()
        dyn.add_vertex("a")
        dyn.add_vertex("b")
        with pytest.raises(ValueError):
            dyn.add_vertex("a")
        dyn.insert("a", "b")
        with pytest.raises(ValueError):
            dyn.insert("b", "a")
        with pytest.raises(ValueError):
            dyn.delete("a", "c")


def _engine_fixture(seed: int, size: int = 30) -> Topology:
    """An access tree with *integral* demands (exact in float, so the
    dynconn engine's correctly-rounded component sums coincide bitwise with
    a sweep's accumulated floats)."""
    rng = random.Random(seed)
    topology = Topology(name=f"engine-eq-{seed}")
    topology.add_node("core0", role=NodeRole.CORE, location=(0.5, 0.5))
    for i in range(size):
        topology.add_node(
            f"c{i}",
            role=NodeRole.CUSTOMER,
            location=(rng.random(), rng.random()),
            demand=float(rng.randint(1, 9)),
        )
        target = "core0" if i == 0 else f"c{rng.randrange(i)}"
        topology.add_link(f"c{i}", target, install_cost=2.0, usage_cost=0.1)
    return topology


def _engine_moves(topology: Topology, rng: random.Random):
    """A deletion-heavy move (≥50% RemoveLink/Rewire by construction)."""
    node_ids = [n.node_id for n in topology.nodes()]
    roll = rng.random()
    if roll < 0.35:
        link = rng.choice(list(topology.links()))
        return RemoveLink(link.source, link.target)
    if roll < 0.55:
        leaves = [n for n in node_ids if topology.degree(n) == 1]
        if not leaves:
            return None
        node = rng.choice(leaves)
        old = topology.neighbors(node)[0]
        new = rng.choice([x for x in node_ids if x not in (node, old)])
        if topology.has_link(node, new):
            return None
        return Rewire(node, old, new)
    u, v = rng.sample(node_ids, 2)
    if topology.has_link(u, v):
        return None
    return AddLink(u, v, install_cost=2.0, usage_cost=0.05)


def _swept_service(topology: Topology):
    """Reference service state from one fresh ``components_indices`` sweep.

    Returns the served demand (per-component sums in node order, components
    summed in label order) and whether each node's component holds a core.
    """
    graph = topology.compiled()
    labels, count = components_indices(graph)
    demand = [0.0] * count
    has_core = [False] * count
    for index, label in enumerate(labels):
        node = topology.node(graph.ids[index])
        if node.role == NodeRole.CUSTOMER:
            demand[label] += node.demand
        has_core[label] = has_core[label] or node.role == NodeRole.CORE
    served = 0.0
    for label in range(count):
        if has_core[label]:
            served += demand[label]
    return served, {graph.ids[i]: has_core[label] for i, label in enumerate(labels)}


class TestAgainstSweepReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_service_matches_fresh_sweep(self, seed):
        """After every apply and revert of a deletion-heavy trace, the
        engine's served demand and per-node service equal a fresh component
        sweep bit for bit, and the score matches a full evaluation."""
        state = IncrementalState(_engine_fixture(seed), CostObjective())
        topology = state.topology

        def check():
            served, per_node = _swept_service(topology)
            assert _bits(state.served_demand) == _bits(served)
            assert all(state.is_served(n) == flag for n, flag in per_node.items())
            state.verify()

        check()
        before = KERNEL_COUNTERS.snapshot()["dynconn_replacement_searches"]
        rng = random.Random(200 + seed)
        applied = deletions = 0
        for _ in range(120):
            move = _engine_moves(topology, rng)
            if move is None:
                continue
            try:
                state.apply(move)
            except TopologyError:
                continue
            applied += 1
            deletions += isinstance(move, (RemoveLink, Rewire))
            check()
            if rng.random() < 0.4:
                state.revert()
                check()
        assert applied > 30 and deletions > 10
        assert KERNEL_COUNTERS.snapshot()["dynconn_replacement_searches"] > before
        state.revert_to(0)
        check()
