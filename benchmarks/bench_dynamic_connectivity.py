"""Dynamic-connectivity move engine vs a per-move component sweep.

The HDT structure (``repro.topology.dynconn``) claims O(log² n) per edge
deletion, where the simplest adequate alternative recomputes reachability
with one O(V+E) component sweep after every structural change.  One
pre-generated deletion-heavy move trace (n=2000 full, n=400 smoke; ≥50%
``RemoveLink``/``Rewire``, integral demands, ``CostObjective``) is replayed
two ways:

* through :class:`~repro.optimization.incremental.IncrementalState`, which
  keeps served demand on the dynamic-connectivity forest;
* on a plain :class:`~repro.topology.graph.Topology`, recomputing served
  demand with one ``components_indices`` sweep after every move and every
  revert (the reference).

Gates: the served-demand trajectory is **bit-identical** between the two
(integral demands make every sum exact), the final edge sets agree, the
incremental score matches a full evaluation, and the engine is >=10x faster
(>=2x smoke) than the reference.

Writes ``BENCH_dynconn.json`` and a text table under ``benchmarks/results/``.
The benchmark behaves identically under both ``REPRO_BACKEND`` settings:
the sweep's component labels are canonical on either backend.
"""

from __future__ import annotations

import random
import struct
import sys

from repro.core.objectives import CostObjective
from repro.experiments.reporting import emit_rows, timed, write_bench_json
from repro.optimization.incremental import (
    AddLink,
    IncrementalState,
    RemoveLink,
    Rewire,
)
from repro.topology.compiled import KERNEL_COUNTERS, components_indices
from repro.topology.graph import Topology
from repro.topology.node import NodeRole

NUM_NODES = 2000
SMOKE_NUM_NODES = 400
NUM_MOVES = 600
SMOKE_NUM_MOVES = 200
SEED = 59
SPEEDUP_FLOOR = 10.0
SMOKE_SPEEDUP_FLOOR = 2.0


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def build_anneal_instance(size: int, seed: int) -> Topology:
    """An access tree plus chords with *integral* customer demands.

    Integral demands are exact in float and their component sums stay under
    2^53, so the dynconn engine's correctly-rounded fixed-point sums
    coincide bitwise with the sweep's accumulated floats — which is what
    lets the trajectory gate demand bit-identity, not tolerance.
    """
    rng = random.Random(seed)
    topology = Topology(name=f"dynconn-anneal-{size}")
    topology.add_node("core0", role=NodeRole.CORE, location=(0.5, 0.5))
    for i in range(size - 1):
        topology.add_node(
            f"c{i}",
            role=NodeRole.CUSTOMER,
            location=(rng.random(), rng.random()),
            demand=float(rng.randint(1, 9)),
        )
        target = "core0" if i == 0 else f"c{rng.randrange(i)}"
        topology.add_link(f"c{i}", target, install_cost=2.0, usage_cost=0.1)
    ids = [node.node_id for node in topology.nodes()]
    added = 0
    while added < size // 4:
        u, v = rng.sample(ids, 2)
        if not topology.has_link(u, v):
            topology.add_link(u, v, install_cost=2.0, usage_cost=0.1)
            added += 1
    return topology


def apply_link_ops(topology: Topology, link_ops) -> None:
    for op, a, b in link_ops:
        (topology.add_link if op == "add" else topology.remove_link)(a, b)


def generate_trace(size: int, seed: int, num_moves: int):
    """A deletion-heavy apply/revert trace, valid from the seed instance.

    Generated against a throwaway mirror of the instance (link presence is
    all that move validity depends on), so both legs replay the exact same
    sequence.  Mix: 50% RemoveLink, ~15% Rewire, rest AddLink, with a 20%
    revert after each applied move — well past the >=50% deletion-bearing
    floor once Rewire and reverts of AddLink are counted.  Every entry is
    ``(op, move, link_ops)``: ``link_ops`` are the plain link additions and
    removals the entry performs, which the reference leg replays.
    """
    mirror = build_anneal_instance(size, seed)
    rng = random.Random(seed + 1)
    ids = [node.node_id for node in mirror.nodes()]
    trace = []
    undo = []  # inverse link ops so the mirror can follow reverts
    applied = deletions = 0
    while applied < num_moves:
        roll = rng.random()
        if roll < 0.50:
            link = rng.choice(list(mirror.links()))
            move = RemoveLink(link.source, link.target)
            forward = (("remove", link.source, link.target),)
            undo.append((("add", link.source, link.target),))
            deletions += 1
        elif roll < 0.65:
            leaves = [n for n in ids if mirror.degree(n) == 1]
            if not leaves:
                continue
            node = rng.choice(leaves)
            old = mirror.neighbors(node)[0]
            new = rng.choice([x for x in ids if x not in (node, old)])
            if mirror.has_link(node, new):
                continue
            move = Rewire(node, old, new)
            forward = (("remove", node, old), ("add", node, new))
            undo.append((("remove", node, new), ("add", node, old)))
            deletions += 1
        else:
            u, v = rng.sample(ids, 2)
            if mirror.has_link(u, v):
                continue
            move = AddLink(u, v, install_cost=2.0, usage_cost=0.05)
            forward = (("add", u, v),)
            undo.append((("remove", u, v),))
        apply_link_ops(mirror, forward)
        trace.append(("apply", move, forward))
        applied += 1
        if rng.random() < 0.20:
            inverse = undo.pop()
            apply_link_ops(mirror, inverse)
            trace.append(("revert", None, inverse))
    return trace, deletions


def replay(state: IncrementalState, trace) -> list:
    """Replay through the move engine; served demand after every entry."""
    served = []
    for op, move, _ in trace:
        if op == "apply":
            state.apply(move)
        else:
            state.revert()
        served.append(state.served_demand)
    return served


def swept_served_demand(topology: Topology) -> float:
    """Served demand from one fresh ``components_indices`` sweep."""
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
    return served


def reference_replay(topology: Topology, trace) -> list:
    """Replay the trace's link ops on a plain topology; one sweep per entry."""
    served = []
    for _, _, link_ops in trace:
        apply_link_ops(topology, link_ops)
        served.append(swept_served_demand(topology))
    return served


def time_engines(size: int, num_moves: int, seed: int):
    """Replay one trace through both legs; time, compare, and count."""
    trace, deletions = generate_trace(size, seed, num_moves)

    state = IncrementalState(build_anneal_instance(size, seed), CostObjective())
    before = KERNEL_COUNTERS.snapshot()
    t_dyn, dyn_served = timed(lambda: replay(state, trace))
    after = KERNEL_COUNTERS.snapshot()
    reference = build_anneal_instance(size, seed)
    t_sweep, swept = timed(lambda: reference_replay(reference, trace))

    # Bit-identical served-demand trajectories and the same final edge set.
    assert [_bits(d) for d in dyn_served] == [_bits(d) for d in swept]
    assert set(state.topology.link_keys()) == set(reference.link_keys())
    state.verify()
    return {
        "size": size,
        "moves": num_moves,
        "trace_entries": len(trace),
        "deletion_moves": deletions,
        "dynconn_seconds": t_dyn,
        "sweep_seconds": t_sweep,
        "speedup": t_sweep / t_dyn,
        "dynconn_tree_ops": after["dynconn_tree_ops"] - before["dynconn_tree_ops"],
        "replacement_searches": after["dynconn_replacement_searches"]
        - before["dynconn_replacement_searches"],
        "served_trajectory_bit_identical": True,
    }


def run_benchmark(smoke: bool = False):
    size = SMOKE_NUM_NODES if smoke else NUM_NODES
    moves = SMOKE_NUM_MOVES if smoke else NUM_MOVES
    anneal = time_engines(size, moves, SEED)
    results = {"mode": "smoke" if smoke else "full", "anneal": anneal}
    rows = [
        {
            "workload": f"deletion-heavy moves (n={anneal['size']})",
            "dynconn_s": round(anneal["dynconn_seconds"], 3),
            "sweep_s": round(anneal["sweep_seconds"], 3),
            "speedup": round(anneal["speedup"], 1),
        },
    ]
    return results, rows


def check_acceptance(results, smoke: bool = False):
    floor = SMOKE_SPEEDUP_FLOOR if smoke else SPEEDUP_FLOOR
    anneal = results["anneal"]
    assert anneal["speedup"] >= floor, (
        f"dynconn engine speedup {anneal['speedup']:.1f}x under the {floor}x floor"
    )
    assert anneal["served_trajectory_bit_identical"]
    assert anneal["replacement_searches"] > 0
    assert 2 * anneal["deletion_moves"] >= anneal["moves"], anneal


def main(smoke: bool = False):
    results, rows = run_benchmark(smoke=smoke)
    check_acceptance(results, smoke=smoke)
    path = write_bench_json("dynconn", results)
    emit_rows(
        "dynconn",
        "dynamic-connectivity engine vs a component sweep per move",
        rows,
        slug="dynamic_connectivity",
    )
    print(f"\nwrote {path}")


def test_dynamic_connectivity_engine():
    """Bit-identity and relaxed speedup gates at the CI size."""
    main(smoke=True)


if __name__ == "__main__":
    main(smoke="--smoke" in sys.argv[1:])
