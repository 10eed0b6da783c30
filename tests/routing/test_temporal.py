"""Tests for repro.routing.temporal — series routing, diffs, and cascades."""

import random
from array import array

import pytest

from repro.economics.cables import default_catalog
from repro.economics.provisioning import provision_topology
from repro.geography.demand import DemandMatrix
from repro.routing.engine import compile_demand, route_demand
from repro.routing.options import RoutingOptions
from repro.routing.temporal import (
    DemandSeries,
    compile_series,
    diurnal_series,
    failure_cascade,
    flash_crowd,
    route_series,
)
from repro.topology.compiled import KERNEL_COUNTERS, have_numpy_backend
from repro.topology.graph import Topology, TopologyError

# Fixed point of the pinned 24-node cascade below (backend="python"; loads
# are bit-identical across backends on tie-free weights + integral volumes,
# so this hash is backend-independent — see the module docstring).
PINNED_CASCADE_HASH = "ff0604d4259ad7b5e538b46cd6a91365cf22589fe68226a05e68a70d4e357c87"
PINNED_CASCADE_ROUNDS = 6
PINNED_CASCADE_TRIPS = 16


def random_instance(num_nodes, num_pairs, seed):
    """Random tree + chords with Euclidean lengths and integral volumes.

    Tie-free weights with integral volumes make routed load columns exact in
    any accumulation order — the precondition for every bit-identity gate.
    """
    rng = random.Random(seed)
    topo = Topology(name=f"temporal-test-{num_nodes}-{seed}")
    for i in range(num_nodes):
        topo.add_node(i, location=(rng.random(), rng.random()))
    for i in range(1, num_nodes):
        topo.add_link(i, rng.randrange(i))
    added = 0
    while added < num_nodes // 2:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v and not topo.has_link(u, v):
            topo.add_link(u, v)
            added += 1
    endpoints = [str(i) for i in range(num_nodes)]
    chosen = set()
    while len(chosen) < num_pairs:
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    sources, targets, volumes = [], [], []
    for u, v in sorted(chosen):
        sources.append(u)
        targets.append(v)
        volumes.append(float(rng.randint(1, 9)))
    demand = DemandMatrix.from_arrays(endpoints, sources, targets, volumes)
    endpoint_map = {str(i): i for i in range(num_nodes)}
    return topo, demand, endpoint_map


def base_matrix():
    demand = DemandMatrix(endpoints=["a", "b", "c"])
    demand.set_demand("a", "b", 4.0)
    demand.set_demand("b", "c", 2.0)
    return demand


class TestDemandSeries:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="at least one step"):
            DemandSeries(steps=[])

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            DemandSeries(steps=[base_matrix()], labels=["t0", "t1"])

    def test_default_labels_and_sequence_protocol(self):
        series = DemandSeries(steps=[base_matrix(), base_matrix()])
        assert series.labels == ["t00", "t01"]
        assert len(series) == 2
        assert list(series)[1] is series[1]


class TestGenerators:
    def test_diurnal_validation(self):
        with pytest.raises(ValueError, match="num_steps"):
            diurnal_series(base_matrix(), num_steps=0)
        with pytest.raises(ValueError, match="amplitude"):
            diurnal_series(base_matrix(), amplitude=1.0)

    def test_diurnal_cycle_conserves_mean_volume(self):
        base = base_matrix()
        series = diurnal_series(base, num_steps=8, amplitude=0.5)
        # The sinusoid sums to zero over one full cycle.
        total = sum(step.demand("a", "b") for step in series.steps)
        assert total == pytest.approx(8 * 4.0)
        for step in series.steps:
            assert 2.0 <= step.demand("a", "b") <= 6.0

    def test_flash_crowd_deterministic_and_sparse(self):
        base = base_matrix()
        first = flash_crowd(base, num_steps=6, num_hotspots=1, duration=2, seed=3)
        second = flash_crowd(base, num_steps=6, num_hotspots=1, duration=2, seed=3)
        for s1, s2 in zip(first.steps, second.steps):
            assert s1.demand("a", "b") == s2.demand("a", "b")
            assert s1.demand("b", "c") == s2.demand("b", "c")
        # Quiet steps reuse the base matrix *object* (diffs to zero for free).
        assert any(step is base for step in first.steps)
        # Some step actually spikes.
        assert any(
            step.demand("a", "b") > 4.0 or step.demand("b", "c") > 2.0
            for step in first.steps
        )


class TestRouteSeries:
    def test_diurnal_steps_match_from_scratch_route_demand(self):
        topo, demand, emap = random_instance(30, 25, 5)
        series = diurnal_series(demand, num_steps=6, amplitude=0.4)
        result = route_series(topo, series, endpoint_map=emap, backend="python")
        assert result.num_steps == 6
        for step, matrix in zip(result.steps, series.steps):
            flat = route_demand(topo, matrix, endpoint_map=emap, backend="python")
            diff = max(
                abs(a - b) for a, b in zip(step.loads_list(), flat.loads_list())
            )
            assert diff <= 1e-9
            assert step.served_fraction == 1.0

    def test_flash_diff_bit_identical_to_full_reroute(self):
        topo, demand, emap = random_instance(40, 30, 7)
        series = flash_crowd(demand, num_steps=8, num_hotspots=2, seed=9)
        compiled = compile_series(topo, series, emap)
        KERNEL_COUNTERS.reset()
        diffed = route_series(compiled, backend="python", reuse=True)
        resolved_diff = KERNEL_COUNTERS.snapshot()["temporal_resolved_sources"]
        KERNEL_COUNTERS.reset()
        full = route_series(compiled, backend="python", reuse=False)
        resolved_full = KERNEL_COUNTERS.snapshot()["temporal_resolved_sources"]
        assert diffed.step_hashes() == full.step_hashes()
        assert resolved_diff < resolved_full
        assert resolved_full == len(series) * compiled.unique_sources
        assert resolved_diff == diffed.resolved_sources_total

    def test_quiet_step_resolves_nothing(self):
        topo, demand, emap = random_instance(20, 15, 2)
        # Two identical steps: the second must re-resolve zero sources.
        series = DemandSeries(steps=[demand, demand])
        result = route_series(topo, series, endpoint_map=emap, backend="python")
        assert result.steps[0].resolved_sources > 0
        assert result.steps[1].resolved_sources == 0
        assert result.steps[0].load_hash() == result.steps[1].load_hash()

    def test_ecmp_diff_matches_full(self):
        topo, demand, emap = random_instance(25, 20, 13)
        series = flash_crowd(demand, num_steps=5, seed=4)
        # Hop weights create equal-cost ties; the retained ECMP column must
        # still make the diff path exact.
        options = RoutingOptions(weight="hops", mode="ecmp", backend="python")
        diffed = route_series(topo, series, endpoint_map=emap, options=options)
        full = route_series(
            topo, series, endpoint_map=emap, options=options, reuse=False
        )
        assert diffed.step_hashes() == full.step_hashes()

    @pytest.mark.skipif(not have_numpy_backend(), reason="scipy not available")
    def test_backend_parity_bit_identical(self):
        topo, demand, emap = random_instance(35, 30, 17)
        series = flash_crowd(demand, num_steps=6, seed=8)
        compiled = compile_series(topo, series, emap)
        python = route_series(compiled, backend="python")
        numpy = route_series(compiled, backend="numpy")
        assert python.step_hashes() == numpy.step_hashes()

    def test_stale_compiled_series_rejected(self):
        topo, demand, emap = random_instance(12, 8, 1)
        series = DemandSeries(steps=[demand])
        compiled = compile_series(topo, series, emap)
        topo.add_node("extra", location=(2.0, 2.0))
        topo.add_link(0, "extra")
        with pytest.raises(TopologyError, match="stale CompiledSeries"):
            route_series(topo, compiled)

    def test_stale_step_result_rejected(self):
        topo, demand, emap = random_instance(12, 8, 1)
        result = route_series(
            topo, DemandSeries(steps=[demand]), endpoint_map=emap
        )
        step = result.steps[0]
        assert step.loads_for(topo) is not None
        topo.remove_link(*next(iter(topo.link_keys())))
        with pytest.raises(TopologyError, match="stale step result"):
            step.loads_for(topo)

    def test_unreachable_demand_is_shed(self):
        topo, demand, emap = random_instance(10, 6, 3)
        topo.add_node("island", location=(5.0, 5.0))
        stranded = DemandMatrix(endpoints=["0", "island"])
        stranded.set_demand("0", "island", 5.0)
        emap = dict(emap, island="island")
        result = route_series(
            topo, DemandSeries(steps=[stranded]), endpoint_map=emap
        )
        step = result.steps[0]
        assert step.served_fraction == 0.0
        assert step.unrouted_volume == 5.0
        assert step.unrouted


class TestFailureCascade:
    def cascade_instance(self, num_nodes=24, num_pairs=40, seed=11, surge=3.0):
        topo, demand, emap = random_instance(num_nodes, num_pairs, seed)
        base = route_demand(topo, demand, endpoint_map=emap, backend="python")
        provision_topology(topo, default_catalog(), flow=base)
        return topo, demand.scaled(surge), emap

    def test_pinned_regression(self):
        topo, surge, emap = self.cascade_instance()
        cascade = failure_cascade(
            topo, surge, endpoint_map=emap, backend="python"
        )
        assert cascade.fixed_point
        assert cascade.num_rounds == PINNED_CASCADE_ROUNDS
        assert cascade.total_trips == PINNED_CASCADE_TRIPS
        assert cascade.step_hashes()[-1] == PINNED_CASCADE_HASH

    @pytest.mark.parametrize("mode", ["single", "ecmp"])
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_round_zero_equals_flat_routing(self, backend, mode):
        """Round 0 routes the intact topology through the same per-source
        kernel as flat route_demand, so on a tie-free integral instance its
        load column is the flat one bit for bit."""
        if backend == "numpy" and not have_numpy_backend():
            pytest.skip("scipy not available")
        topo, surge, emap = self.cascade_instance()
        # One pair to an isolated node, so both sides report unrouted demand.
        topo.add_node("island", location=(2.0, 2.0))
        demand = DemandMatrix(endpoints=list(surge.endpoints) + ["island"])
        for a, b, volume in surge.pairs():
            demand.set_demand(a, b, volume)
        demand.set_demand("0", "island", 5.0)
        emap["island"] = "island"
        compiled = compile_demand(topo, demand, emap)
        flat = route_demand(compiled, mode=mode, backend=backend)
        cascade = failure_cascade(topo, compiled, mode=mode, backend=backend)
        assert cascade.total_trips > 0
        first = cascade.rounds[0].flow
        assert first.graph is flat.graph
        assert (
            array("d", first.edge_loads).tobytes()
            == array("d", flat.edge_loads).tobytes()
        )
        assert first.routed_volume == flat.routed_volume
        assert first.routed_pairs == flat.routed_pairs == compiled.num_pairs - 1
        assert len(first.unrouted) == len(flat.unrouted) == 1

    def test_repeat_and_restore_determinism(self):
        topo, surge, emap = self.cascade_instance()
        keys_before = list(topo.link_keys())
        first = failure_cascade(topo, surge, endpoint_map=emap, backend="python")
        # restore=True rewinds the topology — including dict iteration order,
        # so the next compile sees the identical edge ordering.
        assert list(topo.link_keys()) == keys_before
        second = failure_cascade(topo, surge, endpoint_map=emap, backend="python")
        assert first.step_hashes() == second.step_hashes()
        assert first.tripped_keys == second.tripped_keys

    @pytest.mark.skipif(not have_numpy_backend(), reason="scipy not available")
    @pytest.mark.parametrize("seed", [21, 22, 23, 24, 25])
    def test_fixed_points_identical_across_backends(self, seed):
        """Randomized property: the cascade fixed point is backend-invariant."""
        topo, surge, emap = self.cascade_instance(
            num_nodes=20 + seed % 7, num_pairs=30, seed=seed
        )
        python = failure_cascade(topo, surge, endpoint_map=emap, backend="python")
        numpy = failure_cascade(topo, surge, endpoint_map=emap, backend="numpy")
        assert python.step_hashes() == numpy.step_hashes()
        assert python.tripped_keys == numpy.tripped_keys
        assert python.served_fraction == numpy.served_fraction
        assert python.fixed_point and numpy.fixed_point

    def test_generous_headroom_never_trips(self):
        topo, surge, emap = self.cascade_instance(surge=3.0)
        # capacity >= base load, so headroom >= surge - 1 is trip-free.
        cascade = failure_cascade(
            topo, surge, endpoint_map=emap, backend="python", headroom=2.0
        )
        assert cascade.total_trips == 0
        assert cascade.num_rounds == 1
        assert cascade.served_fraction == 1.0

    def test_max_rounds_cuts_cascade_short(self):
        topo, surge, emap = self.cascade_instance()
        cascade = failure_cascade(
            topo, surge, endpoint_map=emap, backend="python", max_rounds=1
        )
        assert not cascade.fixed_point
        assert cascade.num_rounds == 1
        assert len(cascade.rounds[0].tripped) > 0

    def test_restore_is_exact_and_maintains_no_connectivity(self):
        """The cascade removes and re-inserts links directly: no dynamic
        connectivity or objective runs, and restore=True puts back the
        original Link objects in their original dict orders — also when
        max_rounds stops the cascade with trips still pending."""
        topo, surge, emap = self.cascade_instance()
        edge_keys = list(topo.compiled().edge_keys)
        adjacency = {u: topo.neighbors(u) for u in topo.node_ids()}
        links = {link.key: link for link in topo.links()}
        for max_rounds in (None, 3):
            before = KERNEL_COUNTERS.snapshot()
            cascade = failure_cascade(
                topo, surge, endpoint_map=emap, backend="python", max_rounds=max_rounds
            )
            after = KERNEL_COUNTERS.snapshot()
            assert after["dynconn_tree_ops"] == before["dynconn_tree_ops"]
            assert after["objective_full_evals"] == before["objective_full_evals"]
            assert cascade.total_trips > 0
            assert list(topo.compiled().edge_keys) == edge_keys
            assert {u: topo.neighbors(u) for u in topo.node_ids()} == adjacency
            assert all(topo.link(*key) is link for key, link in links.items())
            if max_rounds is None:
                assert cascade.step_hashes()[-1] == PINNED_CASCADE_HASH
            else:
                assert not cascade.fixed_point

    def test_no_restore_leaves_tripped_links_removed(self):
        topo, surge, emap = self.cascade_instance()
        keys_before = set(topo.link_keys())
        cascade = failure_cascade(
            topo, surge, endpoint_map=emap, backend="python", restore=False
        )
        assert cascade.total_trips > 0
        assert set(topo.link_keys()) == keys_before - set(cascade.tripped_keys)
        assert topo.num_links == len(keys_before) - cascade.total_trips

    def test_cascade_trip_counter(self):
        topo, surge, emap = self.cascade_instance()
        KERNEL_COUNTERS.reset()
        cascade = failure_cascade(topo, surge, endpoint_map=emap, backend="python")
        assert KERNEL_COUNTERS.snapshot()["cascade_trips"] == cascade.total_trips

    def test_validation_errors(self):
        topo, surge, emap = self.cascade_instance(num_nodes=12, num_pairs=8)
        with pytest.raises(ValueError, match="headroom"):
            failure_cascade(topo, surge, endpoint_map=emap, headroom=-0.1)
        with pytest.raises(ValueError, match="max_rounds"):
            failure_cascade(topo, surge, endpoint_map=emap, max_rounds=0)
        with pytest.raises(TypeError, match="Topology first"):
            failure_cascade(surge, surge)


class TestSuiteDeterminism:
    def test_e13_smoke_serial_parallel_identical(self, tmp_path):
        from repro.experiments.runner import run_experiment

        serial = run_experiment(
            "E13", smoke=True, jobs=1, results_dir=tmp_path / "serial"
        )
        parallel = run_experiment(
            "E13", smoke=True, jobs=2, results_dir=tmp_path / "parallel"
        )
        assert serial.gates_checked and parallel.gates_checked
        assert [r.payload for r in serial.records] == [
            r.payload for r in parallel.records
        ]
        # Per-round SHA-256 fingerprints of every cascade fixed point agree.
        serial_hashes = [row["final_hash"] for row in serial.tables["cascade"]]
        parallel_hashes = [row["final_hash"] for row in parallel.tables["cascade"]]
        assert serial_hashes == parallel_hashes


def grid_instance(seed, backend, side=12, num_pairs=60, surge=6.0):
    """Unit-length ``side`` x ``side`` lattice: every shortest path has ties.

    Capacities are provisioned for the base single-path routing on
    ``backend``; the surge then trips links over several rounds.
    """
    rng = random.Random(seed)
    topo = Topology(name=f"grid-{side}-{seed}")
    for i in range(side):
        for j in range(side):
            topo.add_node(i * side + j, location=(float(i), float(j)))
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                topo.add_link(i * side + j, (i + 1) * side + j)
            if j + 1 < side:
                topo.add_link(i * side + j, i * side + j + 1)
    n = side * side
    chosen = set()
    while len(chosen) < num_pairs:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen.add((u, v))
    chosen = sorted(chosen)
    demand = DemandMatrix.from_arrays(
        [str(i) for i in range(n)],
        [u for u, _ in chosen],
        [v for _, v in chosen],
        [float(rng.randint(1, 9)) for _ in chosen],
    )
    emap = {str(i): i for i in range(n)}
    base = route_demand(topo, demand, endpoint_map=emap, mode="single", backend=backend)
    provision_topology(topo, default_catalog(), flow=base)
    return topo, demand.scaled(surge), emap


class TestCascadeTies:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_rounds_match_fresh_routing_on_tied_grids(self, backend):
        """On tie-heavy lattices, each single-path round's loads equal a
        from-scratch route_demand on the topology minus the earlier rounds'
        tripped links, bit for bit: keeping the columns of sources that
        carried no flow on a tripped link changes no tie-break."""
        if backend == "numpy" and not have_numpy_backend():
            pytest.skip("scipy not available")
        for seed in range(6):
            topo, surge, emap = grid_instance(seed, backend)
            cascade = failure_cascade(
                topo, surge, endpoint_map=emap, mode="single", backend=backend
            )
            assert cascade.fixed_point and cascade.num_rounds >= 3
            gone = []
            for cascade_round in cascade.rounds:
                degraded = topo.copy()
                for key in gone:
                    degraded.remove_link(*key)
                fresh = route_demand(
                    degraded, surge, endpoint_map=emap, mode="single", backend=backend
                )
                flow = cascade_round.flow
                assert fresh.graph.edge_keys == flow.graph.edge_keys
                assert (
                    array("d", fresh.edge_loads).tobytes()
                    == array("d", flow.edge_loads).tobytes()
                )
                gone.extend(cascade_round.tripped)
