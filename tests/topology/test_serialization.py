"""Tests for repro.topology.serialization."""

import json

import pytest

from repro.topology.graph import Topology
from repro.topology.node import NodeRole
from repro.topology.serialization import (
    from_networkx,
    load_json,
    save_edge_list,
    save_json,
    to_edge_list,
    to_networkx,
    topology_from_dict,
    topology_to_dict,
)


class TestDictRoundTrip:
    def test_round_trip_preserves_structure(self, triangle_topology):
        triangle_topology.metadata["note"] = "test"
        restored = topology_from_dict(topology_to_dict(triangle_topology))
        assert restored.num_nodes == 3
        assert restored.num_links == 3
        assert restored.metadata["note"] == "test"
        assert restored.node("b").demand == 2.0
        assert restored.node("a").role == NodeRole.CORE

    def test_round_trip_preserves_link_annotations(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b", capacity=155.0, cable="OC-3", install_cost=3.0)
        restored = topology_from_dict(topology_to_dict(topo))
        link = restored.link("a", "b")
        assert link.capacity == 155.0
        assert link.cable == "OC-3"


class TestJson:
    def test_save_and_load(self, tmp_path, star_topology):
        path = tmp_path / "star.json"
        save_json(star_topology, path)
        restored = load_json(path)
        assert restored.num_nodes == star_topology.num_nodes
        assert restored.num_links == star_topology.num_links
        assert restored.node("hub").role == NodeRole.CORE

    def test_nan_link_length_rejected_on_load(self, tmp_path, triangle_topology):
        data = topology_to_dict(triangle_topology)
        data["links"][0]["length"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))  # json writes the bare token NaN
        assert "NaN" in path.read_text()
        with pytest.raises(ValueError, match="link length must be finite"):
            load_json(path)


class TestEdgeList:
    def test_edge_list_lines(self, triangle_topology):
        lines = to_edge_list(triangle_topology)
        assert len(lines) == 3
        assert all(len(line.split()) == 4 for line in lines)

    def test_unbounded_capacity_rendered_as_inf(self, path_topology):
        lines = to_edge_list(path_topology)
        assert all(line.endswith("inf") for line in lines)

    def test_save_edge_list(self, tmp_path, triangle_topology):
        path = tmp_path / "edges.txt"
        save_edge_list(triangle_topology, path)
        assert len(path.read_text().strip().splitlines()) == 3


class TestNetworkx:
    def test_to_networkx(self, triangle_topology):
        pytest.importorskip("networkx")
        graph = to_networkx(triangle_topology)
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 3
        assert graph.nodes["a"]["role"] == "core"

    def test_round_trip_via_networkx(self, triangle_topology):
        pytest.importorskip("networkx")
        graph = to_networkx(triangle_topology)
        restored = from_networkx(graph)
        assert restored.num_nodes == 3
        assert restored.num_links == 3
        assert restored.node("a").role == NodeRole.CORE
        assert restored.node("c").demand == 3.0

    def test_from_networkx_skips_self_loops(self):
        nx = pytest.importorskip("networkx")
        graph = nx.Graph()
        graph.add_edge("a", "a")
        graph.add_edge("a", "b")
        restored = from_networkx(graph)
        assert restored.num_links == 1
