"""Tests for the routing façade: one entry point, one options vocabulary.

Covers the API-redesign contract of the routing package: every public
routing symbol is importable from ``repro.routing``, analysis entry points
consume :class:`~repro.routing.engine.FlowResult` uniformly (a bare load
column is rejected), stale results raise
:class:`~repro.topology.graph.TopologyError` instead of silently repricing,
and :class:`~repro.routing.options.RoutingOptions` validation names the bad
field.
"""

import importlib

import pytest

import repro.routing
from repro.economics.cables import default_catalog
from repro.economics.provisioning import provision_topology
from repro.geography.demand import DemandMatrix
from repro.routing.engine import route_demand
from repro.routing.temporal import DemandSeries, failure_cascade, route_series
from repro.routing.options import (
    ROUTING_BACKENDS,
    ROUTING_MODES,
    RoutingOptions,
)
from repro.routing.utilization import load_concentration, utilization_report
from repro.topology.graph import Topology, TopologyError


def small_instance():
    topo = Topology()
    for name, loc in [("a", (0, 0)), ("b", (1, 0)), ("c", (2, 0)), ("d", (1, 1))]:
        topo.add_node(name, location=loc)
    for u, v in [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")]:
        topo.add_link(u, v)
    demand = DemandMatrix(endpoints=["a", "b", "c"])
    demand.set_demand("a", "c", 6.0)
    demand.set_demand("a", "b", 2.0)
    return topo, demand


class TestPublicSurface:
    def test_every_public_routing_symbol_reachable_from_package(self):
        """The façade contract: ``repro.routing`` re-exports the public API."""
        for module_name in ("engine", "temporal", "options"):
            module = importlib.import_module(f"repro.routing.{module_name}")
            for symbol in module.__all__:
                assert hasattr(repro.routing, symbol), (module_name, symbol)
                assert symbol in repro.routing.__all__, (module_name, symbol)

    def test_package_all_is_importable(self):
        for symbol in repro.routing.__all__:
            assert hasattr(repro.routing, symbol), symbol


class TestRoutingOptions:
    def test_bad_field_values_name_the_field(self):
        with pytest.raises(ValueError, match="RoutingOptions.mode"):
            RoutingOptions(mode="all-paths")
        with pytest.raises(ValueError, match="RoutingOptions.backend"):
            RoutingOptions(backend="fortran")
        with pytest.raises(ValueError, match="RoutingOptions.weight"):
            RoutingOptions(weight=3)

    def test_method_field_rejected(self):
        # One flat engine routes every demand: there is no method switch.
        with pytest.raises(TypeError, match="method"):
            RoutingOptions(method="flat")

    @pytest.mark.parametrize(
        "entry_point, wrap",
        [
            (route_demand, lambda demand: demand),
            (route_series, lambda demand: DemandSeries(steps=[demand])),
            (failure_cascade, lambda demand: demand),
        ],
        ids=["route_demand", "route_series", "failure_cascade"],
    )
    def test_entry_points_reject_method_kwarg(self, entry_point, wrap):
        topo, demand = small_instance()
        with pytest.raises(TypeError, match="method"):
            entry_point(topo, wrap(demand), method="flat")

    def test_vocabulary_constants(self):
        assert RoutingOptions().mode in ROUTING_MODES
        assert RoutingOptions().backend in ROUTING_BACKENDS

    def test_options_and_kwargs_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            RoutingOptions.normalize(RoutingOptions(), mode="ecmp")
        with pytest.raises(TypeError, match="RoutingOptions"):
            RoutingOptions.normalize({"mode": "ecmp"})

    def test_normalize_maps_legacy_none_defaults(self):
        opts = RoutingOptions.normalize(None, weight="hops", mode=None)
        assert opts == RoutingOptions(weight="hops")

    def test_with_revalidates(self):
        opts = RoutingOptions()
        assert opts.with_(mode="ecmp").mode == "ecmp"
        with pytest.raises(ValueError, match="RoutingOptions.mode"):
            opts.with_(mode="bogus")

    def test_facade_accepts_options_object(self):
        topo, demand = small_instance()
        via_options = route_demand(
            topo, demand, options=RoutingOptions(weight="hops", backend="python")
        )
        via_kwargs = route_demand(topo, demand, weight="hops", backend="python")
        assert via_options.loads_list() == via_kwargs.loads_list()
        with pytest.raises(ValueError, match="not both"):
            route_demand(
                topo, demand, weight="hops", options=RoutingOptions()
            )


class TestFlowResultConsumers:
    def test_utilization_report_accepts_flow_result(self):
        topo, demand = small_instance()
        flow = route_demand(topo, demand)
        provision_topology(topo, default_catalog(), flow=flow)
        report = utilization_report(topo, flow)
        assert report.total_load == pytest.approx(sum(flow.loads_list()))
        assert not report.overloaded_links

    def test_bare_load_column_rejected(self):
        topo, demand = small_instance()
        column = route_demand(topo, demand).loads_list()
        links_before = [(link.load, link.capacity) for link in topo.links()]
        with pytest.raises(TypeError, match="utilization_report\\(\\) flow"):
            utilization_report(topo, column)
        with pytest.raises(TypeError, match="load_concentration\\(\\) flow"):
            load_concentration(topo, flow=column)
        with pytest.raises(TypeError, match="provision_topology\\(\\) flow"):
            provision_topology(topo, default_catalog(), flow=column)
        assert [(link.load, link.capacity) for link in topo.links()] == links_before

    def test_flow_and_loads_together_rejected(self):
        """No consumer takes a ``loads=`` column any more, alone or with flow."""
        topo, demand = small_instance()
        flow = route_demand(topo, demand)
        column = flow.loads_list()
        with pytest.raises(TypeError, match="loads"):
            utilization_report(topo, flow, loads=column)
        with pytest.raises(TypeError, match="loads"):
            load_concentration(topo, flow=flow, loads=column)
        with pytest.raises(TypeError, match="loads"):
            provision_topology(topo, default_catalog(), loads=column)

    def test_stale_flow_result_rejected(self):
        topo, demand = small_instance()
        flow = route_demand(topo, demand)
        topo.add_link("b", "d")
        with pytest.raises(TopologyError, match="stale"):
            utilization_report(topo, flow)
        with pytest.raises(TopologyError, match="stale"):
            load_concentration(topo, flow=flow)
        with pytest.raises(TopologyError, match="stale"):
            provision_topology(topo, default_catalog(), flow=flow)
