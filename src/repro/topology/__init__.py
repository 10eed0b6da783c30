"""Annotated topology substrate: graphs whose nodes and links carry resources.

Public API:

* :class:`Topology` — the central annotated graph type.
* :class:`Node`, :class:`NodeRole`, :class:`Link` — node/link annotations.
* :class:`TopologyBuilder` — fluent construction helper.
* :class:`DynamicConnectivity` — fully-dynamic connectivity by component
  labels, with exact per-component service aggregates and undoable
  insert/delete (a deletion costs O(smaller side) when it splits).
* :func:`summarize_hierarchy` — WAN/MAN/LAN hierarchy statistics.
* serialization helpers (``topology_to_dict``, ``save_json``, ``to_networkx``, ...).
"""

from .compiled import CompiledGraph, KERNEL_COUNTERS, KernelCounters
from .dynconn import ComponentSummary, DynamicConnectivity
from .graph import Topology, TopologyError, union
from .link import Link, edge_key
from .node import Node, NodeRole, ROLE_RANK
from .builder import TopologyBuilder
from .hierarchy import (
    HierarchySummary,
    assign_levels_by_distance,
    is_downward_tree,
    level_of,
    relabel_roles_from_levels,
    summarize_hierarchy,
)
from .serialization import (
    from_networkx,
    load_json,
    save_edge_list,
    save_json,
    to_edge_list,
    to_networkx,
    topology_from_dict,
    topology_to_dict,
)

__all__ = [
    "CompiledGraph",
    "ComponentSummary",
    "DynamicConnectivity",
    "KernelCounters",
    "KERNEL_COUNTERS",
    "Topology",
    "TopologyError",
    "union",
    "Link",
    "edge_key",
    "Node",
    "NodeRole",
    "ROLE_RANK",
    "TopologyBuilder",
    "HierarchySummary",
    "assign_levels_by_distance",
    "is_downward_tree",
    "level_of",
    "relabel_roles_from_levels",
    "summarize_hierarchy",
    "from_networkx",
    "load_json",
    "save_edge_list",
    "save_json",
    "to_edge_list",
    "to_networkx",
    "topology_from_dict",
    "topology_to_dict",
]
