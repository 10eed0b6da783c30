"""Span tracing of the library's layers, installed from outside the library.

Each traced entry point is rebound to a wrapper that records one span
``(name, start, end, parent)`` per call in flat arrays; the parent is the
span open on the same thread when the call began.  Module-level functions
are rebound under every name a ``repro`` module imported them by (so
``repro.core.access_design.k_median`` is traced, not only the defining
module's name); methods are rebound on their class.  Everything is restored
when the :class:`Tracer` context exits, so untraced iterations run the
library exactly as shipped.

A layer's *self time* is the summed duration of its spans minus the part of
each span covered by child spans, so the self times of all layers plus the
unattributed remainder add up to the traced wall-clock.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np


def layer_entry_points() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every traced entry point.

    Imported lazily: the library is importable only once ``run.py`` has put
    the checkout's ``src`` directory on the path.
    """
    from repro.core import buyatbulk, fkp, meyerson
    from repro.economics import provisioning
    from repro.geography import demand, spatial_index
    from repro.optimization import facility_location, incremental
    from repro.routing import engine, temporal
    from repro.topology import compiled, dynconn

    dc = dynconn.DynamicConnectivity
    state = incremental.IncrementalState
    return [
        (fkp.FKPModel, "generate", "core.fkp.generate"),
        (spatial_index.SpatialGridIndex, "argmin", "geography.spatial_index.argmin"),
        (facility_location, "k_median", "optimization.facility_location.k_median"),
        (meyerson, "solve_meyerson", "core.meyerson.solve"),
        (buyatbulk, "provision_solution", "core.buyatbulk.provision"),
        (compiled.CompiledGraph, "__init__", "topology.compiled.compile"),
        (demand, "gravity_demand", "geography.demand.build"),
        (demand.DemandMatrix, "compile", "geography.demand.build"),
        (engine, "route_demand", "routing.engine.route"),
        (temporal, "failure_cascade", "routing.temporal.cascade"),
        *(
            (dc, method, "topology.dynconn")
            for method in (
                "build",
                "insert",
                "delete",
                "undo",
                "connected",
                "summary",
                "has_core_component",
                "component_size",
                "components",
                "add_vertex",
                "remove_vertex",
            )
        ),
        (state, "rebuild", "optimization.incremental.rebuild"),
        (state, "apply", "optimization.incremental.apply"),
        (state, "revert", "optimization.incremental.revert"),
        (provisioning, "provision_topology", "economics.provisioning.provision"),
    ]


class Tracer:
    """Records spans for the entry points while used as a context manager."""

    def __init__(self, entry_points: Sequence[Tuple[object, str, str]]) -> None:
        self.entry_points = list(entry_points)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._restore: List[Tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span (the wrappers keep working)."""
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Read the arrays through the tracer so clear() takes effect.
            starts, ends, stack = tracer.start, tracer.end, tracer._stack
            index = len(starts)
            tracer.span_name.append(name_id)
            tracer.parent.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            module
            for key, module in sys.modules.items()
            if module is not None and (key == "repro" or key.startswith("repro."))
        ]
        for owner, attribute, name in self.entry_points:
            original = getattr(owner, attribute)
            wrapped = self._wrap(original, name)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for m in modules if getattr(m, attribute, None) is original]
            for holder in holders:
                self._restore.append((holder, attribute, original))
                setattr(holder, attribute, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            holder, attribute, original = self._restore.pop()
            setattr(holder, attribute, original)

    def summary(self, wall_s: float, keep_durations: Sequence[str] = ()) -> Dict[str, object]:
        """Per-name self time, inclusive time and call count.

        The individual span durations are returned for the names in
        ``keep_durations`` (for latency percentiles).

        ``wall_s`` is the traced section's wall-clock; what the root spans do
        not cover of it is returned as ``unattributed_s``.
        """
        names = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.intp)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        self_time = duration - covered
        width = len(self.names)
        self_s = np.bincount(names, weights=self_time, minlength=width)
        total_s = np.bincount(names, weights=duration, minlength=width)
        calls = np.bincount(names, minlength=width)
        return {
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "total_s": {n: float(total_s[i]) for i, n in enumerate(self.names)},
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "durations": {
                n: duration[names == self._name_ids[n]]
                for n in keep_durations
                if n in self._name_ids
            },
            "unattributed_s": float(wall_s - duration[~nested].sum()),
        }
