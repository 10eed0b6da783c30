"""Benchmark of the design pipeline: one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fkp_pipeline --seed 1 --seconds 25 --trace 0

Each run builds its inputs, warms up on the instance generated from
``--seed`` and checks that output's invariants, then repeats the workload's
fixed reference instance for ``--seconds`` seconds and reports the median
iteration as ``run_s``.  The reference instance is the same for every seed,
so the spread between runs measures the program and the machine, not the
luck of the draw (single instances of these workloads differ in cost by
10-40% from seed to seed); its outputs are compared bit for bit with
``pins.json`` on every iteration.  The inputs are rebuilt before every
iteration and the median build is ``setup_s``.  All times are scaled to a
nominal machine speed (see ``speed.py``); ``peak_rss_mb`` is the process's
peak resident memory.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations of the reference instance and prints the
per-layer metrics: each layer's self time from spans recorded around its
public entry points (see ``tracing.py``), exact work counts from
``KERNEL_COUNTERS`` deltas, the unattributed remainder and the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"

#: Seed of each workload's reference instance, the one every run times.
REFERENCE_SEED = 2003

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics and their units.  Every ``_s`` time is the layer's self
#: time except ``routing.temporal.cascade_s``, which includes its children.
PER_LAYER_UNITS = {
    "core.fkp.generate_s": "s",
    "geography.spatial_index.argmin_s": "s",
    "geography.spatial_index.argmin_calls": "count",
    "geography.spatial_index.candidates_per_query": "ratio",
    "optimization.facility_location.k_median_s": "s",
    "optimization.facility_location.k_median_calls": "count",
    "core.meyerson.solve_s": "s",
    "core.buyatbulk.provision_s": "s",
    "topology.compiled.compile_s": "s",
    "topology.compiled.compilations": "count",
    "topology.compiled.batch_dijkstra_calls": "count",
    "geography.demand.build_s": "s",
    "routing.engine.route_s": "s",
    "routing.engine.batched_sources": "count",
    "routing.engine.assigned_pairs": "count",
    "routing.temporal.cascade_s": "s",
    "routing.temporal.self_s": "s",
    "routing.temporal.steps": "count",
    "routing.temporal.resolved_sources": "count",
    "routing.temporal.trips": "count",
    "topology.dynconn.s": "s",
    "topology.dynconn.calls": "count",
    "topology.dynconn.tree_ops": "count",
    "topology.dynconn.replacement_searches": "count",
    "optimization.incremental.rebuild_s": "s",
    "optimization.incremental.apply_s": "s",
    "optimization.incremental.revert_s": "s",
    "optimization.incremental.apply_p50_us": "us",
    "optimization.incremental.apply_p99_us": "us",
    "optimization.incremental.revert_p50_us": "us",
    "optimization.incremental.revert_p99_us": "us",
    "optimization.incremental.delta_evals": "count",
    "optimization.incremental.reachability_rebuilds": "count",
    "economics.provisioning.provision_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

_APPLY = "optimization.incremental.apply"
_REVERT = "optimization.incremental.revert"


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` on the path, or exit if it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp() -> Dict[str, Any]:
    """Backend, versions, CPUs and commit; exits unless the backend is numpy."""
    import scipy

    from repro.topology.compiled import resolve_backend

    backend = resolve_backend(None)
    if backend != "numpy":
        sys.exit(
            f"perfbench: the library resolved backend {backend!r} "
            f"(REPRO_BACKEND={os.environ.get('REPRO_BACKEND', 'auto')!r}) although "
            f"scipy {scipy.__version__} is installed; the benchmark times the numpy backend"
        )
    return {
        "backend": backend,
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND", "auto"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


class CheckLog:
    """Counts output checks: pinned digests and invariants."""

    def __init__(self, pins: Dict[str, str]) -> None:
        self.pins = pins
        self.attempted = 0
        self.failed = 0

    def _record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {label}", file=sys.stderr)

    def verify(self, workload, inputs, output, pinned: bool) -> None:
        digests, invariants = workload.check(inputs, output)
        for name, ok in invariants.items():
            self._record(name, ok)
        if pinned:
            for name, value in digests.items():
                expected = self.pins.get(name)
                self._record(f"{name} = {value}, pinned {expected}", value == expected)


class BenchmarkRun:
    """One run: the workload, its inputs, the checks and the speed probe.

    Set-up (building the reference instance and the seed's own instance) is
    repeated in every gap between timed iterations, so its samples span the
    run just as the iterations and the speed probes do.
    """

    def __init__(self, workload, size: Dict[str, int], seed: int, pins: Dict[str, str]):
        self.workload = workload
        self.size = size
        self.seed = seed
        self.checks = CheckLog(pins)
        self.probe = SpeedProbe()
        self.setup_times: List[float] = []
        self.reference, self.own = self.set_up()

    def set_up(self) -> Tuple[Any, Any]:
        start = time.perf_counter()
        inputs = (
            self.workload.build(REFERENCE_SEED, self.size),
            self.workload.build(self.seed, self.size),
        )
        self.setup_times.append(time.perf_counter() - start)
        return inputs

    def iterate(self, inputs=None, pinned: bool = True) -> float:
        """One checked iteration (reference instance by default); its wall-clock."""
        inputs = self.reference if inputs is None else inputs
        prepared = self.workload.prepare(inputs)
        gc.collect()
        self.probe.sample()
        start = time.perf_counter()
        output = self.workload.run(prepared)
        elapsed = time.perf_counter() - start
        self.checks.verify(self.workload, inputs, output, pinned)
        return elapsed


def _percentile_us(durations, q: float) -> float:
    return float(np.percentile(durations, q)) * 1e6 if len(durations) else 0.0


def layer_metrics(summary: Dict[str, Any], counts: Dict[str, int], run_s: float):
    self_s = summary["self_s"]
    calls = summary["calls"]
    durations = summary["durations"]
    queries = counts["spatial_queries"]
    metrics = {
        "core.fkp.generate_s": self_s.get("core.fkp.generate", 0.0),
        "geography.spatial_index.argmin_s": self_s.get("geography.spatial_index.argmin", 0.0),
        "geography.spatial_index.argmin_calls": queries,
        "geography.spatial_index.candidates_per_query": (
            counts["spatial_candidates"] / queries if queries else 0.0
        ),
        "optimization.facility_location.k_median_s": self_s.get(
            "optimization.facility_location.k_median", 0.0
        ),
        "optimization.facility_location.k_median_calls": calls.get(
            "optimization.facility_location.k_median", 0
        ),
        "core.meyerson.solve_s": self_s.get("core.meyerson.solve", 0.0),
        "core.buyatbulk.provision_s": self_s.get("core.buyatbulk.provision", 0.0),
        "topology.compiled.compile_s": self_s.get("topology.compiled.compile", 0.0),
        "topology.compiled.compilations": counts["compilations"],
        "topology.compiled.batch_dijkstra_calls": counts["batch_dijkstra_calls"],
        "geography.demand.build_s": self_s.get("geography.demand.build", 0.0),
        "routing.engine.route_s": self_s.get("routing.engine.route", 0.0),
        "routing.engine.batched_sources": counts["traffic_batched_sources"],
        "routing.engine.assigned_pairs": counts["traffic_assigned_pairs"],
        "routing.temporal.cascade_s": summary["total_s"].get("routing.temporal.cascade", 0.0),
        "routing.temporal.self_s": self_s.get("routing.temporal.cascade", 0.0),
        "routing.temporal.steps": counts["temporal_steps"],
        "routing.temporal.resolved_sources": counts["temporal_resolved_sources"],
        "routing.temporal.trips": counts["cascade_trips"],
        "topology.dynconn.s": self_s.get("topology.dynconn", 0.0),
        "topology.dynconn.calls": calls.get("topology.dynconn", 0),
        "topology.dynconn.tree_ops": counts["dynconn_tree_ops"],
        "topology.dynconn.replacement_searches": counts["dynconn_replacement_searches"],
        "optimization.incremental.rebuild_s": self_s.get("optimization.incremental.rebuild", 0.0),
        "optimization.incremental.apply_s": self_s.get(_APPLY, 0.0),
        "optimization.incremental.revert_s": self_s.get(_REVERT, 0.0),
        "optimization.incremental.apply_p50_us": _percentile_us(durations.get(_APPLY, []), 50),
        "optimization.incremental.apply_p99_us": _percentile_us(durations.get(_APPLY, []), 99),
        "optimization.incremental.revert_p50_us": _percentile_us(durations.get(_REVERT, []), 50),
        "optimization.incremental.revert_p99_us": _percentile_us(durations.get(_REVERT, []), 99),
        "optimization.incremental.delta_evals": counts["objective_delta_evals"],
        "optimization.incremental.reachability_rebuilds": counts["reachability_rebuilds"],
        "economics.provisioning.provision_s": self_s.get("economics.provisioning.provision", 0.0),
        "trace.run_s": run_s,
        "trace.unattributed_s": summary["unattributed_s"],
    }
    return metrics


def measure(bench: BenchmarkRun, seconds: float) -> List[float]:
    """Wall-clock of untraced reference iterations for ``seconds``."""
    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        bench.set_up()
        times.append(bench.iterate())
    return times


def measure_traced(bench: BenchmarkRun, seconds: float) -> Dict[str, float]:
    """Alternating untraced and traced iterations; per-layer medians."""
    from repro.topology.compiled import KERNEL_COUNTERS
    from tracing import Tracer, layer_entry_points

    tracer = Tracer(layer_entry_points())
    untraced: List[float] = []
    samples: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        bench.set_up()
        untraced.append(bench.iterate())

        tracer.clear()
        before = KERNEL_COUNTERS.snapshot()
        with tracer:
            elapsed = bench.iterate()
        after = KERNEL_COUNTERS.snapshot()
        counts = {name: after[name] - before[name] for name in after}
        summary = tracer.summary(elapsed, keep_durations=(_APPLY, _REVERT))
        samples.append(layer_metrics(summary, counts, elapsed))
        tracer.clear()

    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.untraced_run_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    scale = bench.probe.scale()
    for name, value in metrics.items():
        if PER_LAYER_UNITS[name] in ("s", "us"):
            metrics[name] = value * scale
        elif PER_LAYER_UNITS[name] == "count" and float(value).is_integer():
            metrics[name] = int(value)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="instance size: full, or the tiny smoke-pass size",
    )
    args = parser.parse_args(argv)

    use_checkout_sources()
    stamp = environment_stamp()
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    size = SIZES[args.size][args.workload]
    pins = json.loads(PINS.read_text()).get(args.size, {}).get(args.workload, {})
    bench = BenchmarkRun(workload, size, args.seed, pins)

    # Warm-up on the seed's own instance; its outputs have no pins, so only
    # the invariants are checked.
    bench.iterate(bench.own, pinned=False)

    if args.trace:
        values = measure_traced(bench, args.seconds)
        units = PER_LAYER_UNITS
    else:
        times = measure(bench, args.seconds)
        scale = bench.probe.scale()
        values = {
            "run_s": statistics.median(times) * scale,
            "setup_s": statistics.median(bench.setup_times) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print("# iteration wall-clock s: " + " ".join(f"{t:.4f}" for t in times))
        print(f"# set-ups: {len(bench.setup_times)}, median wall-clock s "
              f"{statistics.median(bench.setup_times):.6f}")
    print(f"# speed scale {bench.probe.scale():.4f} from {len(bench.probe.compute)} probe pairs")
    print("# probe compute s: " + " ".join(f"{t:.4f}" for t in bench.probe.compute))
    print("# probe memory s: " + " ".join(f"{t:.4f}" for t in bench.probe.memory))
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    for name, value in values.items():
        print(f"# {name} {value} {units[name]}")
    checks = bench.checks
    print(f"# fail_frac {checks.failed / checks.attempted}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
