"""Named experiment scenarios: the exact parameter sets behind E1–E8.

Keeping the parameters here (rather than scattered across benchmark files)
gives every experiment a single source of truth that DESIGN.md and
EXPERIMENTS.md can reference, and lets tests assert that the benchmark
workloads stay consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence


@dataclass(frozen=True)
class Scenario:
    """A named experiment scenario.

    Attributes:
        experiment_id: Experiment identifier (``"E1"`` ... ``"E8"``).
        title: Short human-readable title.
        paper_claim: The claim from the paper this scenario reproduces.
        parameters: Flat parameter dictionary consumed by the benchmark.
    """

    experiment_id: str
    title: str
    paper_claim: str
    parameters: Dict[str, object] = field(default_factory=dict)


def fkp_phase_scenario(num_nodes: int = 1000, seed: int = 7) -> Scenario:
    """E1: FKP alpha sweep across the three regimes."""
    sqrt_n = math.sqrt(num_nodes)
    alphas = [0.1, 4.0, 10.0, sqrt_n / 2.0, 2.0 * sqrt_n, float(num_nodes)]
    return Scenario(
        experiment_id="E1",
        title="FKP tradeoff phase diagram",
        paper_claim=(
            "Tuning the relative importance of distance vs centrality moves the "
            "degree distribution from star to power law to exponential (Section 3.1)."
        ),
        parameters={"num_nodes": num_nodes, "alphas": alphas, "seed": seed},
    )


def buy_at_bulk_scenario(
    customer_counts: Sequence[int] = (100, 200, 400), seed: int = 11
) -> Scenario:
    """E2: buy-at-bulk access trees and their degree tails."""
    return Scenario(
        experiment_id="E2",
        title="Buy-at-bulk access design degree distribution",
        paper_claim=(
            "The Meyerson-style approximation yields tree topologies with exponential "
            "node degree distributions under realistic cable parameters (Section 4.2)."
        ),
        parameters={
            "customer_counts": list(customer_counts),
            "seed": seed,
            "placements": ["uniform", "clustered"],
        },
    )


def cable_economics_scenario(
    customer_counts: Sequence[int] = (50, 100, 200, 400), seed: int = 13
) -> Scenario:
    """E3: algorithm/catalog ablation of the buy-at-bulk problem."""
    return Scenario(
        experiment_id="E3",
        title="Economies of scale and algorithm comparison",
        paper_claim=(
            "Buy-at-bulk solutions aggregate traffic onto high-capacity cables and beat "
            "naive per-customer provisioning; economies of scale drive tree formation "
            "(Section 4.1)."
        ),
        parameters={
            "customer_counts": list(customer_counts),
            "seed": seed,
            "algorithms": ["meyerson", "greedy", "mst", "star"],
            "catalogs": ["default", "linear"],
        },
    )


def isp_hierarchy_scenario(city_counts: Sequence[int] = (10, 20, 30), seed: int = 17) -> Scenario:
    """E4: single-ISP hierarchy as a function of the served population."""
    return Scenario(
        experiment_id="E4",
        title="Single-ISP WAN/MAN/LAN hierarchy",
        paper_claim=(
            "The size, location and connectivity of the ISP depend on the number and "
            "location of its customers; hierarchy emerges as backbone/distribution/"
            "customer levels (Section 2.2)."
        ),
        parameters={
            "city_counts": list(city_counts),
            "seed": seed,
            "objectives": ["cost", "profit"],
            "customers_per_city_scale": 6.0,
        },
    )


def generator_comparison_scenario(num_nodes: int = 600, seed: int = 19) -> Scenario:
    """E5: HOT vs descriptive generators across the metric suite."""
    return Scenario(
        experiment_id="E5",
        title="Optimization-driven vs descriptive generators",
        paper_claim=(
            "Generators matching the chosen metric (degree distribution) look very "
            "dissimilar on others (clustering, hierarchy, distortion) (Sections 1, 3.2)."
        ),
        parameters={
            "num_nodes": num_nodes,
            "seed": seed,
            "baselines": [
                "barabasi-albert",
                "glp",
                "plrg",
                "inet",
                "waxman",
                "transit-stub",
                "erdos-renyi",
            ],
            "hot_models": ["fkp-powerlaw", "fkp-exponential", "buy-at-bulk"],
        },
    )


def peering_scenario(
    isp_counts: Sequence[int] = (20, 40, 80), num_cities: int = 30, seed: int = 23
) -> Scenario:
    """E6: AS graphs from interconnected ISPs."""
    return Scenario(
        experiment_id="E6",
        title="AS graph from ISP peering",
        paper_claim=(
            "Interconnecting optimization-designed ISPs yields the AS graph; AS degree "
            "reflects geographic coverage, and the router- and AS-level formulations "
            "differ (Sections 2.3, 3.2)."
        ),
        parameters={"isp_counts": list(isp_counts), "num_cities": num_cities, "seed": seed},
    )


def robustness_scenario(num_nodes: int = 500, seed: int = 29) -> Scenario:
    """E7: robust-yet-fragile behaviour of HOT designs."""
    return Scenario(
        experiment_id="E7",
        title="Robust-yet-fragile: random vs targeted failures",
        paper_claim=(
            "HOT systems are robust to designed-for uncertainty yet fragile to rare "
            "perturbations: targeted removal of aggregation hubs is catastrophic while "
            "random failures are tolerated (Section 3.1)."
        ),
        parameters={"num_nodes": num_nodes, "seed": seed, "max_fraction": 0.3},
    )


def scaling_scenario(
    customer_counts: Sequence[int] = (50, 100, 200, 400, 800), seed: int = 31
) -> Scenario:
    """E8: approximation quality and runtime scaling of the incremental algorithm."""
    return Scenario(
        experiment_id="E8",
        title="Approximation quality and scaling",
        paper_claim=(
            "The randomized incremental algorithm achieves constant-factor quality "
            "independent of problem size (Section 4.1)."
        ),
        parameters={"customer_counts": list(customer_counts), "seed": seed, "best_of": 3},
    )


def ablations_scenario(seed: int = 41) -> Scenario:
    """E9 (supplementary): the ablation studies DESIGN.md commits to.

    Not a figure from the paper (hence excluded from :func:`all_scenarios`),
    but run through the same orchestration engine as E1–E8.
    """
    return Scenario(
        experiment_id="E9",
        title="Design-choice ablations (arrival order, degree limits, centrality, validation)",
        paper_claim=(
            "Supplementary: the causal sensitivity of the HOT formulations — "
            "randomization, interface limits, and the centrality definition — "
            "and the reference-signature validation matrix."
        ),
        parameters={
            "seed": seed,
            "arrival_orders": ["random", "demand", "given"],
            "degree_limits": [0, 16, 8, 4],  # 0 = unconstrained
            "centralities": ["hop-to-root", "euclidean-to-root", "subtree-load"],
            "validation_topologies": ["buy-at-bulk-access", "barabasi-albert"],
            "num_customers": 300,
            "num_nodes": 600,
        },
    )


def local_search_scenario(
    sizes: Sequence[int] = (400, 2000),
    anneal_iterations: int = 1200,
    seed: int = 43,
) -> Scenario:
    """E10 (supplementary): incremental objective evaluation for local search.

    Not a figure from the paper; it gates the engineering claim behind the
    Section 2.2 optimization loops — move-based annealing with O(Δ) delta
    evaluation must visit the same designs as copy-based full re-evaluation.
    """
    return Scenario(
        experiment_id="E10",
        title="Incremental delta-cost evaluation for local search",
        paper_claim=(
            "Supplementary: simulated annealing over typed topology moves with "
            "incremental objective evaluation reproduces the copy-based search "
            "trajectory (score-identical best designs) at a fraction of the "
            "per-candidate cost."
        ),
        parameters={
            "seed": seed,
            "sizes": list(sizes),
            "objectives": ["cost", "profit"],
            "anneal_iterations": anneal_iterations,
            "isp_refine": {
                "num_cities": 10,
                "feeder_algorithm": "star",
                "refine_iterations": 400,
            },
        },
    )


def traffic_scenario(
    num_cities: int = 40,
    total_volume: float = 10_000.0,
    seed: int = 53,
) -> Scenario:
    """E11 (supplementary): the vectorized traffic engine sweep.

    Not a figure from the paper; it gates the demand→loads→provisioning
    pipeline behind the Section 2.2 evaluation: batched assignment must issue
    one shortest-path search per unique demand source, ECMP must conserve
    volumes across tied shortest paths, and demand-model shape (gravity
    exponents, uniform, hub-skewed) must show up in load concentration.
    """
    return Scenario(
        experiment_id="E11",
        title="Batched demand routing and ECMP flow splitting",
        paper_claim=(
            "Supplementary: traffic demand is one of the key inputs to the "
            "optimization formulation (Section 2.2) — the demand model's "
            "spatial structure, not the topology alone, determines where "
            "capacity must be provisioned."
        ),
        parameters={
            "seed": seed,
            "num_cities": num_cities,
            "total_volume": total_volume,
            "backbone_shortcuts": 12,
            "demand_models": [
                "gravity-0.5",
                "gravity-1.0",
                "gravity-2.0",
                "uniform",
                "hub-skewed",
            ],
            "modes": ["single", "ecmp"],
        },
    )


def scaling_tier_scenario(
    sizes: Sequence[int] = (100_000, 1_000_000),
    num_endpoints: int = 32,
    parity_max_size: int = 20_000,
    many_source_size: int = 100_000,
    many_source_endpoints: int = 1_024,
    seed: int = 61,
) -> Scenario:
    """E12 (supplementary): the million-node scale tier.

    Not a figure from the paper; it gates the numpy-native compiled view and
    the batch routing kernels two orders of magnitude past the E8 sizes:
    generate an FKP tree, compile it, route a gravity matrix over sampled
    population centers, and provision — with the scipy batch path asserted
    engaged (``batch_dijkstra_calls``; no silent fallback) and, at sizes up
    to ``parity_max_size``, edge loads cross-checked against the pure-Python
    reference backend.  A dedicated **many-source point** routes the *full*
    gravity matrix over ``many_source_endpoints`` population centers at
    ``many_source_size`` nodes, one search per unique source (>=1000 at the
    full size).  Wall-clock and peak RSS land in the task records' timing
    fields; the ≥5x numpy-vs-python floor lives in
    ``benchmarks/bench_scaling_tier.py``.
    """
    return Scenario(
        experiment_id="E12",
        title="Numpy batch kernels at the million-node scale tier",
        paper_claim=(
            "Supplementary: the paper's argument concerns what network design "
            "looks like at real carrier scale — reproducing it credibly "
            "requires the evaluation pipeline (shortest paths, demand "
            "routing, provisioning) to run at 10^5–10^6 nodes, not just the "
            "figure-sized instances."
        ),
        parameters={
            "seed": seed,
            "sizes": list(sizes),
            "alpha": 10.0,
            "num_endpoints": num_endpoints,
            "total_volume": 1_000_000.0,
            "parity_max_size": parity_max_size,
            "many_source_size": many_source_size,
            "many_source_endpoints": many_source_endpoints,
        },
    )


def temporal_scenario(
    num_cities: int = 30,
    total_volume: float = 10_000.0,
    diurnal_steps: int = 12,
    flash_steps: int = 16,
    seed: int = 67,
) -> Scenario:
    """E13 (supplementary): the temporal traffic engine.

    Not a figure from the paper; it gates the time-indexed demand layer
    (:mod:`repro.routing.temporal`) over the E11-style national backbone:
    per-step volume–hop conservation on a diurnal load curve, diff routing
    that is bit-identical to route-every-step-from-scratch while re-resolving
    only the flash crowd's changed sources (``temporal_resolved_sources``
    proves engagement), and failure cascades that reach deterministic fixed
    points — cross-checked across backends when scipy is available — with
    served fraction swept against the survivability headroom.  The ≥5x
    diff-vs-scratch wall-clock floor lives in
    ``benchmarks/bench_temporal.py``.
    """
    return Scenario(
        experiment_id="E13",
        title="Temporal traffic: diurnal series, flash crowds, cascades",
        paper_claim=(
            "Supplementary: the paper evaluates a design by the traffic it "
            "carries — real carrier traffic is a time series with diurnal "
            "swings, flash crowds, and failures, so the evaluation pipeline "
            "must route demand *sequences* and degrade deterministically "
            "under overload-driven link failures."
        ),
        parameters={
            "seed": seed,
            "num_cities": num_cities,
            "total_volume": total_volume,
            "backbone_shortcuts": 12,
            "diurnal_steps": diurnal_steps,
            "diurnal_amplitude": 0.4,
            "flash_steps": flash_steps,
            "flash_hotspots": 3,
            "flash_spike": 6.0,
            "flash_duration": 4,
            # headroom >= surge - 1 is provably trip-free (provisioned
            # capacity covers the base load), so the sweep's loosest point
            # pins a surviving network against the degrading ones.
            "cascade_surge": 3.0,
            "headrooms": [0.0, 0.25, 0.5, 1.0, 2.0],
        },
    )


def all_scenarios() -> List[Scenario]:
    """Every experiment scenario (paper E1–E8 + supplementary), in id order."""
    return [
        SCENARIO_FACTORIES[experiment_id]()
        for experiment_id in sorted(SCENARIO_FACTORIES, key=lambda e: int(e[1:]))
    ]


#: Factory per experiment id (E9/E10/E11 are supplementary; see
#: :func:`ablations_scenario`, :func:`local_search_scenario`, and
#: :func:`traffic_scenario`).
SCENARIO_FACTORIES: Dict[str, Callable[..., Scenario]] = {
    "E1": fkp_phase_scenario,
    "E2": buy_at_bulk_scenario,
    "E3": cable_economics_scenario,
    "E4": isp_hierarchy_scenario,
    "E5": generator_comparison_scenario,
    "E6": peering_scenario,
    "E7": robustness_scenario,
    "E8": scaling_scenario,
    "E9": ablations_scenario,
    "E10": local_search_scenario,
    "E11": traffic_scenario,
    "E12": scaling_tier_scenario,
    "E13": temporal_scenario,
}

#: Reduced sweep grids for CI smoke runs: same axes, smaller sizes, so every
#: experiment finishes in seconds while still exercising its full code path.
SMOKE_OVERRIDES: Dict[str, Dict[str, object]] = {
    "E1": {"num_nodes": 500},
    "E2": {"customer_counts": (60, 120)},
    "E3": {"customer_counts": (50, 100)},
    "E4": {"city_counts": (10, 20)},
    "E5": {"num_nodes": 300},
    "E6": {"isp_counts": (10, 20), "num_cities": 20},
    "E7": {"num_nodes": 240},
    "E8": {"customer_counts": (50, 100, 200)},
    "E9": {},
    "E10": {"sizes": (250,), "anneal_iterations": 400},
    "E11": {"num_cities": 20},
    "E12": {
        "sizes": (2_000, 5_000),
        "num_endpoints": 16,
        "many_source_size": 2_000,
        "many_source_endpoints": 48,
    },
    "E13": {"num_cities": 14, "diurnal_steps": 6, "flash_steps": 8},
}


def scenario_for(experiment_id: str, smoke: bool = False) -> Scenario:
    """The scenario for one experiment id, optionally in its smoke variant."""
    try:
        factory = SCENARIO_FACTORIES[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(SCENARIO_FACTORIES)}"
        ) from None
    kwargs = SMOKE_OVERRIDES.get(experiment_id, {}) if smoke else {}
    return factory(**kwargs)
