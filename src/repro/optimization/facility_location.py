"""Facility location heuristics for concentrator and PoP placement.

Classic access-network design formulations "incorporate ... the cost of
installing additional equipment, such as concentrators" (paper Section 4).
Placing concentrators (or metro PoPs) is an uncapacitated facility location /
k-median problem; this module provides the standard greedy and local-search
(swap) heuristics used by the access designer and by the ISP generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..geography.points import euclidean
from ..topology.compiled import KERNEL_COUNTERS

Point = Tuple[float, float]


@dataclass
class FacilitySolution:
    """Result of a facility-location computation.

    Attributes:
        facilities: Indices (into the candidate list) of the opened facilities.
        assignment: For each client index, the index of its assigned facility.
        opening_cost: Total cost of opening the chosen facilities.
        connection_cost: Total weighted client-to-facility distance.
    """

    facilities: List[int]
    assignment: Dict[int, int]
    opening_cost: float
    connection_cost: float

    @property
    def total_cost(self) -> float:
        """Opening plus connection cost."""
        return self.opening_cost + self.connection_cost

    def clients_of(self, facility: int) -> List[int]:
        """Client indices assigned to a given facility."""
        return [client for client, assigned in self.assignment.items() if assigned == facility]


def _validated_weights(
    clients: Sequence[Point], candidates: Sequence[Point], weights: Optional[Sequence[float]]
) -> List[float]:
    """Reject empty or non-finite input and bad weights; return the weights.

    One NaN would make every cost comparison false and silently stop the
    search after seeding, so bad input fails here instead.
    """
    if not clients:
        raise ValueError("at least one client is required")
    for name, points in (("clients", clients), ("candidates", candidates)):
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in points):
            raise ValueError(f"{name} must have finite coordinates")
    weights = list(weights) if weights is not None else [1.0] * len(clients)
    if len(weights) != len(clients):
        raise ValueError("weights must match clients in length")
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise ValueError("weights must be finite and non-negative")
    return weights


def _solution(
    clients: Sequence[Point],
    weights: Sequence[float],
    candidates: Sequence[Point],
    open_facilities: Sequence[int],
    opening_cost: float,
) -> FacilitySolution:
    """Assign every client to its nearest open facility by a linear scan.

    Ties go to the first entry of ``open_facilities``.
    """
    assignment: Dict[int, int] = {}
    connection_cost = 0.0
    for client_index, client in enumerate(clients):
        distances = [euclidean(client, candidates[f]) for f in open_facilities]
        position = min(range(len(distances)), key=distances.__getitem__)
        assignment[client_index] = open_facilities[position]
        connection_cost += weights[client_index] * distances[position]
    return FacilitySolution(sorted(open_facilities), assignment, opening_cost, connection_cost)


def _weighted_columns(
    clients: Sequence[Point], weights: Sequence[float], candidates: Sequence[Point]
) -> List[List[float]]:
    """Per candidate, the scan's term ``weight * euclidean(client, candidate)``.

    Multiplying by a weight ``w >= 0`` rounds monotonically, so ``w * min(a,
    b)`` equals ``min(w * a, w * b)`` bit for bit: a client's nearest open
    facility has its smallest term, and costs can be priced on terms alone.
    """
    return [[w * euclidean(c, site) for w, c in zip(weights, clients)] for site in candidates]


def _price(kept: Sequence[float], column: Sequence[float]) -> float:
    """Sum the smaller of two terms per client, in the scan's order from ``0.0``."""
    total = 0.0
    for a, b in zip(kept, column):
        total += a if a <= b else b
    return total


def _two_smallest(
    columns: Sequence[List[float]], open_facilities: Sequence[int]
) -> Tuple[List[float], List[float]]:
    """Per client, the smallest and second-smallest term over the open set.

    The two are equal on a tie; with one facility open the second is ``inf``.
    """
    open_columns = [columns[f] for f in open_facilities]
    pairs = [sorted(terms)[:2] + [math.inf] for terms in zip(*open_columns)]
    return [pair[0] for pair in pairs], [pair[1] for pair in pairs]


def greedy_facility_location(
    clients: Sequence[Point],
    candidates: Sequence[Point],
    opening_cost: float,
    weights: Optional[Sequence[float]] = None,
) -> FacilitySolution:
    """Greedy uncapacitated facility location.

    Repeatedly open the candidate facility whose opening reduces the total
    (opening + weighted connection) cost the most, until no opening helps.
    This is the classical ln(n)-approximation greedy.  Each trial opening is
    priced in O(clients) from every client's nearest open term.

    Args:
        clients: Client locations.
        candidates: Candidate facility locations.
        opening_cost: Cost of opening any one facility.
        weights: Per-client demand weights (defaults to 1 each).
    """
    if not candidates:
        raise ValueError("at least one candidate facility is required")
    if opening_cost < 0:
        raise ValueError("opening_cost must be non-negative")
    weights = _validated_weights(clients, candidates, weights)
    columns = _weighted_columns(clients, weights, candidates)

    # Always open at least the single best facility so every client is served.
    best_first = min(range(len(candidates)), key=lambda f: _price(columns[f], columns[f]))
    open_facilities = [best_first]
    nearest = columns[best_first]
    current_cost = _price(nearest, nearest) + opening_cost

    while True:
        best_gain = 0.0
        best_candidate = None
        for facility_index in range(len(candidates)):
            if facility_index in open_facilities:
                continue
            connection = _price(nearest, columns[facility_index])
            candidate_cost = connection + opening_cost * (len(open_facilities) + 1)
            gain = current_cost - candidate_cost
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_candidate = facility_index
        if best_candidate is None:
            break
        open_facilities.append(best_candidate)
        nearest = [a if a <= b else b for a, b in zip(nearest, columns[best_candidate])]
        current_cost = _price(nearest, nearest) + opening_cost * len(open_facilities)

    total_opening = opening_cost * len(open_facilities)
    return _solution(clients, weights, candidates, open_facilities, total_opening)


def k_median(
    clients: Sequence[Point],
    candidates: Sequence[Point],
    k: int,
    weights: Optional[Sequence[float]] = None,
    rng: Optional[random.Random] = None,
    max_iterations: int = 100,
) -> FacilitySolution:
    """k-median via single-swap local search.

    Opens exactly ``k`` facilities minimizing the total weighted connection
    distance.  Starts from a greedy farthest-point seeding and applies
    single-facility swaps until no swap improves the cost (or
    ``max_iterations`` is reached); single-swap local search is a 5-
    approximation for metric k-median.

    Swaps are priced as in PAM / Teitz-Bart from each client's two smallest
    terms over the open set: closing ``out`` leaves the client its second
    term if out's term is its smallest, else its first, and opening ``in``
    offers in's term.  A trial is O(clients), the cache is rebuilt only on an
    accepted swap, and each trial counts in
    ``KERNEL_COUNTERS.facility_swap_trials``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(candidates):
        raise ValueError(f"k={k} exceeds the number of candidate facilities {len(candidates)}")
    weights = _validated_weights(clients, candidates, weights)
    rng = rng or random.Random(0)

    # Farthest-point seeding for a spread-out initial solution.
    open_facilities = [rng.randrange(len(candidates))]
    gap = [euclidean(site, candidates[open_facilities[0]]) for site in candidates]
    while len(open_facilities) < k:
        farthest = max(
            (i for i in range(len(candidates)) if i not in open_facilities),
            key=gap.__getitem__,
        )
        open_facilities.append(farthest)
        gap = [min(g, euclidean(site, candidates[farthest])) for g, site in zip(gap, candidates)]

    columns = _weighted_columns(clients, weights, candidates)
    current_cost = _solution(clients, weights, candidates, open_facilities, 0.0).connection_cost
    trials = 0
    for _ in range(max_iterations):
        first, second = _two_smallest(columns, open_facilities)
        swap = None
        for out_index in open_facilities:
            kept = [b if t == a else a for t, a, b in zip(columns[out_index], first, second)]
            for in_index in range(len(candidates)):
                if in_index in open_facilities:
                    continue
                trials += 1
                trial_cost = _price(kept, columns[in_index])
                if trial_cost < current_cost - 1e-12:
                    swap, current_cost = (out_index, in_index), trial_cost
                    break
            if swap:
                break
        if swap is None:
            break
        open_facilities = [f for f in open_facilities if f != swap[0]] + [swap[1]]

    KERNEL_COUNTERS.facility_swap_trials += trials
    return _solution(clients, weights, candidates, open_facilities, 0.0)


def choose_concentrator_count(
    num_clients: int, clients_per_concentrator: int = 24
) -> int:
    """Rule-of-thumb number of concentrators for a client population.

    Mirrors how access planners size concentrator counts from port densities;
    always at least 1.
    """
    if num_clients < 0:
        raise ValueError("num_clients must be non-negative")
    if clients_per_concentrator < 1:
        raise ValueError("clients_per_concentrator must be >= 1")
    return max(1, (num_clients + clients_per_concentrator - 1) // clients_per_concentrator)
