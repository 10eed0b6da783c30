"""Tests for repro.optimization.facility_location."""

import random

import pytest

from repro.geography.points import euclidean, random_points
from repro.optimization.facility_location import (
    choose_concentrator_count,
    greedy_facility_location,
    k_median,
)
from repro.topology.compiled import KERNEL_COUNTERS


def two_clusters(rng_seed: int = 0, per_cluster: int = 10):
    rng = random.Random(rng_seed)
    left = [(rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1)) for _ in range(per_cluster)]
    right = [(rng.uniform(0.9, 1.0), rng.uniform(0.9, 1.0)) for _ in range(per_cluster)]
    return left + right


class TestGreedyFacilityLocation:
    def test_every_client_assigned(self):
        clients = two_clusters()
        solution = greedy_facility_location(clients, clients, opening_cost=0.05)
        assert set(solution.assignment) == set(range(len(clients)))
        assert all(f in solution.facilities for f in solution.assignment.values())

    def test_cheap_facilities_open_in_both_clusters(self):
        clients = two_clusters()
        solution = greedy_facility_location(clients, clients, opening_cost=0.01)
        sides = {int(clients[f][0] > 0.5) for f in solution.facilities}
        assert sides == {0, 1}

    def test_expensive_facilities_open_few(self):
        clients = two_clusters()
        cheap = greedy_facility_location(clients, clients, opening_cost=0.001)
        expensive = greedy_facility_location(clients, clients, opening_cost=100.0)
        assert len(expensive.facilities) <= len(cheap.facilities)
        assert len(expensive.facilities) == 1

    def test_total_cost_components(self):
        clients = two_clusters()
        solution = greedy_facility_location(clients, clients, opening_cost=0.5)
        assert solution.total_cost == pytest.approx(
            solution.opening_cost + solution.connection_cost
        )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            greedy_facility_location([], [(0, 0)], 1.0)
        with pytest.raises(ValueError):
            greedy_facility_location([(0, 0)], [], 1.0)
        with pytest.raises(ValueError):
            greedy_facility_location([(0, 0)], [(0, 0)], -1.0)
        with pytest.raises(ValueError):
            greedy_facility_location([(0, 0)], [(0, 0)], 1.0, weights=[1.0, 2.0])

    def test_weights_pull_facility_toward_heavy_client(self):
        clients = [(0.0, 0.0), (1.0, 0.0)]
        candidates = [(0.0, 0.0), (1.0, 0.0)]
        solution = greedy_facility_location(
            clients, candidates, opening_cost=10.0, weights=[1.0, 100.0]
        )
        assert solution.facilities == [1]


class TestKMedian:
    def test_opens_exactly_k(self):
        clients = two_clusters()
        solution = k_median(clients, clients, k=2)
        assert len(solution.facilities) == 2

    def test_k2_separates_clusters(self):
        clients = two_clusters()
        solution = k_median(clients, clients, k=2, rng=random.Random(1))
        facility_sides = {int(clients[f][0] > 0.5) for f in solution.facilities}
        assert facility_sides == {0, 1}

    def test_connection_cost_decreases_with_k(self):
        clients = random_points(40, random.Random(2))
        cost1 = k_median(clients, clients, k=1).connection_cost
        cost4 = k_median(clients, clients, k=4).connection_cost
        assert cost4 <= cost1

    def test_clients_of(self):
        clients = two_clusters()
        solution = k_median(clients, clients, k=2)
        total = sum(len(solution.clients_of(f)) for f in solution.facilities)
        assert total == len(clients)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            k_median([(0, 0)], [(0, 0)], k=0)
        with pytest.raises(ValueError):
            k_median([(0, 0)], [(0, 0)], k=2)


class TestConcentratorCount:
    def test_rounding_up(self):
        assert choose_concentrator_count(25, clients_per_concentrator=24) == 2
        assert choose_concentrator_count(24, clients_per_concentrator=24) == 1

    def test_at_least_one(self):
        assert choose_concentrator_count(0) == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            choose_concentrator_count(-1)
        with pytest.raises(ValueError):
            choose_concentrator_count(5, clients_per_concentrator=0)


# Reference solvers: the linear-scan formulation that each trial re-solved the
# whole assignment with.  The cached-distance pricing must reproduce their
# facilities, assignments and cost bits exactly.


def _reference_assign(clients, weights, candidates, open_facilities):
    assignment = {}
    connection_cost = 0.0
    for client_index, client in enumerate(clients):
        best_facility = None
        best_distance = float("inf")
        for facility_index in open_facilities:
            distance = euclidean(client, candidates[facility_index])
            if distance < best_distance:
                best_distance = distance
                best_facility = facility_index
        assignment[client_index] = best_facility
        connection_cost += weights[client_index] * best_distance
    return assignment, connection_cost


def _reference_greedy(clients, candidates, opening_cost, weights):
    open_facilities = [
        min(
            range(len(candidates)),
            key=lambda f: _reference_assign(clients, weights, candidates, [f])[1],
        )
    ]
    _, current_cost = _reference_assign(clients, weights, candidates, open_facilities)
    current_cost += opening_cost
    improved = True
    while improved:
        improved = False
        best_gain = 0.0
        best_candidate = None
        for facility_index in range(len(candidates)):
            if facility_index in open_facilities:
                continue
            _, connection = _reference_assign(
                clients, weights, candidates, open_facilities + [facility_index]
            )
            gain = current_cost - (connection + opening_cost * (len(open_facilities) + 1))
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_candidate = facility_index
        if best_candidate is not None:
            open_facilities.append(best_candidate)
            _, connection = _reference_assign(clients, weights, candidates, open_facilities)
            current_cost = connection + opening_cost * len(open_facilities)
            improved = True
    assignment, connection_cost = _reference_assign(clients, weights, candidates, open_facilities)
    return sorted(open_facilities), assignment, connection_cost


def _reference_k_median(clients, candidates, k, weights, rng):
    open_facilities = [rng.randrange(len(candidates))]
    while len(open_facilities) < k:
        open_facilities.append(
            max(
                (i for i in range(len(candidates)) if i not in open_facilities),
                key=lambda i: min(
                    euclidean(candidates[i], candidates[f]) for f in open_facilities
                ),
            )
        )
    _, current_cost = _reference_assign(clients, weights, candidates, open_facilities)
    for _ in range(100):
        improved = False
        for out_index in list(open_facilities):
            for in_index in range(len(candidates)):
                if in_index in open_facilities:
                    continue
                trial = [f for f in open_facilities if f != out_index] + [in_index]
                _, trial_cost = _reference_assign(clients, weights, candidates, trial)
                if trial_cost < current_cost - 1e-12:
                    open_facilities = trial
                    current_cost = trial_cost
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    assignment, connection_cost = _reference_assign(clients, weights, candidates, open_facilities)
    return sorted(open_facilities), assignment, connection_cost


def _instance(kind, rng):
    """Clients, candidates and weights for one differential case."""
    n = rng.randrange(1, 30)
    if kind == "lattice":  # integer points: many exactly tied distances
        clients = [(float(rng.randrange(4)), float(rng.randrange(4))) for _ in range(n)]
    elif kind == "duplicates":
        sites = [(rng.random(), rng.random()) for _ in range(max(1, n // 4))]
        clients = [rng.choice(sites) for _ in range(n)]
    else:
        clients = [(rng.random() * 50.0, rng.random() * 50.0) for _ in range(n)]
    if rng.random() < 0.5:
        candidates = clients
    else:
        candidates = [(float(rng.randrange(4)), float(rng.randrange(4))) for _ in range(20)]
        candidates = candidates[: rng.randrange(1, 20)]
    weights = [rng.choice([1.0, 0.0, 2.0, rng.uniform(0.1, 9.0)]) for _ in range(n)]
    return clients, candidates, weights


class TestMatchesScanReference:
    @pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicates"])
    def test_k_median_bit_identical(self, kind):
        rng = random.Random(kind)
        for _ in range(30):
            clients, candidates, weights = _instance(kind, rng)
            for k in {1, len(candidates), rng.randrange(1, len(candidates) + 1)}:
                seed = rng.randrange(1000)
                solution = k_median(
                    clients, candidates, k, weights=weights, rng=random.Random(seed)
                )
                expected = _reference_k_median(
                    clients, candidates, k, weights, random.Random(seed)
                )
                got = (solution.facilities, solution.assignment, solution.connection_cost)
                assert got == expected
                assert solution.connection_cost.hex() == expected[2].hex()

    @pytest.mark.parametrize("kind", ["uniform", "lattice", "duplicates"])
    def test_greedy_bit_identical(self, kind):
        rng = random.Random(kind)
        for _ in range(30):
            clients, candidates, weights = _instance(kind, rng)
            opening_cost = rng.choice([0.0, 0.5, 2.0, 50.0])
            solution = greedy_facility_location(
                clients, candidates, opening_cost, weights=weights
            )
            expected = _reference_greedy(clients, candidates, opening_cost, weights)
            got = (solution.facilities, solution.assignment, solution.connection_cost)
            assert got == expected
            assert solution.connection_cost.hex() == expected[2].hex()

    def test_tie_goes_to_first_open_facility(self):
        # Both candidates are 1 away from the client; whichever the search
        # opened first in its open list serves it, as in the scan.
        clients = [(0.0, 0.0)]
        candidates = [(1.0, 0.0), (-1.0, 0.0)]
        solution = k_median(clients, candidates, k=2, rng=random.Random(0))
        expected = _reference_k_median(clients, candidates, 2, [1.0], random.Random(0))
        assert (solution.facilities, solution.assignment) == expected[:2]


class TestSwapTrialCounter:
    def test_counts_every_priced_swap(self):
        # Seeding opens candidate 0 (cost 0 + 1 + 2 = 3).  Swapping 0 for 1
        # (cost 2) is accepted on the first trial; from {1}, the trials
        # 1->0 and 1->2 both cost 3 and are rejected.  Three trials in all.
        points = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        KERNEL_COUNTERS.reset()
        solution = k_median(points, points, k=1, rng=random.Random(1))
        assert solution.facilities == [1]
        assert KERNEL_COUNTERS.facility_swap_trials == 3


_NAN = float("nan")
_INF = float("inf")


def _solve(solver, clients, candidates, weights=None):
    if solver == "k_median":
        return k_median(clients, candidates, k=1, weights=weights)
    return greedy_facility_location(clients, candidates, 1.0, weights=weights)


@pytest.mark.parametrize("solver", ["k_median", "greedy"])
class TestBadInputRejected:
    def test_non_finite_client_coordinate(self, solver):
        with pytest.raises(ValueError, match="clients"):
            _solve(solver, [(0.0, 0.0), (_NAN, 1.0)], [(0.0, 0.0)])

    def test_non_finite_candidate_coordinate(self, solver):
        with pytest.raises(ValueError, match="candidates"):
            _solve(solver, [(0.0, 0.0)], [(0.0, 0.0), (1.0, _INF)])

    def test_negative_weight(self, solver):
        with pytest.raises(ValueError, match="weights"):
            _solve(solver, [(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0)], weights=[1.0, -1.0])

    def test_nan_weight(self, solver):
        with pytest.raises(ValueError, match="weights"):
            _solve(solver, [(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0)], weights=[_NAN, 1.0])

    def test_infinite_weight(self, solver):
        with pytest.raises(ValueError, match="weights"):
            _solve(solver, [(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0)], weights=[1.0, _INF])
