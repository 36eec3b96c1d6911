import random

import pytest

from flexshop import (
    Instance,
    OracleLimitError,
    parse_instance,
    solve_exhaustive,
    validate_schedule,
)

from conftest import FIG1_OPTIMUM, random_instance


def test_single_operation_two_machines():
    inst = parse_instance("1 2 1.0\n2 1 1 2 2\n0")
    result = solve_exhaustive(inst)
    assert result.optimal_makespan == 100
    assert result.feasible_count == 2
    assert result.schedule.assignment[1] == 1


def test_two_independent_ops_one_machine():
    # second position costs psi(1, 2) = 50, so the optimum is 150
    inst = parse_instance("2 1 1.0\n1 1 1\n1 1 1\n0")
    result = solve_exhaustive(inst)
    assert result.optimal_makespan == 150
    assert result.feasible_count == 2  # the two orders


def test_chain_has_one_sequence_per_assignment():
    inst = parse_instance("3 1 1.0\n1 1 2\n1 1 2\n1 1 2\n2\n1 2\n2 3\n")
    result = solve_exhaustive(inst)
    assert result.feasible_count == 1
    # psi(2,1) + psi(2,2) + psi(2,3) = 200 + 100 + 67
    assert result.optimal_makespan == 367


def test_fig1_frozen_optimum(fig1):
    result = solve_exhaustive(fig1)
    assert result.optimal_makespan == FIG1_OPTIMUM
    assert result.feasible_count == 152
    assert validate_schedule(fig1, result.schedule) == []


def test_limit_is_enforced(fig1):
    with pytest.raises(OracleLimitError):
        solve_exhaustive(fig1, limit=10)


@pytest.mark.parametrize("limit", [0, -1])
def test_limit_below_one_is_rejected(fig1, limit):
    with pytest.raises(ValueError, match=f"limit must be >= 1, got {limit}"):
        solve_exhaustive(fig1, limit=limit)


def test_machine_relabel_invariance():
    """Swapping the two machine ids cannot change the optimal makespan."""
    rng = random.Random(61)
    for _ in range(10):
        inst = random_instance(rng, max_ops=5, max_machines=2)
        if inst.num_machines != 2:
            continue
        swap = {1: 2, 2: 1}
        swapped = Instance(
            inst.num_operations,
            2,
            tuple(tuple(sorted(swap[k] for k in ms)) for ms in inst.eligible),
            {(op, swap[k]): p for (op, k), p in inst.std_time.items()},
            inst.precedence_arcs,
            inst.learning_rate,
        )
        a = solve_exhaustive(inst, limit=200_000)
        b = solve_exhaustive(swapped, limit=200_000)
        assert a.optimal_makespan == b.optimal_makespan
        assert a.feasible_count == b.feasible_count


def test_oracle_at_most_local_search():
    from flexshop import LocalSearchConfig, best_of_est_ect, local_search

    rng = random.Random(67)
    for _ in range(15):
        inst = random_instance(rng, max_ops=6, max_machines=2)
        optimum = solve_exhaustive(inst, limit=500_000).optimal_makespan
        descended = local_search(
            inst, best_of_est_ect(inst), LocalSearchConfig("full", "best")
        ).schedule.makespan
        assert optimum <= descended
