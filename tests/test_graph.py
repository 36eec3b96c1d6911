import random

import pytest

from flexshop import (
    CycleError,
    ScheduleError,
    build_schedule,
    parse_instance,
    schedule_to_dict,
    schedule_to_json,
    start_completion_times,
    topological_sort_plus,
    reachable_from,
    validate_schedule,
)
from flexshop.graph import SOURCE, build_arcs, time_graph

from conftest import random_instance, random_schedule, simulate_makespan


def test_fig2a_golden(fig1, fig2a):
    assert fig2a.makespan == 658
    assert fig2a.critical_path == (0, 1, 4, 5, 3, 6)
    # adjusted times: op 2 alone on machine 1; machine 2 runs 1,4,5,3
    assert fig2a.actual_times[1] == 100
    assert fig2a.actual_times[2] == 100
    assert fig2a.actual_times[4] == 500
    assert fig2a.actual_times[5] == 33
    assert fig2a.actual_times[3] == 25
    assert fig2a.tau == (0, 4)
    assert validate_schedule(fig1, fig2a) == []


def test_fig2b_golden(fig1, fig2b):
    assert fig2b.makespan == 528
    assert fig2b.critical_path == (0, 1, 2, 4, 5, 3, 6)
    assert fig2b.actual_times[2] == 50
    assert fig2b.actual_times[4] == 333
    assert fig2b.actual_times[5] == 25
    assert fig2b.actual_times[3] == 20
    assert fig2b.tau == (0, 5)
    assert validate_schedule(fig1, fig2b) == []


def test_single_operation_schedule():
    inst = parse_instance("1 1 1.0\n1 1 3\n0")
    sched = build_schedule(inst, {1: 1}, [[1]])
    assert sched.makespan == 300
    assert sched.critical_path == (0, 1, 2)
    assert sched.tau == (1,)


def test_build_arcs_fig2a(fig1, fig2a):
    arcs = build_arcs(fig1, fig2a.sequences)
    assert arcs[SOURCE] == (1, 4)  # operations without predecessors
    assert arcs[1] == (2, 4)  # precedence 1->2 plus machine arc 1->4
    assert arcs[3] == (6,)  # precedence sink -> t
    assert arcs[5] == (3, 6)
    assert arcs[6] == ()


def test_machine_order_against_precedence_raises(fig1):
    # machine sequence [2, 1] contradicts precedence arc 1 -> 2
    with pytest.raises(CycleError):
        build_schedule(fig1, {1: 1, 2: 1, 3: 1, 4: 2, 5: 2}, [[2, 1, 3], [4, 5]])


@pytest.mark.parametrize(
    "assignment, sequences, fragment",
    [
        ({1: 1, 2: 1, 3: 1, 4: 1}, [[1, 2, 3, 4], []], "missing"),
        ({i: 2 for i in range(1, 6)}, [[1], [1, 2, 3, 4, 5]], "more than one"),
        ({i: 2 for i in range(1, 6)}, [[], [1, 2, 3, 4, 5], []], "expected 2"),
        ({1: 1, 2: 2, 3: 2, 4: 2, 5: 2}, [[], [1, 2, 3, 4, 5]], "assignment"),
    ],
)
def test_build_schedule_rejects_inconsistency(fig1, assignment, sequences,
                                              fragment):
    with pytest.raises(ScheduleError, match=fragment):
        build_schedule(fig1, assignment, sequences)


def test_topological_sort_reach_sets(fig1, fig2a):
    adjacency = build_arcs(fig1, fig2a.sequences)
    order = topological_sort_plus(adjacency, SOURCE)
    preds = time_graph(adjacency, fig2a.actual_times).preds
    assert reachable_from(preds, 2) == {0, 1, 2}
    assert order.index(1) < order.index(2)
    assert order[0] == SOURCE
    assert reachable_from(adjacency, 4) == {4, 5, 3, 6}
    assert reachable_from(adjacency, 1) == {1, 2, 3, 4, 5, 6}


def test_forward_pass_matches_critical_path(fig1, fig2a):
    times = start_completion_times(fig1, fig2a)
    assert max(c for _, c in times.values()) == fig2a.makespan
    assert times[1] == (0, 100)
    assert times[4] == (100, 600)
    assert times[3][1] == 658


def test_critical_path_tie_break_follows_dfs_order():
    """Two paths of length 274 tie; the path and tau follow the depth-first
    topological order (a Kahn order would pick 0-4-1-5 and tau (2, 0))."""
    inst = parse_instance("4 2 0.2\n2 1 2 2 2\n1 2 2\n1 2 1\n1 1 1\n0\n")
    sched = build_schedule(inst, {1: 1, 2: 2, 3: 2, 4: 1}, [[4, 1], [3, 2]])
    assert sched.makespan == 274
    assert sched.critical_path == (0, 3, 2, 5)
    assert sched.tau == (0, 2)


def test_simulation_oracle_on_random_schedules():
    """Longest-path makespan equals an event-driven forward simulation."""
    rng = random.Random(11)
    for _ in range(40):
        inst = random_instance(rng)
        sched = random_schedule(rng, inst)
        assert validate_schedule(inst, sched) == []
        assert simulate_makespan(inst, sched) == sched.makespan


def test_tau_zero_iff_machine_off_critical_path(fig2a, fig2b):
    for sched in (fig2a, fig2b):
        on_path = set(sched.critical_path) - {0, sched.sink}
        for k in (1, 2):
            machine_ops = set(sched.sequences[k - 1])
            if sched.tau[k - 1] == 0:
                assert not (machine_ops & on_path)
            else:
                last = sched.sequences[k - 1][sched.tau[k - 1] - 1]
                assert last in on_path


def test_validate_detects_stale_times(fig1, fig2a):
    fig2a.actual_times[4] = 1
    violations = validate_schedule(fig1, fig2a)
    assert any("stale" in v for v in violations)


def test_validate_detects_wrong_makespan(fig1, fig2b):
    fig2b.makespan = 1
    violations = validate_schedule(fig1, fig2b)
    assert any("makespan" in v for v in violations)


def test_schedule_serialization(fig1, fig2b):
    d = schedule_to_dict(fig1, fig2b)
    assert d["makespan"] == 528
    assert d["sequences"] == [[], [1, 2, 4, 5, 3]]
    assert d["completion"]["3"] == 528
    text = schedule_to_json(fig1, fig2b)
    assert text.endswith("\n")
    import json

    assert json.loads(text) == d


def test_schedule_key_identity(fig1, fig2a):
    same = build_schedule(fig1, dict(fig2a.assignment),
                          [list(s) for s in fig2a.sequences])
    assert same.key() == fig2a.key()
