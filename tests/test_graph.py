import random
from dataclasses import fields, replace

import pytest

from flexshop import (
    CycleError,
    Schedule,
    ScheduleError,
    actual_time,
    build_schedule,
    parse_instance,
    schedule_to_dict,
    schedule_to_json,
    start_completion_times,
    topological_sort_plus,
    reachable_from,
    validate_schedule,
)
from flexshop.graph import (SOURCE, build_arcs, critical_path, time_graph,
                            timing_of)

from conftest import random_instance, random_schedule, simulate_makespan


def _tau(sched):
    """Position of the last critical operation on each machine (0 if none)."""
    return critical_path(sched.timing, sched.sequences)[2]


def test_fig2a_golden(fig1, fig2a):
    assert fig2a.makespan == 658
    assert fig2a.critical_path == (0, 1, 4, 5, 3, 6)
    # adjusted times: op 2 alone on machine 1; machine 2 runs 1,4,5,3
    assert fig2a.actual_times[1] == 100
    assert fig2a.actual_times[2] == 100
    assert fig2a.actual_times[4] == 500
    assert fig2a.actual_times[5] == 33
    assert fig2a.actual_times[3] == 25
    assert _tau(fig2a) == (0, 4)
    assert validate_schedule(fig1, fig2a) == []


def test_fig2b_golden(fig1, fig2b):
    assert fig2b.makespan == 528
    assert fig2b.critical_path == (0, 1, 2, 4, 5, 3, 6)
    assert fig2b.actual_times[2] == 50
    assert fig2b.actual_times[4] == 333
    assert fig2b.actual_times[5] == 25
    assert fig2b.actual_times[3] == 20
    assert _tau(fig2b) == (0, 5)
    assert validate_schedule(fig1, fig2b) == []


def test_single_operation_schedule():
    inst = parse_instance("1 1 1.0\n1 1 3\n0")
    sched = build_schedule(inst, [[1]])
    assert sched.makespan == 300
    assert sched.critical_path == (0, 1, 2)
    assert _tau(sched) == (1,)


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
        build_schedule(fig1, [[2, 1, 3], [4, 5]])


@pytest.mark.parametrize(
    "sequences, fragment",
    [
        ([[1, 2, 3, 4], []], "missing"),
        ([[1], [1, 2, 3, 4, 5]], "more than once"),
        ([[], [1, 2, 3, 4, 5], []], "expected 2"),
    ],
)
def test_build_schedule_rejects_inconsistency(fig1, sequences, fragment):
    with pytest.raises(ScheduleError, match=fragment):
        build_schedule(fig1, sequences)


# operation 1 runs only on machine 1, operation 2 on either machine
PAIR_TEXT = "2 2 1.0\n1 1 3\n2 1 2 2 2\n0\n"


@pytest.mark.parametrize(
    "sequences, first",
    [
        ([[1, 2], [], []], "expected 2 machine sequences, got 3"),
        ([[1, 7], [2]], "unknown operation 7 on machine 1"),
        ([[0, 1], [2]], "unknown operation 0 on machine 1"),
        ([["1"], [2]], "unknown operation '1' on machine 1"),
        ([[1.0, 2], []], "unknown operation 1.0 on machine 1"),
        ([[True], [2]], "unknown operation True on machine 1"),
        ([[1, 2], [2]], "operation 2 placed more than once"),
        ([[1], []], "operation 2 missing from every sequence"),
        ([[2], [1]], "operation 1 on ineligible machine 2"),
    ],
    ids=["extra-sequence", "id-7", "id-0", "id-str", "id-float", "id-bool",
         "duplicate", "missing", "ineligible"],
)
def test_build_and_validate_agree_on_malformed_sequences(sequences, first):
    inst = parse_instance(PAIR_TEXT)
    with pytest.raises(ScheduleError) as raised:
        build_schedule(inst, sequences)
    assert str(raised.value) == first
    sched = Schedule(tuple(map(tuple, sequences)), {}, 0)
    assert validate_schedule(inst, sched)[0] == first


def test_topological_sort_reach_sets(fig1, fig2a):
    adjacency = build_arcs(fig1, fig2a.sequences)
    order = topological_sort_plus(adjacency)
    preds = time_graph(adjacency, fig2a.actual_times).preds
    assert reachable_from(preds, 2) == {0, 1, 2}
    assert order.index(1) < order.index(2)
    assert order[0] == SOURCE
    assert reachable_from(adjacency, 4) == {4, 5, 3, 6}
    assert reachable_from(adjacency, 1) == {1, 2, 3, 4, 5, 6}


def test_time_graph_ranks_follow_the_order():
    """``rank[u]`` is the index of ``u`` in the timing's topological order,
    on random solution graphs with many tied paths and with few.  The
    Schedule keeps the timing build_schedule made, which ``timing_of``
    gives; without one, ``timing_of`` times the graph from scratch."""
    rng = random.Random(5)
    for case in range(60):
        inst = random_instance(rng, max_time=2 if case % 2 else 10)
        sched = random_schedule(rng, inst)
        timing = time_graph(build_arcs(inst, sched.sequences),
                            sched.actual_times)
        assert sorted(timing.order) == list(range(inst.num_operations + 2))
        assert all(timing.rank[u] == timing.order.index(u)
                   for u in timing.order)
        assert sched.timing == timing
        assert timing_of(inst, sched) is sched.timing
        assert timing_of(inst, replace(sched, timing=None)) == timing


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
    sched = build_schedule(inst, [[4, 1], [3, 2]])
    assert sched.makespan == 274
    assert sched.critical_path == (0, 3, 2, 5)
    assert _tau(sched) == (0, 2)


def test_critical_path_is_walked_when_first_read(fig1, monkeypatch):
    """build_schedule walks no path; a Schedule walks its critical path
    from its timing when the path is first read, keeps it, and refuses to
    without a timing.  On a tie along the walked path the graph is timed
    again from scratch, once and with the timing's own weights, so a
    timing whose setters broke the tie the other way still gives the
    depth-first order's path and τ; without one nothing is timed."""
    import flexshop.graph

    walks, timed = [], []
    walk, time_from_scratch = flexshop.graph.critical_path, time_graph
    monkeypatch.setattr(flexshop.graph, "critical_path",
                        lambda *args: walks.append(args) or walk(*args))
    monkeypatch.setattr(
        flexshop.graph, "time_graph",
        lambda *args: timed.append(args) or time_from_scratch(*args))
    sched = build_schedule(fig1, [[2], [1, 4, 5, 3]])
    assert walks == [] and "critical_path" not in sched.__dict__
    timed.clear()
    assert sched.critical_path == (0, 1, 4, 5, 3, 6)
    assert sched.critical_path == (0, 1, 4, 5, 3, 6)
    assert len(walks) == 1 and timed == []
    with pytest.raises(ValueError, match="no critical path"):
        replace(sched, timing=None).critical_path

    inst = parse_instance("4 2 0.2\n2 1 2 2 2\n1 2 2\n1 2 1\n1 1 1\n0\n")
    tied = build_schedule(inst, [[4, 1], [3, 2]])
    sink = len(tied.timing.start) - 1
    assert tied.timing.tied[sink] and tied.timing.setter[sink] == 2
    setter = tied.timing.setter.copy()
    setter[sink] = 1  # the other tied predecessor
    other = tied.timing._replace(setter=setter)
    # its own setters lead back from t along 1 and 4: the path 0-4-1-5
    assert (other.setter[1], other.setter[4]) == (4, SOURCE)
    timed.clear()
    assert critical_path(other, tied.sequences) == ((0, 3, 2, 5), 274, (0, 2))
    assert timed == [(other.succs, tied.actual_times)]
    assert replace(tied, timing=other).critical_path == (0, 3, 2, 5)
    assert len(timed) == 2


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
        on_path = set(sched.critical_path[1:-1])
        tau = _tau(sched)
        for k in (1, 2):
            machine_ops = set(sched.sequences[k - 1])
            if tau[k - 1] == 0:
                assert not (machine_ops & on_path)
            else:
                last = sched.sequences[k - 1][tau[k - 1] - 1]
                assert last in on_path


def test_validate_detects_stale_times(fig1, fig2a):
    fig2a.actual_times[4] = 1
    violations = validate_schedule(fig1, fig2a)
    assert any("stale" in v for v in violations)


def test_validate_reports_a_cyclic_solution_graph(fig1):
    """Machine sequences that contradict a precedence arc (1→2), in a
    Schedule built by hand with current times, are reported as a cycle
    instead of raised."""
    sequences = ((2, 1), (3, 4, 5))
    times = [0] * (fig1.num_operations + 2)
    for k, seq in enumerate(sequences, start=1):
        for pos, op in enumerate(seq, start=1):
            times[op] = actual_time(fig1.std_time[(op, k)], pos,
                                    fig1.learning_rate)
    assert validate_schedule(fig1, Schedule(sequences, times, 0)) == [
        "solution graph contains a cycle"]


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


def test_schedule_stores_its_solution_once(fig1, fig2b):
    """The machine sequences are the one stored encoding: the assignment is
    derived from them, machine by machine in sequence order."""
    assert [f.name for f in fields(Schedule)] == [
        "sequences", "actual_times", "makespan", "timing"]
    assert list(fig2b.assignment.items()) == [(1, 2), (2, 2), (4, 2), (5, 2),
                                              (3, 2)]
    moved = build_schedule(fig1, [[2], [1, 4, 5, 3]])
    assert list(moved.assignment.items()) == [(2, 1), (1, 2), (4, 2), (5, 2),
                                              (3, 2)]


def test_schedule_key_identity(fig1, fig2a):
    same = build_schedule(fig1, [list(s) for s in fig2a.sequences])
    assert same.key() == fig2a.key()
