import copy
import dataclasses
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from flexshop import (
    CycleError,
    Instance,
    ScheduleError,
    actual_time,
    build_schedule,
    enumerate_neighbors,
    feasible_window,
    insert_op,
    parse_instance,
    perturb,
    reachable_from,
    remove_op,
    validate_schedule,
)
from flexshop.constructive import best_of_est_ect
from flexshop.graph import build_arcs, critical_path, time_graph
from flexshop.moves import NEIGHBORHOOD_MODES

from conftest import (
    random_instance,
    reach_bounds,
    reference_critical_path,
    reference_insertion,
    reference_loss,
    scratch_removal,
    tie_walks,
)


def test_remove_goldens(fig1, fig2a):
    rs = remove_op(fig1, fig2a, 2)
    assert rs.removed == 2
    assert rs.q_minus == ((), (1, 4, 5, 3))
    assert rs.w_minus[2] == 0
    assert rs.xi == 658  # critical path did not pass through op 2
    assert rs.tau == (0, 4)
    assert reachable_from(rs.timing.preds, 2) == {0, 1, 2}
    assert reachable_from(rs.timing.succs, 2) == {2, 3, 6}
    assert rs.cycle_bounds(2) == (1, 4)


def test_remove_retimes_shifted_operations(fig1, fig2a):
    rs = remove_op(fig1, fig2a, 5)
    assert rs.q_minus == ((2,), (1, 4, 3))
    # op 3 moves from position 4 to position 3: psi(1, 3) = 33
    assert rs.w_minus[3] == 33
    # op 4 keeps position 2
    assert rs.w_minus[4] == 500


def test_remove_preserves_precedence_arcs(fig1, fig2a):
    # removing op 2 must not drop the precedence arcs 1->2 and 2->3
    rs = remove_op(fig1, fig2a, 2)
    assert 1 in reachable_from(rs.timing.preds, 2)
    assert 3 in reachable_from(rs.timing.succs, 2)


def test_remove_single_operation_gives_zero_length():
    inst = parse_instance("1 2 1.0\n2 1 4 2 4\n0")
    sched = build_schedule(inst, [[1], []])
    rs = remove_op(inst, sched, 1)
    assert rs.xi == 0
    assert rs.tau == (0, 0)


def test_window_golden_with_reduction(fig1, fig2a):
    rs = remove_op(fig1, fig2a, 2)
    window = feasible_window(rs, 2, reduction_active=True, c_max=fig2a.makespan)
    assert window.lower == 1  # op 1 must stay before op 2
    assert window.upper == 4  # op 3 (position 4) must stay after op 2
    assert window.upper_effective == 4  # tau_2 = 4 does not narrow further
    assert list(window.positions) == [2, 3, 4]
    assert list(window.cycle_free) == [2, 3, 4]


def test_window_on_empty_machine(fig1, fig2b):
    rs = remove_op(fig1, fig2b, 2)
    window = feasible_window(rs, 1, reduction_active=False, c_max=0)
    assert list(window.cycle_free) == [1]


def test_window_empty_under_reduction(fig1, fig2b):
    # after removing op 2 from the 528 schedule, machine 1 carries no
    # critical operation (tau_1 = 0); with xi >= C_max nothing survives
    rs = remove_op(fig1, fig2b, 2)
    if rs.xi >= fig2b.makespan:
        window = feasible_window(rs, 1, True, fig2b.makespan)
        assert list(window.positions) == []


def test_insert_golden_improvement(fig1, fig2a):
    rs = remove_op(fig1, fig2a, 2)
    sched = insert_op(fig1, rs, 2, 2, 2)
    assert sched.makespan == 528
    assert sched.sequences == ((), (1, 2, 4, 5, 3))
    assert validate_schedule(fig1, sched) == []


# the one checked way in: it checks its slot before it builds anything
ENTRIES = {
    "insert_op": lambda inst, rs, k, gamma: insert_op(inst, rs, rs.removed,
                                                      k, gamma),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("gamma", [0, 1, 5, 6])
def test_insert_outside_window_raises(fig1, fig2a, entry, gamma):
    # op 2's window on machine 2 is 2..4: position 1 is before op 1, its
    # predecessor, position 5 after op 3, its successor
    rs = remove_op(fig1, fig2a, 2)
    with pytest.raises(CycleError, match=rf"position {gamma} of machine 2 "
                       r"creates a cycle \(window 2\.\.4\)"):
        ENTRIES[entry](fig1, rs, 2, gamma)


def test_insert_rejects_other_operation(fig1, fig2a):
    rs = remove_op(fig1, fig2a, 2)
    with pytest.raises(ValueError, match="holds operation 2, not 5"):
        insert_op(fig1, rs, 5, 2, 2)


@pytest.mark.parametrize("k", [0, 3, -1])
def test_window_rejects_unknown_machine(fig1, fig2a, k):
    rs = remove_op(fig1, fig2a, 2)
    with pytest.raises(ValueError, match=rf"no machine {k}: machines are 1\.\.2"):
        feasible_window(rs, k, reduction_active=False, c_max=0)


@pytest.mark.parametrize("k", [0, 3])
def test_insert_rejects_unknown_machine(fig1, fig2a, k):
    rs = remove_op(fig1, fig2a, 2)
    with pytest.raises(ValueError, match=rf"no machine {k}: machines are 1\.\.2"
                       ) as excinfo:
        insert_op(fig1, rs, 2, k, 1)
    assert not isinstance(excinfo.value, ScheduleError)


@pytest.mark.parametrize("entry", ENTRIES)
def test_insert_on_ineligible_machine_raises(entry):
    inst = parse_instance("2 2 1.0\n1 1 4\n2 1 3 2 3\n0")
    sched = build_schedule(inst, [[1, 2], []])
    rs = remove_op(inst, sched, 1)
    with pytest.raises(ScheduleError, match="operation 1 on ineligible machine 2"):
        ENTRIES[entry](inst, rs, 2, 1)


@pytest.mark.parametrize("v, k, gamma, error, message", [
    # a wrong operation is reported before a slot outside the window
    (2, 2, 5, ValueError, "holds operation 1, not 2"),
    (2, 3, 1, ValueError, "holds operation 1, not 2"),
    # a slot outside the window is reported before an ineligible machine
    (1, 2, 2, CycleError, r"position 2 of machine 2 creates a cycle"),
])
def test_insert_checks_operation_then_window_then_machine(v, k, gamma, error,
                                                          message):
    inst = parse_instance("2 2 1.0\n1 1 4\n2 1 3 2 3\n0")
    sched = build_schedule(inst, [[1, 2], []])
    rs = remove_op(inst, sched, 1)
    with pytest.raises(error, match=message) as excinfo:
        insert_op(inst, rs, v, k, gamma)
    assert type(excinfo.value) is error


def test_remove_insert_identity(fig1, fig2a):
    for v in fig1.operations:
        rs = remove_op(fig1, fig2a, v)
        back = insert_op(fig1, rs, v, fig2a.assignment[v], fig2a.position_of(v))
        assert back.key() == fig2a.key()
        assert back.makespan == fig2a.makespan


def test_neighborhood_counts_fig2a(fig1, fig2a):
    full = list(enumerate_neighbors(fig1, fig2a, "full"))
    reduced = list(enumerate_neighbors(fig1, fig2a, "reduced"))
    cropped = list(enumerate_neighbors(fig1, fig2a, "cropped"))
    assert len(full) == 20
    assert len(reduced) == 18
    assert len(cropped) == 15
    with pytest.raises(ValueError):
        list(enumerate_neighbors(fig1, fig2a, "bogus"))


def test_reduced_contains_key_move_cropped_does_not(fig1, fig2a):
    reduced = list(enumerate_neighbors(fig1, fig2a, "reduced"))
    assert any(
        (m.operation, m.machine, m.position, m.schedule.makespan) == (2, 2, 2, 528)
        for m in reduced
    )
    cropped = list(enumerate_neighbors(fig1, fig2a, "cropped"))
    assert all(m.operation != 2 for m in cropped)
    # op 2 is not on the 658 critical path, which is why cropping misses
    # the improving move
    assert 2 not in fig2a.critical_path


def test_neighbor_subset_chain_and_validity():
    rng = random.Random(23)
    for _ in range(25):
        inst = random_instance(rng)
        sched = best_of_est_ect(inst)
        full = {(m.operation, m.machine, m.position): m.schedule
                for m in enumerate_neighbors(inst, sched, "full")}
        reduced = {(m.operation, m.machine, m.position)
                   for m in enumerate_neighbors(inst, sched, "reduced")}
        cropped = {(m.operation, m.machine, m.position)
                   for m in enumerate_neighbors(inst, sched, "cropped")}
        assert cropped <= reduced <= set(full)
        for neighbor in full.values():
            assert validate_schedule(inst, neighbor) == []


def test_reduction_never_prunes_improving_moves():
    """Every pruned neighbor, force-evaluated, is at least as long as the
    current makespan, so the reduced neighborhood keeps every improvement."""
    rng = random.Random(31)
    checked = 0
    for _ in range(100):
        inst = random_instance(rng, max_ops=8)
        sched = best_of_est_ect(inst)
        reduced = {(m.operation, m.machine, m.position)
                   for m in enumerate_neighbors(inst, sched, "reduced")}
        for move in enumerate_neighbors(inst, sched, "full"):
            if (move.operation, move.machine, move.position) not in reduced:
                assert move.schedule.makespan >= sched.makespan
                checked += 1
    assert checked > 0  # the rule actually pruned something


def test_scan_order_is_deterministic(fig1, fig2a):
    seq1 = [(m.operation, m.machine, m.position)
            for m in enumerate_neighbors(fig1, fig2a, "reduced")]
    seq2 = [(m.operation, m.machine, m.position)
            for m in enumerate_neighbors(fig1, fig2a, "reduced")]
    assert seq1 == seq2
    assert seq1 == sorted(seq1)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(NEIGHBORHOOD_MODES),
       arc_prob=st.sampled_from((0.0, 0.15, 0.3, 0.6)), walk=st.integers(0, 3),
       max_time=st.sampled_from((2, 10)))
def test_incremental_makespan_matches_rebuild(seed, mode, arc_prob, walk,
                                              max_time):
    """Every neighbor's lower bound is at most its makespan, which equals
    the one of its rebuilt graph, and its materialized Schedule is valid.
    Makespans are read only once the scan has finished, so each move must
    price itself from its own removal, not the scan's latest one."""
    rng = random.Random(seed)
    inst = random_instance(rng, max_ops=12, max_machines=4, arc_prob=arc_prob,
                           max_time=max_time)
    sched = best_of_est_ect(inst)
    for _ in range(walk):  # leave the constructive start's structure
        sched = perturb(inst, sched, rng)
    for move in list(enumerate_neighbors(inst, sched, mode)):
        v, k, gamma = move.operation, move.machine, move.position
        reference = reference_insertion(inst, scratch_removal(inst, sched, v),
                                        v, k, gamma)
        assert move.makespan == reference.makespan
        assert move.bound <= move.makespan
        assert move.head_tail_bound <= move.makespan
        sequences = [list(seq) for seq in sched.sequences]
        sequences[sched.assignment[v] - 1].remove(v)
        sequences[k - 1].insert(gamma - 1, v)
        rebuilt = build_schedule(inst, sequences)
        assert move.makespan == rebuilt.makespan
        assert validate_schedule(inst, move.schedule) == []
        assert move.schedule.key() == rebuilt.key()


def _chain_instance(rng: random.Random, max_time: int) -> Instance:
    """Jobs of 1-4 chained operations on up to 4 machines."""
    m = rng.randint(1, 4)
    eligible, std_time, arcs = [], {}, set()
    for _ in range(rng.randint(1, 4)):
        for step in range(rng.randint(1, 4)):
            op = len(eligible) + 1
            machines = sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))
            eligible.append(tuple(machines))
            std_time.update({(op, k): rng.randint(1, max_time)
                             for k in machines})
            if step:
                arcs.add((op - 1, op))
    return Instance(len(eligible), m, tuple(eligible), std_time,
                    frozenset(arcs), rng.choice((0.1, 0.2, 0.3)), "chain")


def _large_instance(rng: random.Random, layout: str) -> Instance:
    """A 200-300 operation instance with 1-3 eligible machines per
    operation: a DAG of arcs i→j for j ≤ i + 6, each with probability 0.3
    and times in 1..99, or jobs of 9-11 chained operations with times in
    1..19."""
    m = rng.randint(8, 10)
    if layout == "dag":
        n, max_time = rng.randint(200, 300), 99
        arcs = {(i, j) for i in range(1, n + 1)
                for j in range(i + 1, min(n, i + 6) + 1)
                if rng.random() < 0.3}
    else:
        lengths = [rng.randint(9, 11) for _ in range(rng.randint(20, 27))]
        n, max_time = sum(lengths), 19
        firsts = {1 + sum(lengths[:i]) for i in range(len(lengths))}
        arcs = {(op - 1, op) for op in range(2, n + 1) if op not in firsts}
    eligible, std_time = [], {}
    for op in range(1, n + 1):
        machines = sorted(rng.sample(range(1, m + 1), rng.randint(1, 3)))
        eligible.append(tuple(machines))
        std_time.update({(op, k): rng.randint(1, max_time)
                         for k in machines})
    return Instance(n, m, tuple(eligible), std_time, frozenset(arcs), 0.2,
                    f"{layout}-{n}")


def _tie_heavy(inst: Instance, rng: random.Random, alpha: float) -> Instance:
    """``inst`` with standard times in {1, 2} and learning rate ``alpha``."""
    return dataclasses.replace(
        inst, std_time={key: rng.randint(1, 2) for key in inst.std_time},
        learning_rate=alpha)


def test_pricing_meets_every_case_of_the_pull_rule():
    """Full scans of tie-heavy chain and DAG instances, times in {1, 2},
    at α 0.2, 1, 3 and 0: every priced makespan is ``build_schedule``'s for
    its slot, on every move of small instances and every 20th of 200-300
    operation ones.  Counted from G⁻'s timing and the rebuilt G⁺'s, the
    scans meet three cases of the marking, which stales every successor of
    a re-timed operation: a successor whose start it neither reaches nor
    set, re-timed to no change; one whose start falls because the
    operation that set it finishes earlier; and a follower whose start v
    sets.  A pricing that leaves either of the last two unmarked
    misprices."""
    rng = random.Random(23)
    cases = []
    for case in range(90):
        small = (_chain_instance(rng, 2) if case % 2 else
                 random_instance(rng, max_ops=12, max_machines=4))
        cases.append((small, 1))
    for layout in ("dag", "chain"):
        cases.append((_large_instance(rng, layout), 20))
    priced = slack = setter_fell = v_sets = 0
    for index, (inst, stride) in enumerate(cases):
        inst = _tie_heavy(inst, rng, (0.2, 1, 3, 0)[index % 4])
        sched = best_of_est_ect(inst)
        for _ in range(index % 3):  # leave the constructive start
            sched = perturb(inst, sched, rng)
        for move in islice(enumerate_neighbors(inst, sched, "full"), 0, None,
                           stride):
            v, k, gamma = move.operation, move.machine, move.position
            sequences = [list(seq) for seq in sched.sequences]
            sequences[sched.assignment[v] - 1].remove(v)
            sequences[k - 1].insert(gamma - 1, v)
            rebuilt = build_schedule(inst, sequences)
            assert move.makespan == rebuilt.makespan, (index, v, k, gamma)
            priced += 1
            reduced, done = move._rs.timing, rebuilt.timing.completion
            for u in inst.operations:
                old = reduced.completion[u]
                if u == v or done[u] == old:
                    continue
                for j in reduced.succs[u]:
                    slack += done[u] <= reduced.start[j] != old
                    setter_fell += done[u] < old == reduced.start[j]
            seq = move._rs.q_minus[k - 1]
            if gamma <= len(seq):
                follower = seq[gamma - 1]
                v_sets += done[v] > max(done[i]
                                        for i in reduced.preds[follower])
    assert priced > 2000
    assert slack > 0 and setter_fell > 0 and v_sets > 0


def test_searched_windows_match_reach_sets(monkeypatch):
    """A random relocation's window comes from two rank-ordered searches
    of G⁻ that stop at the asked machine: on every removal of 200-300
    operation DAG and chain instances and of tie-heavy small ones, after
    a few of SA's drawn moves, every machine's window, the removed
    operation's own included, is the one that v's reach sets in G⁻ give:
    from the removal's timing, in G's order and ranks, searched over G's
    arc lists rewired into G⁻'s, and over G's own lists with only v's
    rewired, as a random relocation searches them.  Removals whose path
    walk settled a tie by the zero-weight rule or by rank keep G's order
    too."""
    from flexshop.moves import random_relocation

    from flexshop.moves import _rewired, _searched_bounds

    walks = tie_walks(monkeypatch)
    rng = random.Random(1711)
    cases = [_large_instance(rng, layout) for layout in ("dag", "chain") * 2]
    cases += [random_instance(rng, max_ops=12, max_machines=4, max_time=2)
              for _ in range(60)]
    for inst in cases:
        sched = best_of_est_ect(inst)
        for _ in range(rng.randint(1, 3)):
            sched = random_relocation(inst, sched, rng)
        graph = sched.timing
        for v in inst.operations:
            rs = remove_op(inst, sched, v)
            assert rs.timing.order is graph.order
            assert rs.timing.rank is graph.rank
            ancestors = reachable_from(rs.timing.preds, v)
            descendants = reachable_from(rs.timing.succs, v)
            # G's arc lists rewired into G⁻'s, searched in G's order
            seq = sched.sequences[sched.assignment[v] - 1]
            i = seq.index(v)
            prev = seq[i - 1] if i else None
            nxt = seq[i + 1] if i + 1 < len(seq) else None
            succs, preds, backward = _rewired(
                inst, graph, ((prev, v), (v, nxt)), ((prev, nxt),))
            assert backward == []
            ends = preds[v], succs[v]
            for k, seq in enumerate(rs.q_minus, start=1):
                want = reach_bounds(seq, ancestors, descendants)
                assert rs.cycle_bounds(k) == want, (v, k)
                assert _searched_bounds(succs, preds, graph.order,
                                        graph.rank, ends, seq) == want, (v, k)
                # a random relocation's: G's own lists, with only v's rewired
                assert _searched_bounds(graph.succs, graph.preds, graph.order,
                                        graph.rank, ends, seq) == want, (v, k)
    # removals whose path walk settled a tie each way are covered
    assert "zero-weight" in walks and "order" in walks


def test_head_tail_bound_never_exceeds_makespan():
    """On every neighbor of full, reduced and cropped scans of DAG and
    chain instances, tie-heavy ones included, from timed schedules and
    from built moves' carried timings, the head-tail bound is at most the
    makespan of the rebuilt graph, and it rules out moves that the first
    bound leaves a chance against the scanned makespan."""
    rng = random.Random(19)
    checked = ruled_out = 0
    for case in range(120):
        max_time = 2 if case % 3 else 10  # mostly tie-heavy
        if case % 2:
            inst = _chain_instance(rng, max_time)
        else:
            inst = random_instance(rng, max_ops=12, max_machines=4,
                                   max_time=max_time)
        sched = best_of_est_ect(inst)
        for _ in range(case % 3):
            sched = perturb(inst, sched, rng)
        for mode in NEIGHBORHOOD_MODES:
            moves = list(enumerate_neighbors(inst, sched, mode))
            for move in moves:
                v, k, gamma = move.operation, move.machine, move.position
                sequences = [list(seq) for seq in sched.sequences]
                sequences[sched.assignment[v] - 1].remove(v)
                sequences[k - 1].insert(gamma - 1, v)
                rebuilt = build_schedule(inst, sequences)
                assert move.head_tail_bound <= rebuilt.makespan, (v, k, gamma)
                checked += 1
                if move.bound < sched.makespan <= move.head_tail_bound:
                    ruled_out += 1
            if moves:  # the next scan starts from a built move's timing
                sched = moves[rng.randrange(len(moves))].schedule
    assert checked > 0 and ruled_out > 0


def test_derived_reduced_state_matches_rebuild(monkeypatch):
    """For every removal, the reduced graph derived from the schedule's
    own graph, in G's order, has the arcs, times, tie flags, setters of
    untied vertices, reach sets, windows, critical path, ξ and τ of the
    one built from scratch; path walks without a tie, and ones that settle
    ties by the zero-weight rule and by rank, all run on this fuzz set."""
    walks = tie_walks(monkeypatch)
    rng = random.Random(7)
    for case in range(160):
        max_time = 2 if case % 4 else 10  # mostly tie-heavy
        if case % 2:
            inst = _chain_instance(rng, max_time)
        else:
            inst = random_instance(rng, max_ops=12, max_machines=4,
                                   max_time=max_time)
        sched = best_of_est_ect(inst)
        for _ in range(case % 3):
            sched = perturb(inst, sched, rng)
        graph = sched.timing
        for v in inst.operations:
            want = scratch_removal(inst, sched, v)
            got = remove_op(inst, sched, v)
            assert (got.q_minus, got.w_minus) == (want.q_minus, want.w_minus)
            assert (got.path, got.xi, got.tau) == (want.path, want.xi,
                                                   want.tau)
            _assert_same_reach(inst, v, got, want)
            assert got.timing.succs == want.timing.succs
            assert got.timing.start == want.timing.start
            assert got.timing.completion == want.timing.completion
            assert ([sorted(p) for p in got.timing.preds]
                    == [sorted(p) for p in want.timing.preds])
            # only the order and the setters of tied vertices may differ
            assert got.timing.tied == want.timing.tied
            assert all(got.timing.setter[u] == want.timing.setter[u]
                       for u, tie in enumerate(want.timing.tied) if not tie)
            # derived: in G's order, which must suit G⁻
            assert got.timing.order is graph.order
            rank = got.timing.rank
            assert rank is graph.rank
            assert all(rank[u] < rank[j]
                       for u, succs in enumerate(got.timing.succs)
                       for j in succs)
    # a walk that settles a tie by rank sorts G⁻'s own arcs once (tie_walks)
    assert all(kind in walks for kind in ("tie-free", "zero-weight", "order"))


def _assert_same_reach(inst, v, got, want):
    """Two reduced states of one removal reach and are reached by the same
    vertices, and give the same windows on every machine."""
    assert (reachable_from(got.timing.preds, v)
            == reachable_from(want.timing.preds, v))
    assert (reachable_from(got.timing.succs, v)
            == reachable_from(want.timing.succs, v))
    assert ([got.cycle_bounds(k) for k in inst.machines]
            == [want.cycle_bounds(k) for k in inst.machines])


def _assert_built_like_scratch(inst, sched, v, k, gamma, got):
    """``got``, the Schedule that reinserts ``v`` at position ``gamma`` of
    machine ``k`` (in q⁻), equals build_schedule's for its sequences, field
    by field, and its timing has the rebuilt graph's arcs and times in a
    topological order with consistent ranks."""
    sequences = [list(seq) for seq in sched.sequences]
    sequences[sched.assignment[v] - 1].remove(v)
    sequences[k - 1].insert(gamma - 1, v)
    want = build_schedule(inst, sequences)
    assert got.sequences == want.sequences
    assert got.assignment == want.assignment
    assert got.actual_times == want.actual_times
    assert got.critical_path == want.critical_path
    assert got.makespan == want.makespan
    assert (critical_path(got.timing, got.sequences)
            == critical_path(want.timing, want.sequences))
    timing = got.timing
    scratch = time_graph(build_arcs(inst, want.sequences), want.actual_times)
    assert timing.succs == scratch.succs
    assert timing.start == scratch.start
    assert timing.completion == scratch.completion
    assert sorted(timing.order) == list(range(len(timing.succs)))
    assert all(timing.rank[u] == idx for idx, u in enumerate(timing.order))
    assert all(timing.rank[u] < timing.rank[j]
               for u, succs in enumerate(timing.succs) for j in succs)
    assert ([sorted(p) for p in timing.preds]
            == [sorted(p) for p in scratch.preds])


def _assert_removals_like_scratch(inst, sched):
    """Removals derived from a carried timing match removals from scratch."""
    for v in inst.operations:
        want = scratch_removal(inst, sched, v)
        got = remove_op(inst, sched, v)
        assert (got.path, got.xi, got.tau) == (want.path, want.xi, want.tau)
        _assert_same_reach(inst, v, got, want)
        assert got.timing.completion == want.timing.completion


STEPS = ("full", "reduced", "cropped", "perturb")


def _counting_time_graph(monkeypatch) -> list:
    """The calls of ``graph.time_graph``, patched to record each."""
    import flexshop.graph

    calls = []
    time_from_scratch = flexshop.graph.time_graph
    monkeypatch.setattr(
        flexshop.graph, "time_graph",
        lambda *args: calls.append(args) or time_from_scratch(*args))
    return calls


def test_incremental_build_matches_build_schedule(monkeypatch):
    """Every Schedule a scanned move builds from the scanned graph is the
    one build_schedule gives, along walks of scan moves and perturbations
    that carry each built timing to the next removal.  A build times
    nothing from scratch; builds that keep the order and that reorder it,
    and paths whose first read settles a tie by rank, all occur."""
    rebuilds = _counting_time_graph(monkeypatch)
    walks = tie_walks(monkeypatch)
    paths = {"in order": 0, "reordered": 0, "tie settled by rank on read": 0}

    def check(inst, sched, move):
        rebuilds.clear()
        timing = move.schedule.timing
        assert not rebuilds
        if timing.order is sched.timing.order:
            paths["in order"] += 1
        else:
            paths["reordered"] += 1
        walks.clear()
        move.schedule.critical_path
        paths["tie settled by rank on read"] += "order" in walks
        _assert_built_like_scratch(inst, sched, move.operation, move.machine,
                                   move.position, move.schedule)
        assert move.makespan == move.schedule.makespan

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), chain=st.booleans(),
           max_time=st.sampled_from((2, 2, 10)),
           steps=st.lists(st.sampled_from(STEPS), min_size=1, max_size=5))
    def walk(seed, chain, max_time, steps):
        rng = random.Random(seed)
        if chain:
            inst = _chain_instance(rng, max_time)
        else:
            inst = random_instance(rng, max_ops=12, max_machines=4,
                                   max_time=max_time)
        sched = best_of_est_ect(inst)
        for step in steps:
            if step == "perturb":
                sched = perturb(inst, sched, rng)
                built = build_schedule(inst, sched.sequences)
                assert sched == built
                assert sched.critical_path == built.critical_path
                _assert_removals_like_scratch(inst, sched)
                continue
            moves = list(enumerate_neighbors(inst, sched, step))
            for move in moves:
                check(inst, sched, move)
            if moves:
                sched = moves[rng.randrange(len(moves))].schedule
                _assert_removals_like_scratch(inst, sched)

    walk()
    assert all(paths.values()), paths


def _recounted_ties(timing) -> list:
    """Each vertex's tie flag, counted again from the timing's times."""
    finish = timing.completion.__getitem__
    return [list(map(finish, preds)).count(start) > 1
            for preds, start in zip(timing.preds, timing.start)]


def test_every_scanned_move_builds_what_insert_op_builds():
    """In full, reduced and cropped scans of tie-heavy DAG and chain
    instances (standard times in {1, 2}), every neighbor's Schedule, edited
    from the scanned graph G in one step, is the one insert_op builds in
    that slot of the reference removal, and equals field by field the one
    that the reference insertion edits from that removal's G⁻, and
    build_schedule's; the move to the operation's own slot is the scanned
    schedule itself.  Moves to another machine, to another slot of the own
    machine and to the own slot all occur."""
    kinds = dict.fromkeys(("other machine", "same machine", "own slot"), 0)
    rng = random.Random(59)
    for case in range(60):
        if case % 2:
            inst = _chain_instance(rng, 2)
        else:
            inst = random_instance(rng, max_ops=12, max_machines=4,
                                   max_time=2)
        sched = best_of_est_ect(inst)
        for _ in range(case % 3):
            sched = perturb(inst, sched, rng)
        for mode in NEIGHBORHOOD_MODES:
            for move in enumerate_neighbors(inst, sched, mode):
                v, k, gamma = move.operation, move.machine, move.position
                got = move.schedule
                _assert_built_like_scratch(inst, sched, v, k, gamma, got)
                origin = sched.assignment[v]
                if (k, gamma) == (origin, sched.position_of(v)):
                    assert got is sched
                    kinds["own slot"] += 1
                    continue
                kinds["same machine" if k == origin else "other machine"] += 1
                rs = scratch_removal(inst, sched, v)
                assert insert_op(inst, rs, v, k, gamma) == got
                want = reference_insertion(inst, rs, v, k, gamma)
                assert got == want and got.key() == want.key()
                assert got.critical_path == want.critical_path
                for name in ("succs", "start", "completion", "tied"):
                    assert getattr(got.timing, name) == getattr(want.timing,
                                                                name)
    assert all(kinds.values()), kinds


def test_insert_op_builds_what_the_reference_insertion_builds():
    """On every cycle-free slot of every eligible machine of every removal,
    along walks on tie-heavy DAG and chain instances (standard times in
    {1, 2}), from timed schedules and from ones built by hand without a
    timing, insert_op's Schedule, one edit of the removal's source G into
    G⁺, equals the reference insertion's, edited from G⁻: sequences,
    times, makespan, the timing's arcs, times and tie flags, and the
    critical path.  The own slot returns the removal's source itself.
    Slots on another machine and on the own one both occur."""
    from flexshop import Schedule

    kinds = dict.fromkeys(("other machine", "same machine", "own slot",
                           "untimed source"), 0)
    rng = random.Random(67)
    for case in range(40):
        if case % 2:
            inst = _chain_instance(rng, 2)
        else:
            inst = random_instance(rng, max_ops=12, max_machines=4,
                                   max_time=2)
        sched = best_of_est_ect(inst)
        for _ in range(case % 3):
            sched = perturb(inst, sched, rng)
        if case % 4 == 3:
            sched = Schedule(sched.sequences, sched.actual_times,
                             sched.makespan)
            kinds["untimed source"] += 1
        for v in inst.operations:
            rs = remove_op(inst, sched, v)
            assert rs.source is sched
            assert (rs.origin, rs.gamma) == (sched.assignment[v],
                                             sched.position_of(v))
            for k in inst.eligible_machines(v):
                window = feasible_window(rs, k, reduction_active=False,
                                         c_max=0)
                for gamma in window.cycle_free:
                    got = insert_op(inst, rs, v, k, gamma)
                    want = reference_insertion(inst, rs, v, k, gamma)
                    if (k, gamma) == (rs.origin, rs.gamma):
                        assert got is sched
                        kinds["own slot"] += 1
                        continue
                    kinds["same machine" if k == rs.origin
                          else "other machine"] += 1
                    assert got.sequences == want.sequences
                    assert got.actual_times == want.actual_times
                    assert got.makespan == want.makespan
                    for name in ("succs", "start", "completion", "tied"):
                        assert (getattr(got.timing, name)
                                == getattr(want.timing, name))
                    assert got.critical_path == want.critical_path
    assert all(kinds.values()), kinds


def test_scan_table_matches_reach_sets(monkeypatch):
    """On every removal of full, reduced and cropped scans, from a timed
    schedule and from a built move's carried timing, the scan table's
    windows on every machine are those of the reach sets of G⁻ built from
    scratch, its shifted times are actual_time's, each derived timing is
    in G's ranks, and the tie flags of the scanned, derived, from-scratch
    and built timings are recounts; removals through the table, and path
    walks without a tie and that settle ties by the zero-weight rule and
    by rank, all occur."""
    import flexshop.moves

    plain = flexshop.moves.remove_op
    walks = tie_walks(monkeypatch)
    removals = []

    def recorded(inst, sched, v, table=None):
        rs = plain(inst, sched, v, table)
        removals.append((table, rs, walks[-1]))
        return rs

    monkeypatch.setattr(flexshop.moves, "remove_op", recorded)
    paths = dict.fromkeys(("table", "tie-free", "zero-weight", "order"), 0)
    rng = random.Random(11)
    for case in range(90):
        max_time = 2 if case % 3 else 10  # mostly tie-heavy
        if case % 2:
            inst = _chain_instance(rng, max_time)
        else:
            inst = random_instance(rng, max_ops=12, max_machines=4,
                                   max_time=max_time)
        std, alpha = inst.std_time, inst.learning_rate
        sched = best_of_est_ect(inst)
        for _ in range(case % 3):
            sched = perturb(inst, sched, rng)
        for mode in NEIGHBORHOOD_MODES:
            removals.clear()
            moves = list(enumerate_neighbors(inst, sched, mode))
            for table, rs, walk in removals:
                assert table is not None and table.graph is sched.timing
                scanned = table.graph
                paths["table"] += 1
                assert scanned.tied == _recounted_ties(scanned)
                for k, seq in enumerate(sched.sequences, start=1):
                    assert table.earlier[k - 1] == [
                        actual_time(std[(op, k)], pos - 1, alpha)
                        for pos, op in enumerate(seq, start=1) if pos > 1]
                    assert table.later[k - 1] == [
                        actual_time(std[(op, k)], pos + 1, alpha)
                        for pos, op in enumerate(seq, start=1)]
                v = rs.removed
                want = scratch_removal(inst, sched, v)
                assert rs.w_minus == want.w_minus
                for k in inst.machines:  # want's: from G⁻'s reach sets
                    assert rs.cycle_bounds(k) == want.cycle_bounds(k)
                assert rs.timing.rank is scanned.rank
                paths[walk] += 1
                assert rs.timing.tied == _recounted_ties(rs.timing)
                assert want.timing.tied == _recounted_ties(want.timing)
            for move in moves:
                seq = move._rs.q_minus[move.machine - 1]
                assert move._later == [
                    actual_time(std[(op, move.machine)], pos + 1, alpha)
                    for pos, op in enumerate(seq, start=1)]
            for move in moves[::3]:
                timing = move.schedule.timing
                assert timing.tied == _recounted_ties(timing)
            if moves:  # the next scan starts from a built move's timing
                sched = moves[rng.randrange(len(moves))].schedule
    assert all(paths.values()), paths


def test_carried_timings_are_never_mutated():
    """A schedule's timing lives as long as the schedule (an incumbent, a
    descent's result) and shares lists with the timings edited from it, so
    no scan, pricing, build or perturbation changes one in place: neither
    the scanned schedule's nor those of the reduced graphs its moves
    share, along walks that scan built moves' carried timings."""
    rng = random.Random(29)
    priced = built = 0
    for case in range(40):
        max_time = 2 if case % 3 else 10  # mostly tie-heavy
        if case % 2:
            inst = _chain_instance(rng, max_time)
        else:
            inst = random_instance(rng, max_ops=12, max_machines=4,
                                   max_time=max_time)
        sched = best_of_est_ect(inst)
        for mode in NEIGHBORHOOD_MODES:
            kept = copy.deepcopy(sched.timing)
            moves = list(enumerate_neighbors(inst, sched, mode))
            reduced = {id(m._rs): m._rs for m in moves}
            shared = {key: copy.deepcopy(rs.timing)
                      for key, rs in reduced.items()}
            for move in moves:
                assert move.head_tail_bound <= move.makespan
                priced += 1
            for move in moves[::4]:
                assert move.schedule.timing is not None
                built += 1
            perturb(inst, sched, rng)
            assert sched.timing == kept
            for key, rs in reduced.items():
                assert rs.timing == shared[key]
            if moves:  # the next scan reads a built move's carried timing
                sched = moves[rng.randrange(len(moves))].schedule
    assert priced > 0 and built > 0


def _reference_draw(inst, sched, rng) -> tuple:
    """``(v, k, gamma, rs)``: a random relocation's draws, made through the
    reference removal ``remove_op`` and its window."""
    v = rng.randint(1, inst.num_operations)
    rs = remove_op(inst, sched, v)
    machines = sorted(inst.eligible_machines(v))
    k = machines[rng.randrange(len(machines))]
    window = feasible_window(rs, k, reduction_active=False, c_max=0)
    return v, k, rng.randint(window.lower + 1, window.upper), rs


def test_perturb_builds_the_checked_insertion_of_its_draw(monkeypatch):
    """Every perturbation, a random relocation, makes the draws that a
    removal and its cycle-free window make, in the same order, and builds
    what the reference insertion edits from that removal's G⁻ in the drawn
    slot and build_schedule builds from its sequences, timing and critical
    path included, along walks on small, tie-heavy, chain and 200-300
    operation instances that carry each built timing to the next draw.  A relocation times nothing from
    scratch.  Draws to another machine, to another slot of the own machine
    and back into the own slot, builds that keep the order and that
    reorder it, and paths whose first read settles a tie by rank, all
    occur."""
    rebuilds = _counting_time_graph(monkeypatch)
    walks = tie_walks(monkeypatch)
    kinds = dict.fromkeys(("other machine", "same machine", "own slot",
                           "in order", "reordered",
                           "tie settled by rank on read"), 0)
    rng = random.Random(37)
    cases = [(_large_instance(rng, layout), 6) for layout in ("dag", "chain")]
    for case in range(90):
        max_time = 2 if case % 3 else 10  # mostly tie-heavy
        if case % 2:
            inst = _chain_instance(rng, max_time)
        else:
            inst = random_instance(rng, max_ops=12, max_machines=4,
                                   max_time=max_time)
        cases.append((inst, 8))
    for inst, steps in cases:
        sched = best_of_est_ect(inst)
        for _ in range(steps):
            state = rng.getstate()
            v, k, gamma, rs = _reference_draw(inst, sched, rng)
            after = rng.getstate()
            rng.setstate(state)
            rebuilds.clear()
            got = perturb(inst, sched, rng)
            assert rng.getstate() == after
            origin = sched.assignment[v]
            if (k, gamma) == (origin, sched.position_of(v)):
                assert got is sched
                kinds["own slot"] += 1
                continue
            kinds["same machine" if k == origin else "other machine"] += 1
            assert not rebuilds
            if got.timing.order is sched.timing.order:
                kinds["in order"] += 1
            else:
                kinds["reordered"] += 1
            walks.clear()
            got.critical_path
            kinds["tie settled by rank on read"] += "order" in walks
            want = reference_insertion(inst, rs, v, k, gamma)
            assert got == want and got.key() == want.key()
            assert got.critical_path == want.critical_path
            _assert_built_like_scratch(inst, sched, v, k, gamma, got)
            assert validate_schedule(inst, got) == []
            sched = got
    assert all(kinds.values()), kinds


def test_sa_candidate_prices_what_it_builds():
    """SA prices a candidate, a random relocation, by the makespan of the
    Schedule it returns; that Schedule is the one the reference insertion
    edits from the removal's G⁻ in the drawn slot, its makespan is
    build_schedule's for its sequences, and it is valid."""
    from flexshop.moves import random_relocation

    rng = random.Random(41)
    for _ in range(20):
        inst = random_instance(rng)
        sched = best_of_est_ect(inst)
        for _ in range(3):
            state = rng.getstate()
            v, k, gamma, rs = _reference_draw(inst, sched, rng)
            rng.setstate(state)
            candidate = random_relocation(inst, sched, rng)
            built = reference_insertion(inst, rs, v, k, gamma)
            assert candidate.makespan == built.makespan
            assert (candidate.makespan
                    == build_schedule(inst, candidate.sequences).makespan)
            assert candidate == built
            assert candidate.critical_path == built.critical_path
            assert validate_schedule(inst, candidate) == []
            sched = candidate


def test_relocations_read_no_assignment(monkeypatch):
    """A random relocation finds the drawn operation's machine among its
    eligible machines' sequences: along a 50-step perturb walk and a
    capped SA run on a 200-300 operation DAG, no returned Schedule, and
    not the run's record, ever builds its operation -> machine dict."""
    import flexshop.metaheuristics
    from flexshop import MetaConfig, run

    inst = _large_instance(random.Random(43), "dag")
    rng = random.Random(47)
    walk = [best_of_est_ect(inst)]
    for _ in range(50):
        walk.append(perturb(inst, walk[-1], rng))
    returned = []
    monkeypatch.setattr(
        flexshop.metaheuristics, "perturb",
        lambda *args: returned.append(perturb(*args)) or returned[-1])
    record = run(inst, MetaConfig(algo="sa", max_iterations=40, seed=3))
    assert len(returned) == 120
    for sched in walk + returned + [record.schedule]:
        assert "assignment" not in sched.__dict__


def test_every_built_schedule_has_build_schedules_path(monkeypatch):
    """Every Schedule that a scanned move (``Move.schedule``), a random
    relocation or a constructive start (``best_of_est_ect``) builds, and
    every record of capped {ils, grasp, ts, sa} x {reduced, cropped} runs, has the critical path that
    build_schedule gives for its sequences, on random, tie-heavy (times in
    {1, 2}) and chain instances and along 30-step relocation walks.  Paths
    first read after the run, and ones whose read settles a tie by rank,
    both occur for each kind.  So does every removal of full scans along
    the tie-heavy walks: the path, ξ and τ it walked, and those that
    ``critical_path`` gives for its derived timing of G⁻, are the ones G⁻
    timed from scratch gives, and walks without a tie and that settle
    ties by the zero-weight rule and by rank all occur."""
    import flexshop.metaheuristics
    import flexshop.moves
    from flexshop import MetaConfig, run

    built = {"scanned": [], "relocation": [], "start": []}

    def recording(kind, module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: built[kind].append(
            original(*args)) or built[kind][-1])

    applied = flexshop.moves.Move.schedule

    def scanned(move):  # each scanned move's Schedule once, when built
        fresh = move._schedule is None
        sched = applied.fget(move)
        if fresh:
            built["scanned"].append(sched)
        return sched

    monkeypatch.setattr(flexshop.moves.Move, "schedule", property(scanned))
    recording("relocation", flexshop.metaheuristics, "perturb")
    recording("start", flexshop.metaheuristics, "best_of_est_ect")
    walks = tie_walks(monkeypatch)
    kinds = [*built, "record"]
    read, tied = dict.fromkeys(kinds, 0), dict.fromkeys(kinds, 0)
    removals = dict.fromkeys(("tie-free", "zero-weight", "order"), 0)

    def check(inst, kind, sched):
        if "critical_path" not in sched.__dict__:
            read[kind] += 1
        walks.clear()
        path = sched.critical_path
        tied[kind] += "order" in walks
        assert path == build_schedule(inst, sched.sequences).critical_path

    rng = random.Random(53)
    for case in range(36):
        max_time = 2 if case % 3 else 10  # mostly tie-heavy
        if case % 2:
            inst = _chain_instance(rng, max_time)
        else:
            inst = random_instance(rng, max_ops=12, max_machines=4,
                                   max_time=max_time)
        for kind in built:
            built[kind].clear()
        records = [run(inst, MetaConfig(algo=algo, mode=mode,
                                        max_iterations=3, seed=case))
                   for algo in ("ils", "grasp", "ts", "sa")
                   for mode in ("reduced", "cropped")]
        walk = [flexshop.metaheuristics.best_of_est_ect(inst)]
        for _ in range(30):
            walk.append(flexshop.metaheuristics.perturb(inst, walk[-1], rng))
        for kind, schedules in built.items():
            for sched in schedules:
                check(inst, kind, sched)
        for record in records:
            assert record.schedule.timing is None
            check(inst, "record", record.schedule)
        if max_time == 2:
            for sched in walk:
                walks.clear()
                scanned = enumerate_neighbors(inst, sched, "full")
                for rs in {id(m._rs): m._rs for m in scanned}.values():
                    want = scratch_removal(inst, sched, rs.removed)
                    want = critical_path(want.timing, want.q_minus)
                    assert critical_path(rs.timing, rs.q_minus) == want
                    assert (rs.path, rs.xi, rs.tau) == want
                for kind in walks:  # one walk per removal
                    removals[kind] += 1
    assert all(read[kind] and tied[kind] for kind in built), (read, tied)
    assert all(removals.values()), removals
    assert read["record"] == 0  # each record carries the path its run read


def _tie_heavy_cases(rng: random.Random, small: int) -> list:
    """``small`` small DAG and chain instances, alternating, and a 200-300
    operation DAG and chain, all with standard times in {1, 2}."""
    cases = [_chain_instance(rng, 2) if case % 2 else
             random_instance(rng, max_ops=12, max_machines=4, max_time=2)
             for case in range(small)]
    return cases + [_tie_heavy(_large_instance(rng, layout), rng, 0.2)
                    for layout in ("dag", "chain")]


def test_critical_path_settles_ties_as_a_retiming_from_scratch(monkeypatch):
    """On every removal and every path read along scans, built moves,
    perturbations and capped tabu runs on tie-heavy DAG and chain
    instances, ``critical_path``'s (path, ξ, τ) is the walk over the same
    graph timed again from scratch (``reference_critical_path``).  Walks
    without a tie, walks whose ties the zero-weight rule settles and walks
    that settle a tie by rank each run more than once."""
    import flexshop.graph
    from flexshop import MetaConfig, run

    walks = tie_walks(monkeypatch)
    walk = flexshop.graph.critical_path

    def compared(timing, sequences):
        got = walk(timing, sequences)
        assert got == reference_critical_path(timing, sequences)
        return got

    for module in (flexshop.graph, flexshop.moves):
        monkeypatch.setattr(module, "critical_path", compared)
    rng = random.Random(71)
    for index, inst in enumerate(_tie_heavy_cases(rng, 40)):
        large = inst.num_operations > 100
        sched = best_of_est_ect(inst)
        for _ in range(index % 3):
            sched = perturb(inst, sched, rng)
        for mode in ("reduced",) if large else NEIGHBORHOOD_MODES:
            moves = list(enumerate_neighbors(inst, sched, mode))
            for move in moves[::40 if large else 3]:
                move.schedule.critical_path
        run(inst, MetaConfig.calibrated("ts", max_iterations=1 if large
                                        else 4, seed=index))
    assert all(walks.count(kind) > 1
               for kind in ("tie-free", "zero-weight", "order")), (
        walks.count("tie-free"), walks.count("zero-weight"),
        walks.count("order"))


def test_scans_yield_the_one_window_rule_and_its_first_bounds(monkeypatch):
    """On every removal of full, reduced and cropped scans of tie-heavy
    DAG and chain instances, the scan yields, machine by machine, the
    positions of ``feasible_window`` and at each position γ the first
    bound ξ minus what the critical path's operations at γ and after lose
    (``reference_loss``).  Windows that end before τ_k, whose bounds count
    path operations beyond the window's end, occur in every mode, and so
    do windows that the reduction cuts at τ_k in reduced and cropped
    scans."""
    import flexshop.moves

    plain = flexshop.moves.remove_op
    removals = []
    monkeypatch.setattr(flexshop.moves, "remove_op", lambda *args: (
        removals.append(plain(*args)) or removals[-1]))
    early = dict.fromkeys(NEIGHBORHOOD_MODES, 0)
    cut = dict.fromkeys(NEIGHBORHOOD_MODES, 0)
    rng = random.Random(73)
    for index, inst in enumerate(_tie_heavy_cases(rng, 40)):
        sched = best_of_est_ect(inst)
        for _ in range(index % 3):
            sched = perturb(inst, sched, rng)
        for mode in NEIGHBORHOOD_MODES:
            removals.clear()
            got = {}
            for move in enumerate_neighbors(inst, sched, mode):
                got.setdefault(id(move._rs), []).append(
                    (move.machine, move.position, move.bound))
            reduction = mode != "full"
            for rs in removals:
                want = []
                for k in sorted(inst.eligible_machines(rs.removed)):
                    window = feasible_window(rs, k, reduction, sched.makespan)
                    want += [(k, gamma,
                              rs.xi - reference_loss(inst, rs, k, gamma))
                             for gamma in window.positions]
                    if window.positions:
                        early[mode] += window.upper_effective < rs.tau[k - 1]
                        cut[mode] += window.upper_effective < window.upper
                assert got.get(id(rs), []) == want, (mode, rs.removed)
    assert all(early.values()), early
    assert cut["full"] == 0 and cut["reduced"] and cut["cropped"], cut


def test_relocations_walk_no_critical_path(monkeypatch):
    """On a 200-300 operation DAG, a 50-step perturb walk walks no
    critical path and times nothing from scratch, and a capped SA run
    walks one: its record's."""
    import flexshop.graph
    import flexshop.metaheuristics
    from flexshop import MetaConfig, run

    walks = []
    walk = flexshop.graph.critical_path
    for module in (flexshop.graph, flexshop.moves, flexshop.metaheuristics):
        if getattr(module, "critical_path", None) is walk:
            monkeypatch.setattr(
                module, "critical_path",
                lambda *args: walks.append(args) or walk(*args))
    inst = _large_instance(random.Random(43), "dag")
    sched = best_of_est_ect(inst)
    retimed = _counting_time_graph(monkeypatch)
    walks.clear()
    rng = random.Random(47)
    for _ in range(50):
        sched = perturb(inst, sched, rng)
    assert walks == [] and retimed == []
    record = run(inst, MetaConfig(algo="sa", max_iterations=40, seed=3))
    assert len(walks) == 1
    assert (record.schedule.critical_path
            == build_schedule(inst, record.schedule.sequences).critical_path)


def test_relocation_names_an_operation_on_no_eligible_machine():
    """A schedule whose drawn operation sits on none of its eligible
    machines is refused with a ScheduleError that names the operation."""
    from flexshop import Schedule
    from flexshop.moves import random_relocation

    inst = parse_instance("1 2 1.0\n1 1 3\n0")  # operation 1: machine 1
    stray = Schedule(((), (1,)), [0, 300, 0], 300)
    with pytest.raises(ScheduleError, match="operation 1 is on none of its "
                       r"eligible machines \[1\]"):
        random_relocation(inst, stray, random.Random(0))


def test_edit_refuses_a_second_backward_arc():
    """Swapping the two operations of each of two machines adds two arcs
    that point backwards in the order; one local reorder mends only one,
    so the edit is refused instead of timed in a wrong order."""
    from flexshop.moves import _edited

    inst = parse_instance("4 2 1.0\n1 1 3\n1 1 4\n1 2 5\n1 2 6\n0")
    sched = build_schedule(inst, [[1, 2], [3, 4]])
    swapped = ((2, 1), (4, 3))
    with pytest.raises(ValueError, match=r"machine arcs \(2, 1\) and "
                       r"\(4, 3\) both point backwards"):
        _edited(inst, sched.timing, ((1, 2), (3, 4)), swapped,
                list(sched.actual_times), {1, 2, 3, 4})


def test_schedule_without_timing_scans_as_the_timed_one():
    """A Schedule built by hand carries no timing; full, reduced and
    cropped scans of it yield the (v, k, γ, makespan) of the same
    schedule carrying its timing, in the same order: the cropped one
    walks the path of the graph that the scan times for its table.  A
    cropped descent from it follows the timed start's trajectory."""
    from flexshop import LocalSearchConfig, Schedule, local_search

    rng = random.Random(61)
    cropped = 0
    for case in range(30):
        inst = random_instance(rng, max_ops=10, max_machines=3,
                               max_time=2 if case % 2 else 10)
        timed = best_of_est_ect(inst)
        for _ in range(case % 3):
            timed = perturb(inst, timed, rng)
        bare = Schedule(timed.sequences, timed.actual_times, timed.makespan)
        assert bare.timing is None
        for mode in NEIGHBORHOOD_MODES:
            got, want = ([(m.operation, m.machine, m.position, m.makespan)
                          for m in enumerate_neighbors(inst, sched, mode)]
                         for sched in (bare, timed))
            assert got == want, mode
            cropped += mode == "cropped" and bool(got)
        cfg = LocalSearchConfig("cropped")
        got = local_search(inst, bare, cfg)
        want = local_search(inst, timed, cfg)
        assert got.iterates == want.iterates
        assert got.schedule == want.schedule
        assert got.neighbors_evaluated == want.neighbors_evaluated
    assert cropped
