import random

import pytest

from flexshop import (
    Instance,
    LocalSearchConfig,
    best_of_est_ect,
    enumerate_neighbors,
    local_search,
    validate_schedule,
)
from flexshop import moves

from conftest import FIG1_OPTIMUM, TickingClock, random_instance


def _is_local_optimum(inst, sched, mode="full"):
    return all(
        m.schedule.makespan >= sched.makespan
        for m in enumerate_neighbors(inst, sched, mode)
    )


def test_descent_from_fig2a(fig1, fig2a):
    result = local_search(fig1, fig2a, LocalSearchConfig("reduced", "best"))
    assert result.schedule.makespan == FIG1_OPTIMUM
    assert result.iterations == 2
    assert validate_schedule(fig1, result.schedule) == []
    assert _is_local_optimum(fig1, result.schedule)
    # trajectory records the start plus one entry per accepted move
    assert len(result.trajectory) == result.iterations + 1
    assert result.trajectory[0] == fig2a.key()
    assert result.trajectory[-1] == result.schedule.key()


def test_full_equals_reduced_on_fig2a(fig1, fig2a):
    full = local_search(fig1, fig2a, LocalSearchConfig("full", "best"))
    reduced = local_search(fig1, fig2a, LocalSearchConfig("reduced", "best"))
    assert full.trajectory == reduced.trajectory
    assert full.schedule.makespan == reduced.schedule.makespan
    assert reduced.neighbors_evaluated <= full.neighbors_evaluated


def test_descent_keys_its_iterates_only_when_read(monkeypatch):
    """A descent keeps each iterate's sequences and keys none of them; the
    trajectory read afterwards holds each iterate's ``Schedule.key``,
    starting solution included."""
    import sys

    import flexshop.graph

    keyed = []
    key = flexshop.graph.solution_key
    schedule_key = flexshop.graph.Schedule.key
    monkeypatch.setattr(sys.modules["flexshop.local_search"], "solution_key",
                        lambda seqs: keyed.append(seqs) or key(seqs))
    monkeypatch.setattr(flexshop.graph.Schedule, "key", None)
    rng = random.Random(47)
    descended = 0
    for _ in range(20):
        inst = random_instance(rng)
        start = best_of_est_ect(inst)
        result = local_search(inst, start)
        assert keyed == []
        assert len(result.iterates) == result.iterations + 1
        assert result.iterates[0] is start.sequences
        assert result.iterates[-1] is result.schedule.sequences
        assert result.trajectory == [
            schedule_key(flexshop.graph.build_schedule(inst, seqs))
            for seqs in result.iterates]
        assert len(keyed) == result.iterations + 1
        keyed.clear()
        descended += result.iterations > 0
    assert descended


def test_cropped_never_beats_reduced_on_fig2a(fig1, fig2a):
    reduced = local_search(fig1, fig2a, LocalSearchConfig("reduced", "best"))
    cropped = local_search(fig1, fig2a, LocalSearchConfig("cropped", "best"))
    assert cropped.schedule.makespan >= reduced.schedule.makespan


def test_full_equals_reduced_on_random_instances():
    rng = random.Random(41)
    for _ in range(40):
        inst = random_instance(rng)
        start = best_of_est_ect(inst)
        full = local_search(inst, start, LocalSearchConfig("full", "best"))
        reduced = local_search(inst, start, LocalSearchConfig("reduced", "best"))
        assert full.trajectory == reduced.trajectory
        assert full.schedule.makespan == reduced.schedule.makespan
        assert reduced.neighbors_evaluated <= full.neighbors_evaluated


def test_already_optimal_start_is_returned_unchanged(fig1, fig2a):
    optimum = local_search(fig1, fig2a).schedule
    again = local_search(fig1, optimum)
    assert again.iterations == 0
    assert again.schedule.key() == optimum.key()
    assert again.trajectory == [optimum.key()]


def test_first_improvement_reaches_a_local_optimum():
    rng = random.Random(43)
    for _ in range(20):
        inst = random_instance(rng)
        start = best_of_est_ect(inst)
        for mode in ("full", "reduced", "cropped"):
            result = local_search(inst, start, LocalSearchConfig(mode, "first"))
            assert result.schedule.makespan <= start.makespan
            assert validate_schedule(inst, result.schedule) == []
            # no strictly improving neighbor remains in the same mode
            assert _is_local_optimum(inst, result.schedule, mode)


def test_descent_is_monotone(fig1, fig2a):
    """Replay the trajectory: every accepted move strictly improves."""
    from flexshop import build_schedule

    result = local_search(fig1, fig2a, LocalSearchConfig("full", "best"))
    makespans = []
    for _, sequences in result.trajectory:
        sched = build_schedule(fig1, sequences)
        makespans.append(sched.makespan)
    assert makespans[0] == 658
    assert all(b < a for a, b in zip(makespans, makespans[1:]))


def test_descent_builds_one_schedule_per_applied_move(fig1, fig2a,
                                                     monkeypatch):
    import flexshop.moves

    calls = []
    build = flexshop.moves._relocated
    monkeypatch.setattr(flexshop.moves, "_relocated",
                        lambda *args: calls.append(args) or build(*args))
    rng = random.Random(47)
    cases = [(fig1, fig2a)]
    for _ in range(10):
        inst = random_instance(rng)
        cases.append((inst, best_of_est_ect(inst)))
    applied = 0
    for inst, start in cases:
        calls.clear()
        result = local_search(inst, start, LocalSearchConfig("reduced", "best"))
        assert len(calls) == result.iterations
        applied += result.iterations
    assert applied >= 2  # fig2a alone descends twice


def test_time_budget_zero_keeps_start_feasible(fig1, fig2a):
    result = local_search(fig1, fig2a, LocalSearchConfig("full", "best", 0.0))
    assert result.schedule.makespan <= fig2a.makespan
    assert validate_schedule(fig1, result.schedule) == []


def test_clock_run_out_after_a_move_ends_the_descent(fig1, fig2a,
                                                    monkeypatch):
    """A descent reads its clock once for its deadline, before each
    neighbor and after each applied move.  With a clock that ticks one
    second per read and a budget that runs out right after the first
    scan, the scan is not cut, its best move is applied and the descent
    stops there, although that move is no local optimum."""
    import importlib

    # the package re-exports the function under the module's name
    module = importlib.import_module("flexshop.local_search")
    scan = len(list(enumerate_neighbors(fig1, fig2a, "full")))
    moved = local_search(fig1, fig2a, LocalSearchConfig("full", "best"))
    assert moved.iterations >= 2
    clock = TickingClock()
    monkeypatch.setattr(module, "time", clock)
    result = local_search(fig1, fig2a,
                          LocalSearchConfig("full", "best", scan + 0.5))
    assert clock.reads == scan + 2
    assert result.iterations == 1
    assert result.neighbors_evaluated == scan
    assert result.iterates[1] == moved.iterates[1]
    assert result.schedule.makespan < fig2a.makespan


def test_config_validation():
    with pytest.raises(ValueError):
        LocalSearchConfig("bogus", "best")
    with pytest.raises(ValueError):
        LocalSearchConfig("full", "bogus")
    for bad in (-5, -1e-9, float("nan")):
        with pytest.raises(ValueError):
            LocalSearchConfig("full", "best", bad)


def _dag_instance(rng: random.Random, n: int, m: int) -> Instance:
    """1-3 eligible machines per operation, standard times in 1..99 and
    arcs i -> j for j <= i + 6 with probability 0.3."""
    eligible, std_time = [], {}
    for op in range(1, n + 1):
        machines = sorted(rng.sample(range(1, m + 1), rng.randint(1, 3)))
        eligible.append(tuple(machines))
        std_time.update({(op, k): rng.randint(1, 99) for k in machines})
    arcs = {(i, j) for i in range(1, n + 1)
            for j in range(i + 1, min(n, i + 6) + 1) if rng.random() < 0.3}
    return Instance(n, m, tuple(eligible), std_time, frozenset(arcs), 0.2,
                    f"dag-{n}")


def test_descent_leaves_bounded_neighbors_unpriced(monkeypatch):
    """A best-improvement descent prices only the neighbors whose two lower
    bounds both leave them a chance to beat the scan's best so far, and
    the head-tail bound rules out some that the first bound leaves."""
    inst = _dag_instance(random.Random(5), 60, 6)
    asked, priced = [], []
    beats, price = moves.Move.beats, moves._insertion_makespan

    def recording(move, cutoff):
        asked.append((move, cutoff))
        return beats(move, cutoff)

    monkeypatch.setattr(moves.Move, "beats", recording)
    monkeypatch.setattr(moves, "_insertion_makespan",
                        lambda *args: priced.append(args) or price(*args))
    result = local_search(inst, best_of_est_ect(inst),
                          LocalSearchConfig("reduced", "best"))
    assert result.iterations > 0
    assert 0 < len(priced) < result.neighbors_evaluated
    left = [(move, cutoff) for move, cutoff in asked if move.bound < cutoff]
    both = [move for move, cutoff in left if move.head_tail_bound < cutoff]
    assert len(priced) == len(both) < len(left)
