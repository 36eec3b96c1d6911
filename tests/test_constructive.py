import random

import pytest

from flexshop import (
    actual_time,
    best_of_est_ect,
    build_schedule,
    construct_ect,
    construct_est,
    parse_instance,
    validate_schedule,
)

from conftest import random_instance


def test_single_operation():
    inst = parse_instance("1 2 1.0\n2 1 2 2 5\n0")
    for construct in (construct_est, construct_ect, best_of_est_ect):
        sched = construct(inst)
        assert sched.assignment[1] == 1  # shorter machine wins
        assert sched.makespan == 200


def test_ect_prefers_early_completion():
    # machine 1 is slow but free first; ECT picks the globally earlier finish
    inst = parse_instance("2 2 1.0\n2 1 9 2 1\n1 2 1\n0")
    ect = construct_ect(inst)
    assert validate_schedule(inst, ect) == []
    assert ect.assignment[1] == 2


def test_est_breaks_start_ties_by_adjusted_time():
    # both machines are free at 0; EST keeps the earliest starters and
    # picks the shortest adjusted processing time among them
    inst = parse_instance("2 2 1.0\n2 1 5 2 3\n2 1 4 2 6\n0")
    est = construct_est(inst)
    assert est.assignment[1] == 2  # (1, 2) has the minimum time 3
    assert validate_schedule(inst, est) == []


def test_respects_precedence_and_learning(fig1):
    for construct in (construct_est, construct_ect):
        sched = construct(fig1)
        assert validate_schedule(fig1, sched) == []
        from flexshop import start_completion_times

        times = start_completion_times(fig1, sched)
        for i, j in fig1.precedence_arcs:
            assert times[i][1] <= times[j][0]


def test_deterministic_without_rcl(fig1):
    a = construct_est(fig1)
    b = construct_est(fig1, rcl_alpha=0.0, rng=random.Random(99))
    assert a.key() == b.key()


def test_rcl_draws_are_seeded(fig1):
    a = construct_ect(fig1, rcl_alpha=0.8, rng=random.Random(5))
    b = construct_ect(fig1, rcl_alpha=0.8, rng=random.Random(5))
    c = [construct_ect(fig1, rcl_alpha=0.8, rng=random.Random(s)).key()
         for s in range(12)]
    assert a.key() == b.key()
    assert len(set(c)) > 1  # different seeds explore different builds


def test_rcl_alpha_out_of_range(fig1):
    with pytest.raises(ValueError):
        construct_est(fig1, rcl_alpha=1.5)
    with pytest.raises(ValueError):
        construct_ect(fig1, rcl_alpha=-0.1)


def test_rcl_alpha_needs_an_rng(fig1):
    # without an RNG a restricted candidate list cannot be drawn from
    for construct in (construct_est, construct_ect, best_of_est_ect):
        with pytest.raises(ValueError, match="rcl_alpha 0.5 > 0 needs an rng"):
            construct(fig1, rcl_alpha=0.5)


def test_randomized_best_of_pair_builds_ect_first():
    # one RNG serves both builds, ECT's draws first; EST is kept on ties
    rng = random.Random(23)
    for seed in range(40):
        inst = random_instance(rng)
        draws = random.Random(seed)
        ect = construct_ect(inst, 0.5, draws)
        est = construct_est(inst, 0.5, draws)
        expected = ect if ect.makespan < est.makespan else est
        best = best_of_est_ect(inst, 0.5, random.Random(seed))
        assert best.key() == expected.key()


def test_randomized_builds_are_feasible():
    rng = random.Random(17)
    for _ in range(30):
        inst = random_instance(rng)
        for construct in (construct_est, construct_ect):
            sched = construct(inst, rcl_alpha=1.0, rng=rng)
            assert validate_schedule(inst, sched) == []


def test_best_of_pair_takes_the_minimum():
    rng = random.Random(19)
    tie_with_distinct_builds = 0
    for _ in range(60):
        inst = random_instance(rng)
        est = construct_est(inst)
        ect = construct_ect(inst)
        best = best_of_est_ect(inst)
        assert best.makespan == min(est.makespan, ect.makespan)
        if est.makespan == ect.makespan:
            # ties resolve to the earliest-starting-time build
            assert best.key() == est.key()
            if est.key() != ect.key():
                tie_with_distinct_builds += 1
    assert tie_with_distinct_builds >= 0  # informational; ties may coincide


def _ready_pairs(inst, done, sequences):
    """The ready pairs by a scan of every unplaced operation, priced from
    the placements: ``done`` maps each placed operation to its completion
    and ``sequences`` lists each machine's placed operations."""
    pairs = []
    for v in inst.operations:
        preds = inst.predecessors(v)
        if v in done or any(i not in done for i in preds):
            continue
        release = max((done[i] for i in preds), default=0)
        for k in sorted(inst.eligible_machines(v)):
            seq = sequences[k - 1]
            free = done[seq[-1]] if seq else 0
            time = actual_time(inst.std_time[(v, k)], len(seq) + 1,
                               inst.learning_rate)
            start = max(release, free)
            pairs.append([v, k, release, start, time, start + time])
    return pairs


def test_ready_pairs_match_a_full_scan():
    """At every placement the pairs that the engine yields are those a scan
    of every unplaced operation gives, in the same order and with the same
    releases; each pair's start, time and completion equal max(release,
    machine release), the learning-adjusted time at the machine's next
    position and their sum, recomputed from the placements.  The engine's
    running makespan is the latest completion placed.  It returns the
    sequences, the weights, the placement order and, as makespan, the built
    schedule's.  Random DAGs and chains, single-machine ones included."""
    from flexshop.constructive import _placements
    from test_moves import _chain_instance

    rng = random.Random(29)
    cases = [random_instance(rng, max_ops=14, max_machines=4,
                             arc_prob=(0.0, 0.2, 0.5)[case % 3],
                             max_time=2 if case % 2 else 10)
             for case in range(40)]
    cases += [_chain_instance(rng, 2 if case % 2 else 10)
              for case in range(40)]
    assert sum(inst.num_machines == 1 for inst in cases) > 5
    steps = 0
    for inst in cases:
        engine = _placements(inst)
        done = {}  # placed operation -> its completion
        sequences = [[] for _ in inst.machines]
        weights = [0] * (inst.num_operations + 2)
        order = [0]
        try:
            pairs = next(engine)
            while True:
                assert pairs == _ready_pairs(inst, done, sequences)
                index = rng.randrange(len(pairs))
                v, k, _, _, time, end = pairs[index]
                done[v] = end
                sequences[k - 1].append(v)
                weights[v] = time
                order.append(v)
                pairs = engine.send(pairs[index])
                assert engine.gi_frame.f_locals["makespan"] == max(
                    done.values())
                steps += 1
        except StopIteration as stop:
            placed = stop.value
        assert len(done) == inst.num_operations
        assert placed == (tuple(map(tuple, sequences)), weights,
                          order + [inst.num_operations + 1],
                          max(done.values()))
        assert placed[3] == build_schedule(inst, sequences).makespan
    assert steps > 300


def _reference_est(pairs, rcl_alpha, rng):
    """The EST pick by the full restricted-list filter: the pairs that
    start soonest, then those whose time lies within an ``rcl_alpha``
    fraction of the shortest; the first of them, or a draw."""
    r_min = min([entry[3] for entry in pairs])
    earliest = [entry for entry in pairs if entry[3] == r_min]
    times = [entry[4] for entry in earliest]
    lo = min(times)
    threshold = lo + rcl_alpha * (max(times) - lo)
    rcl = [entry for entry in earliest if entry[4] <= threshold]
    return rng.choice(rcl) if rcl_alpha else rcl[0]


def _reference_ect(pairs, rcl_alpha, rng):
    """The ECT pick by the full restricted-list filter: the pairs whose
    completion lies within an ``rcl_alpha`` fraction of the earliest; the
    first of them, or a draw."""
    finish = [entry[3] + entry[4] for entry in pairs]
    lo = min(finish)
    threshold = lo + rcl_alpha * (max(finish) - lo)
    rcl = [entry for entry, end in zip(pairs, finish) if end <= threshold]
    return rng.choice(rcl) if rcl_alpha else rcl[0]


def test_greedy_pick_matches_the_list_filter():
    """At every placement of greedy EST and ECT, the one-pass pick is the
    entry that the full restricted-list filter keeps first at
    ``rcl_alpha=0``, on random, tie-heavy (times in {1, 2}) and 60-150
    operation DAG and chain instances.  With ``rcl_alpha > 0`` the rules
    draw what the filter draws, from the same RNG state.  The engine is
    driven by ``_construct``, which sends it each pick."""
    from flexshop.constructive import _construct, _ect, _est

    from test_behaviour_digest import _large_instances

    rng = random.Random(31)
    cases = [random_instance(rng, max_ops=14, max_machines=4,
                             max_time=2 if case % 2 else 10)
             for case in range(60)]
    cases += _large_instances()
    ties = picks = 0

    def checked(rule, reference):
        def pick(pairs, rcl_alpha, rng):
            nonlocal ties, picks
            draws = rng.getstate()
            want = reference(pairs, rcl_alpha, rng)
            after = rng.getstate()
            rng.setstate(draws)
            got = rule(pairs, rcl_alpha, rng)
            assert got is want
            assert rng.getstate() == after
            if not rcl_alpha:
                key = (want[3], want[4]) if rule is _est else want[5]
                keys = [(e[3], e[4]) if rule is _est else e[5]
                        for e in pairs]
                ties += keys.count(key) > 1
                picks += 1
            return got
        return pick

    rules = (checked(_est, _reference_est), checked(_ect, _reference_ect))
    for inst in cases:
        for rule in rules:
            for rcl_alpha in (0.0, 0.5):
                _construct(inst, rule, rcl_alpha, rng)
    assert picks > 2000 and ties > 100  # equal keys: the first one wins


def test_every_construction_is_timed_as_build_schedule_times_it():
    """Greedy and randomized EST, ECT and best-of starts, on random,
    tie-heavy (times in {1, 2}) and chain instances, carry the
    sequences, times, makespan, arcs, start and completion times, tie
    flags and critical path that ``build_schedule`` gives their sequences;
    only the order differs.  Each timing's order is the source, every
    operation once and the sink, in a topological order of the graph."""
    from test_moves import _chain_instance

    rng = random.Random(37)
    cases = [random_instance(rng, max_ops=14, max_machines=4,
                             max_time=2 if case % 2 else 10)
             for case in range(60)]
    cases += [_chain_instance(rng, 2 if case % 2 else 10)
              for case in range(40)]
    tied = reordered = 0
    for seed, inst in enumerate(cases):
        sink = inst.num_operations + 1
        for construct in (construct_est, construct_ect, best_of_est_ect):
            for rcl_alpha in (0.0, 0.3, 1.0):
                sched = construct(inst, rcl_alpha, random.Random(seed))
                want = build_schedule(inst, sched.sequences)
                got, ref = sched.timing, want.timing
                assert sched.sequences == want.sequences
                assert sched.actual_times == want.actual_times
                assert sched.makespan == want.makespan
                assert got.succs == ref.succs
                assert list(map(set, got.preds)) == list(map(set, ref.preds))
                assert got.start == ref.start
                assert got.completion == ref.completion
                assert got.tied == ref.tied
                assert sched.critical_path == want.critical_path
                assert sorted(got.order) == list(range(sink + 1))
                assert got.order[0] == 0 and got.order[-1] == sink
                assert all(got.order[got.rank[u]] == u for u in got.order)
                assert all(got.rank[u] < got.rank[j]
                           for u in got.order for j in got.succs[u])
                tied += any(got.tied)
                reordered += got.order != ref.order
    # tie flags decide where a path read re-times; the orders differ
    assert tied > 50 and reordered > 300
