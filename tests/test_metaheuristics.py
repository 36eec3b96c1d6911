import math
import random
import re
import signal
from contextlib import contextmanager
from dataclasses import replace

import pytest

from flexshop import (
    LocalSearchConfig,
    MetaConfig,
    best_of_est_ect,
    build_schedule,
    enumerate_neighbors,
    local_search,
    parse_instance,
    perturb,
    run,
    validate_schedule,
)

from flexshop.metaheuristics import (
    _grasp as run_grasp,
    _ils as run_ils,
    _sa as run_sa,
    _ts as run_ts,
    ALGORITHMS,
    CHECK_EVERY,
    SA_DELTA,
    SA_SWEEP,
    SA_T0_M,
    SA_T0_P,
    SA_TF,
)

from conftest import FIG1_OPTIMUM, TickingClock, random_instance


class ScriptedRNG:
    """Stand-in RNG replaying a fixed script of draws."""

    def __init__(self, randints=(), randranges=(), randoms=()):
        self._randints = list(randints)
        self._randranges = list(randranges)
        self._randoms = list(randoms)

    def randint(self, a, b):
        value = self._randints.pop(0)
        assert a <= value <= b
        return value

    def randrange(self, n):
        value = self._randranges.pop(0)
        assert 0 <= value < n
        return value

    def random(self):
        return self._randoms.pop(0)


def test_calibrated_defaults():
    assert MetaConfig.calibrated("ils", "reduced").ils_perturb_min == 2
    assert MetaConfig.calibrated("ils", "reduced").ils_perturb_max == 4
    assert MetaConfig.calibrated("ils", "cropped").ils_perturb_min == 1
    assert MetaConfig.calibrated("ils", "cropped").ils_perturb_max == 3
    assert MetaConfig.calibrated("grasp", "reduced").grasp_alpha == 0.38
    assert MetaConfig.calibrated("grasp", "cropped").grasp_alpha == 0.59
    assert MetaConfig.calibrated("ts", "reduced").ts_factor == 0.9
    assert MetaConfig.calibrated("ts", "cropped").ts_factor == 0.5
    assert (SA_SWEEP, SA_T0_P, SA_T0_M) == (3, 0.78, 0.79)
    assert (SA_TF, SA_DELTA) == (1e-3, 0.82)
    override = MetaConfig.calibrated("ts", "reduced", ts_factor=0.4, seed=7)
    assert override.ts_factor == 0.4
    assert override.seed == 7


def test_config_validation():
    with pytest.raises(ValueError):
        MetaConfig(algo="bogus")
    with pytest.raises(ValueError):
        MetaConfig(mode="bogus")
    with pytest.raises(ValueError):
        MetaConfig(ils_perturb_min=5, ils_perturb_max=3)
    nan = float("nan")
    for bad in ({"ts_factor": -1}, {"ts_factor": 0}, {"ts_factor": nan},
                {"ts_factor": math.inf}, {"max_iterations": -3},
                {"time_budget": -1}, {"time_budget": nan},
                {"no_improve_limit": -1}, {"no_improve_limit": nan},
                {"grasp_alpha": 5}, {"grasp_alpha": -0.1},
                {"grasp_alpha": nan}):
        with pytest.raises(ValueError):
            MetaConfig(**bad)
    # zero budgets and caps stay legal: the run still returns its start
    MetaConfig(time_budget=0.0, max_iterations=0, no_improve_limit=0.0)
    MetaConfig(grasp_alpha=0.0)  # a purely greedy construction
    MetaConfig(grasp_alpha=1.0)  # a purely random one


def test_sa_initial_temperature():
    t = -SA_T0_P / math.log(SA_T0_M)
    assert t == pytest.approx(-0.78 / math.log(0.79))
    # a relative worsening of SA_T0_P is first accepted with probability SA_T0_M
    assert math.exp(-SA_T0_P / t) == pytest.approx(SA_T0_M)
    assert 0 < SA_DELTA < 1 and 0 < SA_TF < t
    # geometric cooling reaches and then sticks to the floor
    for _ in range(200):
        t = max(SA_DELTA * t, SA_TF)
    assert t == SA_TF


def test_tabu_list_size(fig1):
    # ceil((5 + 2) * 0.9) = 7
    assert MetaConfig.calibrated("ts", "reduced").ts_list_size(fig1) == 7
    assert MetaConfig.calibrated("ts", "cropped").ts_list_size(fig1) == 4


def test_perturb_scripted_move(fig1, fig2a):
    # draw op 2, machine 2 (index 1), position 2: the known 658 -> 528 move
    rng = ScriptedRNG(randints=[2, 2], randranges=[1])
    sched = perturb(fig1, fig2a, rng)
    assert sched.makespan == 528
    assert sched.sequences == ((), (1, 2, 4, 5, 3))


def test_perturb_ignores_the_longest_path_reduction(fig1, fig2a):
    # machine 1's reduced window for op 2 is empty (no critical operation
    # there), but the cycle-free slot 1 is still available to a perturbation
    rng = ScriptedRNG(randints=[2, 1], randranges=[0])
    sched = perturb(fig1, fig2a, rng)
    assert validate_schedule(fig1, sched) == []
    assert sched.key() == fig2a.key()  # op 2 lands back on machine 1


def test_perturb_fuzz_keeps_feasibility():
    rng = random.Random(53)
    for _ in range(10):
        inst = random_instance(rng)
        sched = best_of_est_ect(inst)
        for _ in range(20):
            sched = perturb(inst, sched, rng)
            assert validate_schedule(inst, sched) == []


def _counting(monkeypatch, module, name) -> list:
    """The calls of ``module.name``, patched to record each."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args: calls.append(args) or original(*args))
    return calls


def test_perturb_prices_nothing(monkeypatch):
    """A perturbation makes no Move, removes and prices nothing, and edits
    the schedule's graph once, or not at all when it draws the operation's
    own slot and returns the schedule it was given."""
    import flexshop.moves

    made = _counting(monkeypatch, flexshop.moves.Move, "__init__")
    removed = _counting(monkeypatch, flexshop.moves, "remove_op")
    priced = _counting(monkeypatch, flexshop.moves, "_insertion_makespan")
    edited = _counting(monkeypatch, flexshop.moves, "_edited")
    rng = random.Random(29)
    steps = kept = 0
    for _ in range(8):
        inst = random_instance(rng, max_machines=2)
        sched = best_of_est_ect(inst)
        for _ in range(6):
            before = len(edited)
            perturbed = perturb(inst, sched, rng)
            built = build_schedule(inst, perturbed.sequences)
            assert perturbed == built
            assert perturbed.critical_path == built.critical_path
            assert len(edited) - before == (perturbed is not sched)
            kept += perturbed is sched
            steps += 1
            sched = perturbed
    assert made == removed == priced == []
    assert 0 < kept < steps


@pytest.mark.parametrize("algo", ["ils", "grasp", "ts", "sa"])
def test_each_algorithm_finds_the_optimum(fig1, algo):
    cfg = MetaConfig.calibrated(algo, "reduced", max_iterations=40, seed=1)
    record = run(fig1, cfg)
    assert record.best_makespan == FIG1_OPTIMUM
    assert record.algorithm == f"{algo}-reduced"
    assert record.stop_reason in ("iteration-cap", "target")
    assert validate_schedule(fig1, record.schedule) == []


@pytest.mark.parametrize("algo", ["ils", "grasp", "ts", "sa"])
def test_seeded_runs_are_reproducible(fig1, algo):
    cfg = MetaConfig.calibrated(algo, "reduced", max_iterations=15, seed=9)
    a = run(fig1, cfg)
    b = run(fig1, cfg)
    assert a.best_makespan == b.best_makespan
    assert a.iterations == b.iterations
    assert a.neighbors_evaluated == b.neighbors_evaluated
    assert a.schedule.key() == b.schedule.key()


def test_target_makespan_stops_immediately(fig1):
    cfg = MetaConfig(algo="ils", target_makespan=10**6, max_iterations=50)
    record = run_ils(fig1, cfg)
    assert record.stop_reason == "target"
    assert record.iterations == 0


@pytest.mark.parametrize("algo", ["ils", "grasp"])
def test_a_descent_ends_at_the_move_that_reaches_the_target(algo):
    """A run whose target is one unit below its start reaches it with the
    first applied move of its first descent and stops there, on "target":
    it returns that move's schedule, not the descent's local optimum
    several moves on, and counts the neighbors of one scan."""
    inst = _large_instance(43)
    cfg = MetaConfig.calibrated(algo, max_iterations=5, seed=1)
    start = (best_of_est_ect(inst) if algo == "ils" else
             best_of_est_ect(inst, cfg.grasp_alpha, random.Random(cfg.seed)))
    descent = local_search(inst, start, LocalSearchConfig("reduced", "best"))
    assert descent.iterations > 2
    record = run(inst, replace(cfg, target_makespan=start.makespan - 1))
    assert record.stop_reason == "target"
    assert record.iterations == 1
    assert record.schedule.sequences == descent.iterates[1]
    assert record.best_makespan > descent.schedule.makespan
    assert record.neighbors_evaluated == len(
        list(enumerate_neighbors(inst, start, "reduced")))


@pytest.mark.parametrize("limit, descents", [(0.5, 1), (2.5, 2)])
def test_grasp_stops_within_one_scan_of_its_no_improve_limit(
        limit, descents, monkeypatch):
    """A descent tests the no-improvement limit after each applied move.
    With a clock that ticks one second per read, each move that improves
    the incumbent is one tick old when the limit is tested, and each that
    does not is one tick older: a limit of 0.5 s stops the run after the
    first move of its first descent, one of 2.5 s after the first move of
    its second, which starts above the first descent's local optimum."""
    import flexshop.metaheuristics

    inst = _large_instance(43)
    cfg = MetaConfig.calibrated("grasp", seed=0, no_improve_limit=limit)
    rng = random.Random(cfg.seed)
    starts = [best_of_est_ect(inst, cfg.grasp_alpha, rng) for _ in range(2)]
    ls_cfg = LocalSearchConfig("reduced", "best")
    first = local_search(inst, starts[0], ls_cfg)
    one_move = local_search(inst, starts[1], ls_cfg, lambda sched: True)
    assert one_move.schedule.makespan > first.schedule.makespan
    # neither descent ends at its first move on its own
    assert first.iterations > 1
    assert local_search(inst, starts[1], ls_cfg).iterations > 1
    neighbors = {
        1: len(list(enumerate_neighbors(inst, starts[0], "reduced"))),
        2: first.neighbors_evaluated + one_move.neighbors_evaluated}
    monkeypatch.setattr(flexshop.metaheuristics, "time", TickingClock())
    record = run(inst, cfg)
    assert record.stop_reason == "no-improvement"
    assert record.iterations == descents
    assert record.neighbors_evaluated == neighbors[descents]


def test_ils_stops_before_a_perturbation_it_would_discard(monkeypatch):
    """A capped ILS run asks whether to stop right after each descent, so
    it draws no perturbation that no descent follows: a cap-1 run makes
    none, and a cap-c run makes 2-4 (the calibrated range) after each of
    its first c - 1 descents."""
    import flexshop.metaheuristics

    calls = []
    relocate = flexshop.metaheuristics.perturb
    monkeypatch.setattr(flexshop.metaheuristics, "perturb",
                        lambda *args: calls.append(1) or relocate(*args))
    inst = random_instance(random.Random(4), max_ops=12, max_machines=3)
    for cap in (0, 1, 2, 3):
        calls.clear()
        record = run_ils(inst, MetaConfig.calibrated("ils", max_iterations=cap,
                                                     seed=cap))
        assert (record.iterations, record.stop_reason) == (cap,
                                                           "iteration-cap")
        assert 2 * (cap - 1) <= len(calls) <= 4 * max(cap - 1, 0)


def test_zero_budget_still_returns_a_feasible_solution(fig1):
    start = best_of_est_ect(fig1)
    for runner in (run_ils, run_ts, run_sa):
        record = runner(fig1, MetaConfig(algo="sa", time_budget=0.0))
        assert record.best_makespan == start.makespan
        assert record.stop_reason == "budget"
        assert validate_schedule(fig1, record.schedule) == []
    # GRASP always completes at least one construction + descent
    record = run_grasp(fig1, MetaConfig(algo="grasp", time_budget=0.0))
    assert record.iterations >= 1
    assert validate_schedule(fig1, record.schedule) == []


def test_iteration_cap_counts_outer_iterations(fig1):
    cfg = MetaConfig(algo="ils", max_iterations=3)
    record = run_ils(fig1, cfg)
    assert record.iterations == 3
    assert record.stop_reason == "iteration-cap"


def test_no_improve_limit_stops_every_metaheuristic(fig1):
    """With no iteration cap and a budget far beyond reach, each run stops
    once the limit passes without an improvement of its incumbent."""
    limit = 0.02
    for algo in ALGORITHMS:
        record = run(fig1, MetaConfig(algo=algo, time_budget=60.0,
                                      no_improve_limit=limit))
        assert record.stop_reason == "no-improvement", algo
        assert record.total_runtime - record.time_to_best > limit
        assert validate_schedule(fig1, record.schedule) == []


@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("stops", [
    {}, {"target_makespan": FIG1_OPTIMUM}, {"time_budget": math.inf},
    {"no_improve_limit": math.inf}])
def test_a_run_without_a_finite_stop_is_refused(fig1, algo, stops):
    """No stop would end such a run: ``run`` refuses it before it starts,
    while ``MetaConfig`` accepts the config."""
    cfg = MetaConfig(algo=algo, **stops)
    with pytest.raises(ValueError, match="a run needs a finite time_budget, "
                       "max_iterations or no_improve_limit"):
        run(fig1, cfg)


@pytest.mark.parametrize("stops, has_stop", [
    ({}, False), ({"target_makespan": 1}, False),
    ({"time_budget": math.inf, "no_improve_limit": math.inf}, False),
    ({"time_budget": 0}, True), ({"max_iterations": 0}, True),
    ({"no_improve_limit": 2.5}, True),
    ({"time_budget": math.inf, "max_iterations": 3}, True)])
def test_has_stop_asks_for_one_finite_stop(stops, has_stop):
    """``has_stop`` is the one finite-stop rule: a zero budget or cap
    counts, an infinite one or a target does not."""
    assert MetaConfig(**stops).has_stop is has_stop


def test_incumbent_never_worsens(fig1):
    start = best_of_est_ect(fig1)
    for algo in ("ils", "grasp", "ts", "sa"):
        for seed in range(4):
            cfg = MetaConfig.calibrated(algo, "reduced", max_iterations=10,
                                        seed=seed)
            record = run(fig1, cfg)
            assert record.best_makespan <= start.makespan
            assert record.time_to_best <= record.total_runtime + 1e-9


def test_cropped_mode_runs(fig1):
    for algo in ("ils", "grasp", "ts", "sa"):
        cfg = MetaConfig.calibrated(algo, "cropped", max_iterations=20, seed=3)
        record = run(fig1, cfg)
        assert record.algorithm == f"{algo}-cropped"
        assert validate_schedule(fig1, record.schedule) == []


@pytest.mark.parametrize("mode", ["full", "reduced", "cropped"])
def test_ts_scans_its_configured_neighborhood(fig1, mode):
    # one tabu iteration evaluates exactly the neighborhood of the start
    cfg = MetaConfig(algo="ts", mode=mode, max_iterations=1)
    expected = len(list(enumerate_neighbors(fig1, best_of_est_ect(fig1), mode)))
    assert run_ts(fig1, cfg).neighbors_evaluated == expected
    if mode == "full":
        assert expected == 15


def test_ts_ignores_its_seed():
    # tabu search draws no random number and starts from a deterministic
    # construction, so two seeds repeat one run
    rng = random.Random(71)
    for _ in range(4):
        inst = random_instance(rng)
        a, b = (run_ts(inst, MetaConfig.calibrated("ts", max_iterations=12,
                                                    seed=seed))
                for seed in (0, 7))
        assert (a.best_makespan, a.iterations, a.neighbors_evaluated,
                a.stalled_iterations, a.schedule.key()) == (
            b.best_makespan, b.iterations, b.neighbors_evaluated,
            b.stalled_iterations, b.schedule.key())


def _large_instance(seed: int):
    rng = random.Random(seed)
    while True:
        inst = random_instance(rng, max_ops=60, max_machines=4)
        if inst.num_operations >= 40:
            return inst


@pytest.mark.parametrize("algo, cap", [("ts", 3), ("sa", 60)])
def test_clock_is_read_every_check_every_candidates(algo, cap, monkeypatch):
    # once per outer iteration (the stop test) and once per CHECK_EVERY
    # candidates, neither every candidate nor never
    from flexshop.metaheuristics import _Run

    calls = []
    out_of_time = _Run.out_of_time
    monkeypatch.setattr(_Run, "out_of_time",
                        lambda self: calls.append(1) or out_of_time(self))
    record = run(_large_instance(43),
                 MetaConfig.calibrated(algo, max_iterations=cap, seed=2))
    assert record.stop_reason == "iteration-cap"
    assert record.neighbors_evaluated >= 2 * CHECK_EVERY
    assert len(calls) == (record.iterations
                          + record.neighbors_evaluated // CHECK_EVERY)


def test_ts_scan_cut_by_its_clock_applies_its_best_move(monkeypatch):
    """A tabu scan that its clock cuts short still applies the best move
    it found, and the run stops on "budget" at once.  The clock ticks one
    second per read: the run's start, the start's offer and the stop test
    come first, and the budget runs out at the scan's first poll, after
    CHECK_EVERY candidates; then only the move's offer and the record read
    it, and no second stop test."""
    import flexshop.metaheuristics
    from flexshop.moves import best_neighbor

    inst = _large_instance(43)
    start = best_of_est_ect(inst)
    polls = []
    best, cut = best_neighbor(inst, start, "reduced", lambda m: math.inf,
                              lambda: polls.append(1)
                              or len(polls) == CHECK_EVERY)
    assert cut and best.makespan < start.makespan
    clock = TickingClock()
    monkeypatch.setattr(flexshop.metaheuristics, "time", clock)
    record = run(inst, MetaConfig.calibrated("ts", time_budget=2.5, seed=1))
    assert record.stop_reason == "budget"
    assert clock.reads == 6
    assert record.iterations == 1
    assert record.neighbors_evaluated == CHECK_EVERY
    assert record.best_makespan == best.makespan
    assert record.schedule.sequences == best.schedule.sequences


@pytest.mark.parametrize("algo", ["ils", "grasp"])
def test_descents_count_their_neighbors(algo, monkeypatch):
    # a run's neighbors are those of its descents, one per iteration
    import flexshop.metaheuristics

    results = []
    descend = flexshop.metaheuristics.local_search
    monkeypatch.setattr(flexshop.metaheuristics, "local_search",
                        lambda *args: results.append(descend(*args))
                        or results[-1])
    record = run(_large_instance(47),
                 MetaConfig.calibrated(algo, max_iterations=3, seed=5))
    assert record.iterations == len(results) == 3
    assert record.neighbors_evaluated == sum(
        r.neighbors_evaluated for r in results) > 0


def test_ts_builds_one_schedule_per_iteration(fig1, monkeypatch):
    # neighbors are priced without a Schedule; only the applied move has one
    import flexshop.moves

    calls = []
    build = flexshop.moves._relocated
    monkeypatch.setattr(flexshop.moves, "_relocated",
                        lambda *args: calls.append(args) or build(*args))
    record = run_ts(fig1, MetaConfig(algo="ts", mode="full", max_iterations=1))
    assert record.neighbors_evaluated == 15
    assert record.stalled_iterations == 0
    assert len(calls) == 1


def test_sa_draws_each_candidate_through_perturb(monkeypatch):
    """Each SA candidate is one ``perturb`` call, which edits the graph at
    most once; no candidate is removed, priced or built from a reduced
    graph (``insert_op``), and the accepted ones are offered to the run."""
    import flexshop.metaheuristics
    import flexshop.moves

    drawn = _counting(monkeypatch, flexshop.metaheuristics, "perturb")
    edited = _counting(monkeypatch, flexshop.moves, "_edited")
    removed = _counting(monkeypatch, flexshop.moves, "remove_op")
    priced = _counting(monkeypatch, flexshop.moves, "_insertion_makespan")
    built = _counting(monkeypatch, flexshop.moves, "insert_op")
    offered = _counting(monkeypatch, flexshop.metaheuristics._Run, "offer")
    rng = random.Random(61)
    candidates = accepted = 0
    for seed in range(8):
        inst = random_instance(rng, max_ops=14, max_machines=4)
        drawn.clear(), edited.clear(), offered.clear()
        record = run_sa(inst, MetaConfig(algo="sa", max_iterations=20,
                                         seed=seed))
        assert record.stop_reason == "iteration-cap"
        assert len(drawn) == record.neighbors_evaluated
        assert len(edited) <= len(drawn)
        candidates += record.neighbors_evaluated
        accepted += len(offered) - 1  # the start is offered too
    assert removed == priced == built == []
    assert 0 < accepted < candidates


def test_sa_always_accepts_improvements():
    temperature = SA_TF  # coldest possible
    for delta in (-0.5, -1e-9, 0.0):
        # acceptance draw r < 1 always passes for non-worsening moves
        assert math.exp(-delta / temperature) >= 0.999999


def test_sa_on_a_zero_makespan(monkeypatch):
    """Standard times may be 0: from a zero makespan SA has no relative
    gap, keeps candidates of makespan 0 and rejects every other."""
    from flexshop.metaheuristics import _Run

    offered = []
    offer = _Run.offer
    monkeypatch.setattr(_Run, "offer", lambda self, sched: offered.append(
        sched.makespan) or offer(self, sched))
    for text in ("2 1 0.2\n1 1 0\n1 1 0\n0\n",
                 "3 2 0.2\n2 1 0 2 5\n2 1 0 2 5\n2 1 0 2 5\n1\n1 3\n"):
        inst = parse_instance(text)
        record = run_sa(inst, MetaConfig(algo="sa", max_iterations=20,
                                         seed=1))
        assert record.best_makespan == 0
        assert record.stop_reason == "iteration-cap"
    assert len(offered) > 2 and set(offered) == {0}


def test_solvers_make_no_reach_search(monkeypatch):
    """Outside a scan a window comes from searches that stop at the asked
    machine: no seeded capped run searches G⁻ for all of v's ancestors or
    descendants."""
    import sys

    import flexshop.graph

    def refused(*args):
        raise AssertionError("reachable_from called")

    reach = flexshop.graph.reachable_from
    for name, module in list(sys.modules.items()):
        if name == "flexshop" or name.startswith("flexshop."):
            for attr, value in list(vars(module).items()):
                if value is reach:
                    monkeypatch.setattr(module, attr, refused)
    rng = random.Random(73)
    for _ in range(4):
        inst = random_instance(rng, max_ops=14, max_machines=4)
        for algo in ALGORITHMS:
            record = run(inst, MetaConfig.calibrated(
                algo, max_iterations=6, seed=rng.randrange(100)))
            assert validate_schedule(inst, record.schedule) == []


def test_records_hold_no_timing():
    """The timing each Schedule carries is stripped from the schedule of
    a RunRecord, which callers may keep by the thousand."""
    import gc
    import types

    from flexshop.graph import Timing

    inst = random_instance(random.Random(67), max_ops=14, max_machines=4)
    for algo in ("ils", "grasp", "ts", "sa"):
        record = run(inst, MetaConfig.calibrated(algo, max_iterations=6,
                                                 seed=1))
        seen, stack = set(), [record]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, Timing), algo
            stack.extend(gc.get_referents(obj))
        assert len(seen) > 10


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_no_algorithm_times_its_start_twice(algo, monkeypatch):
    """Every Schedule carries the timing of its graph, from its
    construction or from the move that built it, into the next scan,
    removal, perturbation or descent: over a whole capped run each graph
    that is built from its arcs is a kept constructive start, timed in
    placement order (a tie rebuild re-times arcs it already has), once per
    run and once per GRASP iteration.  build_schedule never runs."""
    import sys

    import flexshop.graph

    def counted(fn) -> list:
        """Calls of ``fn``, at every flexshop attribute that holds it."""
        calls = []

        def wrapper(*args):
            calls.append(args)
            return fn(*args)

        for name, module in list(sys.modules.items()):
            if name == "flexshop" or name.startswith("flexshop."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
        return calls

    arcs = counted(flexshop.graph.build_arcs)
    placed = counted(flexshop.graph.schedule_from_placement)
    built = counted(flexshop.graph.build_schedule)
    perturbed = counted(perturb)
    inst = random_instance(random.Random(93), max_ops=14, max_machines=4)
    record = run(inst, MetaConfig.calibrated(algo, max_iterations=4, seed=3))
    assert record.iterations == 4
    assert len(placed) == (4 if algo == "grasp" else 1)
    assert len(arcs) == len(placed)
    assert not built
    if algo == "ils":  # every descent is followed by a perturbation chain
        assert len(perturbed) >= 4 * 2


@contextmanager
def _within(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("search", ["best", "first", "ts", "cut scan"])
def test_a_mispriced_move_fails_at_once(search, monkeypatch):
    """With every neighbor priced one below its makespan, the chosen
    move's price is not its built schedule's makespan.  Best- and
    first-improvement descents, a capped tabu run and a scan that its
    stop cuts short each raise PricingError, naming the move, the price
    and the built makespan, within a second, instead of descending on
    moves that do not improve."""
    import flexshop.moves
    from flexshop.moves import PricingError, best_neighbor

    priced = flexshop.moves._insertion_makespan
    monkeypatch.setattr(flexshop.moves, "_insertion_makespan",
                        lambda *args: priced(*args) - 1)
    inst = _large_instance(43)
    start = best_of_est_ect(inst)
    asked = []

    def stop():  # cut the scan after its 200th neighbor
        asked.append(1)
        return len(asked) > 200

    message = (r"move \(v=\d+, k=\d+, gamma=\d+\) was priced (\d+) but "
               r"builds a schedule of makespan (\d+)")
    with _within(1.0), pytest.raises(PricingError, match=message) as error:
        if search == "ts":
            run(inst, MetaConfig.calibrated("ts", max_iterations=5))
        elif search == "cut scan":
            best_neighbor(inst, start, "reduced",
                          lambda move: start.makespan, stop)
        else:
            local_search(inst, start, LocalSearchConfig("reduced", search))
    price, built = map(int, re.search(message, str(error.value)).groups())
    assert price == built - 1
    if search == "cut scan":
        assert len(asked) == 201
