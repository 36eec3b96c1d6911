"""Byte-identity of the search behaviour.

SHA-256 digests of every neighbor scan, every descent trajectory and a
grid of seeded, iteration-capped metaheuristic runs on a fixed set of
seeded random instances, half of them with standard times in {1, 2} so
that many paths tie.  The digests were frozen from the code before the
scan derived each reduced graph from the current one; a speed-up of the
neighbor evaluation must leave all three unchanged.  A fourth digest,
frozen while the tabu list was still a plain list, pins the order in
which tabu search's memory evicts entries.  A fifth digest, frozen
before construction cached its (operation, machine) prices, pins every
greedy and randomized constructive start.  A sixth, frozen before a
random relocation edited the schedule's graph once instead of removing
and then reinserting, pins simulated annealing on larger instances and
walks of perturbations.  A seventh, frozen before a critical path's ties
were settled without timing the graph again from scratch, pins every scan
of tabu search on 200-300 operation instances whose paths often tie.  A
deliberate change of behaviour updates them and says why.
"""

import hashlib
import math
import random
from types import SimpleNamespace

import pytest

from flexshop import (
    Instance,
    LocalSearchConfig,
    MetaConfig,
    best_of_est_ect,
    construct_ect,
    construct_est,
    enumerate_neighbors,
    local_search,
    perturb,
    run,
)
from flexshop.moves import NEIGHBORHOOD_MODES

from conftest import random_instance, random_schedule
from test_moves import _large_instance, _tie_heavy

# iteration caps that keep the whole grid within a few seconds
RUN_CAPS = {"ils": 3, "grasp": 2, "ts": 6, "sa": 12}

FROZEN = {
    "neighbors":
        "5e32ba8aebcf26ccef281fe1b50fefcb61da0ceb2d9a69040fb423f043dfe2ef",
    "descents":
        "102004698399d1a4e35cbcf14dca7c17515f87da973d930a705ce2733a78f35c",
    "runs":
        "217be7bc91b7b28ae8715f8987eb648e3071851b641d2d8a04b135da57607065",
    "tabu":
        "5abe37cfc37e4954b88c26ea232810681d728739c9c3a54925057b89536a0335",
    "constructions":
        "b402025d9e866f0b75c5a79496ad3e885795afeea2a2e36a1a8ca1c71af023ac",
    "relocations":
        "a17d2b6616aacb443b5f2a27d59c4cb23d7ab28def5aa21bd225b24a68aba558",
    "large tabu scans":
        "79dcda8e135a0b7323ac07aac18e4c4c1e504069b82df739fbd479687d3cff25",
}

# restricted candidate list widths: GRASP's calibrations and the widest
RCL_ALPHAS = (0.38, 0.59, 1.0)


def _instances():
    rng = random.Random(20260718)
    out = []
    for i in range(40):
        inst = random_instance(rng, max_ops=14, max_machines=4,
                               max_time=2 if i % 2 else 10)
        out.append((inst, rng.randrange(2**32)))
    return out


def _starts(inst, seed):
    """The constructive start, a random schedule and that schedule after
    two and four perturbations."""
    rng = random.Random(seed)
    starts = [best_of_est_ect(inst), random_schedule(rng, inst)]
    sched = starts[-1]
    for walk in range(4):
        sched = perturb(inst, sched, rng)
        if walk % 2:
            starts.append(sched)
    return starts


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def cases():
    return [(inst, _starts(inst, seed)) for inst, seed in _instances()]


def test_neighbor_scans_are_unchanged(cases):
    def lines():
        for inst, starts in cases:
            for sched in starts:
                for mode in NEIGHBORHOOD_MODES:
                    yield mode, [(m.operation, m.machine, m.position, m.makespan)
                                 for m in enumerate_neighbors(inst, sched, mode)]
    assert _digest(lines()) == FROZEN["neighbors"]


def test_descent_trajectories_are_unchanged(cases):
    def lines():
        for inst, starts in cases:
            for sched in starts[:2]:
                for mode in NEIGHBORHOOD_MODES:
                    result = local_search(inst, sched,
                                          LocalSearchConfig(mode, "best"))
                    yield (mode, result.iterations, result.neighbors_evaluated,
                           result.trajectory)
    assert _digest(lines()) == FROZEN["descents"]


def test_capped_runs_are_unchanged(cases):
    def lines():
        for index, (inst, _) in enumerate(cases):
            for algo, cap in RUN_CAPS.items():
                for mode in NEIGHBORHOOD_MODES:
                    cfg = MetaConfig.calibrated(algo, mode, seed=index,
                                                max_iterations=cap)
                    rec = run(inst, cfg)
                    yield (algo, mode, rec.best_makespan, rec.iterations,
                           rec.neighbors_evaluated, rec.stalled_iterations,
                           rec.stop_reason, rec.schedule.key())
    assert _digest(lines()) == FROZEN["runs"]


def test_tabu_memory_is_unchanged(cases):
    """Capped tabu runs whose memory evicts entries.  Short lists
    (``ts_factor`` 0.05 and 0.3, cap 40) overflow in 153 of 160 runs and
    stall in 180 iterations; the default list over 150 iterations on the
    first eight instances also re-chooses pairs that are still tabu,
    which then become the newest entries."""
    grid = [(0.05, 40, cases), (0.3, 40, cases), (0.9, 150, cases[:8])]

    def lines():
        for factor, cap, insts in grid:
            for inst, _ in insts:
                for mode in ("reduced", "cropped"):
                    rec = run(inst, MetaConfig.calibrated(
                        "ts", mode, ts_factor=factor, max_iterations=cap))
                    yield (factor, mode, rec.best_makespan, rec.iterations,
                           rec.neighbors_evaluated, rec.stalled_iterations,
                           rec.schedule.key())
    assert _digest(lines()) == FROZEN["tabu"]


def _large_instances():
    """Seeded instances at n = 60-150: a random DAG of short arcs (each
    ``i -> j`` with ``j <= i + 6`` drawn with probability 0.3) and jobs
    that form one chain each, half with standard times in {1, 2}."""
    rng = random.Random(20261019)
    out = []
    for index, n in enumerate((60, 90, 120, 150)):
        for layout in ("dag", "chain"):
            m = rng.randint(4, 10)
            max_time = 2 if index % 2 else 99
            eligible = tuple(
                tuple(sorted(rng.sample(range(1, m + 1), rng.randint(1, 3))))
                for _ in range(n))
            std_time = {(op, k): rng.randint(1, max_time)
                        for op in range(1, n + 1) for k in eligible[op - 1]}
            if layout == "dag":
                arcs = {(i, j) for i in range(1, n + 1)
                        for j in range(i + 1, min(n, i + 6) + 1)
                        if rng.random() < 0.3}
            else:
                arcs, first = set(), 1
                while first <= n:
                    last = min(n, first + rng.randint(2, 9))
                    arcs.update((i, i + 1) for i in range(first, last))
                    first = last + 1
            out.append(Instance(n, m, eligible, std_time, frozenset(arcs),
                                rng.choice((0.1, 0.2, 0.3)),
                                f"{layout}-{n}x{m}"))
    return out


def test_constructions_are_unchanged():
    """Every rule, greedy and over three RCL widths with three seeds each,
    on the digest's instances and on larger DAGs and chains: the machine
    sequences, the makespan and the RNG's next draw after the build."""
    insts = [inst for inst, _ in _instances()] + _large_instances()
    rules = (construct_est, construct_ect, best_of_est_ect)

    def lines():
        for index, inst in enumerate(insts):
            for rule in rules:
                grid = [(0.0, index)] + [(alpha, index + 1000 * s)
                                         for alpha in RCL_ALPHAS
                                         for s in range(1, 4)]
                for alpha, seed in grid:
                    rng = random.Random(seed)
                    sched = rule(inst, alpha, rng)
                    yield (rule.__name__, alpha, sched.sequences,
                           sched.makespan, rng.random())
    assert _digest(lines()) == FROZEN["constructions"]


# simulated annealing's iteration cap on the larger instances
SA_CAP = 150


def test_relocations_are_unchanged(cases):
    """Capped SA runs on the larger DAGs and chains, whose candidates are
    all random relocations, and 20-step perturbation walks from the
    constructive start of every instance: each step's solution, its
    makespan and the RNG's next draw."""
    large = _large_instances()

    def lines():
        for index, inst in enumerate(large):
            for mode in ("reduced", "cropped"):
                rec = run(inst, MetaConfig.calibrated(
                    "sa", mode, seed=index, max_iterations=SA_CAP))
                yield (mode, rec.best_makespan, rec.iterations,
                       rec.neighbors_evaluated, rec.stop_reason,
                       rec.schedule.key())
        insts = [inst for inst, _ in cases] + large
        for index, inst in enumerate(insts):
            rng = random.Random(index)
            sched = best_of_est_ect(inst)
            for _ in range(20):
                sched = perturb(inst, sched, rng)
                peek = random.Random()
                peek.setstate(rng.getstate())
                yield sched.key(), sched.makespan, peek.random()
    assert _digest(lines()) == FROZEN["relocations"]


# tabu search's iteration cap on the tie-heavy large instances
TS_LARGE_CAP = 30


def test_large_tabu_scans_are_unchanged(monkeypatch):
    """Capped TS-reduced runs (calibrated, cap 30) on the 210-operation DAG
    and chain of ``test_moves._large_instance``, with standard times in
    {1, 2}, so that the reduced graphs' critical paths often tie: each
    scan's chosen move (v, k, γ and makespan), whether it was cut, the
    neighbors it counted and the tabu memory it read, then the record."""
    import flexshop.metaheuristics

    choose = flexshop.metaheuristics.best_neighbor
    lines = []

    def recorded(inst, sched, mode, ceiling, stop, first=False):
        counted = [0]

        def counting():
            counted[0] += 1
            return stop()

        move, cut = choose(inst, sched, mode, ceiling, counting, first)
        # the memory does not change during a scan: a pair is tabu when
        # its ceiling is finite
        tabu = tuple(
            (v, k) for v in inst.operations for k in inst.eligible_machines(v)
            if ceiling(SimpleNamespace(operation=v, machine=k)) < math.inf)
        chosen = (None if move is None else
                  (move.operation, move.machine, move.position, move.makespan))
        lines.append((chosen, cut, counted[0], tabu))
        return move, cut

    monkeypatch.setattr(flexshop.metaheuristics, "best_neighbor", recorded)
    rng = random.Random(23)
    insts = [_large_instance(rng, layout) for layout in ("dag", "chain")]
    for inst in insts:
        inst = _tie_heavy(inst, rng, inst.learning_rate)
        rec = run(inst, MetaConfig.calibrated(
            "ts", "reduced", max_iterations=TS_LARGE_CAP))
        lines.append((inst.name, inst.num_operations, rec.best_makespan,
                      rec.iterations, rec.neighbors_evaluated,
                      rec.stalled_iterations, rec.stop_reason,
                      rec.schedule.key()))
    assert _digest(lines) == FROZEN["large tabu scans"]
