import random

import pytest

from flexshop import Instance, build_schedule, parse_instance

FIG1_TEXT = """\
5 2 1.0
2 1 1 2 1
2 1 1 2 1
2 1 1 2 1
2 1 10 2 10
2 1 1 2 1
3
1 2
2 3
4 5
"""

# optimal makespan of the instance above, frozen from the exhaustive oracle
FIG1_OPTIMUM = 453


@pytest.fixture
def fig1():
    return parse_instance(FIG1_TEXT, "fig1")


@pytest.fixture
def fig2a(fig1):
    """Machine 1 runs [2]; machine 2 runs [1, 4, 5, 3].  Makespan 658."""
    return build_schedule(fig1, {1: 2, 2: 1, 3: 2, 4: 2, 5: 2}, [[2], [1, 4, 5, 3]])


@pytest.fixture
def fig2b(fig1):
    """Machine 2 runs [1, 2, 4, 5, 3].  Makespan 528."""
    return build_schedule(
        fig1, {1: 2, 2: 2, 3: 2, 4: 2, 5: 2}, [[], [1, 2, 4, 5, 3]]
    )


def random_instance(rng: random.Random, max_ops: int = 8, max_machines: int = 3,
                    alphas=(0.1, 0.2, 0.3), arc_prob: float = 0.3,
                    max_time: int = 10) -> Instance:
    """Small random instance with a random DAG of precedence arcs and
    standard times in ``1..max_time`` (2 makes many paths tie)."""
    n = rng.randint(1, max_ops)
    m = rng.randint(1, max_machines)
    eligible = []
    std_time = {}
    for op in range(1, n + 1):
        machines = sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))
        eligible.append(tuple(machines))
        for k in machines:
            std_time[(op, k)] = rng.randint(1, max_time)
    arcs = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < arc_prob
    }
    return Instance(n, m, tuple(eligible), std_time, frozenset(arcs),
                    rng.choice(list(alphas)), f"rand-{n}x{m}")


def random_schedule(rng: random.Random, inst: Instance):
    """A random precedence-compatible schedule: operations are appended, in
    a random topological order, to a random eligible machine."""
    assignment = {}
    seqs = [[] for _ in range(inst.num_machines)]
    pending = set(inst.operations)
    while pending:
        ready = [v for v in sorted(pending)
                 if not any(i in pending for i in inst.predecessors(v))]
        v = rng.choice(ready)
        k = rng.choice(inst.eligible_machines(v))
        assignment[v] = k
        seqs[k - 1].append(v)
        pending.remove(v)
    return build_schedule(inst, assignment, seqs)


def simulate_makespan(inst: Instance, sched) -> int:
    """Event-driven forward simulation, independent of the longest-path DP.

    Repeatedly starts the first unfinished operation of each machine whose
    precedence predecessors are complete.
    """
    done = {}
    pending = set(inst.operations)
    preds = {op: inst.predecessors(op) for op in inst.operations}
    while pending:
        progressed = False
        for seq in sched.sequences:
            prev_done = 0
            for op in seq:
                if op in done:
                    prev_done = done[op]
                    continue
                if any(p not in done for p in preds[op]):
                    break
                start = max([prev_done] + [done[p] for p in preds[op]])
                done[op] = start + sched.actual_times[op]
                pending.discard(op)
                progressed = True
                break
        assert progressed, "simulation deadlocked: infeasible schedule"
    return max(done.values())
