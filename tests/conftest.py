import os
import random

import pytest

from flexshop import (
    Instance,
    actual_time,
    build_schedule,
    parse_instance,
    reachable_from,
)
from flexshop.graph import (SOURCE, TIED, Schedule, build_arcs,
                            critical_path, time_graph)
from flexshop.moves import ReducedState, _edited

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

# three operations on one machine, with the arc 1 -> 2
ONE_MACHINE_TEXT = "3 1 0.2\n1 1 4\n1 1 3\n1 1 5\n1\n1 2\n"

# a 6-operation DAG on two machines, where operations 1-4 may run on either
DAG6_TEXT = """\
6 2 0.2
2 1 4 2 3
2 1 3 2 5
2 1 5 2 2
2 1 2 2 4
1 1 6
1 2 3
5
1 3
2 3
3 5
2 4
4 6
"""

# one operation of standard time 10**15 + 1: its time 100 * p passes 2**53,
# where a float quotient would give 100000000000000096
HUGE_TIME_TEXT = "1 1 0.2\n1 1 1000000000000001\n0\n"


@pytest.fixture
def fig1():
    return parse_instance(FIG1_TEXT, "fig1")


@pytest.fixture
def fig2a(fig1):
    """Machine 1 runs [2]; machine 2 runs [1, 4, 5, 3].  Makespan 658."""
    return build_schedule(fig1, [[2], [1, 4, 5, 3]])


@pytest.fixture
def fig2b(fig1):
    """Machine 2 runs [1, 2, 4, 5, 3].  Makespan 528."""
    return build_schedule(fig1, [[], [1, 2, 4, 5, 3]])


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TickingClock:
    """Stand-in for the ``time`` module of a solver module: each
    ``monotonic()`` read returns the next whole second from 0, so that a
    budget runs out at a chosen read whatever the host's speed."""

    def __init__(self):
        self.reads = 0

    def monotonic(self) -> float:
        self.reads += 1
        return float(self.reads - 1)


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
    seqs = [[] for _ in range(inst.num_machines)]
    pending = set(inst.operations)
    while pending:
        ready = [v for v in sorted(pending)
                 if not any(i in pending for i in inst.predecessors(v))]
        v = rng.choice(ready)
        k = rng.choice(inst.eligible_machines(v))
        seqs[k - 1].append(v)
        pending.remove(v)
    return build_schedule(inst, seqs)


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


def scratch_removal(inst: Instance, sched, v: int) -> ReducedState:
    """The reference removal of operation ``v``: the reduced graph G⁻ built
    from its sequences and timed from scratch, its critical path, and the
    windows that the reach sets of ``v`` in G⁻ give.  ``remove_op`` derives
    G⁻ from G; tests compare what it derives with this."""
    origin, gamma = sched.assignment[v], sched.position_of(v)
    sequences = [list(seq) for seq in sched.sequences]
    sequences[origin - 1].remove(v)
    q_minus = tuple(map(tuple, sequences))
    w_minus = [0] * (inst.num_operations + 2)
    for k, seq in enumerate(q_minus, start=1):
        for pos, op in enumerate(seq, start=1):
            w_minus[op] = actual_time(inst.std_time[(op, k)], pos,
                                      inst.learning_rate)
    timing = time_graph(build_arcs(inst, q_minus), w_minus)
    path, xi, tau = critical_path(timing, q_minus)
    ancestors = reachable_from(timing.preds, v)
    descendants = reachable_from(timing.succs, v)

    def bounds(k: int) -> tuple:
        return reach_bounds(q_minus[k - 1], ancestors, descendants)

    return ReducedState(v, sched, origin, gamma, q_minus, w_minus, path, xi,
                        tau, timing, bounds)


def reference_insertion(inst: Instance, rs: ReducedState, v: int, k: int,
                        gamma: int) -> Schedule:
    """The reference insertion of ``v``, the operation ``rs`` removed, at
    position ``gamma`` of machine ``k`` in q⁻, a cycle-free slot on a
    machine it may run on: G⁻ edited into G⁺, in G⁻'s order (reordered
    locally when needed), where the arc before→after gives way to before→v
    and v→after and only v and the operations it pushes are re-weighed.
    The package builds every slot by one edit of G into G⁺ instead
    (``moves._relocated``); tests compare the two routes."""
    seq = rs.q_minus[k - 1]
    moved = seq[gamma - 1:]  # one position later now
    q_plus = list(rs.q_minus)
    q_plus[k - 1] = seq[:gamma - 1] + (v,) + moved
    weights = list(rs.w_minus)
    for pos, op in enumerate((v, *moved), start=gamma):
        weights[op] = actual_time(inst.std_time[(op, k)], pos,
                                  inst.learning_rate)
    before = seq[gamma - 2] if gamma > 1 else None
    after = moved[0] if moved else None
    timing = _edited(inst, rs.timing, ((before, after),),
                     ((before, v), (v, after)), weights, {v, *moved})
    return Schedule(tuple(q_plus), weights, timing.start[-1], timing)


def reach_bounds(seq, ancestors, descendants) -> tuple:
    """Cycle bounds on a machine sequence from the reach sets of v."""
    lower = max((pos for pos, op in enumerate(seq, start=1)
                 if op in ancestors), default=0)
    upper = min((pos for pos, op in enumerate(seq, start=1)
                 if op in descendants), default=len(seq) + 1)
    return lower, upper


def reference_critical_path(timing, sequences) -> tuple:
    """The reference walk, ``build_schedule``'s rule stated directly: the
    graph of ``timing`` timed again from scratch (``time_graph``, each
    vertex weighing its completion minus its start) and walked back from
    ``t``, taking at each vertex the predecessor that finishes at its start
    and comes first in ``time_graph``'s order, with τ from ``sequences``.
    ``critical_path`` settles its ties without timing anything; tests
    compare the two."""
    weights = [c - s for s, c in zip(timing.start, timing.completion)]
    scratch = time_graph(timing.succs, weights)
    path, i = [], len(scratch.start) - 1
    while i != SOURCE:
        path.append(i)
        i = min((u for u in scratch.preds[i]
                 if scratch.completion[u] == scratch.start[i]),
                key=scratch.rank.__getitem__)
    path.append(SOURCE)
    on_path = set(path)
    tau = tuple(max((pos for pos, op in enumerate(seq, start=1)
                     if op in on_path), default=0) for seq in sequences)
    return tuple(reversed(path)), scratch.start[-1], tau


def recounted_setters(timing) -> list:
    """Each vertex's setter counted again from the timing's predecessor
    lists and times: the one predecessor that finishes at its start,
    ``TIED`` when two do, and the source's own for the source."""
    setters = []
    for preds, start in zip(timing.preds, timing.start):
        finish = [u for u in preds if timing.completion[u] == start]
        setters.append(SOURCE if not preds
                       else finish[0] if len(finish) == 1 else TIED)
    return setters


def reference_loss(inst: Instance, rs: ReducedState, k: int,
                   gamma: int) -> int:
    """What the operations of ``rs``'s critical path at positions
    ``gamma`` and later of machine ``k`` in q⁻ lose when each moves one
    position later: the first lower bound of inserting the removed
    operation there is ξ minus this."""
    seq = rs.q_minus[k - 1]
    on_path = set(rs.path)
    return sum(rs.w_minus[op] - actual_time(inst.std_time[(op, k)], pos + 1,
                                            inst.learning_rate)
               for pos, op in enumerate(seq, start=1)
               if pos >= gamma and op in on_path)


def tie_walks(monkeypatch) -> list:
    """The kind of every walk of ``graph.critical_path``, patched wherever
    the package binds it: ``"tie-free"`` when no vertex of the walked path
    is tied, ``"order"`` when the walk sorted the graph's arcs
    (``topological_sort_plus``) to settle a tie by rank, which it must do
    at most once, and ``"zero-weight"`` when the zero-weight rule settled
    every tie on the path."""
    import flexshop.graph
    import flexshop.moves

    kinds, sorted_arcs = [], []
    sort = flexshop.graph.topological_sort_plus
    walk = flexshop.graph.critical_path

    def sorting(adjacency):
        sorted_arcs.append(adjacency)
        return sort(adjacency)

    def walking(timing, sequences):
        sorted_arcs.clear()
        result = walk(timing, sequences)
        if sorted_arcs:
            assert sorted_arcs == [timing.succs]
            kinds.append("order")
        elif any(timing.setter[u] is TIED for u in result[0]):
            kinds.append("zero-weight")
        else:
            kinds.append("tie-free")
        return result

    monkeypatch.setattr(flexshop.graph, "topological_sort_plus", sorting)
    for module in (flexshop.graph, flexshop.moves):
        monkeypatch.setattr(module, "critical_path", walking)
    return kinds
