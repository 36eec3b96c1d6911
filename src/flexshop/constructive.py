"""Constructive heuristics based on dispatching rules.

Both heuristics schedule one operation at a time, always accounting for
the learning effect at the position the operation would occupy.  The
earliest-starting-time (EST) rule first restricts attention to the
operation/machine pairs that can start soonest and picks the one with the
shortest adjusted processing time; the earliest-completion-time (ECT) rule
directly picks the pair that finishes soonest.

With ``rcl_alpha > 0`` the greedy pick is replaced by a uniform draw,
from the given RNG, from the restricted candidate list of pairs within an
``rcl_alpha`` fraction of the best; ``rcl_alpha > 0`` without an RNG is a
ValueError.  With ``rcl_alpha == 0`` the pick is deterministic, regardless
of the RNG: one pass over the ready pairs takes the first, in ascending
(operation, machine) order, with the least (start, time) for EST and the
least completion for ECT, the pair that the list filter would keep first.

Every construction, EST or ECT, greedy or randomized, runs in one
placement engine, ``_placements``: a generator that keeps its state in
local variables, yields the ready (operation, machine) pairs, each with
its start, adjusted time and completion, and is sent the rule's pick.  A
placement re-prices only the pairs on the machine it used, and an
operation's release grows as each predecessor is placed.  Each
operation's predecessors, successors and sorted eligible machines come
from the instance's ``Instance.tables``.  The engine returns the
sequences, times, placement order and makespan; ``best_of_est_ect``
compares the two constructions' makespans and builds only the kept one's
``Schedule`` from them (``graph.schedule_from_placement``).
"""

import random
from bisect import bisect_left
from operator import itemgetter

from .instance import Instance
from .learning import actual_time
from .graph import SOURCE, Schedule, schedule_from_placement

__all__ = ["construct_est", "construct_ect", "best_of_est_ect"]

_OPERATION = itemgetter(0)
_START_TIME = itemgetter(3, 4)
_COMPLETION = itemgetter(5)


def _placements(inst: Instance):
    """The placement engine: a generator that yields the ready pairs and
    is sent the entry to place, until every operation is placed.

    The yielded list holds one entry ``[operation, machine, release,
    start, time, completion]`` per (operation, machine) pair whose
    operation has every predecessor placed, in ascending (operation,
    machine) order.  ``release`` is the latest completion among the
    operation's predecessors, ``start`` is ``max(release, machine
    release)``, ``time`` the learning-adjusted time at the machine's next
    position and ``completion`` their sum.  Placing an entry appends its
    operation to its machine at its start, re-prices in place only the
    entries on that machine, raises its successors' releases to its
    completion and prices the pairs of those it frees.  The state lives in
    the generator's local variables (``makespan`` is the latest completion
    placed).  The engine returns ``(sequences, weights, order,
    makespan)``: the sequences as a tuple of tuples, the time each vertex
    was placed with, the source, the operations as placed and the sink.
    """
    preds, succs, machines = inst.tables
    std, alpha = inst.std_time, inst.learning_rate
    sink = inst.num_operations + 1
    # a root waits only for the source: it is freed before the first pick
    waiting = [len(ps) or 1 for ps in preds]
    freed = [v for v in inst.operations if not preds[v]]
    # release[j]: the latest completion among j's placed predecessors
    release = [0] * sink
    order = [SOURCE]
    weights = [0] * (sink + 1)
    # indexed by machine, index 0 unused
    free = [0] * (inst.num_machines + 1)
    position = [1] * (inst.num_machines + 1)
    sequences = [[] for _ in range(inst.num_machines + 1)]
    on_machine = [{} for _ in range(inst.num_machines + 1)]
    pairs = []
    makespan = end = 0
    while True:
        for j in freed:
            if end > release[j]:
                release[j] = end
            waiting[j] -= 1
            if waiting[j]:
                continue
            ready = release[j]
            entries = []
            for k in machines[j]:
                start = free[k]
                if ready > start:
                    start = ready
                time = actual_time(std[j, k], position[k], alpha)
                entry = [j, k, ready, start, time, start + time]
                on_machine[k][j] = entry
                entries.append(entry)
            at = bisect_left(pairs, j, key=_OPERATION)
            pairs[at:at] = entries
        if not pairs:
            order.append(sink)
            return (tuple(map(tuple, sequences[1:])), weights, order,
                    makespan)
        v, k, _, _, time, end = yield pairs
        order.append(v)
        weights[v] = time
        if end > makespan:
            makespan = end
        sequences[k].append(v)
        for m in machines[v]:
            del on_machine[m][v]
        at = bisect_left(pairs, v, key=_OPERATION)
        del pairs[at:at + len(machines[v])]
        free[k] = end
        position[k] = next_position = position[k] + 1
        for other in on_machine[k].values():
            start = other[2] if other[2] > end else end
            time = actual_time(std[other[0], k], next_position, alpha)
            other[3] = start
            other[4] = time
            other[5] = start + time
        freed = succs[v]


def _check(rcl_alpha, rng):
    if not 0 <= rcl_alpha <= 1:
        raise ValueError(f"rcl_alpha must lie in [0, 1], got {rcl_alpha}")
    if rcl_alpha and rng is None:
        raise ValueError(f"rcl_alpha {rcl_alpha} > 0 needs an rng")


def _est(pairs, rcl_alpha, rng):
    """Among the pairs that start soonest, one whose time lies within an
    ``rcl_alpha`` fraction of the shortest; greedily, the first with the
    least (start, time)."""
    if not rcl_alpha:
        return min(pairs, key=_START_TIME)
    r_min = min([entry[3] for entry in pairs])
    earliest = [entry for entry in pairs if entry[3] == r_min]
    times = [entry[4] for entry in earliest]
    lo = min(times)
    threshold = lo + rcl_alpha * (max(times) - lo)
    return rng.choice([entry for entry in earliest if entry[4] <= threshold])


def _ect(pairs, rcl_alpha, rng):
    """A pair whose completion lies within an ``rcl_alpha`` fraction of
    the earliest; greedily, the first with the earliest."""
    if not rcl_alpha:
        return min(pairs, key=_COMPLETION)
    finish = [entry[5] for entry in pairs]
    lo = min(finish)
    threshold = lo + rcl_alpha * (max(finish) - lo)
    return rng.choice([entry for entry, end in zip(pairs, finish)
                       if end <= threshold])


def _construct(inst, rule, rcl_alpha, rng) -> tuple:
    """Place every operation by ``rule``: the engine's ``(sequences,
    weights, order, makespan)``."""
    _check(rcl_alpha, rng)
    engine = _placements(inst)
    try:
        pairs = next(engine)
        while True:
            pairs = engine.send(rule(pairs, rcl_alpha, rng))
    except StopIteration as done:
        return done.value


def _schedule(inst, placed) -> Schedule:
    """A finished construction's ``Schedule``, timed in placement order."""
    sequences, weights, order, _ = placed
    return schedule_from_placement(inst, sequences, weights, order)


def construct_est(inst: Instance, rcl_alpha: float = 0.0,
                  rng: random.Random | None = None) -> Schedule:
    """Earliest-starting-time constructive heuristic."""
    return _schedule(inst, _construct(inst, _est, rcl_alpha, rng))


def construct_ect(inst: Instance, rcl_alpha: float = 0.0,
                  rng: random.Random | None = None) -> Schedule:
    """Earliest-completion-time constructive heuristic."""
    return _schedule(inst, _construct(inst, _ect, rcl_alpha, rng))


def best_of_est_ect(inst: Instance, rcl_alpha: float = 0.0,
                    rng: random.Random | None = None) -> Schedule:
    """Better of the ECT and EST constructions, both built with
    ``rcl_alpha`` and ``rng`` (greedy by default), ECT first.

    ECT is compared first with a strict `<`, so EST is kept on ties.  Only
    the kept construction becomes a Schedule.
    """
    ect = _construct(inst, _ect, rcl_alpha, rng)
    est = _construct(inst, _est, rcl_alpha, rng)
    return _schedule(inst, ect if ect[3] < est[3] else est)
